"""Step-length laws for geodesic random walks.

Each law describes the distribution of the tangent step at a point, in the
orthonormal radial frame: a signed outward radial component plus a transverse
component in the remaining d-1 directions.  Laws are radially symmetric (the
distribution depends on the walker's position only through its radius), so a
law is fully specified by radial parameter profiles plus the dimension.

Every built-in law samples in three pieces:

* ``unit_rows(m, rng)`` draws m rows with one distribution per numpy call
  (normals, or for the box law uniforms), and consumes the stream exactly
  as m one-row calls would;
* ``radius_free(rows)`` maps what of their steps does not depend on the
  radius: all of ``(d_rad, t)`` for a law with constant profiles, d_rad for
  an elliptic or box law with a constant a, e^-y for the heavy-tail law;
* ``steps(R, part)`` maps the rest at R, one radius or one per row, to
  ``(d_rad, t)``.

``sample_components(r, rng)`` (one step) and ``sample_components_batch(r,
n, rng)`` (n steps, for the Monte Carlo estimators) are these pieces, so n
one-step calls and one batch of n give the same bytes and leave the stream
in the same state.  A walk draws the rows of many steps ahead, maps their
radius-free part once, and maps each step's part at the walkers' radii, so
its steps hold the bytes one-step calls would give: a power-decay profile
and the heavy-tail activation length take one radius and an array of them
by one rule, `np.float_power`, which calls libm's pow as Python's ** does.
A custom law has no radius-free rows: it samples one step per call of its
own sampler.

The built-in laws also describe their steps at a radius for Gauss
quadrature (``quadrature_lines``), which the moment estimators use instead
of sampling; box laws do so only in d = 2 and for curvature times radial
half-side at most QUADRATURE_KA, where that costs less than sampling.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, record

_SQRT3 = math.sqrt(3.0)
Z99 = 2.5758293035489004    # two-sided 99% normal quantile
# a box law in d = 2 is integrated while the curvature times its radial
# half-side stays at most this; beyond, sampling costs less (BENCH_18)
QUADRATURE_KA = 3.0


# ---------------------------------------------------------------------------
# Radial parameter profiles
# ---------------------------------------------------------------------------

@record
class RadialProfile:
    """Nonnegative function of the radius.

    Kinds:
      constant   -- c
      powerdecay -- c * min(1, r**-p)
      table      -- linear interpolation through (r, value) pairs, clamped to
                    the end values outside the tabulated range
    """

    kind: str
    c: float = 0.0
    exponent: float = 0.0
    radii: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind in ("constant", "powerdecay"):
            if not (math.isfinite(self.c) and math.isfinite(self.exponent)):
                raise DomainError(f"profile parameters must be finite, got c = {self.c}, "
                                  f"exponent = {self.exponent}")
            if self.c < 0.0:
                raise DomainError(f"profile values must be >= 0, got c = {self.c}")
        elif self.kind == "table":
            r = np.asarray(self.radii, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 1:
                raise DomainError("table profile needs matching 1-d radii and values")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
                raise DomainError("table radii and values must be finite")
            if np.any(np.diff(r) <= 0.0):
                raise DomainError("table radii must be strictly increasing")
            if np.any(r < 0.0) or np.any(v < 0.0):
                raise DomainError("table radii and values must be >= 0")
            r, v = r.copy(), v.copy()
            r.flags.writeable = False
            v.flags.writeable = False
            object.__setattr__(self, "radii", r)
            object.__setattr__(self, "values", v)
        else:
            raise DomainError(f"unknown profile kind {self.kind!r}")

    @classmethod
    def constant(cls, c: float) -> "RadialProfile":
        return cls("constant", c=c)

    @classmethod
    def power_decay(cls, c: float, exponent: float) -> "RadialProfile":
        return cls("powerdecay", c=c, exponent=exponent)

    @classmethod
    def table(cls, radii, values) -> "RadialProfile":
        return cls("table", radii=np.asarray(radii, float), values=np.asarray(values, float))

    def __call__(self, r: float) -> float:
        return float(self.at(float(r)))

    def at(self, radii):
        """The profile at each of the radii, one radius or a 1-d array of
        them, each by one rule.  A constant profile gives its one value,
        which broadcasts."""
        if self.kind == "constant":
            return self.c
        if self.kind == "table":
            return np.interp(radii, self.radii, self.values)
        # np.float_power, which takes libm's pow as Python's ** does (np.power's
        # SIMD loop differs from it in the last bit), of the radii clamped at 1
        # where r^-p would be >= 1 (and for NaN): there 1^-p = 1, and the
        # power, which can exceed the double range, is not taken
        q = -self.exponent
        return self.c * np.float_power((np.fmax if q <= 0.0 else np.fmin)(radii, 1.0), q)

    def sup(self) -> float:
        """Supremum over r >= 0."""
        if self.kind == "constant":
            return self.c
        if self.kind == "powerdecay":
            return self.c  # min(1, r**-p) <= 1 with equality attained
        return float(np.max(self.values))

    def inf(self) -> float:
        """Infimum over r >= 0 (table profiles extend by their end values)."""
        if self.kind == "constant":
            return self.c
        if self.kind == "powerdecay":
            return self.c if self.exponent == 0.0 else 0.0
        return float(np.min(self.values))

    def describe(self) -> str:
        if self.kind == "constant":
            return f"const:{self.c!r}"
        if self.kind == "powerdecay":
            return f"powerdecay:{self.c!r},{self.exponent!r}"
        return "table:<{} points>".format(self.values.size)


# ---------------------------------------------------------------------------
# Law classes
# ---------------------------------------------------------------------------

def _normal_rows(m: int, width: int, rng: np.random.Generator, lead: int = 0) -> np.ndarray:
    """m rows of `width` normals, each row's columns from `lead` on divided
    by their norm: a uniform direction behind `lead` free normals.

    The rows are drawn as m one-row calls would draw them: a row whose
    direction part has norm <= 1e-12 is dropped, and only the shortfall is
    drawn again, as a one-row call redraws.  The batched matmul gives every
    row's g @ g bit for bit; einsum and np.linalg.norm do not.
    """
    g = rng.standard_normal((m, width))
    u = g[:, lead:]
    norms = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
    keep = norms > 1e-12
    if not keep.all():
        g, norms = g[keep], norms[keep]
    g[:, lead:] /= norms[:, None]
    if len(g) < m:
        g = np.concatenate([g, _normal_rows(m - len(g), width, rng, lead)])
    return g


class IncrementLaw:
    """Base class; concrete laws fill in the sampling and bound methods: a
    built-in law `unit_rows`, `radius_free` and `steps`, which make both
    samplers, a custom law the samplers themselves."""

    kind: str = "abstract"
    d: int
    symmetric: bool = False     # invariant under v -> -v (enables pairing tricks)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # perfbench's tracer (perfbench/spans.py) wraps both samplers in each
        # law class's own namespace, so every law binds them there
        for name in ("sample_components", "sample_components_batch"):
            setattr(cls, name, getattr(cls, name))

    def unit_rows(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m radius-free rows, drawn as m one-row calls would draw them."""
        raise NotImplementedError

    def radius_free(self, rows: np.ndarray) -> tuple:
        """What of the steps of `rows`, of any leading shape, does not depend
        on the radius: a tuple (d_rad, t, ...) of arrays over those leading
        axes, in which d_rad or t is None where it depends on the radius."""
        raise NotImplementedError

    def steps(self, R, part: tuple):
        """(d_rad, t), (m,) and (m, d - 1) arrays, of the `radius_free` part
        of m rows at R, one radius or one per row."""
        return part[0], part[1]

    def sample_components(self, r: float, rng: np.random.Generator):
        """(d_rad, t) of one step at radius r."""
        d_rad, t = self.steps(r, self.radius_free(self.unit_rows(1, rng)))
        return d_rad[0], t[0]

    def sample_components_batch(self, r: float, n: int, rng: np.random.Generator):
        """(d_rad, t) of n steps at radius r: n sample_components calls."""
        return self.steps(r, self.radius_free(self.unit_rows(n, rng)))

    def step_bound(self) -> float:
        """Almost-sure bound on the step length; inf when unbounded."""
        raise NotImplementedError

    def quadrature_lines(self, r: float, n: int, k: float = 0.0):
        """The law's steps at radius r as quadrature.Line bundles for
        integrands of curvature at most k, with n nodes along each axis the
        lines do not run on; None for a law that is sampled instead.  The
        built-in laws build them in quadrature.py, which they import on
        first use."""
        return None

    def known_moments(self, r: float) -> tuple:
        """The closed-form (E[d_tot^2], E[d_rad^2], E[d_rad]) of a step at
        radius r, in the order of MOMENT_NAMES, with None for each entry the
        law does not know."""
        return None, None, None

    def describe(self) -> str:
        raise NotImplementedError


class _AxisLaw(IncrementLaw):
    """A law of steps (d_rad, t) = (a(R) s u[0], b(R) s u[1:]) for unit rows u
    and the class's scale s: the elliptic and box laws."""

    symmetric = True

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def radius_free(self, rows):
        """(d_rad, t, u[0], u[1:]), with d_rad if a is constant and t if b is,
        each None otherwise."""
        s, u0, u1 = self.scale, rows[..., 0], rows[..., 1:]
        return (self.a.c * s * u0 if self.a.kind == "constant" else None,
                u1 * (self.b.c * s) if self.b.kind == "constant" else None, u0, u1)

    def steps(self, R, part):
        d_rad, t, u0, u1 = part
        if d_rad is None:
            d_rad = self.a.at(R) * self.scale * u0
        if t is None:
            t = u1 * np.asarray(self.b.at(R) * self.scale)[..., None]
        return d_rad, t

    def known_moments(self, r):
        return (*elliptic_moments(self.a(r), self.b(r), self.d), 0.0)


@record
class EllipticLaw(_AxisLaw):
    """Uniform measure on an ellipsoid shell with radial semi-axis a(r)*sqrt(d)
    and transverse semi-axes b(r)*sqrt(d).

    Second moments: E[d_tot^2] = a^2 + (d-1) b^2 and E[d_rad^2] = a^2.
    """

    a: RadialProfile
    b: RadialProfile
    d: int
    kind = "elliptic"

    @property
    def scale(self):
        return math.sqrt(self.d)

    def unit_rows(self, m, rng):
        return _normal_rows(m, self.d, rng)         # points on the unit sphere

    def step_bound(self):
        return self.scale * max(self.a.sup(), self.b.sup())

    def quadrature_lines(self, r, n, k=0.0):
        from .quadrature import elliptic_lines     # loaded on first use
        s = self.scale
        return elliptic_lines(self.a(r) * s, self.b(r) * s, self.d, k)

    def describe(self):
        return f"elliptic(a={self.a.describe()}, b={self.b.describe()}, d={self.d})"


@record
class BoxLaw(_AxisLaw):
    """Independent uniform components: sqrt(3)*U[-a, a] radially and
    sqrt(3)*U[-b, b] transversally, matching the elliptic second moments.

    Unlike the elliptic shell its support is a solid box, which makes it the
    right law for dense-support hitting experiments.
    """

    a: RadialProfile
    b: RadialProfile
    d: int
    kind = "box"
    scale = _SQRT3

    def unit_rows(self, m, rng):
        return rng.uniform(-1.0, 1.0, (m, self.d))

    def step_bound(self):
        # circumscribed radius of the box, attained at the corners
        return _SQRT3 * math.hypot(self.a.sup(), math.sqrt(self.d - 1) * self.b.sup())

    def quadrature_lines(self, r, n, k=0.0):
        # integrated only where that costs less than sampling 2*10^5 steps
        # (timed per radius in BENCH_18): in d = 2, for k times the radial
        # half-side at most QUADRATURE_KA
        if self.d > 2 or k * _SQRT3 * self.a.sup() > QUADRATURE_KA:
            return None
        from .quadrature import box_lines          # loaded on first use
        return box_lines(_SQRT3 * self.a(r), _SQRT3 * self.b(r), n, k)

    def describe(self):
        return f"box(a={self.a.describe()}, b={self.b.describe()}, d={self.d})"


def heavytail_inward_offset(y: float, lambda_r: float) -> float:
    """Offset of the inward branch: phi = -1 + offset for steps of length y.

    Zero below the activation length lambda_r; above it equals
    (1 - cosh y + sinh y)/sinh y, computed in the stable form 2q/(1+q) with
    q = e^(-y).
    """
    if y < 1.0 or lambda_r < 1.0:
        raise DomainError(f"need y >= 1 and lambda >= 1, got y={y}, lambda={lambda_r}")
    if y < lambda_r:
        return 0.0
    q = math.exp(-y)
    return 2.0 * q / (1.0 + q)


def heavytail_outward_prob(y: float, lambda_r: float) -> float:
    """Probability of a straight-outward step (phi = 1) for length y.

    Equals (1 - e^-y)/2 above the activation length, else 1/2; the pairing
    with the inward branch makes E[phi | d_tot = y] vanish identically.
    """
    if y < 1.0 or lambda_r < 1.0:
        raise DomainError(f"need y >= 1 and lambda >= 1, got y={y}, lambda={lambda_r}")
    if y < lambda_r:
        return 0.5
    return 0.5 * -math.expm1(-y)


@record
class HeavyTailLaw(IncrementLaw):
    """Zero-drift law with Pareto step lengths, density (m-1) y^-m on [1, inf).

    Requires m > 3 so that some moment of order p > 2 is finite.  Conditional
    on the length y the walk steps straight outward with probability
    heavytail_outward_prob(y) and otherwise at phi = -1 + offset; the offset
    activates for y >= lambda(r).  Default activation length:
    lambda(r) = max(1, r^(1/(m-1))).
    """

    m: float
    d: int
    lam: Optional[RadialProfile] = None
    kind = "heavytail"

    def __post_init__(self):
        if not self.m > 3.0:
            raise DomainError(
                f"heavy-tail exponent m must exceed 3 (finite p > 2 moments), got {self.m}"
            )
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def lambda_at(self, r):
        """The activation length at the radius r >= 0, or at each of a 1-d
        array of radii, each by one rule: the default power takes libm's pow
        through np.float_power, as `RadialProfile.at` does."""
        lam = np.fmax(np.float_power(r, 1.0 / (self.m - 1.0)) if self.lam is None
                      else self.lam.at(r), 1.0)
        return lam if np.ndim(lam) else float(lam)

    def unit_rows(self, m, rng):
        """Rows (y, u, v): from four normals g0..g3 the Pareto length
        y = exp((g0^2 + g1^2) / (2 (m - 1))) and a uniform u = exp(-(g2^2 +
        g3^2) / 2), for g0^2 + g1^2 and g2^2 + g3^2 are independent and
        exponential with mean 2; from d - 1 more the transverse direction v."""
        g = _normal_rows(m, self.d + 3, rng, lead=4)
        g[:, :4] *= g[:, :4]
        g[:, 3] = np.exp(-0.5 * (g[:, 2] + g[:, 3]))
        g[:, 2] = np.exp((g[:, 0] + g[:, 1]) / (2.0 * (self.m - 1.0)))
        return g[:, 2:]

    def radius_free(self, rows):
        y = rows[..., 0]
        return None, None, y, rows[..., 1], np.exp(-y), rows[..., 2:]

    def _branches(self, R, y, u, e):
        """(on, q, outward) of steps of lengths y, uniforms u and e = e^-y at
        R, one radius or one per step: where the offset is on (y >= lambda),
        q = e^-y there and 0 elsewhere, and where the step goes straight
        outward (u < (1 - q)/2).  The others take phi = -1 + 2q/(1 + q)."""
        on = y >= self.lambda_at(R)
        q = np.where(on, e, 0.0)
        return on, q, u < 0.5 * (1.0 - q)

    def steps(self, R, part):
        _, _, y, u, e, v = part
        return self._branch_steps(y, v, *self._branches(R, y, u, e)[1:])

    @staticmethod
    def _branch_steps(y, v, q, outward):
        """(d_rad, t) of steps of lengths y and directions v on the branches q, outward."""
        offset = 2.0 * q / (1.0 + q)
        phi = np.where(outward, 1.0, offset - 1.0)
        t_sq = np.where(outward, 0.0, offset * (2.0 - offset))  # 1 - phi^2, stably
        return phi * y, (y * np.sqrt(t_sq))[..., None] * v

    def step_bound(self):
        return math.inf

    def quadrature_lines(self, r, n, k=0.0):
        from .quadrature import heavytail_lines    # loaded on first use
        return heavytail_lines(self.m, self.lambda_at(r))

    def known_moments(self, r):
        # E[y^2] of the Pareto length; E[d_rad^2] depends on lambda(r)
        return (self.m - 1.0) / (self.m - 3.0), None, 0.0

    def describe(self):
        lam = "auto" if self.lam is None else self.lam.describe()
        return f"heavytail(m={self.m!r}, lambda={lam}, d={self.d})"


@record
class InwardBiasedLaw(IncrementLaw):
    """Constant step length 4N with mean radial component -N.

    d_rad is -2N or 0 with equal probability, the rest of the step is
    transverse; despite the inward bias the law is transient in negative
    curvature for large N.
    """

    strength: float
    d: int
    kind = "inwardbiased"

    def __post_init__(self):
        if not self.strength > 0:
            raise DomainError(f"bias strength must be > 0, got {self.strength}")
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def unit_rows(self, m, rng):
        # one normal for the coin, d - 1 for the direction
        return _normal_rows(m, self.d, rng, lead=1)

    def radius_free(self, rows):
        N = self.strength
        d_rad = np.where(rows[..., 0] < 0.0, -2.0 * N, 0.0)
        t_mag = np.sqrt(16.0 * N * N - d_rad * d_rad)
        return d_rad, t_mag[..., None] * rows[..., 1:]

    def step_bound(self):
        return 4.0 * self.strength

    def quadrature_lines(self, r, n, k=0.0):
        from .quadrature import inward_lines       # loaded on first use
        return inward_lines(self.strength)

    def known_moments(self, r):
        N = self.strength
        return 16.0 * N * N, 2.0 * N * N, -N

    def describe(self):
        return f"inwardbiased(N={self.strength!r}, d={self.d})"


@record
class CustomLaw(IncrementLaw):
    """User-supplied component sampler.

    `sampler(r, d, rng)` must return (d_rad, transverse) like the built-in
    laws.  It sees the radius alone, so both walk modes give a custom law
    the same radii.
    """

    sampler: Callable
    d: int
    bound: float = math.inf
    symmetric: bool = False
    name: str = "custom"
    kind = "custom"

    def sample_components(self, r, rng):
        return self.sampler(r, self.d, rng)

    def sample_components_batch(self, r, n, rng):
        d_rads = np.empty(n)
        ts = np.empty((n, self.d - 1))
        for i in range(n):
            d_rads[i], ts[i] = self.sampler(r, self.d, rng)
        return d_rads, ts

    def step_bound(self):
        return self.bound

    def describe(self):
        return f"custom({self.name}, d={self.d})"


# ---------------------------------------------------------------------------
# Analytic moments
# ---------------------------------------------------------------------------

MOMENT_NAMES = ("E[d_tot^2]", "E[d_rad^2]", "E[d_rad]")   # the order of known_moments


def elliptic_moments(a_val: float, b_val: float, d: int) -> tuple[float, float]:
    """(E[d_tot^2], E[d_rad^2]) = (a^2 + (d-1) b^2, a^2) for elliptic/box laws."""
    if a_val < 0.0 or b_val < 0.0:
        raise DomainError("semi-axes must be >= 0")
    return a_val * a_val + (d - 1) * b_val * b_val, a_val * a_val


# ---------------------------------------------------------------------------
# Drift diagnostics
# ---------------------------------------------------------------------------

@record
class ZeroDriftResult:
    """Component-wise mean of sampled steps in the radial frame basis.

    Component 0 is the outward radial coefficient (so an inward-biased law
    shows a negative first component); the rest are transverse.
    """

    mean: np.ndarray
    standard_error: np.ndarray
    n_samples: int

    @classmethod
    def of_draw(cls, d_rad: np.ndarray, t: np.ndarray) -> "ZeroDriftResult":
        """The statistic of one batch draw (d_rad, t).  Each component is
        reduced as its own column, which costs less than stacking them."""
        n = d_rad.size
        columns = [d_rad, *t.T]
        mean = np.array([c.mean() for c in columns])
        sd = np.array([c.std(ddof=1) for c in columns])
        return cls(mean, sd / math.sqrt(n), n)

    @property
    def max_abs_z(self) -> float:
        z = 0.0
        for m, s in zip(self.mean, self.standard_error):
            if s > 0.0:
                z = max(z, abs(m) / s)
            elif m != 0.0:
                return math.inf
        return z

    def within_band(self, n_sigma: float = 4.0) -> bool:
        return self.max_abs_z <= n_sigma
