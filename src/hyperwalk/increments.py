"""Step-length laws for geodesic random walks.

Each law describes the distribution of the tangent step at a point, in the
orthonormal radial frame: a signed outward radial component plus a transverse
component in the remaining d-1 directions.  Laws are radially symmetric (the
distribution depends on the walker's position only through its radius), so a
law is fully specified by radial parameter profiles plus the dimension.

Two sampling entry points exist per law and are deliberately distinct:

* ``sample_components(r, rng)`` draws one step.  A walk's steps consume the
  stream exactly as consecutive calls of it would, so ambient and
  radial-only walks driven by the same stream see identical draws.  The
  elliptic and box laws also offer ``unit_blocks(steps, rng)``, which draws
  the unit rows of many consecutive steps at once, bit for bit as those
  calls would; the simulator scales each row by the profiles at the current
  radius (see ``block_scale``).  The other laws interleave ``random()`` with
  normal draws, and walks call ``sample_components`` once per step.
* ``sample_components_batch(r, n, rng)`` draws n steps with vectorised numpy
  calls for the Monte Carlo estimators.  It consumes the stream differently
  from n scalar calls, but is bit-reproducible for a fixed stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UsageError

_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Radial parameter profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        if self.kind == "constant":
            return self.c
        if self.kind == "powerdecay":
            p = self.exponent
            # r^-p < 1 only for r > 1 when p >= 0 and for r < 1 when p < 0.
            # Elsewhere min(1, r^-p) is 1 and the power is skipped: it can
            # exceed the double range, where Python raises OverflowError.
            if not (r > 1.0 if p >= 0.0 else r < 1.0):
                return self.c
            return self.c * r ** -p if r > 0.0 else 0.0
        return float(np.interp(r, self.radii, self.values))

    def at(self, radii: np.ndarray):
        """The profile at each of the radii, a 1-d array: bit for bit the
        values calls one by one give.  A constant profile gives its one
        value, which broadcasts."""
        if self.kind == "constant":
            return self.c
        if self.kind == "table":
            return np.interp(radii, self.radii, self.values)
        # Python's power, as a call takes it: numpy's is not it in the last
        # bit.  Where min(1, r^-p) is 1 the factor is 1.0, and at r = 0 (a
        # growth, p < 0) 0.0 ** -p is the call's 0.0.
        q = -self.exponent
        if q <= 0.0:
            powers = [r ** q if r > 1.0 else 1.0 for r in radii.tolist()]
        else:
            powers = [r ** q if r < 1.0 else 1.0 for r in radii.tolist()]
        return self.c * np.array(powers)

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

def _sphere_point(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere in R^d via normalised Gaussians."""
    while True:
        g = rng.standard_normal(d)
        n = math.sqrt(float(g @ g))
        if n > 1e-12:
            return g / n


def _sphere_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    # a zero draw has probability 0; resample any that still occur
    bad = norms <= 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(g[bad], axis=1)
        bad = norms <= 1e-12
    return g / norms[:, None]


BLOCK_ROWS = 4096       # most rows one block draws


def _row_blocks(steps: int, draw):
    """Yield blocks holding `steps` rows in all; `draw(m)` draws m rows and
    returns the ones it keeps.  A block draws no more rows than are still
    needed, so the stream ends where `steps` per-step draws leave it."""
    left = steps
    while left > 0:
        block = draw(min(left, BLOCK_ROWS))
        left -= len(block)
        yield block


def _unit_normal_rows(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m rows of d normals, each normalised as _sphere_point does it.

    A row of norm <= 1e-12 is dropped, so the next row takes its place, as
    in _sphere_point's resample loop.  The batched matmul gives every row's
    g @ g bit for bit; einsum and np.linalg.norm do not.
    """
    g = rng.standard_normal((m, d))
    norms = np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])
    keep = norms > 1e-12
    if not keep.all():
        g, norms = g[keep], norms[keep]
    return g / norms[:, None]


class IncrementLaw:
    """Base class; concrete laws fill in the sampling and bound methods."""

    kind: str = "abstract"
    d: int
    symmetric: bool = False     # invariant under v -> -v (enables pairing tricks)
    # A law whose step at radius r is (a(r) * s * u[0], b(r) * s * u[1:]) for
    # the rows u of `unit_blocks(steps, rng)` sets s here; walks then draw
    # their steps in blocks instead of calling sample_components per step.
    block_scale: Optional[float] = None

    def sample_components(self, r: float, rng: np.random.Generator):
        raise NotImplementedError

    def sample_components_batch(self, r: float, n: int, rng: np.random.Generator):
        raise NotImplementedError

    def step_bound(self) -> float:
        """Almost-sure bound on the step length; inf when unbounded."""
        raise NotImplementedError

    def known_moments(self, r: float) -> tuple:
        """The closed-form (E[d_tot^2], E[d_rad^2], E[d_rad]) of a step at
        radius r, in the order of MOMENT_NAMES, with None for each entry the
        law does not know."""
        return None, None, None

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class EllipticLaw(IncrementLaw):
    """Uniform measure on an ellipsoid shell with radial semi-axis a(r)*sqrt(d)
    and transverse semi-axes b(r)*sqrt(d).

    Second moments: E[d_tot^2] = a^2 + (d-1) b^2 and E[d_rad^2] = a^2.
    """

    a: RadialProfile
    b: RadialProfile
    d: int
    kind: str = field(default="elliptic", init=False)
    symmetric: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def sample_components(self, r, rng):
        u = _sphere_point(self.d, rng)
        s = math.sqrt(self.d)
        return self.a(r) * s * u[0], self.b(r) * s * u[1:]

    def sample_components_batch(self, r, n, rng):
        u = _sphere_batch(self.d, n, rng)
        s = math.sqrt(self.d)
        return self.a(r) * s * u[:, 0], self.b(r) * s * u[:, 1:]

    @property
    def block_scale(self):
        return math.sqrt(self.d)

    def unit_blocks(self, steps, rng):
        """The unit vectors of `steps` consecutive sample_components calls,
        in blocks that consume the stream exactly as those calls would."""
        return _row_blocks(steps, lambda m: _unit_normal_rows(self.d, m, rng))

    def step_bound(self):
        return math.sqrt(self.d) * max(self.a.sup(), self.b.sup())

    def known_moments(self, r):
        return (*elliptic_moments(self.a(r), self.b(r), self.d), 0.0)

    def describe(self):
        return f"elliptic(a={self.a.describe()}, b={self.b.describe()}, d={self.d})"


@dataclass(frozen=True)
class BoxLaw(IncrementLaw):
    """Independent uniform components: sqrt(3)*U[-a, a] radially and
    sqrt(3)*U[-b, b] transversally, matching the elliptic second moments.

    Unlike the elliptic shell its support is a solid box, which makes it the
    right law for dense-support hitting experiments.
    """

    a: RadialProfile
    b: RadialProfile
    d: int
    kind: str = field(default="box", init=False)
    symmetric: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def sample_components(self, r, rng):
        h = rng.uniform(-1.0, 1.0, self.d)
        return _SQRT3 * self.a(r) * h[0], _SQRT3 * self.b(r) * h[1:]

    def sample_components_batch(self, r, n, rng):
        h = rng.uniform(-1.0, 1.0, (n, self.d))
        return _SQRT3 * self.a(r) * h[:, 0], _SQRT3 * self.b(r) * h[:, 1:]

    block_scale = _SQRT3        # _SQRT3 * a(r) is the same double as a(r) * _SQRT3

    def unit_blocks(self, steps, rng):
        """The uniform rows of `steps` consecutive sample_components calls,
        in blocks that consume the stream exactly as those calls would."""
        return _row_blocks(steps, lambda m: rng.uniform(-1.0, 1.0, (m, self.d)))

    def step_bound(self):
        # circumscribed radius of the box, attained at the corners
        return _SQRT3 * math.sqrt(self.a.sup() ** 2 + (self.d - 1) * self.b.sup() ** 2)

    known_moments = EllipticLaw.known_moments   # the same second moments, zero mean

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


@dataclass(frozen=True)
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
    kind: str = field(default="heavytail", init=False)
    symmetric: bool = field(default=False, init=False)

    def __post_init__(self):
        if not self.m > 3.0:
            raise DomainError(
                f"heavy-tail exponent m must exceed 3 (finite p > 2 moments), got {self.m}"
            )
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def lambda_at(self, r: float) -> float:
        if self.lam is None:
            return max(1.0, r ** (1.0 / (self.m - 1.0))) if r > 0.0 else 1.0
        return max(1.0, self.lam(r))

    def sample_components(self, r, rng):
        u = 1.0 - rng.random()                      # in (0, 1]
        y = u ** (-1.0 / (self.m - 1.0))
        lam = self.lambda_at(r)
        alpha = heavytail_outward_prob(y, lam)
        if rng.random() < alpha:
            phi = 1.0
        else:
            phi = -1.0 + heavytail_inward_offset(y, lam)
        d_rad = phi * y
        t_sq = max(0.0, 1.0 - phi * phi)
        if t_sq == 0.0:
            return d_rad, np.zeros(self.d - 1)
        return d_rad, (y * math.sqrt(t_sq)) * _sphere_point(self.d - 1, rng)

    def sample_components_batch(self, r, n, rng):
        u = 1.0 - rng.random(n)
        y = u ** (-1.0 / (self.m - 1.0))
        lam = self.lambda_at(r)
        q = np.exp(-y)
        active = y >= lam
        offset = np.where(active, 2.0 * q / (1.0 + q), 0.0)
        alpha = np.where(active, 0.5 * (1.0 - q), 0.5)
        outward = rng.random(n) < alpha
        phi = np.where(outward, 1.0, -1.0 + offset)
        d_rad = phi * y
        t_sq = np.where(outward, 0.0, offset * (2.0 - offset))  # 1 - phi^2, stably
        t_mag = y * np.sqrt(t_sq)
        t = t_mag[:, None] * _sphere_batch(self.d - 1, n, rng)
        return d_rad, t

    def step_bound(self):
        return math.inf

    def known_moments(self, r):
        # E[y^2] of the Pareto length; E[d_rad^2] depends on lambda(r)
        return (self.m - 1.0) / (self.m - 3.0), None, 0.0

    def describe(self):
        lam = "auto" if self.lam is None else self.lam.describe()
        return f"heavytail(m={self.m!r}, lambda={lam}, d={self.d})"


@dataclass(frozen=True)
class InwardBiasedLaw(IncrementLaw):
    """Constant step length 4N with mean radial component -N.

    d_rad is -2N or 0 with equal probability, the rest of the step is
    transverse; despite the inward bias the law is transient in negative
    curvature for large N.
    """

    strength: float
    d: int
    kind: str = field(default="inwardbiased", init=False)
    symmetric: bool = field(default=False, init=False)

    def __post_init__(self):
        if not self.strength > 0:
            raise DomainError(f"bias strength must be > 0, got {self.strength}")
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")

    def sample_components(self, r, rng):
        N = self.strength
        d_rad = -2.0 * N if rng.random() < 0.5 else 0.0
        t_mag = math.sqrt(16.0 * N * N - d_rad * d_rad)
        return d_rad, t_mag * _sphere_point(self.d - 1, rng)

    def sample_components_batch(self, r, n, rng):
        N = self.strength
        d_rad = np.where(rng.random(n) < 0.5, -2.0 * N, 0.0)
        t_mag = np.sqrt(16.0 * N * N - d_rad * d_rad)
        t = t_mag[:, None] * _sphere_batch(self.d - 1, n, rng)
        return d_rad, t

    def step_bound(self):
        return 4.0 * self.strength

    def known_moments(self, r):
        N = self.strength
        return 16.0 * N * N, 2.0 * N * N, -N

    def describe(self):
        return f"inwardbiased(N={self.strength!r}, d={self.d})"


@dataclass(frozen=True)
class CustomLaw(IncrementLaw):
    """User-supplied component sampler.

    `sampler(r, d, rng)` must return (d_rad, transverse) like the built-in
    laws.  Declare `radially_symmetric=False` if the sampler depends on more
    than the radius; such laws are rejected by the radial-only simulator.
    """

    sampler: Callable
    d: int
    bound: float = math.inf
    symmetric: bool = False
    radially_symmetric: bool = True
    name: str = "custom"
    kind: str = field(default="custom", init=False)

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

@dataclass(frozen=True)
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


def zero_drift_check(law: IncrementLaw, r: float, n_samples: int,
                     rng: np.random.Generator) -> ZeroDriftResult:
    """Sample mean of the step vector at radius r, with standard errors.

    The caller judges the result, conventionally against a 4-sigma band.
    `classify` computes the same statistic (ZeroDriftResult.of_draw) from
    the draw its moment estimate takes at each grid radius.
    """
    if n_samples < 1000:
        raise UsageError(f"zero_drift_check needs at least 1000 samples, got {n_samples}")
    return ZeroDriftResult.of_draw(*law.sample_components_batch(r, n_samples, rng))
