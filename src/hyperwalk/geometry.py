"""Constant-curvature geometry kernels.

Hyperbolic space of curvature -k**2 is realised as the upper hyperboloid
sheet

    H_k = { x in R^(d+1) : B(x, x) = -1/k**2, x_0 > 0 }

where B is the Minkowski bilinear form with signature (-, +, ..., +).  B is
positive definite on each tangent space, and distance, exponential map and
logarithm map all have closed forms.  A separate closed-form Euclidean
kernel provides the flat baseline; it is deliberately not implemented as a
k -> 0 limit of the hyperbolic one (that limit cancels catastrophically and
is instead verified by tests).

Sign convention: the radial frame vector at a point p points *toward* the
origin, and the signed radial step component is

    d_rad = -<v, e_rad>

so that d_rad > 0 means an outward step.  With this convention a step of
length d_tot taken straight outward (phi = d_rad/d_tot = 1) increases the
radius by exactly d_tot.

Radial frames are built about the standard origin (1/k, 0, ..., 0) only,
the point every walk and every radius is measured from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    InvariantViolationError,
    UndefinedFrameError,
)

# Tolerances, fixed once here.
HYPERBOLOID_REL_TOL = 1e-10   # |B(x,x)*k^2 + 1| for a valid point
TANGENCY_TOL = 1e-10          # |B(x,v)| scaled by norms for a valid tangent
ACOSH_CLAMP_TOL = 1e-9        # forgivable rounding below 1 in acosh args
LOG_DOMAIN_THRESHOLD = 30.0   # switch radial-increment evaluation to log form

_LOG2 = math.log(2.0)


def minkowski_form(x, y) -> float:
    """Minkowski bilinear form -x0*y0 + x1*y1 + ... + xd*yd."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(
            f"minkowski_form needs two equal-length vectors, got {x.shape} and {y.shape}"
        )
    return float(np.dot(x[1:], y[1:]) - x[0] * y[0])


def _mink(x: np.ndarray, y: np.ndarray) -> float:
    # unchecked fast path for internal use
    return float(np.dot(x[1:], y[1:]) - x[0] * y[0])


def _safe_norm(v: np.ndarray) -> float:
    """Euclidean norm that survives components up to the double maximum.

    Plain sqrt(dot) overflows once components exceed ~1e154, which ambient
    coordinates reach near kR = 354, well inside the supported radius range.
    The scaled path only engages for such magnitudes.
    """
    m = 0.0
    for c in v:
        c = abs(c)
        if c > m:
            m = c
    if m == 0.0 or not math.isfinite(m):
        return m
    if m < 1e150:
        return math.sqrt(float(v @ v))
    w = v / m
    return m * math.sqrt(float(w @ w))


@dataclass(frozen=True)
class CurvatureModel:
    """Ambient model: hyperbolic with sectional curvature -k**2, or Euclidean.

    `d` is the manifold dimension (at least 2).  For the Euclidean kind the
    curvature parameter is ignored and stored as 0.
    """

    kind: str           # "hyperbolic" | "euclidean"
    d: int
    k: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hyperbolic", "euclidean"):
            raise DomainError(f"unknown curvature kind {self.kind!r}")
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")
        if self.kind == "hyperbolic" and not self.k > 0:
            raise DomainError(f"hyperbolic curvature parameter k must be > 0, got {self.k}")
        if self.kind == "euclidean":
            object.__setattr__(self, "k", 0.0)

    @classmethod
    def hyperbolic(cls, k: float, d: int) -> "CurvatureModel":
        return cls("hyperbolic", d, k)

    @classmethod
    def euclidean(cls, d: int) -> "CurvatureModel":
        return cls("euclidean", d)

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == "hyperbolic"


@dataclass(frozen=True, eq=False)
class LorentzPoint:
    """A point on some hyperboloid H_k, stored in ambient coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1:
            raise DimensionError("LorentzPoint coords must be a 1-d vector")
        if c.size < 3:
            raise DimensionError("LorentzPoint needs ambient dimension >= 3 (d >= 2)")
        if not c[0] > 0:
            raise InvariantViolationError("LorentzPoint must lie on the upper sheet (x0 > 0)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def d(self) -> int:
        """Manifold dimension."""
        return self.coords.size - 1


def validate_on_hyperboloid(x: LorentzPoint, k: float, rel_tol: float = HYPERBOLOID_REL_TOL):
    """Check B(x,x) = -1/k**2 to relative tolerance; raise if violated."""
    err = abs(_mink(x.coords, x.coords) * k * k + 1.0)
    if err > rel_tol:
        raise InvariantViolationError(
            f"point off the hyperboloid for k={k}: |B(x,x)k^2 + 1| = {err:.3e}"
        )


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient vector attached to a base point, Minkowski-orthogonal to it."""

    base: LorentzPoint
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != self.base.coords.shape:
            raise DimensionError(
                f"tangent components have length {c.size}, base has {self.base.coords.size}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "components", c)

    @property
    def norm(self) -> float:
        """Minkowski norm sqrt(B(v, v)); B is positive definite on tangent spaces."""
        b = _mink(self.components, self.components)
        if b < 0.0:
            scale = max(1.0, float(np.dot(self.components, self.components)))
            if b < -TANGENCY_TOL * scale:
                raise InvariantViolationError(
                    f"tangent vector has negative Minkowski square {b:.3e}"
                )
            return 0.0
        return math.sqrt(b)


def validate_tangent(v: TangentVector, tol: float = TANGENCY_TOL):
    """Check B(base, v) = 0, scaled by the Euclidean norms of both vectors."""
    b = _mink(v.base.coords, v.components)
    scale = max(
        1.0,
        float(np.linalg.norm(v.base.coords)) * float(np.linalg.norm(v.components)),
    )
    if abs(b) > tol * scale:
        raise InvariantViolationError(f"vector not tangent to base point: B(x,v) = {b:.3e}")


def zero_tangent(x: LorentzPoint) -> TangentVector:
    return TangentVector(x, np.zeros_like(x.coords))


def origin(k: float, d: int) -> LorentzPoint:
    """The distinguished point (1/k, 0, ..., 0) on H_k."""
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    c = np.zeros(d + 1)
    c[0] = 1.0 / k
    return LorentzPoint(c)


def exp_map(x: LorentzPoint, v: TangentVector, k: float) -> LorentzPoint:
    """Endpoint of the unit-speed geodesic from x with initial velocity v.

    exp_x(v) = cosh(k|v|) x + sinh(k|v|)/(k|v|) v, with the limiting value x
    when |v| = 0.
    """
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise ContractError("tangent vector is not based at the given point")
    n = v.norm
    if n == 0.0:
        return x
    kn = k * n
    return LorentzPoint(math.cosh(kn) * x.coords + (math.sinh(kn) / kn) * v.components)


def _acosh_arg(x: np.ndarray, y: np.ndarray, k: float) -> float:
    arg = -_mink(x, y) * k * k
    if arg < 1.0 - ACOSH_CLAMP_TOL:
        raise InvariantViolationError(
            f"distance argument {arg} < 1; points are not on a common hyperboloid"
        )
    return max(arg, 1.0)


def distance(x: LorentzPoint, y: LorentzPoint, k: float) -> float:
    """Riemannian distance (1/k) * arccosh(-B(x,y) k^2).

    Arguments that fall below 1 by at most ACOSH_CLAMP_TOL are clamped
    (floating-point guard); anything further below is an invariant violation.
    Coordinate-identical points short-circuit to 0: the self-pairing noise
    of a far-out point would otherwise read as a spurious ~sqrt(eps) gap.
    """
    if x is y or np.array_equal(x.coords, y.coords):
        return 0.0
    return math.acosh(_acosh_arg(x.coords, y.coords, k)) / k


def log_map(x: LorentzPoint, y: LorentzPoint, k: float) -> TangentVector:
    """Inverse of exp_map: the tangent vector v at x with exp_map(x, v) = y.

    Construction: u = y + k^2 B(x,y) x is Minkowski-orthogonal to x, and v is
    u rescaled to length distance(x, y).  Returns the zero vector when x = y.
    """
    dist = distance(x, y, k)
    if dist == 0.0:
        return zero_tangent(x)
    u = y.coords + (k * k) * _mink(x.coords, y.coords) * x.coords
    un = _mink(u, u)
    if un <= 0.0:
        # only reachable when y is numerically indistinguishable from x
        return zero_tangent(x)
    return TangentVector(x, (dist / math.sqrt(un)) * u)


def radial_direction(origin_pt: LorentzPoint, p: LorentzPoint, k: float) -> TangentVector:
    """Unit tangent vector at p along the geodesic through the origin.

    Oriented toward the origin, so that d_rad = -<v, e_rad> is positive for
    outward-pointing v.  Undefined at the origin itself.
    """
    dist = distance(p, origin_pt, k)
    if dist == 0.0:
        raise UndefinedFrameError(
            "radial direction undefined at the origin; use the d_rad := d_tot convention"
        )
    v = log_map(p, origin_pt, k)
    return TangentVector(p, v.components / dist)


@dataclass(frozen=True)
class IncrementDecomposition:
    """Step length, signed radial component and their ratio phi.

    phi = d_rad/d_tot when d_tot > 0 and 0 when d_tot = 0; |d_rad| <= d_tot.
    """

    d_tot: float
    d_rad: float
    phi: float

    def __post_init__(self):
        if self.d_tot < 0.0:
            raise DomainError(f"d_tot must be >= 0, got {self.d_tot}")
        slack = 1e-9 * max(1.0, self.d_tot)
        if abs(self.d_rad) > self.d_tot + slack:
            raise DomainError(f"|d_rad| = {abs(self.d_rad)} exceeds d_tot = {self.d_tot}")
        expected = self.d_rad / self.d_tot if self.d_tot > 0.0 else 0.0
        if abs(self.phi - expected) > 1e-9:
            raise DomainError(f"phi = {self.phi} inconsistent with d_rad/d_tot = {expected}")


def make_decomposition(d_tot: float, d_rad: float) -> IncrementDecomposition:
    """Build a decomposition, clamping |d_rad| <= d_tot against rounding noise."""
    if d_tot < 0.0:
        raise DomainError(f"d_tot must be >= 0, got {d_tot}")
    d_rad = min(max(d_rad, -d_tot), d_tot)
    phi = d_rad / d_tot if d_tot > 0.0 else 0.0
    return IncrementDecomposition(d_tot, d_rad, phi)


def decompose_increment(
    origin_pt: LorentzPoint, x: LorentzPoint, v: TangentVector, k: float
) -> IncrementDecomposition:
    """Split a tangent step at x into length and signed radial component.

    At the origin the radial direction is undefined and the convention
    d_rad := d_tot applies.
    """
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise ContractError("tangent vector is not based at the given point")
    d_tot = v.norm
    if distance(origin_pt, x, k) == 0.0:
        return make_decomposition(d_tot, d_tot)
    e_rad = radial_direction(origin_pt, x, k)
    d_rad = -_mink(v.components, e_rad.components)
    return make_decomposition(d_tot, d_rad)


def radial_increment_exact(R: float, d_tot: float, phi: float, k: float) -> float:
    """Exact change of radius after a step (d_tot, phi) taken at radius R.

    Evaluates (1/k) arccosh(cosh kR cosh k d_tot + phi sinh kR sinh k d_tot) - R.
    Above the LOG_DOMAIN_THRESHOLD the arccosh argument grows like e^(kR), so
    the evaluation switches to the identity

        arccosh(z) = log(2z) + log((1 + sqrt(1 - z^-2)) / 2)

    with log(z) computed from exponentially small corrections; this stays
    finite far beyond the double-precision overflow radius.
    """
    if R < 0.0 or d_tot < 0.0:
        raise DomainError(f"lengths must be >= 0, got R={R}, d_tot={d_tot}")
    if abs(phi) > 1.0:
        raise DomainError(f"phi must lie in [-1, 1], got {phi}")
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    if d_tot == 0.0:
        return 0.0
    if phi == 1.0:
        return d_tot
    if phi == -1.0:
        return abs(R - d_tot) - R

    A = k * R
    D = k * d_tot
    if A <= LOG_DOMAIN_THRESHOLD and D <= LOG_DOMAIN_THRESHOLD:
        z = math.cosh(A) * math.cosh(D) + phi * math.sinh(A) * math.sinh(D)
        if z < 1.0:
            z = 1.0  # rounding only: z >= cosh(A - D) >= 1 analytically
        return math.acosh(z) / k - R

    # z = ((1+phi) cosh(A+D) + (1-phi) cosh(A-D)) / 2, evaluated in logs
    s = (1.0 + phi) * (1.0 + math.exp(-2.0 * (A + D))) + (1.0 - phi) * (
        math.exp(-2.0 * D) + math.exp(-2.0 * A)
    )
    if s == 0.0:
        # phi so close to -1 that every term underflowed
        return abs(R - d_tot) - R
    log_z = A + D + math.log(0.25 * s)
    if log_z > 20.0:
        # correction term is below 1e-17, under double resolution
        acosh_z = log_z + _LOG2
    else:
        z = math.exp(log_z)
        acosh_z = math.log(2.0 * z) + math.log(0.5 * (1.0 + math.sqrt(1.0 - z ** -2)))
    return acosh_z / k - R


def radial_increment_exact_batch(R: float, d_tot, phi, k: float) -> np.ndarray:
    """Vectorised radial_increment_exact for arrays of (d_tot, phi) at fixed R.

    Same branch structure as the scalar version; used by the Monte Carlo
    estimators, which evaluate millions of increments per grid radius.
    """
    d_tot = np.asarray(d_tot, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if R < 0.0 or not k > 0:
        raise DomainError(f"need R >= 0 and k > 0, got R={R}, k={k}")
    if np.any(d_tot < 0.0) or np.any(np.abs(phi) > 1.0):
        raise DomainError("d_tot must be >= 0 and phi in [-1, 1]")

    out = np.empty_like(d_tot)
    zero = d_tot == 0.0
    outward = (phi == 1.0) & ~zero
    inward = (phi == -1.0) & ~zero
    general = ~(zero | outward | inward)

    out[zero] = 0.0
    out[outward] = d_tot[outward]
    out[inward] = np.abs(R - d_tot[inward]) - R

    if np.any(general):
        dt = d_tot[general]
        ph = phi[general]
        A = k * R
        D = k * dt
        res = np.empty_like(dt)
        direct = (A <= LOG_DOMAIN_THRESHOLD) & (D <= LOG_DOMAIN_THRESHOLD)
        if np.any(direct):
            z = np.cosh(A) * np.cosh(D[direct]) + ph[direct] * np.sinh(A) * np.sinh(D[direct])
            np.maximum(z, 1.0, out=z)
            res[direct] = np.arccosh(z) / k - R
        big = ~direct
        if np.any(big):
            Db = D[big]
            pb = ph[big]
            s = (1.0 + pb) * (1.0 + np.exp(-2.0 * (A + Db))) + (1.0 - pb) * (
                np.exp(-2.0 * Db) + np.exp(-2.0 * A)
            )
            with np.errstate(divide="ignore"):
                log_z = A + Db + np.log(0.25 * s)
            acosh_z = np.where(
                log_z > 20.0,
                log_z + _LOG2,
                # safe both ways; the where() picks the valid branch
                _acosh_from_log(np.minimum(log_z, 21.0)),
            )
            r_ = acosh_z / k - R
            collapsed = s == 0.0
            if np.any(collapsed):
                r_[collapsed] = np.abs(R - dt[big][collapsed]) - R
            res[big] = r_
        out[general] = res
    return out


def _acosh_from_log(log_z: np.ndarray) -> np.ndarray:
    z = np.exp(log_z)
    return np.log(2.0 * z) + np.log(0.5 * (1.0 + np.sqrt(np.maximum(1.0 - z ** -2, 0.0))))


def euclidean_radial_increment(R: float, d_tot: float, d_rad: float) -> float:
    """Flat-space radius change sqrt(R^2 + 2 R d_rad + d_tot^2) - R.

    Evaluated as (2 R d_rad + d_tot^2) / (sqrt(...) + R) to avoid the
    cancellation of the direct form at large R.  Always >= d_rad.
    """
    if R < 0.0 or d_tot < 0.0:
        raise DomainError(f"lengths must be >= 0, got R={R}, d_tot={d_tot}")
    if abs(d_rad) > d_tot * (1.0 + 1e-12):
        raise DomainError(f"|d_rad| = {abs(d_rad)} exceeds d_tot = {d_tot}")
    q = R * R + 2.0 * R * d_rad + d_tot * d_tot
    denom = math.sqrt(max(q, 0.0)) + R
    if denom == 0.0:
        return 0.0
    return (2.0 * R * d_rad + d_tot * d_tot) / denom


# ---------------------------------------------------------------------------
# Radial frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialFrame:
    """Orthonormal tangent frame at a point, first axis pointing to the origin.

    `axes` has shape (d, d+1): row 0 is e_rad (or a fixed stand-in axis at
    the origin, where the radial direction is undefined and immaterial), the
    remaining rows span the transverse subspace.
    """

    base: LorentzPoint
    axes: np.ndarray
    k: float
    at_origin: bool

    def vector(self, d_rad: float, transverse: np.ndarray) -> TangentVector:
        """Tangent vector with outward radial part d_rad and given transverse part."""
        comps = -d_rad * self.axes[0] + transverse @ self.axes[1:]
        return TangentVector(self.base, comps)


def _complete_orthonormal(rows: np.ndarray, n: np.ndarray) -> None:
    """Fill `rows`, shape (d-1, d), in place with an orthonormal basis of the
    complement of the unit vector n: Gram-Schmidt over the coordinate axes
    projected off n, skipping the nearly annihilated ones."""
    d = n.size
    count = 0
    for i in range(d):
        if count == d - 1:
            break
        w = -n[i] * n
        w[i] += 1.0
        for j in range(count):
            w -= np.dot(w, rows[j]) * rows[j]
        nb = float(w @ w)
        if nb > 1e-12:
            rows[count] = w / math.sqrt(nb)
            count += 1
    if count != d - 1:
        raise InvariantViolationError("failed to complete an orthonormal frame")


def _tangent_axes(coords: np.ndarray, k: float):
    """Raw-array tangent frame builder about the origin (1/k, 0, ..., 0):
    (axes, at_origin).

    Row 0 of `axes` is the unit vector toward the origin.  The frame is
    built from the polar structure of the point,
    x = ((1/k) cosh kR, (1/k) sinh kR * n): the radial axis is
    -(sinh kR, cosh kR * n) and the transverse axes are (0, m) for a
    Euclidean orthonormal completion {m} of n.  This stays well conditioned
    at any radius, unlike Gram-Schmidt over the ambient basis, whose
    cancellations grow like e^(2kR).
    """
    ambient = coords.size
    d = ambient - 1
    axes = np.zeros((d, ambient))
    spatial = coords[1:]
    sp = _safe_norm(spatial)
    if sp * k <= 1e-12:
        axes[:, 1:] = np.eye(d)
        return axes, True
    n_hat = spatial / sp
    axes[0, 0] = -k * sp                 # -sinh(kR)
    axes[0, 1:] = -(k * coords[0]) * n_hat   # -cosh(kR) * n
    if d == 2:
        axes[1, 1] = -n_hat[1]
        axes[1, 2] = n_hat[0]
    else:
        _complete_orthonormal(axes[1:, 1:], n_hat)
    return axes, False


def radial_frame(origin_pt: LorentzPoint, p: LorentzPoint, k: float) -> RadialFrame:
    """Build the radial frame at p on H_k about the origin (1/k, 0, ..., 0).

    At the origin there is no radial direction; the first spatial axis is
    used as the stand-in (the choice does not affect radial statistics).
    Any other origin point is a ContractError.
    """
    o = origin_pt.coords
    if abs(o[0] * k - 1.0) > 1e-12 or np.any(o[1:]):
        raise ContractError("radial frames are built about the origin (1/k, 0, ..., 0) only")
    axes, at_origin = _tangent_axes(p.coords, k)
    return RadialFrame(p, axes, k, at_origin)


def euclidean_frame(x: np.ndarray) -> np.ndarray:
    """Orthonormal frame (d, d), row 0 pointing from x toward the origin.

    At the origin row 0 is the first coordinate axis.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return np.eye(d)
    n = x / r
    axes = np.empty((d, d))
    axes[0] = -n
    _complete_orthonormal(axes[1:], n)
    return axes
