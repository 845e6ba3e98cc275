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
the point every walk and every radius is measured from.  Every frame is one
Householder reflection (HouseholderFrame): the walks step through it in
O(d), and `radial_frame` and `euclidean_frame` expose its matrix view.

The ambient step's kernels (`_safe_norm`, `_tangent_axes`,
`euclidean_frame`, `HouseholderFrame.step`, `_exp_step`, `_reproject`,
`_distance`) take points along the last axis and any leading axes, so the
ambient engine advances and the neighbourhood probe measures a (W, d+1)
array of walks at once, and `exp_map`, `distance`, `RadialFrame.vector`
and the `validate` oracle run the same code on one point.  Every operation acts on each point alone, and each point's dot
products are BLAS dots of its own row (`_rowdot`), so a point's result does
not depend on which or how many others share the array.

The exact radial increment has one evaluation, `_radial_increments`: one
log form over arrays of (R, d_tot, phi), with no branch on the radius or
the step length.  The radial-only walks step with it, and
`radial_increment_exact_batch` (the estimators' call) and
`radial_increment_exact` (one element, the `validate` oracle's call) check
their domain and call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    HyperwalkError,
    InvariantViolationError,
    OverflowGuardError,
    UndefinedFrameError,
)

# Tolerances, fixed once here.
HYPERBOLOID_REL_TOL = 1e-10   # relative defect of k x0 against hypot(1, k|x_s|)
TANGENCY_TOL = 1e-10          # |B(x,v)| scaled by norms for a valid tangent
# No kernel branches on this: perfbench/spans.py reads it to count the
# radial increments taken with kR or k d_tot past it (its log_domain_frac).
LOG_DOMAIN_THRESHOLD = 30.0
REPROJECTION_DRIFT_TOL = 1e-6  # relative spatial-norm defect _reproject forgives
# Rounding leaves a tangent's Minkowski square B(v, v), a difference of
# squares, an absolute error of about eps * |v|^2 (|v|^2 the Euclidean
# square), and |v|^2 / B(v, v) grows like cosh(2kR) for a step with a radial
# part.  TangentVector.norm raises once that bound exceeds this fraction of
# B(v, v), so a norm it returns is good to about half of it (relative); a
# step with a radial part of a few tenths of its length fails from kR ~ 10.
MINKOWSKI_SQUARE_REL_TOL = 1e-8


def minkowski_form(x, y) -> float:
    """Minkowski bilinear form -x0*y0 + x1*y1 + ... + xd*yd."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(
            f"minkowski_form needs two equal-length vectors, got {x.shape} and {y.shape}"
        )
    return _mink(x, y)


def _mink(x: np.ndarray, y: np.ndarray) -> float:
    # unchecked fast path for internal use
    return float(np.dot(x[1:], y[1:]) - x[0] * y[0])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of a and b along the last axis.

    A stacked matmul, which takes each product as the BLAS dot of 1-d
    vectors (`a @ b`) takes it, bit for bit; einsum and sum do not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _safe_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis that survive components from the
    smallest subnormal up to the double maximum.

    Plain sqrt(dot) overflows once components exceed ~1e154, as ambient
    coordinates do from kR = 354, and underflows once all are below
    ~1e-154, as the difference of two nearly equal directions can be.  The
    scaled path only engages for such magnitudes; a vector with a
    non-finite component has norm max |v_i|.
    """
    m = np.abs(v).max(axis=-1)
    plain = (m < 1e150) & ((m > 1e-150) | (m == 0.0))
    if plain.all():
        return np.sqrt(_rowdot(v, v))
    scaled = ~plain & (m < math.inf)
    scale = np.where(scaled, m, 1.0)
    u = np.where(plain[..., None], v, 0.0)
    w = np.where(scaled[..., None], v, 0.0) / scale[..., None]
    return np.where(plain, np.sqrt(_rowdot(u, u)),
                    np.where(scaled, scale * np.sqrt(_rowdot(w, w)), m))


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
    """Check k x0 = cosh kR against hypot(1, k|x_s|) = hypot(1, sinh kR) to
    relative tolerance, which a correctly rounded point meets at any radius
    (|B(x,x) k^2 + 1| grows like e^(2kR) * eps); NaN or inf fails."""
    h = math.hypot(1.0, k * float(_safe_norm(x.coords[1:])))
    err = abs(k * float(x.coords[0]) - h) / h
    if not err <= rel_tol:
        raise InvariantViolationError(
            f"point off the hyperboloid for k={k}: k x0 is {err:.3e} off hypot(1, k|x_s|)")


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
        """Minkowski norm sqrt(B(v, v)); B is positive definite on tangent spaces.

        Raises InvariantViolationError when rounding leaves B(v, v) unresolved
        (see MINKOWSKI_SQUARE_REL_TOL), as it does for a step with a radial
        part far out; the zero vector has norm 0.
        """
        c = self.components
        # far out the squares overflow: B(v, v) is then NaN and fails below
        with np.errstate(over="ignore", invalid="ignore"):
            b = _mink(c, c)
            bound = np.finfo(float).eps * float(np.dot(c, c))
        if b > bound / MINKOWSKI_SQUARE_REL_TOL:
            return math.sqrt(b)
        if bound == 0.0:
            return 0.0
        raise InvariantViolationError(
            f"tangent vector's Minkowski square {b:.3e} is unresolved: it is not resolved "
            f"above its rounding bound {bound:.3e}"
        )


def validate_tangent(v: TangentVector, tol: float = TANGENCY_TOL):
    """Check B(base, v) = 0, scaled by the Euclidean norms of both vectors."""
    b = _mink(v.base.coords, v.components)
    scale = max(
        1.0,
        float(np.linalg.norm(v.base.coords)) * float(np.linalg.norm(v.components)),
    )
    if abs(b) > tol * scale:
        raise InvariantViolationError(f"vector not tangent to base point: B(x,v) = {b:.3e}")


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
    when |v| = 0, snapped onto H_k: the time coordinate is set to
    hypot(1, k|x_s|) / k, the relation `validate_on_hyperboloid` checks.
    The walks' `_reproject` snaps the other way, keeping the time
    coordinate, whose arccosh holds a short step near the origin only to
    about sqrt(eps); the spatial part holds it to rounding.
    """
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise ContractError("tangent vector is not based at the given point")
    n = v.norm
    if n == 0.0:
        return x
    y = _exp_step(x.coords, v.components, n, k)
    y[0] = math.hypot(1.0, k * float(_safe_norm(y[1:]))) / k
    return LorentzPoint(y)


def _exp_step(x: np.ndarray, v: np.ndarray, length, k: float) -> np.ndarray:
    """exp_x(v) on raw arrays for tangents v of Minkowski length `length` > 0
    (one per point): the one ambient step of exp_map, the ambient walks and
    the validate oracle.  A step whose coordinates overflow comes out
    non-finite, which `_reproject` reports.
    """
    kn = k * np.asarray(length)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cosh(kn)[..., None] * x + (np.sinh(kn) / kn)[..., None] * v


def _reproject(x: np.ndarray, k: float):
    """Snap each post-step point x onto H_k in place; return (R, defect).

    R = acosh(k x0) / k is read off the time coordinate and the spatial part
    rescaled to sinh(kR) / k, exact up to the overflow limit; rescaling by
    B(x, x), whose defect grows like e^(2kR) * eps, would fail past kR ~ 18.
    `defect` is the relative spatial-norm defect, inf for a point with a
    non-finite coordinate; a point whose defect exceeds
    REPROJECTION_DRIFT_TOL is left as it is, and `_reprojection_error`
    names its fault.
    """
    ky0 = k * x[..., 0]
    sp = k * _safe_norm(x[..., 1:])
    finite = np.isfinite(ky0) & np.isfinite(sp)
    if not finite.all():
        ky0, sp = np.where(finite, ky0, 1.0), np.where(finite, sp, 0.0)
    # on the hyperboloid the spatial norm is sinh(kR) = ky0 sqrt(1 - ky0^-2)
    q = 1.0 / np.maximum(ky0, 1.0)
    rad = ky0 * np.sqrt(np.maximum(1.0 - q * q, 0.0))
    defect = np.where(finite, np.abs(sp - rad) / np.maximum(np.maximum(sp, rad), 1.0), np.inf)
    snap = (defect <= REPROJECTION_DRIFT_TOL) & (sp > 0.0)
    x[..., 1:] *= np.where(snap & (rad > 0.0), rad / np.where(sp > 0.0, sp, 1.0), 1.0)[..., None]
    collapse = snap & (rad == 0.0)
    if collapse.any():
        np.copyto(x[..., 1:], 0.0, where=collapse[..., None])
        np.copyto(x[..., 0], 1.0 / k, where=collapse)
    return np.arccosh(np.maximum(ky0, 1.0)) / k, defect


def _reprojection_error(defect: float, step: int) -> HyperwalkError:
    """The error for a point `_reproject` left with `defect` after `step`."""
    if defect == math.inf:
        return OverflowGuardError(f"ambient coordinates overflowed at step {step}")
    return InvariantViolationError(f"hyperboloid drift {defect:.3e} (relative) at step {step}")


def distance(x: LorentzPoint, y: LorentzPoint, k: float) -> float:
    """Riemannian distance (`_distance`) of two points that pass
    `validate_on_hyperboloid` at the drift the walks' reprojection
    forgives."""
    try:
        validate_on_hyperboloid(x, k, REPROJECTION_DRIFT_TOL)
        validate_on_hyperboloid(y, k, REPROJECTION_DRIFT_TOL)
    except InvariantViolationError as exc:
        raise InvariantViolationError(f"points are not on a common hyperboloid: {exc}") from exc
    return float(_distance(x.coords, y.coords, k))


def _distance(x: np.ndarray, y: np.ndarray, k: float) -> np.ndarray:
    """Distances of points x and y of H_k along the last axis, unchecked.

    Each point is read in polar form, a = kR = asinh(k|x_s|) and
    n = x_s/|x_s| (0 at the origin), and the law of cosines becomes

        sinh(k d / 2) = hypot(sinh((a - b)/2), sqrt(sinh a sinh b) |n_x - n_y| / 2),
        sinh((a - b)/2) = (sinh a - sinh b) / (g + 1/g),  g = e^((a + b)/2),

    with e^a = sinh a + hypot(1, sinh a).  Nothing cancels but the inputs'
    own sinh a - sinh b, where the pairing B(x, y) loses e^(a + b) * eps,
    and every term stays finite up to the ambient limit kR = 700.
    """
    sx, sy = _safe_norm(x[..., 1:]), _safe_norm(y[..., 1:])
    nx = x[..., 1:] / np.where(sx > 0.0, sx, 1.0)[..., None]
    ny = y[..., 1:] / np.where(sy > 0.0, sy, 1.0)[..., None]
    sx, sy = k * sx, k * sy
    g = np.sqrt(sx + np.hypot(1.0, sx)) * np.sqrt(sy + np.hypot(1.0, sy))
    radial = (sx - sy) / (g + 1.0 / g)
    angular = 0.5 * np.sqrt(sx) * np.sqrt(sy) * _safe_norm(nx - ny)
    return (2.0 / k) * np.arcsinh(np.hypot(radial, angular))


def log_map(x: LorentzPoint, y: LorentzPoint, k: float) -> TangentVector:
    """Inverse of exp_map: the tangent vector v at x with exp_map(x, v) = y.

    Construction: u = y + k^2 B(x,y) x is Minkowski-orthogonal to x, and v is
    u rescaled to length distance(x, y).  Returns the zero vector when x = y.
    u comes from the pairing B(x, y), so TangentVector.norm reads its length
    and raises once rounding leaves it unresolved, as from kR ~ 10.
    """
    dist = distance(x, y, k)
    if dist == 0.0:
        return TangentVector(x, np.zeros_like(x.coords))
    with np.errstate(over="ignore", invalid="ignore"):
        u = TangentVector(x, y.coords + (k * k) * _mink(x.coords, y.coords) * x.coords)
        return TangentVector(x, (dist / u.norm) * u.components)


def radial_direction(origin_pt: LorentzPoint, p: LorentzPoint, k: float) -> TangentVector:
    """Unit tangent vector at p along the geodesic through the origin.

    Oriented toward the origin, so that d_rad = -<v, e_rad> is positive for
    outward-pointing v.  Row 0 of radial_frame; undefined at the origin.
    """
    frame = radial_frame(origin_pt, p, k)
    if frame.at_origin:
        raise UndefinedFrameError(
            "radial direction undefined at the origin; use the d_rad := d_tot convention"
        )
    return TangentVector(p, frame.axes[0])


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
    frame = radial_frame(origin_pt, x, k)
    d_rad = d_tot if frame.at_origin else -_mink(v.components, frame.axes[0])
    return make_decomposition(d_tot, d_rad)


def radial_increment_exact(R: float, d_tot: float, phi: float, k: float) -> float:
    """Exact change of radius after a step (d_tot, phi) taken at radius R,

        (1/k) arccosh(cosh kR cosh k d_tot + phi sinh kR sinh k d_tot) - R,

    by `_radial_increments`, the radial-only walks' step, on one element.
    Each domain check is written so that a NaN argument fails it.
    """
    if not (R >= 0.0 and d_tot >= 0.0):
        raise DomainError(f"lengths must be >= 0, got R={R}, d_tot={d_tot}")
    if not abs(phi) <= 1.0:
        raise DomainError(f"phi must lie in [-1, 1], got {phi}")
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    return float(_radial_increments(R, np.array([d_tot], dtype=float),
                                    np.array([phi], dtype=float), k)[0])


def radial_increment_exact_batch(R, d_tot, phi, k: float) -> np.ndarray:
    """radial_increment_exact over arrays of (R, d_tot, phi), broadcast
    together: `_radial_increments` behind the domain checks.

    R is one radius (the estimators' call) or one per element.  phi may
    carry leading axes ahead of d_tot's shape: the estimators pass
    np.stack([phi, -phi]) to pair each draw with its mirror, and what
    depends on R and d_tot alone (exp(-k d_tot) and its products) is then
    evaluated once for both rows.  Sign flips are exact in IEEE arithmetic,
    so each row equals a separate call bit for bit.  0-d inputs give a 0-d
    result.  A NaN argument fails the domain checks.
    """
    R = np.asarray(R, dtype=float)
    d_tot = np.asarray(d_tot, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not (k > 0 and np.all(R >= 0.0) and np.all(d_tot >= 0.0)
            and np.all(np.abs(phi) <= 1.0)):
        raise DomainError("need R >= 0, d_tot >= 0, phi in [-1, 1] and k > 0")
    shape = np.broadcast_shapes(R.shape, d_tot.shape, phi.shape)
    return _radial_increments(R, np.atleast_1d(d_tot), np.atleast_1d(phi), k).reshape(shape)


def _radial_increments(R, d_tot: np.ndarray, phi: np.ndarray, k: float,
                       opp: np.ndarray | None = None) -> np.ndarray:
    """radial_increment_exact over radii R and arrays d_tot and phi that
    broadcast together, unchecked; the one evaluation of the exact
    increment.  `opp` is 1 + phi, for a caller that knows it better than
    phi (a long step close to straight inward); an opp <= 0 is the edge phi = -1.

    Every element takes one log form, with no branch.  With A = kR,
    D = k d_tot, e_a = e^(-A), e_d = e^(-D) and Q = e_a e_d, the arccosh
    argument is z = e^(A + D) S, where

        S = ((1 + phi)(1 + Q^2) + (1 - phi)(e_a^2 + e_d^2)) / 4,

    and k times the increment is

        acosh z - A = D + log(S + sqrt(S^2 - Q^2)),

    in which no A cancels and nothing overflows.  S - Q is the sum of
    squares ((1 + phi)(1 - Q)^2 + (1 - phi)(e_d - e_a)^2) / 4, so
    S^2 - Q^2 = (S - Q)(S + Q) is formed without the cancellation a
    difference of S^2 and Q^2 suffers near z = 1 (a short step near the
    origin) and near phi = -1.  The edges d_tot = 0 and phi = +-1 are
    selected exactly by `np.where`, only in a batch that has one; a phi past
    +-1 counts as +-1, the clamp a rounded direction needs.  d_tot and phi
    are arrays (at least 1-d), so the evaluation can work in place.
    """
    A, D = (R, d_tot) if k == 1.0 else (k * R, k * d_tot)     # scaling by 1 is exact
    if opp is None:
        opp = 1.0 + phi     # <= 0 exactly where phi <= -1 (Sterbenz)
    # a phi rounded to -1 is not the edge unless opp is 0
    edge = (d_tot == 0.0) | (phi >= 1.0) | (opp <= 0.0)
    edges = edge.any()
    # an edge's phi is replaced by 0, so that phi = -1 with A and D both past
    # the exp underflow cannot take the log of 0
    p, opp = (np.where(edge, 0.0, phi), np.where(edge, 1.0, opp)) if edges else (phi, opp)
    exp_a, exp_d = np.exp(-A), np.exp(-D)
    Q = exp_a * exp_d
    gap = opp * (1.0 - Q) ** 2           # S - Q
    gap += (1.0 - p) * (exp_d - exp_a) ** 2
    gap *= 0.25
    S = gap + Q
    out = S + Q
    out *= gap
    np.sqrt(out, out=out)
    out += S
    np.log(out, out=out)
    out += D
    if k != 1.0:
        out /= k
    if edges:
        # d_tot outward, |R - d_tot| - R inward: both are 0 at d_tot = 0
        out = np.where(edge, np.where(phi > 0.0, d_tot, np.abs(R - d_tot) - R), out)
    return out


def _euclidean_increments(R, d_tot, d_rad) -> np.ndarray:
    """Flat-space radius changes sqrt(R^2 + 2 R d_rad + d_tot^2) - R,
    elementwise over equal-shaped arrays (or floats), unchecked.

    Evaluated as (2 R d_rad + d_tot^2) / (sqrt(...) + R) to avoid the
    cancellation of the direct form at large R.
    """
    q = R * R + 2.0 * R * d_rad + d_tot * d_tot
    denom = np.sqrt(np.maximum(q, 0.0)) + R
    # denom is 0 only where R and d_tot * d_tot are, and so the numerator
    return (2.0 * R * d_rad + d_tot * d_tot) / np.where(denom == 0.0, 1.0, denom)


def euclidean_radial_increment(R: float, d_tot: float, d_rad: float) -> float:
    """Flat-space radius change sqrt(R^2 + 2 R d_rad + d_tot^2) - R, by
    `_euclidean_increments`, the flat radial-only walks' step.  Always
    >= d_rad.  A NaN argument fails the domain checks.
    """
    if not (R >= 0.0 and d_tot >= 0.0):
        raise DomainError(f"lengths must be >= 0, got R={R}, d_tot={d_tot}")
    if not abs(d_rad) <= d_tot * (1.0 + 1e-12):
        raise DomainError(f"|d_rad| = {abs(d_rad)} exceeds d_tot = {d_tot}")
    return float(_euclidean_increments(R, d_tot, d_rad))


# ---------------------------------------------------------------------------
# Radial frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialFrame:
    """Orthonormal tangent frame at a point, first axis pointing to the origin.

    `axes` has shape (d, d+1): row 0 is e_rad (or a fixed stand-in axis at
    the origin, where the radial direction is undefined and immaterial), the
    remaining rows span the transverse subspace.  It is the matrix view of
    the point's HouseholderFrame, built once, whose step `vector` takes.
    """

    base: LorentzPoint
    householder: HouseholderFrame
    k: float

    @property
    def axes(self) -> np.ndarray:
        return self.householder.axes

    @property
    def at_origin(self) -> bool:
        return bool(self.householder.at_origin)

    def vector(self, d_rad: float, transverse) -> TangentVector:
        """Tangent vector with outward radial part d_rad and given transverse part."""
        t = np.asarray(transverse, dtype=float)
        if t.shape != (self.base.d - 1,):
            raise DimensionError(f"transverse part needs {self.base.d - 1} components")
        return TangentVector(self.base, self.householder.step(d_rad, t))


@dataclass(frozen=True, eq=False, slots=True)
class HouseholderFrame:
    """Tangent frames as Householder reflections, one per point along the
    leading axes: for the unit outward direction n, with s = sign(n_0) (+1
    at 0) and w = n + s e_0, H = I - w w^T / |w_0| maps e_0 to -s n and
    e_1 .. e_{d-1} onto an orthonormal basis of n's complement.  `radial` is
    the unit outward step, (sinh kR, cosh kR n) on H_k and n in flat space;
    H acts on the last d ambient coordinates, and the transverse ones are
    the last d - 1.
    """

    radial: np.ndarray
    w: np.ndarray
    scale: np.ndarray   # |w_0| = 1 + |n_0| = |w|^2 / 2
    at_origin: np.ndarray

    def step(self, d_rad, t) -> np.ndarray:
        """The ambient steps with outward radial parts d_rad and transverse
        parts t (one per frame): H applied to the frame coordinates
        (-s d_rad cosh kR, t), with the radial part d_rad * radial taken
        exactly."""
        w = self.w
        d = w.shape[-1]
        v = np.asarray(d_rad)[..., None] * self.radial
        v[..., -d:] -= (_rowdot(w[..., 1:], t) / self.scale)[..., None] * w
        v[..., 1 - d:] += t
        return v

    @property
    def axes(self) -> np.ndarray:
        """The matrix view: row 0 toward the origin, then the rows H e_i."""
        w = self.w
        d = w.shape[-1]
        axes = np.zeros(w.shape[:-1] + (d, self.radial.shape[-1]))
        axes[..., 0, :] = -self.radial
        axes[..., 1:, -d:] = np.eye(d)[1:] - (w[..., 1:, None] / self.scale[..., None, None]
                                              ) * w[..., None, :]
        return axes


def _householder(radial: np.ndarray, n: np.ndarray, at_origin: np.ndarray) -> HouseholderFrame:
    w = n.copy()
    w[..., 0] += np.where(n[..., 0] >= 0.0, 1.0, -1.0)
    return HouseholderFrame(radial, w, np.abs(w[..., 0]), at_origin)


def _unit_or_stand_in(x: np.ndarray, norm: np.ndarray, at_origin: np.ndarray) -> np.ndarray:
    """x / norm, with the stand-in direction -e_0 where at_origin holds."""
    n = x / np.where(at_origin, 1.0, norm)[..., None]
    if at_origin.any():
        stand_in = np.zeros(x.shape[-1])
        stand_in[0] = -1.0
        np.copyto(n, stand_in, where=at_origin[..., None])
    return n


def _tangent_axes(coords: np.ndarray, k: float) -> HouseholderFrame:
    """The frames at points x = ((1/k) cosh kR, (1/k) sinh kR * n) of H_k
    about the origin (1/k, 0, ..., 0), read off their polar structure, so
    they stay well conditioned at any radius.  Within 1e-12 / k of the
    origin the stand-in n = -e_1 (radial step (0, -1, 0, ...)) is taken and
    at_origin is set.
    """
    sp = _safe_norm(coords[..., 1:])
    at_origin = sp * k <= 1e-12
    n = _unit_or_stand_in(coords[..., 1:], sp, at_origin)
    radial = np.empty(coords.shape)
    radial[..., 0] = np.where(at_origin, 0.0, k * sp)           # sinh(kR)
    radial[..., 1:] = np.where(at_origin, 1.0, k * coords[..., 0])[..., None] * n  # cosh(kR) n
    return _householder(radial, n, at_origin)


def radial_frame(origin_pt: LorentzPoint, p: LorentzPoint, k: float) -> RadialFrame:
    """Build the radial frame at p on H_k about the origin (1/k, 0, ..., 0).

    At the origin there is no radial direction; the first spatial axis is
    used as the stand-in (the choice does not affect radial statistics).
    Any other origin point is a ContractError.
    """
    o = origin_pt.coords
    if abs(o[0] * k - 1.0) > 1e-12 or np.any(o[1:]):
        raise ContractError("radial frames are built about the origin (1/k, 0, ..., 0) only")
    return RadialFrame(p, _tangent_axes(p.coords, k), k)


def euclidean_frame(x: np.ndarray) -> HouseholderFrame:
    """The flat-space frames at points x; at the origin the stand-in n = -e_0."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(_rowdot(x, x))
    at_origin = r == 0.0
    n = _unit_or_stand_in(x, r, at_origin)
    return _householder(n, n, at_origin)
