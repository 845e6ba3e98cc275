"""Constant-curvature geometry kernels.

Hyperbolic space of curvature -k**2 is realised as the upper hyperboloid
sheet

    H_k = { x in R^(d+1) : B(x, x) = -1/k**2, x_0 > 0 }

where B is the Minkowski bilinear form with signature (-, +, ..., +).  B is
positive definite on each tangent space, and distance and the exponential
map have closed forms.  A separate closed-form Euclidean kernel provides
the flat baseline; it is deliberately not implemented as a k -> 0 limit of
the hyperbolic one (that limit cancels catastrophically and is instead
verified by tests).

Sign convention: the radial frame vector at a point p points *toward* the
origin, and the signed radial step component is

    d_rad = -<v, e_rad>

so that d_rad > 0 means an outward step.  With this convention a step of
length d_tot taken straight outward (phi = d_rad/d_tot = 1) increases the
radius by exactly d_tot.

Every kernel works on raw coordinate arrays.  Radial frames are built
about the standard origin (1/k, 0, ..., 0) only, the point every walk and
every radius is measured from.  Every frame is one Householder reflection
(HouseholderFrame): the walks step through it in O(d), and its `axes` is
the matrix view the tests compare that step against.

The walks that carry directions (the neighbourhood probe's) hold each
point in polar form, its radius R and unit direction n, and no hyperboloid
coordinate.  Their step is the radial
increment below and `_turn`, which turns n in the plane of n and the
step's transverse part, read in n's Householder frame; `_distance`
measures points in that form.  Neither overflows at any radius, but near
kR = 708 a step's turn leaves the normal doubles (TURN_KR_LIMIT).  These
kernels take points along the last axis and any leading axes, act on each
point alone, and take each point's dot products as BLAS dots of its own
row (`_rowdot`), so a point's result does not depend on which or how many
others share the array.  A guard (the origin, a zero step) is one
reduction over the whole array, and its masks are built only when it
fires.

The hyperboloid step (`_tangent_axes`, `_exp_step`, `_reproject`) is the
`validate` suites' oracle: the exact-increment suite checks the radial
increment against it, and the geodesic-step suite the polar step.

The radius change of a step (d_rad, d_tot) has two kernels.  The exact
increment has one evaluation, `_radial_increments`: one log form over
arrays of (R, d_tot, phi), with no branch on the radius or the step length.
The walks of both modes step with it, and `radial_increment_exact_batch`
(the estimators' call) and `radial_increment_exact` (one element, the
`validate` oracle's call) check their domain and call it.  Its
large-radius limit, the asymptotic increment
(1/k) log(cosh(k d_tot) + phi sinh(k d_tot)), is
`asymptotic_increment_batch`.  Both read 1 + phi, phi = d_rad/d_tot, which
`one_plus_phi` takes without cancellation near phi = -1 (with -d_rad, 1 - phi
near phi = 1), and `log_one_plus_phi` gives its log.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, HyperwalkError, InvariantViolationError, OverflowGuardError, record

# No kernel branches on this: perfbench/spans.py reads it to count the
# radial increments taken with kR or k d_tot past it (its log_domain_frac).
LOG_DOMAIN_THRESHOLD = 30.0
REPROJECTION_DRIFT_TOL = 1e-6  # relative spatial-norm defect _reproject forgives
NEAR_ORIGIN = 2.0 ** -7         # below this k|x_s|, _reproject reads R off x_s, not x0
TURN_KR_LIMIT = 700.0           # short of kR = 708, where _turn's e^(-kR) is subnormal

_F_LOG_THRESHOLD = 30.0     # above this k d_tot the asymptotic increment takes its log form
_LOG2 = math.log(2.0)
# 1 + phi = 1 + d_rad/d_tot carries an error of about eps, which moves the
# asymptotic increment by about eps min(1/(1 + phi), e^(2D)/2)/k, D = k d_tot;
# given |t|^2, the kernels take 1 + phi from it where that exceeds 2^10 eps/k
_OPP_DIRECT = 2.0 ** -10
_D_DIRECT = 0.5 * math.log(2.0 ** 11)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of a and b along the last axis.

    A stacked matmul, which takes each product as the BLAS dot of 1-d
    vectors (`a @ b`) takes it, bit for bit; einsum and sum do not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _safe_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis that survive components from the
    smallest subnormal up to the double maximum.

    Plain sqrt(dot) overflows once components exceed ~1e154, as hyperboloid
    coordinates do from kR = 354, and underflows once all are below
    ~1e-154, as the difference of two nearly equal directions can be.  When
    every row is of plain magnitude, checked by one reduction before the
    dots (which would overflow) and one after, this is sqrt(dot); otherwise
    `_scaled_norm`.
    """
    if np.abs(v).max(initial=0.0) < 1e150:
        sq = _rowdot(v, v)
        if sq.min(initial=math.inf) >= 1e-290:    # no row's max |v_i| is <= 1e-150
            return np.sqrt(sq)
    return _scaled_norm(v)


def _scaled_norm(v: np.ndarray) -> np.ndarray:
    """`_safe_norm` row by row: the scaled path engages only for the rows
    that need it, and a vector with a non-finite component has norm
    max |v_i|.  A norm past the double range reads inf, without a warning."""
    m = np.abs(v).max(axis=-1)
    plain = (m < 1e150) & ((m > 1e-150) | (m == 0.0))
    if plain.all():
        return np.sqrt(_rowdot(v, v))
    scaled = ~plain & (m < math.inf)
    scale = np.where(scaled, m, 1.0)
    u = np.where(plain[..., None], v, 0.0)
    w = np.where(scaled[..., None], v, 0.0) / scale[..., None]
    with np.errstate(over="ignore"):
        return np.where(plain, np.sqrt(_rowdot(u, u)),
                        np.where(scaled, scale * np.sqrt(_rowdot(w, w)), m))


@record
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


def _exp_step(x: np.ndarray, v: np.ndarray, length, k: float) -> np.ndarray:
    """exp_x(v) = cosh(k|v|) x + sinh(k|v|)/(k|v|) v on raw arrays, for
    tangents v of Minkowski length |v| = `length` > 0 (one per point): the
    validate suites' oracle step.  A step whose coordinates overflow comes
    out non-finite, which `_reproject` reports.
    """
    kn = k * np.asarray(length)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cosh(kn)[..., None] * x + (np.sinh(kn) / kn)[..., None] * v


def _reproject(x: np.ndarray, k: float):
    """Snap each post-step point x onto H_k in place; return (R, defect):
    the `validate` oracle's snap, for one point or an array of them.

    R = acosh(k x0) / k is read off the time coordinate and the spatial part
    rescaled to sinh(kR) / k, exact up to the overflow limit; rescaling by
    B(x, x), whose defect grows like e^(2kR) * eps, would fail past kR ~ 18.
    Near the origin, k|x_s| < NEAR_ORIGIN, acosh cannot resolve R (a step of
    1e-9 leaves k x0 = 1), so R = asinh(k|x_s|) / k is read off the spatial
    part and x0 snapped to cosh(kR) / k instead.  `defect` is the relative
    spatial-norm defect, inf for a point with a non-finite coordinate or
    whose k x0 or k|x_s| overflows; a point whose defect exceeds
    REPROJECTION_DRIFT_TOL is left as it is, and `_reprojection_error` names
    its fault.
    """
    with np.errstate(over="ignore"):
        ky0, sp = k * x[..., 0], k * _safe_norm(x[..., 1:])
    finite = np.isfinite(ky0) & np.isfinite(sp)
    ky0, sp = np.where(finite, ky0, 1.0), np.where(finite, sp, 0.0)
    # on the hyperboloid the spatial norm is sinh(kR) = ky0 sqrt(1 - ky0^-2)
    q = 1.0 / np.maximum(ky0, 1.0)
    rad = ky0 * np.sqrt(np.maximum(1.0 - q * q, 0.0))
    defect = np.where(finite, np.abs(sp - rad) / np.maximum(np.maximum(sp, rad), 1.0), np.inf)
    snap = (defect <= REPROJECTION_DRIFT_TOL) & (sp > 0.0)
    near = snap & (sp < NEAR_ORIGIN)
    scaled = snap & ~near       # sp >= NEAR_ORIGIN: a subnormal sp divides nothing
    x[..., 1:] *= np.where(scaled, rad / np.where(scaled, sp, 1.0), 1.0)[..., None]
    R = np.arccosh(np.maximum(ky0, 1.0)) / k
    if near.any():
        np.copyto(x[..., 0], np.hypot(1.0, sp) / k, where=near)
        R = np.where(near, np.arcsinh(sp) / k, R)
    return R, defect


def _reprojection_error(defect: float, step: int) -> HyperwalkError:
    """The error for a point `_reproject` left with `defect` after `step`."""
    if defect == math.inf:
        return OverflowGuardError(f"hyperboloid coordinates overflowed at step {step}")
    return InvariantViolationError(f"hyperboloid drift {defect:.3e} (relative) at step {step}")


def _distance(R, n, R2, n2, k: float) -> np.ndarray:
    """Distances of points of H_k given in polar form, radius R and unit
    direction n (along the last axis), from points (R2, n2), unchecked; any
    leading axes broadcast.

    With a = kR and b = kR2 the law of cosines becomes

        sinh(k d / 2) = hypot(sinh((a - b)/2), sqrt(sinh a sinh b) |n - n2| / 2),

    and the second term is the product of scaled factors
    (|n - n2| / 2) sqrt((1 - e^(-2a)) / 2) sqrt((1 - e^(-2b)) / 2) e^(a/2) e^(b/2),
    each good to an ulp; the factors below 1 come first, so the product
    overflows only where the term does.  Past a or b = 1419 e^(a/2) itself
    overflows, and there the term is the exp of its log,
    (a + b + log(1 - e^(-2a)) + log(1 - e^(-2b)))/2 + log(|n - n2| / 4),
    good to eps times that log's terms.  A distance whose sinh(k d / 2) is
    past the double maximum, k d > 1420, reads inf.  Nothing cancels but
    a - b, which the radii carry to eps * max(a, b).
    """
    a, b = k * np.asarray(R), k * np.asarray(R2)
    m_a, m_b, gap = -np.expm1(-2.0 * a), -np.expm1(-2.0 * b), _safe_norm(n - n2)
    with np.errstate(over="ignore", invalid="ignore"):
        radial = np.sinh(0.5 * (a - b))
        angular = (0.5 * gap * np.sqrt(0.5 * m_a) * np.sqrt(0.5 * m_b)
                   * np.exp(0.5 * a) * np.exp(0.5 * b))
        far = ~np.isfinite(angular)
        if far.any():
            with np.errstate(divide="ignore"):
                log = 0.5 * (a + b + np.log(m_a) + np.log(m_b)) + np.log(0.25 * gap)
            angular = np.where(far, np.exp(log), angular)
        return (2.0 / k) * np.arcsinh(np.hypot(radial, angular))


def radial_increment_exact(R: float, d_tot: float, phi: float, k: float) -> float:
    """Exact change of radius after a step (d_tot, phi) taken at radius R,

        (1/k) arccosh(cosh kR cosh k d_tot + phi sinh kR sinh k d_tot) - R,

    by `_radial_increments`, the walks' radial step, on one element.
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
                       opp: np.ndarray | None = None, edges=None, exp_d=None) -> np.ndarray:
    """radial_increment_exact over radii R and arrays d_tot and phi that
    broadcast together, unchecked; the one evaluation of the exact
    increment.  `opp` is 1 + phi, for a caller that knows it better than
    phi (a long step close to straight inward); an opp <= 0 is the edge
    phi = -1.  A caller that knows them may pass `edges`, false only where
    no element is an edge, and `exp_d` = e^(-k d_tot).

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
    if edges is None:
        edges = not (d_tot.min(initial=math.inf) > 0.0 and phi.max(initial=0.0) < 1.0
                     and opp.min(initial=math.inf) > 0.0)
    if edges:
        edge = (d_tot == 0.0) | (phi >= 1.0) | (opp <= 0.0)
        edges = edge.any()
    # an edge's phi is replaced by 0, so that phi = -1 with A and D both past
    # the exp underflow cannot take the log of 0
    p, opp = (np.where(edge, 0.0, phi), np.where(edge, 1.0, opp)) if edges else (phi, opp)
    exp_a = np.exp(-A)
    if exp_d is None:
        exp_d = np.exp(-D)
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


def _euclidean_increments(R, d_tot_sq, d_rad, zero=True) -> np.ndarray:
    """Flat-space radius changes sqrt(R^2 + 2 R d_rad + d_tot^2) - R,
    elementwise over equal-shaped arrays (or floats) of d_tot^2 and d_rad,
    unchecked.  `zero` may be false where no d_tot^2 is 0.

    Evaluated as (2 R d_rad + d_tot^2) / (sqrt(...) + R) to avoid the
    cancellation of the direct form at large R.
    """
    rd = 2.0 * R * d_rad
    denom = np.sqrt(np.maximum(R * R + rd + d_tot_sq, 0.0)) + R
    # denom is 0 only where R and d_tot^2 are, and so the numerator
    return (rd + d_tot_sq) / (np.where(denom == 0.0, 1.0, denom) if zero else denom)


def euclidean_radial_increment(R: float, d_tot: float, d_rad: float) -> float:
    """Flat-space radius change sqrt(R^2 + 2 R d_rad + d_tot^2) - R, by
    `_euclidean_increments`, the flat walks' radial step.  Always
    >= d_rad.  A NaN argument fails the domain checks.
    """
    if not (R >= 0.0 and d_tot >= 0.0):
        raise DomainError(f"lengths must be >= 0, got R={R}, d_tot={d_tot}")
    if not abs(d_rad) <= d_tot * (1.0 + 1e-12):
        raise DomainError(f"|d_rad| = {abs(d_rad)} exceeds d_tot = {d_tot}")
    return float(_euclidean_increments(R, d_tot * d_tot, d_rad))


# ---------------------------------------------------------------------------
# The asymptotic increment
# ---------------------------------------------------------------------------

def asymptotic_increment(k: float, d_rad: float, d_tot: float) -> float:
    """(1/k) log(cosh(k d_tot) + (d_rad/d_tot) sinh(k d_tot)), 0 when d_tot = 0,
    by asymptotic_increment_batch on one step."""
    return float(asymptotic_increment_batch(k, d_rad, d_tot))


def one_plus_phi(d_rad, t_sq, d_tot) -> np.ndarray:
    """1 + phi, phi = d_rad/d_tot, over arrays of steps (d_rad, |t|^2, d_tot),
    without cancellation near phi = -1.

    Where d_rad < 0 it is taken as |t|^2 / (d_tot (d_tot - d_rad)), which
    keeps its digits for a long step close to straight inward: there
    1 + d_rad/d_tot is all rounding.  A zero step reads phi = 0.  With
    -d_rad it gives 1 - phi, stable near phi = 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        opp = np.where(d_rad < 0.0, t_sq / (d_tot * (d_tot - d_rad)), 1.0 + d_rad / d_tot)
    return np.where(d_tot > 0.0, opp, 1.0)


def log_one_plus_phi(d_rad, t_sq, d_tot) -> np.ndarray:
    """log(1 + phi) of steps, from one_plus_phi; -inf for a straight inward
    step.  With -d_rad it gives log(1 - phi)."""
    with np.errstate(divide="ignore"):
        return np.log(one_plus_phi(d_rad, t_sq, d_tot))


def near_inward_one_plus_phi(k: float, opp: np.ndarray, d_rad, t_sq, d_tot) -> np.ndarray:
    """Put one_plus_phi into `opp` (1 + d_rad/d_tot, d_rad's shape) where
    opp < 2^-10 and e^(2 k d_tot) > 2^11, the steps whose increment its
    rounding moves by more than about 2^10 eps/k; returns their flat indices.
    t_sq and d_tot may lack d_rad's leading axes."""
    long = k * d_tot > _D_DIRECT
    near = np.flatnonzero((opp < _OPP_DIRECT) & long) if long.any() else np.empty(0, np.intp)
    if near.size:
        step = near % d_tot.size        # each element's step, in d_tot's order
        np.put(opp, near, one_plus_phi(np.broadcast_to(d_rad, opp.shape).reshape(-1)[near],
                                       np.broadcast_to(t_sq, d_tot.shape).reshape(-1)[step],
                                       d_tot.reshape(-1)[step]))
    return near


def log_form_increment(k: float, D, log_opp, log_omp) -> np.ndarray:
    """The asymptotic increment as (D + log((1 + phi)/2 + (1 - phi) e^(-2D)/2))/k,
    D = k d_tot, from log(1 + phi) and log(1 - phi): finite for every step,
    also where 1 + phi underflows, with the log of the sum taken from the
    logs of its terms."""
    return (D + np.logaddexp(log_opp - _LOG2, log_omp - _LOG2 - 2.0 * D)) / k


def asymptotic_increment_batch(k: float, d_rad, d_tot, t_sq=None) -> np.ndarray:
    """(1/k) log(cosh(k d_tot) + phi sinh(k d_tot)) over arrays of (d_rad, d_tot),
    with phi = d_rad/d_tot, and 0 where d_tot = 0.

    1 + phi is 1 + d_rad/d_tot by default.  Given the steps' |t|^2 (d_tot's
    shape), it comes from one_plus_phi wherever 1 + d_rad/d_tot < 2^-10 and
    e^(2 k d_tot) > 2^11, where the direct form's rounding would move the
    increment by more than about 2^10 eps/k: a heavy-tail step of length y
    close to straight inward would read -y instead of about 0 past y = 30.
    Such a step with |t|^2 = 0 counts as phi = -1.

    d_rad has d_tot's shape, or that shape behind leading axes: each row along
    them is one radial component per step, and sinh and exp of k d_tot are
    evaluated once for every row.  The estimators pass
    np.stack([d_rad, -d_rad]) to pair each draw with its mirror; each row
    equals a separate call bit for bit.  0-d inputs give a 0-d result.

    Branches, per element: d_tot = 0 gives 0 and phi = +-1 gives +-d_tot,
    with no transcendental call.  Otherwise the evaluation is stable: for
    D = k d_tot <= 30 the argument is computed as e^(-D) + (1+phi) sinh(D)
    (both terms nonnegative, so nothing cancels near phi = -1); above, by
    log_form_increment.  A branch that covers the whole batch runs on the
    arrays themselves; only a batch that mixes branches is gathered branch
    by branch.  A NaN argument fails the domain checks.
    """
    d_rad = np.asarray(d_rad, dtype=float)
    d_tot = np.asarray(d_tot, dtype=float)
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    if not (np.all(d_tot >= 0.0) and np.all(np.abs(d_rad) <= d_tot * (1.0 + 1e-12) + 1e-300)):
        raise DomainError("need d_tot >= 0 and |d_rad| <= d_tot")
    shape = np.broadcast_shapes(d_rad.shape, d_tot.shape)
    d_tot = np.atleast_1d(d_tot)
    pos = d_tot > 0.0
    opp = np.divide(d_rad, d_tot, out=np.zeros(shape or (1,)), where=pos)
    np.clip(opp, -1.0, 1.0, out=opp)
    inner = pos & (np.abs(opp) != 1.0)      # phi = +-1 and d_tot = 0 are edges
    opp += 1.0                              # 1 + phi, exact at phi = +-1
    if t_sq is not None:
        near = near_inward_one_plus_phi(k, opp, d_rad, t_sq, d_tot)
        if near.size:
            np.put(inner, near, np.take(opp, near) != 0.0)     # 0: phi = -1

    def edge(d_tot, opp):
        return np.where(d_tot > 0.0, (opp - 1.0) * d_tot, 0.0)

    def general(d_tot, opp):
        D = k * d_tot
        return _piecewise(D <= _F_LOG_THRESHOLD, log_argument, log_expansion, D, opp)

    def log_argument(D, opp):
        x = opp * np.sinh(D)
        x += np.exp(-D)
        np.log(x, out=x)
        x /= k
        return x

    def log_expansion(D, opp):
        return log_form_increment(k, D, np.log(opp), np.log(2.0 - opp))

    return _piecewise(inner, general, edge, d_tot, opp).reshape(shape)


def _piecewise(mask, on, off, *arrays):
    """on(*arrays) where mask holds and off(*arrays) elsewhere, each function
    evaluated on its own elements only.

    When the mask is uniform the one function runs on the arrays themselves,
    so a batch that one branch covers is never copied; otherwise mask and
    arrays are broadcast together and each branch gets its gathered elements.
    """
    if mask.all():
        return on(*arrays)
    if not mask.any():
        return off(*arrays)
    mask, *arrays = np.broadcast_arrays(mask, *arrays)
    out = np.empty(mask.shape)
    out[mask] = on(*(a[mask] for a in arrays))
    rest = ~mask
    out[rest] = off(*(a[rest] for a in arrays))
    return out


# ---------------------------------------------------------------------------
# Radial frames
# ---------------------------------------------------------------------------

@record(eq=False)
class HouseholderFrame:
    """Tangent frames as Householder reflections, one per point along the
    leading axes: for the unit outward direction n, with s = sign(n_0) (+1
    at 0) and w = n + s e_0, H = I - w w^T / |w_0| maps e_0 to -s n and
    e_1 .. e_{d-1} onto an orthonormal basis of n's complement.  `radial` is
    the unit outward step, (sinh kR, cosh kR n) on H_k and n in flat space;
    H acts on the last d ambient coordinates, and the transverse ones are
    the last d - 1.
    """

    __slots__ = ("radial", "w", "scale")
    radial: np.ndarray
    w: np.ndarray
    scale: np.ndarray   # |w_0| = 1 + |n_0| = |w|^2 / 2

    def __init__(self, radial, w, scale):
        object.__setattr__(self, "radial", radial)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "scale", scale)

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
        """The matrix view: row 0 toward the origin, then the rows H e_i.

        No walk reads it; the tests compare `step` against it."""
        w = self.w
        d = w.shape[-1]
        axes = np.zeros(w.shape[:-1] + (d, self.radial.shape[-1]))
        axes[..., 0, :] = -self.radial
        axes[..., 1:, -d:] = np.eye(d)[1:] - (w[..., 1:, None] / self.scale[..., None, None]
                                              ) * w[..., None, :]
        return axes


def _householder(radial: np.ndarray, n: np.ndarray) -> HouseholderFrame:
    w = n.copy()
    w[..., 0] += np.where(n[..., 0] >= 0.0, 1.0, -1.0)
    return HouseholderFrame(radial, w, np.abs(w[..., 0]))


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
    they stay well conditioned at any radius: the `validate` oracle's frame.
    Within 1e-12 / k of the origin the stand-in n = -e_1 (radial step
    (0, -1, 0, ...)) is taken.
    """
    sp = _safe_norm(coords[..., 1:])
    at_origin = k * sp <= 1e-12
    n = _unit_or_stand_in(coords[..., 1:], sp, at_origin)
    radial = np.empty(coords.shape)
    radial[..., 0] = np.where(at_origin, 0.0, k * sp)           # sinh(kR)
    radial[..., 1:] = np.where(at_origin, 1.0, k * coords[..., 0])[..., None] * n  # cosh(kR) n
    return _householder(radial, n)


def euclidean_frame(x: np.ndarray) -> HouseholderFrame:
    """The flat-space frames at points x; at the origin the stand-in n = -e_0."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(_rowdot(x, x))
    at_origin = r == 0.0
    n = _unit_or_stand_in(x, r, at_origin)
    return _householder(n, n)


def _turn(n: np.ndarray, t: np.ndarray, R, d_rad, d_tot, k: float, opp) -> np.ndarray:
    """The unit directions from the origin of the endpoints of steps of
    outward radial parts d_rad, transverse parts t and lengths d_tot,
    taken from radii R in the unit directions n (one per row): the turn
    that makes the radial step an ambient one.  t is read in n's
    Householder frame, the frames' one convention: tau = H (0, t) is the
    step's transverse part in the coordinates of n, so the endpoint lies in
    the plane of n and tau.

    On H_k the endpoint's spatial part, scaled by 2 k e^(-(a + c)) with
    a = kR and c = k d_tot, is Y_n n + Y_t tau, where

        Y_n = (e^(-2c) - e^(-2a)) + (1 + phi)(1 - e^(-2c))(1 + e^(-2a)) / 2,
        Y_t = (1 - e^(-2c)) e^(-a) / d_tot,

    and `opp` is 1 + phi, the radial step's.  No term overflows.  The
    difference e^(-2c) - e^(-2a) is taken as e^(-2 min(a, c)) times
    -expm1(-2|a - c|), and 1 - e^(-2c) as -expm1(-2c), so neither cancels.
    In flat space (k = 0, `opp` unread) the endpoint is (R + d_rad) n + tau.
    An endpoint on the origin takes the frames' stand-in -e_1, and a zero
    step on H_k, whose Y_t is 0/0, keeps its direction.  The guard is one
    reduction.

    Past a = 708 the factor e^(-a) of Y_t is subnormal, and past 745 it is
    0, so a step's move across the radius is lost (TURN_KR_LIMIT stops
    short of it); a direction off the axes stops resolving it much sooner,
    where e^(-a) falls below eps.
    """
    tau = _householder(n, n).step(0.0, t)
    if k:
        a, c = k * R, k * d_tot
        e_a = np.exp(-a)
        m_c = -np.expm1(-2.0 * c)
        gap = a - c
        y_n = np.copysign(np.exp(-2.0 * np.minimum(a, c)) * np.expm1(-2.0 * np.abs(gap)), gap)
        y_n += 0.5 * opp * m_c * (1.0 + e_a * e_a)
        with np.errstate(invalid="ignore"):     # 0/0 at a zero step
            y_t = m_c * e_a / d_tot
        y = y_n[..., None] * n + y_t[..., None] * tau
    else:
        y = (R + d_rad)[..., None] * n + tau
    norm = np.sqrt(_rowdot(y, y))
    if norm.min(initial=math.inf) > 0.0:        # a NaN (a zero step on H_k) fails it
        return y / norm[..., None]
    return np.where(np.isnan(norm)[..., None], n, _unit_or_stand_in(y, norm, norm == 0.0))
