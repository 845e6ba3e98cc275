"""Moment estimators and recurrence/transience classifiers.

This module holds estimators and classifiers only; the kernels they
evaluate, the exact radial increment and the asymptotic increment, live in
geometry.py.  For a chain at large radius in curvature -k**2, the radial
increment of a step (d_rad, d_tot) approaches the *asymptotic increment*

    (1/k) log(cosh(k d_tot) + phi sinh(k d_tot)),    phi = d_rad/d_tot,

and classification reduces to a Lamperti problem for the radial process:
compare twice the radius times the first moment of this quantity against its
second moment.  All classifiers here decide the limiting conditions on a
finite radius grid with explicit margins.  The moments of a built-in law are
integrated by Gauss quadrature over the law's own parameters (see
quadrature.py), with the quadrature error estimate as half-width; any other
law is sampled, with Monte Carlo 99% half-widths.  A verdict is therefore
*evidence with stated margins*, not a proof: the report carries the grid,
the margins and the criterion so a reviewer can reject it.

Naming note: the criteria fall into families
  * const-curvature-*   exact constant curvature, moment-based
  * pinched-*           curvature trapped in [-k_max^2, -k_min^2], comparison
                        bounds on the moments
  * uniform-ellipticity transience screen from transverse second moments
  * elliptic-analytic-* closed-form criterion for elliptic shell laws
  * euclidean-2u-v      flat-space second-moment rule (2U vs V)
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvariantViolationError, UsageError, record
from .increments import MOMENT_NAMES, Z99, IncrementLaw, RadialProfile, ZeroDriftResult
# the estimators call the kernels here, where perfbench/spans.py wraps them
from .geometry import (asymptotic_increment_batch, log_form_increment, log_one_plus_phi,
                       radial_increment_exact_batch)

MIN_SAMPLES = 100   # fewest draws per radius behind a Monte Carlo half-width
# Gauss nodes per line piece; every integral is taken again with twice as
# many.  The quadrature module is imported inside the functions that
# integrate, so that commands which never do (simulate, validate) skip it.
QUAD_NODES = 32
QUADRATURE_NOTE = (f"moments by Gauss quadrature; half_width is |Q_{QUAD_NODES} - "
                   f"Q_{2 * QUAD_NODES}| plus a rounding floor, an error estimate and "
                   "not a 99% interval")


class MonteCarloVarianceWarning(UserWarning):
    """The integrand's empirical kurtosis is extreme; half-widths are suspect."""


# ---------------------------------------------------------------------------
# The sandwich bounds of the asymptotic increment
# ---------------------------------------------------------------------------

_SERIES_CUTOFF = 1e-4  # below k*d_tot = 1e-4 both coefficients equal k/2 to ~1e-12


def sandwich_coeff_min(k: float, d_tot: float) -> float:
    """Lower quadratic coefficient: the asymptotic increment is at least
    d_rad + coeff * (d_tot^2 - d_rad^2).

    Positive, increasing in k, decreasing in d_tot; equals k/2 in the
    d_tot -> 0 limit (removable singularity, filled below k*d_tot = 1e-4).
    """
    _check_coeff_domain(k, d_tot)
    D = k * d_tot
    if D < _SERIES_CUTOFF:
        return 0.5 * k
    # sinh(D)/(k e^D) = (1 - e^(-2D)) / (2k)
    return (d_tot + math.expm1(-2.0 * D) / (2.0 * k)) / (2.0 * d_tot * d_tot)


def sandwich_coeff_max(k: float, d_tot: float) -> float:
    """Upper quadratic coefficient of the sandwich; nonnegative, increasing in
    both k and d_tot; equals k/2 in the d_tot -> 0 limit."""
    _check_coeff_domain(k, d_tot)
    D = k * d_tot
    if D < _SERIES_CUTOFF:
        return 0.5 * k
    if 2.0 * D > 700.0:
        return math.inf
    # sinh(D) e^D / k = (e^(2D) - 1) / (2k)
    return (-d_tot + math.expm1(2.0 * D) / (2.0 * k)) / (2.0 * d_tot * d_tot)


def _check_coeff_domain(k, d_tot):
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    if not d_tot > 0.0:
        raise DomainError(f"d_tot must be > 0, got {d_tot}")


# ---------------------------------------------------------------------------
# Monte Carlo moment estimates
# ---------------------------------------------------------------------------

@record
class Estimate(tuple):
    """An estimate and its half-width: a two-sided 99% interval for a Monte
    Carlo estimate, the error estimate for a quadrature one."""

    __slots__ = ()
    value: float
    half_width: float


def _mc_estimate(x: np.ndarray) -> Estimate:
    n = x.size
    mean = float(x.mean())
    if n < 2:
        return Estimate(mean, math.inf)
    sd = float(x.std(ddof=1))
    return Estimate(mean, Z99 * sd / math.sqrt(n))


def _excess_kurtosis(x: np.ndarray) -> Optional[float]:
    """Empirical excess kurtosis of x; None when x is constant.

    The fourth central moment is the mean of dev2 * dev2 with
    dev2 = (x - mean)^2: squaring twice, where `** 4` would call libm pow on
    every element.
    """
    dev2 = (x - x.mean()) ** 2
    var = float(dev2.mean())
    if var <= 0.0:
        return None
    return float(np.mean(dev2 * dev2)) / var ** 2 - 3.0


def _warn_if_heavy(x: np.ndarray, what: str):
    kurt = _excess_kurtosis(x)
    if kurt is not None and kurt > 50.0:
        warnings.warn(
            f"{what}: integrand excess kurtosis {kurt:.1f}; the confidence "
            "half-width may be unreliable (heavy tails)",
            MonteCarloVarianceWarning,
            stacklevel=4,
        )


def increment_moment_estimate(law: IncrementLaw, k: float, r: float, n_samples: int,
                              rng: np.random.Generator) -> tuple[Estimate, Estimate]:
    """Monte Carlo estimates (nu1, nu2) of the first and second moments of the
    asymptotic increment at radius r.  It samples whatever the law; the
    classifiers integrate a built-in law instead (estimate_moment_functions).

    One draw of n_samples steps feeds both moments (_increment_estimates),
    so the two estimates are correlated.  The classifiers need no
    independence: both legs combine nu1 and nu2 per radius with summed
    half-widths (the transience gap carries 2r hw1 + hw2; the recurrence leg
    sets nu2 - hw2 against 2r (nu1 + hw1)), a union bound over the two
    intervals that holds whatever their correlation.
    """
    return _radius_estimates(law, k, r, n_samples, rng)[:2]


def _draw(law, r, n_samples, rng):
    """(d_rad, t, t_sq, d_tot) of one batch draw of n_samples steps at radius
    r: the only draw behind a Monte Carlo estimate, with t_sq = |t|^2 and
    d_tot = sqrt(d_rad^2 + t_sq) per step.  Fewer than MIN_SAMPLES steps
    raise UsageError."""
    _check_samples(n_samples)
    d_rad, t = law.sample_components_batch(r, n_samples, rng)
    t_sq = np.einsum("ij,ij->i", t, t)
    return d_rad, t, t_sq, np.sqrt(d_rad * d_rad + t_sq)


def _mirror_means(law, integrands, d_rad, *shared):
    """The outputs of integrands(d_rad, *shared), each paired with its mirror
    for a law symmetric under v -> -v.

    Pairing runs integrands once on np.stack([d_rad, -d_rad]), so a draw and
    its mirror are two rows of one kernel call, and averages each output
    over its two rows.  The paired mean stays unbiased and removes most of
    the first-moment variance (it is a function of (phi^2, d_tot) only).
    Any other law gets the outputs as they are.
    """
    if not law.symmetric:
        return integrands(d_rad, *shared)
    return tuple(0.5 * (x[0] + x[1]) for x in integrands(np.stack([d_rad, -d_rad]), *shared))


def _increment_estimates(law, k, r, d_rad, t_sq, d_tot):
    """(nu1, nu2) at radius r from one draw, the one Monte Carlo estimate of
    both: the sample means of the asymptotic increment f and of f^2, each
    paired with its mirror for a law symmetric under v -> -v (see
    _mirror_means).  Emits MonteCarloVarianceWarning when the empirical
    kurtosis of either integrand explodes."""
    def moments(d_rad, t_sq, d_tot):
        f = asymptotic_increment_batch(k, d_rad, d_tot, t_sq)
        return f, f ** 2

    x1, x2 = _mirror_means(law, moments, d_rad, t_sq, d_tot)
    _warn_if_heavy(x1, f"moment estimate (power 1, r={r:g})")
    _warn_if_heavy(x2, f"moment estimate (power 2, r={r:g})")
    return _mc_estimate(x1), _mc_estimate(x2)


def _radius_estimates(law, k, r, n_samples, rng):
    """(nu1, nu2, transverse, zero_drift) at radius r from one draw of
    n_samples steps: the two moments of _increment_estimates, the
    transverse second moment E|t|^2 as an Estimate, and the step-mean
    ZeroDriftResult the uniform-ellipticity screen reads."""
    d_rad, t, t_sq, d_tot = _draw(law, r, n_samples, rng)
    return (*_increment_estimates(law, k, r, d_rad, t_sq, d_tot), _mc_estimate(t_sq),
            ZeroDriftResult.of_draw(d_rad, t))


# ---------------------------------------------------------------------------
# Quadrature moments
# ---------------------------------------------------------------------------

def _integrable(law: IncrementLaw, r: float, k: float) -> bool:
    """Whether the law's moments at r, for curvature up to k, are integrated:
    it offers lines there.  Every other law (custom laws, box laws in
    d >= 3 or with k times the radial half-side above QUADRATURE_KA) is
    sampled."""
    return law.quadrature_lines(r, QUAD_NODES, k) is not None


def _integrate(law, radii, integrands, k, cut=None):
    """quadrature.integrate with QUAD_NODES, as Estimates at each radius."""
    from . import quadrature
    return [[Estimate(*e) for e in at_r]
            for at_r in quadrature.integrate(law, radii, integrands, k, QUAD_NODES, cut)]


def _radius_integrals(law, k, r):
    """(nu1, nu2, transverse, zero_drift) at radius r by quadrature: what
    _radius_estimates takes from a draw.  The zero-drift statistic holds
    E[d_rad] with its half-width as standard error; the transverse means
    are 0 by the law's rotation symmetry."""
    from . import quadrature
    (nu1, nu2, transverse, mean), = _integrate(law, [r], lambda a, _: (
        *quadrature.increment_integrands(k, a, law.symmetric), a.t_sq, a.d_rad), k)
    rest = [0.0] * (law.d - 1)
    zero_drift = ZeroDriftResult(np.array([mean.value, *rest]),
                                 np.array([mean.half_width, *rest]), 0)
    return nu1, nu2, transverse, zero_drift


STEP_MOMENTS = (*MOMENT_NAMES, "E|t|^2", "nu1", "nu2")


def step_moments(law: IncrementLaw, k: Optional[float], r: float, n_samples: int,
                 rng: np.random.Generator) -> tuple:
    """(estimates, note): Estimates at radius r of the step moments named in
    STEP_MOMENTS (nu1 and nu2 only given a curvature k), keyed by name, and
    the note that says how their half-widths were made, or None.

    A law that offers quadrature lines is integrated, with QUADRATURE_NOTE.
    Any other law takes one draw of n_samples steps from rng; its estimates
    are sample means with 99% half-widths, nu1 and nu2 those the classifiers
    take from the same draw (_increment_estimates)."""
    names = STEP_MOMENTS if k is not None else STEP_MOMENTS[:4]
    if _integrable(law, r, k or 0.0):
        from . import quadrature

        def integrands(a, _):
            d_rad_sq = a.d_rad ** 2
            x = (d_rad_sq + a.t_sq, d_rad_sq, a.d_rad, a.t_sq)
            return x if k is None else x + quadrature.increment_integrands(k, a, law.symmetric)
        return dict(zip(names, _integrate(law, [r], integrands, k or 0.0)[0])), QUADRATURE_NOTE
    d_rad, _, t_sq, d_tot = _draw(law, r, n_samples, rng)
    d_rad_sq = d_rad ** 2
    estimates = list(map(_mc_estimate, (d_rad_sq + t_sq, d_rad_sq, d_rad, t_sq)))
    if k is not None:
        estimates += _increment_estimates(law, k, r, d_rad, t_sq, d_tot)
    return dict(zip(names, estimates)), None


def _check_samples(n_samples):
    if n_samples < MIN_SAMPLES:
        raise UsageError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")


@record
class MomentFunctions:
    """The first two moments of the asymptotic radial increment, and what the
    uniform-ellipticity screen reads from the same draws.

    Each callable maps a radius to an Estimate (zero_drift: to a
    ZeroDriftResult); the classifiers bound a moment by its value plus or
    minus the half-width.  transverse and zero_drift are None for moments
    that did not come from estimate_moment_functions.  `note`, when set,
    says how the half-widths were made, and the classifiers' reports carry
    it.
    """

    nu1: Callable[[float], Estimate]
    nu2: Callable[[float], Estimate]
    transverse: Optional[Callable[[float], Estimate]] = None
    zero_drift: Optional[Callable[[float], ZeroDriftResult]] = None
    note: Optional[str] = None


def estimate_moment_functions(law: IncrementLaw, k: float, r_grid, n_samples: int,
                              rng: np.random.Generator) -> MomentFunctions:
    """Estimate both moments, the transverse second moment and the zero-drift
    statistic on a radius grid.

    A law that offers quadrature lines is integrated at every radius (see
    _integrate) and rng is not touched.  Any other law takes, at each grid
    radius in grid order, one draw of n_samples steps from rng, and
    everything at that radius comes from it: nu1 and nu2 (see
    increment_moment_estimate; the summed half-widths the classifiers use
    stay valid for correlated estimates), E|t|^2 and the step mean that
    uniform_ellipticity_transience_check reads.  n_samples must be at least
    MIN_SAMPLES either way.
    """
    grid = [float(r) for r in r_grid]
    if not grid:
        raise UsageError("empty radius grid")
    _check_samples(n_samples)
    integrated = _integrable(law, grid[0], k)
    table = {r: (_radius_integrals(law, k, r) if integrated
                 else _radius_estimates(law, k, r, n_samples, rng)) for r in grid}

    def _lookup(idx: int, r: float):
        try:
            return table[float(r)][idx]
        except KeyError:
            raise UsageError(f"moments were not estimated at r = {r}") from None

    return MomentFunctions(*(partial(_lookup, idx) for idx in range(4)),
                           note=QUADRATURE_NOTE if integrated else None)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class Verdict(Enum):
    TRANSIENT = "transient"
    RECURRENT = "recurrent"
    INCONCLUSIVE = "inconclusive"


CRIT_CONST_TRANSIENT = "const-curvature-transient"
CRIT_CONST_RECURRENT = "const-curvature-recurrent"
CRIT_PINCHED_TRANSIENT = "pinched-transient"
CRIT_PINCHED_RECURRENT = "pinched-recurrent"
CRIT_UNIFORM_ELLIPTIC = "uniform-ellipticity"
CRIT_ELLIPTIC_TRANSIENT = "elliptic-analytic-transient"
CRIT_ELLIPTIC_RECURRENT = "elliptic-analytic-recurrent"
CRIT_EUCLIDEAN = "euclidean-2u-v"


@record
class MarginRow:
    """One evaluated inequality at one radius, for the margins CSV."""

    r: float
    quantity: str
    estimate: float
    half_width: float
    margin: float
    criterion: str


@record(frozen=False)
class ClassificationReport:
    """Outcome of a classification attempt.

    A Transient/Recurrent verdict means the corresponding inequality held at
    every tail radius with margin beyond the half-width; margins
    lists the deciding (r, margin) pairs.  For a recurrent verdict a finite
    bound on the liminf of the radial process exists but is not computed.
    """

    verdict: Verdict
    criterion: str
    margins: list
    theta: float
    r0: float
    rows: list = list
    notes: list = list

    def as_text(self) -> str:
        lines = [
            f"verdict:   {self.verdict.value}",
            f"criterion: {self.criterion}",
            f"theta:     {self.theta!r}",
            f"r0:        {self.r0!r}",
        ]
        if self.margins:
            worst = min(m for _, m in self.margins)
            lines.append(f"margins:   {len(self.margins)} radii, worst {worst:.6g}")
            for r, m in self.margins:
                lines.append(f"    r = {r:<10g} margin = {m:.6g}")
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)


def _median(x) -> float:
    """np.median(x) of a non-empty sequence, bit for bit, without the
    numpy.ma import that np.median makes on first use: np.mean of the middle
    value or pair, whose sum starts at +0.0 (so -0.0 reads 0.0), or NaN if
    any value is NaN."""
    s = np.sort(np.asarray(x, dtype=float), axis=None).tolist()
    n = len(s)
    if math.isnan(s[-1]):       # np.sort puts NaNs last
        return s[-1]
    return 0.0 + s[n // 2] if n % 2 else (0.0 + s[n // 2 - 1] + s[n // 2]) / 2


def _tail_bounded(r_tail, values, half_widths) -> bool:
    """Finite-grid evidence that a sequence of estimates is not growing.

    Accepts when the fitted linear growth over the tail stays within the
    half-widths or within 25% of the typical level.  A heuristic by
    necessity; no finite computation certifies a limsup.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return False
    if values.size < 2:
        return True
    r_tail = np.asarray(r_tail, dtype=float)
    slope = float(np.polyfit(r_tail, values, 1)[0])
    span = float(r_tail[-1] - r_tail[0])
    allowance = max(
        4.0 * _median(half_widths),
        0.25 * abs(_median(values)),
        1e-12,
    )
    return slope * span <= allowance


def _prepare_grid(r_grid, r0):
    grid = sorted({float(r) for r in r_grid})
    if not grid:
        raise UsageError("empty radius grid")
    if r0 is None:
        r0 = grid[len(grid) // 2]
    tail = [r for r in grid if r >= r0]
    if not tail:
        raise UsageError(f"threshold radius r0 = {r0} lies beyond the grid")
    return grid, float(r0), tail


def _recurrence_leg(points, theta, floor_name, criterion, rows):
    """The recurrence inequality 2 r (nu1 + hw1) <= (1 + (1-theta)/log r)(nu2 - hw2)
    at each (r, nu1, nu2) estimate triple of `points`, appending a floor row
    and a margin row per radius to `rows`.

    Returns (holds, margins, rhs): the leg holds when there is a point and
    every floor nu2 - hw2 and every margin is positive.
    """
    margins, rhs_values = [], []
    floor_ok = True
    for r, e1, e2 in points:
        floor = e2.value - e2.half_width
        if floor <= 0.0:
            floor_ok = False
        rows.append(MarginRow(r, floor_name, e2.value, e2.half_width, floor, criterion))
        rhs = (1.0 + (1.0 - theta) / math.log(r)) * floor
        lhs = 2.0 * r * (e1.value + e1.half_width)
        margins.append((r, rhs - lhs))
        rhs_values.append(rhs)
        rows.append(MarginRow(r, "recurrence-margin", lhs, 2.0 * r * e1.half_width,
                              rhs - lhs, criterion))
    holds = floor_ok and bool(margins) and all(m > 0.0 for _, m in margins)
    return holds, margins, rhs_values


def _decide(transient, recurrent, theta, r0, rows, notes,
            neither="neither inequality held at every tail radius with margin"):
    """The report of a two-leg classifier, each leg (holds, criterion,
    margins): transient when that leg holds, else recurrent when that one
    does, else inconclusive on the transience leg's margins."""
    (t_ok, t_crit, t_margins), (r_ok, r_crit, r_margins) = transient, recurrent
    if t_ok:
        return ClassificationReport(Verdict.TRANSIENT, t_crit, t_margins, theta, r0, rows, notes)
    if r_ok:
        notes.append("a finite bound on liminf R_n exists; its value is not computed")
        return ClassificationReport(Verdict.RECURRENT, r_crit, r_margins, theta, r0, rows, notes)
    notes.append(neither)
    return ClassificationReport(Verdict.INCONCLUSIVE, t_crit, t_margins, theta, r0, rows, notes)


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def classify_constant_curvature(moments: MomentFunctions, r_grid, theta: float = 0.5,
                                r0: Optional[float] = None) -> ClassificationReport:
    """Classify from moment bounds in constant curvature, at the tail radii
    past 1.

    Transient when the second moment stays bounded along the tail and
    2 r nu1 >= (1 + (1+theta)/log r) nu2 with margin at every such radius.
    Recurrent when nu2 stays positive and
    2 r nu1 <= (1 + (1-theta)/log r) nu2 with margin at every such radius.
    Inconclusive otherwise.  The two legs are mirrors, so they cannot both
    hold; if they did, InvariantViolationError is raised.
    """
    if not theta > 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    _, r0, tail = _prepare_grid(r_grid, r0)

    n1 = [moments.nu1(r) for r in tail]
    n2 = [moments.nu2(r) for r in tail]
    for r, e in zip(tail, n2):
        if e.value < -e.half_width:
            raise UsageError(f"second moment estimate is negative at r = {r}")

    rows = []
    notes = [moments.note] if moments.note else []
    points = [(r, e1, e2) for r, e1, e2 in zip(tail, n1, n2) if r > 1.0]

    # transience leg, its factor on nu2 and its half-width the recurrence
    # leg's mirror image
    t_margins = []
    for r, e1, e2 in points:
        factor = 1.0 + (1.0 + theta) / math.log(r)
        gap = 2.0 * r * e1.value - factor * e2.value
        hw = 2.0 * r * e1.half_width + factor * e2.half_width
        t_margins.append((r, gap - hw))
        rows.append(MarginRow(r, "transience-gap", gap, hw, gap - hw, CRIT_CONST_TRANSIENT))
    bounded = _tail_bounded([r for r, _, _ in points], [e2.value for _, _, e2 in points],
                            [e2.half_width for _, _, e2 in points])
    if not bounded:
        notes.append("second moment shows growth along the tail; transience leg rejected")
    transient_ok = bounded and bool(t_margins) and all(m > 0.0 for _, m in t_margins)

    recurrent_ok, r_margins, _ = _recurrence_leg(
        points, theta, "second-moment-floor", CRIT_CONST_RECURRENT, rows)
    if transient_ok and recurrent_ok:
        raise InvariantViolationError(
            "both the transience and the recurrence leg hold at every tail radius")
    return _decide((transient_ok, CRIT_CONST_TRANSIENT, t_margins),
                   (recurrent_ok, CRIT_CONST_RECURRENT, r_margins), theta, r0, rows, notes)


def _pinched_moments(law, r, k, K, n_samples, rng):
    """Per-radius Monte Carlo moments used by the pinched classifier for a
    law that is sampled.

    Returns estimates of:
      m1_low  -- first moment of the asymptotic increment at k  (lower bound)
      m1_high -- same at K (upper bound)
      m2_split-- comparison lower bound for the second moment, splitting by
                 the sign of the exact increment in the bracketing geometries
      m2_up   -- upper bound max(F_k^2, F_K^2)

    Laws symmetric under v -> -v get mirror pairing (see _mirror_means),
    without which the raw first-moment variance would drown the Lamperti
    inequality at large radii.
    """
    d_rad, _, t_sq, d_tot = _draw(law, r, n_samples, rng)

    def bounds(d_rad, t_sq, d_tot):
        inc_lo, inc_hi = _exact_increments(r, k, K, d_rad, d_tot)
        f_lo = asymptotic_increment_batch(k, d_rad, d_tot, t_sq)
        f_hi = f_lo if K == k else asymptotic_increment_batch(K, d_rad, d_tot, t_sq)
        sq_lo = f_lo ** 2
        sq_hi = sq_lo if K == k else f_hi ** 2
        return _pinched_bounds(f_lo, sq_lo, f_hi, sq_hi, inc_lo, inc_hi)

    return tuple(_mc_estimate(x) for x in _mirror_means(law, bounds, d_rad, t_sq, d_tot))


def _exact_increments(r, k, K, d_rad, d_tot):
    """The exact radial increments (inc_k, inc_K) at radius r of the steps
    (d_rad, d_tot), d_rad of d_tot's shape or stacked behind it; the same
    array twice when K = k."""
    with np.errstate(invalid="ignore"):
        phi = np.where(d_tot > 0.0, d_rad / np.maximum(d_tot, 1e-300), 0.0)
    np.clip(phi, -1.0, 1.0, out=phi)
    inc_lo = radial_increment_exact_batch(r, d_tot, phi, k)
    return inc_lo, inc_lo if K == k else radial_increment_exact_batch(r, d_tot, phi, K)


def _pinched_bounds(x1_lo, sq_lo, x1_hi, sq_hi, inc_lo, inc_hi):
    """The integrands of the four pinched bounds (see _pinched_moments)
    from the first-moment integrands and squared increments at k and K and
    the exact increments: the split bound takes f_k^2 where inc_k >= 0 and
    f_K^2 where inc_K < 0."""
    split = sq_lo * (inc_lo >= 0.0) + sq_hi * (inc_hi < 0.0)
    return x1_lo, x1_hi, split, np.maximum(sq_lo, sq_hi)


def _pinched_integrals(law, points) -> list:
    """_pinched_moments' four bounds by quadrature at each (r, k, K) of
    points, in order, each bit for bit what it takes alone.

    The split bound jumps where an exact increment changes sign, and
    max(f_k^2, f_K^2) has a kink where f_k + f_K does, so with k < K every
    line is cut at those points first: for each band (k, K), the lines of
    all its radii in one root solve (see quadrature._edges).  Near the
    origin (r at most the step length) the exact increment need not be
    monotone in d_rad and may change sign twice on a line; every change
    between the probes is bracketed.
    """
    from . import quadrature
    out = {}
    for k, K in dict.fromkeys(p[1:] for p in points):
        band = [p[0] for p in points if p[1:] == (k, K)]

        def cut(steps, r):
            log_omp = log_one_plus_phi(-steps.d_rad, steps.t_sq, steps.d_tot)
            f = [log_form_increment(c, c * steps.d_tot, steps.log_opp, log_omp) for c in (k, K)]
            return (*_exact_increments(r, k, K, steps.d_rad, steps.d_tot), f[0] + f[1])

        def bounds(atoms, r):
            x1_lo, sq_lo = quadrature.increment_integrands(k, atoms, law.symmetric)
            x1_hi, sq_hi = ((x1_lo, sq_lo) if K == k
                            else quadrature.increment_integrands(K, atoms, law.symmetric))
            return _pinched_bounds(x1_lo, sq_lo, x1_hi, sq_hi,
                                   *_exact_increments(r, k, K, atoms.d_rad, atoms.d_tot))

        for r, e in zip(band, _integrate(law, band, bounds, K, None if K == k else cut)):
            out[r, k, K] = tuple(e)
    return [out[p] for p in points]


def classify_pinched(law: IncrementLaw, k_min_profile: RadialProfile,
                     k_max_profile: RadialProfile, r_grid, n_samples: int,
                     rng: np.random.Generator, theta: float = 0.5,
                     r0: Optional[float] = None) -> ClassificationReport:
    """Classify on a manifold with curvature pinched between the profiles.

    A law that offers quadrature lines has its bounds integrated at every
    grid radius (_pinched_integrals) and rng is not touched; any other law
    takes one draw of n_samples steps per grid radius (_pinched_moments).

    Transient when the second-moment upper bound m2_up stays bounded along
    the tail and 2 r m1_low >= (1 + (1+theta)/log r) m2_up with margin at
    every tail radius past 1, against the k_min first moment, which bounds
    the radial drift from below.  Recurrent when the split second-moment
    lower bound stays positive and 2 r m1_high <= (1 + (1-theta)/log r)
    m2_split with margin at every such radius, against the k_max first
    moment, which bounds it from above.  The legs are mirrors: with k_min =
    k_max they are the constant-curvature criteria, margin for margin, and
    they cannot both hold; if they did, InvariantViolationError is raised.
    The scaled drift r m1_low is reported at every grid radius and decides
    nothing.
    """
    if not theta > 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    grid, r0, tail = _prepare_grid(r_grid, r0)
    _check_samples(n_samples)
    # the lines are built at each radius's k_max, which the profile's sup bounds
    integrated = _integrable(law, grid[0], k_max_profile.sup())

    rows = []
    notes = [QUADRATURE_NOTE] if integrated else []
    points = [(r, float(k_min_profile(r)), float(k_max_profile(r))) for r in grid]
    for r, k, K in points:
        if not 0.0 < k <= K:
            raise UsageError(f"need 0 < k_min <= k_max on the grid, got ({k}, {K}) at r = {r}")
    per_r = dict(zip(grid, _pinched_integrals(law, points) if integrated else
                     [_pinched_moments(law, *p, n_samples, rng) for p in points]))

    # transience leg, the recurrence leg's mirror, against m2_up on the tail
    # radii past 1; its gap is reported at every grid radius past 1, beside
    # the scaled drift r * m1_low at every one
    t_margins, t_tail = [], []
    for r, (m1l, _, _, m2u) in per_r.items():
        if r > 1.0:
            factor = 1.0 + (1.0 + theta) / math.log(r)
            gap = 2.0 * r * m1l.value - factor * m2u.value
            hw = 2.0 * r * m1l.half_width + factor * m2u.half_width
            rows.append(MarginRow(r, "transience-gap", gap, hw, gap - hw,
                                  CRIT_PINCHED_TRANSIENT))
            if r >= r0:
                t_margins.append((r, gap - hw))
                t_tail.append((r, m2u))
        rows.append(MarginRow(r, "scaled-drift", r * m1l.value, r * m1l.half_width,
                              r * (m1l.value - m1l.half_width), CRIT_PINCHED_TRANSIENT))
    bounded = _tail_bounded([r for r, _ in t_tail], [e.value for _, e in t_tail],
                            [e.half_width for _, e in t_tail])
    if not bounded:
        notes.append("second moment shows growth along the tail; transience leg rejected")
    transient_ok = bounded and bool(t_margins) and all(m > 0.0 for _, m in t_margins)

    # recurrence leg: split second moment floor + inequality against the K side
    legs = [(r, m1l, m1h, m2s) for r, (m1l, m1h, m2s, _) in per_r.items()
            if r > 1.0 and r >= r0]
    recurrent_ok, r_margins, rhs = _recurrence_leg(
        [(r, m1h, m2s) for r, _, m1h, m2s in legs], theta,
        "split-second-moment-floor", CRIT_PINCHED_RECURRENT, rows)
    if transient_ok and recurrent_ok:
        raise InvariantViolationError(
            "both the transience and the recurrence leg hold at every tail radius")
    # the same inequality read with the k_min first moment
    if any((m > 0.0) != (q - 2.0 * r * (m1l.value + m1l.half_width) > 0.0)
           for (_, m), q, (r, m1l, _, _) in zip(r_margins, rhs, legs)):
        notes.append(
            "the k_min reading of the first-moment condition disagrees with the "
            "k_max reading used here; the k_max side is the valid upper bound"
        )
    return _decide((transient_ok, CRIT_PINCHED_TRANSIENT, t_margins),
                   (recurrent_ok, CRIT_PINCHED_RECURRENT, r_margins), theta, r0, rows, notes)


def uniform_ellipticity_transience_check(moments: MomentFunctions, epsilon: float,
                                         D_min: float, r_grid) -> ClassificationReport:
    """Transience screen from the transverse second moment.

    A zero-drift chain with E[d_tot^2 - d_rad^2] >= epsilon at all large radii
    is transient in curvature at most -k**2.  The screen samples nothing: it
    reads the zero-drift statistic at every grid radius and E|t|^2 at every
    radius from D_min on, both taken by estimate_moment_functions from the
    draw its moments use.  It never returns Recurrent, and refuses to return
    Transient for a law whose step mean leaves the 4-sigma band at some grid
    radius.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    if moments.transverse is None or moments.zero_drift is None:
        raise UsageError("the screen needs moments from estimate_moment_functions")
    grid, _, _ = _prepare_grid(r_grid, None)
    tail = [r for r in grid if r >= D_min]
    if not tail:
        raise UsageError(f"no grid radii at or beyond D_min = {D_min}")

    rows = []
    notes = [moments.note] if moments.note else []
    for r in grid:
        zd = moments.zero_drift(r)
        if not zd.within_band(4.0):
            notes.append(
                f"zero-drift check failed at r = {r:g} (|z| = {zd.max_abs_z:.2f}); "
                "screen not applicable"
            )
            return ClassificationReport(Verdict.INCONCLUSIVE, CRIT_UNIFORM_ELLIPTIC, [],
                                        0.0, D_min, rows, notes)

    margins = []
    for r in tail:
        est = moments.transverse(r)
        margin = est.value - est.half_width - epsilon
        margins.append((r, margin))
        rows.append(MarginRow(r, "transverse-second-moment", est.value, est.half_width,
                              margin, CRIT_UNIFORM_ELLIPTIC))
    if all(m > 0.0 for _, m in margins):
        return ClassificationReport(Verdict.TRANSIENT, CRIT_UNIFORM_ELLIPTIC, margins,
                                    0.0, D_min, rows, notes)
    notes.append(f"transverse second moment fell below epsilon = {epsilon} plus noise")
    return ClassificationReport(Verdict.INCONCLUSIVE, CRIT_UNIFORM_ELLIPTIC, margins,
                                0.0, D_min, rows, notes)


def classify_euclidean(U: float, V: float) -> Verdict:
    """Flat-space rule for zero-drift chains with limiting moments
    U = lim E[d_rad^2] and V = lim E[d_tot^2]: recurrent when 2U > V,
    transient when 2U < V, inconclusive on the boundary."""
    if U < 0.0 or U > V:
        raise DomainError(f"need 0 <= U <= V, got U={U}, V={V}")
    if 2.0 * U > V:
        return Verdict.RECURRENT
    if 2.0 * U < V:
        return Verdict.TRANSIENT
    return Verdict.INCONCLUSIVE


def classify_elliptic_chain(a: RadialProfile, b: RadialProfile,
                            k_min_profile: RadialProfile, k_max_profile: RadialProfile,
                            d: int, r_grid, theta: float = 0.5,
                            r0: Optional[float] = None) -> ClassificationReport:
    """Closed-form classification of the elliptic shell chain.

    Uses the sandwich coefficients at the almost-sure step bound together
    with the analytic second moments, so no Monte Carlo is involved:

      transient  when 2 r Jmin(k_min, d_max)(d-1) b^2 - a^2 - (d-1) b^2 stays
                 positive and non-decreasing along the tail;
      recurrent  when 2 r Jmax(k_max, d_max)(d-1) b^2 <=
                 (1/2)(1 + (1-theta)/log r) a^2 at every tail radius.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if not theta > 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    if a.inf() <= 0.0:
        raise UsageError("the radial semi-axis profile must be bounded below by some "
                         "epsilon > 0 (required for non-confinement)")
    if not (math.isfinite(a.sup()) and math.isfinite(b.sup())):
        raise UsageError("profiles must be bounded above")
    _, r0, tail = _prepare_grid(r_grid, r0)
    d_max = math.sqrt(d) * max(a.sup(), b.sup())

    rows = []
    notes = []
    t_vals = []
    r_margins = []
    for r in tail:
        k = float(k_min_profile(r))
        K = float(k_max_profile(r))
        if not 0.0 < k <= K:
            raise UsageError(f"need 0 < k_min <= k_max, got ({k}, {K}) at r = {r}")
        av, bv = a(r), b(r)
        trans_sq = (d - 1) * bv * bv
        t_val = 2.0 * r * sandwich_coeff_min(k, d_max) * trans_sq - av * av - trans_sq
        t_vals.append((r, t_val))
        rows.append(MarginRow(r, "transience-value", t_val, 0.0, t_val,
                              CRIT_ELLIPTIC_TRANSIENT))
        if r > 1.0:
            lhs = 2.0 * r * sandwich_coeff_max(K, d_max) * trans_sq
            rhs = 0.5 * (1.0 + (1.0 - theta) / math.log(r)) * av * av
            r_margins.append((r, rhs - lhs))
            rows.append(MarginRow(r, "recurrence-margin", lhs, 0.0, rhs - lhs,
                                  CRIT_ELLIPTIC_RECURRENT))

    transient_ok = (all(v > 0.0 for _, v in t_vals)
                    and (len(t_vals) < 2 or t_vals[-1][1] >= t_vals[0][1]))
    recurrent_ok = bool(r_margins) and all(m > 0.0 for _, m in r_margins)
    return _decide((transient_ok, CRIT_ELLIPTIC_TRANSIENT, t_vals),
                   (recurrent_ok, CRIT_ELLIPTIC_RECURRENT, r_margins), theta, r0, rows, notes,
                   neither="neither closed-form inequality held along the tail")
