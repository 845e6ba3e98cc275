"""Drift functionals and recurrence/transience classification.

For a chain at large radius in curvature -k**2, the radial increment of a
step (d_rad, d_tot) approaches the *asymptotic increment*

    (1/k) log(cosh(k d_tot) + phi sinh(k d_tot)),    phi = d_rad/d_tot,

and classification reduces to a Lamperti problem for the radial process:
compare twice the radius times the first moment of this quantity against its
second moment.  All classifiers here decide the limiting conditions on a
finite radius grid with explicit Monte Carlo (or analytic) margins.  A
verdict is therefore *evidence with stated margins*, not a proof: the report
carries the grid, the margins and the criterion so a reviewer can reject it.

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, UsageError
from .increments import IncrementLaw, RadialProfile, zero_drift_check
from .geometry import radial_increment_exact_batch

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

_F_LOG_THRESHOLD = 30.0


class MonteCarloVarianceWarning(UserWarning):
    """The integrand's empirical kurtosis is extreme; half-widths are suspect."""


# ---------------------------------------------------------------------------
# The asymptotic increment and its sandwich bounds
# ---------------------------------------------------------------------------

def asymptotic_increment(k: float, d_rad: float, d_tot: float) -> float:
    """(1/k) log(cosh(k d_tot) + (d_rad/d_tot) sinh(k d_tot)); 0 when d_tot = 0.

    The one-step form of asymptotic_increment_batch, which holds the stable
    evaluation.
    """
    return float(asymptotic_increment_batch(k, d_rad, d_tot))


def asymptotic_increment_batch(k: float, d_rad, d_tot) -> np.ndarray:
    """(1/k) log(cosh(k d_tot) + phi sinh(k d_tot)) over arrays of (d_rad, d_tot),
    with phi = d_rad/d_tot, and 0 where d_tot = 0.

    Stable evaluation: for phi near -1 the direct form cancels, so the
    argument is computed as e^(-D) + (1+phi) sinh(D) (both terms nonnegative);
    for D = k d_tot > 30 the log is expanded as
    D + log((1+phi)/2 + (1-phi) e^(-2D) / 2).
    """
    d_rad = np.asarray(d_rad, dtype=float)
    d_tot = np.asarray(d_tot, dtype=float)
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    if np.any(d_tot < 0.0) or np.any(np.abs(d_rad) > d_tot * (1.0 + 1e-12) + 1e-300):
        raise DomainError("need d_tot >= 0 and |d_rad| <= d_tot")

    out = np.zeros_like(d_tot)
    pos = d_tot > 0.0
    phi = np.zeros_like(d_tot)
    phi[pos] = np.clip(d_rad[pos] / d_tot[pos], -1.0, 1.0)

    up = pos & (phi == 1.0)
    down = pos & (phi == -1.0)
    out[up] = d_tot[up]
    out[down] = -d_tot[down]

    gen = pos & ~up & ~down
    if np.any(gen):
        D = k * d_tot[gen]
        ph = phi[gen]
        res = np.empty_like(D)
        small = D <= _F_LOG_THRESHOLD
        res[small] = np.log(np.exp(-D[small]) + (1.0 + ph[small]) * np.sinh(D[small])) / k
        big = ~small
        if np.any(big):
            Db = D[big]
            res[big] = (
                Db + np.log(0.5 * (1.0 + ph[big]) + 0.5 * (1.0 - ph[big]) * np.exp(-2.0 * Db))
            ) / k
        out[gen] = res
    return out


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


def sandwich_ratio(phi: float, k: float, d_tot: float) -> float:
    """((1/k) log(cosh + phi sinh) - phi d_tot) / (1 - phi^2).

    Decreasing in phi on (-1, 1); its limits at +/-1 are the sandwich
    coefficients times 2 d_tot^2 ... i.e. (1/2)(+/-d -/+ sinh/(k(cosh +/- sinh))).
    """
    if abs(phi) >= 1.0:
        raise DomainError(f"phi must lie strictly inside (-1, 1), got {phi}")
    if not d_tot > 0.0:
        raise DomainError(f"d_tot must be > 0, got {d_tot}")
    f = asymptotic_increment(k, phi * d_tot, d_tot)
    return (f - phi * d_tot) / (1.0 - phi * phi)


# ---------------------------------------------------------------------------
# Monte Carlo moment estimates
# ---------------------------------------------------------------------------

class Estimate(NamedTuple):
    """A Monte Carlo estimate with a two-sided 99% half-width."""

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
            stacklevel=3,
        )


def increment_moment_estimate(law: IncrementLaw, k: float, r: float, n_samples: int,
                              rng: np.random.Generator) -> tuple[Estimate, Estimate]:
    """Monte Carlo estimates (nu1, nu2) of the first and second moments of the
    asymptotic increment at radius r.

    One draw of n_samples steps feeds both moments: the increment f is
    evaluated once and nu1, nu2 are the sample means of f and f^2.  The two
    estimates are therefore correlated.  The classifiers need no independence:
    both legs combine nu1 and nu2 per radius with summed half-widths (the
    transience gap carries 2r hw1 + hw2; the recurrence leg sets nu2 - hw2
    against 2r (nu1 + hw1)), a union bound over the two intervals that holds
    whatever their correlation.

    For laws symmetric under v -> -v each draw is paired with its mirror
    image, which keeps the estimator unbiased and removes most of the
    first-moment variance (the paired mean is a function of (phi^2, d_tot)
    only).  Emits MonteCarloVarianceWarning when the empirical kurtosis of
    either integrand explodes.
    """
    if n_samples < 100:
        raise UsageError(f"need at least 100 samples, got {n_samples}")
    d_rad, t = law.sample_components_batch(r, n_samples, rng)
    d_tot = np.sqrt(d_rad * d_rad + np.einsum("ij,ij->i", t, t))
    f = asymptotic_increment_batch(k, d_rad, d_tot)
    x1, x2 = f, f ** 2
    if law.symmetric:
        f_mirror = asymptotic_increment_batch(k, -d_rad, d_tot)
        x1 = 0.5 * (x1 + f_mirror)
        x2 = 0.5 * (x2 + f_mirror ** 2)
    _warn_if_heavy(x1, f"moment estimate (power 1, r={r:g})")
    _warn_if_heavy(x2, f"moment estimate (power 2, r={r:g})")
    return _mc_estimate(x1), _mc_estimate(x2)


@dataclass(frozen=True)
class MomentFunctions:
    """The first two moments of the asymptotic radial increment.

    Each callable maps a radius to an Estimate; the classifiers bound a
    moment by its value plus or minus the half-width.
    """

    nu1: Callable[[float], Estimate]
    nu2: Callable[[float], Estimate]


def estimate_moment_functions(law: IncrementLaw, k: float, r_grid, n_samples: int,
                              rng: np.random.Generator) -> MomentFunctions:
    """Estimate both moments on a radius grid.

    Each grid radius takes one draw of n_samples steps, shared by nu1 and nu2
    (see increment_moment_estimate); the summed half-widths the classifiers
    use stay valid for correlated estimates.
    """
    grid = [float(r) for r in r_grid]
    if not grid:
        raise UsageError("empty radius grid")
    table = {r: increment_moment_estimate(law, k, r, n_samples, rng) for r in grid}

    def _lookup(r: float, idx: int) -> Estimate:
        try:
            return table[float(r)][idx]
        except KeyError:
            raise UsageError(f"moments were not estimated at r = {r}") from None

    return MomentFunctions(lambda r: _lookup(r, 0), lambda r: _lookup(r, 1))


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


@dataclass(frozen=True)
class MarginRow:
    """One evaluated inequality at one radius, for the margins CSV."""

    r: float
    quantity: str
    estimate: float
    half_width: float
    margin: float
    criterion: str


@dataclass
class ClassificationReport:
    """Outcome of a classification attempt.

    A Transient/Recurrent verdict means the corresponding inequality held at
    every tail radius with margin beyond the Monte Carlo half-width; margins
    lists the deciding (r, margin) pairs.  For a recurrent verdict a finite
    bound on the liminf of the radial process exists but is not computed.
    """

    verdict: Verdict
    criterion: str
    margins: list
    theta: float
    r0: float
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


def _tail_bounded(r_tail, values, half_widths) -> bool:
    """Finite-grid evidence that a sequence of estimates is not growing.

    Accepts when the fitted linear growth over the tail stays within the
    Monte Carlo noise or within 25% of the typical level.  A heuristic by
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
        4.0 * float(np.median(half_widths)),
        0.25 * abs(float(np.median(values))),
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


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def classify_constant_curvature(moments: MomentFunctions, r_grid, theta: float = 0.5,
                                r0: Optional[float] = None) -> ClassificationReport:
    """Classify from moment bounds in constant curvature.

    Transient when the second moment stays bounded along the tail and
    2 r nu1 - nu2 clears its combined half-width at every tail radius.
    Recurrent when nu2 stays positive and
    2 r nu1 <= (1 + (1-theta)/log r) nu2 with margin at every tail radius.
    Inconclusive otherwise.
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
    notes = []

    # transience leg
    t_margins = []
    for r, e1, e2 in zip(tail, n1, n2):
        gap = 2.0 * r * e1.value - e2.value
        hw = 2.0 * r * e1.half_width + e2.half_width
        t_margins.append((r, gap - hw))
        rows.append(MarginRow(r, "transience-gap", gap, hw, gap - hw, CRIT_CONST_TRANSIENT))
    bounded = _tail_bounded(tail, [e.value for e in n2], [e.half_width for e in n2])
    if not bounded:
        notes.append("second moment shows growth along the tail; transience leg rejected")
    transient_ok = bounded and all(m > 0.0 for _, m in t_margins)

    # recurrence leg
    r_tail = [(r, e1, e2) for r, e1, e2 in zip(tail, n1, n2) if r > 1.0]
    r_margins = []
    floor_ok = bool(r_tail)
    for r, e1, e2 in r_tail:
        floor = e2.value - e2.half_width
        if floor <= 0.0:
            floor_ok = False
        rows.append(MarginRow(r, "second-moment-floor", e2.value, e2.half_width,
                              floor, CRIT_CONST_RECURRENT))
        rhs = (1.0 + (1.0 - theta) / math.log(r)) * floor
        lhs = 2.0 * r * (e1.value + e1.half_width)
        r_margins.append((r, rhs - lhs))
        rows.append(MarginRow(r, "recurrence-margin", lhs, 2.0 * r * e1.half_width,
                              rhs - lhs, CRIT_CONST_RECURRENT))
    recurrent_ok = floor_ok and bool(r_margins) and all(m > 0.0 for _, m in r_margins)

    if transient_ok:
        return ClassificationReport(Verdict.TRANSIENT, CRIT_CONST_TRANSIENT, t_margins,
                                    theta, r0, rows, notes)
    if recurrent_ok:
        notes.append("a finite bound on liminf R_n exists; its value is not computed")
        return ClassificationReport(Verdict.RECURRENT, CRIT_CONST_RECURRENT, r_margins,
                                    theta, r0, rows, notes)
    notes.append("neither inequality held at every tail radius with margin")
    return ClassificationReport(Verdict.INCONCLUSIVE, CRIT_CONST_TRANSIENT, t_margins,
                                theta, r0, rows, notes)


def _pinched_integrands(r, k, K, d_rad, d_tot, phi):
    f_lo = asymptotic_increment_batch(k, d_rad, d_tot)
    f_hi = f_lo if K == k else asymptotic_increment_batch(K, d_rad, d_tot)
    inc_lo = radial_increment_exact_batch(r, d_tot, phi, k)
    inc_hi = inc_lo if K == k else radial_increment_exact_batch(r, d_tot, phi, K)
    split = f_lo ** 2 * (inc_lo >= 0.0) + f_hi ** 2 * (inc_hi < 0.0)
    upper = np.maximum(f_lo ** 2, f_hi ** 2)
    return f_lo, f_hi, split, upper


def _pinched_moments(law, r, k, K, n_samples, rng):
    """Per-radius Monte Carlo moments used by the pinched classifier.

    Returns estimates of:
      m1_low  -- first moment of the asymptotic increment at k  (lower bound)
      m1_high -- same at K (upper bound)
      m2_split-- comparison lower bound for the second moment, splitting by
                 the sign of the exact increment in the bracketing geometries
      m2_up   -- upper bound max(F_k^2, F_K^2)

    Laws symmetric under v -> -v get mirror pairing (unbiased, and crucial
    for the first moment, whose raw variance would otherwise drown the
    Lamperti inequality at large radii).
    """
    d_rad, t = law.sample_components_batch(r, n_samples, rng)
    d_tot = np.sqrt(d_rad * d_rad + np.einsum("ij,ij->i", t, t))
    with np.errstate(invalid="ignore"):
        phi = np.where(d_tot > 0.0, d_rad / np.maximum(d_tot, 1e-300), 0.0)
    np.clip(phi, -1.0, 1.0, out=phi)

    parts = _pinched_integrands(r, k, K, d_rad, d_tot, phi)
    if law.symmetric:
        mirror = _pinched_integrands(r, k, K, -d_rad, d_tot, -phi)
        parts = tuple(0.5 * (a + b) for a, b in zip(parts, mirror))
    return tuple(_mc_estimate(x) for x in parts)


def classify_pinched(law: IncrementLaw, k_min_profile: RadialProfile,
                     k_max_profile: RadialProfile, r_grid, n_samples: int,
                     rng: np.random.Generator, theta: float = 0.5,
                     r0: Optional[float] = None) -> ClassificationReport:
    """Classify on a manifold with curvature pinched between the profiles.

    Transient when r times the lower first-moment estimate diverges along the
    grid (positive with margin at every tail radius AND growing beyond the
    combined half-widths) and the Lamperti gap against the second-moment
    upper bound clears its half-width.  Recurrent when the split second-moment
    lower bound stays positive and the Lamperti inequality holds against the
    k_max first moment, which is the side that actually bounds the radial
    drift from above.  With k_min = k_max both legs collapse to the
    constant-curvature criteria.
    """
    if not theta > 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    grid, r0, tail = _prepare_grid(r_grid, r0)

    rows = []
    notes = []
    per_r = {}
    for r in grid:
        k = float(k_min_profile(r))
        K = float(k_max_profile(r))
        if not 0.0 < k <= K:
            raise UsageError(f"need 0 < k_min <= k_max on the grid, got ({k}, {K}) at r = {r}")
        per_r[r] = (_pinched_moments(law, r, k, K, n_samples, rng), k, K)

    # transience leg: divergence of r * m1_low (trend over the whole grid)
    # plus the Lamperti gap with margins on the tail
    growth = [(r, r * e[0].value, r * e[0].half_width) for r, (e, _, _) in per_r.items()]
    g_pos = all(v - h > 0.0 for r, v, h in growth if r >= r0)
    g_grow = (growth[-1][1] - growth[0][1] > growth[-1][2] + growth[0][2]
              if len(growth) > 1 else True)
    t_margins = []
    m2u_vals, m2u_hws = [], []
    for r, (ests, k, K) in per_r.items():
        m1l, _, _, m2u = ests
        gap = 2.0 * r * m1l.value - m2u.value
        hw = 2.0 * r * m1l.half_width + m2u.half_width
        rows.append(MarginRow(r, "transience-gap", gap, hw, gap - hw, CRIT_PINCHED_TRANSIENT))
        rows.append(MarginRow(r, "scaled-drift", r * m1l.value, r * m1l.half_width,
                              r * (m1l.value - m1l.half_width), CRIT_PINCHED_TRANSIENT))
        if r >= r0:
            t_margins.append((r, gap - hw))
            m2u_vals.append(m2u.value)
            m2u_hws.append(m2u.half_width)
    bounded = _tail_bounded(tail, m2u_vals, m2u_hws)
    transient_ok = g_pos and g_grow and bounded and all(m > 0.0 for _, m in t_margins)
    if not g_grow:
        notes.append("scaled drift r*nu1 shows no growth beyond noise; divergence not supported")

    # recurrence leg: split second moment floor + inequality against the K side
    r_margins = []
    alt_differs = False
    floor_ok = True
    any_pt = False
    for r, (ests, k, K) in per_r.items():
        if r <= 1.0 or r < r0:
            continue
        any_pt = True
        m1l, m1h, m2s, _ = ests
        floor = m2s.value - m2s.half_width
        if floor <= 0.0:
            floor_ok = False
        rows.append(MarginRow(r, "split-second-moment-floor", m2s.value, m2s.half_width,
                              floor, CRIT_PINCHED_RECURRENT))
        rhs = (1.0 + (1.0 - theta) / math.log(r)) * floor
        lhs = 2.0 * r * (m1h.value + m1h.half_width)
        r_margins.append((r, rhs - lhs))
        rows.append(MarginRow(r, "recurrence-margin", lhs, 2.0 * r * m1h.half_width,
                              rhs - lhs, CRIT_PINCHED_RECURRENT))
        lhs_alt = 2.0 * r * (m1l.value + m1l.half_width)
        if (rhs - lhs > 0.0) != (rhs - lhs_alt > 0.0):
            alt_differs = True
    recurrent_ok = floor_ok and any_pt and bool(r_margins) and all(m > 0.0 for _, m in r_margins)
    if alt_differs:
        notes.append(
            "the k_min reading of the first-moment condition disagrees with the "
            "k_max reading used here; the k_max side is the valid upper bound"
        )

    if transient_ok:
        return ClassificationReport(Verdict.TRANSIENT, CRIT_PINCHED_TRANSIENT, t_margins,
                                    theta, r0, rows, notes)
    if recurrent_ok:
        notes.append("a finite bound on liminf R_n exists; its value is not computed")
        return ClassificationReport(Verdict.RECURRENT, CRIT_PINCHED_RECURRENT, r_margins,
                                    theta, r0, rows, notes)
    notes.append("neither inequality held at every tail radius with margin")
    return ClassificationReport(Verdict.INCONCLUSIVE, CRIT_PINCHED_TRANSIENT, t_margins,
                                theta, r0, rows, notes)


def uniform_ellipticity_transience_check(law: IncrementLaw, k: float, epsilon: float,
                                         D_min: float, r_grid, n_samples: int,
                                         rng: np.random.Generator) -> ClassificationReport:
    """Transience screen from the transverse second moment.

    A zero-drift chain with E[d_tot^2 - d_rad^2] >= epsilon at all large radii
    is transient in curvature at most -k**2.  The screen never returns
    Recurrent, and refuses to return Transient for a law that fails the
    zero-drift check on the grid.
    """
    if not epsilon > 0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    if not k > 0:
        raise DomainError(f"curvature parameter k must be > 0, got {k}")
    grid, _, _ = _prepare_grid(r_grid, None)
    tail = [r for r in grid if r >= D_min]
    if not tail:
        raise UsageError(f"no grid radii at or beyond D_min = {D_min}")

    rows = []
    notes = []
    check_n = max(1000, n_samples // 10)
    for r in grid:
        zd = zero_drift_check(law, r, check_n, rng)
        if not zd.within_band(4.0):
            notes.append(
                f"zero-drift check failed at r = {r:g} (|z| = {zd.max_abs_z:.2f}); "
                "screen not applicable"
            )
            return ClassificationReport(Verdict.INCONCLUSIVE, CRIT_UNIFORM_ELLIPTIC, [],
                                        0.0, D_min, rows, notes)

    margins = []
    for r in tail:
        d_rad, t = law.sample_components_batch(r, n_samples, rng)
        w = np.einsum("ij,ij->i", t, t)
        est = _mc_estimate(w)
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


@dataclass(frozen=True)
class NonconfinementRow:
    r: float
    mean_d_rad: float
    se_d_rad: float
    second_moment: float
    half_width: float
    passed: bool


@dataclass(frozen=True)
class NonconfinementReport:
    """Statistical support for the non-confinement hypothesis.

    Passing means: at every grid radius the radial mean sits inside its
    4-sigma band around zero AND the radial second moment clears epsilon
    beyond its half-width.  This supports the hypothesis statistically; it
    does not prove it.
    """

    rows: tuple
    epsilon: float
    passed: bool

    def as_text(self) -> str:
        lines = [f"non-confinement check (epsilon = {self.epsilon!r}): "
                 + ("PASS" if self.passed else "FAIL")]
        for row in self.rows:
            lines.append(
                f"    r = {row.r:<10g} E[d_rad] = {row.mean_d_rad:+.4e} (se {row.se_d_rad:.2e})"
                f"  E[d_rad^2] = {row.second_moment:.6g} (hw {row.half_width:.2g})"
                f"  {'ok' if row.passed else 'FAIL'}"
            )
        lines.append("note: statistical support only, not a proof")
        return "\n".join(lines)


def nonconfinement_check(law: IncrementLaw, epsilon: float, r_grid, n_samples: int,
                         rng: np.random.Generator) -> NonconfinementReport:
    """Check E[d_rad] = 0 (4-sigma band) and E[d_rad^2] >= epsilon on a grid."""
    if not epsilon > 0:
        raise DomainError(f"epsilon must be > 0, got {epsilon}")
    grid, _, _ = _prepare_grid(r_grid, None)
    rows = []
    ok = True
    for r in grid:
        d_rad, _ = law.sample_components_batch(r, n_samples, rng)
        mean = float(d_rad.mean())
        se = float(d_rad.std(ddof=1)) / math.sqrt(n_samples)
        sq = _mc_estimate(d_rad * d_rad)
        zero_ok = abs(mean) <= 4.0 * se if se > 0.0 else mean == 0.0
        floor_ok = sq.value - sq.half_width >= epsilon
        passed = zero_ok and floor_ok
        ok = ok and passed
        rows.append(NonconfinementRow(r, mean, se, sq.value, sq.half_width, passed))
    return NonconfinementReport(tuple(rows), epsilon, ok)


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

    if transient_ok:
        return ClassificationReport(Verdict.TRANSIENT, CRIT_ELLIPTIC_TRANSIENT, t_vals,
                                    theta, r0, rows, notes)
    if recurrent_ok:
        notes.append("a finite bound on liminf R_n exists; its value is not computed")
        return ClassificationReport(Verdict.RECURRENT, CRIT_ELLIPTIC_RECURRENT, r_margins,
                                    theta, r0, rows, notes)
    notes.append("neither closed-form inequality held along the tail")
    return ClassificationReport(Verdict.INCONCLUSIVE, CRIT_ELLIPTIC_TRANSIENT, t_vals,
                                theta, r0, rows, notes)
