"""Drift functionals and recurrence/transience classification.

For a chain at large radius in curvature -k**2, the radial increment of a
step (d_rad, d_tot) approaches the *asymptotic increment*

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
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, UsageError
from .increments import MOMENT_NAMES, IncrementLaw, RadialProfile, ZeroDriftResult
from .geometry import radial_increment_exact_batch

# two-sided 99% normal quantile
Z99 = 2.5758293035489004
MIN_SAMPLES = 100   # fewest draws per radius behind a Monte Carlo half-width
# Gauss nodes per line piece; every integral is taken again with twice as
# many.  The quadrature module is imported inside the functions that
# integrate, so that commands which never do (simulate, validate) skip it.
QUAD_NODES = 32
QUADRATURE_NOTE = (f"moments by Gauss quadrature; half_width is |Q_{QUAD_NODES} - "
                   f"Q_{2 * QUAD_NODES}| plus a rounding floor, an error estimate and "
                   "not a 99% interval")

_F_LOG_THRESHOLD = 30.0
_LOG2 = math.log(2.0)
# 1 + phi = 1 + d_rad/d_tot carries an error of about eps, which moves the
# increment by about eps min(1/(1 + phi), e^(2D)/2)/k, D = k d_tot; given
# |t|^2, the kernel takes 1 + phi from it where that exceeds 2^10 eps/k
_OPP_DIRECT = 2.0 ** -10
_D_DIRECT = 0.5 * math.log(2.0 ** 11)


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
    """An estimate and its half-width: a two-sided 99% interval for a Monte
    Carlo estimate, the error estimate for a quadrature one."""

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
    asymptotic increment at radius r.  It samples whatever the law; the
    classifiers integrate a built-in law instead (estimate_moment_functions).

    One draw of n_samples steps feeds both moments: the increment f is
    evaluated once and nu1, nu2 are the sample means of f and f^2.  The two
    estimates are therefore correlated.  The classifiers need no independence:
    both legs combine nu1 and nu2 per radius with summed half-widths (the
    transience gap carries 2r hw1 + hw2; the recurrence leg sets nu2 - hw2
    against 2r (nu1 + hw1)), a union bound over the two intervals that holds
    whatever their correlation.

    For laws symmetric under v -> -v each draw is paired with its mirror
    image (see _mirror_means).  Emits MonteCarloVarianceWarning when the
    empirical kurtosis of either integrand explodes.
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


def _radius_estimates(law, k, r, n_samples, rng):
    """(nu1, nu2, transverse, zero_drift) at radius r from one draw of
    n_samples steps: the two moments of increment_moment_estimate, the
    transverse second moment E|t|^2 as an Estimate, and the step-mean
    ZeroDriftResult the uniform-ellipticity screen reads."""
    d_rad, t, t_sq, d_tot = _draw(law, r, n_samples, rng)

    def moments(d_rad, t_sq, d_tot):
        f = asymptotic_increment_batch(k, d_rad, d_tot, t_sq)
        return f, f ** 2

    x1, x2 = _mirror_means(law, moments, d_rad, t_sq, d_tot)
    _warn_if_heavy(x1, f"moment estimate (power 1, r={r:g})")
    _warn_if_heavy(x2, f"moment estimate (power 2, r={r:g})")
    return (_mc_estimate(x1), _mc_estimate(x2), _mc_estimate(t_sq),
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


def _integrate(law, r, integrands, k, cut=None):
    """quadrature.integrate with QUAD_NODES, as Estimates."""
    from . import quadrature
    return [Estimate(*e) for e in quadrature.integrate(law, r, integrands, k, QUAD_NODES, cut)]


def _radius_integrals(law, k, r):
    """(nu1, nu2, transverse, zero_drift) at radius r by quadrature: what
    _radius_estimates takes from a draw.  The zero-drift statistic holds
    E[d_rad] with its half-width as standard error; the transverse means
    are 0 by the law's rotation symmetry."""
    from . import quadrature
    nu1, nu2, transverse, mean = _integrate(law, r, lambda a: (
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
    are raw sample means with 99% half-widths, nu1 and nu2 without mirror
    pairing."""
    names = STEP_MOMENTS if k is not None else STEP_MOMENTS[:4]
    if _integrable(law, r, k or 0.0):
        from . import quadrature

        def integrands(a):
            d_rad_sq = a.d_rad ** 2
            x = (d_rad_sq + a.t_sq, d_rad_sq, a.d_rad, a.t_sq)
            return x if k is None else x + quadrature.increment_integrands(k, a, law.symmetric)
        return dict(zip(names, _integrate(law, r, integrands, k or 0.0))), QUADRATURE_NOTE
    d_rad, _, t_sq, d_tot = _draw(law, r, n_samples, rng)
    d_rad_sq = d_rad ** 2
    xs = [d_rad_sq + t_sq, d_rad_sq, d_rad, t_sq]
    if k is not None:
        f = asymptotic_increment_batch(k, d_rad, d_tot, t_sq)
        xs += [f, f ** 2]
    return dict(zip(names, map(_mc_estimate, xs))), None


def _check_samples(n_samples):
    if n_samples < MIN_SAMPLES:
        raise UsageError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")


@dataclass(frozen=True)
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
    every tail radius with margin beyond the half-width; margins
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
    notes = [moments.note] if moments.note else []

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

    recurrent_ok, r_margins, _ = _recurrence_leg(
        [(r, e1, e2) for r, e1, e2 in zip(tail, n1, n2) if r > 1.0], theta,
        "second-moment-floor", CRIT_CONST_RECURRENT, rows)
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


def _pinched_integrals(law, r, k, K):
    """_pinched_moments' four bounds at radius r by quadrature.

    The split bound jumps where an exact increment changes sign, and
    max(f_k^2, f_K^2) has a kink where f_k + f_K does, so with k < K every
    line is cut at those points first (see quadrature.batches).  Near the
    origin (r at most the step length) the exact increment need not be
    monotone in d_rad and may change sign twice on a line; every change
    between the probes is bracketed.
    """
    from . import quadrature

    def cut(steps):
        log_omp = quadrature.log_one_minus_phi(steps)
        f = [log_form_increment(c, c * steps.d_tot, steps.log_opp, log_omp) for c in (k, K)]
        return (*_exact_increments(r, k, K, steps.d_rad, steps.d_tot), f[0] + f[1])

    def bounds(atoms):
        x1_lo, sq_lo = quadrature.increment_integrands(k, atoms, law.symmetric)
        x1_hi, sq_hi = ((x1_lo, sq_lo) if K == k
                        else quadrature.increment_integrands(K, atoms, law.symmetric))
        return _pinched_bounds(x1_lo, sq_lo, x1_hi, sq_hi,
                               *_exact_increments(r, k, K, atoms.d_rad, atoms.d_tot))

    return tuple(_integrate(law, r, bounds, K, None if K == k else cut))


def classify_pinched(law: IncrementLaw, k_min_profile: RadialProfile,
                     k_max_profile: RadialProfile, r_grid, n_samples: int,
                     rng: np.random.Generator, theta: float = 0.5,
                     r0: Optional[float] = None) -> ClassificationReport:
    """Classify on a manifold with curvature pinched between the profiles.

    A law that offers quadrature lines has its bounds integrated at every
    grid radius (_pinched_integrals) and rng is not touched; any other law
    takes one draw of n_samples steps per grid radius (_pinched_moments).

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
    _check_samples(n_samples)
    # the lines are built at each radius's k_max, which the profile's sup bounds
    integrated = _integrable(law, grid[0], k_max_profile.sup())

    rows = []
    notes = [QUADRATURE_NOTE] if integrated else []
    per_r = {}
    for r in grid:
        k = float(k_min_profile(r))
        K = float(k_max_profile(r))
        if not 0.0 < k <= K:
            raise UsageError(f"need 0 < k_min <= k_max on the grid, got ({k}, {K}) at r = {r}")
        per_r[r] = (_pinched_integrals(law, r, k, K) if integrated
                    else _pinched_moments(law, r, k, K, n_samples, rng), k, K)

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
    legs = [(r, m1l, m1h, m2s) for r, ((m1l, m1h, m2s, _), _, _) in per_r.items()
            if r > 1.0 and r >= r0]
    recurrent_ok, r_margins, rhs = _recurrence_leg(
        [(r, m1h, m2s) for r, _, m1h, m2s in legs], theta,
        "split-second-moment-floor", CRIT_PINCHED_RECURRENT, rows)
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
        d_rad = _draw(law, r, n_samples, rng)[0]
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
    return _decide((transient_ok, CRIT_ELLIPTIC_TRANSIENT, t_vals),
                   (recurrent_ok, CRIT_ELLIPTIC_RECURRENT, r_margins), theta, r0, rows, notes,
                   neither="neither closed-form inequality held along the tail")
