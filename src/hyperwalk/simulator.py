"""Monte Carlo ensemble engine for geodesic random walks.

Two simulation modes:

* ``ambient`` iterates the walk in ambient coordinates: each step vector is
  the point's Householder frame step (`_tangent_axes`, `euclidean_frame`),
  taken on H_k through geometry's `_exp_step` and `_reproject`, the step
  `exp_map` and the `validate` oracle take; it is limited to k * R <= 700
  by double-precision overflow;
* ``radialonly`` iterates the radius alone through the exact radial
  increment, which for a radially symmetric law is distributionally the same
  chain and has no radius limit.  This is what makes 10^5-step horizons
  cheap.

Both modes take their steps from the same draws, so walks driven by the
same stream can be coupled draw-for-draw.  Elliptic and box walks draw the
unit rows of their steps in blocks (`IncrementLaw.unit_blocks`) that
consume the stream exactly as per-step `sample_components` calls would, and
scale each row by the law's profiles at the current radius with the same
operations as those calls; every other law is sampled once per step.

Every walk the package runs, in `run_walk`, the worker pool and both
probes, is the step path `_radius_iter` or `_ambient_states` over the walk's
own stream, started at `_start_point` and named by `_naming_walk` when it
breaks an invariant.

Reproducibility contract: every walk owns the rng stream spawned from
(master seed, walk id), and ensemble statistics are aggregated in walk-id
order, so results are bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, OverflowGuardError, InvariantViolationError, UsageError
from .geometry import (
    CurvatureModel,
    _exp_step,
    _mink,
    _reproject,
    _tangent_axes,
    euclidean_frame,
    euclidean_radial_increment,
    radial_increment_exact,
)
from .increments import IncrementLaw
from .lamperti import Z99

MODE_AMBIENT = "ambient"
MODE_RADIAL_ONLY = "radialonly"

AMBIENT_KR_LIMIT = 700.0        # cosh(kR) overflows shortly above this


@dataclass(frozen=True)
class WalkConfig:
    """Everything needed to reproduce an ensemble."""

    model: CurvatureModel
    law: IncrementLaw
    steps: int
    walks: int
    seed: int
    mode: str = MODE_RADIAL_ONLY
    record_stride: int = 1
    ball_radius: float = 5.0
    burn_in: int = 0
    start_radius: float = 0.0
    escape_radius: float = 100.0

    def __post_init__(self):
        if self.mode not in (MODE_AMBIENT, MODE_RADIAL_ONLY):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.steps < 0 or self.walks < 1:
            raise DomainError("need steps >= 0 and walks >= 1")
        if self.record_stride < 1:
            raise DomainError("record_stride must be >= 1")
        if not self.ball_radius > 0:
            raise DomainError("ball_radius must be > 0")
        if self.burn_in < 0 or self.start_radius < 0:
            raise DomainError("burn_in and start_radius must be >= 0")
        if not self.escape_radius > 0:
            raise DomainError("escape_radius must be > 0")
        if self.mode == MODE_RADIAL_ONLY and not getattr(self.law, "radially_symmetric", True):
            raise UsageError("radial-only mode requires a radially symmetric law")
        if self.law.d != self.model.d:
            raise DomainError(
                f"law dimension {self.law.d} does not match model dimension {self.model.d}"
            )


@dataclass
class TrajectoryRecord:
    """One walk's radial history and summary statistics.

    `radii` holds (step, R) samples at the configured stride (step 0 and the
    final step are always included).  `returns` counts entries into the ball
    {R < ball_radius} after the burn-in, i.e. crossings from outside to
    inside.  The tail_* fields carry sufficient statistics of the per-step
    radius change over the last quarter of the walk, for the ensemble drift
    estimate.
    """

    walk_id: int
    radii: list
    returns: int
    escape_step: Optional[int]
    final_R: float
    tail_dr_sum: float = 0.0
    tail_dr_sumsq: float = 0.0
    tail_dr_count: int = 0


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregate over an ensemble; fractions carry 99% binomial half-widths."""

    quantiles: dict
    mean_returns: float
    fraction_escaped: float
    fraction_escaped_hw: float
    fraction_returned: float
    fraction_returned_hw: float
    drift_estimate: float
    drift_half_width: float
    walks: int
    steps: int

    def as_text(self) -> str:
        q = self.quantiles
        return "\n".join([
            f"walks: {self.walks}   steps: {self.steps}",
            "final radius quantiles:",
            f"    5%: {q[5]:.6g}   25%: {q[25]:.6g}   50%: {q[50]:.6g}"
            f"   75%: {q[75]:.6g}   95%: {q[95]:.6g}",
            f"mean returns:      {self.mean_returns:.6g}",
            f"fraction escaped:  {self.fraction_escaped:.6g} (hw {self.fraction_escaped_hw:.2g})",
            f"fraction returned: {self.fraction_returned:.6g} (hw {self.fraction_returned_hw:.2g})",
            f"tail drift:        {self.drift_estimate:.6g} (hw {self.drift_half_width:.2g})",
        ])


def walk_rng(seed: int, walk_id: int) -> np.random.Generator:
    """The rng stream owned by one walk, spawned deterministically from the
    master seed so results do not depend on scheduling."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(walk_id,)))


# ---------------------------------------------------------------------------
# Single-walk drivers
# ---------------------------------------------------------------------------

def _start_point(model: CurvatureModel, radius: float) -> np.ndarray:
    """The ambient point at `radius` along the first axis: on the hyperboloid
    for a hyperbolic model, in R^d for a flat one."""
    if model.is_hyperbolic:
        k = model.k
        x = np.zeros(model.d + 1)
        x[0] = math.cosh(k * radius) / k
        x[1] = math.sinh(k * radius) / k
    else:
        x = np.zeros(model.d)
        x[0] = radius
    return x


@contextlib.contextmanager
def _naming_walk(walk_id: int):
    """Prefix `walk <id>: ` to an InvariantViolationError raised inside."""
    try:
        yield
    except InvariantViolationError as exc:
        raise InvariantViolationError(f"walk {walk_id}: {exc}") from exc


def run_walk(config: WalkConfig, walk_id: int,
             rng: Optional[np.random.Generator] = None) -> TrajectoryRecord:
    """Simulate one walk; the rng defaults to the walk's own spawned stream.

    A step of non-finite length, or a point that drifts off the hyperboloid,
    raises InvariantViolationError naming the walk and the step.
    """
    if rng is None:
        rng = walk_rng(config.seed, walk_id)
    with _naming_walk(walk_id):
        return _collect(config, walk_id, _radius_iter(config, rng))


def _collect(config, walk_id, radius_iter) -> TrajectoryRecord:
    T = config.steps
    stride = config.record_stride
    ball = config.ball_radius
    burn = config.burn_in
    tail_start = T - max(1, T // 4)

    rec = TrajectoryRecord(walk_id, [], 0, None, config.start_radius)
    prev = config.start_radius
    rec.radii.append((0, prev))
    R = prev
    for n, R in radius_iter:
        if n % stride == 0 or n == T:
            rec.radii.append((n, R))
        if n > burn and prev >= ball and R < ball:
            rec.returns += 1
        if rec.escape_step is None and R > config.escape_radius:
            rec.escape_step = n
        if n > tail_start:
            dr = R - prev
            rec.tail_dr_sum += dr
            rec.tail_dr_sumsq += dr * dr
            rec.tail_dr_count += 1
        prev = R
    rec.final_R = prev
    return rec


def _step_draws(law, steps, rng):
    """A function R -> (d_rad, t) giving the next of `steps` steps."""
    s = law.block_scale
    if s is None:
        sample = law.sample_components
        return lambda R: sample(R, rng)
    a, b = law.a, law.b
    rows = itertools.chain.from_iterable(law.unit_blocks(steps, rng))

    def draw(R):
        u = next(rows)
        return a(R) * s * u[0], b(R) * s * u[1:]
    return draw


def _radial_draws(law, steps, rng):
    """A function R -> (d_rad, |t|^2) giving the next of `steps` steps.

    Block draws compute in Python floats with sample_components' operation
    order.  For d > 2, |t|^2 stays the BLAS dot of the scaled row, which a
    Python sum does not reproduce bit for bit.
    """
    s = law.block_scale
    if s is not None and law.d == 2:
        a, b = law.a, law.b
        rows = itertools.chain.from_iterable(zip(*block.T.tolist())
                                             for block in law.unit_blocks(steps, rng))

        def draw(R):
            u0, u1 = next(rows)
            t0 = b(R) * s * u1
            return a(R) * s * u0, t0 * t0
        return draw
    draw_step = _step_draws(law, steps, rng)

    def draw(R):
        d_rad, t = draw_step(R)
        return d_rad, float(t @ t)
    return draw


def _non_finite_step(n: int) -> InvariantViolationError:
    return InvariantViolationError(f"step {n} has non-finite length")


def _radial_only_radii(config, rng):
    draw = _radial_draws(config.law, config.steps, rng)
    T = config.steps
    R = config.start_radius
    inf = math.inf
    if config.model.is_hyperbolic:
        k = config.model.k
        for n in range(1, T + 1):
            d_rad, t_sq = draw(R)
            d_tot = math.sqrt(d_rad * d_rad + t_sq)
            if not d_tot < inf:
                raise _non_finite_step(n)
            phi = d_rad / d_tot if d_tot > 0.0 else 0.0
            if phi > 1.0:
                phi = 1.0
            elif phi < -1.0:
                phi = -1.0
            R = max(R + radial_increment_exact(R, d_tot, phi, k), 0.0)
            yield n, R
    else:
        for n in range(1, T + 1):
            d_rad, t_sq = draw(R)
            d_tot = math.sqrt(d_rad * d_rad + t_sq)
            if not d_tot < inf:
                raise _non_finite_step(n)
            if abs(d_rad) > d_tot:
                d_rad = math.copysign(d_tot, d_rad)
            R = max(R + euclidean_radial_increment(R, d_tot, d_rad), 0.0)
            yield n, R


def _ambient_states(config, rng):
    """Yield (n, x, R) for the ambient walk.  Each step is the frame's step:
    on H_k geometry's exp step followed by its reprojection onto the
    hyperboloid, in flat space a translation."""
    hyperbolic, k = config.model.is_hyperbolic, config.model.k
    draw = _step_draws(config.law, config.steps, rng)
    x = _start_point(config.model, config.start_radius)
    R = config.start_radius
    inf = math.inf

    for n in range(1, config.steps + 1):
        if k * R > AMBIENT_KR_LIMIT:
            raise OverflowGuardError(
                f"ambient mode exceeded k*R = {AMBIENT_KR_LIMIT} at step {n}; "
                "use radial-only mode for long horizons"
            )
        frame = _tangent_axes(x, k) if hyperbolic else euclidean_frame(x)
        d_rad, t = draw(R)
        norm = math.sqrt(d_rad * d_rad + float(t @ t))
        if not norm < inf:
            raise _non_finite_step(n)
        if not hyperbolic:
            x = x + frame.step(d_rad, t)
            R = float(np.linalg.norm(x))
        elif norm > 0.0:
            x = _exp_step(x, frame.step(d_rad, t), norm, k)
            R = _reproject(x, k, n)
        yield n, x, R


def _radius_iter(config, rng):
    """(n, R_n) for n = 1 .. T: the one step path of run_walk and the probes."""
    if config.mode == MODE_AMBIENT:
        return ((n, R) for n, _, R in _ambient_states(config, rng))
    return _radial_only_radii(config, rng)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def run_ensemble(config: WalkConfig, workers: int = 1):
    """Run the configured ensemble; returns (records, stats).

    The pool has min(workers, walks, usable cores) processes, since the
    pool starts all of them at once; at one or fewer the walks run in this
    process.  Records come back ordered by walk id and the aggregation is a
    sum of per-walk sufficient statistics, so the output is identical for
    any worker count.
    """
    walk = functools.partial(run_walk, config)
    ids = range(config.walks)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(workers, config.walks, cores)
    if workers <= 1:
        records = list(map(walk, ids))
    else:
        chunk = max(1, config.walks // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(walk, ids, chunksize=chunk))
    return records, ensemble_stats(records, config)


def ensemble_stats(records, config: WalkConfig) -> EnsembleStats:
    n = len(records)
    final = np.array([r.final_R for r in records])
    qs = {p: float(np.percentile(final, p)) for p in (5, 25, 50, 75, 95)}
    returns = np.array([r.returns for r in records], dtype=float)
    escaped = np.array([r.escape_step is not None for r in records], dtype=float)
    returned = returns >= 1

    def frac(flags):
        p = float(np.mean(flags))
        hw = Z99 * math.sqrt(p * (1.0 - p) / n) if n > 0 else math.inf
        return p, hw

    p_esc, hw_esc = frac(escaped)
    p_ret, hw_ret = frac(returned)

    dr_n = sum(r.tail_dr_count for r in records)
    dr_sum = sum(r.tail_dr_sum for r in records)
    dr_sq = sum(r.tail_dr_sumsq for r in records)
    if dr_n >= 2:
        mean = dr_sum / dr_n
        var = max(0.0, (dr_sq - dr_n * mean * mean) / (dr_n - 1))
        hw = Z99 * math.sqrt(var / dr_n)
    else:
        mean, hw = 0.0, math.inf
    return EnsembleStats(qs, float(returns.mean()), p_esc, hw_esc, p_ret, hw_ret,
                         mean, hw, n, config.steps)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeEstimate:
    """A hit-probability estimate with a 99% normal half-width.

    The half-width degenerates to 0 when every trial agrees; treat such
    estimates as one-sided evidence.
    """

    estimate: float
    half_width: float
    successes: int
    trials: int


def _hit_probe(config: WalkConfig, steps: int, states, hit) -> ProbeEstimate:
    """The fraction of walks whose state hits at some step 0 .. `steps`.

    `states(cfg, rng)` yields a walk's states from step 0 on, run with
    `steps` steps over the walk's own stream; each walk stops at its first
    state for which `hit` is true.
    """
    cfg = dataclasses.replace(config, steps=steps)
    successes = 0
    for walk_id in range(config.walks):
        with _naming_walk(walk_id):
            successes += any(map(hit, states(cfg, walk_rng(config.seed, walk_id))))
    p = successes / config.walks
    hw = Z99 * math.sqrt(p * (1.0 - p) / config.walks)
    return ProbeEstimate(p, hw, successes, config.walks)


def escape_probe(config: WalkConfig, r: float, horizon: int) -> ProbeEstimate:
    """Estimate P[the radius reaches r within `horizon` steps | R_0 <= r].

    Supports checking the local-escape hypothesis (a positive such
    probability for every r) for a given law.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if not math.isfinite(r):
        raise DomainError(f"escape radius must be finite, got {r}")
    if config.start_radius > r:
        raise UsageError("escape probe requires start_radius <= r")

    def radii(cfg, rng):
        yield cfg.start_radius
        for _, R in _radius_iter(cfg, rng):
            yield R
    return _hit_probe(config, horizon, radii, lambda R: R >= r)


def neighborhood_return_probe(config: WalkConfig, target_center_radius: float,
                              target_radius: float, m: int) -> ProbeEstimate:
    """Estimate the probability of hitting an off-origin ball within m steps.

    Needs full positions and a dense-support law, so the config must use
    ambient mode with a box law.  The target ball sits at the given radius
    along the first geodesic axis.  This estimates the one-shot hitting
    probability only; the chain revisits any neighbourhood infinitely often
    exactly when such probabilities stay bounded away from zero, which is an
    argument, not a computation.
    """
    if config.mode != MODE_AMBIENT:
        raise UsageError("neighborhood_return_probe requires ambient mode (full positions)")
    if getattr(config.law, "kind", None) != "box":
        raise UsageError("neighborhood_return_probe requires a box law (dense support)")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if not target_radius > 0:
        raise DomainError("target_radius must be > 0")
    if not math.isfinite(target_center_radius):
        raise DomainError(f"target_center_radius must be finite, got {target_center_radius}")

    center = _start_point(config.model, target_center_radius)
    if config.model.is_hyperbolic:
        k = config.model.k
        k2 = k * k

        def inside(x):
            return math.acosh(max(-_mink(x, center) * k2, 1.0)) / k < target_radius
    else:
        def inside(x):
            return float(np.linalg.norm(x - center)) < target_radius

    def positions(cfg, rng):
        yield _start_point(cfg.model, cfg.start_radius)
        for _, x, _ in _ambient_states(cfg, rng):
            yield x
    return _hit_probe(config, m, positions, inside)
