"""Monte Carlo ensemble engine for geodesic random walks.

Two simulation modes:

* ``ambient`` iterates the walks in ambient coordinates, all walks of a
  chunk together (`_Lockstep`): their points form one (W, d+1) array, and
  each step applies the points' Householder frame steps (`_tangent_axes`,
  `euclidean_frame`), taken on H_k through geometry's `_exp_step` and
  `_reproject`, the step `exp_map` and the `validate` oracle take on one
  point; it is limited to k * R <= 700 by double-precision overflow;
* ``radialonly`` iterates the radius of one walk at a time through the
  exact radial increment, which for a radially symmetric law is
  distributionally the same chain and has no radius limit.  This is what
  makes 10^5-step horizons cheap.

Both modes take their steps from the same draws, so walks driven by the
same stream can be coupled draw-for-draw.  Elliptic and box walks draw the
unit rows of their steps in blocks (`IncrementLaw.unit_blocks`) that
consume the stream exactly as per-step `sample_components` calls would, and
scale each row by the law's profiles at the current radius with the same
operations as those calls; every other law is sampled once per step.

Every walk starts at `_start_point`; the pool runs one contiguous chunk of
walk ids per process.  Radial-only walks, in `run_walk`, a chunk and the
escape probe, run one at a time through `_radial_only_radii`, named by
`_naming_walk` when one breaks an invariant.  Ambient walks run in
lockstep (`_ambient_states`): `run_walk` runs a lockstep of one walk, a
chunk one lockstep, and both probes one over all walks, which the
neighbourhood probe measures with geometry's polar `_distance`.  A walk
that breaks an invariant drops out and the others carry on; at the end
the lowest walk id's error is raised, as the walks run one by one would.

Reproducibility contract: every walk owns the rng stream spawned from
(master seed, walk id), and ensemble statistics are aggregated in walk-id
order.  The lockstep's arithmetic acts on each walk's row alone, so a
walk's bytes depend neither on its chunk nor on the worker count, and
results are bit-identical across runs and across worker counts.
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
    REPROJECTION_DRIFT_TOL,
    CurvatureModel,
    _distance,
    _exp_step,
    _reproject,
    _reprojection_error,
    _rowdot,
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
# Most unit rows one T-block of an ambient lockstep holds over all its walks;
# it bounds the block's memory, not the stream, which is the same for any
# block size.
LOCKSTEP_ROWS = 1 << 18


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

    An ambient walk runs as a lockstep of one walk, the step every ambient
    ensemble takes.  A step of non-finite length, or a point that drifts off
    the hyperboloid, raises InvariantViolationError naming the walk and the
    step.
    """
    if rng is None:
        rng = walk_rng(config.seed, walk_id)
    if config.mode == MODE_AMBIENT:
        return _ambient_records(config, range(walk_id, walk_id + 1), [rng])[0]
    with _naming_walk(walk_id):
        return _collect(config, walk_id, _radial_only_radii(config, rng))


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


class _Lockstep:
    """The ambient walks `ids` advanced together, one step for all of them.

    Row i of `x` and `R` is walk `ids[i]`, and draws from `rngs[i]`.  A walk
    draws from its own stream exactly as it would alone: elliptic and box
    walks take the unit rows of `unit_blocks` in T-blocks (runs of steps
    drawn ahead, at most LOCKSTEP_ROWS rows over all walks), every other law
    is sampled once per walk per step, and profiles are evaluated per walk,
    so each walk's steps hold the bytes `sample_components` would give.
    The step arithmetic acts on each row alone, so a walk's bytes do not
    depend on the walks it runs with.

    `drop` takes walks out of the lockstep.  A walk that breaks an invariant
    is dropped with its error in `errors`; since the lowest walk id's error
    is the one raised, walks with a higher id are dropped with it.
    """

    def __init__(self, config: WalkConfig, ids, rngs):
        self.config = config
        self.ids = np.asarray(ids, dtype=np.int64)
        self.rngs = list(rngs)
        self.x = np.tile(_start_point(config.model, config.start_radius), (len(self.ids), 1))
        self.R = np.full(len(self.ids), float(config.start_radius))
        self.errors = {}            # walk id -> the error that stopped it
        self._units = np.empty((0, len(self.ids), config.law.d))    # the T-block's unit rows
        self._unit_step = 1         # the step of the T-block's row 0

    def drop(self, mask, error=None) -> np.ndarray:
        """Drop the walks where `mask` holds, recording `error(row)` for each
        when given; returns the mask of the walks kept."""
        if error is not None:
            for i in np.flatnonzero(mask):
                self.errors[int(self.ids[i])] = error(i)
            mask = mask | (self.ids > min(self.errors))
        keep = ~mask
        self.ids, self.x, self.R = self.ids[keep], self.x[keep], self.R[keep]
        self.rngs = list(itertools.compress(self.rngs, keep))
        self._units = self._units[:, keep]
        return keep

    def raise_first(self):
        """Raise the error of the lowest walk id, as that walk alone would."""
        if self.errors:
            walk_id = min(self.errors)
            with _naming_walk(walk_id):
                raise self.errors[walk_id]

    def _draw(self, n):
        """(d_rad, t) of step n for every walk, as (W,) and (W, d - 1) arrays."""
        law = self.config.law
        radii = self.R.tolist()
        s = law.block_scale
        if s is None:
            d_rad, t = np.empty(len(radii)), np.empty((len(radii), law.d - 1))
            for i, (R, rng) in enumerate(zip(radii, self.rngs)):
                d_rad[i], t[i] = law.sample_components(R, rng)
            return d_rad, t
        i = n - self._unit_step
        if i == len(self._units):
            rows = min(self.config.steps - n + 1, max(1, LOCKSTEP_ROWS // len(radii)))
            self._units = np.stack([np.concatenate(list(law.unit_blocks(rows, rng)))
                                    for rng in self.rngs], axis=1)
            self._unit_step, i = n, 0
        u = self._units[i]
        a = np.array([law.a(R) for R in radii]) * s
        b = np.array([law.b(R) for R in radii]) * s
        return a * u[:, 0], b[:, None] * u[:, 1:]

    def step(self, n: int):
        """Take step n of every walk: the frame's step, on H_k geometry's exp
        step and its reprojection onto the hyperboloid, in flat space a
        translation."""
        hyperbolic, k = self.config.model.is_hyperbolic, self.config.model.k
        if hyperbolic:
            far = k * self.R > AMBIENT_KR_LIMIT
            if far.any():
                self.drop(far, lambda i: OverflowGuardError(
                    f"ambient mode exceeded k*R = {AMBIENT_KR_LIMIT} at step {n}; "
                    "use radial-only mode for long horizons"))
                if not self.ids.size:
                    return
        d_rad, t = self._draw(n)
        norm = np.sqrt(d_rad * d_rad + _rowdot(t, t))
        bad = ~(norm < math.inf)
        if bad.any():
            keep = self.drop(bad, lambda i: _non_finite_step(n))
            d_rad, t, norm = d_rad[keep], t[keep], norm[keep]
        if not hyperbolic:
            self.x = self.x + euclidean_frame(self.x).step(d_rad, t)
            self.R = np.sqrt(_rowdot(self.x, self.x))
            return
        v = _tangent_axes(self.x, k).step(d_rad, t)
        moving = norm > 0.0
        if moving.all():
            self.x = _exp_step(self.x, v, norm, k)
            self.R, defect = _reproject(self.x, k)
        else:                       # a zero step leaves its walk where it is
            x = _exp_step(self.x[moving], v[moving], norm[moving], k)
            R, defect_moving = _reproject(x, k)
            self.x[moving], self.R[moving] = x, R
            defect = np.zeros(len(norm))
            defect[moving] = defect_moving
        fault = defect > REPROJECTION_DRIFT_TOL
        if fault.any():
            self.drop(fault, lambda i: _reprojection_error(defect[i], n))


def _ambient_states(config: WalkConfig, ids, rngs=None):
    """Yield (n, walks) for n = 0 .. T: the _Lockstep of the walks `ids`
    (over their own streams unless `rngs` are given) after n steps.  The
    caller may drop walks between steps; the run ends early once none is
    left."""
    if rngs is None:
        rngs = [walk_rng(config.seed, j) for j in ids]
    walks = _Lockstep(config, ids, rngs)
    yield 0, walks
    for n in range(1, config.steps + 1):
        if not walks.ids.size:
            return
        walks.step(n)
        yield n, walks


def _ambient_records(config: WalkConfig, ids: range, rngs=None) -> list:
    """The records of the ambient walks `ids`, a range of walk ids, run in
    lockstep; raises the error of the lowest walk id that broke an
    invariant, as the walks run one by one would."""
    T = config.steps
    radii = np.empty((len(ids), T))
    for n, walks in _ambient_states(config, ids, rngs):
        if n:
            radii[walks.ids - ids.start, n - 1] = walks.R
    walks.raise_first()
    steps = range(1, T + 1)
    return [_collect(config, j, zip(steps, row)) for j, row in zip(ids, radii.tolist())]


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def run_ensemble(config: WalkConfig, workers: int = 1):
    """Run the configured ensemble; returns (records, stats).

    The pool has min(workers, walks, usable cores) processes, since the
    pool starts all of them at once; at one or fewer the walks run in this
    process.  Each process runs one contiguous chunk of walk ids
    (`_chunk_records`).  Records come back ordered by walk id and the
    aggregation is a sum of per-walk sufficient statistics, so the output
    is identical for any worker count.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(workers, config.walks, cores)
    n = max(workers, 1)
    chunks = [range(config.walks * i // n, config.walks * (i + 1) // n) for i in range(n)]
    records = [rec for chunk in _map(functools.partial(_chunk_records, config), chunks, workers)
               for rec in chunk]
    return records, ensemble_stats(records, config)


def _chunk_records(config: WalkConfig, ids: range) -> list:
    """The records of the walks `ids`: one lockstep, or radial-only walks one by one."""
    if config.mode == MODE_AMBIENT:
        return _ambient_records(config, ids)
    return [run_walk(config, j) for j in ids]


def _map(fn, items, workers: int) -> list:
    """list(map(fn, items)), on a pool of `workers` processes when more than one."""
    if workers <= 1:
        return list(map(fn, items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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


def _estimate(successes: int, trials: int) -> ProbeEstimate:
    p = successes / trials
    return ProbeEstimate(p, Z99 * math.sqrt(p * (1.0 - p) / trials), successes, trials)


def _hit_probe(config: WalkConfig, steps: int, hit) -> ProbeEstimate:
    """The fraction of ambient walks that hit at some step 0 .. `steps`.

    The walks run in lockstep over their own streams, and each stops at its
    first hit, so an error after it does not count.  `hit(x, R)` maps the
    running walks' positions and radii to the mask of the walks that hit.
    """
    cfg = dataclasses.replace(config, steps=steps)
    successes = 0
    for _, walks in _ambient_states(cfg, range(config.walks)):
        hits = hit(walks.x, walks.R)
        successes += int(hits.sum())
        walks.drop(hits)
    walks.raise_first()
    return _estimate(successes, config.walks)


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
    if config.mode == MODE_AMBIENT:
        return _hit_probe(config, horizon, lambda x, R: R >= r)
    cfg = dataclasses.replace(config, steps=horizon)
    successes = 0
    for walk_id in range(config.walks):
        with _naming_walk(walk_id):
            radii = (R for _, R in _radial_only_radii(cfg, walk_rng(config.seed, walk_id)))
            successes += any(R >= r for R in itertools.chain([cfg.start_radius], radii))
    return _estimate(successes, config.walks)


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
        def inside(x, R):
            return _distance(x, center, config.model.k) < target_radius
    else:
        def inside(x, R):
            u = x - center
            return np.sqrt(_rowdot(u, u)) < target_radius
    return _hit_probe(config, m, inside)
