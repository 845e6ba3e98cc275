"""Monte Carlo ensemble engine for geodesic random walks.

The walks of a chunk advance together, one step for all of them
(`_Lockstep`), in one of two modes:

* ``ambient`` holds their points as one (W, d+1) array, and each step
  applies the points' Householder frame steps (`_tangent_axes`,
  `euclidean_frame`), taken on H_k through geometry's `_exp_step` and
  `_reproject`, the step the `validate` suites take on one point; it is
  limited to k * R <= 700 by double-precision overflow;
* ``radialonly`` holds only their radii, one (W,) array, and each step is
  one call of the exact radial increment over it (geometry's
  `_radial_increments` on H_k, `_euclidean_increments` in flat space),
  which for a radially symmetric law is distributionally the same chain
  and has no radius limit.  This is what makes 10^5-step horizons cheap.

Both modes take their steps from the same draws, so walks driven by the
same stream can be coupled draw-for-draw.  A walk of a built-in law draws
the radius-free rows of a run of steps ahead (`IncrementLaw.unit_rows`),
which consumes the stream exactly as per-step `sample_components` calls
would, and maps each step's rows at the walkers' radii (`steps`), the map
those calls take; a custom law is sampled once per walk per step.

Every walk starts at `_start_point`.  An ensemble runs one contiguous
chunk of walk ids per process: the calling process runs the first, and a
child forked for each other chunk runs it (`_map`, on Linux; elsewhere the
chunks run in process).  `run_walk` runs a lockstep of one walk, a chunk one
lockstep (`_lockstep_states`), and both probes one over all walks, which
the neighbourhood probe measures with geometry's polar `_distance`.  A
chunk is tallied T-block by T-block (`_Tally`), which keeps the radii of
the recorded steps alone, so of the others no (W, T) array is held; a
child sends back its tally, and the records are built in the caller.  A
walk that breaks an invariant drops out and the others carry on; at the
end the lowest walk id's error is raised, as the walks run one by one
would.

Reproducibility contract: every walk owns the rng stream spawned from
(master seed, walk id), and ensemble statistics are aggregated in walk-id
order.  The lockstep's arithmetic acts on each walk's row alone, so a
walk's bytes depend neither on its chunk nor on the worker count, and
results are bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainError, HyperwalkError, InvariantViolationError, OverflowGuardError,
                     UsageError)
from .geometry import (
    REPROJECTION_DRIFT_TOL,
    CurvatureModel,
    _D_DIRECT,
    _distance,
    _euclidean_increments,
    _exp_step,
    _radial_increments,
    _reproject,
    _reprojection_error,
    _rowdot,
    _tangent_axes,
    euclidean_frame,
    near_inward_one_plus_phi,
    # scalar kernels no walk calls: perfbench/spans.py wraps them under
    # these names, so they stay bound here
    euclidean_radial_increment,
    radial_increment_exact,
)
from .increments import Z99, CustomLaw, IncrementLaw

MODE_AMBIENT = "ambient"
MODE_RADIAL_ONLY = "radialonly"

AMBIENT_KR_LIMIT = 700.0        # cosh(kR) overflows shortly above this
# A lockstep runs its steps in T-blocks: the unit rows drawn ahead for a
# block, and the radii a block's records are built from, span at most
# BLOCK_STEPS steps and LOCKSTEP_ROWS rows over all walks.  They bound
# memory, not the stream or the records, which are the same for any size.
LOCKSTEP_ROWS = 1 << 18
BLOCK_STEPS = 256


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
        if self.burn_in < 0 or not self.start_radius >= 0:
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

    The walk runs as a lockstep of one walk, the step every ensemble takes.
    A step of non-finite length, or a point that drifts off the hyperboloid,
    raises InvariantViolationError naming the walk and the step.
    """
    if rng is None:
        rng = walk_rng(config.seed, walk_id)
    return _chunk_tally(config, range(walk_id, walk_id + 1), [rng]).records()[0]


def _block_steps(steps: int, walks: int) -> int:
    """The steps of a T-block of `walks` walks with `steps` steps to go."""
    return max(1, min(steps, BLOCK_STEPS, LOCKSTEP_ROWS // walks))


def _non_finite_step(n: int) -> InvariantViolationError:
    return InvariantViolationError(f"step {n} has non-finite length")


class _Lockstep:
    """The walks `ids` advanced together, one step for all of them.

    Row i of the radii `R` (and in ambient mode of the points `x`) is walk
    `ids[i]`, and draws from `rngs[i]`.  A walk draws from its own stream
    exactly as it would alone: it takes the law's `unit_rows` in T-blocks
    (runs of steps drawn ahead, `_block_steps`), or a custom law's sampler
    once per step, and profiles are evaluated per walk, so each walk's
    steps hold the bytes `sample_components` would give.  The step
    arithmetic acts on each row alone, so a walk's bytes do not depend on
    the walks it runs with.

    `drop` takes walks out of the lockstep.  A walk that breaks an invariant
    is dropped with its error in `errors`; since the lowest walk id's error
    is the one raised, walks with a higher id are dropped with it.
    """

    def __init__(self, config: WalkConfig, ids, rngs):
        self.config = config
        self.ids = np.asarray(ids, dtype=np.int64)
        self.rngs = list(rngs)
        self.R = np.full(len(self.ids), float(config.start_radius))
        self.x = None               # the ambient points; radial-only walks have none
        if config.mode == MODE_AMBIENT:
            self.x = np.tile(_start_point(config.model, config.start_radius),
                             (len(self.ids), 1))
        self.errors = {}            # walk id -> the error that stopped it
        self._units = np.empty((0, len(self.ids), 0))   # the T-block's rows, step by walk
        self._unit_step = 1         # the step of the T-block's row 0

    def drop(self, mask, error=None) -> np.ndarray:
        """Drop the walks where `mask` holds, recording `error(row)` for each
        when given; returns the mask of the walks kept."""
        if error is not None:
            for i in np.flatnonzero(mask):
                self.errors[int(self.ids[i])] = error(i)
            mask = mask | (self.ids > min(self.errors))
        keep = ~mask
        self.ids, self.R = self.ids[keep], self.R[keep]
        if self.x is not None:
            self.x = self.x[keep]
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
        if isinstance(law, CustomLaw):
            d_rad, t = zip(*map(law.sample_components, self.R.tolist(), self.rngs))
            return np.array(d_rad, dtype=float), np.array(t, dtype=float).reshape(-1, law.d - 1)
        i = n - self._unit_step
        if i == len(self._units):
            rows = _block_steps(self.config.steps - n + 1, len(self.ids))
            for j, rng in enumerate(self.rngs):     # walk by walk: the block is held once
                u = law.unit_rows(rows, rng)
                if j == 0:
                    self._units = np.empty((rows, len(self.rngs), u.shape[1]))
                self._units[:, j] = u
            self._unit_step, i = n, 0
        u = self._units[i]
        if i == len(self._units) - 1:       # the T-block's last row: let the block go
            self._units, self._unit_step = np.empty((0,) + u.shape), n + 1
        return law.steps(self.R, u)

    def _finite_draw(self, n):
        """(d_rad, t, |t|^2, length) of step n for the walks whose step has
        a finite length, and the longest length; the others are dropped."""
        d_rad, t = self._draw(n)
        t_sq = _rowdot(t, t)
        norm = np.sqrt(d_rad * d_rad + t_sq)
        longest = norm.max()
        if not longest < math.inf:          # a NaN maximum fails it too
            keep = self.drop(~(norm < math.inf), lambda i: _non_finite_step(n))
            d_rad, t, t_sq, norm = d_rad[keep], t[keep], t_sq[keep], norm[keep]
            longest = norm.max(initial=0.0)
        return d_rad, t, t_sq, norm, longest

    def step(self, n: int):
        """Take step n of every walk."""
        if self.x is None:
            self._radial_step(n)
        else:
            self._ambient_step(n)

    def _radial_step(self, n: int):
        """The exact radial increment of step n, over the array of radii."""
        d_rad, _, t_sq, d_tot, longest = self._finite_draw(n)
        model = self.config.model
        if model.is_hyperbolic:
            # a phi that rounding takes past +-1 counts as +-1 in the kernel
            phi = d_rad / (d_tot if d_tot.min(initial=math.inf) > 0.0
                           else np.where(d_tot > 0.0, d_tot, 1.0))
            opp = 1.0 + phi
            if model.k * longest > _D_DIRECT:
                # 1 + phi of a long step close to straight inward, from |t|^2;
                # the longest step spares the search a step with none
                near_inward_one_plus_phi(model.k, opp, d_rad, t_sq, d_tot)
            inc = _radial_increments(self.R, d_tot, phi, model.k, opp)
        else:
            # |d_rad| exceeds d_tot only where d_rad * d_rad underflows
            d_rad = np.minimum(np.maximum(d_rad, -d_tot), d_tot)
            inc = _euclidean_increments(self.R, d_tot, d_rad)
        self.R = np.maximum(self.R + inc, 0.0)

    def _ambient_step(self, n: int):
        """Step n of the ambient points: the frame's step, on H_k geometry's
        exp step and its reprojection onto the hyperboloid, in flat space a
        translation.  Each guard is one reduction, and its mask is built
        only when the guard fires."""
        hyperbolic, k = self.config.model.is_hyperbolic, self.config.model.k
        if hyperbolic and not k * self.R.max(initial=0.0) <= AMBIENT_KR_LIMIT:
            far = k * self.R > AMBIENT_KR_LIMIT
            if far.any():
                self.drop(far, lambda i: OverflowGuardError(
                    f"ambient mode exceeded k*R = {AMBIENT_KR_LIMIT} at step {n}; "
                    "use radial-only mode for long horizons"))
                if not self.ids.size:
                    return
        d_rad, t, _, norm, _ = self._finite_draw(n)
        if not hyperbolic:
            self.x = self.x + euclidean_frame(self.x).step(d_rad, t)
            self.R = np.sqrt(_rowdot(self.x, self.x))
            return
        v = _tangent_axes(self.x, k).step(d_rad, t)
        if norm.min(initial=math.inf) > 0.0:
            self.x = _exp_step(self.x, v, norm, k)
            self.R, defect = _reproject(self.x, k)
        else:                       # a zero step leaves its walk where it is
            moving = norm > 0.0
            x = _exp_step(self.x[moving], v[moving], norm[moving], k)
            R, defect_moving = _reproject(x, k)
            self.x[moving], self.R[moving] = x, R
            defect = np.zeros(len(norm))
            defect[moving] = defect_moving
        if not defect.max(initial=0.0) <= REPROJECTION_DRIFT_TOL:
            fault = defect > REPROJECTION_DRIFT_TOL
            if fault.any():
                self.drop(fault, lambda i: _reprojection_error(defect[i], n))


def _lockstep_states(config: WalkConfig, ids, rngs=None):
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


class _Tally:
    """The records of the walks `ids`, built T-block by T-block from their
    radii.

    `fold` takes the radii of a run of consecutive steps as one
    (1 + rows, W) array, row 0 holding the step before the run, and adds
    them to the walks' return counts, escape steps and tail sums, with the
    arithmetic of a step-by-step loop: the tail sums are running sums
    carried from block to block and accumulated row by row
    (`np.add.accumulate` is sequential), so they hold the loop's bits.  It
    keeps a copy of the recorded steps' rows; `records` turns them into
    each walk's (step, R) list.  A tally holds only numbers and arrays, so
    a child process sends one back cheaply.
    """

    def __init__(self, ids: range, start: float):
        W = len(ids)
        self.ids = ids
        self.steps = [0]                                # the recorded steps
        self.rows = [np.full((1, W), float(start))]     # their radii, one (k, W) array a block
        self.returns = np.zeros(W, dtype=np.int64)
        self.escape = np.zeros(W, dtype=np.int64)       # 0 until the walk escapes
        self.tail = np.zeros((2, W))                    # the sums of dr and dr^2
        self.tail_count = 0

    def fold(self, c: WalkConfig, n0: int, block: np.ndarray):
        """Fold steps n0, n0 + 1, ..., whose radii are rows 1, 2, ... of
        `block`; row 0 holds the radii of step n0 - 1."""
        T, m = c.steps, len(block) - 1
        prev, radii = block[:-1], block[1:]
        lo = max(0, c.burn_in + 1 - n0)                 # the first row after the burn-in
        if lo < m:
            entered = (prev[lo:] >= c.ball_radius) & (radii[lo:] < c.ball_radius)
            self.returns += entered.sum(axis=0)
        out = radii > c.escape_radius
        new = (self.escape == 0) & out.any(axis=0)
        if new.any():
            self.escape[new] = n0 + out.argmax(axis=0)[new]
        lo = max(0, T - max(1, T // 4) + 1 - n0)        # the first row of the last quarter
        if lo < m:
            terms = np.empty((m - lo + 1,) + self.tail.shape)
            terms[0] = self.tail
            dr = np.subtract(radii[lo:], prev[lo:], out=terms[1:, 0])
            np.multiply(dr, dr, out=terms[1:, 1])
            self.tail = np.add.accumulate(terms, axis=0, out=terms)[-1].copy()
            self.tail_count += m - lo
        first = -n0 % c.record_stride                   # the first row of a strided step
        steps = range(n0 + first, n0 + m, c.record_stride)
        self.steps.extend(steps)
        self.rows.append(radii[first::c.record_stride].copy())
        if n0 + m - 1 == T and T not in steps:
            self.steps.append(T)
            self.rows.append(radii[-1:].copy())

    def records(self) -> list:
        """The walks' records; the last recorded step is always the final one."""
        radii = np.concatenate(self.rows).T.tolist()
        return [TrajectoryRecord(j, list(zip(self.steps, walk_radii)), returns, escape or None,
                                 walk_radii[-1], dr_sum, dr_sumsq, self.tail_count)
                for j, walk_radii, returns, escape, dr_sum, dr_sumsq in zip(
                    self.ids, radii, self.returns.tolist(), self.escape.tolist(),
                    *self.tail.tolist())]


def _chunk_tally(config: WalkConfig, ids: range, rngs=None) -> _Tally:
    """The tally of the walks `ids`, a range of walk ids, run in lockstep;
    raises the error of the lowest walk id that broke an invariant, as the
    walks run one by one would.

    The radii of each T-block of steps fill one array, which `_Tally` folds,
    so of the radii not recorded no (W, T) array is ever held.
    """
    T = config.steps
    rows = _block_steps(T, len(ids))
    block = np.empty((1 + rows, len(ids)))          # row 0: the step before the block
    block[0] = config.start_radius
    tally = _Tally(ids, config.start_radius)
    for n, walks in _lockstep_states(config, ids, rngs):
        if n and not walks.errors:      # after an error no record is returned
            i = (n - 1) % rows + 1
            block[i] = walks.R
            if i == rows or n == T:
                tally.fold(config, n - i + 1, block[:i + 1])
                block[0] = block[i]
    walks.raise_first()
    return tally


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def run_ensemble(config: WalkConfig, workers: int = 1):
    """Run the configured ensemble; returns (records, stats).

    The walks run in min(workers, walks, usable cores) processes, this one
    among them, each over one contiguous chunk of walk ids (`_chunk_tally`
    mapped by `_map`).  Records come back ordered by walk id and the
    aggregation is a sum of per-walk sufficient statistics, so the output
    is identical for any worker count.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    n = max(1, min(workers, config.walks, cores))
    chunks = [range(config.walks * i // n, config.walks * (i + 1) // n) for i in range(n)]
    records = [rec for tally in _map(lambda ids: _chunk_tally(config, ids), chunks)
               for rec in tally.records()]
    return records, ensemble_stats(records, config)


def _map(fn, chunks) -> list:
    """[fn(ids) for ids in chunks], for `chunks` a list of ranges of walk ids.

    On Linux this process runs the first chunk, and a child forked for it
    runs each other one, which passes back (ok, result or exception)
    pickled through its own pipe; nothing is pickled on the way in.  The
    pipes are read in chunk order, so the error raised is the first
    chunk's, as the lowest walk id's would be.  However this returns or
    raises, every child has been reaped.  Elsewhere the chunks run here one
    after another.
    """
    if len(chunks) == 1 or not sys.platform.startswith("linux"):
        return [fn(ids) for ids in chunks]
    children = []           # (pid, read end of its pipe, ids) of each child not yet reaped
    try:
        for ids in chunks[1:]:
            children.append(_fork(fn, ids) + (ids,))
        results = [fn(chunks[0])]
        while children:
            pid, pipe, ids = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                raise HyperwalkError(
                    f"walks {ids.start}-{ids.stop - 1}: their process ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        if children:
            from signal import SIGKILL      # imported here, so a run that succeeds never loads it
            for pid, pipe, _ in children:
                pipe.close()
                # an interrupt may land between waitpid and del: already reaped
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)


def _fork(fn, ids):
    """A forked child that runs fn(ids), pickles (ok, result or exception)
    into a pipe and exits, with status 0 once all of it is written;
    returns (its pid, the pipe's read end)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            try:
                out = (True, fn(ids))
            except BaseException as exc:       # the caller raises it
                out = (False, exc)
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _percentiles(values: np.ndarray, ps) -> dict:
    """{p: np.percentile(values, p)} for each p, bit for bit, by numpy's
    default linear rule, without the numpy.ma import that np.percentile
    makes on first use (about 15 ms of every simulate process)."""
    s = np.sort(values).tolist()
    n = len(s)
    out = {}
    for p in ps:
        pos = (n - 1) * (p / 100)
        i = math.floor(pos)
        t = pos - i
        a, b = s[i], s[min(i + 1, n - 1)]
        # numpy's lerp, which interpolates from the nearer end
        out[p] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return out


def ensemble_stats(records, config: WalkConfig) -> EnsembleStats:
    n = len(records)
    final = np.array([r.final_R for r in records])
    qs = _percentiles(final, (5, 25, 50, 75, 95))
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
    """The fraction of walks that hit at some step 0 .. `steps`.

    The walks run in lockstep over their own streams, and each stops at its
    first hit, so an error after it does not count.  `hit(x, R)` maps the
    running walks' ambient positions (None in radial-only mode) and radii
    to the mask of the walks that hit.
    """
    cfg = dataclasses.replace(config, steps=steps)
    successes = 0
    for _, walks in _lockstep_states(cfg, range(config.walks)):
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
    return _hit_probe(config, horizon, lambda x, R: R >= r)


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
