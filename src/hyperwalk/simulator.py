"""Monte Carlo ensemble engine for geodesic random walks.

The walks of a chunk advance together, one step for all of them
(`_Lockstep`), in one of two modes:

* ``radialonly`` holds their radii, one (W,) array, and each step is one
  call of the exact radial increment over it (geometry's
  `_radial_increments` on H_k, `_euclidean_increments` in flat space),
  with no radius limit.  This is what makes 10^5-step horizons cheap.
* ``ambient`` holds each walk in polar form, its radius and a unit
  direction n of R^d, one (W, d) array.  Its step is the radial-only
  step, on the same draws and inputs, followed by a turn of n in the
  plane of n and the step's transverse part, read in n's Householder
  frame (geometry's `_turn`).  So ambient radii are the radial-only radii
  bit for bit, at any radius.  A walk starts at n = +e_1, or at the
  origin at the frames' stand-in -e_1.

A walk of a built-in law draws the rows of a T-block of steps ahead
(`IncrementLaw.unit_rows`), which consumes the stream exactly as per-step
`sample_components` calls would.  What of the block's steps does not
depend on the radius is mapped once for the block (`radius_free`): for a
law with constant profiles the steps themselves, their lengths, each
step's longest length and what the radial step reads of them
(`_Lockstep._inputs`).  The rest is mapped at each step at the walkers'
radii (`steps`).  Both are the maps those calls take.  The step's guards
read bounds where they are known: an elliptic or box law's step bound
(below STEP_BOUND_LIMIT) for the longest length, and each step's least
|d_rad| for the shortest.  A custom law is sampled once per walk per
step.

An ensemble runs one contiguous chunk of walk ids per process: the
calling process runs the first, and a child forked for each other chunk
runs it (`_map`, on Linux; elsewhere the chunks run in process).  It
starts another process only while each gets at least FORK_MIN_WALKS walks
and FORK_MIN_WALK_STEPS walk-steps, below which a fork costs more than it
saves.  `run_walk` runs a lockstep of one walk, a chunk one lockstep
(`_lockstep_states`), and both probes one over all walks, which the
neighbourhood probe measures with geometry's polar `_distance`.  A chunk
is tallied T-block by T-block (`_Tally`), which keeps the radii of the
recorded steps alone, so of the others no (W, T) array is held.  A chunk's
process turns its tally into what the caller asked for: the recorded
radii, from which the caller builds the records, or the text a spelling
callable makes of them, in which case only the text and the tally's
per-walk sums come back and no record is built.  A walk that breaks an
invariant drops out and the others carry on; at the end the lowest walk
id's error is raised, as the walks run one by one would.

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
    TURN_KR_LIMIT,
    CurvatureModel,
    _D_DIRECT,
    _distance,
    _euclidean_increments,
    _radial_increments,
    _rowdot,
    _turn,
    near_inward_one_plus_phi,
    # kernels no walk calls: perfbench/spans.py wraps them under these
    # names, so they stay bound here for the tracer only
    _tangent_axes,
    euclidean_frame,
    euclidean_radial_increment,
    radial_increment_exact,
)
from .increments import Z99, BoxLaw, CustomLaw, EllipticLaw, IncrementLaw

MODE_AMBIENT = "ambient"
MODE_RADIAL_ONLY = "radialonly"

# A lockstep runs its steps in T-blocks: the unit rows drawn ahead for a
# block, and the radii a block's records are built from, span at most
# BLOCK_STEPS steps and LOCKSTEP_ROWS rows over all walks.  They bound
# memory, not the stream or the records, which are the same for any size.
LOCKSTEP_ROWS = 1 << 18
BLOCK_STEPS = 256
# The fewest walk-steps (walks x steps), and the fewest walks, a process
# must get before an ensemble starts another one: below either a fork costs
# more than it saves (BENCH_28 and BENCH_29's sweeps).
FORK_MIN_WALK_STEPS = 1 << 15
FORK_MIN_WALKS = 20
# A built-in law's step bound, with a margin over the rounding of a drawn
# step's length, replaces each step's longest length below this limit, where
# every length squares to a finite double; `cli` rejects a law bounded above.
STEP_BOUND_LIMIT = 1e150
_BOUND_MARGIN = 1.0 + 2.0 ** -40
# a |d_rad| of at least this squares to a positive double, so a step's length
# is positive wherever its |d_rad| is
_TINY = 2.0 ** -500


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
    A step of non-finite length raises InvariantViolationError naming the
    walk and the step.
    """
    if rng is None:
        rng = walk_rng(config.seed, walk_id)
    return _chunk_tally(config, range(walk_id, walk_id + 1), [rng]).records()[0]


def _block_steps(steps: int, walks: int) -> int:
    """The steps of a T-block of `walks` walks with `steps` steps to go."""
    return max(1, min(steps, BLOCK_STEPS, LOCKSTEP_ROWS // walks))


def _lengths(d_rad, t, d_rad_sq=None):
    """(|t|^2, length) of the steps (d_rad, t), over any leading axes; d_rad^2
    may be given.  With one transverse column |t|^2 is t * t, the bits of
    the batched matmul's length-1 dot."""
    t_sq = t[..., 0] * t[..., 0] if t.shape[-1] == 1 else _rowdot(t, t)
    return t_sq, np.sqrt((d_rad * d_rad if d_rad_sq is None else d_rad_sq) + t_sq)


def _non_finite_step(n: int, d_rad, t) -> InvariantViolationError:
    if math.isfinite(d_rad) and np.isfinite(t).all():
        return InvariantViolationError(
            f"step {n} is finite, but its length overflows the double range")
    return InvariantViolationError(f"step {n} has non-finite length")


class _Lockstep:
    """The walks `ids` advanced together, one step for all of them.

    Row i of the radii `R` (and in ambient mode of the unit directions `n`)
    is walk `ids[i]`, and draws from `rngs[i]`.  A walk draws from its own
    stream exactly as it would alone: it takes the law's `unit_rows` in
    T-blocks (runs of steps drawn ahead, `_block_steps`), or a custom law's
    sampler once per step, and a law maps each walk's radius by the rule one
    radius takes, so each walk's steps hold the bytes `sample_components`
    would give.  The step arithmetic acts on each row alone, so a walk's
    bytes do not depend on the walks it runs with.

    What a step reads of its draws (`_inputs`) is mapped once per T-block
    for a law whose steps do not depend on the radius, and at each step
    otherwise.  The guards read bounds where they are known: an elliptic or
    box law's step bound stands for the longest length (below
    STEP_BOUND_LIMIT), and each step's least |d_rad| for the shortest (from
    _TINY up).  A walk whose step has no finite length is dropped.

    `drop` takes walks out of the lockstep, and their columns out of the
    T-block's arrays.  A walk that breaks an invariant is dropped with its
    error in `errors`; since the lowest walk id's error is the one raised,
    walks with a higher id are dropped with it.
    """

    def __init__(self, config: WalkConfig, ids, rngs):
        self.config = config
        self.ids = np.asarray(ids, dtype=np.int64)
        self.rngs = list(rngs)
        self.R = np.full(len(self.ids), float(config.start_radius))
        self.n = None               # the ambient directions; radial-only walks have none
        if config.mode == MODE_AMBIENT:
            # +e_1, or at the origin the frames' stand-in -e_1
            self.n = np.zeros((len(self.ids), config.model.d))
            self.n[:, 0] = 1.0 if config.start_radius > 0.0 else -1.0
        self.errors = {}            # walk id -> the error that stopped it
        law = config.law
        bound = (law.step_bound() * _BOUND_MARGIN if isinstance(law, (EllipticLaw, BoxLaw))
                 else math.inf)
        self._bound = bound if bound < STEP_BOUND_LIMIT else None
        # the T-block of steps _block_step .. _block_step + _rows - 1, each
        # array step by walk: for a law whose steps do not depend on the
        # radius (d_rad, t, *inputs) and each step's longest length, else the
        # law's radius-free part, d_rad^2 and each step's least |d_rad| (None
        # where d_rad depends on the radius)
        self._block, self._longest = (), None
        self._block_step, self._rows = 1, 0

    def drop(self, mask, error=None) -> np.ndarray:
        """Drop the walks where `mask` holds, recording `error(row)` for each
        when given; returns the mask of the walks kept."""
        if error is not None:
            for i in np.flatnonzero(mask):
                self.errors[int(self.ids[i])] = error(i)
            mask = mask | (self.ids > min(self.errors))
        keep = ~mask
        if not mask.any():
            return keep
        self.ids, self.R = self.ids[keep], self.R[keep]
        if self.n is not None:
            self.n = self.n[keep]
        self.rngs = list(itertools.compress(self.rngs, keep))
        # a step's flags and least |d_rad| still hold for the walks kept
        self._block = tuple(a if a is None or a.ndim < 2 else a[:, keep] for a in self._block)
        if self._longest is not None:
            self._longest = self._block[2].max(axis=1, initial=0.0)
        return keep

    def raise_first(self):
        """Raise the error of the lowest walk id, as that walk alone would."""
        if self.errors:
            walk_id = min(self.errors)
            with _naming_walk(walk_id):
                raise self.errors[walk_id]

    def _refill(self, n):
        """Draw the T-block that starts at step n, and map what of its steps
        does not depend on the radius: for a law whose steps do not, the
        steps, what the step reads of them and each step's longest length."""
        law = self.config.law
        self._rows = _block_steps(self.config.steps - n + 1, len(self.ids))
        for j, rng in enumerate(self.rngs):     # walk by walk: the block is held once
            u = law.unit_rows(self._rows, rng)
            if j == 0:
                units = np.empty((self._rows, len(self.rngs), u.shape[1]))
            units[:, j] = u
        # a step with no finite length is dropped when it is taken
        with np.errstate(over="ignore", invalid="ignore"):
            part = law.radius_free(units)
            d_rad, t = part[0], part[1]
            if d_rad is None or t is None:
                sq = low = None
                if d_rad is not None:
                    sq, low = d_rad * d_rad, np.abs(d_rad).min(axis=1)
                self._block, self._longest = part + (sq, low), None
            else:
                t_sq, d_tot = _lengths(d_rad, t)
                self._longest = d_tot.max(axis=1)
                self._block = (d_rad, t) + self._inputs(
                    d_rad, t_sq, d_tot, self._longest.max(initial=0.0), None)
        self._block_step = n

    def _draw(self, n):
        """(d_rad, t, inputs) of step n for the walks whose step has a finite
        length, the others dropped: the steps as (W,) and (W, d - 1) arrays,
        and what the step reads of them (`_inputs`)."""
        law = self.config.law
        sq = low = None
        if isinstance(law, CustomLaw):
            d_rad, t = zip(*map(law.sample_components, self.R.tolist(), self.rngs))
            d_rad = np.array(d_rad, dtype=float)
            t = np.array(t, dtype=float).reshape(-1, law.d - 1)
        else:
            i = n - self._block_step
            if i == self._rows:
                self._refill(n)
                i = 0
            row = [a if a is None else a[i] for a in self._block]
            longest = None if self._longest is None else self._longest[i]
            if i == self._rows - 1:         # the T-block's last row: let the block go
                self._block, self._longest = (), None
            if longest is not None:
                d_rad, t, *inputs = row
                if not longest < math.inf:  # a NaN maximum fails it too
                    d_rad, t, *inputs = self._finite(n, d_rad, t, inputs[0], *inputs)
                return d_rad, t, inputs
            *part, sq, low = row
            d_rad, t = law.steps(self.R, part)
        if self._bound is not None:
            t_sq, d_tot = _lengths(d_rad, t, sq)
            longest = self._bound
        else:
            with np.errstate(over="ignore"):        # a length past the double range reads inf
                t_sq, d_tot = _lengths(d_rad, t, sq)
            longest = d_tot.max(initial=0.0)
            if not longest < math.inf:
                d_rad, t, t_sq, d_tot = self._finite(n, d_rad, t, d_tot, t_sq, d_tot)
                longest = d_tot.max(initial=0.0)
        return d_rad, t, self._inputs(d_rad, t_sq, d_tot, longest, low)

    def _finite(self, n, d_rad, t, d_tot, *arrays):
        """(d_rad, t, *arrays), each per walk or one for the step, of the
        walks whose step (d_rad, t) has a finite length d_tot; the others are
        dropped."""
        keep = self.drop(~(d_tot < math.inf), lambda i: _non_finite_step(n, d_rad[i], t[i]))
        return [a[keep] if np.ndim(a) else a for a in (d_rad, t, *arrays)]

    def _inputs(self, d_rad, t_sq, d_tot, longest, low):
        """What the step reads of the steps (d_rad, |t|^2) of lengths d_tot,
        one step's (W,) arrays or a T-block's (T, W) ones: d_tot, and on H_k
        phi, 1 + phi, whether a step may hold an edge and e^(-k d_tot) (None
        for one step), flat d_tot^2, d_rad clamped to +-d_tot and whether a
        step may hold a zero length.  `longest` is at least the longest
        length; `low`, a lower bound on one step's lengths, is trusted from
        _TINY up.  Over a T-block a flag is each step's, and for one step
        the edges are found by the kernel's three reductions."""
        known = low is not None and low >= _TINY
        over_block = d_tot.ndim == 2
        model = self.config.model
        if not model.is_hyperbolic:
            # |d_rad| exceeds d_tot only where d_rad * d_rad underflows
            d_rad = np.minimum(np.maximum(d_rad, -d_tot), d_tot)
            d_tot_sq = d_tot * d_tot
            zero = (d_tot_sq == 0.0).any(axis=1) if over_block else not known
            return d_tot, d_tot_sq, d_rad, zero
        k = model.k
        # a phi that rounding takes past +-1 counts as +-1 in the kernel
        shortest = low if known else d_tot.min(initial=math.inf)
        phi = d_rad / (d_tot if shortest > 0.0 else np.where(d_tot > 0.0, d_tot, 1.0))
        opp = 1.0 + phi
        if not k * longest <= _D_DIRECT:
            # 1 + phi of a long step close to straight inward, from |t|^2;
            # a bound on the lengths spares the search steps with none (a NaN
            # in a T-block does not)
            near_inward_one_plus_phi(k, opp, d_rad, t_sq, d_tot)
        if over_block:
            edges = ((d_tot == 0.0) | (phi >= 1.0) | (opp <= 0.0)).any(axis=1)
            return d_tot, phi, opp, edges, np.exp(-(k * d_tot))
        edges = not (shortest > 0.0 and phi.max(initial=0.0) < 1.0
                     and opp.min(initial=math.inf) > 0.0)
        return d_tot, phi, opp, edges, None

    def step(self, n: int):
        """Take step n of every walk: the exact radial increment over the
        array of radii, and in ambient mode the turn of each walk's direction
        in the plane of the step (geometry's `_turn`)."""
        d_rad, t, (d_tot, *inputs) = self._draw(n)
        R, model = self.R, self.config.model
        opp = None
        if model.is_hyperbolic:
            phi, opp, edges, exp_d = inputs
            inc = _radial_increments(R, d_tot, phi, model.k, opp, edges, exp_d)
        else:
            inc = _euclidean_increments(R, *inputs)
        self.R = np.maximum(R + inc, 0.0)
        if self.n is not None:
            self.n = _turn(self.n, t, R, d_rad, d_tot, model.k, opp)


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
    each walk's (step, R) list.  The last recorded step is always the final
    one, and `final` holds its radii.  A tally holds only numbers and
    arrays, so a child process sends one back cheaply.
    """

    def __init__(self, ids: range, start: float):
        W = len(ids)
        self.ids = ids
        self.steps = [0]                                # the recorded steps
        self.rows = [np.full((1, W), float(start))]     # their radii, one (k, W) array a block
        self.final = self.rows[0][0]
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
        if n0 + m - 1 == T:
            if T not in steps:
                self.steps.append(T)
                self.rows.append(radii[-1:].copy())
            self.final = self.rows[-1][-1]

    def records(self) -> list:
        """The walks' records, built from the recorded rows."""
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

def run_ensemble(config: WalkConfig, workers: int = 1, spell=None):
    """Run the configured ensemble; returns (records, stats).

    The walks run in min(workers, walks // FORK_MIN_WALKS, usable cores,
    walks * steps // FORK_MIN_WALK_STEPS) processes, at least one, this one
    among them, each over one contiguous chunk of walk ids (`_chunk` mapped
    by `_map`).  So `workers` is a ceiling, and each process gets at least
    the fork floors of walks and of walk-steps.  Records come back ordered by walk id and the
    aggregation is a sum of per-walk sufficient statistics, so the output
    is identical for any worker count.

    With `spell`, returns (texts, stats) instead and builds no record: each
    chunk's process calls spell(ids, steps, radii) on its walk ids, the
    recorded steps and their radii, a (steps recorded, walks) array, and
    the texts are the results in chunk order.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    n = max(1, min(workers, config.walks // FORK_MIN_WALKS, cores,
                   config.walks * config.steps // FORK_MIN_WALK_STEPS))
    chunks = [range(config.walks * i // n, config.walks * (i + 1) // n) for i in range(n)]
    results = _map(lambda ids: _chunk(config, ids, spell), chunks)
    if spell is None:
        return ([rec for tally in results for rec in tally.records()],
                ensemble_stats(results, config))
    tallies, texts = zip(*results)
    return list(texts), ensemble_stats(tallies, config)


def _chunk(config: WalkConfig, ids: range, spell):
    """The tally of the walks `ids` (`_chunk_tally`); with `spell`, that
    tally without its recorded rows and what spell(ids, steps, radii) makes
    of them, so a child sends back no row."""
    tally = _chunk_tally(config, ids)
    if spell is None:
        return tally
    radii, tally.rows = np.concatenate(tally.rows), []
    return tally, spell(tally.ids, tally.steps, radii)


def _map(fn, chunks) -> list:
    """[fn(ids) for ids in chunks], for `chunks` a list of ranges of walk ids.

    On Linux this process runs the first chunk, and a child forked for it
    runs each other one, which streams back (ok, result or exception)
    pickled into its own pipe; nothing is pickled on the way in.  The pipes
    are read in chunk order, so the error raised is the first chunk's, as
    the lowest walk id's would be; a child that ends without a whole result
    raises HyperwalkError, however much of its stream came through.
    However this returns or raises, every child has been reaped.  Elsewhere
    the chunks run here one after another.
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
            try:
                ok, value = pickle.load(pipe)
            except Exception as exc:    # a stream cut short: the exit status tells
                ok, value = False, exc
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                raise HyperwalkError(
                    f"walks {ids.start}-{ids.stop - 1}: their process ended without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})")
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
    """A forked child that runs fn(ids), streams (ok, result or exception)
    pickled into a pipe and exits, with status 0 once all of it is written;
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
            with open(w, "wb") as pipe:
                pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
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


def ensemble_stats(tallies, config: WalkConfig) -> EnsembleStats:
    """The statistics of the walks of `tallies`, the chunks' `_Tally`s in
    walk-id order, from their per-walk arrays."""
    final = np.concatenate([t.final for t in tallies])
    n = len(final)
    qs = _percentiles(final, (5, 25, 50, 75, 95))
    returns = np.concatenate([t.returns for t in tallies]).astype(float)
    escaped = np.concatenate([t.escape for t in tallies]) != 0
    returned = returns >= 1

    def frac(flags):
        p = float(np.mean(flags))
        hw = Z99 * math.sqrt(p * (1.0 - p) / n) if n > 0 else math.inf
        return p, hw

    p_esc, hw_esc = frac(escaped)
    p_ret, hw_ret = frac(returned)

    # summed walk by walk, in walk-id order
    dr_n = sum(t.tail_count * len(t.ids) for t in tallies)
    dr_sum, dr_sq = (sum(walk_sums) for walk_sums in np.concatenate(
        [t.tail for t in tallies], axis=1).tolist())
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


def _hit_probe(config: WalkConfig, steps: int, hit, far: float = math.inf) -> ProbeEstimate:
    """The fraction of walks that hit at some step 0 .. `steps`.

    The walks run in lockstep over their own streams, and each stops at its
    first hit, so an error after it does not count.  `hit(n, R)` maps the
    running walks' directions (None in radial-only mode) and radii to the
    mask of the walks that hit.  A walk whose radius passes `far`, where
    `hit` cannot read it, is dropped with an error before its hit is read.
    """
    cfg = dataclasses.replace(config, steps=steps)
    successes = 0
    for n, walks in _lockstep_states(cfg, range(config.walks)):
        if not walks.R.max(initial=0.0) <= far:
            walks.drop(walks.R > far, lambda i: OverflowGuardError(
                f"walk {walks.ids[i]}: k*R passed {TURN_KR_LIMIT} at step {n}, past which "
                f"the probe cannot resolve a step's move across the radius"))
        hits = hit(walks.n, walks.R)
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
    return _hit_probe(config, horizon, lambda n, R: R >= r)


def neighborhood_return_probe(config: WalkConfig, target_center_radius: float,
                              target_radius: float, m: int) -> ProbeEstimate:
    """Estimate the probability of hitting an off-origin ball within m steps.

    Needs full positions and a dense-support law, so the config must use
    ambient mode with a box law.  The target ball sits at the given radius
    along the first geodesic axis, at any radius; the walks' distances to
    its centre are geometry's polar `_distance` on H_k.  A walk whose kR
    passes TURN_KR_LIMIT, where a step's turn leaves the normal doubles and
    its move across the radius is lost, is dropped with an
    OverflowGuardError, which the probe raises.  This estimates the
    one-shot hitting probability only; the chain revisits any neighbourhood
    infinitely often exactly when such probabilities stay bounded away from
    zero, which is an argument, not a computation.
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

    if config.model.is_hyperbolic:
        axis = np.eye(config.model.d)[0]
        far = TURN_KR_LIMIT / config.model.k

        def inside(n, R):
            return _distance(R, n, target_center_radius, axis, config.model.k) < target_radius
    else:
        far = math.inf

        def inside(n, R):
            u = R[:, None] * n
            u[:, 0] -= target_center_radius
            return np.sqrt(_rowdot(u, u)) < target_radius
    return _hit_probe(config, m, inside, far)
