"""Walk-engine tests: coupling, determinism, probes, ensemble statistics."""

import collections
import dataclasses
import math
import os
import pickle
import signal
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import hyperwalk as hw
from hyperwalk.errors import (
    DomainError,
    HyperwalkError,
    InvariantViolationError,
    OverflowGuardError,
    UsageError,
)
from hyperwalk import geometry, simulator
from hyperwalk.simulator import (
    MODE_AMBIENT,
    MODE_RADIAL_ONLY,
    WalkConfig,
    _lockstep_states,
    ensemble_stats,
    walk_rng,
)
from hyperwalk.validation import suite_exact_radial_increment, suite_geodesic_step

C1 = hw.RadialProfile.constant(1.0)
HYP2 = hw.CurvatureModel.hyperbolic(1.0, 2)
EUC2 = hw.CurvatureModel.euclidean(2)

ELLIPTIC = hw.EllipticLaw(C1, C1, 2)
ZERO_LAW = hw.CustomLaw(lambda r, d, rng: (0.0, np.zeros(d - 1)), 2,
                        bound=0.0, symmetric=True, name="zero")


def radii_of(record):
    return np.array([R for _, R in record.radii])


class TestWalkConfig:
    def test_mode_validation(self):
        with pytest.raises(DomainError):
            WalkConfig(HYP2, ELLIPTIC, 10, 1, 0, mode="sideways")

    def test_dimension_mismatch(self):
        law3 = hw.EllipticLaw(C1, C1, 3)
        with pytest.raises(DomainError):
            WalkConfig(HYP2, law3, 10, 1, 0)

    @pytest.mark.parametrize("start", [math.nan, -1.0])
    def test_start_radius_must_be_nonnegative(self, start):
        # a NaN start used to pass, and an ambient walk then failed at step 1
        # with an overflow error that named the wrong cause
        with pytest.raises(DomainError, match="start_radius"):
            WalkConfig(HYP2, ELLIPTIC, 10, 1, 0, mode=MODE_AMBIENT, start_radius=start)


class TestRunWalk:
    def test_zero_law_is_stationary(self):
        for mode in (MODE_AMBIENT, MODE_RADIAL_ONLY):
            cfg = WalkConfig(HYP2, ZERO_LAW, 50, 1, 0, mode=mode,
                             start_radius=2.0, record_stride=1)
            rec = hw.run_walk(cfg, 0)
            assert np.all(radii_of(rec) == 2.0)
            assert rec.returns == 0 and rec.escape_step is None

    def test_modes_couple_exactly_on_shared_draws(self):
        base = dict(model=HYP2, law=ELLIPTIC, steps=100, walks=1, seed=11,
                    record_stride=1, escape_radius=1e9)
        rec_a = hw.run_walk(WalkConfig(mode=MODE_AMBIENT, **base), 0, rng=walk_rng(11, 0))
        rec_r = hw.run_walk(WalkConfig(mode=MODE_RADIAL_ONLY, **base), 0, rng=walk_rng(11, 0))
        assert _exact(rec_a) == _exact(rec_r)

    def test_euclidean_modes_couple(self):
        law = hw.EllipticLaw(hw.RadialProfile.constant(1.2), C1, 2)
        base = dict(model=EUC2, law=law, steps=200, walks=1, seed=3, record_stride=1)
        rec_a = hw.run_walk(WalkConfig(mode=MODE_AMBIENT, **base), 0, rng=walk_rng(3, 0))
        rec_r = hw.run_walk(WalkConfig(mode=MODE_RADIAL_ONLY, **base), 0, rng=walk_rng(3, 0))
        assert _exact(rec_a) == _exact(rec_r)

    @pytest.mark.parametrize("model", [HYP2, hw.CurvatureModel.hyperbolic(1.0, 3), EUC2],
                             ids=["H2", "H3", "flat"])
    @pytest.mark.parametrize("kind", ["elliptic", "box", "heavytail", "inwardbiased"])
    def test_ambient_radii_are_radial_only_radii(self, kind, model):
        # an ambient step is the radial-only step and a turn of the direction
        law = TestLockstepCoupling.LAWS[kind](model.d)
        base = dict(model=model, law=law, steps=300, walks=4, seed=19, record_stride=1,
                    start_radius=0.5, escape_radius=1e9)
        rec_a, stats_a = hw.run_ensemble(WalkConfig(mode=MODE_AMBIENT, **base))
        rec_r, stats_r = hw.run_ensemble(WalkConfig(mode=MODE_RADIAL_ONLY, **base))
        assert [_exact(r) for r in rec_a] == [_exact(r) for r in rec_r]
        assert stats_a == stats_r

    @pytest.mark.parametrize("start", [0.0, 2.0])
    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_ambient_walks_start_on_the_first_axis(self, model, start):
        # at the origin, on the frames' stand-in -e_1
        cfg = WalkConfig(model, ELLIPTIC, 3, 2, 0, mode=MODE_AMBIENT, start_radius=start)
        _, walks = next(_lockstep_states(cfg, range(2)))
        assert walks.n.tolist() == [[1.0 if start else -1.0, 0.0]] * 2

    def test_radius_stays_nonnegative_and_steps_bounded(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 500, 1, 5, mode=MODE_RADIAL_ONLY,
                         record_stride=1, escape_radius=1e9)
        radii = radii_of(hw.run_walk(cfg, 0))
        assert np.all(radii >= 0.0)
        bound = ELLIPTIC.step_bound()
        assert np.all(np.abs(np.diff(radii)) <= bound + 1e-9)

    def test_ambient_walk_has_no_radius_limit(self):
        # from k R = 10^4, where cosh kR is far past the double range
        base = dict(model=HYP2, law=ELLIPTIC, steps=500, walks=3, seed=5, record_stride=1,
                    start_radius=1e4, escape_radius=1e12)
        rec_a, _ = hw.run_ensemble(WalkConfig(mode=MODE_AMBIENT, **base))
        rec_r, _ = hw.run_ensemble(WalkConfig(mode=MODE_RADIAL_ONLY, **base))
        assert [_exact(r) for r in rec_a] == [_exact(r) for r in rec_r]
        assert min(r.final_R for r in rec_a) > 1e4

    def test_radial_only_has_no_radius_limit(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 10_000, 1, 5, mode=MODE_RADIAL_ONLY,
                         escape_radius=1e12)
        rec = hw.run_walk(cfg, 0)
        assert rec.final_R > 700.0  # as far out as cosh kR nears the double maximum

    def test_returns_count_entries_after_burn_in(self):
        # deterministic sawtooth: out 3 steps, in 3 steps, period 6
        state = {"n": 0}

        def saw(r, d, rng):
            state["n"] += 1
            return (1.0, np.zeros(d - 1)) if (state["n"] - 1) % 6 < 3 else \
                (-1.0, np.zeros(d - 1))

        law = hw.CustomLaw(saw, 2, bound=1.0, name="sawtooth")
        cfg = WalkConfig(EUC2, law, 60, 1, 0, mode=MODE_RADIAL_ONLY,
                         ball_radius=2.5, burn_in=0, record_stride=1)
        rec = hw.run_walk(cfg, 0)
        # radius cycles 0,1,2,3,2,1,0...; entries into {R < 2.5} at each 3->2
        assert rec.returns == 10
        state["n"] = 0
        cfg2 = WalkConfig(EUC2, law, 60, 1, 0, mode=MODE_RADIAL_ONLY,
                          ball_radius=2.5, burn_in=30, record_stride=1)
        assert hw.run_walk(cfg2, 0).returns == 5

    def test_transient_growth_rate_matches_drift_estimate(self):
        # final radii grow linearly; the regression slope over the tail of
        # the walk must sit within 10% of the Monte Carlo drift functional
        cfg = WalkConfig(HYP2, ELLIPTIC, 3000, 8, 77, mode=MODE_RADIAL_ONLY,
                         record_stride=50, escape_radius=1e9)
        records, _ = hw.run_ensemble(cfg)
        slopes = []
        for rec in records:
            steps = np.array([s for s, _ in rec.radii], dtype=float)
            radii = radii_of(rec)
            sel = steps > 1500
            slopes.append(np.polyfit(steps[sel], radii[sel], 1)[0])
        nu1, _ = hw.increment_moment_estimate(ELLIPTIC, 1.0, 1000.0, 100_000,
                                              walk_rng(78, 0))
        assert np.mean(slopes) == pytest.approx(nu1.value, rel=0.10)

    def test_submartingale_for_zero_drift_law(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 2000, 20, 17, mode=MODE_RADIAL_ONLY,
                         escape_radius=1e9)
        records, st = hw.run_ensemble(cfg)
        assert st.drift_estimate >= -st.drift_half_width

    def test_escape_step_recorded(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 2000, 1, 5, mode=MODE_RADIAL_ONLY,
                         escape_radius=50.0)
        rec = hw.run_walk(cfg, 0)
        assert rec.escape_step is not None
        assert rec.final_R > 50.0


def _per_step(law):
    """The same law behind CustomLaw, which walks sample once per step."""
    return hw.CustomLaw(lambda r, d, rng: law.sample_components(r, rng), law.d)


def _exact(record):
    """A record's outputs, with every float spelled by its bits."""
    return ([(n, float(R).hex()) for n, R in record.radii], record.returns,
            record.escape_step, float(record.tail_dr_sum).hex(),
            float(record.tail_dr_sumsq).hex(), record.tail_dr_count)


def _couple(config, make_rng):
    """Run the walk with block draws and with per-step draws from equal
    streams; require identical outputs and identical rng states after."""
    per_step = WalkConfig(config.model, _per_step(config.law), config.steps, 1, config.seed,
                          config.mode, config.record_stride, config.ball_radius,
                          config.burn_in, config.start_radius, config.escape_radius)
    rng_block, rng_step = make_rng(), make_rng()
    with pytest.MonkeyPatch.context() as mp:
        # the block walk must not fall back to per-step sampling
        mp.setattr(type(config.law), "sample_components", None)
        rec_block = hw.run_walk(config, 0, rng=rng_block)
    rec_step = hw.run_walk(per_step, 0, rng=rng_step)
    assert _exact(rec_block) == _exact(rec_step)
    assert rng_block.bit_generator.state == rng_step.bit_generator.state
    return rng_block, rng_step


class ZeroRowRng:
    """A Generator whose normal row number `zero_at` (counting the rows of
    every standard_normal call) comes back as zeros."""

    def __init__(self, seed, zero_at):
        self._rng = walk_rng(seed, 0)
        self.bit_generator = self._rng.bit_generator
        self.zero_at = zero_at
        self.rows = 0

    def standard_normal(self, size):
        g = self._rng.standard_normal(size)
        rows = g.reshape(-1, g.shape[-1])
        if 0 <= self.zero_at - self.rows < len(rows):
            rows[self.zero_at - self.rows] = 0.0
        self.rows += len(rows)
        return g


LAW_KINDS = ["elliptic", "box", "heavytail", "inwardbiased"]


class TestBlockDrawCoupling:
    """Walks of every built-in law draw their rows in blocks; they must give
    the bytes and leave the stream where per-step sample_components calls
    do."""

    @staticmethod
    def _law(kind, profile, d):
        b = C1 if profile == "const" else hw.RadialProfile.power_decay(1.0, 1.0)
        if kind == "heavytail":
            # "powerdecay": an activation length that grows from 1 to 3
            lam = None if profile == "const" else hw.RadialProfile.power_decay(3.0, -0.5)
            return hw.HeavyTailLaw(4.0, d, lam)
        if kind == "inwardbiased":
            return hw.InwardBiasedLaw(0.25 if profile == "const" else 0.4, d)
        cls = hw.EllipticLaw if kind == "elliptic" else hw.BoxLaw
        return cls(hw.RadialProfile.constant(0.8), b, d)

    @staticmethod
    def _model(geometry, d):
        if geometry == "hyperbolic":
            return hw.CurvatureModel.hyperbolic(1.0, d)
        return hw.CurvatureModel.euclidean(d)

    @pytest.mark.parametrize("profile", ["const", "powerdecay"])
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", LAW_KINDS)
    def test_radial_only_matches_per_step_draws(self, kind, d, geometry, profile):
        steps = 2 * simulator.BLOCK_STEPS + 7      # crosses two block boundaries
        config = WalkConfig(self._model(geometry, d), self._law(kind, profile, d), steps, 1, 31,
                            mode=MODE_RADIAL_ONLY, record_stride=1, ball_radius=3.0,
                            burn_in=0, escape_radius=40.0)
        _couple(config, lambda: walk_rng(31, 0))

    @pytest.mark.parametrize("profile", ["const", "powerdecay"])
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", LAW_KINDS)
    def test_ambient_matches_per_step_draws(self, kind, d, geometry, profile, monkeypatch):
        # an ambient step costs ~50 us, so these walks cross the block
        # boundaries of a smaller block
        monkeypatch.setattr(simulator, "BLOCK_STEPS", 32)
        config = WalkConfig(self._model(geometry, d), self._law(kind, profile, d), 100, 1, 32,
                            mode=MODE_AMBIENT, record_stride=1, ball_radius=3.0,
                            burn_in=0, escape_radius=20.0)
        _couple(config, lambda: walk_rng(32, 0))

    @pytest.mark.parametrize("kind", ["elliptic", "heavytail", "inwardbiased"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_zero_norm_row_is_resampled_as_per_step(self, mode, kind):
        steps = 150 if mode == MODE_AMBIENT else simulator.BLOCK_STEPS + 50
        zero_at = min(steps, simulator.BLOCK_STEPS) - 60        # inside the first block
        config = WalkConfig(HYP2, self._law(kind, "powerdecay", 2), steps, 1, 33,
                            mode=mode, record_stride=1, escape_radius=1e9)
        rng_block, rng_step = _couple(config, lambda: ZeroRowRng(33, zero_at))
        # the zero row was dropped and one more row drawn in its place
        assert rng_block.rows == rng_step.rows == steps + 1

    def test_heavytail_activation_tie_draws_as_one_radius(self, monkeypatch):
        # over the walks' radii lambda(R) = R^(1/3) takes numpy's power, which
        # at this R is one ulp above Python's; a step whose length is
        # Python's lambda(R) must still be activated, as sample_components
        # at R activates it
        law = hw.HeavyTailLaw(4.0, 2)
        p = 1.0 / (law.m - 1.0)
        grid = np.linspace(2.0, 1e4, 100_001)
        ties = np.flatnonzero(np.power(grid, p) > np.array([r ** p for r in grid.tolist()]))
        if not ties.size:
            pytest.skip("numpy's power is Python's at every radius tried: no tie can arise")
        R = float(grid[ties[0]])
        y = R ** p
        assert np.power(np.full(3, R), p)[0] > y
        # every row: length y, inward (u = 0.9), transverse direction +1
        monkeypatch.setattr(hw.HeavyTailLaw, "unit_rows",
                            lambda self, m, rng: np.tile([y, 0.9, 1.0], (m, 1)))
        cfg = WalkConfig(HYP2, law, 1, 3, 0, mode=MODE_RADIAL_ONLY, start_radius=R)
        walks = simulator._Lockstep(cfg, range(3), [None] * 3)
        d_rad, t = walks._draw(1)[:2]
        want_rad, want_t = law.sample_components(R, None)
        assert want_rad != -y                   # the offset is on
        assert d_rad.tobytes() == np.full(3, want_rad).tobytes()
        assert t.tobytes() == np.tile(want_t, (3, 1)).tobytes()


class BadStepSampler:
    """Unit outward steps, except a radial component `value` on draw
    `bad[j]` from walk j's stream (`bad[None]` for every walk not listed);
    the transverse part is zero throughout.  Draws are counted per stream,
    so the walks may draw in any order."""

    def __init__(self, value, bad):
        self.value, self.bad = value, bad
        self.calls = collections.Counter()

    def __call__(self, r, d, rng):
        self.calls[rng] += 1
        walk = rng.bit_generator.seed_seq.spawn_key[0]
        bad = self.calls[rng] == self.bad.get(walk, self.bad.get(None))
        return (self.value if bad else 1.0), np.zeros(d - 1)


def bad_step_law(value, bad_step, d=2):
    """Unit outward steps, except a radial component `value` on the
    `bad_step`-th draw of each walk's stream; `bad_step` may instead map
    walk ids to the draw that goes bad in that walk alone."""
    bad = bad_step if isinstance(bad_step, dict) else {None: bad_step}
    return hw.CustomLaw(BadStepSampler(value, bad), d, name="bad-step")


class TestNonFiniteStep:
    """A step of non-finite length raises, naming the step and the walk,
    instead of leaving a NaN radius or a walker that silently stays put."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_raises_naming_step_and_walk(self, value, model, mode):
        cfg = WalkConfig(model, bad_step_law(value, 4), 10, 3, 0, mode=mode)
        with pytest.raises(InvariantViolationError, match=r"^walk 2: step 4 has non-finite"):
            hw.run_walk(cfg, 2)

    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_non_finite_transverse_part_raises(self, mode):
        law = hw.CustomLaw(lambda r, d, rng: (0.5, np.array([math.nan])), 2)
        cfg = WalkConfig(HYP2, law, 5, 1, 0, mode=mode)
        with pytest.raises(InvariantViolationError, match="step 1 has non-finite"):
            hw.run_walk(cfg, 0)


class TestOverflowingStep:
    """A finite step whose length squares past the double range drops its
    walk with an error that says so, and numpy warns of nothing."""

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    @pytest.mark.parametrize("law", [
        bad_step_law(1e160, 3),
        hw.EllipticLaw(hw.RadialProfile.constant(1e160), C1, 2),
        hw.EllipticLaw(hw.RadialProfile.constant(1e160), hw.RadialProfile.power_decay(1.0, 1.0),
                       2),
    ], ids=["custom", "radius-free", "radius-dependent"])
    def test_raises_naming_the_overflow(self, law, mode, model):
        cfg = WalkConfig(model, law, 5, 2, 0, mode=mode)
        step = 3 if law.kind == "custom" else 1
        with pytest.raises(InvariantViolationError,
                           match=rf"^walk 1: step {step} is finite, but its length overflows"):
            hw.run_walk(cfg, 1)


def nan_rows(bad):
    """BoxLaw.unit_rows with a NaN radial part in the row of step `bad[j]`
    of walk j, counting rows per stream."""
    original = hw.BoxLaw.unit_rows
    drawn = collections.Counter()

    def unit_rows(self, m, rng):
        walk = rng.bit_generator.seed_seq.spawn_key[0]
        rows = original(self, m, rng)
        i = bad.get(walk, 0) - 1 - drawn[rng]
        drawn[rng] += len(rows)
        if 0 <= i < len(rows):
            rows[i, 0] = math.nan
        return rows
    return unit_rows


class TestProbeNonFiniteStep:
    """The probes run their walks through the same driver as run_walk, so a
    non-finite step in a probe names its walk too."""

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_escape_probe_names_the_walk(self, model, mode):
        # unit outward steps never reach r
        cfg = WalkConfig(model, bad_step_law(math.nan, {2: 4}), 1, 3, 0, mode=mode)
        with pytest.raises(InvariantViolationError, match=r"^walk 2: step 4 has non-finite"):
            hw.escape_probe(cfg, r=1e9, horizon=10)

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_neighborhood_probe_names_the_walk(self, model, monkeypatch):
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", nan_rows({2: 4}))
        cfg = WalkConfig(model, hw.BoxLaw(C1, C1, 2), 1, 3, 0, mode=MODE_AMBIENT)
        # 10 steps of at most BoxLaw.step_bound() = 2.45 cannot reach the far ball
        with pytest.raises(InvariantViolationError, match=r"^walk 2: step 4 has non-finite"):
            hw.neighborhood_return_probe(cfg, 50.0, 0.5, 10)


class TestProbePins:
    """Successes of seeded probe runs, stored from the first validated run:
    the probes count exactly the walks they counted before they moved onto
    the shared walk driver."""

    ESCAPE = [  # geometry, d, law, mode, start radius, r, horizon, walks, seed: successes
        (("hyperbolic", 2, "elliptic", MODE_RADIAL_ONLY, 0.0, 8.0, 12, 40, 71), 18),
        (("hyperbolic", 3, "box", MODE_AMBIENT, 0.5, 6.0, 6, 30, 72), 17),
        # taken again (was 9) when heavy-tail steps came to be drawn from
        # normals; over 2,000 walks (seeds 73-122) both draws hit 27-28%.
        # 4 of 40 is the lowest count of those 50 seeds and sits in the lower
        # 0.5% tail of Binomial(40, 0.28); the lowest of 50 seeds falls there
        # one time in five, and walks 0-9 of each seed escape at 27%
        (("euclidean", 2, "heavytail", MODE_RADIAL_ONLY, 0.0, 6.0, 8, 40, 73), 4),
        (("euclidean", 3, "elliptic", MODE_AMBIENT, 1.0, 3.5, 6, 30, 74), 26),
    ]
    # The neighbourhood probe reads positions, so its counts follow the
    # orientation of the transverse axes; these were stored when the axes
    # became one Householder reflection.  Over 2,000 walks per case the hit
    # rates agreed with the Gram-Schmidt axes' within a 99% binomial bound.
    NEIGHBORHOOD = [  # geometry, d, start radius, center, radius, m, walks, seed: successes
        (("hyperbolic", 2, 0.0, 2.0, 1.0, 30, 40, 75), 6),
        (("hyperbolic", 3, 0.0, 2.5, 1.0, 15, 30, 76), 0),
        (("euclidean", 2, 0.0, 3.0, 1.0, 40, 40, 77), 16),
        (("euclidean", 3, 0.0, 2.0, 1.0, 10, 30, 78), 8),
    ]

    @staticmethod
    def _model(geometry, d):
        if geometry == "hyperbolic":
            return hw.CurvatureModel.hyperbolic(1.0, d)
        return hw.CurvatureModel.euclidean(d)

    @pytest.mark.parametrize("case, successes", ESCAPE)
    def test_escape_probe(self, case, successes):
        geometry, d, kind, mode, start, r, horizon, walks, seed = case
        law = {"elliptic": hw.EllipticLaw(C1, C1, d), "box": hw.BoxLaw(C1, C1, d),
               "heavytail": hw.HeavyTailLaw(4.0, d)}[kind]
        cfg = WalkConfig(self._model(geometry, d), law, 1, walks, seed, mode=mode,
                         start_radius=start)
        res = hw.escape_probe(cfg, r, horizon)
        assert (res.successes, res.trials) == (successes, walks)

    @pytest.mark.parametrize("case, successes", NEIGHBORHOOD)
    def test_neighborhood_return_probe(self, case, successes):
        geometry, d, start, center, radius, m, walks, seed = case
        cfg = WalkConfig(self._model(geometry, d), hw.BoxLaw(C1, C1, d), 1, walks, seed,
                         mode=MODE_AMBIENT, start_radius=start)
        res = hw.neighborhood_return_probe(cfg, center, radius, m)
        assert (res.successes, res.trials) == (successes, walks)


class TestAmbientPositions:
    """Ambient positions depend on the orientation of each frame's
    transverse axes, which the radii do not: R after a step depends only on
    R, d_rad and |t|.  These final positions of one 25-step box walk pin
    that orientation: the Householder reflection's, stored when it replaced
    a Gram-Schmidt completion (the per-step radii, and so x_0, agreed with
    that completion's within 3e-15 * max(1, R)), and stored as hyperboloid
    or flat coordinates, which the polar walk's (R, n) give as
    (cosh kR, sinh kR n) / k or R n.  The d = 2 hyperbolic walk kept its
    orientation."""

    FINAL = {
        ("hyperbolic", 3): [1940582958.8851597, 1187472052.7463381,
                            1035099878.6638685, -1133287512.2632935],
        ("hyperbolic", 2): [121877.21876578926, 57872.27960622391, 107260.69040549338],
        ("euclidean", 3): [-4.468160729568562, 7.036932411874005, -4.888628032303841],
        ("euclidean", 2): [5.7861388903556055, 3.310890325210483],
    }

    @pytest.mark.parametrize("kind, d", list(FINAL))
    def test_final_position_matches_stored_run(self, kind, d):
        model = (hw.CurvatureModel.hyperbolic(1.0, d) if kind == "hyperbolic"
                 else hw.CurvatureModel.euclidean(d))
        cfg = WalkConfig(model, hw.BoxLaw(C1, C1, d), 25, 1, 90907,
                         mode=MODE_AMBIENT, start_radius=0.5)
        *_, (_, walks) = _lockstep_states(cfg, range(1))
        R, n = walks.R[0], walks.n[0]
        x = np.concatenate([[math.cosh(R)], math.sinh(R) * n]) if kind == "hyperbolic" else R * n
        assert x == pytest.approx(self.FINAL[kind, d], rel=1e-9)


class TestPolarStep:
    """The ambient walk's turn against the hyperboloid oracle, step by step:
    from each walk's (R, n), `_exp_step` along the same tangent step,
    read in the hyperboloid frame at (R, n), must end in the walk's new
    direction."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["elliptic", "box"])
    def test_turn_matches_the_exp_step(self, kind, d, monkeypatch):
        exact, worst, steps = simulator._turn, [0.0], [0]

        def checked(n, t, R, d_rad, d_tot, k, opp):
            out = exact(n, t, R, d_rad, d_tot, k, opp)
            for i in np.flatnonzero(d_tot > 0.0):
                a = k * R[i]
                x = np.concatenate([[math.cosh(a)], math.sinh(a) * n[i]]) / k
                v = geometry._tangent_axes(x, k).step(d_rad[i], t[i])
                y = geometry._exp_step(x, v, d_tot[i], k)[1:]
                worst[0] = max(worst[0], float(np.linalg.norm(y / np.linalg.norm(y) - out[i])))
            steps[0] += 1
            return out
        monkeypatch.setattr(simulator, "_turn", checked)
        cfg = WalkConfig(hw.CurvatureModel.hyperbolic(1.0, d), TestLockstepCoupling.LAWS[kind](d),
                         250, 8, 23, mode=MODE_AMBIENT, escape_radius=1e9)
        simulator._chunk_tally(cfg, range(8))
        assert steps[0] == 250
        assert worst[0] <= 1e-12


class TestLockstepCoupling:
    """Walks advance together in a lockstep, in either mode; each walk must
    hold the bytes it holds when run alone, whichever chunk it runs in."""

    LAWS = {
        "elliptic": lambda d: hw.EllipticLaw(hw.RadialProfile.constant(0.8),
                                             hw.RadialProfile.power_decay(1.0, 1.0), d),
        "box": lambda d: hw.BoxLaw(C1, hw.RadialProfile.constant(0.7), d),
        "heavytail": lambda d: hw.HeavyTailLaw(4.0, d),
        "inwardbiased": lambda d: hw.InwardBiasedLaw(0.3, d),
    }

    @staticmethod
    def config(kind, d, geometry, start, steps, walks=6, mode=MODE_AMBIENT, **kw):
        model = (hw.CurvatureModel.hyperbolic(1.0, d) if geometry == "hyperbolic"
                 else hw.CurvatureModel.euclidean(d))
        return WalkConfig(model, TestLockstepCoupling.LAWS[kind](d), steps, walks, 41,
                          mode=mode, **{**dict(record_stride=1, ball_radius=2.0,
                                               start_radius=start, escape_radius=8.0), **kw})

    @pytest.mark.parametrize("start", [0.0, 1.5])
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("kind, d", [("elliptic", 2), ("elliptic", 3), ("box", 2),
                                         ("box", 3), ("heavytail", 2), ("heavytail", 3),
                                         ("inwardbiased", 2), ("inwardbiased", 3)])
    @pytest.mark.parametrize("mode", [MODE_AMBIENT, MODE_RADIAL_ONLY])
    def test_every_walk_equals_run_walk(self, mode, kind, d, geometry, start, monkeypatch):
        # 6 walks share T-blocks of 4 steps, so 30 steps cross seven of
        # them, both the draws' and the records'
        monkeypatch.setattr(simulator, "LOCKSTEP_ROWS", 24)
        cfg = self.config(kind, d, geometry, start, 30, mode=mode)
        records, _ = hw.run_ensemble(cfg)
        assert [_exact(r) for r in records] == [_exact(hw.run_walk(cfg, j)) for j in range(6)]
        # a chunk of walks 2..4 alone gives the same bytes
        chunk = simulator._chunk_tally(cfg, range(2, 5)).records()
        assert [_exact(r) for r in chunk] == [_exact(r) for r in records[2:5]]

    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("kind", ["elliptic", "heavytail", "inwardbiased"])
    @pytest.mark.parametrize("mode", [MODE_AMBIENT, MODE_RADIAL_ONLY])
    def test_zero_and_one_step(self, mode, kind, geometry, steps):
        cfg = self.config(kind, 2, geometry, 1.5, steps, mode=mode)
        records, _ = hw.run_ensemble(cfg)
        assert [_exact(r) for r in records] == [_exact(hw.run_walk(cfg, j)) for j in range(6)]
        assert all(len(r.radii) == steps + 1 for r in records)

    @pytest.mark.parametrize("kind", ["box", "heavytail", "inwardbiased"])
    @pytest.mark.parametrize("mode", [MODE_AMBIENT, MODE_RADIAL_ONLY])
    def test_chunks_in_two_processes_give_the_same_bytes(self, mode, kind, monkeypatch, forks):
        monkeypatch.setattr(simulator, "LOCKSTEP_ROWS", 24)
        cfg = self.config(kind, 3, "hyperbolic", 0.0, 40, walks=7, mode=mode)
        one, stats_one = hw.run_ensemble(cfg, workers=1)
        two, stats_two = hw.run_ensemble(cfg, workers=2)
        assert len(forks) == 1
        assert [_exact(r) for r in one] == [_exact(r) for r in two]
        assert stats_one == stats_two

    @staticmethod
    def step_by_step(config, walk_id):
        """A radial-only walk as a loop over steps: one sample_components
        call, the scalar kernel, and the record's sums taken one step at a
        time."""
        rng, law, model = walk_rng(config.seed, walk_id), config.law, config.model
        T, R = config.steps, config.start_radius
        rec = simulator.TrajectoryRecord(walk_id, [(0, R)], 0, None, R)
        for n in range(1, T + 1):
            d_rad, t = law.sample_components(R, rng)
            d_tot = math.sqrt(d_rad * d_rad + float(t @ t))
            if model.is_hyperbolic:
                phi = min(1.0, max(-1.0, d_rad / d_tot if d_tot > 0.0 else 0.0))
                new = max(R + hw.radial_increment_exact(R, d_tot, phi, model.k), 0.0)
            else:
                d_rad = min(d_tot, max(-d_tot, d_rad))
                new = max(R + hw.euclidean_radial_increment(R, d_tot, d_rad), 0.0)
            if n % config.record_stride == 0 or n == T:
                rec.radii.append((n, new))
            rec.returns += n > config.burn_in and R >= config.ball_radius > new
            if rec.escape_step is None and new > config.escape_radius:
                rec.escape_step = n
            if n > T - max(1, T // 4):
                rec.tail_dr_sum += new - R
                rec.tail_dr_sumsq += (new - R) * (new - R)
                rec.tail_dr_count += 1
            R = new
        rec.final_R = R
        return rec

    @pytest.mark.parametrize("kind, d, geometry", [
        ("elliptic", 2, "hyperbolic"), ("box", 3, "hyperbolic"), ("elliptic", 2, "euclidean"),
        ("box", 3, "euclidean"), ("heavytail", 2, "euclidean")])
    def test_radial_walks_match_a_step_by_step_loop(self, kind, d, geometry, monkeypatch):
        # flat walks hold the loop's bytes: their kernel is the scalar one's
        # arithmetic over arrays, and the tail sums accumulate in its order.
        # On H_k numpy's transcendentals are not libm's, so radii agree to
        # rounding and every count is the same.  Not for heavy-tail steps on
        # H_k: with phi within 1e-12 of -1 and kR, k d_tot both near 30 the
        # scalar kernel's direct arccosh cancels (1.3e-4 against the true
        # 8.7e-6 at one step of these walks), where the log form does not.
        monkeypatch.setattr(simulator, "LOCKSTEP_ROWS", 24)
        cfg = self.config(kind, d, geometry, 0.5, 200, mode=MODE_RADIAL_ONLY,
                          record_stride=7, ball_radius=3.0, burn_in=20, escape_radius=12.0)
        records, _ = hw.run_ensemble(cfg)
        loops = [self.step_by_step(cfg, j) for j in range(6)]
        if geometry == "euclidean":
            assert [_exact(r) for r in records] == [_exact(r) for r in loops]
            return
        for got, want in zip(records, loops):
            assert [n for n, _ in got.radii] == [n for n, _ in want.radii]
            assert radii_of(got) == pytest.approx(radii_of(want), rel=1e-12, abs=1e-12)
            assert (got.returns, got.escape_step, got.tail_dr_count) == (
                want.returns, want.escape_step, want.tail_dr_count)

    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_AMBIENT, MODE_RADIAL_ONLY])
    def test_drops_inside_a_block_of_radius_free_steps(self, mode, geometry, monkeypatch):
        # T-blocks of 4 steps: 5..8 is the second.  Walk 1 stops after step
        # 5, as a probe's hit stops it, with a NaN row still ahead at step 6;
        # walk 3's step 7 is NaN, which drops walk 4 with it.  The block's
        # steps, lengths and longest lengths must follow the walks kept.
        monkeypatch.setattr(simulator, "BLOCK_STEPS", 4)
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", nan_rows({1: 6, 3: 7}))
        model = HYP2 if geometry == "hyperbolic" else EUC2
        cfg = WalkConfig(model, hw.BoxLaw(C1, C1, 2), 12, 5, 41, mode=mode, start_radius=0.5)
        radii = collections.defaultdict(list)
        for n, walks in _lockstep_states(cfg, range(5)):
            for j, R in zip(walks.ids.tolist(), walks.R.tolist()):
                radii[j].append(R)
            if n == 5:
                walks.drop(walks.ids == 1)
        assert walks.ids.tolist() == [0, 2]
        for j in (0, 2):
            assert radii[j] == radii_of(hw.run_walk(cfg, j)).tolist()
        assert len(radii[1]) == 6 and len(radii[3]) == len(radii[4]) == 7
        with pytest.raises(InvariantViolationError, match=r"^walk 3: step 7 has non-finite"):
            walks.raise_first()

    def test_zero_steps_leave_their_walk_in_place(self):
        # walks 0 and 2 take zero steps between moving walks
        def sample(r, d, rng):
            moving = rng.bit_generator.seed_seq.spawn_key[0] % 2
            return 0.5 * moving, np.full(d - 1, 0.25 * moving)
        law = hw.CustomLaw(sample, 2)
        cfg = WalkConfig(HYP2, law, 10, 3, 0, mode=MODE_AMBIENT, start_radius=2.0)
        records, _ = hw.run_ensemble(cfg)
        assert radii_of(records[0]).tolist() == [2.0] * 11
        assert _exact(records[1]) == _exact(hw.run_walk(cfg, 1))

    def test_step_too_long_for_the_hyperboloid_is_taken(self):
        # cosh(800) overflows, which stopped a walk on the hyperboloid; the
        # polar walk takes the step as the radial-only walk does
        law = bad_step_law(800.0, 2)
        walks = {mode: hw.run_walk(WalkConfig(HYP2, law, 5, 1, 0, mode=mode), 0)
                 for mode in (MODE_AMBIENT, MODE_RADIAL_ONLY)}
        assert _exact(walks[MODE_AMBIENT]) == _exact(walks[MODE_RADIAL_ONLY])
        assert radii_of(walks[MODE_AMBIENT]).tolist() == [0.0, 1.0, 801.0, 802.0, 803.0, 804.0]


@st.composite
def lockstep_draws(draw):
    """(k, radii, directions, d_rad, t) of W walks about to take one ambient
    step, on both sides of each of its guards: k R at the origin, near 700,
    where cosh kR overflows, and at 10^4; zero, non-finite and inward steps
    onto the origin; k = 0 for flat space."""
    k = draw(st.one_of(st.floats(0.25, 2.0), st.just(0.0)))
    d, W = draw(st.integers(2, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R, N = np.empty(W), rng.standard_normal((W, d))
    N /= np.sqrt(geometry._rowdot(N, N))[:, None]
    D, T = np.zeros(W), np.zeros((W, d - 1))
    for i in range(W):
        R[i] = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(699.5, 700.5),
                              st.just(1e4))) / (k or 1.0)
        kind = draw(st.sampled_from(["step", "step", "zero", "onto-origin", "non-finite"]))
        if kind in ("step", "non-finite"):
            D[i] = draw(st.floats(-1.0, 1.0))
            T[i] = draw(st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=d - 1))
        elif kind == "onto-origin":
            D[i] = -R[i]
        if kind == "non-finite":
            row = np.concatenate([[D[i]], T[i]])
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([math.nan, math.inf]))
            D[i], T[i] = row[0], row[1:]
    return k, R, N, D, T


class TestLockstepRows:
    """The ambient step's guards are reductions over all the walks, and a
    guard's mask is built only when it fires; each walk must still come out
    of a step as it does stepped alone, and be dropped with the same
    error."""

    @staticmethod
    def step(cfg, ids, R, N):
        walks = simulator._Lockstep(cfg, ids, ids)
        walks.R, walks.n = R[ids].copy(), N[ids].copy()
        walks.step(1)
        return ([(j, float(r).hex(), n.tobytes()) for j, r, n in
                 zip(walks.ids.tolist(), walks.R, walks.n)],
                {j: (type(e), str(e)) for j, e in walks.errors.items()})

    @given(lockstep_draws())
    @settings(max_examples=300, deadline=None)
    def test_each_walk_steps_as_it_does_alone(self, drawn):
        k, R, N, D, T = drawn
        W, d = R.size, N.shape[1]
        # walk j's "stream" is j, from which it draws its step (D[j], T[j])
        law = hw.CustomLaw(lambda r, d, j: (D[j], T[j]), d)
        model = hw.CurvatureModel.hyperbolic(k, d) if k else hw.CurvatureModel.euclidean(d)
        cfg = WalkConfig(model, law, 1, W, 0, mode=MODE_AMBIENT)
        rows, errors = self.step(cfg, list(range(W)), R, N)
        alone = [self.step(cfg, [j], R, N) for j in range(W)]
        first = min((j for j, (_, e) in enumerate(alone) if e), default=W)
        # walks after the first that fails are dropped with it
        assert rows == [row for j in range(first) for row in alone[j][0]]
        assert errors == {j: e for _, alone_errors in alone for j, e in alone_errors.items()}

    def test_short_steps_from_the_origin_are_kept(self):
        # steps of 1e-9 straight outward, which acosh(k x0) cannot resolve
        law = hw.CustomLaw(lambda r, d, rng: (1e-9, np.zeros(d - 1)), 2)
        record = hw.run_walk(WalkConfig(HYP2, law, 4, 1, 0, mode=MODE_AMBIENT), 0)
        assert radii_of(record) == pytest.approx([0.0, 1e-9, 2e-9, 3e-9, 4e-9], rel=1e-12, abs=0.0)


class TestNearInwardStep:
    """A long step close to straight inward: its 1 + phi = 2q/(1 + q),
    q = e^-y, is below the rounding of phi = d_rad/d_tot, so the radial
    step takes it from |t|^2.  Against 60-digit mpmath at R = 30, k = 1:
    taken from phi, y = 20 was off by 9e-9 and y = 40 read straight inward.
    The walk finds such steps by their length, so a custom law that
    understates its step bound gets them too."""

    @staticmethod
    def reference(R, d_rad, t_sq):
        with mpmath.workdps(60):
            R, d_rad, t_sq = (mpmath.mpf(x) for x in (R, d_rad, t_sq))
            d_tot = mpmath.sqrt(d_rad * d_rad + t_sq)
            z = (mpmath.cosh(R) * mpmath.cosh(d_tot)
                 + d_rad / d_tot * mpmath.sinh(R) * mpmath.sinh(d_tot))
            return float(mpmath.acosh(z) - R)

    @pytest.mark.parametrize("bound", [math.inf, 1.0], ids=["unbounded", "understated"])
    @pytest.mark.parametrize("y", [15.0, 20.0, 25.0, 40.0])
    def test_radial_step_matches_mpmath(self, y, bound):
        R = 30.0
        offset = hw.heavytail_inward_offset(y, 1.0)
        d_rad = (offset - 1.0) * y
        t = np.array([y * math.sqrt(offset * (2.0 - offset))])
        law = hw.CustomLaw(lambda r, d, rng: (d_rad, t), 2, bound=bound)
        cfg = WalkConfig(HYP2, law, 1, 1, 0, mode=MODE_RADIAL_ONLY, start_radius=R,
                         escape_radius=1e9)
        got = hw.run_walk(cfg, 0).final_R - R
        want = self.reference(R, d_rad, float(t @ t))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def set_rows(cls, rows):
    """cls.unit_rows with rows[j, n] in place of the n-th row walk j draws,
    counting rows per stream."""
    original = cls.unit_rows
    drawn = collections.Counter()

    def unit_rows(self, m, rng):
        walk = rng.bit_generator.seed_seq.spawn_key[0]
        u = original(self, m, rng)
        first = drawn[rng]
        drawn[rng] += m
        for (j, n), row in rows.items():
            if j == walk and first < n <= first + m:
                u[n - first - 1] = row
        return u
    return unit_rows


class TestHoistedGuards:
    """The radial step's guards read bounds mapped once per T-block: a
    bounded built-in law's step bound for the longest length, each step's
    least |d_rad| for the shortest, and, for a law whose steps do not depend
    on the radius, each step's edge and zero-length flags.  On each side of
    each bound every walk of a lockstep must hold the bytes it holds alone
    and those of the same steps drawn one at a time behind a custom law,
    which trusts no bound; flat walks also those of a step-by-step loop.
    T-blocks of 4 steps: steps 5..8 are the second."""

    PROFILES = {"const": C1, "powerdecay": hw.RadialProfile.power_decay(1.0, 1.0)}

    @staticmethod
    def check(cfg, monkeypatch):
        monkeypatch.setattr(simulator, "BLOCK_STEPS", 4)
        lockstep = [_exact(r) for r in simulator._chunk_tally(cfg, range(cfg.walks)).records()]
        assert lockstep == [_exact(hw.run_walk(cfg, j)) for j in range(cfg.walks)]
        per_step = dataclasses.replace(cfg, law=_per_step(cfg.law))
        assert lockstep == [_exact(hw.run_walk(per_step, j)) for j in range(cfg.walks)]
        if not cfg.model.is_hyperbolic:
            loop = TestLockstepCoupling.step_by_step
            assert lockstep == [_exact(loop(cfg, j)) for j in range(cfg.walks)]
        return lockstep

    @staticmethod
    def config(model, law, **kw):
        return WalkConfig(model, law, 12, 3, 5, mode=MODE_RADIAL_ONLY,
                          **{**dict(record_stride=1, burn_in=0, escape_radius=1e9), **kw})

    @pytest.mark.parametrize("profile", ["const", "powerdecay"])
    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_edge_steps_inside_a_block(self, model, profile, monkeypatch):
        # walk 1 stays put at step 1, on H^2 from R = 0.8, where the log form
        # of a zero step reads 4e-17, and in flat space from the origin,
        # where a step divides by its length; again at step 6, and walk 2 at
        # step 7.  Walk 0 steps straight outward and inward (phi = +-1).
        zero = np.zeros(2)
        rows = {(1, 1): zero, (1, 6): zero, (2, 7): zero,
                (0, 2): np.array([0.5, 0.0]), (0, 7): np.array([-0.5, 0.0])}
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", set_rows(hw.BoxLaw, rows))
        cfg = self.config(model, hw.BoxLaw(C1, self.PROFILES[profile], 2),
                          start_radius=0.8 if model.is_hyperbolic else 0.0)
        radii = [[float.fromhex(R) for _, R in walk[0]] for walk in self.check(cfg, monkeypatch)]
        assert radii[1][1] == radii[1][0] and radii[1][6] == radii[1][5]
        assert radii[2][7] == radii[2][6]

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_tiny_radial_part_with_no_transverse_part(self, model, monkeypatch):
        # d_rad = 1.4e-170 squares to 0, so the step has length 0 although
        # its |d_rad| is positive: below 2^-500 |d_rad| bounds no length
        tiny = np.array([1e-170, 0.0])
        monkeypatch.setattr(hw.EllipticLaw, "unit_rows",
                            set_rows(hw.EllipticLaw, {(0, 1): tiny, (1, 5): tiny}))
        cfg = self.config(model, hw.EllipticLaw(C1, self.PROFILES["powerdecay"], 2))
        radii = [[float.fromhex(R) for _, R in walk[0]] for walk in self.check(cfg, monkeypatch)]
        assert radii[0][1] == 0.0 and radii[1][5] == radii[1][4]

    @pytest.mark.parametrize("profile", ["const", "powerdecay"])
    def test_long_steps_close_to_straight_inward(self, profile, monkeypatch):
        # at k = 3 a step of the bound sqrt(2) is past the direct length, so
        # 1 + phi of a step 0.01 off straight inward comes from |t|^2
        inward = np.array([-math.cos(0.01), math.sin(0.01)])
        monkeypatch.setattr(hw.EllipticLaw, "unit_rows", set_rows(
            hw.EllipticLaw, {(0, 2): inward, (1, 3): inward, (2, 6): inward, (2, 7): inward}))
        law = hw.EllipticLaw(C1, self.PROFILES[profile], 2)
        model = hw.CurvatureModel.hyperbolic(3.0, 2)
        assert 3.0 * law.step_bound() > geometry._D_DIRECT
        self.check(self.config(model, law, start_radius=0.5), monkeypatch)

    @pytest.mark.parametrize("profile", ["const", "powerdecay"])
    def test_flat_radial_part_past_an_underflowed_length(self, profile, monkeypatch):
        # d_rad = 1e-162 squares to 0: the step's length is 0, and its
        # d_rad, clamped to it, leaves R = 1e-150 where it is
        under = np.array([1e-162 / math.sqrt(2.0), 0.0])
        monkeypatch.setattr(hw.EllipticLaw, "unit_rows",
                            set_rows(hw.EllipticLaw, {(0, 1): under, (2, 6): under}))
        cfg = self.config(EUC2, hw.EllipticLaw(C1, self.PROFILES[profile], 2),
                          start_radius=1e-150)
        radii = [[float.fromhex(R) for _, R in walk[0]] for walk in self.check(cfg, monkeypatch)]
        assert radii[0][1] == 1e-150

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_drop_inside_a_block_maps_the_bounds_again(self, model, monkeypatch):
        # walk 2's step 6 is NaN: once it is dropped, the block's longest
        # lengths are those of the walks kept, and the guard stays quiet
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", nan_rows({2: 6}))
        monkeypatch.setattr(simulator, "BLOCK_STEPS", 4)
        cfg = self.config(model, hw.BoxLaw(C1, C1, 2))
        walks = simulator._Lockstep(cfg, range(3), [walk_rng(cfg.seed, j) for j in range(3)])
        radii = []
        for n in range(1, 9):
            walks.step(n)
            radii.append(walks.R.copy())
            if n == 6:
                assert walks.ids.tolist() == [0, 1]
                assert np.isfinite(walks._longest).all()
                assert walks._longest.tobytes() == walks._block[2].max(axis=1).tobytes()
        for j, column in zip((0, 1), np.array(radii[6:]).T):
            assert column.tolist() == radii_of(hw.run_walk(cfg, j))[7:9].tolist()

    @pytest.mark.parametrize("a, trusted", [(7e149, True), (1e150, False)])
    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_bound_is_read_only_below_the_limit(self, model, a, trusted, monkeypatch):
        # a law bounded at 1.4e150 takes each step's longest length instead
        law = hw.EllipticLaw(hw.RadialProfile.constant(a), hw.RadialProfile.power_decay(a, 1.0),
                             2)
        cfg = self.config(model, law)
        assert (simulator._Lockstep(cfg, range(1), [None])._bound is not None) == trusted
        self.check(cfg, monkeypatch)


class TestErrorPrecedence:
    """Walk 1 fails at step 9 and walk 2 at step 3: run one by one, walk 1
    raises first, and so must the lockstep and the forked chunks."""

    BAD = {1: 9, 2: 3}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_ensemble(self, mode, model, workers, forks):
        cfg = WalkConfig(model, bad_step_law(math.nan, self.BAD), 12, 4, 0, mode=mode)
        with pytest.raises(InvariantViolationError, match=r"^walk 1: step 9 has non-finite"):
            hw.run_ensemble(cfg, workers=workers)
        assert len(forks) == workers - 1

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_escape_probe(self, mode, model):
        cfg = WalkConfig(model, bad_step_law(math.nan, self.BAD), 1, 4, 0, mode=mode)
        with pytest.raises(InvariantViolationError, match=r"^walk 1: step 9 has non-finite"):
            hw.escape_probe(cfg, r=1e9, horizon=12)

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_neighborhood_probe(self, model, monkeypatch):
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", nan_rows(self.BAD))
        cfg = WalkConfig(model, hw.BoxLaw(C1, C1, 2), 1, 4, 0, mode=MODE_AMBIENT)
        with pytest.raises(InvariantViolationError, match=r"^walk 1: step 9 has non-finite"):
            hw.neighborhood_return_probe(cfg, 50.0, 0.5, 12)

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_escape_probe_walk_that_hits_first_does_not_raise(self, mode, model):
        # unit outward steps reach r = 2.5 at step 3, before walk 1's bad step 4
        cfg = WalkConfig(model, bad_step_law(math.nan, {1: 4}), 1, 3, 0, mode=mode)
        assert hw.escape_probe(cfg, r=2.5, horizon=12).successes == 3

    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    def test_neighborhood_probe_walk_that_hits_first_does_not_raise(self, model, monkeypatch):
        # the target is the start ball, hit at step 0
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", nan_rows({1: 2}))
        cfg = WalkConfig(model, hw.BoxLaw(C1, C1, 2), 1, 3, 0, mode=MODE_AMBIENT)
        assert hw.neighborhood_return_probe(cfg, 0.0, 1.0, 5).successes == 3


class TestSharedKernels:
    """Negative controls: the ambient walk and the geodesic-step suite take
    the one turn in geometry, and both oracle suites the one exp step, so a
    perturbed kernel shows in them."""

    def test_perturbed_turn_fails_the_suite_and_moves_the_walk(self, monkeypatch):
        cfg = WalkConfig(HYP2, ELLIPTIC, 30, 1, 5, mode=MODE_AMBIENT)

        def final(cfg):
            *_, (_, walks) = _lockstep_states(cfg, range(1))
            return walks.R.tobytes(), walks.n.tobytes()
        R, n = final(cfg)
        assert suite_geodesic_step(n=200).passed
        exact = geometry._turn
        assert simulator._turn is exact

        def wider(n, t, *args):
            # a transverse part 1e-6 longer turns the direction further
            return exact(n, (1.0 + 1e-6) * t, *args)
        for owner in (geometry, simulator):     # wherever callers look it up
            monkeypatch.setattr(owner, "_turn", wider)
        assert not suite_geodesic_step(n=200).passed
        assert suite_exact_radial_increment(n=200).passed
        R_turned, n_turned = final(cfg)
        assert R_turned == R and n_turned != n      # the radii do not read the turn

    def test_perturbed_exp_step_fails_both_oracles(self, monkeypatch):
        exact = geometry._exp_step

        def further(x, v, length, k):
            # 1e-6 further along the same geodesic, so still on the hyperboloid
            return exact(x, (1.0 + 1e-6) * v, (1.0 + 1e-6) * length, k)
        monkeypatch.setattr(geometry, "_exp_step", further)
        assert not suite_exact_radial_increment(n=200).passed
        assert not suite_geodesic_step(n=200).passed

    def test_step_off_the_hyperboloid_fails_the_oracle(self, monkeypatch):
        # reported as a failing suite, not raised out of validate
        exact = geometry._exp_step
        monkeypatch.setattr(geometry, "_exp_step",
                            lambda x, v, length, k: exact(x, v, (1.0 + 1e-4) * length, k))
        for res in (suite_exact_radial_increment(n=200), suite_geodesic_step(n=200)):
            assert not res.passed
            assert "hyperboloid drift" in res.detail


class TestEnsemble:
    def test_single_walk_reduces_to_run_walk(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 100, 1, 9, mode=MODE_RADIAL_ONLY)
        records, st = hw.run_ensemble(cfg)
        solo = hw.run_walk(cfg, 0)
        assert records[0].final_R == solo.final_R
        assert st.quantiles[50] == solo.final_R

    def test_same_seed_reproduces_stats(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 200, 10, 12, mode=MODE_RADIAL_ONLY)
        _, s1 = hw.run_ensemble(cfg)
        _, s2 = hw.run_ensemble(cfg)
        assert s1 == s2

    def test_worker_count_does_not_change_results(self, forks):
        cfg = WalkConfig(HYP2, ELLIPTIC, 150, 12, 21, mode=MODE_RADIAL_ONLY)
        r1, s1 = hw.run_ensemble(cfg, workers=1)
        r2, s2 = hw.run_ensemble(cfg, workers=2)
        assert len(forks) == 1
        assert s1 == s2
        for a, b in zip(r1, r2):
            assert a.walk_id == b.walk_id and a.radii == b.radii

    @pytest.mark.parametrize("workers, walks, cores, processes", [
        (5000, 3, 8, 3),        # one process per walk at most
        (5000, 30, 4, 4),       # one per usable core at most
        (2, 30, 4, 2),
        (3, 30, None, 3),       # no sched_getaffinity: os.cpu_count() decides
        (1, 30, 4, 1),          # one worker or fewer runs in process
        (0, 30, 4, 1),
        (4, 1, 4, 1),
        (4, 30, 1, 1),
    ])
    def test_processes_are_capped_at_walks_and_usable_cores(self, workers, walks, cores,
                                                            processes, monkeypatch, forks):
        _offer_cores(monkeypatch, cores)
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, walks, 21, mode=MODE_RADIAL_ONLY)
        records, stats = hw.run_ensemble(cfg, workers=workers)
        assert len(forks) == processes - 1      # the calling process is one of them
        assert [r.walk_id for r in records] == list(range(walks))
        assert stats == hw.run_ensemble(cfg)[1]

    @pytest.mark.parametrize("workers, walks, steps, cores, processes", [
        (4, 10, 19, 4, 1),      # 190 walk-steps: not enough for two processes
        (4, 10, 20, 4, 2),      # 200: two processes of 100 each
        (4, 10, 35, 4, 3),
        (2, 10, 100, 4, 2),     # the workers cap the floor's 10 processes
        (8, 3, 100, 8, 3),      # the walks do
        (8, 10, 100, 2, 2),     # the usable cores do
        (3, 30, 20, None, 3),   # os.cpu_count() does, without sched_getaffinity
        (4, 10, 0, 4, 1),       # no step, no fork
    ])
    def test_each_process_gets_the_fork_floor_of_walk_steps(self, workers, walks, steps,
                                                            cores, processes, monkeypatch,
                                                            fork_calls):
        monkeypatch.setattr(simulator, "FORK_MIN_WALKS", 1)
        monkeypatch.setattr(simulator, "FORK_MIN_WALK_STEPS", 100)
        _offer_cores(monkeypatch, cores)
        cfg = WalkConfig(HYP2, ELLIPTIC, steps, walks, 21, mode=MODE_RADIAL_ONLY)
        records, stats = hw.run_ensemble(cfg, workers=workers)
        assert len(fork_calls) == processes - 1
        solo, solo_stats = hw.run_ensemble(cfg)
        assert [_exact(r) for r in records] == [_exact(r) for r in solo]
        assert stats == solo_stats

    @pytest.mark.parametrize("walks, processes", [
        (19, 1), (20, 1), (39, 1),    # two processes of ten walks lose (BENCH_29's sweep)
        (40, 2), (61, 3), (100, 4),
    ])
    def test_each_process_gets_the_fork_floor_of_walks(self, walks, processes, monkeypatch,
                                                       fork_calls):
        monkeypatch.setattr(simulator, "FORK_MIN_WALK_STEPS", 1)
        _offer_cores(monkeypatch, 4)
        cfg = WalkConfig(EUC2, ELLIPTIC, 3, walks, 21, mode=MODE_RADIAL_ONLY)
        records, stats = hw.run_ensemble(cfg, workers=4)
        assert len(fork_calls) == processes - 1
        assert simulator.FORK_MIN_WALKS == 20
        solo, solo_stats = hw.run_ensemble(cfg)
        assert [_exact(r) for r in records] == [_exact(r) for r in solo]
        assert stats == solo_stats

    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_one_contiguous_chunk_per_process(self, mode, monkeypatch, forks):
        chunks, here = [], []
        mapped, chunk_tally = simulator._map, simulator._chunk_tally
        monkeypatch.setattr(simulator, "_map",
                            lambda fn, items: chunks.extend(items) or mapped(fn, items))
        # a child's append lands in its own copy of `here`, so only the
        # calling process's chunks show up in this one
        monkeypatch.setattr(simulator, "_chunk_tally",
                            lambda cfg, ids: here.append(ids) or chunk_tally(cfg, ids))
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 10, 21, mode=mode)
        records, stats = hw.run_ensemble(cfg, workers=3)
        assert chunks == [range(0, 3), range(3, 6), range(6, 10)]
        assert here == [range(0, 3)]
        assert len(forks) == 2
        solo, solo_stats = hw.run_ensemble(cfg)
        assert stats == solo_stats
        assert [r.radii for r in records] == [r.radii for r in solo]

    def test_chunks_run_in_process_off_linux(self, monkeypatch, forks):
        here, chunk_tally = [], simulator._chunk_tally
        monkeypatch.setattr(simulator, "_chunk_tally",
                            lambda cfg, ids: here.append(ids) or chunk_tally(cfg, ids))
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(simulator.sys, "platform", "darwin")
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 10, 21, mode=MODE_RADIAL_ONLY)
        records, stats = hw.run_ensemble(cfg, workers=3)
        assert (forks, here) == ([], [range(0, 3), range(3, 6), range(6, 10)])
        assert stats == hw.run_ensemble(cfg)[1]

    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_closure_sampler_runs_in_children(self, mode, forks):
        # nothing is pickled on the way to a child, so a lambda sampler works
        scale = 0.8
        law = hw.CustomLaw(lambda r, d, rng: (scale * rng.uniform(-1.0, 1.0),
                                              scale * rng.uniform(-1.0, 1.0, d - 1)),
                           2, bound=scale * math.sqrt(2.0), symmetric=True, name="closure")
        cfg = WalkConfig(HYP2, law, 30, 5, 13, mode=mode)
        one, stats_one = hw.run_ensemble(cfg, workers=1)
        two, stats_two = hw.run_ensemble(cfg, workers=2)
        assert len(forks) == 1
        assert [_exact(r) for r in one] == [_exact(r) for r in two]
        assert stats_one == stats_two

    def test_quantiles_monotone_and_fractions_bounded(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 300, 30, 8, mode=MODE_RADIAL_ONLY,
                         escape_radius=20.0)
        _, st = hw.run_ensemble(cfg)
        q = [st.quantiles[p] for p in (5, 25, 50, 75, 95)]
        assert all(b >= a for a, b in zip(q, q[1:]))
        assert 0.0 <= st.fraction_escaped <= 1.0
        assert 0.0 <= st.fraction_returned <= 1.0

    def test_quantiles_match_numpy_percentile(self):
        # numpy's linear rule, bit for bit, on arrays with and without ties
        rng = np.random.default_rng(17)
        ps = (5, 25, 50, 75, 95)
        for n in range(1, 120):
            for x in (rng.exponential(50.0, n), rng.integers(0, 4, n).astype(float)):
                want = {p: float(np.percentile(x, p)) for p in ps}
                assert simulator._percentiles(x, ps) == want

    def test_distributional_mode_equivalence_ks(self):
        # smaller cousin of the acceptance check
        base = dict(model=HYP2, law=ELLIPTIC, steps=100, walks=400,
                    escape_radius=1e9, record_stride=100)
        rec_a, _ = hw.run_ensemble(WalkConfig(mode=MODE_AMBIENT, seed=1000, **base))
        rec_r, _ = hw.run_ensemble(WalkConfig(mode=MODE_RADIAL_ONLY, seed=2000, **base))
        fa = [r.final_R for r in rec_a]
        fr = [r.final_R for r in rec_r]
        assert stats.ks_2samp(fa, fr).pvalue > 0.01


def _offer_cores(monkeypatch, cores):
    """A host whose usable cores are `cores`, or, for None, one without
    sched_getaffinity whose os.cpu_count() is 3."""
    if cores is None:
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(simulator.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleep_in_child_interrupt_here(ids):
    if ids.start:
        time.sleep(60)
    raise KeyboardInterrupt


class _KilledWhenPickled:
    """An object whose pickling kills its process with SIGKILL."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def _dump_half_then_die(obj, file, protocol):
    """pickle.dump that writes the first half of the pickle, then kills its
    process with SIGKILL."""
    data = pickle.dumps(obj, protocol)
    file.write(data[:len(data) // 2])
    file.flush()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="chunks fork only on Linux")
class TestForkedChunks:
    """Chunk 0 runs in the calling process and each other chunk in a forked
    child; whichever way `run_ensemble` ends, it leaves no child and no
    open pipe behind."""

    @pytest.fixture(autouse=True)
    def two_cores(self, forks):
        fds = _open_fds()
        yield
        _assert_no_child_left()
        assert _open_fds() == fds

    def test_success(self, forks):
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 4, 21, mode=MODE_RADIAL_ONLY)
        assert hw.run_ensemble(cfg, workers=2)[1] == hw.run_ensemble(cfg)[1]
        assert len(forks) == 1

    @pytest.mark.parametrize("bad, walk, step", [
        ({2: 3}, 2, 3),             # only in the child's chunk
        ({0: 5}, 0, 5),             # only in this process's chunk
        ({1: 9, 2: 3}, 1, 9),       # in both: chunk 0's, as walk by walk
    ])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_first_error_in_chunk_order_is_raised(self, mode, bad, walk, step, forks):
        cfg = WalkConfig(HYP2, bad_step_law(math.nan, bad), 12, 4, 0, mode=mode)
        with pytest.raises(InvariantViolationError,
                           match=rf"^walk {walk}: step {step} has non-finite"):
            hw.run_ensemble(cfg, workers=2)
        assert len(forks) == 1

    def test_child_that_ends_without_a_result(self, monkeypatch, forks):
        chunk_tally = simulator._chunk_tally
        monkeypatch.setattr(simulator, "_chunk_tally",
                            lambda cfg, ids: os._exit(3) if ids.start else chunk_tally(cfg, ids))
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 5, 21, mode=MODE_RADIAL_ONLY)
        with pytest.raises(HyperwalkError,
                           match=r"^walks 2-4: their process ended without a result "
                                 r"\(exit status 3\)$"):
            hw.run_ensemble(cfg, workers=2)
        assert len(forks) == 1

    @pytest.mark.parametrize("spell", [None, lambda ids, steps, radii: "text"])
    @pytest.mark.parametrize("cut", ["between-opcodes", "inside-an-opcode"])
    def test_child_killed_while_writing_its_result(self, cut, spell, monkeypatch, forks):
        # the caller's pickle.load meets a stream cut short (EOFError or
        # UnpicklingError) and reports how the child ended instead
        if cut == "inside-an-opcode":
            monkeypatch.setattr(simulator.pickle, "dump", _dump_half_then_die)
        else:
            # a MB, more than a pipe holds, goes through before the child dies
            chunk = simulator._chunk
            monkeypatch.setattr(simulator, "_chunk", lambda cfg, ids, spell: (
                (bytes(1 << 20), _KilledWhenPickled()) if ids.start else chunk(cfg, ids, spell)))
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 5, 21, mode=MODE_RADIAL_ONLY)
        with pytest.raises(HyperwalkError,
                           match=r"^walks 2-4: their process ended without a result "
                                 r"\(exit status -9\)$"):
            hw.run_ensemble(cfg, workers=2, spell=spell)
        assert len(forks) == 1

    def test_interrupt_kills_the_children(self, forks):
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulator._map(_sleep_in_child_interrupt_here, [range(0, 1), range(1, 2)])
        assert time.monotonic() - began < 30.0
        assert len(forks) == 1


class TestEscapeProbe:
    def test_certain_escape_for_unit_steps(self):
        # heavy-tail steps have length >= 1 almost surely
        law = hw.HeavyTailLaw(4.0, 2)
        cfg = WalkConfig(HYP2, law, 1, 200, 4, mode=MODE_RADIAL_ONLY)
        res = hw.escape_probe(cfg, r=0.5, horizon=1)
        assert res.estimate == 1.0

    def test_zero_law_never_escapes(self):
        cfg = WalkConfig(HYP2, ZERO_LAW, 1, 100, 4, mode=MODE_RADIAL_ONLY)
        res = hw.escape_probe(cfg, r=0.5, horizon=10)
        assert res.estimate == 0.0

    def test_elliptic_escape_is_likely(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 1, 200, 4, mode=MODE_RADIAL_ONLY)
        res = hw.escape_probe(cfg, r=10.0, horizon=200)
        assert res.estimate - res.half_width > 0.5

    def test_start_radius_precondition(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 1, 10, 4, mode=MODE_RADIAL_ONLY,
                         start_radius=3.0)
        with pytest.raises(UsageError):
            hw.escape_probe(cfg, r=1.0, horizon=5)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_rejected(self, r):
        # a NaN radius used to compare false everywhere and report 0 +- 0
        cfg = WalkConfig(HYP2, ELLIPTIC, 1, 10, 4, mode=MODE_RADIAL_ONLY)
        with pytest.raises(DomainError, match="finite"):
            hw.escape_probe(cfg, r=r, horizon=5)


class TestNeighborhoodReturnProbe:
    BOX = hw.BoxLaw(C1, C1, 2)

    def test_requires_ambient_and_box(self):
        cfg = WalkConfig(HYP2, self.BOX, 10, 10, 4, mode=MODE_RADIAL_ONLY)
        with pytest.raises(UsageError):
            hw.neighborhood_return_probe(cfg, 3.0, 1.0, 10)
        cfg = WalkConfig(HYP2, ELLIPTIC, 10, 10, 4, mode=MODE_AMBIENT)
        with pytest.raises(UsageError):
            hw.neighborhood_return_probe(cfg, 3.0, 1.0, 10)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_is_rejected(self, center):
        cfg = WalkConfig(HYP2, self.BOX, 10, 10, 4, mode=MODE_AMBIENT)
        with pytest.raises(DomainError, match="finite"):
            hw.neighborhood_return_probe(cfg, center, 1.0, 5)

    def test_target_equals_start_ball(self):
        cfg = WalkConfig(HYP2, self.BOX, 10, 50, 4, mode=MODE_AMBIENT)
        res = hw.neighborhood_return_probe(cfg, 0.0, 1.0, 0)
        assert res.estimate == 1.0

    def test_unreachable_target(self):
        # farther than m * step bound from the start
        bound = self.BOX.step_bound()
        cfg = WalkConfig(HYP2, self.BOX, 10, 50, 4, mode=MODE_AMBIENT)
        res = hw.neighborhood_return_probe(cfg, 3 * bound + 2.0, 0.5, 3)
        assert res.estimate == 0.0

    @pytest.mark.parametrize("start", [9.0, 12.0, 15.0, 18.0, 20.0, 25.0, 700.0])
    def test_far_out_target_is_decided(self, start):
        # the target's centre lies along the walks' own axis, its radius
        # 0.25; read off the Minkowski pairing unchecked, every walk "hit" a
        # centre 1.0 out at step 0 from kR ~ 18 on, and checked, the pairing
        # left the distance unresolved from kR ~ 9
        cfg = WalkConfig(HYP2, self.BOX, 10, 20, 4, mode=MODE_AMBIENT, start_radius=start)
        assert hw.neighborhood_return_probe(cfg, start + 1.0, 0.25, 0).successes == 0
        assert hw.neighborhood_return_probe(cfg, start + 0.1, 0.25, 0).successes == 20

    @pytest.mark.parametrize("center", [800.0, 1e4])
    def test_target_past_where_cosh_overflows(self, center):
        # cosh(k R) overflows past kR = 710, which stopped the probe there;
        # the walks never come near the centre
        cfg = WalkConfig(HYP2, self.BOX, 10, 20, 4, mode=MODE_AMBIENT)
        assert hw.neighborhood_return_probe(cfg, center, 1.0, 10).successes == 0

    @pytest.mark.parametrize("start", [800.0, 1e4])
    def test_walks_past_the_turn_limit_raise(self, start):
        # past kR = 745 a step's turn is 0, so the walks would keep to the
        # first axis and hit a ball on it by their radii alone: 20 of 20
        # from R = 800 to the ball about 801.5, against 3 of 20 from R = 5
        # to the ball about 6.5
        cfg = WalkConfig(HYP2, self.BOX, 10, 20, 4, mode=MODE_AMBIENT, start_radius=start)
        with pytest.raises(OverflowGuardError, match=r"walk 0: k\*R passed 700.0 at step 0"):
            hw.neighborhood_return_probe(cfg, start + 1.5, 1.0, 10)
        near = dataclasses.replace(cfg, start_radius=5.0)
        assert hw.neighborhood_return_probe(near, 6.5, 1.0, 10).successes < 20

    def test_walk_that_passes_the_turn_limit_raises(self):
        # from kR = 699.9 the walks pass 700 within the first steps
        cfg = WalkConfig(HYP2, self.BOX, 10, 20, 4, mode=MODE_AMBIENT, start_radius=699.9)
        with pytest.raises(OverflowGuardError, match=r"k\*R passed 700.0 at step [1-9]"):
            hw.neighborhood_return_probe(cfg, 1.0, 0.5, 10)

    def test_resolved_distance_keeps_its_verdict(self):
        cfg = WalkConfig(HYP2, self.BOX, 10, 20, 4, mode=MODE_AMBIENT, start_radius=5.0)
        assert hw.neighborhood_return_probe(cfg, 6.0, 0.25, 0).successes == 0

    def test_nearby_ball_hit_with_positive_probability(self):
        cfg = WalkConfig(HYP2, self.BOX, 50, 200, 4, mode=MODE_AMBIENT)
        res = hw.neighborhood_return_probe(cfg, 3.0, 1.0, 50)
        # positive hitting probability with 99% confidence
        assert res.estimate - res.half_width > 0.0
        assert res.successes >= 10


class TestStatsAssembly:
    def test_drift_pooling_matches_direct_computation(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 100, 5, 30, mode=MODE_RADIAL_ONLY,
                         record_stride=1, escape_radius=1e9)
        records, st = hw.run_ensemble(cfg)
        drs = []
        for rec in records:
            radii = radii_of(rec)
            tail_start = 100 - max(1, 100 // 4)
            drs.extend(np.diff(radii)[tail_start:])
        assert st.drift_estimate == pytest.approx(np.mean(drs), rel=1e-12)

    def test_stats_text_render(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 50, 3, 2, mode=MODE_RADIAL_ONLY)
        _, st = hw.run_ensemble(cfg)
        text = st.as_text()
        assert "final radius quantiles" in text and "tail drift" in text
