"""Walk-engine tests: coupling, determinism, probes, ensemble statistics."""

import collections
import math
import os
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

    def test_radial_only_needs_radial_symmetry(self):
        law = hw.CustomLaw(lambda r, d, rng: (0.0, np.zeros(d - 1)), 2,
                           radially_symmetric=False)
        with pytest.raises(UsageError):
            WalkConfig(HYP2, law, 10, 1, 0, mode=MODE_RADIAL_ONLY)
        WalkConfig(HYP2, law, 10, 1, 0, mode=MODE_AMBIENT)  # fine

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
        ra, rr = radii_of(rec_a), radii_of(rec_r)
        assert np.max(np.abs(ra - rr) / np.maximum(1.0, np.abs(rr))) < 1e-8

    def test_euclidean_modes_couple(self):
        law = hw.EllipticLaw(hw.RadialProfile.constant(1.2), C1, 2)
        base = dict(model=EUC2, law=law, steps=200, walks=1, seed=3, record_stride=1)
        rec_a = hw.run_walk(WalkConfig(mode=MODE_AMBIENT, **base), 0, rng=walk_rng(3, 0))
        rec_r = hw.run_walk(WalkConfig(mode=MODE_RADIAL_ONLY, **base), 0, rng=walk_rng(3, 0))
        assert radii_of(rec_a) == pytest.approx(radii_of(rec_r), rel=1e-9, abs=1e-9)

    def test_radius_stays_nonnegative_and_steps_bounded(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 500, 1, 5, mode=MODE_RADIAL_ONLY,
                         record_stride=1, escape_radius=1e9)
        radii = radii_of(hw.run_walk(cfg, 0))
        assert np.all(radii >= 0.0)
        bound = ELLIPTIC.step_bound()
        assert np.all(np.abs(np.diff(radii)) <= bound + 1e-9)

    def test_overflow_guard_trips(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 10_000, 1, 5, mode=MODE_AMBIENT,
                         escape_radius=1e12)
        with pytest.raises(OverflowGuardError):
            hw.run_walk(cfg, 0)

    def test_radial_only_has_no_radius_limit(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 10_000, 1, 5, mode=MODE_RADIAL_ONLY,
                         escape_radius=1e12)
        rec = hw.run_walk(cfg, 0)
        assert rec.final_R > 700.0  # past the ambient overflow envelope

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
        # an ambient step costs ~50 us and kR must stay below 700, so these
        # walks cross block boundaries of a smaller block
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
    that completion's within 3e-15 * max(1, R)).  The d = 2 hyperbolic walk
    kept its orientation."""

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
        assert walks.x[0] == pytest.approx(self.FINAL[kind, d], rel=1e-9)


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
    def test_chunks_in_two_processes_give_the_same_bytes(self, mode, kind, monkeypatch):
        monkeypatch.setattr(simulator, "LOCKSTEP_ROWS", 24)
        cfg = self.config(kind, 3, "hyperbolic", 0.0, 40, walks=7, mode=mode)
        one, stats_one = hw.run_ensemble(cfg, workers=1)
        two, stats_two = hw.run_ensemble(cfg, workers=2)
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

    def test_step_too_long_for_doubles_raises_overflow(self):
        # cosh(800) overflows: the walk stops with the overflow guard's error
        cfg = WalkConfig(HYP2, bad_step_law(800.0, 2), 5, 1, 0, mode=MODE_AMBIENT)
        with pytest.raises(OverflowGuardError, match="overflowed at step 2"):
            hw.run_walk(cfg, 0)


def masked_ambient_step(walks, n):
    """The hyperbolic ambient step with every guard's mask built and the
    geometry kernels' masked paths taken, as the step ran before its guards
    became reductions."""
    k, limit = walks.config.model.k, simulator.AMBIENT_KR_LIMIT
    far = k * walks.R > limit
    if far.any():
        walks.drop(far, lambda i: OverflowGuardError(
            f"ambient mode exceeded k*R = {limit} at step {n}; "
            "use radial-only mode for long horizons"))
        if not walks.ids.size:
            return
    d_rad, t, _, norm, _ = walks._finite_draw(n)
    x = walks.x
    v = geometry._masked_tangent_axes(x, k, geometry._scaled_norm(x[:, 1:])).step(d_rad, t)
    moving = norm > 0.0
    y = geometry._exp_step(x[moving], v[moving], norm[moving], k)
    R, defect_moving = geometry._masked_reproject(y, k, k * y[:, 0],
                                                  k * geometry._scaled_norm(y[:, 1:]))
    walks.x[moving], walks.R[moving] = y, R
    defect = np.zeros(len(norm))
    defect[moving] = defect_moving
    fault = defect > geometry.REPROJECTION_DRIFT_TOL
    if fault.any():
        walks.drop(fault, lambda i: geometry._reprojection_error(defect[i], n))


@st.composite
def lockstep_draws(draw):
    """(k, points, radii, d_rad, t) of W walks about to take one ambient
    step, on both sides of each of its guards: k R at the origin, near its
    1e-12 and near the limit 700; spatial parts off the sheet by up to 3e-6
    (the drift tolerance is 1e-6); zero and non-finite steps."""
    k, d, W = draw(st.floats(0.25, 2.0)), draw(st.integers(2, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X, R = np.empty((W, d + 1)), np.empty(W)
    D, T = np.zeros(W), np.zeros((W, d - 1))
    for i in range(W):
        kR = draw(st.one_of(st.just(0.0), st.floats(5e-13, 2e-12), st.floats(0.0, 5.0),
                            st.floats(699.5, 700.5)))
        n = rng.standard_normal(d)
        X[i] = np.concatenate([[math.cosh(kR)], math.sinh(kR) * n / np.linalg.norm(n)]) / k
        X[i, 1:] *= 1.0 + draw(st.one_of(st.just(0.0), st.floats(-3e-6, 3e-6)))
        R[i] = kR / k
        kind = draw(st.sampled_from(["step", "step", "zero", "non-finite"]))
        if kind != "zero":
            D[i] = draw(st.floats(-1.0, 1.0))
            T[i] = draw(st.lists(st.floats(-1.0, 1.0), min_size=d - 1, max_size=d - 1))
        if kind == "non-finite":
            row = np.concatenate([[D[i]], T[i]])
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([math.nan, math.inf]))
            D[i], T[i] = row[0], row[1:]
    return k, X, R, D, T


class TestCheckedAmbientStep:
    """The ambient step builds a guard's mask only when a reduction says the
    guard fires; it must leave every walk as the step with every mask built
    does, and drop the same walks with the same errors."""

    @given(lockstep_draws())
    @settings(max_examples=300, deadline=None)
    def test_step_is_masked_step(self, drawn):
        k, X, R, D, T = drawn
        W, d = R.size, X.shape[1] - 1
        cfg = WalkConfig(hw.CurvatureModel.hyperbolic(k, d), hw.EllipticLaw(C1, C1, d), 1, W, 0,
                         mode=MODE_AMBIENT)
        states = []
        for step in (simulator._Lockstep.step, masked_ambient_step):
            walks = simulator._Lockstep(cfg, range(W), [None] * W)
            walks.x, walks.R = X.copy(), R.copy()
            walks._draw = lambda n, w=walks: (D[w.ids], T[w.ids])    # the walks kept
            step(walks, 1)
            states.append((walks.ids.tolist(), walks.R.tobytes(), walks.x.tobytes(),
                           {j: (type(e), str(e)) for j, e in walks.errors.items()}))
        assert states[0] == states[1]

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


class TestErrorPrecedence:
    """Walk 1 fails at step 9 and walk 2 at step 3: run one by one, walk 1
    raises first, and so must the lockstep and the forked chunks."""

    BAD = {1: 9, 2: 3}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model", [HYP2, EUC2], ids=["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_ensemble(self, mode, model, workers):
        cfg = WalkConfig(model, bad_step_law(math.nan, self.BAD), 12, 4, 0, mode=mode)
        with pytest.raises(InvariantViolationError, match=r"^walk 1: step 9 has non-finite"):
            hw.run_ensemble(cfg, workers=workers)

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


class TestSharedExpStep:
    """Negative control: the validate suites and the ambient walk take the
    one exp step in geometry, so a perturbed step shows in all of them."""

    def test_perturbed_step_fails_oracle_and_moves_walk(self, monkeypatch):
        cfg = WalkConfig(HYP2, ELLIPTIC, 30, 1, 5, mode=MODE_AMBIENT)
        before = radii_of(hw.run_walk(cfg, 0))
        assert suite_geodesic_step(n=200).passed
        exact = geometry._exp_step
        assert simulator._exp_step is exact

        def further(x, v, length, k):
            # 1e-6 further along the same geodesic, so still on the hyperboloid
            return exact(x, (1.0 + 1e-6) * v, (1.0 + 1e-6) * length, k)
        for owner in (geometry, simulator):     # wherever callers look it up
            monkeypatch.setattr(owner, "_exp_step", further)
        assert not suite_exact_radial_increment(n=200).passed
        assert not suite_geodesic_step(n=200).passed
        assert not np.array_equal(radii_of(hw.run_walk(cfg, 0)), before)

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

    def test_worker_count_does_not_change_results(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 150, 12, 21, mode=MODE_RADIAL_ONLY)
        r1, s1 = hw.run_ensemble(cfg, workers=1)
        r2, s2 = hw.run_ensemble(cfg, workers=2)
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
                                                            processes, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(simulator.os, "fork", lambda: forks.append(None) or fork())
        if cores is None:
            monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
        else:
            monkeypatch.setattr(simulator.os, "sched_getaffinity",
                                lambda pid: set(range(cores)), raising=False)
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, walks, 21, mode=MODE_RADIAL_ONLY)
        records, stats = hw.run_ensemble(cfg, workers=workers)
        assert len(forks) == processes - 1      # the calling process is one of them
        assert [r.walk_id for r in records] == list(range(walks))
        assert stats == hw.run_ensemble(cfg)[1]

    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_one_contiguous_chunk_per_process(self, mode, monkeypatch):
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
        solo, solo_stats = hw.run_ensemble(cfg)
        assert stats == solo_stats
        assert [r.radii for r in records] == [r.radii for r in solo]

    def test_chunks_run_in_process_off_linux(self, monkeypatch):
        forks, fork, here = [], os.fork, []
        chunk_tally = simulator._chunk_tally
        monkeypatch.setattr(simulator.os, "fork", lambda: forks.append(None) or fork())
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
    def test_closure_sampler_runs_in_children(self, mode, monkeypatch):
        # nothing is pickled on the way to a child, so a lambda sampler works
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        scale = 0.8
        law = hw.CustomLaw(lambda r, d, rng: (scale * rng.uniform(-1.0, 1.0),
                                              scale * rng.uniform(-1.0, 1.0, d - 1)),
                           2, bound=scale * math.sqrt(2.0), symmetric=True, name="closure")
        cfg = WalkConfig(HYP2, law, 30, 5, 13, mode=mode)
        one, stats_one = hw.run_ensemble(cfg, workers=1)
        two, stats_two = hw.run_ensemble(cfg, workers=2)
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


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleep_in_child_interrupt_here(ids):
    if ids.start:
        time.sleep(60)
    raise KeyboardInterrupt


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="chunks fork only on Linux")
class TestForkedChunks:
    """Chunk 0 runs in the calling process and each other chunk in a forked
    child; whichever way `run_ensemble` ends, it leaves no child and no
    open pipe behind."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        fds = _open_fds()
        yield
        _assert_no_child_left()
        assert _open_fds() == fds

    def test_success(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 4, 21, mode=MODE_RADIAL_ONLY)
        assert hw.run_ensemble(cfg, workers=2)[1] == hw.run_ensemble(cfg)[1]

    @pytest.mark.parametrize("bad, walk, step", [
        ({2: 3}, 2, 3),             # only in the child's chunk
        ({0: 5}, 0, 5),             # only in this process's chunk
        ({1: 9, 2: 3}, 1, 9),       # in both: chunk 0's, as walk by walk
    ])
    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_first_error_in_chunk_order_is_raised(self, mode, bad, walk, step):
        cfg = WalkConfig(HYP2, bad_step_law(math.nan, bad), 12, 4, 0, mode=mode)
        with pytest.raises(InvariantViolationError,
                           match=rf"^walk {walk}: step {step} has non-finite"):
            hw.run_ensemble(cfg, workers=2)

    def test_child_that_ends_without_a_result(self, monkeypatch):
        chunk_tally = simulator._chunk_tally
        monkeypatch.setattr(simulator, "_chunk_tally",
                            lambda cfg, ids: os._exit(3) if ids.start else chunk_tally(cfg, ids))
        cfg = WalkConfig(HYP2, ELLIPTIC, 20, 5, 21, mode=MODE_RADIAL_ONLY)
        with pytest.raises(HyperwalkError,
                           match=r"^walks 2-4: their process ended without a result "
                                 r"\(exit status 3\)$"):
            hw.run_ensemble(cfg, workers=2)

    def test_interrupt_kills_the_children(self):
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulator._map(_sleep_in_child_interrupt_here, [range(0, 1), range(1, 2)])
        assert time.monotonic() - began < 30.0


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

    @pytest.mark.parametrize("start", [9.0, 12.0, 15.0, 18.0, 20.0, 25.0])
    def test_far_out_target_is_decided(self, start):
        # the target's centre lies along the walks' own axis, its radius
        # 0.25; read off the Minkowski pairing unchecked, every walk "hit" a
        # centre 1.0 out at step 0 from kR ~ 18 on, and checked, the pairing
        # left the distance unresolved from kR ~ 9
        cfg = WalkConfig(HYP2, self.BOX, 10, 20, 4, mode=MODE_AMBIENT, start_radius=start)
        assert hw.neighborhood_return_probe(cfg, start + 1.0, 0.25, 0).successes == 0
        assert hw.neighborhood_return_probe(cfg, start + 0.1, 0.25, 0).successes == 20

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
