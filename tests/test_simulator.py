"""Walk-engine tests: coupling, determinism, probes, ensemble statistics."""

import math

import numpy as np
import pytest
from scipy import stats

import hyperwalk as hw
from hyperwalk.errors import (
    DomainError,
    InvariantViolationError,
    OverflowGuardError,
    UsageError,
)
from hyperwalk.simulator import (
    MODE_AMBIENT,
    MODE_RADIAL_ONLY,
    WalkConfig,
    _ambient_positions,
    ensemble_stats,
    walk_rng,
)

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


class TestBlockDrawCoupling:
    """Elliptic and box walks draw in blocks; they must give the bytes and
    leave the stream where per-step sample_components calls do."""

    @staticmethod
    def _law(kind, profile, d):
        b = C1 if profile == "const" else hw.RadialProfile.power_decay(1.0, 1.0)
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
    @pytest.mark.parametrize("kind", ["elliptic", "box"])
    def test_radial_only_matches_per_step_draws(self, kind, d, geometry, profile):
        steps = 2 * hw.increments.BLOCK_ROWS + 7          # crosses two block boundaries
        config = WalkConfig(self._model(geometry, d), self._law(kind, profile, d), steps, 1, 31,
                            mode=MODE_RADIAL_ONLY, record_stride=1, ball_radius=3.0,
                            burn_in=0, escape_radius=40.0)
        _couple(config, lambda: walk_rng(31, 0))

    @pytest.mark.parametrize("profile", ["const", "powerdecay"])
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["elliptic", "box"])
    def test_ambient_matches_per_step_draws(self, kind, d, geometry, profile, monkeypatch):
        # an ambient step costs ~50 us and kR must stay below 700, so these
        # walks cross block boundaries of a smaller block
        monkeypatch.setattr(hw.increments, "BLOCK_ROWS", 32)
        config = WalkConfig(self._model(geometry, d), self._law(kind, profile, d), 100, 1, 32,
                            mode=MODE_AMBIENT, record_stride=1, ball_radius=3.0,
                            burn_in=0, escape_radius=20.0)
        _couple(config, lambda: walk_rng(32, 0))

    @pytest.mark.parametrize("mode", [MODE_RADIAL_ONLY, MODE_AMBIENT])
    def test_zero_norm_row_is_resampled_as_per_step(self, mode):
        steps = 150 if mode == MODE_AMBIENT else hw.increments.BLOCK_ROWS + 50
        zero_at = steps - 60        # inside the first block
        config = WalkConfig(HYP2, self._law("elliptic", "powerdecay", 2), steps, 1, 33,
                            mode=mode, record_stride=1, escape_radius=1e9)
        rng_block, rng_step = _couple(config, lambda: ZeroRowRng(33, zero_at))
        # the zero row was dropped and one more row drawn in its place
        assert rng_block.rows == rng_step.rows == steps + 1


def bad_step_law(value, bad_step, d=2):
    """Unit outward steps, except a radial component `value` on the
    `bad_step`-th draw; the transverse part is zero throughout."""
    calls = []

    def sample(r, d, rng):
        calls.append(r)
        return (value if len(calls) == bad_step else 1.0), np.zeros(d - 1)
    return hw.CustomLaw(sample, d, name="bad-step")


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


class TestAmbientPositions:
    """Ambient positions depend on the orientation of each frame's
    transverse axes, which the radii do not: R after a step depends only on
    R, d_rad and |t|.  These final positions of one 25-step box walk pin
    that orientation (values of the first validated run)."""

    FINAL = {
        ("hyperbolic", 3): [1940582958.8851655, 446230666.43631387,
                            1437289604.982815, 1225128158.2167842],
        ("hyperbolic", 2): [121877.21876578926, 57872.27960622391, 107260.69040549338],
        ("euclidean", 3): [5.591081799685659, -0.21363639031584536, 7.878815007012481],
        ("euclidean", 2): [4.7853994208875665, -4.641266032735777],
    }

    @pytest.mark.parametrize("kind, d", list(FINAL))
    def test_final_position_matches_stored_run(self, kind, d):
        model = (hw.CurvatureModel.hyperbolic(1.0, d) if kind == "hyperbolic"
                 else hw.CurvatureModel.euclidean(d))
        cfg = WalkConfig(model, hw.BoxLaw(C1, C1, d), 25, 1, 90907,
                         mode=MODE_AMBIENT, start_radius=0.5)
        *_, x = _ambient_positions(cfg, walk_rng(90907, 0))
        assert x == pytest.approx(self.FINAL[kind, d], rel=1e-9)


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

    def test_quantiles_monotone_and_fractions_bounded(self):
        cfg = WalkConfig(HYP2, ELLIPTIC, 300, 30, 8, mode=MODE_RADIAL_ONLY,
                         escape_radius=20.0)
        _, st = hw.run_ensemble(cfg)
        q = [st.quantiles[p] for p in (5, 25, 50, 75, 95)]
        assert all(b >= a for a, b in zip(q, q[1:]))
        assert 0.0 <= st.fraction_escaped <= 1.0
        assert 0.0 <= st.fraction_returned <= 1.0

    def test_distributional_mode_equivalence_ks(self):
        # smaller cousin of the acceptance check
        base = dict(model=HYP2, law=ELLIPTIC, steps=100, walks=400,
                    escape_radius=1e9, record_stride=100)
        _, st_a = hw.run_ensemble(WalkConfig(mode=MODE_AMBIENT, seed=1000, **base))
        _, st_r = hw.run_ensemble(WalkConfig(mode=MODE_RADIAL_ONLY, seed=2000, **base))
        cfg_a = WalkConfig(mode=MODE_AMBIENT, seed=1000, **base)
        cfg_r = WalkConfig(mode=MODE_RADIAL_ONLY, seed=2000, **base)
        fa = [hw.run_walk(cfg_a, i).final_R for i in range(400)]
        fr = [hw.run_walk(cfg_r, i).final_R for i in range(400)]
        assert stats.ks_2samp(fa, fr).pvalue > 0.01


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


class TestNeighborhoodReturnProbe:
    BOX = hw.BoxLaw(C1, C1, 2)

    def test_requires_ambient_and_box(self):
        cfg = WalkConfig(HYP2, self.BOX, 10, 10, 4, mode=MODE_RADIAL_ONLY)
        with pytest.raises(UsageError):
            hw.neighborhood_return_probe(cfg, 3.0, 1.0, 10)
        cfg = WalkConfig(HYP2, ELLIPTIC, 10, 10, 4, mode=MODE_AMBIENT)
        with pytest.raises(UsageError):
            hw.neighborhood_return_probe(cfg, 3.0, 1.0, 10)

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
