"""Drift-functional and classifier tests.

Frozen oracle values were computed with mpmath at 50+ digits; derivations
are noted inline.  Elliptic-shell first moments have a closed form on the
circle (d = 2, a = b): the circular average of log(A + B cos) is
log((A + sqrt(A^2 - B^2))/2), which gives an independent analytic oracle
for the Monte Carlo estimator.
"""

import math
import warnings

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk.errors import DomainError, InvariantViolationError, UsageError
from hyperwalk.lamperti import (
    CRIT_CONST_RECURRENT,
    CRIT_CONST_TRANSIENT,
    Estimate,
    MomentFunctions,
    MonteCarloVarianceWarning,
    Verdict,
    asymptotic_increment_batch,
    _excess_kurtosis,
    _mc_estimate,
    _median,
    _radius_estimates,
    step_moments,
)

C1 = hw.RadialProfile.constant(1.0)
B_DECAY = hw.RadialProfile.power_decay(1.0, 1.0)


class TestAsymptoticIncrement:
    @pytest.mark.parametrize("k,d", [(0.5, 1.0), (1.0, 3.0), (2.5, 0.2)])
    def test_outward_and_inward_rays(self, k, d):
        assert hw.asymptotic_increment(k, d, d) == pytest.approx(d, rel=1e-14)
        assert hw.asymptotic_increment(k, -d, d) == pytest.approx(-d, rel=1e-14)

    def test_transverse_unit_step(self):
        # log(cosh 1) to 16 digits (high-precision evaluation)
        assert hw.asymptotic_increment(1.0, 0.0, 1.0) == pytest.approx(
            0.4337808304830271, abs=1e-15)

    def test_zero_step(self):
        assert hw.asymptotic_increment(1.0, 0.0, 0.0) == 0.0

    def test_definition_on_moderate_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            k = rng.uniform(0.1, 4.0)
            d_tot = rng.uniform(1e-3, 25.0)
            phi = rng.uniform(-0.999, 0.999)
            direct = math.log(math.cosh(k * d_tot) + phi * math.sinh(k * d_tot)) / k
            assert hw.asymptotic_increment(k, phi * d_tot, d_tot) == pytest.approx(
                direct, rel=1e-11, abs=1e-13)

    def test_large_argument_form(self):
        # beyond the switch the direct form would overflow; the asymptotic
        # form must still agree with the ray values and be monotone in phi
        val = hw.asymptotic_increment(1.0, 0.0, 400.0)
        assert val == pytest.approx(400.0 - math.log(2.0), rel=1e-12)
        vals = [hw.asymptotic_increment(1.0, p * 400.0, 400.0)
                for p in (-0.5, 0.0, 0.5)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_long_near_inward_steps_keep_their_digits(self, k):
        # heavy-tail inward steps of length y: 1 + phi = 2e^-y / (1 + e^-y),
        # which d_rad/d_tot rounds away past y = 37.  Given |t|^2 the
        # increment takes 1 + phi from it and meets 40-digit mpmath; without
        # it, at k = 1, it reads -y where the truth is 0
        import mpmath as mp
        mp.mp.dps = 40
        y = np.array([5.0, 20.0, 31.0, 45.0, 80.0, 200.0, 600.0])
        q = np.exp(-y)
        offset = 2.0 * q / (1.0 + q)
        d_rad, t_sq = (offset - 1.0) * y, y * y * offset * (2.0 - offset)
        d_tot = np.sqrt(d_rad * d_rad + t_sq)
        got = asymptotic_increment_batch(k, d_rad, d_tot, t_sq)
        for yi, g in zip(y, got):
            Y, Q = mp.mpf(yi), mp.exp(-mp.mpf(yi))
            want = mp.log(mp.exp(-k * Y) + 2 * Q / (1 + Q) * mp.sinh(k * Y)) / k
            assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), (yi, g, want)
        if k == 1.0:
            assert asymptotic_increment_batch(k, d_rad, d_tot)[-1] == -y[-1]

    def test_t_sq_serves_only_near_straight_inward_steps(self):
        # 1 + d_rad/d_tot is taken from |t|^2 only where it is below 2^-10
        # on a long step, so every other step keeps its bytes, on both
        # sides of k d_tot = 30
        rng = np.random.default_rng(3)
        d_tot = rng.uniform(0.0, 60.0, 400)
        d_rad = d_tot * rng.uniform(-15.0 / 16.0, 1.0, 400)
        t_sq = (d_tot - d_rad) * (d_tot + d_rad)
        assert (asymptotic_increment_batch(1.0, d_rad, d_tot, t_sq).tobytes()
                == asymptotic_increment_batch(1.0, d_rad, d_tot).tobytes())

    def test_flat_limit_recovers_radial_component(self):
        # |F - d_rad| <= (k/2) d_tot^2, so k = 1e-6 meets 1e-5 up to d_tot ~ 4
        rng = np.random.default_rng(1)
        for _ in range(200):
            d_tot = rng.uniform(0.01, 4.0)
            phi = rng.uniform(-1.0, 1.0)
            got = hw.asymptotic_increment(1e-6, phi * d_tot, d_tot)
            assert abs(got - phi * d_tot) < 1e-5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hw.asymptotic_increment(1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            hw.asymptotic_increment(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("d_rad, d_tot", [(0.5, math.nan), (math.nan, 1.0),
                                              (math.nan, math.nan)])
    def test_nan_argument_raises(self, d_rad, d_tot):
        # a NaN d_tot used to read as a zero increment
        with pytest.raises(DomainError):
            asymptotic_increment_batch(1.0, [0.2, d_rad], [1.0, d_tot])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        d_tot = rng.uniform(0, 40, 500)
        phi = rng.uniform(-1, 1, 500)
        phi[::50] = 1.0
        phi[1::50] = -1.0
        d_tot[2::50] = 0.0
        got = asymptotic_increment_batch(1.7, phi * d_tot, d_tot)
        want = [hw.asymptotic_increment(1.7, p * dt, dt) for p, dt in zip(phi, d_tot)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSandwichCoefficients:
    def test_small_argument_limit(self):
        # series limit k/2; high-precision values at d_tot = 1e-6 are
        # 0.4999996666... and 0.5000003333...
        assert hw.sandwich_coeff_min(1.0, 1e-6) == pytest.approx(0.5, abs=1e-5)
        assert hw.sandwich_coeff_max(1.0, 1e-6) == pytest.approx(0.5, abs=1e-5)

    def test_closed_forms(self):
        k, dt = 1.3, 2.7
        want_min = (dt - math.sinh(k * dt) / (k * (math.cosh(k * dt) + math.sinh(k * dt)))) \
            / (2 * dt * dt)
        want_max = (-dt + math.sinh(k * dt) / (k * (math.cosh(k * dt) - math.sinh(k * dt)))) \
            / (2 * dt * dt)
        assert hw.sandwich_coeff_min(k, dt) == pytest.approx(want_min, rel=1e-12)
        assert hw.sandwich_coeff_max(k, dt) == pytest.approx(want_max, rel=1e-12)

    def test_reference_values_for_unit_shell(self):
        # used by the closed-form elliptic criterion at d_max = sqrt(2)
        assert hw.sandwich_coeff_min(1.0, math.sqrt(2.0)) == pytest.approx(
            0.23594160891351826, rel=1e-13)
        assert hw.sandwich_coeff_max(1.0, math.sqrt(2.0)) == pytest.approx(
            1.6363001942264632, rel=1e-13)

    def test_sandwich_inequality_dense_grid(self):
        from hyperwalk.validation import suite_sandwich_bounds
        res = suite_sandwich_bounds(n_lengths=80, n_phis=81)
        assert res.passed, res.detail

    def test_monotonicity(self):
        ks = np.linspace(0.2, 4.0, 15)
        dts = np.geomspace(0.01, 20.0, 15)
        for dt in dts:
            jmin = [hw.sandwich_coeff_min(k, dt) for k in ks]
            jmax = [hw.sandwich_coeff_max(k, dt) for k in ks]
            assert all(b >= a - 1e-14 for a, b in zip(jmin, jmin[1:]))
            assert all(b >= a - 1e-14 for a, b in zip(jmax, jmax[1:]))
        for k in ks:
            jmin = [hw.sandwich_coeff_min(k, dt) for dt in dts]
            jmax = [hw.sandwich_coeff_max(k, dt) for dt in dts]
            assert all(b <= a + 1e-14 for a, b in zip(jmin, jmin[1:]))
            assert all(b >= a - 1e-14 for a, b in zip(jmax, jmax[1:]))

    def test_signs(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = rng.uniform(0.05, 4.0)
            dt = rng.uniform(1e-5, 50.0)
            assert hw.sandwich_coeff_min(k, dt) > 0.0
            assert hw.sandwich_coeff_max(k, dt) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hw.sandwich_coeff_min(1.0, 0.0)
        with pytest.raises(DomainError):
            hw.sandwich_coeff_max(1.0, -1.0)


def sandwich_ratio(phi, k, d_tot):
    """(f - phi d_tot) / (1 - phi^2), f the asymptotic increment of the step
    (phi d_tot, d_tot): the ratio the sandwich coefficients bound."""
    return (hw.asymptotic_increment(k, phi * d_tot, d_tot) - phi * d_tot) / (1.0 - phi * phi)


class TestSandwichRatio:
    def test_zero_phi_value(self):
        assert sandwich_ratio(0.0, 1.0, 2.0) == pytest.approx(
            math.log(math.cosh(2.0)), rel=1e-14)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 5.0])
    def test_decreasing_in_phi(self, k, dt):
        phis = np.linspace(-0.999, 0.999, 1000)
        vals = [sandwich_ratio(p, k, dt) for p in phis]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 5.0])
    def test_endpoint_limits(self, k, dt):
        # the approach is log-slow until the offset drops below e^(-2 k dt);
        # at offset 1e-12 the remaining error is conditioning noise
        # (~ eps/offset), a few parts in 1e4
        c, s = math.cosh(k * dt), math.sinh(k * dt)
        lim_plus = 0.5 * (dt - s / (k * (c + s)))
        lim_minus = 0.5 * (-dt + s / (k * (c - s)))
        assert sandwich_ratio(1.0 - 1e-12, k, dt) == pytest.approx(
            lim_plus, rel=5e-3, abs=1e-6)
        assert sandwich_ratio(-1.0 + 1e-12, k, dt) == pytest.approx(
            lim_minus, rel=5e-3, abs=1e-6)
        # the limits equal the sandwich coefficients times d_tot^2; the naive
        # cosh - sinh form used here for the reference loses ~e^(2 k dt) eps
        assert lim_plus == pytest.approx(
            dt * dt * hw.sandwich_coeff_min(k, dt), rel=1e-7)
        assert lim_minus == pytest.approx(
            dt * dt * hw.sandwich_coeff_max(k, dt), rel=1e-7)


def moment_integrands(law, k, r, n, rng):
    """The nu1 and nu2 integrands over one draw, mirror-averaged for a
    symmetric law: the reference the estimator must reproduce bit for bit."""
    d_rad, t = law.sample_components_batch(r, n, rng)
    t_sq = np.einsum("ij,ij->i", t, t)
    d_tot = np.sqrt(d_rad * d_rad + t_sq)
    f = asymptotic_increment_batch(k, d_rad, d_tot, t_sq)
    if not law.symmetric:
        return f, f * f
    g = asymptotic_increment_batch(k, -d_rad, d_tot, t_sq)
    return 0.5 * (f + g), 0.5 * (f * f + g * g)


HEAVY = hw.HeavyTailLaw(4.0, 2)
# laws the estimators sample: a box law in d = 3, and the heavy-tail law's
# own draws behind a custom law, which offers no quadrature
SAMPLED = {
    "box": hw.BoxLaw(C1, C1, 3),
    "custom-heavytail": hw.CustomLaw(lambda r, d, rng: HEAVY.sample_components(r, rng), 2),
}


class TestMomentEstimates:
    def test_degenerate_law_gives_zero(self):
        law = hw.EllipticLaw(hw.RadialProfile.constant(0.0),
                             hw.RadialProfile.constant(0.0), 2)
        rng = np.random.default_rng(4)
        for est in hw.increment_moment_estimate(law, 1.0, 1.0, 1000, rng):
            assert est.value == 0.0 and est.half_width == 0.0

    def test_unit_circle_shell_against_closed_form(self):
        # d = 2, a = b = 1: d_tot is constant sqrt(2) and the first moment is
        # the circular average log((cosh(sqrt 2) + 1)/2) = 0.46320...
        want = math.log((math.cosh(math.sqrt(2.0)) + 1.0) / 2.0)
        law = hw.EllipticLaw(C1, C1, 2)
        rng = np.random.default_rng(5)
        est, _ = hw.increment_moment_estimate(law, 1.0, 5.0, 400_000, rng)
        assert est.value == pytest.approx(want, abs=1.6 * est.half_width)  # ~4 sigma
        assert est.value > 0.0
        assert est.half_width < 2e-3  # mirror pairing keeps this tight

    def test_heavytail_triggers_variance_warning(self):
        law = hw.HeavyTailLaw(4.0, 2)
        rng = np.random.default_rng(6)
        with pytest.warns(MonteCarloVarianceWarning):
            hw.increment_moment_estimate(law, 1.0, 10.0, 100_000, rng)

    def test_elliptic_runs_clean(self):
        law = hw.EllipticLaw(C1, C1, 2)
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MonteCarloVarianceWarning)
            hw.increment_moment_estimate(law, 1.0, 10.0, 50_000, rng)

    def test_inward_biased_estimate_exceeds_one(self):
        law = hw.InwardBiasedLaw(5.0, 2)
        rng = np.random.default_rng(8)
        est, _ = hw.increment_moment_estimate(law, 1.0, 50.0, 50_000, rng)
        assert est.value - est.half_width > 1.0

    @pytest.mark.parametrize("law", SAMPLED.values(), ids=SAMPLED.keys())
    def test_one_draw_per_radius_feeds_both_moments(self, law):
        grid, n = [10.0, 50.0, 200.0], 2000
        rng, twin = np.random.default_rng(10), np.random.default_rng(10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MonteCarloVarianceWarning)
            moments = hw.estimate_moment_functions(law, 1.0, grid, n, rng)
        for r in grid:
            x1, x2 = moment_integrands(law, 1.0, r, n, twin)
            assert moments.nu1(r) == _mc_estimate(x1)
            assert moments.nu2(r) == _mc_estimate(x2)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("law", SAMPLED.values(), ids=SAMPLED.keys())
    def test_step_moments_report_the_classifiers_nu1_and_nu2(self, law):
        # one Monte Carlo estimate of each moment: `moments` prints the paired
        # values `classify` decides on, from the same draw, bit for bit
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MonteCarloVarianceWarning)
            got, note = step_moments(law, 1.0, 5.0, 2000, rng)
            nu1, nu2, transverse, _ = _radius_estimates(law, 1.0, 5.0, 2000, twin)
        assert note is None
        assert (got["nu1"], got["nu2"], got["E|t|^2"]) == (nu1, nu2, transverse)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_step_moments_warn_on_heavy_tails(self):
        with pytest.warns(MonteCarloVarianceWarning):
            step_moments(SAMPLED["custom-heavytail"], 1.0, 10.0, 10_000,
                         np.random.default_rng(6))

    def test_kurtosis_from_squares_matches_fourth_power(self):
        rng = np.random.default_rng(11)
        _, heavy_nu2 = moment_integrands(hw.HeavyTailLaw(4.0, 2), 1.0, 10.0, 100_000, rng)
        elliptic_nu1, _ = moment_integrands(hw.EllipticLaw(C1, C1, 2), 1.0, 10.0, 50_000, rng)
        for x, heavy in ((heavy_nu2, True), (elliptic_nu1, False)):
            want = float(np.mean((x - x.mean()) ** 4)) / float(x.var()) ** 2 - 3.0
            assert (want > 50.0) == heavy  # one case on each side of the threshold
            assert _excess_kurtosis(x) == pytest.approx(want, rel=1e-12, abs=0.0)


def synthetic_moments(nu1, nu2, hw1=0.0, hw2=0.0):
    return MomentFunctions(lambda r: Estimate(nu1(r), hw1), lambda r: Estimate(nu2(r), hw2))


class TestConstantCurvatureClassifier:
    GRID = [float(r) for r in np.linspace(10, 100, 10)]

    def test_transient_on_synthetic_positive_drift(self):
        m = synthetic_moments(lambda r: 0.5, lambda r: 1.0, 1e-4, 1e-4)
        rep = hw.classify_constant_curvature(m, self.GRID)
        assert rep.verdict is Verdict.TRANSIENT
        assert rep.criterion == CRIT_CONST_TRANSIENT
        assert all(m > 0 for _, m in rep.margins)

    def test_recurrent_on_synthetic_decaying_drift(self):
        m = synthetic_moments(lambda r: 0.1 / r ** 2, lambda r: 1.0, 1e-6, 1e-4)
        rep = hw.classify_constant_curvature(m, self.GRID)
        assert rep.verdict is Verdict.RECURRENT
        assert rep.criterion == CRIT_CONST_RECURRENT

    def test_inconclusive_between_the_regimes(self):
        # 2 r nu1 exactly equal to nu2: neither margin clears
        m = synthetic_moments(lambda r: 0.5 / r, lambda r: 1.0, 1e-3, 1e-3)
        rep = hw.classify_constant_curvature(m, self.GRID)
        assert rep.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("beta, verdict", [(0.3, Verdict.RECURRENT),
                                               (1.0, Verdict.INCONCLUSIVE),
                                               (2.0, Verdict.TRANSIENT)])
    def test_transience_leg_is_the_recurrence_leg_mirrored(self, beta, verdict):
        # 2 r nu1 / nu2 = 1 + beta / log r: recurrent below 1 - theta,
        # transient above 1 + theta; at beta = 0.3 both old legs held, and
        # the verdict read transient
        m = synthetic_moments(lambda r: (1.0 + beta / math.log(r)) / (2.0 * r), lambda r: 1.0,
                              1e-9, 1e-9)
        rep = hw.classify_constant_curvature(m, self.GRID)
        assert rep.verdict is verdict
        gaps = [row for row in rep.rows if row.quantity == "transience-gap"]
        assert [row.r for row in gaps] == self.GRID[5:]
        for row in gaps:
            factor = 1.0 + 1.5 / math.log(row.r)
            assert row.estimate == pytest.approx(beta / math.log(row.r) + 1.0 - factor,
                                                 rel=1e-12)
            assert row.half_width == pytest.approx(2.0 * row.r * 1e-9 + factor * 1e-9,
                                                   rel=1e-12)

    def test_both_legs_holding_raise(self):
        # only a negative half-width lets the mirrored legs both hold
        m = synthetic_moments(lambda r: 0.6 / r, lambda r: 1.0, 0.0, -0.5)
        with pytest.raises(InvariantViolationError, match="both the transience"):
            hw.classify_constant_curvature(m, self.GRID)

    def test_tail_within_unit_radius_is_inconclusive(self):
        # neither leg's factor 1 + (1 +- theta)/log r is defined at r <= 1
        m = synthetic_moments(lambda r: 0.5, lambda r: 1.0, 1e-4, 1e-4)
        rep = hw.classify_constant_curvature(m, [0.25, 0.5, 1.0])
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.margins == [] and rep.rows == []

    def test_growth_screen_reads_the_legs_radii_only(self):
        # nu2 jumps between r = 1 and r = 2, then stays flat: fitted over the
        # whole tail it grows, over the radii past 1 that the legs read it
        # does not
        m = synthetic_moments(lambda r: 2.0 / r, lambda r: 1.0 if r > 1.0 else 1e-3,
                              1e-6, 1e-6)
        rep = hw.classify_constant_curvature(m, [0.5, 1.0, 2.0, 3.0, 4.0], r0=0.5)
        assert rep.verdict is Verdict.TRANSIENT
        assert [row.r for row in rep.rows if row.quantity == "transience-gap"] == [2.0, 3.0, 4.0]
        assert not any("shows growth" in note for note in rep.notes)

    def test_growing_second_moment_blocks_transience(self):
        m = synthetic_moments(lambda r: 0.5, lambda r: r, 1e-4, 1e-4)
        rep = hw.classify_constant_curvature(m, self.GRID)
        assert rep.verdict is not Verdict.TRANSIENT

    def test_inward_biased_is_transient(self):
        law = hw.InwardBiasedLaw(1.0, 2)
        rng = np.random.default_rng(10)
        m = hw.estimate_moment_functions(law, 1.0, self.GRID, 50_000, rng)
        rep = hw.classify_constant_curvature(m, self.GRID)
        assert rep.verdict is Verdict.TRANSIENT

    def test_empty_grid_rejected(self):
        m = synthetic_moments(lambda r: 1.0, lambda r: 1.0)
        with pytest.raises(UsageError):
            hw.classify_constant_curvature(m, [])

    def test_negative_second_moment_rejected(self):
        m = synthetic_moments(lambda r: 0.5, lambda r: -1.0, 1e-4, 0.5)
        with pytest.raises(UsageError):
            hw.classify_constant_curvature(m, self.GRID)

    def test_off_grid_evaluation_rejected(self):
        law = hw.EllipticLaw(C1, C1, 2)
        m = hw.estimate_moment_functions(law, 1.0, [10.0, 20.0], 1000,
                                         np.random.default_rng(30))
        with pytest.raises(UsageError):
            m.nu1(15.0)

    def test_tail_median_matches_numpy_median(self):
        # np.median bit for bit, signed zeros included, on arrays with ties,
        # +-inf and NaN (an infinite half-width reaches _tail_bounded's median)
        rng = np.random.default_rng(21)
        pool = np.array([-0.0, 0.0, 1.0, -2.5, 1e308, 1.7e308, -1e308, 5e-324,
                         math.inf, -math.inf, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)     # inf - inf, 1e308 + 1.7e308
            for n in range(1, 41):
                for x in (rng.exponential(1.0, n), rng.integers(-2, 3, n) * 0.5,
                          rng.choice(pool, n), rng.choice(pool[:-1], n)):
                    want = np.float64(np.median(x)).tobytes()
                    assert np.float64(_median(x)).tobytes() == want, x

    def test_margin_monotonicity_under_more_samples(self):
        # shrinking half-widths may resolve Inconclusive but never flips
        # transient <-> recurrent
        law = hw.EllipticLaw(C1, B_DECAY, 2)
        verdicts = []
        for n in (20_000, 80_000):
            rng = np.random.default_rng(11)
            m = hw.estimate_moment_functions(law, 1.0, self.GRID, n, rng)
            verdicts.append(hw.classify_constant_curvature(m, self.GRID).verdict)
        assert {Verdict.TRANSIENT, Verdict.RECURRENT} != set(verdicts)


class TestEuclideanRule:
    def test_rule(self):
        assert hw.classify_euclidean(1.44, 2.44) is Verdict.RECURRENT
        assert hw.classify_euclidean(1.0, 3.0) is Verdict.TRANSIENT
        assert hw.classify_euclidean(1.0, 2.0) is Verdict.INCONCLUSIVE

    def test_domain(self):
        with pytest.raises(DomainError):
            hw.classify_euclidean(2.0, 1.0)
        with pytest.raises(DomainError):
            hw.classify_euclidean(-0.5, 1.0)

    def test_elliptic_moment_inputs(self):
        # d=2 a=1.2 b=1: U=1.44 V=2.44 recurrent; d=3 a=b=1: U=1 V=3 transient
        V, U = hw.elliptic_moments(1.2, 1.0, 2)
        assert hw.classify_euclidean(U, V) is Verdict.RECURRENT
        V, U = hw.elliptic_moments(1.0, 1.0, 3)
        assert hw.classify_euclidean(U, V) is Verdict.TRANSIENT


class TestEllipticChainClassifier:
    GRID = [float(r) for r in np.geomspace(10, 200, 8)]

    def test_unit_shell_transient(self):
        rep = hw.classify_elliptic_chain(C1, C1, C1, C1, 2, self.GRID)
        assert rep.verdict is Verdict.TRANSIENT
        # margin at r >= 10 is 2r*Jmin(1, sqrt 2) - 2 > 0
        jmin = hw.sandwich_coeff_min(1.0, math.sqrt(2.0))
        r0, m0 = rep.margins[0]
        assert m0 == pytest.approx(2 * r0 * jmin - 2.0, rel=1e-12)

    def test_decaying_transverse_recurrent(self):
        rep = hw.classify_elliptic_chain(C1, B_DECAY, C1, C1, 2, self.GRID, theta=0.5)
        assert rep.verdict is Verdict.RECURRENT

    def test_zero_transverse_recurrent(self):
        rep = hw.classify_elliptic_chain(C1, hw.RadialProfile.constant(0.0),
                                         C1, C1, 2, self.GRID)
        assert rep.verdict is Verdict.RECURRENT

    def test_verdicts_stable_under_grid_refinement(self):
        for b in (C1, B_DECAY):
            coarse = hw.classify_elliptic_chain(C1, b, C1, C1, 2, self.GRID)
            fine_grid = [float(r) for r in np.geomspace(10, 200, 16)]
            fine = hw.classify_elliptic_chain(C1, b, C1, C1, 2, fine_grid)
            assert coarse.verdict is fine.verdict

    def test_growing_curvature_recurrent_configuration(self):
        # curvature magnitude profile 1 + r with transverse axis decaying fast
        # enough that the closed-form recurrence inequality holds: this is the
        # configuration that pairs recurrence with explosive curvature growth
        rs = [float(x) for x in np.linspace(2, 30, 8)]
        kprof = hw.RadialProfile.table([0.0] + rs, [1.0] + [1.0 + r for r in rs])
        bvals = [min(1.0, math.exp(-1.5 * (1.0 + r))) for r in rs]
        bprof = hw.RadialProfile.table([0.0] + rs, [1.0] + bvals)
        rep = hw.classify_elliptic_chain(C1, bprof, kprof, kprof, 2, rs)
        assert rep.verdict is Verdict.RECURRENT

    def test_vanishing_radial_axis_rejected(self):
        with pytest.raises(UsageError):
            hw.classify_elliptic_chain(B_DECAY, C1, C1, C1, 2, self.GRID)


class TestPinchedClassifier:
    def test_collapse_matches_constant_curvature(self):
        grid = [float(r) for r in np.geomspace(10, 200, 6)]
        cases = [
            (hw.InwardBiasedLaw(1.0, 2), grid, 60_000, Verdict.TRANSIENT),
            (hw.EllipticLaw(C1, B_DECAY, 2), grid, 120_000, Verdict.RECURRENT),
            (hw.HeavyTailLaw(4.0, 2), [float(r) for r in np.geomspace(50, 500, 6)],
             800_000, Verdict.TRANSIENT),
        ]
        for law, g, n, want in cases:
            rng = np.random.default_rng(12)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MonteCarloVarianceWarning)
                rep = hw.classify_pinched(law, C1, C1, g, n, rng)
            assert rep.verdict is want, law.kind

    def test_never_contradicts_constant_curvature(self):
        grid = [float(r) for r in np.geomspace(10, 120, 6)]
        for law in (hw.EllipticLaw(C1, C1, 2), hw.EllipticLaw(C1, B_DECAY, 2),
                    hw.InwardBiasedLaw(1.0, 2)):
            rng = np.random.default_rng(13)
            m = hw.estimate_moment_functions(law, 1.0, grid, 40_000, rng)
            const_rep = hw.classify_constant_curvature(m, grid)
            rng = np.random.default_rng(14)
            pinched_rep = hw.classify_pinched(law, C1, C1, grid, 40_000, rng)
            ok = (const_rep.verdict is pinched_rep.verdict
                  or Verdict.INCONCLUSIVE in (const_rep.verdict, pinched_rep.verdict))
            assert ok, law.kind

    @staticmethod
    def _synthetic(monkeypatch, m1, m2, hw1, hw2):
        """classify_pinched of an integrated law whose four bounds at r are
        m1(r) (both first moments) and m2(r) (both second moments), with
        half-widths hw1 and hw2."""
        from hyperwalk import lamperti
        monkeypatch.setattr(lamperti, "_pinched_integrals", lambda law, points: [(
            Estimate(m1(r), hw1), Estimate(m1(r), hw1), Estimate(m2(r), hw2),
            Estimate(m2(r), hw2)) for r, _, _ in points])
        grid = [float(r) for r in np.linspace(10, 100, 10)]
        return hw.classify_pinched(hw.EllipticLaw(C1, C1, 2), C1, C1, grid, 1000,
                                   np.random.default_rng(0))

    @pytest.mark.parametrize("beta, verdict", [(0.3, Verdict.RECURRENT),
                                               (1.0, Verdict.INCONCLUSIVE),
                                               (2.0, Verdict.TRANSIENT)])
    def test_transience_leg_is_the_recurrence_leg_mirrored(self, beta, verdict, monkeypatch):
        # 2 r m1 / m2 = 1 + beta / log r, so r m1 falls along the tail: the
        # scaled drift, which decides nothing, is not remarked on
        rep = self._synthetic(monkeypatch, lambda r: (1.0 + beta / math.log(r)) / (2.0 * r),
                              lambda r: 1.0, 1e-9, 1e-9)
        assert rep.verdict is verdict
        assert not any("shows no growth" in note for note in rep.notes)
        gaps = [row for row in rep.rows if row.quantity == "transience-gap"]
        assert len(gaps) == 10
        for row in gaps:
            factor = 1.0 + 1.5 / math.log(row.r)
            assert row.estimate == pytest.approx(beta / math.log(row.r) + 1.0 - factor,
                                                 rel=1e-12)
            assert row.half_width == pytest.approx(2.0 * row.r * 1e-9 + factor * 1e-9,
                                                   rel=1e-12)

    def test_both_legs_holding_raise(self, monkeypatch):
        # only a negative half-width lets the mirrored legs both hold
        with pytest.raises(InvariantViolationError, match="both the transience"):
            self._synthetic(monkeypatch, lambda r: 0.6 / r, lambda r: 1.0, 0.0, -0.5)

    def test_growing_second_moment_blocks_transience(self, monkeypatch):
        # every tail gap is positive; only the growth of m2_up blocks the leg
        rep = self._synthetic(monkeypatch, lambda r: 1.0, lambda r: r, 1e-4, 1e-4)
        assert all(m > 0.0 for _, m in rep.margins)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert any("shows growth along the tail" in note for note in rep.notes)

    def test_profile_ordering_enforced(self):
        k2 = hw.RadialProfile.constant(2.0)
        with pytest.raises(UsageError):
            hw.classify_pinched(hw.EllipticLaw(C1, C1, 2), k2, C1,
                                [10.0, 20.0], 2000, np.random.default_rng(15))

    def test_below_100_samples_rejected(self):
        # the floor of the moment estimates, so no half-width rests on 2 draws
        with pytest.raises(UsageError, match="need at least 100 samples, got 2"):
            hw.classify_pinched(hw.EllipticLaw(C1, C1, 2), C1, C1, [1.0, 5.0, 20.0], 2,
                                np.random.default_rng(23))


class TestUniformEllipticityCheck:
    GRID = [float(r) for r in np.linspace(10, 60, 5)]

    def screen(self, law, rng):
        """The screen at epsilon 0.5 from D_min 10, on the estimates of one
        50,000-step draw per grid radius."""
        moments = hw.estimate_moment_functions(law, 1.0, self.GRID, 50_000, rng)
        return hw.uniform_ellipticity_transience_check(moments, 0.5, 10.0, self.GRID)

    def test_needs_the_estimated_statistics(self):
        moments = MomentFunctions(lambda r: Estimate(0.0, 0.0), lambda r: Estimate(1.0, 0.0))
        with pytest.raises(UsageError):
            hw.uniform_ellipticity_transience_check(moments, 0.5, 10.0, self.GRID)

    def test_unit_shell_transient(self):
        law = hw.EllipticLaw(C1, C1, 2)
        rep = self.screen(law, np.random.default_rng(16))
        assert rep.verdict is Verdict.TRANSIENT

    def test_decaying_transverse_inconclusive(self):
        law = hw.EllipticLaw(C1, B_DECAY, 2)
        rep = self.screen(law, np.random.default_rng(17))
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_degenerate_law_inconclusive(self):
        law = hw.EllipticLaw(C1, hw.RadialProfile.constant(0.0), 2)
        rep = self.screen(law, np.random.default_rng(18))
        assert rep.verdict is Verdict.INCONCLUSIVE

    def test_never_transient_without_zero_drift(self):
        law = hw.InwardBiasedLaw(1.0, 2)
        rep = self.screen(law, np.random.default_rng(19))
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert any("zero-drift" in n for n in rep.notes)
