"""Step-law tests: analytic moments, distributional shape, determinism."""

import math

import numpy as np
import pytest
from scipy import stats

import hyperwalk as hw
from hyperwalk.errors import DomainError
from hyperwalk.geometry import _tangent_axes
from hyperwalk.increments import ZeroDriftResult
from test_geometry import mink, polar_point

C1 = hw.RadialProfile.constant(1.0)


def law_rng(seed=0):
    return np.random.default_rng(seed)


def zero_drift(law, r, n, rng):
    """The step-mean statistic of one batch draw of n steps at radius r."""
    return ZeroDriftResult.of_draw(*law.sample_components_batch(r, n, rng))


def sampled_moments(law, r, n, seed=0):
    d_rad, t = law.sample_components_batch(r, n, law_rng(seed))
    d_tot_sq = d_rad ** 2 + np.einsum("ij,ij->i", t, t)
    return d_rad, d_tot_sq


class TestRadialProfile:
    def test_constant(self):
        p = hw.RadialProfile.constant(2.5)
        assert p(0.0) == p(17.3) == 2.5
        assert p.sup() == p.inf() == 2.5

    def test_power_decay(self):
        p = hw.RadialProfile.power_decay(2.0, 1.0)
        assert p(0.5) == 2.0          # min(1, r^-1) caps at 1
        assert p(4.0) == pytest.approx(0.5)
        assert p.sup() == 2.0
        assert p.inf() == 0.0

    @pytest.mark.parametrize("c, p, r", [
        (1.0, 2.0, 1e-200),       # r^-p overflows where the cap is 1
        (3.0, 400.0, 0.01),
        (1.0, -2.0, 1e200),       # r^|p| overflows where the cap is 1
        (3.0, -400.0, 100.0),
    ])
    def test_power_decay_is_capped_without_evaluating_the_power(self, c, p, r):
        assert hw.RadialProfile.power_decay(c, p)(r) == c

    def test_power_decay_underflows_to_zero(self):
        assert hw.RadialProfile.power_decay(1.0, 2.0)(1e200) == 0.0
        assert hw.RadialProfile.power_decay(1.0, -2.0)(1e-200) == 0.0
        assert hw.RadialProfile.power_decay(1.0, -1.0)(0.25) == 0.25

    @pytest.mark.parametrize("exponent", [1.0, -1.0, 0.5, -0.5, 1.0 / 3.0, 0.4, 2.0, -2.0,
                                          -0.1, 0.0])
    def test_power_decay_over_radii_is_each_radius(self, exponent):
        # the walks evaluate a profile over their radii at once; each value
        # must hold the bits of a call on its one radius: at 10^4 radii
        # log-uniform in [1e-3, 1e8], and at 0, 1, NaN, inf and either side
        # of the clamp at 1
        p = hw.RadialProfile.power_decay(1.7, exponent)
        radii = [0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 7.3,
                 1e300, math.inf, math.nan]
        radii += (10.0 ** np.random.default_rng(3).uniform(-3.0, 8.0, 10_000)).tolist()
        assert p.at(np.array(radii)).tobytes() == np.array([p(x) for x in radii]).tobytes()
        assert p(math.nan) == p(1.0) == 1.7     # a NaN radius reads the cap c

    def test_table_interpolation_and_clamping(self):
        p = hw.RadialProfile.table([0.0, 1.0, 3.0], [1.0, 2.0, 0.0])
        assert p(0.5) == pytest.approx(1.5)
        assert p(2.0) == pytest.approx(1.0)
        assert p(10.0) == 0.0          # clamped to the last value
        assert p.sup() == 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            hw.RadialProfile.constant(-1.0)
        with pytest.raises(DomainError):
            hw.RadialProfile.table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            hw.RadialProfile.table([0.0, 1.0], [1.0, -1.0])

    @pytest.mark.parametrize("kind, args", [
        ("constant", (math.nan,)),
        ("constant", (math.inf,)),
        ("power_decay", (1.0, math.nan)),
        ("power_decay", (math.inf, 1.0)),
        ("table", ([0.0, 1.0], [1.0, math.nan])),
        ("table", ([0.0, math.inf], [1.0, 1.0])),
    ])
    def test_non_finite_parameters_rejected(self, kind, args):
        with pytest.raises(DomainError):
            getattr(hw.RadialProfile, kind)(*args)


class TestEllipticLaw:
    def test_analytic_moments_formula(self):
        assert hw.elliptic_moments(1.0, 0.0, 5) == (1.0, 1.0)
        assert hw.elliptic_moments(2.0, 1.0, 3) == (6.0, 4.0)

    def test_monte_carlo_matches_analytic(self):
        law = hw.EllipticLaw(hw.RadialProfile.constant(2.0), C1, 3)
        d_rad, d_tot_sq = sampled_moments(law, 1.0, 200_000, seed=1)
        want_tot, want_rad = hw.elliptic_moments(2.0, 1.0, 3)
        for arr, want in ((d_tot_sq, want_tot), (d_rad ** 2, want_rad)):
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            assert abs(arr.mean() - want) < 3 * se

    def test_zero_mean_vector(self):
        law = hw.EllipticLaw(hw.RadialProfile.constant(2.0), C1, 3)
        res = zero_drift(law, 1.0, 100_000, law_rng(2))
        assert res.within_band(4.0)

    def test_degenerate_transverse_axis(self):
        # b = 0 collapses the shell onto the radial segment [-a sqrt(2), a sqrt(2)],
        # with mass split equally between the two signs and zero mean
        law = hw.EllipticLaw(C1, hw.RadialProfile.constant(0.0), 2)
        d_rad, t = law.sample_components_batch(0.0, 50_000, law_rng(3))
        s2 = math.sqrt(2.0)
        assert not np.any(t)
        assert np.max(np.abs(d_rad)) <= s2 + 1e-12
        assert np.max(np.abs(d_rad)) > 0.999 * s2
        assert abs(np.mean(np.sign(d_rad))) < 0.02
        se = d_rad.std(ddof=1) / math.sqrt(d_rad.size)
        assert abs(d_rad.mean()) < 4 * se


class TestBoxLaw:
    def test_second_moments_match_elliptic(self):
        law = hw.BoxLaw(hw.RadialProfile.constant(2.0), C1, 3)
        d_rad, d_tot_sq = sampled_moments(law, 1.0, 200_000, seed=4)
        want_tot, want_rad = hw.elliptic_moments(2.0, 1.0, 3)
        for arr, want in ((d_tot_sq, want_tot), (d_rad ** 2, want_rad)):
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            assert abs(arr.mean() - want) < 3 * se

    def test_support_is_the_solid_box(self):
        law = hw.BoxLaw(C1, hw.RadialProfile.constant(0.5), 3)
        d_rad, t = law.sample_components_batch(0.0, 50_000, law_rng(5))
        s3 = math.sqrt(3.0)
        assert np.max(np.abs(d_rad)) <= s3
        assert np.max(np.abs(t)) <= 0.5 * s3
        # dense near the corners, unlike the shell law
        assert np.max(np.abs(d_rad)) > 0.99 * s3

    def test_zero_mean_vector(self):
        law = hw.BoxLaw(C1, C1, 4)
        res = zero_drift(law, 2.0, 50_000, law_rng(6))
        assert res.within_band(4.0)


class TestHeavyTailFormulas:
    def test_offset_inactive_below_activation(self):
        assert hw.heavytail_inward_offset(1.5, 2.0) == 0.0
        assert hw.heavytail_outward_prob(1.5, 2.0) == 0.5

    def test_outward_prob_at_unit_length(self):
        # (1 - cosh 1 + sinh 1)/2 evaluated in high precision
        assert hw.heavytail_outward_prob(1.0, 1.0) == pytest.approx(
            0.3160602794142788, abs=1e-15)

    def test_offset_formula(self):
        y = 2.3
        want = (1.0 - math.cosh(y) + math.sinh(y)) / math.sinh(y)
        assert hw.heavytail_inward_offset(y, 1.0) == pytest.approx(want, rel=1e-13)

    def test_conditional_phi_mean_is_zero(self):
        for y in (1.0, 2.0, 5.0, 30.0):
            eps = hw.heavytail_inward_offset(y, 1.0)
            alpha = hw.heavytail_outward_prob(y, 1.0)
            assert 0.0 <= alpha <= 1.0
            assert alpha * 1.0 + (1.0 - alpha) * (-1.0 + eps) == pytest.approx(0.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hw.heavytail_inward_offset(0.5, 1.0)
        with pytest.raises(DomainError):
            hw.heavytail_outward_prob(1.0, 0.5)


class TestHeavyTailLaw:
    def test_exponent_floor(self):
        with pytest.raises(DomainError):
            hw.HeavyTailLaw(3.0, 2)
        with pytest.raises(DomainError):
            hw.HeavyTailLaw(2.5, 2)

    def test_default_activation_profile(self):
        law = hw.HeavyTailLaw(4.0, 2)
        assert law.lambda_at(0.0) == 1.0
        assert law.lambda_at(100.0) == pytest.approx(100.0 ** (1.0 / 3.0))

    def test_step_length_is_pareto(self):
        m = 4.0
        law = hw.HeavyTailLaw(m, 2)
        d_rad, t = law.sample_components_batch(1.0, 100_000, law_rng(7))
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))
        res = stats.kstest(d_tot, lambda y: 1.0 - y ** (-(m - 1.0)))
        assert res.statistic < 0.01

    def test_conditional_phi_zero_by_bin(self):
        law = hw.HeavyTailLaw(4.0, 2)
        d_rad, t = law.sample_components_batch(8.0, 200_000, law_rng(8))
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))
        phi = d_rad / d_tot
        edges = np.quantile(d_tot, np.linspace(0, 1, 9))
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (d_tot >= lo) & (d_tot < hi)
            if sel.sum() < 100:
                continue
            se = phi[sel].std(ddof=1) / math.sqrt(sel.sum())
            assert abs(phi[sel].mean()) <= 4 * max(se, 1e-12)

    def test_conditional_transverse_second_moment(self):
        # E[d_tot^2 (1 - phi^2) | d_tot = y] = y^2 * offset(y) for y >= lambda
        law = hw.HeavyTailLaw(4.0, 3, hw.RadialProfile.constant(1.0))
        d_rad, t = law.sample_components_batch(1.0, 400_000, law_rng(9))
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))
        trans_sq = d_tot ** 2 - d_rad ** 2
        sel = (d_tot >= 1.5) & (d_tot < 2.0)
        y_mid = d_tot[sel]
        want = np.mean(y_mid ** 2 * np.array([hw.heavytail_inward_offset(y, 1.0)
                                              for y in y_mid]))
        got = trans_sq[sel].mean()
        se = trans_sq[sel].std(ddof=1) / math.sqrt(sel.sum())
        assert abs(got - want) <= 4 * se

    def test_zero_drift(self):
        law = hw.HeavyTailLaw(4.0, 2)
        res = zero_drift(law, 100.0, 200_000, law_rng(10))
        assert res.within_band(4.0)

    @pytest.mark.parametrize("y", [20.0, 40.0, 300.0])
    def test_inward_steps_keep_their_transverse_part(self, y):
        # 1 - phi^2 of an inward step is taken as offset (2 - offset): past
        # y = 37, 1 - phi^2 from phi = offset - 1 reads 0
        law = hw.HeavyTailLaw(4.0, 2)
        d_rad, t = law.steps(0.0, law.radius_free(np.array([[y, 1.0, 1.0]])))   # u = 1: inward
        offset = hw.heavytail_inward_offset(y, 1.0)
        assert d_rad[0] == pytest.approx((offset - 1.0) * y, rel=1e-15)
        assert float(t[0] @ t[0]) == pytest.approx(y * y * offset * (2.0 - offset), rel=1e-14)


class TestInwardBiasedLaw:
    def test_constant_step_length(self):
        law = hw.InwardBiasedLaw(1.5, 3)
        d_rad, t = law.sample_components_batch(1.0, 10_000, law_rng(11))
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))
        assert np.allclose(d_tot, 6.0, rtol=1e-12)

    def test_mean_radial_component(self):
        law = hw.InwardBiasedLaw(1.0, 2)
        d_rad, _ = law.sample_components_batch(1.0, 400_000, law_rng(12))
        se = d_rad.std(ddof=1) / math.sqrt(d_rad.size)
        assert abs(d_rad.mean() + 1.0) <= 4 * se

    def test_drift_functional_grows_with_strength(self):
        vals = []
        for N in range(1, 21):
            v = 0.5 * (hw.asymptotic_increment(1.0, 0.0, 4.0 * N)
                       + hw.asymptotic_increment(1.0, -2.0 * N, 4.0 * N))
            vals.append(v)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 1.0  # already positive drift at N = 1

    def test_fails_zero_drift_check(self):
        law = hw.InwardBiasedLaw(1.0, 2)
        res = zero_drift(law, 1.0, 50_000, law_rng(13))
        assert not res.within_band(4.0)


class TestStepLengthBound:
    def test_elliptic(self):
        law = hw.EllipticLaw(hw.RadialProfile.constant(2.0), C1, 4)
        assert law.step_bound() == pytest.approx(4.0)

    def test_heavytail_unbounded(self):
        assert hw.HeavyTailLaw(4.0, 2).step_bound() == math.inf

    def test_inward_biased(self):
        assert hw.InwardBiasedLaw(2.0, 2).step_bound() == 8.0

    def test_box_corner_radius(self):
        law = hw.BoxLaw(C1, C1, 2)
        want = math.sqrt(3.0) * math.sqrt(2.0)
        assert law.step_bound() == pytest.approx(want)
        # oracle: maximum over sampled support
        d_rad, t = law.sample_components_batch(0.0, 200_000, law_rng(14))
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))
        assert np.max(d_tot) <= want + 1e-12
        assert np.max(d_tot) > 0.98 * want


class TestSamplerContracts:
    @pytest.mark.parametrize("law", [
        hw.EllipticLaw(C1, C1, 3),
        hw.BoxLaw(C1, C1, 2),
        hw.HeavyTailLaw(4.0, 3),
        hw.InwardBiasedLaw(1.0, 2),
    ], ids=lambda l: l.kind)
    def test_radial_component_bounded_by_length(self, law):
        d_rad, t = law.sample_components_batch(2.0, 20_000, law_rng(15))
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))
        assert np.all(np.abs(d_rad) <= d_tot * (1 + 1e-12))

    @pytest.mark.parametrize("law", [
        hw.EllipticLaw(C1, C1, 3),
        hw.BoxLaw(C1, C1, 2),
        hw.HeavyTailLaw(4.0, 3),
        hw.InwardBiasedLaw(1.0, 2),
    ], ids=lambda l: l.kind)
    def test_bit_reproducible(self, law):
        a = law.sample_components_batch(2.0, 1000, law_rng(16))
        b = law.sample_components_batch(2.0, 1000, law_rng(16))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        s1 = [law.sample_components(2.0, law_rng(17)) for _ in range(5)]
        s2 = [law.sample_components(2.0, law_rng(17)) for _ in range(5)]
        for (r1, t1), (r2, t2) in zip(s1, s2):
            assert r1 == r2 and np.array_equal(t1, t2)

    BATCH_LAWS = {
        "elliptic": lambda d: hw.EllipticLaw(C1, hw.RadialProfile.power_decay(1.0, 1.0), d),
        "box": lambda d: hw.BoxLaw(hw.RadialProfile.power_decay(2.0, 0.5), C1, d),
        "heavytail": lambda d: hw.HeavyTailLaw(4.0, d),
        "heavytail-profile": lambda d: hw.HeavyTailLaw(
            3.5, d, hw.RadialProfile.power_decay(3.0, -0.5)),
        "inwardbiased": lambda d: hw.InwardBiasedLaw(1.5, d),
        "custom": lambda d: hw.CustomLaw(
            lambda r, d, rng: (r * rng.random(), rng.standard_normal(d - 1)), d),
    }

    # r = 8 puts the default heavy-tail activation length at 2, so that the
    # draws take both branches; r = 0 and r = 0.5 sit where the profiles are
    # capped
    @pytest.mark.parametrize("r", [0.0, 0.5, 8.0, 60.0])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("kind", sorted(BATCH_LAWS))
    def test_batch_equals_one_step_calls(self, kind, d, r):
        """sample_components_batch(r, n) holds the bytes of n
        sample_components(r) calls and leaves the stream where they do."""
        law = self.BATCH_LAWS[kind](d)
        batch_rng, step_rng = law_rng(9), law_rng(9)
        d_rad, t = law.sample_components_batch(r, 300, batch_rng)
        steps = [law.sample_components(r, step_rng) for _ in range(300)]
        assert d_rad.tobytes() == np.array([s[0] for s in steps], dtype=float).tobytes()
        assert t.tobytes() == np.array([s[1] for s in steps], dtype=float).tobytes()
        assert batch_rng.bit_generator.state == step_rng.bit_generator.state

    def test_scalar_and_batch_agree_in_distribution(self):
        law = hw.EllipticLaw(C1, C1, 2)
        rng = law_rng(18)
        scalar = np.array([law.sample_components(1.0, rng)[0] for _ in range(20_000)])
        batch, _ = law.sample_components_batch(1.0, 20_000, law_rng(19))
        assert stats.ks_2samp(scalar, batch).pvalue > 0.01


class TestFrameAttachedSamplers:
    """A law's components, attached to a point's frame, read back to
    themselves: law.sample_components -> _tangent_axes(x, k).step -> the
    step's Minkowski pairings with itself and with the frame's axes."""

    @staticmethod
    def _frame(k=1.0, d=3, r=2.0):
        return _tangent_axes(polar_point(k, k * r, np.eye(d)[0]), k)

    @staticmethod
    def _step(law, r, frame, rng):
        """(d_rad, d_tot) drawn from the law, and (d_rad, d_tot) read back
        off its ambient step v: -B(v, e_rad) and sqrt(B(v, v))."""
        d_rad, t = law.sample_components(r, rng)
        v = frame.step(d_rad, t)
        return (d_rad, math.sqrt(d_rad * d_rad + float(t @ t))), \
            (-mink(v, frame.axes[0]), math.sqrt(mink(v, v)))

    @pytest.mark.parametrize("cls", [hw.EllipticLaw, hw.BoxLaw])
    def test_sample_decomposition_consistency(self, cls):
        frame = self._frame()
        law = cls(C1, hw.RadialProfile.constant(0.5), 3)
        rng = law_rng(20)
        for _ in range(50):
            (d_rad, d_tot), (got_rad, got_tot) = self._step(law, 2.0, frame, rng)
            assert got_tot == pytest.approx(d_tot, rel=1e-9, abs=1e-12)
            assert got_rad == pytest.approx(d_rad, rel=1e-9, abs=1e-9)

    def test_heavytail_and_biased_samples(self):
        frame = self._frame()
        rng = law_rng(21)
        _, (_, d_tot) = self._step(hw.HeavyTailLaw(4.0, 3, C1), 2.0, frame, rng)
        assert d_tot >= 1.0
        _, (d_rad, d_tot) = self._step(hw.InwardBiasedLaw(1.0, 3), 2.0, frame, rng)
        assert d_tot == pytest.approx(4.0, rel=1e-12)
        assert min(abs(d_rad + 2.0), abs(d_rad)) < 1e-12

    def test_origin_frame_reads_back_the_step(self):
        # at the origin the stand-in axis takes the radial part
        k, d = 1.0, 2
        frame = self._frame(k, d, 0.0)
        assert frame.at_origin
        want, got = self._step(hw.EllipticLaw(C1, C1, d), 0.0, frame, law_rng(22))
        assert got == pytest.approx(want, rel=1e-12)


class TestZeroDriftCheck:
    def test_inward_biased_radial_mean(self):
        law = hw.InwardBiasedLaw(1.0, 2)
        res = zero_drift(law, 1.0, 100_000, law_rng(24))
        assert res.mean[0] == pytest.approx(-1.0, abs=4 * res.standard_error[0])


class TestKnownMoments:
    """Each law's closed-form (E[d_tot^2], E[d_rad^2], E[d_rad]) against a
    2e5-step draw, within 3 standard errors, at two radii."""

    LAWS = [
        hw.EllipticLaw(hw.RadialProfile.power_decay(1.5, 0.5), hw.RadialProfile.constant(0.7), 2),
        hw.EllipticLaw(hw.RadialProfile.constant(2.0), hw.RadialProfile.power_decay(1.0, 1.0), 3),
        hw.BoxLaw(hw.RadialProfile.power_decay(1.5, 0.5), hw.RadialProfile.constant(0.7), 2),
        hw.BoxLaw(hw.RadialProfile.constant(2.0), hw.RadialProfile.power_decay(1.0, 1.0), 3),
        hw.InwardBiasedLaw(1.5, 3),
        # m = 6: d_tot^2 = y^2 has a finite variance, so its standard error means something
        hw.HeavyTailLaw(6.0, 2),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda l: f"{l.kind}-d{l.d}")
    @pytest.mark.parametrize("r", [0.5, 4.0])
    def test_closed_form_matches_a_draw(self, law, r):
        n = 200_000
        d_rad, d_tot_sq = sampled_moments(law, r, n)
        draws = (d_tot_sq, d_rad ** 2, d_rad)
        known = law.known_moments(r)
        assert len(known) == len(hw.increments.MOMENT_NAMES) == 3
        checked = 0
        for name, x, want in zip(hw.increments.MOMENT_NAMES, draws, known):
            if want is None:
                continue
            se = float(x.std(ddof=1)) / math.sqrt(n)
            # the inward-biased step length is constant: its se is rounding only
            assert abs(float(x.mean()) - want) <= 3.0 * se + 1e-12 * abs(want), (name, want)
            checked += 1
        assert checked == (2 if law.kind == "heavytail" else 3)

    def test_custom_law_knows_nothing(self):
        law = hw.CustomLaw(lambda r, d, rng: (0.0, np.zeros(d - 1)), 2)
        assert law.known_moments(1.0) == (None, None, None)

    def test_zero_mean_laws_are_the_screened_ones(self):
        # classify runs the uniform-ellipticity screen for a known zero mean
        zero_mean = {law.kind for law in self.LAWS if law.known_moments(4.0)[2] == 0.0}
        assert zero_mean == {"elliptic", "box", "heavytail"}
