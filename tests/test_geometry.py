"""Geometry kernel tests: closed forms against coordinate-level oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperwalk as hw
from hyperwalk.errors import (
    ContractError,
    DimensionError,
    DomainError,
    InvariantViolationError,
    UndefinedFrameError,
)
from hyperwalk.geometry import (
    _mink,
    make_decomposition,
    radial_increment_exact_batch,
    validate_on_hyperboloid,
    validate_tangent,
)


def random_point(k, d, r_max, rng):
    O = hw.origin(k, d)
    u = np.zeros(d + 1)
    g = rng.standard_normal(d)
    u[1:] = g / np.linalg.norm(g)
    return hw.exp_map(O, hw.TangentVector(O, rng.uniform(0, r_max) * u), k)


def random_tangent(x, k, length, rng):
    O = hw.origin(k, x.d)
    frame = hw.radial_frame(O, x, k)
    w = rng.standard_normal(x.d)
    w *= length / np.linalg.norm(w)
    return frame.vector(w[0], w[1:])


class TestMinkowskiForm:
    def test_time_axis(self):
        assert hw.minkowski_form([1.0, 0, 0], [1.0, 0, 0]) == -1.0

    def test_spacelike_orthogonal(self):
        assert hw.minkowski_form([0, 1.0, 0], [0, 0, 1.0]) == 0.0

    def test_origin_self_pairing(self):
        O = hw.origin(2.0, 2)
        assert hw.minkowski_form(O.coords, O.coords) == pytest.approx(-0.25, rel=1e-15)

    def test_bilinear_symmetric(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert hw.minkowski_form(x, y) == pytest.approx(hw.minkowski_form(y, x), rel=1e-14)
        assert hw.minkowski_form(2.5 * x, y) == pytest.approx(
            2.5 * hw.minkowski_form(x, y), rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hw.minkowski_form([1.0, 0], [1.0, 0, 0])


class TestOrigin:
    @pytest.mark.parametrize("k,d,first", [(1.0, 2, 1.0), (2.0, 3, 0.5)])
    def test_coordinates(self, k, d, first):
        O = hw.origin(k, d)
        assert O.coords[0] == first
        assert not np.any(O.coords[1:])

    @pytest.mark.parametrize("k", [0.25, 1.0, 3.7])
    def test_on_hyperboloid(self, k):
        O = hw.origin(k, 4)
        assert hw.minkowski_form(O.coords, O.coords) * k * k == pytest.approx(-1.0, rel=1e-14)
        validate_on_hyperboloid(O, k)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hw.origin(0.0, 2)
        with pytest.raises(DomainError):
            hw.origin(-1.0, 2)
        with pytest.raises(DomainError):
            hw.origin(1.0, 1)


class TestPointAndTangentInvariants:
    def test_lower_sheet_rejected(self):
        with pytest.raises(InvariantViolationError):
            hw.LorentzPoint(np.array([-1.0, 0.0, 0.0]))

    def test_off_hyperboloid_detected(self):
        p = hw.LorentzPoint(np.array([1.1, 0.0, 0.0]))
        with pytest.raises(InvariantViolationError):
            validate_on_hyperboloid(p, 1.0)

    def test_non_tangent_detected(self):
        O = hw.origin(1.0, 2)
        v = hw.TangentVector(O, np.array([0.5, 1.0, 0.0]))
        with pytest.raises(InvariantViolationError):
            validate_tangent(v)

    def test_tangent_norm_positive_definite(self):
        O = hw.origin(1.0, 2)
        v = hw.TangentVector(O, np.array([0.0, 3.0, 4.0]))
        validate_tangent(v)
        assert v.norm == pytest.approx(5.0, rel=1e-15)


class TestExpMap:
    def test_zero_vector_is_identity(self):
        O = hw.origin(1.5, 3)
        v = hw.TangentVector(O, np.zeros(4))
        assert hw.exp_map(O, v, 1.5) is O

    @pytest.mark.parametrize("k,t", [(1.0, 0.5), (2.0, 3.0), (0.5, 10.0)])
    def test_geodesic_from_origin(self, k, t):
        O = hw.origin(k, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = hw.exp_map(O, hw.TangentVector(O, t * e1), k)
        assert p.coords[0] == pytest.approx(math.cosh(t * k) / k, rel=1e-13)
        assert p.coords[1] == pytest.approx(math.sinh(t * k) / k, rel=1e-13)
        assert p.coords[2] == 0.0

    def test_base_mismatch_rejected(self):
        O = hw.origin(1.0, 2)
        other = random_point(1.0, 2, 2.0, np.random.default_rng(1))
        v = hw.TangentVector(other, np.zeros(3))
        with pytest.raises(ContractError):
            hw.exp_map(O, v, 1.0)

    def test_hyperboloid_preserved_on_random_inputs(self):
        # |B(y,y) k^2 + 1| < 1e-9 needs k(R + |v|) small enough that the
        # check itself is conditioned; e^(2kR) eps < 1e-9 caps kR near 7.5
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = rng.uniform(0.25, 4.0)
            d = int(rng.integers(2, 5))
            x = random_point(k, d, 2.0 / k, rng)
            v = random_tangent(x, k, rng.uniform(0, 1.5 / k), rng)
            y = hw.exp_map(x, v, k)
            assert abs(_mink(y.coords, y.coords) * k * k + 1.0) < 1e-9

    def test_geodesic_property_distance_equals_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = rng.uniform(0.25, 4.0)
            x = random_point(k, 3, 2.0 / k, rng)
            v = random_tangent(x, k, rng.uniform(1e-3, 2.0 / k), rng)
            y = hw.exp_map(x, v, k)
            assert hw.distance(x, y, k) == pytest.approx(v.norm, rel=1e-10)


class TestDistance:
    def test_zero_iff_same_point(self):
        rng = np.random.default_rng(4)
        x = random_point(1.0, 2, 5.0, rng)
        assert hw.distance(x, x, 1.0) == 0.0

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_unit_speed(self, t):
        k = 1.0
        O = hw.origin(k, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = hw.exp_map(O, hw.TangentVector(O, t * e1), k)
        assert hw.distance(O, p, k) == pytest.approx(t, rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = rng.uniform(0.5, 2.0)
            pts = [random_point(k, 2, 4.0 / k, rng) for _ in range(3)]
            dxy = hw.distance(pts[0], pts[1], k)
            assert dxy == pytest.approx(hw.distance(pts[1], pts[0], k), rel=1e-12)
            dyz = hw.distance(pts[1], pts[2], k)
            dxz = hw.distance(pts[0], pts[2], k)
            assert dxz <= dxy + dyz + 1e-10

    def test_bad_argument_raises(self):
        # points on different hyperboloids pair to an argument below 1
        a = hw.LorentzPoint(np.array([1.0, 0.0, 0.0]))
        b = hw.LorentzPoint(np.array([0.5, 0.0, 0.0]))
        with pytest.raises(InvariantViolationError):
            hw.distance(a, b, 1.0)


class TestLogMap:
    def test_log_at_same_point_is_zero(self):
        x = random_point(1.0, 2, 3.0, np.random.default_rng(6))
        v = hw.log_map(x, x, 1.0)
        assert not np.any(v.components)

    def test_inverse_on_known_geodesic(self):
        k = 1.0
        O = hw.origin(k, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = hw.exp_map(O, hw.TangentVector(O, 2.5 * e1), k)
        v = hw.log_map(O, p, k)
        assert v.components == pytest.approx(2.5 * e1, abs=1e-12)

    def test_round_trip_random_pairs(self):
        # k(R_x + R_y) <= 16 keeps the ambient pairing representable to 1e-8
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(2000):
            k = rng.uniform(0.25, 4.0)
            d = int(rng.integers(2, 4))
            x = random_point(k, d, 4.0 / k, rng)
            y = hw.exp_map(x, random_tangent(x, k, rng.uniform(0, min(20.0, 8.0 / k)), rng), k)
            back = hw.exp_map(x, hw.log_map(x, y, k), k)
            scale = max(1.0, float(np.max(np.abs(y.coords))))
            worst = max(worst, float(np.max(np.abs(back.coords - y.coords))) / scale)
        assert worst < 1e-8

    def test_norm_matches_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = rng.uniform(0.5, 2.0)
            x = random_point(k, 3, 3.0, rng)
            y = random_point(k, 3, 3.0, rng)
            assert hw.log_map(x, y, k).norm == pytest.approx(
                hw.distance(x, y, k), rel=1e-10, abs=1e-12)


class TestRadialDirection:
    @pytest.mark.parametrize("t,k", [(0.5, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_matches_geodesic_derivative(self, t, k):
        O = hw.origin(k, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = hw.exp_map(O, hw.TangentVector(O, t * e1), k)
        e_rad = hw.radial_direction(O, p, k)
        expected = np.array([-math.sinh(t * k), -math.cosh(t * k), 0.0])
        assert e_rad.components == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = rng.uniform(0.25, 3.0)
            p = random_point(k, 3, 5.0 / k, rng)
            if hw.distance(hw.origin(k, 3), p, k) == 0.0:
                continue
            assert hw.radial_direction(hw.origin(k, 3), p, k).norm == pytest.approx(
                1.0, rel=1e-10)

    def test_undefined_at_origin(self):
        O = hw.origin(1.0, 2)
        with pytest.raises(UndefinedFrameError):
            hw.radial_direction(O, O, 1.0)


class TestDecomposeIncrement:
    def test_zero_vector(self):
        rng = np.random.default_rng(10)
        O = hw.origin(1.0, 2)
        x = random_point(1.0, 2, 3.0, rng)
        dec = hw.decompose_increment(O, x, hw.TangentVector(x, np.zeros(3)), 1.0)
        assert (dec.d_tot, dec.d_rad, dec.phi) == (0.0, 0.0, 0.0)

    def test_origin_convention(self):
        O = hw.origin(1.0, 2)
        v = hw.TangentVector(O, np.array([0.0, 0.6, 0.8]))
        dec = hw.decompose_increment(O, O, v, 1.0)
        assert dec.d_rad == pytest.approx(dec.d_tot, rel=1e-14)
        assert dec.phi == 1.0

    def test_pure_transverse_step(self):
        rng = np.random.default_rng(11)
        O = hw.origin(1.0, 3)
        x = random_point(1.0, 3, 3.0, rng)
        frame = hw.radial_frame(O, x, 1.0)
        v = frame.vector(0.0, np.array([1.0, 2.0]))
        dec = hw.decompose_increment(O, x, v, 1.0)
        assert dec.d_rad == pytest.approx(0.0, abs=1e-10)
        assert dec.phi == pytest.approx(0.0, abs=1e-10)

    def test_outward_sign_convention(self):
        # a step along -e_rad (away from the origin) has positive d_rad
        O = hw.origin(1.0, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = hw.exp_map(O, hw.TangentVector(O, 2.0 * e1), 1.0)
        e_rad = hw.radial_direction(O, p, 1.0)
        v = hw.TangentVector(p, -0.7 * e_rad.components)
        dec = hw.decompose_increment(O, p, v, 1.0)
        assert dec.d_rad == pytest.approx(0.7, rel=1e-12)

    def test_decomposition_validation(self):
        with pytest.raises(DomainError):
            hw.IncrementDecomposition(1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            hw.IncrementDecomposition(-1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            hw.IncrementDecomposition(2.0, 1.0, 0.9)  # phi inconsistent
        dec = make_decomposition(2.0, 1.0)
        assert dec.phi == 0.5


class TestRadialIncrementExact:
    @given(st.floats(0.0, 50.0), st.floats(1e-6, 10.0), st.floats(0.1, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_outward_ray_is_additive(self, R, d_tot, k):
        assert hw.radial_increment_exact(R, d_tot, 1.0, k) == pytest.approx(
            d_tot, rel=1e-12, abs=1e-12)

    @given(st.floats(0.0, 50.0), st.floats(1e-6, 10.0), st.floats(0.1, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_inward_ray_folds_at_origin(self, R, d_tot, k):
        want = abs(R - d_tot) - R
        assert hw.radial_increment_exact(R, d_tot, -1.0, k) == pytest.approx(
            want, rel=1e-12, abs=1e-12)

    def test_r_zero_gives_step_length(self):
        for phi in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert hw.radial_increment_exact(0.0, 2.5, phi, 1.0) == pytest.approx(
                2.5, rel=1e-12)

    def test_matches_coordinate_oracle(self):
        # smaller version of acceptance criterion 1
        from hyperwalk.validation import suite_exact_radial_increment
        res = suite_exact_radial_increment(seed=12, n=2000)
        assert res.passed, res.detail

    def test_fault_injection_is_caught(self):
        from hyperwalk.validation import suite_exact_radial_increment
        res = suite_exact_radial_increment(seed=12, n=500, fault="flip-phi-sign")
        assert not res.passed

    def test_log_domain_branch_continuity(self):
        for k in (0.5, 1.0, 3.0):
            R = 30.0 / k
            lo = hw.radial_increment_exact(R - 1e-9, 2.0, 0.3, k)
            hi = hw.radial_increment_exact(R + 1e-9, 2.0, 0.3, k)
            assert hi == pytest.approx(lo, rel=1e-9, abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        d_tot = rng.uniform(0, 10, 400)
        phi = rng.uniform(-1, 1, 400)
        phi[::40] = 1.0
        phi[1::40] = -1.0
        d_tot[2::40] = 0.0
        for R in (0.0, 3.0, 80.0, 900.0):
            got = radial_increment_exact_batch(R, d_tot, phi, 1.3)
            want = [hw.radial_increment_exact(R, dt, p, 1.3) for dt, p in zip(d_tot, phi)]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hw.radial_increment_exact(1.0, 1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            hw.radial_increment_exact(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hw.radial_increment_exact(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hw.radial_increment_exact(1.0, 1.0, 0.0, 0.0)

    def test_dominates_euclidean_increment(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            R = rng.uniform(0, 20)
            d_tot = rng.uniform(0, 5)
            phi = rng.uniform(-1, 1)
            k = rng.uniform(0.1, 3)
            hyp = hw.radial_increment_exact(R, d_tot, phi, k)
            euc = hw.euclidean_radial_increment(R, d_tot, phi * d_tot)
            assert hyp >= euc - 1e-10

    def test_small_curvature_limit(self):
        k = 1e-4
        for R in np.linspace(0, 20, 9):
            for d_tot in np.linspace(0, 5, 6):
                for phi in np.linspace(-1, 1, 7):
                    hyp = hw.radial_increment_exact(R, d_tot, phi, k)
                    euc = hw.euclidean_radial_increment(R, d_tot, phi * d_tot)
                    assert abs(hyp - euc) < 1e-3

    def test_submartingale_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            R = rng.uniform(0, 30)
            d_tot = rng.uniform(0, 5)
            phi = rng.uniform(-1, 1)
            k = rng.uniform(0.1, 3)
            inc = hw.radial_increment_exact(R, d_tot, phi, k)
            assert inc >= phi * d_tot - 1e-10


class TestEuclideanRadialIncrement:
    def test_from_origin(self):
        assert hw.euclidean_radial_increment(0.0, 3.0, 1.5) == pytest.approx(3.0, rel=1e-14)

    def test_collinear_outward(self):
        assert hw.euclidean_radial_increment(7.0, 2.0, 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_collinear_inward(self):
        assert hw.euclidean_radial_increment(7.0, 2.0, -2.0) == pytest.approx(-2.0, rel=1e-13)

    def test_cosine_rule(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            R = rng.uniform(0, 50)
            d_tot = rng.uniform(0, 5)
            d_rad = rng.uniform(-1, 1) * d_tot
            got = hw.euclidean_radial_increment(R, d_tot, d_rad)
            want = math.sqrt(R * R + 2 * R * d_rad + d_tot * d_tot) - R
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert got >= d_rad - 1e-12

    def test_large_radius_is_stable(self):
        # the naive sqrt difference loses everything at this scale
        got = hw.euclidean_radial_increment(1e12, 1.0, 0.25)
        assert got == pytest.approx(0.25 + (1.0 - 0.25 ** 2) / (2e12), rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hw.euclidean_radial_increment(1.0, 1.0, 2.0)


class TestFrames:
    def test_frame_is_orthonormal_and_tangent(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            k = rng.uniform(0.25, 3.0)
            d = int(rng.integers(2, 5))
            p = random_point(k, d, 4.0 / k, rng)
            frame = hw.radial_frame(hw.origin(k, d), p, k)
            for i in range(d):
                assert abs(_mink(p.coords, frame.axes[i])) < 1e-8
                for j in range(d):
                    want = 1.0 if i == j else 0.0
                    assert _mink(frame.axes[i], frame.axes[j]) == pytest.approx(
                        want, abs=1e-8)

    def test_frame_at_origin_flag(self):
        O = hw.origin(1.0, 3)
        frame = hw.radial_frame(O, O, 1.0)
        assert frame.at_origin
        assert frame.axes[0] == pytest.approx(np.array([0.0, 1.0, 0.0, 0.0]))

    def test_frame_about_another_origin_rejected(self):
        k, d = 1.0, 3
        p = random_point(k, d, 2.0, np.random.default_rng(19))
        for other in (p, hw.origin(2.0, d)):
            with pytest.raises(ContractError):
                hw.radial_frame(other, p, k)

    def test_euclidean_frame(self):
        from hyperwalk.geometry import euclidean_frame
        x = np.array([3.0, 4.0])
        axes = euclidean_frame(x)
        assert axes[0] == pytest.approx(-x / 5.0)
        assert axes @ axes.T == pytest.approx(np.eye(2), abs=1e-14)
        assert euclidean_frame(np.zeros(3)) == pytest.approx(np.eye(3))

    def test_euclidean_frame_is_orthonormal(self):
        from hyperwalk.geometry import euclidean_frame
        rng = np.random.default_rng(20)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            x = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
            x[rng.integers(0, d)] = 0.0         # axis-aligned components too
            axes = euclidean_frame(x)
            assert axes[0] == pytest.approx(-x / np.linalg.norm(x), abs=1e-15)
            # a candidate axis is kept once its squared norm passes 1e-12,
            # so orthogonality holds to about 1e-16 / 1e-6
            assert axes @ axes.T == pytest.approx(np.eye(d), abs=1e-10)


class TestCurvatureModel:
    def test_hyperbolic_requires_positive_k(self):
        with pytest.raises(DomainError):
            hw.CurvatureModel.hyperbolic(0.0, 2)

    def test_dimension_floor(self):
        with pytest.raises(DomainError):
            hw.CurvatureModel.euclidean(1)

    def test_kinds(self):
        assert hw.CurvatureModel.hyperbolic(2.0, 3).is_hyperbolic
        assert not hw.CurvatureModel.euclidean(3).is_hyperbolic
