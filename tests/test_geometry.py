"""Geometry kernel tests: closed forms against coordinate-level oracles."""

import itertools
import math
import warnings

import mpmath
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
    _distance,
    _mink,
    make_decomposition,
    radial_increment_exact_batch,
    validate_on_hyperboloid,
    validate_tangent,
)
from hyperwalk.validation import _exp_log_pairs
from test_kernel_pins import branch_grid


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

    @pytest.mark.parametrize("kR", [0.0, 1e-8, 10.0, 12.0, 20.0, 300.0, 700.0])
    def test_sheet_check_holds_at_any_radius(self, kR):
        # the walks' own start points; |B(x, x) k^2 + 1| read 2.98e-8 at
        # kR = 10, 1.9e-6 at kR = 12 and 1.0 at kR = 20
        from hyperwalk.simulator import _start_point
        x = _start_point(hw.CurvatureModel.hyperbolic(1.0, 2), kR)
        validate_on_hyperboloid(hw.LorentzPoint(x), 1.0)
        for nudge in (1.0 + 1e-8, 1.0 - 1e-8):
            y = x.copy()
            y[0] *= nudge
            with pytest.raises(InvariantViolationError, match="off the hyperboloid"):
                validate_on_hyperboloid(hw.LorentzPoint(y), 1.0)

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

    @staticmethod
    def frame_step(kR):
        """(origin, base point, step): the frame vector with d_rad = 0.3 and
        |t| = 0.4, of length 0.5, at radius kR for k = 1 and d = 2."""
        O = hw.origin(1.0, 2)
        p = hw.LorentzPoint(np.array([math.cosh(kR), math.sinh(kR), 0.0]))
        return O, p, hw.radial_frame(O, p, 1.0).vector(0.3, np.array([0.4]))

    @pytest.mark.parametrize("kR", [18.0, 20.0])
    def test_unresolved_minkowski_square_raises(self, kR):
        # rounding swamps the square: unchecked, it reads 0 at kR = 20 (so
        # exp_map would return its base point) and is 6% off at kR = 18
        O, p, v = self.frame_step(kR)
        with pytest.raises(InvariantViolationError, match="not resolved"):
            v.norm
        with pytest.raises(InvariantViolationError, match="not resolved"):
            hw.exp_map(p, v, 1.0)
        with pytest.raises(InvariantViolationError, match="not resolved"):
            hw.decompose_increment(O, p, v, 1.0)

    def test_overflowing_square_raises_without_a_warning(self):
        # from kR ~ 355 the components' squares overflow the dot products
        O, p, v = self.frame_step(400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="not resolved"):
                v.norm

    @pytest.mark.parametrize("kR", [0.5, 2.0, 5.0])
    def test_resolved_minkowski_square_keeps_its_norm(self, kR):
        O, p, v = self.frame_step(kR)
        c = v.components
        assert v.norm == math.sqrt(_mink(c, c))
        assert v.norm == pytest.approx(0.5, rel=1e-12)
        dec = hw.decompose_increment(O, p, v, 1.0)
        assert dec.d_tot == v.norm
        assert dec.d_rad == pytest.approx(0.3, rel=1e-11)
        assert hw.distance(p, hw.exp_map(p, v, 1.0), 1.0) == pytest.approx(0.5, rel=1e-9)


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

    def test_endpoint_lies_on_the_hyperboloid(self):
        # draw 1631 of the exp-log suite at seed 1: unsnapped, k x0 of this
        # endpoint is 1.657e-10 off hypot(1, k|x_s|)
        x, y, k = next(itertools.islice(_exp_log_pairs(1), 1631, None))
        validate_on_hyperboloid(y, k)

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
        a = hw.LorentzPoint(np.array([1.0, 0.0, 0.0]))
        b = hw.LorentzPoint(np.array([0.5, 0.0, 0.0]))
        with pytest.raises(InvariantViolationError, match="not on a common hyperboloid"):
            hw.distance(a, b, 1.0)

    @pytest.mark.parametrize("bad", [[1.0, math.nan, 0.0], [math.cosh(2.0), 1.0, math.nan]])
    def test_nan_coordinate_raises(self, bad):
        O, p = hw.origin(1.0, 2), hw.LorentzPoint(np.array(bad))
        for x, y in ((O, p), (p, O)):
            with pytest.raises(InvariantViolationError, match="not on a common hyperboloid"):
                hw.distance(x, y, 1.0)

    KR = [0.0, 1e-8, 0.5, 9.0, 12.0, 20.0, 40.0, 300.0, 354.0, 400.0, 699.0, 700.0]

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d, axis", [(2, 1), (3, 3), (5, 2)])
    def test_same_axis_pairs(self, k, d, axis):
        # sinh kR_x - sinh kR_y is the only difference taken; a pairing
        # loses e^(k(R_x + R_y)) * eps
        def point(kR):
            x = np.zeros(d + 1)
            x[0], x[axis] = math.cosh(kR) / k, math.sinh(kR) / k
            return hw.LorentzPoint(x)
        for a in self.KR:
            for b in self.KR:
                got = hw.distance(point(a), point(b), k)
                assert got == pytest.approx(abs(a - b) / k, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d", [2, 4])
    def test_equal_radius_pairs(self, k, d):
        # sinh(k d / 2) = sinh kR sin(theta / 2); at theta = 1e-200 the
        # directions' difference underflows a plain norm
        for a in self.KR[1:]:
            for theta in (1e-200, 1e-100, 1e-8, 1e-3, 0.5, 2.0, math.pi):
                x, y = np.zeros(d + 1), np.zeros(d + 1)
                x[0] = y[0] = math.cosh(a) / k
                x[1] = math.sinh(a) / k
                y[1], y[2] = math.sinh(a) * math.cos(theta) / k, math.sinh(a) * math.sin(theta) / k
                got = hw.distance(hw.LorentzPoint(x), hw.LorentzPoint(y), k)
                want = 2.0 / k * math.asinh(math.sinh(a) * math.sin(theta / 2.0))
                assert got > 0.0
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @staticmethod
    def far_step(kR):
        """(x, y): the walk's step d_rad = 0.3, |t| = 0.4 (length 0.5) from
        radius kR, k = 1, d = 2."""
        from hyperwalk.geometry import _exp_step, _tangent_axes
        x = np.array([math.cosh(kR), math.sinh(kR), 0.0])
        y = _exp_step(x, _tangent_axes(x, 1.0).step(0.3, np.array([0.4])), 0.5, 1.0)
        return hw.LorentzPoint(x), hw.LorentzPoint(y)

    @pytest.mark.parametrize("kR", [14.0, 18.0])
    def test_unresolved_pairing_raises(self, kR):
        # read off the pairing unchecked, kR = 14 gave 0.4997629, and kR = 18
        # paired below 1 and blamed the hyperboloid; the polar reading is good
        # to the coordinates' own e^(kR) * eps, but log_map's direction still
        # comes from the pairing
        x, y = self.far_step(kR)
        assert hw.distance(x, y, 1.0) == pytest.approx(0.5, rel=math.exp(kR) * 2.0 ** -52)
        with pytest.raises(InvariantViolationError, match="unresolved"):
            hw.log_map(x, y, 1.0)

    @pytest.mark.parametrize("kR", [0.5, 5.0])
    def test_resolved_pairing_keeps_its_distance(self, kR):
        x, y = self.far_step(kR)
        assert hw.distance(x, y, 1.0) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("length", [1e-12, 1e-8, 1e-5])
    def test_short_distance_is_exact(self, length):
        # -B(x, y) k^2 - 1 rounds to 0 or keeps few digits here
        O = hw.origin(2.0, 3)
        u = np.zeros(4)
        u[2] = length
        p = hw.exp_map(O, hw.TangentVector(O, u), 2.0)
        assert hw.distance(O, p, 2.0) == pytest.approx(length, rel=1e-15)


class TestLogMap:
    @pytest.mark.parametrize("kR", [30.0, 300.0, 400.0, 700.0])
    def test_far_out_raises(self, kR):
        # the distance is resolved; u = y + k^2 B(x, y) x is not, or overflows
        x, y = TestDistance.far_step(kR)
        assert hw.distance(x, y, 1.0) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(InvariantViolationError, match="unresolved"):
            hw.log_map(x, y, 1.0)

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

    @pytest.mark.parametrize("kR", [16.0, 20.0, 40.0, 300.0])
    def test_exact_at_large_radius(self, kR):
        # the axis -(sinh kR, cosh kR n), where a log-map route cancels like e^(2kR)
        k = 0.5
        n = np.array([2.0, -1.0, 2.0]) / 3.0
        p = hw.LorentzPoint(np.concatenate([[math.cosh(kR)], math.sinh(kR) * n]) / k)
        want = -np.concatenate([[math.sinh(kR)], math.cosh(kR) * n])
        got = hw.radial_direction(hw.origin(k, 3), p, k).components
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


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

    @staticmethod
    def reference(R, d_tot, phi, k):
        """The increment in 50-digit arithmetic, from the cancellation-free
        z = ((1 + phi) cosh(A + D) + (1 - phi) cosh(A - D)) / 2."""
        with mpmath.workdps(50):
            A, D, p = mpmath.mpf(k) * R, mpmath.mpf(k) * d_tot, mpmath.mpf(phi)
            z = ((1 + p) * mpmath.cosh(A + D) + (1 - p) * mpmath.cosh(A - D)) / 2
            return float(mpmath.acosh(z) / k - R)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("radii", ["array", "scalar"])
    def test_match_a_50_digit_reference(self, k, radii):
        # "array": one radius per element, the walks' call, with radii on
        # both sides of kR = 30 in every batch; "scalar": the estimators'
        # call, one radius per batch and each direction stacked with its
        # mirror.  Both take long steps, directions near -1, the smallest
        # 1 + phi short of -1 and the edges d_tot = 0 and phi = +-1.
        rng = np.random.default_rng(16)
        n = 600
        R = np.concatenate([rng.uniform(0.0, 30.0, n // 2), rng.uniform(30.0, 400.0, n // 2)]) / k
        d_tot = np.where(rng.random(n) < 0.2, rng.uniform(30.0, 45.0, n) / k,
                         10.0 ** rng.uniform(-6.0, 1.0, n))
        phi = rng.uniform(-1.0, 1.0, n)
        phi[::5] = -1.0 + 10.0 ** rng.uniform(-15.0, -2.0, n // 5)
        phi[1::17], phi[2::17], d_tot[3::17] = 1.0, -1.0, 0.0
        phi[4::17] = np.nextafter(-1.0, 0.0)
        order = rng.permutation(n)
        R, d_tot, phi = R[order], d_tot[order], phi[order]
        if radii == "array":
            cases = [(R, d_tot, phi, radial_increment_exact_batch(R, d_tot, phi, k))]
        else:
            cases = []
            for r in (0.0, 3.0 / k, 80.0 / k, 1e4):
                both = radial_increment_exact_batch(r, d_tot, np.stack([phi, -phi]), k)
                cases += [(np.full(n, r), d_tot, p, row) for p, row in zip((phi, -phi), both)]
        for R, d_tot, phi, got in cases:
            errors = [abs(g - w) / max(1.0, abs(g), abs(w))
                      for g, w in zip(got.tolist(), map(self.reference, R, d_tot, phi,
                                                         [k] * n))]
            assert max(errors) <= 1e-9        # acceptance criterion 1's tolerance
            for g, r, d, p in zip(got, R, d_tot, phi):      # the edges are exact
                if d == 0.0:
                    assert g == 0.0
                elif abs(p) == 1.0:
                    assert g == (d if p == 1.0 else abs(r - d) - r)

    def test_branch_grid_within_1e12_of_a_50_digit_reference(self):
        # every 5th element of each pinned batch: short steps near the origin
        # and directions within 3e-16 of -1, where a difference of squares
        # under the square root cancels
        for R, k, d_tot, phi in branch_grid():
            got = radial_increment_exact_batch(R, d_tot, phi, k)[::5]
            for g, d, p in zip(got.tolist(), d_tot[::5].tolist(), phi[::5].tolist()):
                w = self.reference(R, d, p, k)
                assert abs(g - w) <= 1e-12 * max(1.0, abs(g), abs(w)), (R, k, d, p)

    def test_array_radii_broadcast(self):
        R = np.array([[0.0], [5.0], [80.0]])
        d_tot, phi = np.array([0.5, 2.0]), np.array([0.3, -0.6])
        got = radial_increment_exact_batch(R, d_tot, phi, 1.0)
        assert got.shape == (3, 2)
        want = [[hw.radial_increment_exact(r, d, p, 1.0) for d, p in zip(d_tot, phi)]
                for r in R[:, 0]]
        assert got == pytest.approx(np.array(want), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("R, d_tot, phi", [([1.0, math.nan], 1.0, 0.5),
                                               ([1.0, -1.0], 1.0, 0.5),
                                               ([1.0, 80.0], [1.0, math.nan], 0.5),
                                               ([1.0, 80.0], 1.0, [0.5, 1.5])])
    def test_array_radii_domain_errors(self, R, d_tot, phi):
        with pytest.raises(DomainError):
            radial_increment_exact_batch(np.array(R), d_tot, phi, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hw.radial_increment_exact(1.0, 1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            hw.radial_increment_exact(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hw.radial_increment_exact(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hw.radial_increment_exact(1.0, 1.0, 0.0, 0.0)

    # a NaN in any argument must raise, not come back as a NaN increment;
    # both kernels, in the direct and the log domain
    NAN_ARGS = [(math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, math.nan),
                (80.0, math.nan, 0.5), (80.0, 1.0, math.nan)]

    @pytest.mark.parametrize("R, d_tot, phi", NAN_ARGS)
    def test_nan_argument_raises(self, R, d_tot, phi):
        with pytest.raises(DomainError):
            hw.radial_increment_exact(R, d_tot, phi, 1.0)

    @pytest.mark.parametrize("R, d_tot, phi", NAN_ARGS)
    def test_batch_nan_argument_raises(self, R, d_tot, phi):
        with pytest.raises(DomainError):
            radial_increment_exact_batch(R, [2.0, d_tot], [0.1, phi], 1.0)

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

    @pytest.mark.parametrize("R, d_tot, d_rad", [(math.nan, 1.0, 0.5), (1.0, math.nan, 0.5),
                                                 (1.0, 1.0, math.nan)])
    def test_nan_argument_raises(self, R, d_tot, d_rad):
        with pytest.raises(DomainError):
            hw.euclidean_radial_increment(R, d_tot, d_rad)


def points_with_a_zero_coordinate(count, seed):
    """(d, x): points of R^d, d = 2..6, of random scale, one coordinate 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 7))
        x = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
        x[rng.integers(0, d)] = 0.0
        yield d, x


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
        # the transverse axes are (0, m) with {n, m} an orthonormal basis of
        # R^d, to rounding; a Gram-Schmidt completion that kept a candidate
        # once its squared norm passed 1e-12 was off by up to 3.5e-12 here
        rng = np.random.default_rng(21)
        worst = 0.0
        for d, x in points_with_a_zero_coordinate(20_000, 22):
            k, kR = rng.uniform(0.25, 3.0), rng.uniform(0.0, 30.0)
            n = x / np.linalg.norm(x)
            p = hw.LorentzPoint(np.concatenate([[math.cosh(kR)], math.sinh(kR) * n]) / k)
            axes = hw.radial_frame(hw.origin(k, d), p, k).axes
            assert not np.any(axes[1:, 0])
            A = np.vstack([n, axes[1:, 1:]])
            worst = max(worst, float(np.abs(A @ A.T - np.eye(d)).max()))
        assert worst <= 1e-15

    def test_frame_at_origin_flag(self):
        O = hw.origin(1.0, 3)
        frame = hw.radial_frame(O, O, 1.0)
        assert frame.at_origin
        assert frame.axes[0] == pytest.approx(np.array([0.0, 1.0, 0.0, 0.0]))

    def test_frame_about_another_origin_rejected(self):
        k, d = 1.0, 3
        p = random_point(k, d, 2.0, np.random.default_rng(19))
        v = hw.TangentVector(p, np.zeros(d + 1))
        for other in (p, hw.origin(2.0, d)):
            with pytest.raises(ContractError):
                hw.radial_frame(other, p, k)
            with pytest.raises(ContractError):
                hw.radial_direction(other, p, k)
            with pytest.raises(ContractError):
                hw.decompose_increment(other, p, v, k)

    def test_vector_steps_through_the_frame_it_built(self, monkeypatch):
        built = []
        tangent_axes = hw.geometry._tangent_axes
        monkeypatch.setattr(hw.geometry, "_tangent_axes",
                            lambda x, k: built.append(x) or tangent_axes(x, k))
        p = random_point(0.5, 3, 8.0, np.random.default_rng(29))
        frame = hw.radial_frame(hw.origin(0.5, 3), p, 0.5)
        for d_rad in (0.3, -1.0, 0.0):
            v = frame.vector(d_rad, np.array([0.4, -0.2]))
            assert v.components.tobytes() == tangent_axes(p.coords, 0.5).step(
                d_rad, np.array([0.4, -0.2])).tobytes()
        assert len(built) == 1

    def test_vector_rejects_a_transverse_part_of_the_wrong_size(self):
        O = hw.origin(1.0, 3)
        frame = hw.radial_frame(O, random_point(1.0, 3, 2.0, np.random.default_rng(23)), 1.0)
        for t in (np.array([0.4]), 0.4, np.zeros(3)):
            with pytest.raises(DimensionError):
                frame.vector(0.3, t)

    def test_euclidean_frame(self):
        from hyperwalk.geometry import euclidean_frame
        x = np.array([3.0, 4.0])
        axes = euclidean_frame(x).axes
        assert axes[0] == pytest.approx(-x / 5.0)
        assert axes @ axes.T == pytest.approx(np.eye(2), abs=1e-14)
        assert euclidean_frame(np.zeros(3)).axes == pytest.approx(np.eye(3))

    def test_euclidean_frame_is_orthonormal(self):
        from hyperwalk.geometry import euclidean_frame
        worst = 0.0
        for d, x in points_with_a_zero_coordinate(20_000, 20):
            axes = euclidean_frame(x).axes
            assert np.all(axes[0] == -x / np.linalg.norm(x))
            worst = max(worst, float(np.abs(axes @ axes.T - np.eye(d)).max()))
        assert worst <= 1e-15


class TestStepMatchesMatrixView:
    """The walk's step, HouseholderFrame.step, equals the matrix view
    -d_rad * axes[0] + t @ axes[1:] of the frame radial_frame and
    euclidean_frame return, within a few ulp of the step's size."""

    @staticmethod
    def assert_close(step, axes, d_rad, t):
        view = -d_rad * axes[0] + t @ axes[1:]
        scale = np.abs(d_rad) * np.abs(axes[0]) + np.abs(t) @ np.abs(axes[1:])
        assert np.all(np.abs(step - view) <= 8 * np.finfo(float).eps * np.maximum(scale, 1e-300))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("kR", [0.0, 0.5, 16.0, 300.0])
    def test_hyperbolic(self, d, kR):
        from hyperwalk.geometry import _tangent_axes
        rng = np.random.default_rng(24)
        k = 0.5
        O = hw.origin(k, d)
        for _ in range(50):
            g = rng.standard_normal(d)
            n = g / np.linalg.norm(g)
            p = hw.LorentzPoint(np.concatenate([[math.cosh(kR)], math.sinh(kR) * n]) / k)
            d_rad, t = rng.standard_normal(), rng.standard_normal(d - 1)
            step = _tangent_axes(p.coords, k).step(d_rad, t)
            self.assert_close(step, hw.radial_frame(O, p, k).axes, d_rad, t)
            assert np.array_equal(hw.radial_frame(O, p, k).vector(d_rad, t).components, step)
            # the time component is exactly d_rad sinh kR, read off the point
            assert step[0] == d_rad * (k * float(np.linalg.norm(p.coords[1:])))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_flat(self, d):
        from hyperwalk.geometry import euclidean_frame
        rng = np.random.default_rng(25)
        for _ in range(50):
            x = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
            frame = euclidean_frame(x)
            d_rad, t = rng.standard_normal(), rng.standard_normal(d - 1)
            self.assert_close(frame.step(d_rad, t), frame.axes, d_rad, t)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_first_step_from_the_origin(self, d):
        # the stand-in outward direction -e_1 (-e_0 in flat space) steps to
        # exactly (0, -d_rad, t) and (-d_rad, t): at the origin the frame is
        # the identity
        from hyperwalk.geometry import _exp_step, _tangent_axes, euclidean_frame
        rng = np.random.default_rng(26)
        k = 0.75
        O = hw.origin(k, d)
        for _ in range(20):
            d_rad, t = rng.standard_normal(), rng.standard_normal(d - 1)
            want = np.concatenate([[0.0, -d_rad], t])
            step = _tangent_axes(O.coords, k).step(d_rad, t)
            assert np.array_equal(step, want)
            length = math.sqrt(d_rad * d_rad + float(t @ t))
            assert (_exp_step(O.coords, step, length, k).tobytes()
                    == _exp_step(O.coords, want, length, k).tobytes())
            flat = euclidean_frame(np.zeros(d)).step(d_rad, t)
            assert (np.zeros(d) + flat).tobytes() == (np.zeros(d) + want[1:]).tobytes()


class TestArrayKernels:
    """The ambient step's kernels take a (W, d+1) array of points; each row
    must hold the bytes of the same call on that point alone."""

    def test_safe_norm_rows(self):
        from hyperwalk.geometry import _safe_norm
        rows = np.array([[3.0, 4.0], [3e200, -4e200], [0.0, 0.0],
                         [math.inf, 1.0], [math.nan, 1.0]])
        got = _safe_norm(rows)
        assert got[0] == 5.0 and got[2] == 0.0
        assert got[1] == pytest.approx(5e200, rel=1e-15)
        assert got[3] == math.inf and math.isnan(got[4])
        for row, norm in zip(rows, got):
            assert np.asarray(_safe_norm(row)).tobytes() == norm.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_hyperbolic_rows_match_single_points(self, d):
        # the origin, and radii up to the scaled norm path (sinh kR > 1e150)
        from hyperwalk.geometry import _exp_step, _reproject, _tangent_axes
        rng = np.random.default_rng(27)
        k = 0.5
        kR = np.array([0.0, 0.3, 5.0, 40.0, 300.0, 400.0])
        n = rng.standard_normal((kR.size, d))
        n /= np.linalg.norm(n, axis=1)[:, None]
        X = np.concatenate([np.cosh(kR)[:, None], np.sinh(kR)[:, None] * n], axis=1) / k
        D, T = rng.standard_normal(kR.size), rng.standard_normal((kR.size, d - 1))
        length = np.sqrt(D * D + np.einsum("ij,ij->i", T, T))
        V = _tangent_axes(X, k).step(D, T)
        Y = _exp_step(X, V, length, k)
        Y_snapped = Y.copy()
        R, defect = _reproject(Y_snapped, k)
        for i in range(kR.size):
            v = _tangent_axes(X[i], k).step(D[i], T[i])
            assert v.tobytes() == V[i].tobytes()
            y = _exp_step(X[i], v, length[i], k)
            assert y.tobytes() == Y[i].tobytes()
            r, e = _reproject(y, k)
            assert (y.tobytes(), float(r), float(e)) == (Y_snapped[i].tobytes(), R[i], defect[i])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_distance_rows_match_single_pairs(self, d):
        # from the origin to the ambient limit, against a second array of
        # points and against one point broadcast over every row
        rng = np.random.default_rng(30)
        k = 0.5
        kR = np.array([0.0, 1e-8, 0.3, 5.0, 10.0, 40.0, 300.0, 400.0, 700.0])

        def points(kR):
            n = rng.standard_normal((kR.size, d))
            n /= np.linalg.norm(n, axis=1)[:, None]
            return np.concatenate([np.cosh(kR)[:, None], np.sinh(kR)[:, None] * n], axis=1) / k
        X, Y = points(kR), points(rng.permutation(kR))
        D, C = _distance(X, Y, k), _distance(X, Y[3], k)
        for i in range(kR.size):
            assert _distance(X[i], Y[i], k).tobytes() == D[i].tobytes()
            assert _distance(X[i], Y[3], k).tobytes() == C[i].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_flat_rows_match_single_points(self, d):
        from hyperwalk.geometry import euclidean_frame
        rng = np.random.default_rng(28)
        X = rng.standard_normal((5, d)) * rng.uniform(1e-3, 1e3, (5, 1))
        X[0] = 0.0
        D, T = rng.standard_normal(5), rng.standard_normal((5, d - 1))
        V = euclidean_frame(X).step(D, T)
        for i in range(5):
            assert euclidean_frame(X[i]).step(D[i], T[i]).tobytes() == V[i].tobytes()


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
