"""Geometry kernel tests: closed forms against coordinate-level oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperwalk as hw
from hyperwalk.errors import DomainError
from hyperwalk.geometry import (
    NEAR_ORIGIN,
    REPROJECTION_DRIFT_TOL,
    _distance,
    _exp_step,
    _reproject,
    _safe_norm,
    _scaled_norm,
    _tangent_axes,
    _turn,
    one_plus_phi,
    _rowdot,
    radial_increment_exact_batch,
)
from test_kernel_pins import branch_grid


def mink(x, y):
    """The Minkowski pairing -x0 y0 + x1 y1 + ... + xd yd."""
    return float(x[1:] @ y[1:] - x[0] * y[0])


def origin(k, d):
    x = np.zeros(d + 1)
    x[0] = 1.0 / k
    return x


def polar_point(k, kR, n):
    """The point of H_k at radius R = kR / k in the unit direction n."""
    return np.concatenate([[math.cosh(kR)], math.sinh(kR) * n]) / k


def random_point(k, d, r_max, rng):
    g = rng.standard_normal(d)
    return polar_point(k, k * rng.uniform(0, r_max), g / np.linalg.norm(g))


def random_step(x, k, length, rng):
    """A step of the given length at x, in a uniform direction of its frame."""
    w = rng.standard_normal(x.size - 1)
    w *= length / np.linalg.norm(w)
    return _tangent_axes(x, k).step(w[0], w[1:])


def walk_step(x, v, length, k):
    """The ambient walk's step: exp step, then the snap onto H_k."""
    y = _exp_step(x, v, length, k)
    _, defect = _reproject(y, k)
    assert defect <= hw.geometry.REPROJECTION_DRIFT_TOL
    return y


def off_sheet(x, k):
    """The relative defect of k x0 against hypot(1, k|x_s|)."""
    h = math.hypot(1.0, k * float(_safe_norm(x[1:])))
    return abs(k * x[0] - h) / h


def polar(x, k):
    """(R, n) of a point x of H_k: R = asinh(k|x_s|) / k, n = x_s / |x_s|
    (0 at the origin)."""
    sp = float(_safe_norm(x[1:]))
    return math.asinh(k * sp) / k, x[1:] / (sp if sp > 0.0 else 1.0)


def dist(x, y, k):
    """The polar `_distance` of points x and y of H_k."""
    return float(_distance(*polar(x, k), *polar(y, k), k))


def polar_step(R, n, d_rad, t, k):
    """The ambient walk's step from (R, n): the radial increment, and the
    turn of n by t read in n's frame."""
    d_tot = math.sqrt(d_rad * d_rad + float(t @ t))
    R_after = max(R + hw.radial_increment_exact(R, d_tot, d_rad / d_tot, k), 0.0)
    return R_after, _turn(n, t, R, d_rad, d_tot, k, one_plus_phi(d_rad, float(t @ t), d_tot))


class TestExpStep:
    @pytest.mark.parametrize("k,t", [(1.0, 0.5), (2.0, 3.0), (0.5, 10.0)])
    def test_geodesic_from_origin(self, k, t):
        O = origin(k, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = walk_step(O, t * e1, t, k)
        assert p[0] == pytest.approx(math.cosh(t * k) / k, rel=1e-13)
        assert p[1] == pytest.approx(math.sinh(t * k) / k, rel=1e-13)
        assert p[2] == 0.0
        assert dist(O, p, k) == pytest.approx(t, rel=1e-12)

    def test_hyperboloid_preserved_on_random_inputs(self):
        # |B(y,y) k^2 + 1| < 1e-9 needs k(R + |v|) small enough that the
        # check itself is conditioned; e^(2kR) eps < 1e-9 caps kR near 7.5
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = rng.uniform(0.25, 4.0)
            d = int(rng.integers(2, 5))
            x = random_point(k, d, 2.0 / k, rng)
            length = rng.uniform(0, 1.5 / k)
            y = walk_step(x, random_step(x, k, length, rng), length, k)
            assert abs(mink(y, y) * k * k + 1.0) < 1e-9

    def test_endpoint_lies_on_the_hyperboloid(self):
        # the geodesic-step suite's envelope: x at radius up to 4/k and a
        # step of up to min(20, 8/k); the sheet test holds at any radius
        rng = np.random.default_rng(1)
        for _ in range(500):
            k = rng.uniform(0.25, 4.0)
            x = random_point(k, int(rng.integers(2, 5)), 4.0 / k, rng)
            length = rng.uniform(1e-3, min(20.0, 8.0 / k))
            assert off_sheet(walk_step(x, random_step(x, k, length, rng), length, k), k) <= 1e-10

    def test_geodesic_property_distance_equals_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = rng.uniform(0.25, 4.0)
            x = random_point(k, 3, 2.0 / k, rng)
            length = rng.uniform(1e-3, 2.0 / k)
            y = walk_step(x, random_step(x, k, length, rng), length, k)
            assert dist(x, y, k) == pytest.approx(length, rel=1e-10)


class TestDistance:
    """The polar distance, from (R, n) pairs."""

    def test_zero_iff_same_point(self):
        n = np.array([0.6, -0.8])
        for R in (0.0, 3.0, 800.0, 1e4):
            assert _distance(R, n, R, n, 1.0) == 0.0
        assert _distance(3.0, n, 3.0, -n, 1.0) > 0.0

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_unit_speed(self, t):
        k = 1.0
        O = origin(k, 2)
        e1 = np.zeros(3)
        e1[1] = 1.0
        p = walk_step(O, t * e1, t, k)
        assert dist(O, p, k) == pytest.approx(t, rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = rng.uniform(0.5, 2.0)
            pts = [polar(random_point(k, 2, 4.0 / k, rng), k) for _ in range(3)]
            dxy = _distance(*pts[0], *pts[1], k)
            assert dxy == pytest.approx(_distance(*pts[1], *pts[0], k), rel=1e-12)
            dyz = _distance(*pts[1], *pts[2], k)
            dxz = _distance(*pts[0], *pts[2], k)
            assert dxz <= dxy + dyz + 1e-10

    KR = [0.0, 1e-8, 0.5, 9.0, 12.0, 20.0, 40.0, 300.0, 354.0, 400.0, 699.0, 700.0, 800.0, 1e4]

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d, axis", [(2, 0), (3, 2), (5, 1)])
    def test_same_axis_pairs(self, k, d, axis):
        # a - b is the only difference taken; a radius a / k that k * R
        # does not give back exactly carries eps * a into it.  Past
        # k d = 1420 sinh(k d / 2) overflows, and the distance reads inf
        n = np.eye(d)[axis]
        for a in self.KR:
            for b in self.KR:
                got = _distance(a / k, n, b / k, n, k)
                if abs(a - b) > 1420.0:
                    assert got == math.inf
                    continue
                inexact = k * (a / k) != a or k * (b / k) != b
                assert got == pytest.approx(abs(a - b) / k, rel=1e-14,
                                            abs=2.0 ** -51 * max(a, b) / k if inexact else 0.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d", [2, 4])
    def test_equal_radius_pairs(self, k, d):
        # sinh(k d / 2) = sinh kR sin(theta / 2); at theta = 1e-200 the
        # directions' difference underflows a plain norm.  Past kR = 710
        # sinh kR overflows, and the scaled factors do not.  A radius a / k
        # that k * R does not give back exactly carries eps * a into sinh kR
        for a in self.KR[1:]:
            for theta in (1e-200, 1e-100, 1e-8, 1e-3, 0.5, 2.0, math.pi):
                x, y = np.zeros(d), np.zeros(d)
                x[0] = 1.0
                y[0], y[1] = math.cos(theta), math.sin(theta)
                got = _distance(a / k, x, a / k, y, k)
                with mpmath.workdps(40):
                    want = float(2 / mpmath.mpf(k) * mpmath.asinh(
                        mpmath.sinh(a) * mpmath.sin(mpmath.mpf(theta) / 2)))
                assert got > 0.0
                if k * want > 1420.0:
                    assert got == math.inf
                    continue
                inexact = 2.0 ** -52 * max(a, 1.0) if k * (a / k) != a else 0.0
                assert got == pytest.approx(want, rel=1e-14 + inexact, abs=0.0)

    # the walk's step d_rad = 0.3, |t| = 0.4 (length 0.5) from radius kR,
    # k = 1, d = 2: the radii carry eps * kR, which the length's rounding
    # reads as a relative 2 eps * kR / 0.5.  Past kR = 745 the turn,
    # about e^-kR, is below the least double and leaves n as it is
    FAR_STEPS = [0.5, 5.0, 14.0, 18.0, 30.0, 300.0, 400.0, 700.0]

    @pytest.mark.parametrize("kR", FAR_STEPS)
    def test_far_step_distance(self, kR):
        n = np.array([1.0, 0.0])
        R, m = polar_step(kR, n, 0.3, np.array([0.4]), 1.0)
        assert _distance(kR, n, R, m, 1.0) == pytest.approx(
            0.5, rel=max(1e-15, 8 * 2.0 ** -52 * kR))

    @pytest.mark.parametrize("length", [1e-12, 1e-8, 1e-5])
    def test_short_distance_is_exact(self, length):
        n = np.array([0.0, 1.0, 0.0])
        assert _distance(0.0, n, length, n, 2.0) == pytest.approx(length, rel=1e-15)
        assert _distance(0.0, -n, length, n, 2.0) == pytest.approx(length, rel=1e-15)


class TestRadialDirection:
    """The unit step toward the origin, -radial of the point's frame."""

    @pytest.mark.parametrize("t,k", [(0.5, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_matches_geodesic_derivative(self, t, k):
        p = polar_point(k, t * k, np.array([1.0, 0.0]))
        e_rad = -_tangent_axes(p, k).radial
        expected = np.array([-math.sinh(t * k), -math.cosh(t * k), 0.0])
        assert e_rad == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = rng.uniform(0.25, 3.0)
            p = random_point(k, 3, 5.0 / k, rng)
            radial = _tangent_axes(p, k).radial
            assert mink(radial, radial) == pytest.approx(1.0, rel=1e-10)
            assert abs(mink(p, radial)) <= 1e-10 * float(np.abs(p).max())

    @pytest.mark.parametrize("kR", [16.0, 20.0, 40.0, 300.0])
    def test_exact_at_large_radius(self, kR):
        # the axis -(sinh kR, cosh kR n), where a log-map route cancels like e^(2kR)
        k = 0.5
        n = np.array([2.0, -1.0, 2.0]) / 3.0
        want = -np.concatenate([[math.sinh(kR)], math.cosh(kR) * n])
        got = -_tangent_axes(polar_point(k, kR, n), k).radial
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


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
            axes = _tangent_axes(p, k).axes
            for i in range(d):
                assert abs(mink(p, axes[i])) < 1e-8
                for j in range(d):
                    want = 1.0 if i == j else 0.0
                    assert mink(axes[i], axes[j]) == pytest.approx(want, abs=1e-8)
        # the transverse axes are (0, m) with {n, m} an orthonormal basis of
        # R^d, to rounding; a Gram-Schmidt completion that kept a candidate
        # once its squared norm passed 1e-12 was off by up to 3.5e-12 here
        rng = np.random.default_rng(21)
        worst = 0.0
        for d, x in points_with_a_zero_coordinate(20_000, 22):
            k, kR = rng.uniform(0.25, 3.0), rng.uniform(0.0, 30.0)
            n = x / np.linalg.norm(x)
            axes = _tangent_axes(polar_point(k, kR, n), k).axes
            assert not np.any(axes[1:, 0])
            A = np.vstack([n, axes[1:, 1:]])
            worst = max(worst, float(np.abs(A @ A.T - np.eye(d)).max()))
        assert worst <= 1e-15

    def test_frame_at_origin_takes_the_stand_in(self):
        frame = _tangent_axes(origin(1.0, 3), 1.0)
        assert frame.axes[0] == pytest.approx(np.array([0.0, 1.0, 0.0, 0.0]))

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
    -d_rad * axes[0] + t @ axes[1:] of the frame _tangent_axes and
    euclidean_frame return, within a few ulp of the step's size."""

    @staticmethod
    def assert_close(step, axes, d_rad, t):
        view = -d_rad * axes[0] + t @ axes[1:]
        scale = np.abs(d_rad) * np.abs(axes[0]) + np.abs(t) @ np.abs(axes[1:])
        assert np.all(np.abs(step - view) <= 8 * np.finfo(float).eps * np.maximum(scale, 1e-300))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("kR", [0.0, 0.5, 16.0, 300.0])
    def test_hyperbolic(self, d, kR):
        rng = np.random.default_rng(24)
        k = 0.5
        for _ in range(50):
            g = rng.standard_normal(d)
            p = polar_point(k, kR, g / np.linalg.norm(g))
            d_rad, t = rng.standard_normal(), rng.standard_normal(d - 1)
            frame = _tangent_axes(p, k)
            step = frame.step(d_rad, t)
            self.assert_close(step, frame.axes, d_rad, t)
            # the time component is exactly d_rad sinh kR, read off the point
            assert step[0] == d_rad * (k * float(np.linalg.norm(p[1:])))

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
        O = origin(k, d)
        for _ in range(20):
            d_rad, t = rng.standard_normal(), rng.standard_normal(d - 1)
            want = np.concatenate([[0.0, -d_rad], t])
            step = _tangent_axes(O, k).step(d_rad, t)
            assert np.array_equal(step, want)
            length = math.sqrt(d_rad * d_rad + float(t @ t))
            assert (_exp_step(O, step, length, k).tobytes()
                    == _exp_step(O, want, length, k).tobytes())
            flat = euclidean_frame(np.zeros(d)).step(d_rad, t)
            assert (np.zeros(d) + flat).tobytes() == (np.zeros(d) + want[1:]).tobytes()


class TestFrameStepIncrement:
    """A frame step (d_rad, t) is a tangent of Minkowski length
    hypot(d_rad, |t|), and the walk's exp step along it changes the radius
    by radial_increment_exact with phi = d_rad / d_tot."""

    @staticmethod
    def radius_after(x, v, length, k):
        R, _ = _reproject(walk_step(x, v, length, k), k)
        return float(R)

    def test_zero_step(self):
        rng = np.random.default_rng(10)
        x = random_point(1.0, 2, 3.0, rng)
        assert not np.any(_tangent_axes(x, 1.0).step(0.0, np.zeros(1)))

    def test_step_is_tangent_with_its_length(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = rng.uniform(0.25, 3.0)
            d = int(rng.integers(2, 5))
            x = random_point(k, d, 3.0 / k, rng)
            d_rad, t = rng.standard_normal(), rng.standard_normal(d - 1)
            v = _tangent_axes(x, k).step(d_rad, t)
            assert abs(mink(x, v)) <= 1e-10 * float(np.abs(x).max() * np.abs(v).max())
            assert mink(v, v) == pytest.approx(d_rad * d_rad + float(t @ t), rel=1e-10)

    def test_pure_transverse_step(self):
        rng = np.random.default_rng(11)
        k = 1.0
        g = rng.standard_normal(3)
        x = polar_point(k, 2.0, g / np.linalg.norm(g))
        frame = _tangent_axes(x, k)
        v = frame.step(0.0, np.array([1.0, 2.0]))
        assert abs(mink(v, frame.radial)) <= 1e-12
        length = math.sqrt(5.0)
        want = 2.0 + hw.radial_increment_exact(2.0, length, 0.0, k)
        assert self.radius_after(x, v, length, k) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d_rad", [0.7, -0.7])
    def test_outward_sign_convention(self, d_rad):
        # a positive d_rad steps away from the origin, a negative one toward it
        k = 1.0
        x = polar_point(k, 2.0, np.array([1.0, 0.0]))
        v = _tangent_axes(x, k).step(d_rad, np.zeros(1))
        assert self.radius_after(x, v, abs(d_rad), k) == pytest.approx(2.0 + d_rad, rel=1e-12)

    @pytest.mark.parametrize("kR", [0.5, 2.0, 5.0])
    def test_frame_step_keeps_its_length(self, kR):
        # d_rad = 0.3 and |t| = 0.4, of length 0.5, at radius kR for k = 1
        x = np.array([math.cosh(kR), math.sinh(kR), 0.0])
        v = _tangent_axes(x, 1.0).step(0.3, np.array([0.4]))
        assert math.sqrt(mink(v, v)) == pytest.approx(0.5, rel=1e-12)
        y = walk_step(x, v, 0.5, 1.0)
        assert dist(x, y, 1.0) == pytest.approx(0.5, rel=1e-12)
        want = kR + hw.radial_increment_exact(kR, 0.5, 0.6, 1.0)
        assert self.radius_after(x, v, 0.5, 1.0) == pytest.approx(want, rel=1e-12)


class TestArrayKernels:
    """The kernels take an array of points, one a row; each row must hold
    the bytes of the same call on that point alone."""

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
        # from the origin to past kR = 700, against a second array of points
        # and against one point broadcast over every row
        rng = np.random.default_rng(30)
        k = 0.5
        R = np.array([0.0, 1e-8, 0.3, 5.0, 10.0, 40.0, 300.0, 400.0, 700.0, 800.0, 1e4]) / k

        def directions():
            n = rng.standard_normal((R.size, d))
            return n / np.linalg.norm(n, axis=1)[:, None]
        X, S, Y = directions(), rng.permutation(R), directions()
        D, C = _distance(R, X, S, Y, k), _distance(R, X, S[3], Y[3], k)
        for i in range(R.size):
            assert _distance(R[i], X[i], S[i], Y[i], k).tobytes() == D[i].tobytes()
            assert _distance(R[i], X[i], S[3], Y[3], k).tobytes() == C[i].tobytes()

    @pytest.mark.parametrize("k", [0.5, 0.0])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_turn_rows_match_single_points(self, d, k):
        # rows at the origin, far out, with a zero step and with a step that
        # lands on the origin, each beside ordinary rows
        rng = np.random.default_rng(31)
        R = np.array([0.0, 0.3, 5.0, 2.0, 1e4, 2.5, 1.5])
        n = rng.standard_normal((R.size, d))
        n /= np.linalg.norm(n, axis=1)[:, None]
        D, T = rng.standard_normal(R.size), rng.standard_normal((R.size, d - 1))
        D[5], T[5] = 0.0, 0.0           # a zero step
        D[6], T[6] = -1.5, 0.0          # straight inward onto the origin
        length = np.sqrt(D * D + _rowdot(T, T))
        opp = one_plus_phi(D, _rowdot(T, T), length)
        got = _turn(n, T, R, D, length, k, opp)
        for i in range(R.size):
            one = _turn(n[i], T[i], R[i], D[i], length[i], k, opp[i])
            assert one.tobytes() == got[i].tobytes()
        assert got[5] == pytest.approx(n[5], rel=1e-15, abs=0.0)
        assert got[6].tolist() == [-1.0] + [0.0] * (d - 1)
        assert _rowdot(got, got) == pytest.approx(1.0, rel=4e-16)

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


# Inputs on both sides of each checked kernel's reductions.
_ROW_SCALE = st.one_of(st.just(1.0), st.floats(1e-153, 1e-147), st.floats(1e146, 1e148),
                       st.floats(1e-318, 1e-305), st.just(0.0))
_SPECIAL = st.one_of(st.floats(1e-151, 1e-149), st.floats(1e149, 1e151),
                     st.floats(5e-324, 2.2e-308), st.sampled_from([0.0, math.inf, math.nan]))
# k R: at and near the origin's 1e-12, either side of NEAR_ORIGIN, ordinary,
# and near the ambient limit 700
_KR = st.one_of(st.just(0.0), st.floats(5e-13, 2e-12), st.floats(NEAR_ORIGIN / 2, 2 * NEAR_ORIGIN),
                st.floats(0.0, 5.0), st.floats(695.0, 705.0))


@st.composite
def _components(draw):
    """A (W, n) array whose rows are scaled about 1e+-150, into the
    subnormals or to 0, with a few components replaced by such magnitudes
    or by non-finite values."""
    W, n = draw(st.integers(0, 4)), draw(st.integers(2, 4))
    v = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=W * n, max_size=W * n)))
    v = v.reshape(W, n) * np.array(draw(st.lists(_ROW_SCALE, min_size=W, max_size=W)))[:, None]
    for _ in range(draw(st.integers(0, 2)) if W else 0):
        i, j = draw(st.integers(0, W - 1)), draw(st.integers(0, n - 1))
        v[i, j] = draw(st.sampled_from([1.0, -1.0])) * draw(_SPECIAL)
    return v


@st.composite
def _points(draw, perturbed=False):
    """(X, k): a (W, d+1) array of points of H_k at radii k R drawn from
    _KR.  Perturbed points are a step's endpoints: each row may have its
    spatial part or k x0 off the sheet by up to 3e-6 (either side of
    REPROJECTION_DRIFT_TOL), k x0 below 1, or a non-finite coordinate."""
    k, d, W = draw(st.floats(0.25, 4.0)), draw(st.integers(2, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.empty((W, d + 1))
    for row in X:
        n = rng.standard_normal(d)
        ksp = math.sinh(draw(_KR))
        row[:] = np.concatenate([[math.hypot(1.0, ksp)], ksp * n / np.linalg.norm(n)]) / k
        kinds = ["on", "spatial", "time", "below", "non-finite"] if perturbed else ["on"]
        kind = draw(st.sampled_from(kinds))
        if kind == "spatial":
            row[1:] *= 1.0 + draw(st.floats(-3e-6, 3e-6))
        elif kind == "time":
            row[0] += draw(st.floats(-3e-6, 3e-6)) / k
        elif kind == "below":
            row[0] = draw(st.floats(0.9, 1.0)) / k
        elif kind == "non-finite":
            row[draw(st.integers(0, d))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return X, k


def _frame_bytes(frame):
    return [np.asarray(a).tobytes() for a in (frame.radial, frame.w, frame.scale)]


class TestCheckedKernels:
    """A checked kernel gives each row the bytes it gives that point alone,
    on both sides of every check: `_safe_norm` takes its unmasked
    arithmetic only when one or two reductions say no row needs a mask, and
    must then give `_scaled_norm`'s bytes; the oracle's frame and snap mask
    every row."""

    @given(_components())
    @example(np.array([[3.0, 4.0], [1e-3, 2e-3]]))          # the plain path
    @example(np.array([[3.0, 4.0], [1e151, 0.0]]))          # past 1e150
    @example(np.array([[1e-149, 1e-149], [3.0, 4.0]]))      # a dot below 1e-290
    @example(np.array([[3.0, 4.0], [math.nan, 1.0]]))
    @example(np.empty((0, 3)))
    @settings(max_examples=300, deadline=None)
    def test_safe_norm_is_scaled_norm(self, v):
        assert _safe_norm(v).tobytes() == _scaled_norm(v).tobytes()
        for row in v:
            assert np.asarray(_safe_norm(row)).tobytes() == np.asarray(_scaled_norm(row)).tobytes()

    @given(_points())
    @settings(max_examples=300, deadline=None)
    def test_tangent_axes_rows_are_single_points(self, drawn):
        X, k = drawn
        frame = _tangent_axes(X, k)
        for i, x in enumerate(X):
            rows = [np.asarray(a)[i].tobytes() for a in (frame.radial, frame.w, frame.scale)]
            assert _frame_bytes(_tangent_axes(x, k)) == rows

    @given(_points(perturbed=True))
    @settings(max_examples=400, deadline=None)
    # a subnormal spatial part, which the point keeps, once overflowed the
    # scale computed for the rows that are snapped
    @example((np.array([[1.00000131, 0.0, 5e-324]]), 1.0))
    def test_reproject_rows_are_single_points(self, drawn):
        X, k = drawn
        got = X.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R, defect = _reproject(got, k)
        for i, x in enumerate(X):
            one = x.copy()
            r, e = _reproject(one, k)
            assert [np.asarray(a).tobytes() for a in (one, r, e)] == [
                np.asarray(a).tobytes() for a in (got[i], R[i], defect[i])]

    def test_a_norm_past_the_double_range_is_inf_without_a_warning(self):
        v = np.array([1.5e308, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _safe_norm(v) == math.inf
            assert _scaled_norm(v[None])[0] == math.inf

    @pytest.mark.parametrize("x", [[1.5e308, 1.0e308, 0.0], [1.0e308, 1.5e308, 0.0]])
    def test_a_product_past_the_double_range_reads_defect_inf(self, x):
        # k x0 or k |x_s| overflows at k = 4: the point is read as non-finite
        # and left as it is, without a warning, alone or beside a plain row
        k = 4.0
        plain = np.array([math.cosh(1.0), math.sinh(1.0), 0.0]) / k
        for X in (np.array(x), np.array([x, plain])):
            got = X.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                R, defect = _reproject(got, k)
            assert np.reshape(defect, -1)[0] == math.inf
            assert got.reshape(-1, 3)[0].tolist() == x      # left as it is
        assert defect[1] <= REPROJECTION_DRIFT_TOL and R[1] == pytest.approx(1.0 / k, rel=1e-14)

    @pytest.mark.parametrize("k", [1.0, 0.5])
    @pytest.mark.parametrize("s", [1e-9, 1e-7, 1e-5])
    def test_short_step_from_the_origin_keeps_its_length(self, s, k):
        # acosh(k x0) cannot resolve these (k x0 rounds to 1 at s = 1e-9),
        # so the radius must come from the spatial part
        e1 = np.zeros(3)
        e1[1] = 1.0
        y = _exp_step(origin(k, 2), s * e1, s, k)
        R, defect = _reproject(y, k)
        assert abs(R - s) <= 4 * np.finfo(float).eps * s
        assert defect <= REPROJECTION_DRIFT_TOL
        assert y[0] == math.hypot(1.0, k * y[1]) / k and y[2] == 0.0
        assert dist(origin(k, 2), y, k) == pytest.approx(s, rel=1e-14)


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
