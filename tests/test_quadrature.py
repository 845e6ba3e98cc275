"""Quadrature moments against independent references.

The built-in laws' moments are integrated by Gauss quadrature over the
law's own parameters (hyperwalk.quadrature and the laws' quadrature_lines);
box laws only in d = 2 and for k a <= QUADRATURE_KA, where that costs less
than sampling.
The references here are mpmath integrals at 20-40 digits of the plain
definitions, (1/k) log(cosh(k d_tot) + phi sinh(k d_tot)) and the exact
increment acosh(cosh kR cosh kd + phi sinh kR sinh kd)/k - R, or scipy
integrals of double-precision forms where a reference needs many root
solves.  The radii are the golden runs' grids.  A 10^6-draw Monte Carlo
estimate must also lie within its 99% half-width of each quadrature value.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, optimize, special

import hyperwalk as hw
from hyperwalk import geometry, lamperti, quadrature
from hyperwalk.geometry import radial_increment_exact_batch

C1 = hw.RadialProfile.constant(1.0)
B_DECAY = hw.RadialProfile.power_decay(1.0, 1.0)
REL = 1e-12


def close(got, want, rel=REL):
    assert abs(got - float(want)) <= rel * abs(float(want)), (got, float(want))


def pinched(law, r, k, K):
    """_pinched_integrals at the one radius r of the band (k, K)."""
    return lamperti._pinched_integrals(law, [(r, k, K)])[0]


def mp_increment(k, d_rad, t_sq):
    """The asymptotic increment at mpmath precision, with 1 + phi formed from
    |t|^2 where d_rad < 0, as the definition needs no cancellation."""
    k, d_rad, t_sq = mp.mpf(k), mp.mpf(d_rad), mp.mpf(t_sq)
    d_tot = mp.sqrt(d_rad * d_rad + t_sq)
    if d_tot == 0:
        return mp.mpf(0)
    opp = t_sq / (d_tot * (d_tot - d_rad)) if d_rad < 0 else (d_tot + d_rad) / d_tot
    return mp.log(mp.exp(-k * d_tot) + opp * mp.sinh(k * d_tot)) / k


def mp_exact_increment(R, k, d_rad, t_sq):
    R, k, d_rad, t_sq = (mp.mpf(x) for x in (R, k, d_rad, t_sq))
    d = mp.sqrt(d_rad * d_rad + t_sq)
    if d == 0:
        return mp.mpf(0)
    z = mp.cosh(k * R) * mp.cosh(k * d) + d_rad / d * mp.sinh(k * R) * mp.sinh(k * d)
    return mp.acosh(z) / k - R


class TestNodes:
    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.7])
    def test_golub_welsch_against_mpmath(self, beta):
        # the nodes are the roots of the Jacobi polynomial P_n^(0, beta),
        # polished by mpmath from scipy's; the weights are 1 / sum_j p_j^2
        # over the orthonormal polynomials, at 30 digits
        mp.mp.dps = 30
        n = 24
        x, w = quadrature.gauss_jacobi(n, beta)
        norms = [mp.mpf(2) ** (beta + 1) / (2 * j + beta + 1) * mp.gamma(j + beta + 1)
                 / mp.gamma(j + beta + 1) for j in range(n)]
        for xi, wi, start in zip(x, w, special.roots_jacobi(n, 0.0, beta)[0]):
            root = mp.findroot(lambda t: mp.jacobi(n, 0, beta, t), mp.mpf(start))
            weight = 1 / mp.fsum(mp.jacobi(j, 0, beta, root) ** 2 / norms[j] for j in range(n))
            assert abs(xi - root) < 1e-15
            close(wi, weight, 1e-13)

    def test_rules_are_cached_and_read_only(self):
        x, w = quadrature.gauss_jacobi(16)
        assert quadrature.gauss_jacobi(16)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_one_plus_phi_keeps_its_digits_near_minus_one(self):
        mp.mp.dps = 40
        for y in (5.0, 40.0, 300.0):
            off = 2.0 * math.exp(-y) / (1.0 + math.exp(-y))
            d_rad, t_sq = (off - 1.0) * y, y * y * off * (2.0 - off)
            got = math.log(geometry.one_plus_phi(d_rad, t_sq, math.sqrt(d_rad ** 2 + t_sq)))
            d_tot = mp.sqrt(mp.mpf(d_rad) ** 2 + mp.mpf(t_sq))
            want = mp.log(mp.mpf(t_sq) / (d_tot * (d_tot - mp.mpf(d_rad))))
            close(got, want, 1e-14)


def elliptic_reference(law, k, r, power):
    """E[f^power] for an elliptic law: an integral over the polar angle."""
    d = law.d
    a, b = law.a(r) * math.sqrt(d), law.b(r) * math.sqrt(d)
    norm = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d) / 2)
    g = lambda th: (mp_increment(k, a * mp.cos(th), (b * mp.sin(th)) ** 2) ** power
                    * mp.sin(th) ** (d - 2))
    return mp.quad(g, [0, mp.pi / 2, mp.pi]) / norm


def box2_reference(law, k, r, power):
    """E[f^power] for a box law in d = 2: h0 in [-1, 1], h1 folded onto [0, 1]."""
    a, b = math.sqrt(3.0) * law.a(r), math.sqrt(3.0) * law.b(r)
    return mp.quad(lambda h0, h1: mp_increment(k, a * h0, (b * h1) ** 2) ** power,
                   [-1, 0, 1], [0, 1]) / 2


def heavytail_reference(law, k, r, power):
    """E[f^power] for the Pareto law: straight steps below lambda(r); above,
    outward with probability (1 - e^-y)/2 and otherwise at 1 + phi =
    2 e^-y / (1 + e^-y), each branch's increment in the e^-y form."""
    m, lam = mp.mpf(law.m), mp.mpf(law.lambda_at(r))
    density = lambda y: (m - 1) * y ** -m
    body = mp.quad(lambda y: density(y) * (y ** power + (-y) ** power) / 2, [1, lam])

    def tail(y):
        q = mp.exp(-y)
        f_in = mp.log(mp.exp(-k * y) + 2 * q / (1 + q) * mp.sinh(k * y)) / k
        return density(y) * ((1 - q) / 2 * y ** power + (1 + q) / 2 * f_in ** power)

    return body + mp.quad(tail, [lam, 2 * lam, 10 * lam, mp.inf])


class TestAgainstReferences:
    """nu1, nu2 and E|t|^2 from _radius_integrals at the golden grids'
    radii, to 1e-12 relative."""

    def check(self, law, k, r, reference, dps=20):
        """Each moment within 1e-12 relative of its reference, and within its
        own half-width: the error estimate covers the error."""
        mp.mp.dps = dps
        nu1, nu2, transverse, _ = lamperti._radius_integrals(law, k, r)
        for est, power in ((nu1, 1), (nu2, 2)):
            want = float(reference(law, k, r, power))
            close(est.value, want)
            assert abs(est.value - want) <= est.half_width, (est, want)
        if law.kind in ("box", "elliptic"):
            close(transverse.value, (law.d - 1) * law.b(r) ** 2)

    @pytest.mark.parametrize("d, b, r", [(2, B_DECAY, 10.0), (2, B_DECAY, 200.0),
                                         (3, C1, 10.0), (5, B_DECAY, 100.0)])
    def test_elliptic(self, d, b, r):
        self.check(hw.EllipticLaw(C1, b, d), 1.0, r, elliptic_reference)

    @pytest.mark.parametrize("b, r, k", [(B_DECAY, 10.0, 1.0), (B_DECAY, 200.0, 1.0),
                                         (C1, 10.0, 1.7)])
    def test_box_d2(self, b, r, k):     # classify-box-recurrent-small; a graded rule
        # at k = 1.7, k a = 2.94, just below QUADRATURE_KA, a near-inward
        # step's increment switches over a transverse scale of about
        # 2 sqrt(3) e^(-2.94) = 0.18 against b = sqrt(3): the graded rule
        self.check(hw.BoxLaw(C1, b, 2), k, r, box2_reference)

    @pytest.mark.parametrize("m, k, r", [(4.0, 1.0, 10.0), (4.0, 1.0, 100.0),
                                         (4.0, 1.0, 200.0), (4.0, 0.5, 100.0),
                                         (4.0, 2.0, 100.0), (5.0, 1.0, 50.0)])
    def test_heavytail(self, m, k, r):
        self.check(hw.HeavyTailLaw(m, 2), k, r, heavytail_reference, dps=40)

    def test_heavytail_value_quoted_in_the_readme(self):
        nu1, nu2, _, _ = lamperti._radius_integrals(hw.HeavyTailLaw(4.0, 2), 1.0, 100.0)
        close(nu1.value, 0.034719994715243, 1e-13)
        close(nu2.value, 2.676347301139799, 1e-13)

    def test_inward_biased_two_atoms(self):
        mp.mp.dps = 30
        law = hw.InwardBiasedLaw(1.0, 2)
        f = [mp_increment(1.0, -2.0, 12.0), mp_increment(1.0, 0.0, 16.0)]
        nu1, nu2, transverse, zero_drift = lamperti._radius_integrals(law, 1.0, 10.0)
        close(nu1.value, (f[0] + f[1]) / 2)
        close(nu2.value, (f[0] ** 2 + f[1] ** 2) / 2)
        close(transverse.value, 14.0)
        assert not zero_drift.within_band(4.0)      # E[d_rad] = -1 exactly

    def test_euclid_golden_moments(self):
        # classify-euclid-small reads U = E[d_rad^2] of m = 5 at r = 50
        mp.mp.dps = 30
        law = hw.HeavyTailLaw(5.0, 2)
        est, note = lamperti.step_moments(law, None, 50.0, 100, None)
        assert note == lamperti.QUADRATURE_NOTE
        m, lam = mp.mpf(5), mp.mpf(law.lambda_at(50.0))

        def phi_sq(y):
            q = mp.exp(-y)
            off = 2 * q / (1 + q)
            return (1 - q) / 2 + (1 + q) / 2 * (1 - off) ** 2

        U = (mp.quad(lambda y: (m - 1) * y ** (2 - m), [1, lam])
             + mp.quad(lambda y: (m - 1) * y ** (2 - m) * phi_sq(y), [lam, 10 * lam, mp.inf]))
        close(est["E[d_rad^2]"].value, U)
        close(est["E[d_tot^2]"].value, (m - 1) / (m - 3))


def _pinched_parts(k, K, R, d_rad, t_sq):
    """(f_k, f_K, inc_k, inc_K) at mpmath precision."""
    return (mp_increment(k, d_rad, t_sq), mp_increment(K, d_rad, t_sq),
            mp_exact_increment(R, k, d_rad, t_sq), mp_exact_increment(R, K, d_rad, t_sq))


def elliptic_pinched_reference(law, r, k, K):
    """The four pinched bounds of an elliptic law over the polar angle, the
    interval cut at every sign change of inc_k, inc_K and f_k + f_K, each
    found by mpmath's bisection-safe solver from a 400-point scan."""
    d = law.d
    a, b = law.a(r) * math.sqrt(d), law.b(r) * math.sqrt(d)
    norm = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d) / 2)

    def parts(th):
        return _pinched_parts(k, K, r, a * mp.cos(th), (b * mp.sin(th)) ** 2)

    def switches(th):
        fk, fK, ik, iK = parts(th)
        return (ik, iK, fk + fK)

    scan = [mp.pi * (i + 0.5) / 400 for i in range(400)]
    values = [switches(th) for th in scan]
    cuts = [0, mp.pi]
    for j in range(3):
        for i in range(399):
            if (values[i][j] >= 0) != (values[i + 1][j] >= 0):
                cuts.append(mp.findroot(lambda th: switches(th)[j], (scan[i], scan[i + 1]),
                                        solver="anderson"))
    cuts = sorted(cuts)

    def bound(which):
        def g(th):
            fk, fK, ik, iK = parts(th)
            x = {0: fk, 1: fK, 2: fk ** 2 * (ik >= 0) + fK ** 2 * (iK < 0),
                 3: max(fk ** 2, fK ** 2)}[which]
            return x * mp.sin(th) ** (d - 2)
        return mp.quad(g, cuts) / norm

    return [bound(i) for i in range(4)]


def _stable_increment(k, d_rad, t_sq):
    d = math.sqrt(d_rad * d_rad + t_sq)
    opp = t_sq / (d * (d - d_rad)) if d_rad < 0 else 1.0 + d_rad / d
    return math.log(math.exp(-k * d) + opp * math.sinh(k * d)) / k


def box2_pinched_reference(law, r, k, K):
    """The four pinched bounds of a box law in d = 2 by nested scipy quad:
    over h0 cut at the roots of inc_k, inc_K and f_k + f_K (brentq from a
    scan), then over h1 folded onto [0, 1].  Between two cuts the signs of
    inc_k and inc_K are those at the piece's midpoint."""
    a, b = math.sqrt(3.0) * law.a(r), math.sqrt(3.0) * law.b(r)
    scan = np.linspace(-1.0, 1.0, 401)

    def inner(h1, which):
        t_sq = (b * h1) ** 2

        def inc(kk, h0):
            d = np.hypot(a * h0, b * h1)
            return radial_increment_exact_batch(r, d, a * h0 / d, kk)

        fns = (lambda h0: float(inc(k, h0)), lambda h0: float(inc(K, h0)),
               lambda h0: _stable_increment(k, a * h0, t_sq) + _stable_increment(K, a * h0, t_sq))
        scans = (inc(k, scan), inc(K, scan), [fns[2](h) for h in scan])
        cuts = [optimize.brentq(fn, scan[i], scan[i + 1], xtol=1e-16, rtol=1e-15)
                for fn, v in zip(fns, scans) for i in range(400)
                if (v[i] >= 0) != (v[i + 1] >= 0)]
        edges = [-1.0, *sorted(cuts), 1.0]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            up_k, down_K = fns[0](mid) >= 0, fns[1](mid) < 0

            def g(h0):
                fk, fK = _stable_increment(k, a * h0, t_sq), _stable_increment(K, a * h0, t_sq)
                return (fk, fK, fk * fk * up_k + fK * fK * down_K, max(fk * fk, fK * fK))[which]

            total += integrate.quad(g, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        return total / 2

    return [integrate.quad(inner, 0.0, 1.0, args=(i,), epsabs=0.0, epsrel=1e-13)[0]
            for i in range(4)]


class TestPinchedSplit:
    """_pinched_integrals against references that cut at every sign change."""

    @pytest.mark.parametrize("d, r, K", [(2, 0.5, 1.5), (2, 1.0, 1.5), (3, 1.0, 1.5),
                                         (2, 10.0, 1.5), (3, 10.0, 5.0)])
    def test_elliptic_near_and_far(self, d, r, K):
        # below the step bound sqrt(d) the exact increment changes sign twice
        # on inward rays; the cuts must bracket both.  At K = 5 the line is
        # also graded toward both poles
        mp.mp.dps = 20
        law = hw.EllipticLaw(C1, C1, d)
        got = pinched(law, r, 1.0, K)
        for g, want in zip(got, elliptic_pinched_reference(law, r, 1.0, K)):
            close(g.value, want)
            assert g.half_width < 1e-12 * abs(g.value)

    @pytest.mark.parametrize("r", [10.0, 200.0])
    def test_box_d2_golden_grid(self, r):       # classify-pinched-small
        # m1_low and m1_high are nu1 at k and K, which no cut touches; the
        # split and upper bounds are where the cuts matter
        law = hw.BoxLaw(C1, B_DECAY, 2)
        got = pinched(law, r, 1.0, 1.5)
        close(got[0].value, lamperti._radius_integrals(law, 1.0, r)[0].value, 1e-14)
        close(got[1].value, lamperti._radius_integrals(law, 1.5, r)[0].value, 1e-14)
        for g, want in zip(got[2:], box2_pinched_reference(law, r, 1.0, 1.5)[2:]):
            close(g.value, want)
            assert abs(g.value - want) <= g.half_width

    def test_box_d2_below_the_step_bound_says_so(self):
        # r = 1 lies below the step bound sqrt(6): the region where
        # inc_k < 0 closes inside the box, and the transverse integral meets
        # its tangent lines, so it converges only algebraically.  The
        # half-widths must say so, and cover the distance to a 10^6-draw
        # Monte Carlo estimate beyond its own 99% half-width
        law = hw.BoxLaw(C1, B_DECAY, 2)
        got = pinched(law, 1.0, 1.0, 1.5)
        mc = lamperti._pinched_moments(law, 1.0, 1.0, 1.5, 1_000_000, np.random.default_rng(2))
        assert max(g.half_width / abs(g.value) for g in got) > 1e-6
        for g, m in zip(got, mc):
            assert abs(g.value - m.value) <= g.half_width + m.half_width, (g, m)

    def test_box_d2_near_the_bound(self):
        # K a = 2.94, just below QUADRATURE_KA: the bounds converge, with
        # small half-widths, and a 10^6-draw Monte Carlo estimate lies
        # within its 99% half-width
        law = hw.BoxLaw(C1, B_DECAY, 2)
        got = pinched(law, 10.0, 1.0, 1.7)
        mc = lamperti._pinched_moments(law, 10.0, 1.0, 1.7, 1_000_000, np.random.default_rng(2))
        close(got[1].value, lamperti._radius_integrals(law, 1.7, 10.0)[0].value, 1e-13)
        for g, m in zip(got, mc):
            assert g.half_width < 1e-10 * abs(g.value), g
            assert abs(g.value - m.value) <= m.half_width, (g, m)

    def test_constant_curvature_needs_no_cut(self):
        law = hw.HeavyTailLaw(4.0, 2)
        m1_lo, m1_hi, split, up = pinched(law, 100.0, 1.0, 1.0)
        nu1, nu2, _, _ = lamperti._radius_integrals(law, 1.0, 100.0)
        assert m1_lo == m1_hi == nu1 and split == up == nu2


class TestMonteCarloCrossCheck:
    """A 10^6-draw Monte Carlo estimate lies within its 99% half-width of the
    quadrature value.  The heavy-tail nu2 is left out: f^2 has infinite
    variance there and its Monte Carlo interval is known to under-cover
    (ROADMAP, intervals on the Monte Carlo path)."""

    @pytest.mark.parametrize("law, r", [
        (hw.EllipticLaw(C1, B_DECAY, 2), 10.0),
        (hw.BoxLaw(C1, B_DECAY, 2), 10.0),
        (hw.InwardBiasedLaw(1.0, 2), 10.0),
        (hw.HeavyTailLaw(4.0, 2), 100.0),
    ], ids=["elliptic", "box-d2", "inwardbiased", "heavytail"])
    def test_moments(self, law, r):
        exact = lamperti._radius_integrals(law, 1.0, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lamperti.MonteCarloVarianceWarning)
            mc = lamperti._radius_estimates(law, 1.0, r, 1_000_000, np.random.default_rng(1))
        names = ("nu1", "nu2", "E|t|^2")
        for name, m, e in zip(names, mc, exact):
            if law.kind == "heavytail" and name == "nu2":
                continue
            assert abs(m.value - e.value) <= m.half_width, (name, m, e)

    def test_pinched_bounds(self):
        law = hw.BoxLaw(C1, B_DECAY, 2)
        exact = pinched(law, 10.0, 1.0, 1.5)
        mc = lamperti._pinched_moments(law, 10.0, 1.0, 1.5, 1_000_000, np.random.default_rng(1))
        for m, e in zip(mc, exact):
            assert abs(m.value - e.value) <= m.half_width, (m, e)


class TestWhichLawsAreIntegrated:
    """Box laws offer quadrature lines only where integrating costs less
    than sampling 2*10^5 steps (BENCH_18): d = 2, and k times the radial
    half-side sqrt(3) a at most QUADRATURE_KA.  Every other built-in law
    always offers them."""

    def test_box_laws(self):
        from hyperwalk.increments import QUADRATURE_KA
        a = hw.RadialProfile.constant(0.5)
        at_bound = QUADRATURE_KA / (math.sqrt(3.0) * 0.5)
        assert hw.BoxLaw(a, C1, 2).quadrature_lines(10.0, 32, at_bound) is not None
        assert hw.BoxLaw(a, C1, 2).quadrature_lines(10.0, 32, 1.01 * at_bound) is None
        assert hw.BoxLaw(a, C1, 3).quadrature_lines(10.0, 32, 0.1) is None
        # the radial profile's sup decides, so that every radius agrees
        decaying = hw.BoxLaw(hw.RadialProfile.power_decay(1.0, 1.0), C1, 2)
        assert decaying.quadrature_lines(200.0, 32, 1.01 * QUADRATURE_KA / math.sqrt(3.0)) is None

    def test_other_laws(self):
        for law in (hw.EllipticLaw(C1, C1, 7), hw.HeavyTailLaw(4.0, 3), hw.InwardBiasedLaw(1.0, 5)):
            assert law.quadrature_lines(10.0, 32, 50.0) is not None



class TestDistinctPoints:
    """quadrature._distinct is np.unique bit for bit, signed zeros included,
    on the cut and probe points of every built-in law's lines."""

    def test_ties_and_signed_zeros(self):
        rng = np.random.default_rng(5)
        for n in range(1, 60):
            for x in (rng.integers(-3, 4, n) * 0.25, rng.choice([-0.0, 0.0, 1.0, -1.0], n),
                      rng.uniform(-1.0, 1.0, n)):
                assert quadrature._distinct(x).tobytes() == np.unique(x).tobytes(), x

    @pytest.mark.parametrize("law", [hw.EllipticLaw(C1, B_DECAY, 2), hw.EllipticLaw(C1, C1, 7),
                                     hw.BoxLaw(C1, B_DECAY, 2), hw.HeavyTailLaw(4.0, 3),
                                     hw.InwardBiasedLaw(1.0, 5)])
    def test_every_built_in_law_line(self, law, monkeypatch):
        seen = []
        real = quadrature._distinct
        monkeypatch.setattr(quadrature, "_distinct", lambda x: seen.append(x) or real(x))
        for r, k in ((1.0, 1.0), (10.0, 1.5), (200.0, 0.5)):
            for line in law.quadrature_lines(r, 32, k):
                quadrature._edges([line], k)
                quadrature._probes(line.lo, line.hi)
        assert seen
        for x in seen:
            assert real(x).tobytes() == np.unique(x).tobytes(), x

def bisect_sign_changes(g, probes, pad):
    """A reference for quadrature.sign_changes: the same brackets between
    neighbouring probes, halved until no wider than _TOL times the row's
    probes' scale, by plain bisection."""
    brackets = []
    everything = slice(0, probes.shape[0])
    for i, value in enumerate(g(probes, everything)):
        up = np.asarray(value) >= 0.0
        row, col = np.nonzero(up[:, 1:] != up[:, :-1])
        brackets.append((row, np.full(row.size, i), probes[row, col], probes[row, col + 1],
                         up[row, col]))
    row, which, lo, hi, lo_up = map(np.concatenate, zip(*brackets))
    order = np.argsort(row, kind="stable")
    row, which, lo, hi, lo_up = (a[order] for a in (row, which, lo, hi, lo_up))
    count = np.bincount(row, minlength=probes.shape[0])
    slot = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    grid = np.broadcast_to(np.asarray(pad, dtype=float)[..., None],
                           (probes.shape[0], int(count.max()))).copy()
    tol = quadrature._TOL * np.abs(probes).max(axis=1)[row]
    while (hi - lo > tol).any():
        mid = 0.5 * (lo + hi)
        grid[row, slot] = mid
        up = np.stack([np.asarray(v)[row, slot]
                       for v in g(grid, everything)])[which, np.arange(row.size)]
        moved_lo = (up >= 0.0) == lo_up
        lo, hi = np.where(moved_lo, mid, lo), np.where(moved_lo, hi, mid)
    grid[row, slot] = 0.5 * (lo + hi)
    return grid


def counted(g):
    """g, and a list of the shapes it was called on."""
    calls = []

    def wrapped(s, rows):
        calls.append(s.shape)
        return g(s, rows)
    return wrapped, calls


def pinched_cut_calls(monkeypatch, law, points):
    """The arguments of every sign_changes call that _pinched_integrals
    makes at the points (r, k, K), n and 2n nodes each."""
    seen = []
    real = quadrature.sign_changes

    def spy(g, probes, pad, blocks):
        seen.append((g, probes, pad, blocks))
        return real(g, probes, pad, blocks)

    monkeypatch.setattr(quadrature, "sign_changes", spy)
    lamperti._pinched_integrals(law, points)
    monkeypatch.undo()
    return seen


def hexes(estimates):
    return [(e.value.hex(), e.half_width.hex()) for e in estimates]


class TestPinchedGrid:
    """_pinched_integrals over a grid: each radius's value and half-width
    are those it takes alone, bit for bit, though the cuts of every radius
    of a band are found in one root solve."""

    GRID = [float(r) for r in np.geomspace(0.5, 200.0, 6)]
    K_DECAY = hw.RadialProfile.power_decay(1.6, 0.05)       # 1.6 down to 1.23 at r = 200
    BANDS = {"constant": lambda r: 1.5, "k_max-decays": K_DECAY,
             "K-equal-k-past-20": lambda r: 1.0 if r > 20.0 else 1.5}

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("law", [
        hw.BoxLaw(C1, B_DECAY, 2), hw.EllipticLaw(C1, B_DECAY, 2), hw.EllipticLaw(C1, C1, 3),
        # lambda(r) = max(1, r^(1/3)): the lines below it run over [0, log lambda(r)],
        # those above it over [0, 1 / lambda(r)], and r < 1 has only the latter
        hw.HeavyTailLaw(4.0, 2), hw.InwardBiasedLaw(1.0, 2),
    ], ids=["box-d2", "elliptic-d2", "elliptic-d3", "heavytail", "inwardbiased"])
    def test_grid_equals_each_radius_alone(self, law, band):
        points = [(r, 1.0, float(self.BANDS[band](r))) for r in self.GRID]
        together = lamperti._pinched_integrals(law, points)
        assert len(together) == len(points)
        for point, got in zip(points, together):
            assert hexes(got) == hexes(lamperti._pinched_integrals(law, [point])[0]), point

    @pytest.mark.parametrize("law", [hw.BoxLaw(C1, B_DECAY, 2), hw.HeavyTailLaw(4.0, 2)],
                             ids=["box-d2", "heavytail"])
    def test_each_bundle_keeps_its_own_cuts(self, law, monkeypatch):
        # the grid's cut points are each bundle's own, shape too: no bundle
        # is padded out to the most cut bundle of the grid
        seen = []
        real = quadrature._edges
        monkeypatch.setattr(quadrature, "_edges", lambda *a: seen.append(real(*a)) or seen[-1])
        points = [(r, 1.0, 1.5) for r in self.GRID]
        lamperti._pinched_integrals(law, points)
        for point in points:
            lamperti._pinched_integrals(law, [point])
        together, *alone = seen
        # each radius's lines at n, then at 2n nodes; the grid's rule by rule
        halves = [(edges[:len(edges) // 2], edges[len(edges) // 2:]) for edges in alone]
        want = [e for rule in (0, 1) for h in halves for e in h[rule]]
        assert [e.shape for e in together] == [e.shape for e in want]
        assert len({e.shape[1] for e in want}) > 1
        for got, e in zip(together, want):
            assert got.tobytes() == e.tobytes()

    def test_bands_keep_the_points_order(self):
        # the points of two bands interleaved, and a radius in both
        law = hw.BoxLaw(C1, B_DECAY, 2)
        points = [(10.0, 1.0, 1.5), (20.0, 1.0, 1.0), (40.0, 1.0, 1.5), (10.0, 1.0, 1.0)]
        got = lamperti._pinched_integrals(law, points)
        for point, estimates in zip(points, got):
            assert hexes(estimates) == hexes(lamperti._pinched_integrals(law, [point])[0])

    def test_one_root_solve_per_band(self, monkeypatch):
        law = hw.HeavyTailLaw(4.0, 2)
        points = [(r, 1.0, self.BANDS["K-equal-k-past-20"](r)) for r in self.GRID]
        (_, probes, _, blocks), = pinched_cut_calls(monkeypatch, law, points)
        # the radii below 20 with K = 1.5: r = 0.5 (two lines) and r = 1.65,
        # 5.42 and 17.9 (four), at both rules, one row a line
        assert probes.shape[0] == 2 * (2 + 3 * 4) == len(blocks)
        assert len({(p.min(), p.max()) for p in probes}) > 4


class TestSignChanges:
    """quadrature.sign_changes: every switch of g >= 0 between the probes,
    each within _TOL of its row's probes' scale, in a few calls of g."""

    LO, HI = -1.0, 1.0
    ROOTS = ([], [0.3], [-0.7, 0.1], [-0.45, 0.2, 0.85])     # 0-3 switches a row

    def probes(self, rows):
        return np.repeat(quadrature._probes(self.LO, self.HI)[None], rows, axis=0)

    def solve(self, g, rows):
        """sign_changes of g on `rows` rows of probes, in one block."""
        return quadrature.sign_changes(g, self.probes(rows), self.HI, [slice(0, rows)])

    def check(self, got, want):
        # want: one list of switches per row; the rest of a row is padding
        assert got.shape == (len(want), max(map(len, want)))
        for row, roots in zip(got, want):
            assert np.all(row[len(roots):] == self.HI)
            assert np.abs(np.sort(row[:len(roots)]) - np.sort(roots)).max(initial=0.0) \
                <= quadrature._TOL, (row, roots)

    def test_smooth_rows_with_zero_to_three_roots(self):
        roots = [np.array(r) for r in self.ROOTS]

        def g(s, rows):
            # a polynomial and a shifted sine with the row's roots, the
            # sine's switches being where the polynomial has none
            poly = np.stack([np.prod(s[i][:, None] - r, axis=1) * (1.0 + s[i] ** 2)
                             for i, r in enumerate(roots)])
            wave = np.sin(3.0 * s) - np.sin(3.0 * 0.6)
            wave[:3] = 1.0              # only the last row's sine switches
            return poly, wave

        want = [list(r) for r in self.ROOTS]
        want[3] += [0.6, math.pi / 3.0 - 0.6]
        self.check(self.solve(g, 4), want)

    def test_probes_in_several_row_blocks(self):
        # row i switches at 0.2 + 0.1 i; g reads which rows it is given
        def g(s, rows):
            return (s - 0.2 - 0.1 * np.arange(4.0)[rows, None],)

        one = self.solve(g, 4)
        blocks = quadrature.sign_changes(g, self.probes(4), self.HI,
                                         [slice(0, 1), slice(1, 3), slice(3, 4)])
        self.check(blocks, [[0.2 + 0.1 * i] for i in range(4)])
        assert one.tobytes() == blocks.tobytes()

    def test_rows_of_different_scales_solved_together(self):
        # rows on [-1, 1] and on [100, 300], each with its own pad: solved
        # together, each row closes within its own scale, as alone
        near = np.repeat(quadrature._probes(-1.0, 1.0)[None], 2, axis=0)
        far = np.repeat(quadrature._probes(100.0, 300.0)[None], 3, axis=0)
        far_root = 200.0 + 1.0 / 7.0

        def g(s, rows):
            return ((s - 0.3) * (s + 0.6) * (s - far_root), s * s - 0.25)

        both = quadrature.sign_changes(g, np.concatenate([near, far]), [1.0] * 2 + [300.0] * 3,
                                       [slice(0, 2), slice(2, 5)])
        alone_near = quadrature.sign_changes(g, near, 1.0, [slice(0, 2)])
        alone_far = quadrature.sign_changes(g, far, 300.0, [slice(0, 3)])
        assert alone_near.shape == (2, 4) and alone_far.shape == (3, 1)
        assert both[:2].tobytes() == alone_near.tobytes()
        assert both[2:, :1].tobytes() == alone_far.tobytes() and np.all(both[2:, 1:] == 300.0)
        for row in both[:2]:
            assert np.abs(np.sort(row) - [-0.6, -0.5, 0.3, 0.5]).max() <= quadrature._TOL
        assert np.abs(both[2:, 0] - far_root).max() <= quadrature._TOL * 300.0

    def test_a_jump_takes_the_bisection_fallback(self):
        # g jumps from -1 to 1 at the root: the first, linear step is the
        # midpoint, and Chandrupatla's test refuses every interpolation
        # after it, so the bracket halves until it is below _TOL
        root = 0.123456789
        g, calls = counted(lambda s, rows: (np.where(s >= root, 1.0, -1.0),))
        self.check(self.solve(g, 1), [[root]])
        bracket = 2.0 / quadrature._PROBE
        assert len(calls) >= math.log2(bracket / quadrature._TOL)

    @pytest.mark.parametrize("width", [1e-2, 1e-6, 1e-12])
    def test_a_steep_switch_takes_no_more_steps_than_bisection(self, width):
        # tanh over a width far below the probes' spacing: the interpolation
        # is poor until the bracket is about that narrow
        root = 0.123456789
        g, calls = counted(lambda s, rows: (np.tanh((s - root) / width) + 0.3,))
        self.check(self.solve(g, 1), [[root + width * math.atanh(-0.3)]])
        bracket = 2.0 / quadrature._PROBE
        assert len(calls) <= 1 + math.ceil(math.log2(bracket / quadrature._TOL))

    def test_a_root_on_a_probe(self):
        # g = 0 counts as g >= 0: the switch is at the probe itself, from
        # either side
        p = self.probes(1)[0]
        on = p[40]
        self.check(self.solve(lambda s, rows: (s - on, on - s), 1), [[on, on]])

    def test_no_bracket(self):
        got = self.solve(lambda s, rows: (1.0 + s * s, -np.exp(s)), 3)
        assert got.shape == (3, 0)

    def test_scale_is_the_probes_largest_magnitude(self):
        # a line over [100, 300]: the brackets close at _TOL * 300
        probes = np.repeat(quadrature._probes(100.0, 300.0)[None], 1, axis=0)
        root = 200.0 + 1.0 / 7.0
        got = quadrature.sign_changes(lambda s, rows: (np.log(s / root),), probes, 300.0,
                                      [slice(0, 1)])
        assert abs(got[0, 0] - root) <= quadrature._TOL * 300.0

    def test_unconverged_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_ITERATIONS", 1)
        # one step cannot close the jump's bracket [0.5, 0.515625] below _TOL;
        # the error names the function, its row and the bracket left
        def g(s, rows):
            return np.ones(s.shape), np.where(s >= 0.51, 1.0, -1.0)

        with pytest.raises(hw.InvariantViolationError,
                           match=r"function 1 of row 0 .* on \[0\.50\d*, 0\.51\d*\]"):
            self.solve(g, 1)

    def test_benchmark_pinched_lines_against_bisection(self, monkeypatch):
        # the classify-mc pinched leg: box a = 1, b = 1/r in d = 2, k = 1,
        # K = 1.5, on its grid r = 10..200, n = 32 and 64 nodes: one call
        # of 6 x (16 + 32) rows.  Every cut lies within 2 _TOL of bisection's,
        # and the probe pass, one call of g a bundle, and at most 12
        # root-finding steps cover the whole grid (bisection takes 43)
        law = hw.BoxLaw(C1, B_DECAY, 2)
        points = [(r, 1.0, 1.5) for r in np.geomspace(10.0, 200.0, 6)]
        (g, probes, pad, blocks), = pinched_cut_calls(monkeypatch, law, points)
        assert probes.shape[0] == 288
        assert [b.stop - b.start for b in blocks] == [16] * 6 + [32] * 6
        spied, calls = counted(g)
        got = quadrature.sign_changes(spied, probes, pad, blocks)
        assert calls[:len(blocks)] == [(b.stop - b.start, probes.shape[1]) for b in blocks]
        assert 0 < len(calls) - len(blocks) <= 12, len(calls)
        assert all(shape == got.shape for shape in calls[len(blocks):])
        want = bisect_sign_changes(g, probes, pad)
        assert got.shape == want.shape and got.shape[1] > 0
        scale = np.abs(probes).max(axis=1)[:, None]
        assert np.all(np.abs(got - want) <= 2.0 * quadrature._TOL * scale)
