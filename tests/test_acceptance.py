"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (with its runtime) on success; pytest -v
plus -s shows them.  Time budgets are in seconds at a quiet host's speed
(see _Budget), so a busy shared host does not fail them.  Tolerances are
pinned here and match the contract the package ships with; nothing is
deferred to later calibration.
"""

import math
import statistics
import time
import warnings

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk.cli import classification_report, main, parse_config
from hyperwalk.increments import ZeroDriftResult
from hyperwalk.lamperti import MonteCarloVarianceWarning, Verdict
from hyperwalk.simulator import MODE_AMBIENT, MODE_RADIAL_ONLY, WalkConfig, _lockstep_states
from hyperwalk.validation import (
    suite_exact_radial_increment,
    suite_mode_coupling,
    suite_sandwich_bounds,
)

C1 = hw.RadialProfile.constant(1.0)
B_DECAY = hw.RadialProfile.power_decay(1.0, 1.0)
HYP2 = hw.CurvatureModel.hyperbolic(1.0, 2)


# _reference_seconds() on a quiet host: the 10th percentile of 475 readings
# spread over 12 minutes on a 2-core shared x86-64 host (Python 3.11, numpy
# 2.4), whose median reading was 7.6 ms.  Measured with exactly the kernel,
# array size and run count below; change any of them and it must be measured
# anew.  Budgets are wall seconds at this speed.
QUIET_REF_S = 0.0055
# The most a budget stretches on a loaded host: the drift recorded for the
# shared host.  A quiet or fast host keeps the raw budget (factor 1).
MAX_SLOWDOWN = 1.5


def _reference_seconds():
    """Median wall time of a fixed kernel over 5 runs: how fast the shared
    host runs right now.

    An interpreter loop, then an in-place numpy pass over 1.6 MB, which is
    past the L2 cache: the mix of the criteria, whose walks are
    interpreter-bound and whose Monte Carlo kernels stream arrays.  Other
    tenants' load slows it and the criteria alike; nothing in hyperwalk
    changes it.
    """
    x = np.random.default_rng(0).standard_normal(200_000)
    buf = np.empty_like(x)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(60_000):
            s += (i % 7) * 0.5
        np.abs(x, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        np.log1p(buf, out=buf)
        s += float(buf.sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class _Budget:
    """Times a criterion; `elapsed` is its wall time at a quiet host's speed.

    The reference kernel is timed right before and right after the
    criterion; the smaller reading over QUIET_REF_S, clamped to
    [1, MAX_SLOWDOWN], is the host's slowdown, and the wall time is divided
    by it.  A slower host slows the kernel and the criterion alike and
    leaves `elapsed` where it is; slower code moves `elapsed` by the share
    it moves the wall time.  The smaller reading is taken because a
    tenant's burst during one reading would otherwise stretch the budget
    for the whole criterion.  The floor keeps the raw budget as the tightest
    case, and the cap bounds how far a burst that covers both readings can
    stretch it.
    """

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.ref_before = _reference_seconds()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.wall = time.perf_counter() - self.t0
        self.raw_slowdown = min(self.ref_before, _reference_seconds()) / QUIET_REF_S
        self.slowdown = min(MAX_SLOWDOWN, max(1.0, self.raw_slowdown))
        self.elapsed = self.wall / self.slowdown
        if exc_type is None:
            verdict = "PASS" if self.elapsed < self.seconds else "FAIL"
            print(f"ACCEPTANCE {self.name}: {verdict} ({self.elapsed:.1f}s of "
                  f"{self.seconds:.0f}s budget; {self.wall:.1f}s wall, host "
                  f"{self.raw_slowdown:.2f}x quiet, counted {self.slowdown:.2f}x)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {self.wall:.1f}s")
        return False


def test_criterion_1_exact_increment_oracle():
    with _Budget("1 exact-increment-oracle", 5.0) as b:
        res = suite_exact_radial_increment(seed=2026, n=10_000, tol=1e-9)
        assert res.passed, res.detail
        assert res.checked == 10_000
    assert b.elapsed < 5.0


def test_criterion_2_sandwich_and_ratio_monotonicity():
    with _Budget("2 sandwich-bounds", 10.0) as b:
        res = suite_sandwich_bounds(n_lengths=200, n_phis=170, slack=1e-12)
        assert res.passed, res.detail
        assert res.checked >= 100_000
    assert b.elapsed < 10.0


def test_criterion_3_elliptic_moments_at_one_million_samples():
    with _Budget("3 elliptic-moments", 30.0) as b:
        law = hw.EllipticLaw(hw.RadialProfile.constant(2.0), C1, 3)
        rng = np.random.default_rng(301)
        d_rad, t = law.sample_components_batch(1.0, 1_000_000, rng)
        d_tot_sq = d_rad ** 2 + np.einsum("ij,ij->i", t, t)
        for arr, want in ((d_tot_sq, 6.0), (d_rad ** 2, 4.0)):
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            assert abs(arr.mean() - want) <= 3.0 * se, (arr.mean(), want, se)
    assert b.elapsed < 30.0


def test_criterion_4_heavytail_bounds_at_desk_scale():
    with _Budget("4 heavytail-bounds", 60.0) as b:
        m, k, r = 4.0, 1.0, 100.0
        lam = r ** (1.0 / (m - 1.0))
        law = hw.HeavyTailLaw(m, 2)
        assert law.lambda_at(r) == pytest.approx(lam)
        rng = np.random.default_rng(401)
        d_rad, t = law.sample_components_batch(r, 1_000_000, rng)
        d_tot = np.sqrt(d_rad ** 2 + np.einsum("ij,ij->i", t, t))

        trans = d_tot ** 2 - d_rad ** 2
        se_t = trans.std(ddof=1) / math.sqrt(trans.size)
        upper = 2.0 * m * math.exp(-lam)
        assert trans.mean() <= upper + 3.0 * se_t, (trans.mean(), upper)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MonteCarloVarianceWarning)
            f = hw.lamperti.asymptotic_increment_batch(k, d_rad, d_tot)
        se_f = f.std(ddof=1) / math.sqrt(f.size)
        lower = (m - 1.0) / (4.0 * (m - 2.0) * lam ** (m - 2.0))
        assert lower == pytest.approx(3.0 / (8.0 * lam ** 2))
        assert f.mean() >= lower - 3.0 * se_f, (f.mean(), lower)

        zd = ZeroDriftResult.of_draw(*law.sample_components_batch(r, 200_000, rng))
        assert zd.within_band(4.0), zd.max_abs_z
    assert b.elapsed < 60.0


def test_criterion_5_figure_style_panels():
    with _Budget("5 transient/recurrent/euclidean panels", 300.0) as b:
        # (a) transient panel: constant unit shell escapes and never returns
        cfg = WalkConfig(HYP2, hw.EllipticLaw(C1, C1, 2), steps=5000, walks=200,
                         seed=501, mode=MODE_RADIAL_ONLY, record_stride=500,
                         ball_radius=5.0, burn_in=500, escape_radius=100.0)
        records, _ = hw.run_ensemble(cfg)
        good = sum(1 for rec in records if rec.final_R > 100.0 and rec.returns == 0)
        assert good >= 0.95 * len(records), f"only {good}/200 clean transits"

        # (b) recurrent panel: decaying transverse axis keeps coming back
        cfg = WalkConfig(HYP2, hw.EllipticLaw(C1, B_DECAY, 2), steps=100_000,
                         walks=200, seed=502, mode=MODE_RADIAL_ONLY,
                         record_stride=10_000, ball_radius=5.0, burn_in=10_000,
                         escape_radius=1e18)
        records, _ = hw.run_ensemble(cfg)
        median_returns = float(np.median([rec.returns for rec in records]))
        # regression baseline on this seed: median 90 at first validated run
        assert median_returns >= 10.0, median_returns

        # (c) Euclidean control returns strictly more often than the same law
        # in curvature -1, beyond the combined 99% half-widths
        law = hw.EllipticLaw(hw.RadialProfile.constant(1.2), C1, 2)
        base = dict(law=law, steps=3000, walks=400, seed=503,
                    mode=MODE_RADIAL_ONLY, record_stride=300, ball_radius=5.0,
                    burn_in=300, escape_radius=1e18)
        _, st_euc = hw.run_ensemble(WalkConfig(model=hw.CurvatureModel.euclidean(2), **base))
        _, st_hyp = hw.run_ensemble(WalkConfig(model=HYP2, **base))
        gap = st_euc.fraction_returned - st_hyp.fraction_returned
        combined = st_euc.fraction_returned_hw + st_hyp.fraction_returned_hw
        assert gap > combined, (st_euc.fraction_returned, st_hyp.fraction_returned)
    assert b.elapsed < 300.0


def _cfg_text(law_lines, grid, samples=1_000_000, seed=601):
    start, stop, count = grid
    return (
        "curvature.kind = hyperbolic\ncurvature.k = 1.0\ncurvature.d = 2\n"
        + law_lines
        + f"sim.seed = {seed}\ngrid.start = {start}\ngrid.stop = {stop}\n"
        + f"grid.count = {count}\ngrid.spacing = log\nclassify.samples = {samples}\n"
    )


def test_criterion_6_classifier_agreement():
    with _Budget("6 classifier-agreement", 120.0) as b:
        # the three example chains and their expected conclusions
        cases = [
            (_cfg_text("law.kind = inwardbiased\nlaw.n = 1.0\n", (10, 200, 8),
                       samples=100_000), Verdict.TRANSIENT),
            (_cfg_text("law.kind = heavytail\nlaw.m = 4.0\n", (50, 500, 6)),
             Verdict.TRANSIENT),
            (_cfg_text("law.kind = elliptic\nlaw.a = const:1.0\n"
                       "law.b = powerdecay:1.0,1.0\n", (10, 200, 8)),
             Verdict.RECURRENT),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MonteCarloVarianceWarning)
            for text, want in cases:
                rep = classification_report(parse_config(text, "classify"))
                assert rep.verdict is want, (text.splitlines()[3], rep.verdict)

            # pinched with constant profiles never contradicts the
            # constant-curvature criterion across the example suite
            grid = [float(x) for x in np.geomspace(10, 200, 6)]
            grid_ht = [float(x) for x in np.geomspace(50, 500, 6)]
            suite = [
                (hw.InwardBiasedLaw(1.0, 2), grid, 100_000),
                (hw.HeavyTailLaw(4.0, 2), grid_ht, 2_000_000),
                (hw.EllipticLaw(C1, B_DECAY, 2), grid, 200_000),
                (hw.EllipticLaw(C1, C1, 2), grid, 200_000),
                (hw.BoxLaw(C1, C1, 2), grid, 200_000),
            ]
            for law, g, n in suite:
                rng = np.random.default_rng(602)
                mom = hw.estimate_moment_functions(law, 1.0, g, n, rng)
                const_rep = hw.classify_constant_curvature(mom, g)
                rng = np.random.default_rng(603)
                pinched_rep = hw.classify_pinched(law, C1, C1, g, n, rng)
                agree = (const_rep.verdict is pinched_rep.verdict
                         or Verdict.INCONCLUSIVE in (const_rep.verdict,
                                                     pinched_rep.verdict))
                assert agree, (law.kind, const_rep.verdict, pinched_rep.verdict)
    assert b.elapsed < 120.0


def test_criterion_6b_dimension_sweep():
    # the recurrent example chain (configs/recurrent.cfg's law: a = 1,
    # b = 1/r, k = 1) in every dimension from 2 to 10 on the 10..200 grid.
    # Its moments by quadrature keep the constant-curvature recurrence
    # criterion positive throughout (worst margin 1.088 at d = 2 falling to
    # 0.898 at d = 10); the closed-form elliptic criterion, which takes its
    # sandwich coefficient at the step bound sqrt(d) max(a, b), stays
    # inconclusive from d = 5 on
    with _Budget("6b dimension-sweep", 10.0) as b:
        grid = [float(r) for r in np.geomspace(10, 200, 8)]
        worst = []
        for d in range(2, 11):
            law = hw.EllipticLaw(C1, B_DECAY, d)
            rep = hw.classify_constant_curvature(
                hw.estimate_moment_functions(law, 1.0, grid, 100, None), grid)
            assert rep.verdict is Verdict.RECURRENT, d
            worst.append(min(m for _, m in rep.margins))
            closed = hw.classify_elliptic_chain(C1, B_DECAY, C1, C1, d, grid)
            assert closed.verdict is (Verdict.RECURRENT if d < 5 else Verdict.INCONCLUSIVE), d
        assert worst[0] == pytest.approx(1.0884, abs=1e-4)
        assert worst[-1] == pytest.approx(0.8980, abs=1e-4)
        assert all(a > b for a, b in zip(worst, worst[1:]))
    assert b.elapsed < 10.0


def test_criterion_7_mode_equivalence():
    with _Budget("7 mode-equivalence", 60.0) as b:
        # the lockstep that carries directions, as the neighbourhood probe
        # runs it, holds the bare lockstep's radii bit for bit
        res = suite_mode_coupling(seed=701, steps=100)
        assert res.passed, res.detail

        # an ambient ensemble is the radial-only ensemble; its final radii
        # are those of the same walks run carrying their directions
        base = dict(model=HYP2, law=hw.EllipticLaw(C1, C1, 2), steps=200,
                    walks=10_000, seed=702, record_stride=200, escape_radius=1e9)
        rec_a, stats_a = hw.run_ensemble(WalkConfig(mode=MODE_AMBIENT, **base), workers=2)
        rec_r, stats_r = hw.run_ensemble(WalkConfig(mode=MODE_RADIAL_ONLY, **base), workers=2)
        assert [r.radii for r in rec_a] == [r.radii for r in rec_r] and stats_a == stats_r
        *_, (n, walks) = _lockstep_states(WalkConfig(mode=MODE_AMBIENT, **base),
                                          range(10_000), directions=True)
        assert n == 200 and walks.n.shape == (10_000, 2)
        assert walks.R.tobytes() == np.array([r.final_R for r in rec_r]).tobytes()
    assert b.elapsed < 60.0


SIM_TEXT = (
    "curvature.kind = hyperbolic\ncurvature.k = 1.0\ncurvature.d = 2\n"
    "law.kind = elliptic\nlaw.a = const:1.0\nlaw.b = const:1.0\n"
    "sim.steps = 500\nsim.walks = 16\nsim.seed = 801\n"
)


def test_criterion_8_byte_determinism(tmp_path, capsys, forks):
    with _Budget("8 byte-determinism", 60.0):
        # radial-only, then ambient walks, which run in one lockstep per
        # worker's chunk of walks; `forks` lowers the fork floor, so that
        # the --workers 2 run of these 16 walks forks a child
        for mode in ("radialonly", "ambient"):
            cfg = tmp_path / f"det-{mode}.cfg"
            cfg.write_text(SIM_TEXT + f"sim.mode = {mode}\n")
            outs = []
            for sub, workers in (("a", "1"), ("b", "1"), ("c", "2")):
                out = tmp_path / mode / sub
                code = main(["simulate", "--config", str(cfg), "--out", str(out),
                             "--workers", workers])
                assert code == 0
                outs.append(out)
            assert len(forks) == (1 if mode == "radialonly" else 2)
            ref_t = (outs[0] / "trajectories.csv").read_bytes()
            ref_s = (outs[0] / "summary.csv").read_bytes()
            for out in outs[1:]:
                assert (out / "trajectories.csv").read_bytes() == ref_t
                assert (out / "summary.csv").read_bytes() == ref_s

        cls = tmp_path / "cls.cfg"
        cls.write_text(_cfg_text("law.kind = elliptic\nlaw.a = const:1.0\n"
                                 "law.b = const:1.0\n", (10, 200, 8)))
        m_bytes = []
        for sub in ("d", "e"):
            out = tmp_path / sub
            code = main(["classify", "--config", str(cls), "--out", str(out)])
            assert code == 1
            m_bytes.append((out / "margins.csv").read_bytes())
        assert m_bytes[0] == m_bytes[1]
        capsys.readouterr()
