"""CLI tests: config validation, output determinism, exit-code contract."""

import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperwalk as hw
from hyperwalk import cli, simulator
from hyperwalk.cli import main, parse_config
from hyperwalk.errors import ConfigError
from test_simulator import nan_rows

SIM_CFG = """\
# minimal simulate run
curvature.kind = hyperbolic
curvature.k = 1.0
curvature.d = 2
law.kind = elliptic
law.a = const:1.0
law.b = const:1.0
sim.steps = 400
sim.walks = 8
sim.seed = 42
"""

CLASSIFY_TRANSIENT = """\
curvature.k = 1.0
curvature.d = 2
law.kind = elliptic
law.a = const:1.0
law.b = const:1.0
sim.seed = 7
grid.start = 10
grid.stop = 200
grid.count = 8
grid.spacing = log
"""

# the classify and moments goldens under tests/golden (see REPORT_GOLDENS)
REPORT_GOLDEN_NAMES = ("classify-box-screen", "classify-box-recurrent-small",
                       "classify-heavytail-small", "classify-inward-small",
                       "classify-pinched-small", "classify-pinched-wide",
                       "classify-elliptic-small", "classify-euclid-small", "moments-small")

# the golden runs whose box law is sampled: d = 3, and k_max a = 5 sqrt(3)
SAMPLED_GOLDEN_NAMES = ("classify-box-screen", "classify-pinched-wide")

CLASSIFY_RECURRENT = CLASSIFY_TRANSIENT.replace("law.b = const:1.0",
                                                "law.b = powerdecay:1.0,1.0")


def config_reading(key):
    """(command, valid config) in which `key` is parsed: classify for the
    grid.* and classify.* keys, the law that takes law.m or law.n."""
    if key.startswith(("grid.", "classify.")):
        return "classify", CLASSIFY_TRANSIENT
    law = {"law.m": "law.kind = heavytail\nlaw.m = 4\n",
           "law.n": "law.kind = inwardbiased\nlaw.n = 1\n"}.get(key)
    if law is None:
        return "simulate", SIM_CFG
    return "simulate", SIM_CFG.replace(
        "law.kind = elliptic\nlaw.a = const:1.0\nlaw.b = const:1.0\n", law)


def with_value(key, value):
    """(command, config text, line) for a valid config in which `key` is set
    to `value` on that line, replacing the key's own line or appended."""
    command, text = config_reading(key)
    lines = text.splitlines()
    no = next((i for i, line in enumerate(lines) if line.startswith(key + " ")), len(lines))
    lines[no:no + 1] = [f"{key} = {value}"]
    return command, "\n".join(lines) + "\n", no + 1


def run_cli(tmp_path, name, text, command, extra=()):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / (name + ".out")
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


class TestParseConfig:
    def test_minimal_simulate_defaults(self):
        cfg = parse_config(SIM_CFG, "simulate")
        assert cfg.stride == 1          # max(1, 400 // 1000)
        assert cfg.burn_in == 40        # 400 // 10
        assert cfg.theta == 0.5
        assert cfg.mode == "radialonly"
        keys = dict(cfg.resolved)
        assert keys["sim.stride"] == "1"
        assert keys["sim.burn_in"] == "40"
        assert keys["sim.seed"] == "42"

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("curvture.k = 1.0\n", "simulate")
        assert "curvture.k" in str(err.value) and "line 1" in str(err.value)

    def test_negative_curvature_parameter(self):
        bad = SIM_CFG.replace("curvature.k = 1.0", "curvature.k = -1.0")
        with pytest.raises(ConfigError) as err:
            parse_config(bad, "simulate")
        assert "curvature.k" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("law.a", "const:nan"),
        ("law.b", "powerdecay:1,nan"),
        ("law.a", "const:inf"),
        ("curvature.k", "inf"),
        ("law.n", "inf"),
        ("law.m", "inf"),
        ("sim.start_radius", "nan"),
        ("sim.ball_radius", "nan"),
        ("sim.escape_radius", "inf"),
        ("sim.escape_radius", "-inf"),
        ("grid.start", "-inf"),
        ("grid.stop", "inf"),
        ("classify.epsilon", "nan"),
        ("classify.theta", "inf"),
        ("classify.r0", "nan"),
        ("classify.d_min", "inf"),
        # finite values outside the key's domain
        ("sim.steps", "-5"),
        ("sim.walks", "0"),
        ("sim.stride", "0"),
        ("sim.burn_in", "-1"),
        ("sim.ball_radius", "0"),
        ("sim.start_radius", "-1"),
        ("sim.escape_radius", "-2"),
        ("sim.seed", "-1"),
        ("classify.epsilon", "0"),
        ("classify.samples", "0"),
        ("grid.start", "-1"),
        ("grid.stop", "5"),            # below grid.start = 10
        ("grid.count", "0"),
        ("classify.r0", "200.5"),      # beyond the last grid point, 200
        ("classify.d_min", "1e3"),
    ])
    def test_bad_value_exits_3_naming_key_and_line(self, key, value, tmp_path, capsys):
        command, text, no = with_value(key, value)
        code, out = run_cli(tmp_path, "bad.cfg", text, command)
        err = capsys.readouterr().err
        assert code == 3
        assert f"'{key}'" in err and f"line {no}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "grid.count", "abc"),
        ("simulate", "law.m", "2"),
        ("simulate", "law.n", "0"),
        ("simulate", "grid.spacing", "cubic"),
        ("simulate", "law.lambda", "const:nan"),
        ("validate", "law.kind", "levy"),
        ("validate", "curvature.k", "-1"),
    ])
    def test_key_the_command_ignores_is_still_checked(self, command, key, value,
                                                      tmp_path, capsys):
        text = (SIM_CFG if command == "simulate" else "sim.seed = 1\n") + f"{key} = {value}\n"
        no = len(text.splitlines())
        code, out = run_cli(tmp_path, "bad.cfg", text, command)
        err = capsys.readouterr().err
        assert code == 3
        assert f"'{key}', line {no})" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["classify.r0", "classify.d_min"])
    def test_radius_at_the_last_grid_point_accepted(self, key):
        cfg = parse_config(with_value(key, "200")[1], "classify")
        assert getattr(cfg, key.split(".")[1]) == 200.0

    def test_heavytail_exponent_requirement_cited(self):
        text = (
            "curvature.k = 1.0\ncurvature.d = 2\nlaw.kind = heavytail\n"
            "law.m = 2.5\nsim.seed = 1\nsim.steps = 10\nsim.walks = 1\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text, "simulate")
        msg = str(err.value)
        assert "law.m" in msg and "3" in msg

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(SIM_CFG + "sim.seed = 43\n", "simulate")
        assert "duplicate" in str(err.value)

    def test_type_mismatch_names_key(self):
        bad = SIM_CFG.replace("sim.steps = 400", "sim.steps = many")
        with pytest.raises(ConfigError) as err:
            parse_config(bad, "simulate")
        assert "sim.steps" in str(err.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("curvature.k = 1.0\n", "simulate")
        assert "required" in str(err.value)

    def test_command_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("command = classify\n" + SIM_CFG, "simulate")

    def test_profile_mini_language(self):
        cfg = parse_config(CLASSIFY_RECURRENT, "classify")
        assert cfg.law.b(0.5) == 1.0
        assert cfg.law.b(4.0) == pytest.approx(0.25)

    def test_table_profile_loaded_relative_to_config(self, tmp_path):
        (tmp_path / "prof.csv").write_text("0.0,1.0\n10.0,0.5\n# comment\n")
        text = CLASSIFY_TRANSIENT.replace("law.b = const:1.0", "law.b = table:prof.csv")
        cfg = parse_config(text, "classify", base_dir=str(tmp_path))
        assert cfg.law.b(5.0) == pytest.approx(0.75)

    def test_seed_overrides(self, monkeypatch):
        monkeypatch.setenv("HYPERWALK_SEED", "777")
        cfg = parse_config(SIM_CFG, "simulate")
        assert cfg.seed == 777
        cfg = parse_config(SIM_CFG, "simulate", seed_override=888)
        assert cfg.seed == 888
        monkeypatch.delenv("HYPERWALK_SEED")
        cfg = parse_config(SIM_CFG, "simulate")
        assert cfg.seed == 42

    def test_grid_spacings(self):
        cfg = parse_config(CLASSIFY_TRANSIENT, "classify")
        assert cfg.grid == pytest.approx(list(np.geomspace(10, 200, 8)))
        lin = CLASSIFY_TRANSIENT.replace("grid.spacing = log", "grid.spacing = linear")
        cfg = parse_config(lin, "classify")
        assert cfg.grid == pytest.approx(list(np.linspace(10, 200, 8)))


DOMAIN_KEYS = [key for key, entry in cli._KEYS.items() if entry.op is not None]

# In-domain ranges the rest of the config allows: the grid runs from 10 to
# 200 in config_reading's classify config, and a larger dimension or grid
# count only costs time.
IN_DOMAIN_LIMITS = {"curvature.d": (None, 64), "grid.count": (None, 64),
                    "grid.start": (None, 200.0), "grid.stop": (10.0, None)}


def parsed_value(cfg, key):
    """The RunConfig value that `key` sets."""
    special = {"curvature.k": lambda: cfg.model.k, "curvature.d": lambda: cfg.model.d,
               "law.m": lambda: cfg.law.m, "law.n": lambda: cfg.law.strength,
               "grid.start": lambda: cfg.grid[0], "grid.stop": lambda: cfg.grid[-1],
               "grid.count": lambda: len(cfg.grid)}
    return special.get(key, lambda: getattr(cfg, key.split(".")[1]))()


def value_text(key, inside, data):
    """Draw the text of a value of `key` inside or outside its domain; an
    outside draw may also be non-finite."""
    entry = cli._KEYS[key]
    integer = entry.parse is cli._integer

    def in_domain(x):
        return x > entry.bound if entry.op == ">" else x >= entry.bound

    if inside:
        lo, hi = IN_DOMAIN_LIMITS.get(key, (None, None))
        lo = entry.bound if lo is None else lo
        hi = 10 ** 9 if hi is None else hi
        numbers = (st.integers(lo, hi) if integer
                   else st.floats(lo, hi, allow_nan=False))
        return repr(data.draw(numbers.filter(in_domain)))
    numbers = (st.integers(max_value=entry.bound) if integer
               else st.floats(max_value=entry.bound, allow_nan=False, allow_infinity=False))
    return data.draw(st.one_of(numbers.filter(lambda x: not in_domain(x)).map(repr),
                               st.sampled_from(["nan", "inf", "-inf"])))


class TestKeyTable:
    """Every key is read through its _KEYS entry: parser, default, domain."""

    @pytest.mark.parametrize("key", DOMAIN_KEYS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_value_outside_domain_names_key_and_line(self, key, data):
        command, text, no = with_value(key, value_text(key, False, data))
        with pytest.raises(ConfigError) as err:
            parse_config(text, command)
        assert (err.value.key, err.value.line) == (key, no)
        assert f"'{key}', line {no})" in str(err.value)

    @pytest.mark.parametrize("key", DOMAIN_KEYS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_value_inside_domain_parses(self, key, data):
        value = value_text(key, True, data)
        command, text, _ = with_value(key, value)
        if key.startswith("grid."):
            text = text.replace("grid.spacing = log", "grid.spacing = linear")
        cfg = parse_config(text, command)
        assert parsed_value(cfg, key) == float(value)

    def test_module_docstring_lists_each_key_with_its_domain(self):
        block = cli.__doc__.split("Config keys", 1)[1].split("Exit codes", 1)[0]
        listed = {}
        for line in block.splitlines():
            m = re.match(r"    (\S+)\s{2,}(.*)", line)
            if m:
                key = m.group(1)
                listed[key] = m.group(2)
            elif line.startswith(" " * 5) and listed:
                listed[key] += " " + line.strip()
        assert set(listed) == set(cli._KEYS)
        for key in DOMAIN_KEYS:
            assert re.search(re.escape(cli._KEYS[key].domain) + r"(?![\d.])", listed[key]), key


def sim_text(mode, geometry, steps, walks, stride=1, seed=42):
    """SIM_CFG in `mode`, on H^2 or in flat space, at the given size."""
    text = (SIM_CFG.replace("sim.steps = 400", f"sim.steps = {steps}")
            .replace("sim.walks = 8", f"sim.walks = {walks}")
            .replace("sim.seed = 42", f"sim.seed = {seed}"))
    if geometry == "euclidean":
        text = text.replace("curvature.kind = hyperbolic\ncurvature.k = 1.0\n",
                            "curvature.kind = euclidean\n")
    return text + f"sim.mode = {mode}\nsim.stride = {stride}\n"


# (sim.steps, sim.walks, sim.stride): no step; a stride that misses the
# final step, which is recorded all the same; an odd walk count, which
# two processes split unevenly; one walk, which one process runs
SPELLING_CASES = {"no-step": (0, 4, 1), "stride-misses-final": (23, 4, 5),
                  "odd-walks": (30, 7, 1), "one-walk": (30, 1, 1)}


def simulate_at_one_and_two_workers(tmp_path, text, capsys):
    """[trajectories.csv, summary.csv, stdout] of `simulate` on the config
    `text`, at --workers 1 and at --workers 2."""
    runs = []
    for workers in ("1", "2"):
        code, out = run_cli(tmp_path, f"w{workers}.cfg", text, "simulate", ("--workers", workers))
        assert code == 0
        runs.append([(out / name).read_bytes() for name in ("trajectories.csv", "summary.csv")]
                    + [capsys.readouterr().out])
    return runs


@pytest.fixture
def ensembles(monkeypatch, forks):
    """The (config, workers) of each cli.run_ensemble call, on a host that
    offers two cores and with the fork floor lowered (`forks`), so that
    --workers 2 forks a child for any ensemble of two walks and a step."""
    calls, run = [], cli.run_ensemble

    def recorded(config, workers=1, **kwargs):
        calls.append((config, workers))
        return run(config, workers, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", recorded)
    return calls


class TestSimulateCommand:
    def test_writes_deterministic_outputs(self, tmp_path, capsys):
        code1, out1 = run_cli(tmp_path, "a.cfg", SIM_CFG, "simulate")
        code2, out2 = run_cli(tmp_path, "b.cfg", SIM_CFG, "simulate")
        assert code1 == code2 == 0
        for name in ("trajectories.csv", "summary.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        assert b"walk_id,step,R" in (out1 / "trajectories.csv").read_bytes()

    @pytest.mark.parametrize("case", SPELLING_CASES)
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", ["radialonly", "ambient"])
    def test_worker_count_keeps_bytes_identical(self, mode, geometry, case, tmp_path, capsys,
                                                ensembles, forks):
        steps, walks, _ = SPELLING_CASES[case]
        runs = simulate_at_one_and_two_workers(
            tmp_path, sim_text(mode, geometry, *SPELLING_CASES[case]), capsys)
        # an ensemble of no walk-step, or of one walk, has no second process
        assert len(forks) == (1 if steps and walks > 1 else 0)
        assert runs[0] == runs[1]
        # the rows the records of the same ensemble spell
        records, _ = hw.run_ensemble(ensembles[0][0])
        lines = runs[0][0].decode("ascii").splitlines()
        assert lines[lines.index("walk_id,step,R") + 1:] == \
            [f"{r.walk_id},{s},{R!r}" for r in records for s, R in r.radii]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_runs_its_ensemble_through_cli_run_ensemble_once(self, workers, tmp_path, capsys,
                                                              ensembles, forks):
        # the benchmark's traced mode times the ensemble by wrapping this name
        code, _ = run_cli(tmp_path, "e.cfg", SIM_CFG, "simulate", ("--workers", workers))
        assert code == 0
        assert [w for _, w in ensembles] == [int(workers)]
        assert len(forks) == int(workers) - 1

    @pytest.mark.parametrize("bad, walks", [
        ({1: 5}, 2),            # only walk 1, in the child's chunk, fails
        ({0: 11, 4: 4}, 6),     # walk 0 fails at step 11, the child's walk 4 already at step 4
    ])
    @pytest.mark.parametrize("mode", ["radialonly", "ambient"])
    def test_walk_error_exits_3_with_the_lowest_walk_ids_message(self, mode, bad, walks, tmp_path,
                                                                 capsys, ensembles, forks,
                                                                 monkeypatch):
        # a NaN radial part in walk j's step bad[j]; the message names the
        # step, so it tells the walks apart
        monkeypatch.setattr(hw.BoxLaw, "unit_rows", nan_rows(bad))
        text = sim_text(mode, "hyperbolic", 12, walks).replace("law.kind = elliptic",
                                                                "law.kind = box")
        code, out = run_cli(tmp_path, "bad.cfg", text, "simulate", ("--workers", "2"))
        assert code == 3
        assert len(forks) == 1
        assert not (out / "trajectories.csv").exists()
        (config, _), = ensembles
        for walk_id in range(walks):        # the walks run one by one
            try:
                hw.run_walk(config, walk_id)
            except hw.InvariantViolationError as exc:
                first = exc
                break
        walk_id, step = min(bad.items())
        assert str(first) == f"walk {walk_id}: step {step} has non-finite length"
        assert capsys.readouterr().err == f"error: {first}\n"

    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    def test_ambient_walks_start_past_where_cosh_overflows(self, geometry, tmp_path, capsys):
        # at start radius 800 cosh(k R) overflows, which stopped ambient walks
        # with an internal error (exit 5); their radii are the radial-only ones
        rows = {}
        for mode in ("ambient", "radialonly"):
            text = sim_text(mode, geometry, 40, 4) + "sim.start_radius = 800\n"
            code, out = run_cli(tmp_path, f"{mode}.cfg", text, "simulate")
            assert code == 0, capsys.readouterr().err
            lines = (out / "trajectories.csv").read_text().splitlines()
            rows[mode] = lines[lines.index("walk_id,step,R") + 1:]
        assert len(rows["ambient"]) == 4 * 41
        assert rows["ambient"] == rows["radialonly"]

    @pytest.mark.parametrize("above", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["radialonly", "ambient"])
    def test_workers_2_forks_once_each_process_gets_the_fork_floor(self, mode, above, tmp_path,
                                                                   capsys, fork_calls):
        # 64 walks of `least` steps or more (above = 1, 2) give each of two
        # processes at least FORK_MIN_WALK_STEPS walk-steps; a step fewer
        # (above = 0) does not, and runs in this process alone
        walks = 64
        least = -(-2 * simulator.FORK_MIN_WALK_STEPS // walks)
        steps = least - 1 + above
        runs = simulate_at_one_and_two_workers(
            tmp_path, sim_text(mode, "euclidean", steps, walks, stride=7), capsys)
        assert len(fork_calls) == (1 if above else 0)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["simulate", "classify", "validate", "moments"])
    def test_workers_below_one_exits_3_naming_the_flag(self, command, workers,
                                                       tmp_path, capsys):
        code, out = run_cli(tmp_path, "w.cfg", SIM_CFG, command, ("--workers", workers))
        assert code == 3
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("law.a = const:1.0", "law.a = const:1e160", "law.a"),
        ("law.b = const:1.0", "law.b = powerdecay:1e160,1", "law.b"),
        ("law.kind = elliptic\nlaw.a = const:1.0", "law.kind = box\nlaw.a = const:1e150", "law.a"),
        ("law.kind = elliptic\nlaw.a = const:1.0\nlaw.b = const:1.0",
         "law.kind = inwardbiased\nlaw.n = 1e150", "law.n"),
    ])
    @pytest.mark.parametrize("geometry", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("mode", ["radialonly", "ambient"])
    def test_step_bound_past_the_limit_exits_3_naming_the_key(self, mode, geometry, old, new,
                                                              key, tmp_path, capsys):
        # steps this long would square past the doubles: the law is rejected
        # before a step is drawn, with no numpy warning
        text = sim_text(mode, geometry, 5, 2).replace(old, new)
        code, out = run_cli(tmp_path, "big.cfg", text, "simulate")
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: steps up to ") and "must be below 1e+150" in err
        assert f"(key '{key}', line " in err and "Warning" not in err
        assert not out.exists()

    def test_header_contains_resolved_config(self, tmp_path, capsys):
        _, out = run_cli(tmp_path, "h.cfg", SIM_CFG, "simulate")
        head = (out / "summary.csv").read_text().splitlines()
        assert "# sim.seed = 42" in head
        assert "# sim.burn_in = 40" in head        # default echoed
        assert any(line.startswith("# law = elliptic") for line in head)

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        _, out1 = run_cli(tmp_path, "s1.cfg", SIM_CFG, "simulate")
        _, out2 = run_cli(tmp_path, "s2.cfg", SIM_CFG, "simulate", ("--seed", "43"))
        assert (out1 / "summary.csv").read_bytes() != (out2 / "summary.csv").read_bytes()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPERWALK_SEED", "43")
        _, out_env = run_cli(tmp_path, "e1.cfg", SIM_CFG, "simulate")
        monkeypatch.delenv("HYPERWALK_SEED")
        _, out_flag = run_cli(tmp_path, "e2.cfg", SIM_CFG, "simulate", ("--seed", "43"))
        assert (out_env / "summary.csv").read_text().splitlines()[-1] == \
            (out_flag / "summary.csv").read_text().splitlines()[-1]


    @pytest.mark.parametrize("profile, start", [("powerdecay:1,2", "1e-200"),
                                                ("powerdecay:1,-2", "1e200")])
    def test_power_decay_capped_where_the_power_overflows(self, profile, start,
                                                           tmp_path, capsys):
        text = (SIM_CFG.replace("law.b = const:1.0", f"law.b = {profile}")
                .replace("sim.steps = 400", "sim.steps = 3")
                + f"sim.start_radius = {start}\nsim.escape_radius = 1e300\n")
        code, out = run_cli(tmp_path, "pd.cfg", text, "simulate")
        assert code == 0, capsys.readouterr().err
        assert (out / "trajectories.csv").exists()


class TestClassifyCommand:
    def test_transient_exit_code_and_margins(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "t.cfg", CLASSIFY_TRANSIENT, "classify")
        assert code == 1
        text = (out / "margins.csv").read_text()
        assert "r,quantity,estimate,half_width,margin,criterion" in text
        assert "elliptic-analytic-transient" in text
        assert "transient" in capsys.readouterr().out

    def test_recurrent_exit_code(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "r.cfg", CLASSIFY_RECURRENT, "classify")
        assert code == 0

    # the box law's 2 r nu1 / nu2 tends to L0 r b^2 at k = 1, d = 2
    BOX_L0 = 1.426948029495

    def _box_law_run(self, beta, band, tmp_path):
        """(exit code, margins.csv rows) of classify on the box law with
        b^2 = (1 + beta/log r) / (L0 r), in constant curvature k = 1 or, with
        `band`, on the pinched band k_min = k_max = 1."""
        radii = np.linspace(2.0, 1000.0, 4000)
        b = np.sqrt((1.0 + beta / np.log(radii)) / (self.BOX_L0 * radii))
        (tmp_path / "b.csv").write_text(
            "".join(f"{r!r},{v!r}\n" for r, v in zip(radii.tolist(), b.tolist())))
        curvature = ("curvature.k_min = const:1\ncurvature.k_max = const:1\n" if band
                     else "curvature.k = 1.0\n")
        text = (curvature + "curvature.d = 2\nlaw.kind = box\nlaw.a = const:1\n"
                "law.b = table:b.csv\nsim.seed = 1\n"
                "grid.start = 10\ngrid.stop = 200\ngrid.count = 4\ngrid.spacing = log\n")
        code, out = run_cli(tmp_path, f"box-{band}.cfg", text, "classify")
        return code, [line.split(",") for line in (out / "margins.csv").read_text().splitlines()
                      if ",transience-gap," in line or ",recurrence-margin," in line]

    @pytest.mark.parametrize("beta, code", [(0.3, 0), (1.0, 2), (2.0, 1)])
    def test_box_law_at_one_plus_beta_over_log_r(self, beta, code, tmp_path, capsys):
        # recurrent for beta < 1 - theta and transient for beta > 1 + theta
        # (theta = 0.5); beta = 0.3 used to read transient with both
        # recurrence margins positive
        got, rows = self._box_law_run(beta, False, tmp_path)
        assert got == code
        assert len(rows) == 4
        legs = [all(float(row[4]) > 0.0 for row in rows if row[1] == quantity)
                for quantity in ("transience-gap", "recurrence-margin")]
        assert legs == [code == 1, code == 0]

    @pytest.mark.parametrize("beta, code", [(0.3, 0), (1.0, 2), (2.0, 1)])
    def test_pinched_box_law_at_one_plus_beta_over_log_r(self, beta, code, tmp_path, capsys):
        # on the degenerate band k_min = k_max = 1 the pinched legs are the
        # constant-curvature ones: beta = 0.3 used to read recurrent beside
        # positive transience gaps, and beta = 2 inconclusive
        got, rows = self._box_law_run(beta, True, tmp_path)
        assert got == code
        # a transience gap at each grid radius, the recurrence margins on
        # the tail; both legs' tail margins are constant curvature's, bit for
        # bit
        tail = [row for row in rows if float(row[0]) >= min(
            float(r[0]) for r in rows if r[1] == "recurrence-margin")]
        _, constant = self._box_law_run(beta, False, tmp_path)
        assert [(r[0], r[1], r[4]) for r in tail] == [(r[0], r[1], r[4]) for r in constant]
        assert [r[1] for r in rows].count("transience-gap") == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("curvature.k = -2\n")
        assert main(["classify", "--config", str(cfg)]) == 3

    def test_missing_config_file(self, capsys):
        assert main(["classify", "--config", "/nonexistent/x.cfg"]) == 3

    def test_classify_deterministic_bytes(self, tmp_path, capsys):
        _, out1 = run_cli(tmp_path, "c1.cfg", CLASSIFY_TRANSIENT, "classify")
        _, out2 = run_cli(tmp_path, "c2.cfg", CLASSIFY_TRANSIENT, "classify")
        assert (out1 / "margins.csv").read_bytes() == (out2 / "margins.csv").read_bytes()

    def test_euclidean_dispatch(self, tmp_path, capsys):
        text = (
            "curvature.kind = euclidean\ncurvature.d = 2\nlaw.kind = elliptic\n"
            "law.a = const:1.2\nlaw.b = const:1.0\nsim.seed = 2\n"
            "grid.start = 10\ngrid.stop = 50\ngrid.count = 3\n"
        )
        code, out = run_cli(tmp_path, "eu.cfg", text, "classify")
        assert code == 0  # 2U = 2.88 > V = 2.44
        assert "euclidean-2u-v" in (out / "margins.csv").read_text()
        text3 = text.replace("curvature.d = 2", "curvature.d = 3").replace(
            "law.a = const:1.2", "law.a = const:1.0")
        code, _ = run_cli(tmp_path, "eu3.cfg", text3, "classify")
        assert code == 1  # d=3 a=b=1: 2U=2 < V=3

    def test_euclidean_rule_needs_zero_drift(self, tmp_path, capsys):
        # 2U = 4 < V = 16 would read transient, but the chain drifts inward
        # and is recurrent: the rule does not apply to it
        text = (
            "curvature.kind = euclidean\ncurvature.d = 2\nlaw.kind = inwardbiased\n"
            "law.n = 1\nsim.seed = 5\ngrid.start = 10\ngrid.stop = 50\ngrid.count = 3\n"
        )
        code, out = run_cli(tmp_path, "drift.cfg", text, "classify")
        assert code == 2
        printed = capsys.readouterr().out
        assert "verdict:   inconclusive" in printed
        assert "note: the rule needs zero drift, and the mean radial step is -1.0" in printed
        rows = (out / "margins.csv").read_text().splitlines()[-2:]
        assert rows == [  # the closed forms U = 2N^2 and V = 16N^2, no draw
            "50.0,radial-second-moment-U,2.0,0.0,-12.0,euclidean-2u-v",
            "50.0,total-second-moment-V,16.0,0.0,-12.0,euclidean-2u-v",
        ]

    @pytest.mark.parametrize("name", ["classify-box-screen", "classify-box-recurrent-small",
                                      "classify-pinched-small", "moments-box"])
    def test_one_draw_per_grid_radius(self, name, monkeypatch, tmp_path, capsys):
        """A sampled law (a box law in d = 5) is read from one draw per grid
        radius by the screen and the moment criteria, the pinched criteria
        and the moments table: the command's stream ends where one
        sample_components_batch(r, n) per grid radius, in grid order, leaves
        a twin stream."""
        command = "moments" if name.startswith("moments") else "classify"
        golden = "classify-box-screen" if command == "moments" else name
        with open(os.path.join(GOLDEN, golden + ".cfg")) as fh:
            text = re.sub(r"curvature\.d = \d", "curvature.d = 5", fh.read())
        cfg = parse_config(text, command, out_override=str(tmp_path))
        assert cfg.law.kind == "box" and cfg.law.quadrature_lines(cfg.grid[0], 32) is None
        law_class = type(cfg.law)
        draw = law_class.sample_components_batch
        calls = []

        def recording(law, r, n, rng):
            calls.append((r, n, rng))
            return draw(law, r, n, rng)

        monkeypatch.setattr(law_class, "sample_components_batch", recording)
        if command == "moments":
            cli.cmd_moments(cfg)
        else:
            cli.classification_report(cfg)
        spawn_key = 20_000 if command == "moments" else 10_000
        twin = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                            spawn_key=(spawn_key,)))
        for r in cfg.grid:
            draw(cfg.law, r, cfg.samples, twin)
        assert [(r, n) for r, n, _ in calls] == [(r, cfg.samples) for r in cfg.grid]
        assert calls[0][2].bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("name, d", [*((n, None) for n in REPORT_GOLDEN_NAMES
                                           if n not in ("classify-elliptic-small",
                                                        *SAMPLED_GOLDEN_NAMES)),
                                         ("classify-box-screen", 2)])
    def test_built_in_laws_draw_nothing(self, name, d, monkeypatch, tmp_path, capsys):
        """classify and moments integrate every built-in law that offers
        quadrature lines (box laws only in d = 2 and for k a <= 3): no
        sampler is called, and the report says how its half-widths were
        made."""
        command = "moments" if name.startswith("moments") else "classify"
        with open(os.path.join(GOLDEN, name + ".cfg")) as fh:
            text = fh.read()
        if d is not None:
            text = re.sub(r"curvature\.d = \d", f"curvature.d = {d}", text)
        cfg = parse_config(text, command, out_override=str(tmp_path))

        def refuse(*args):
            raise AssertionError("a built-in law was sampled")

        for law_class in (cli.BoxLaw, cli.EllipticLaw, cli.HeavyTailLaw, cli.InwardBiasedLaw):
            monkeypatch.setattr(law_class, "sample_components_batch", refuse)
            monkeypatch.setattr(law_class, "sample_components", refuse)
        if command == "moments":
            cli.cmd_moments(cfg)
            assert "note: moments by Gauss quadrature" in capsys.readouterr().out
        else:
            report = cli.classification_report(cfg)
            assert any(n.startswith("moments by Gauss quadrature") for n in report.notes)

    def test_screened_run_below_100_samples_exits_3(self, tmp_path, capsys):
        with open(os.path.join(GOLDEN, "classify-box-screen.cfg")) as fh:
            text = fh.read().replace("classify.samples = 20000", "classify.samples = 50")
        code, _ = run_cli(tmp_path, "few.cfg", text, "classify")
        assert code == 3
        assert "must be >= 100, got 50 (key 'classify.samples', line 12)" in \
            capsys.readouterr().err

    def test_pinched_run_below_100_samples_exits_3(self, tmp_path, capsys):
        # the pinched classifier has no screen of its own to stop a two-draw run
        with open(os.path.join(GOLDEN, "classify-pinched-small.cfg")) as fh:
            text = fh.read().replace("classify.samples = 20000", "classify.samples = 2")
        code, _ = run_cli(tmp_path, "two.cfg", text, "classify")
        assert code == 3
        assert "key 'classify.samples'" in capsys.readouterr().err


class TestMomentsCommand:
    CFG = (
        "curvature.k = 1.0\ncurvature.d = 3\nlaw.kind = elliptic\n"
        "law.a = const:2.0\nlaw.b = const:1.0\nsim.seed = 3\n"
        "grid.start = 5\ngrid.stop = 5\ngrid.count = 1\n"
        "classify.samples = 100000\n"
    )

    def test_elliptic_moments_within_three_se(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "m.cfg", self.CFG, "moments")
        assert code == 0
        rows = {}
        for line in (out / "moments.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("r,"):
                continue
            parts = line.split(",")
            rows[parts[1]] = (float(parts[2]), float(parts[3]), parts[4])
        est, hw_, ref = rows["E[d_tot^2]"]
        assert abs(est - 6.0) < 3 * hw_ / 2.5758 * 3 or abs(est - 6.0) < 1.2 * hw_
        assert ref == "6.0"
        est, hw_, ref = rows["E[d_rad^2]"]
        assert abs(est - 4.0) < 1.2 * hw_
        assert ref == "4.0"

    def test_inward_biased_mean(self, tmp_path, capsys):
        text = self.CFG.replace("law.kind = elliptic", "law.kind = inwardbiased")
        text = text.replace("law.a = const:2.0\nlaw.b = const:1.0\n", "law.n = 1.0\n")
        code, out = run_cli(tmp_path, "mi.cfg", text, "moments")
        assert code == 0
        content = (out / "moments.csv").read_text()
        row = [l for l in content.splitlines() if ",E[d_rad]," in l][0]
        parts = row.split(",")
        assert float(parts[2]) == pytest.approx(-1.0, abs=1.2 * float(parts[3]) + 1e-6)
        assert parts[4] == "-1.0"

    def test_heavytail_bound_columns(self, tmp_path, capsys):
        text = (
            "curvature.k = 1.0\ncurvature.d = 2\nlaw.kind = heavytail\nlaw.m = 4.0\n"
            "sim.seed = 3\ngrid.start = 100\ngrid.stop = 100\ngrid.count = 1\n"
            "classify.samples = 400000\n"
        )
        code, out = run_cli(tmp_path, "mh.cfg", text, "moments")
        assert code == 0
        lines = (out / "moments.csv").read_text().splitlines()
        trans = [l for l in lines if "transverse-second-moment" in l][0].split(",")
        est, hw_, bound = float(trans[2]), float(trans[3]), float(trans[4])
        assert trans[5] == "upper"
        assert est <= bound + 3 * hw_ / 2.5758 * 3
        nu1 = [l for l in lines if "nu1-lower-bound" in l][0].split(",")
        est, hw_, bound = float(nu1[2]), float(nu1[3]), float(nu1[4])
        assert nu1[5] == "lower"
        assert est >= bound - 1.2 * hw_


class TestValidateCommand:
    SUITES = ["exact-radial-increment", "sandwich-bounds", "geodesic-step", "mode-coupling",
              "moment-identities"]

    @pytest.mark.parametrize("config", ["seed-5", "configs/validate.cfg"])
    def test_healthy_build_passes(self, config, tmp_path, capsys):
        if config == "seed-5":
            cfg = tmp_path / "v.cfg"
            cfg.write_text("sim.seed = 5\n")
        else:
            cfg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), config)
        assert main(["validate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == self.SUITES
        assert all(line.split(": ")[1].startswith("PASS (") for line in lines), lines


class TestPinchedDispatch:
    def test_kmin_kmax_profiles_route_to_pinched(self, tmp_path, capsys):
        text = (
            "curvature.kind = hyperbolic\ncurvature.k_min = const:1.0\n"
            "curvature.k_max = const:1.0\ncurvature.d = 2\n"
            "law.kind = inwardbiased\nlaw.n = 1.0\nsim.seed = 4\n"
            "grid.start = 10\ngrid.stop = 200\ngrid.count = 6\ngrid.spacing = log\n"
            "classify.samples = 60000\n"
        )
        code, out = run_cli(tmp_path, "p.cfg", text, "classify")
        assert code == 1
        assert "pinched-transient" in (out / "margins.csv").read_text()

    def test_half_specified_profiles_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("curvature.k_min = const:1.0\ncurvature.d = 2\n"
                         "law.kind = box\nlaw.a = const:1\nlaw.b = const:1\n"
                         "sim.seed = 1\ngrid.start = 1\ngrid.stop = 2\n"
                         "grid.count = 2\n", "classify")
        assert "k_max" in str(err.value)

    PINCHED_NO_K = (
        "curvature.kind = hyperbolic\ncurvature.k_min = powerdecay:1,1\n"
        "curvature.k_max = const:2\ncurvature.d = 2\n"
        "law.kind = elliptic\nlaw.a = const:1\nlaw.b = const:1\nsim.seed = 6\n"
        "sim.steps = 200\nsim.walks = 3\n"
        "grid.start = 10\ngrid.stop = 100\ngrid.count = 2\nclassify.samples = 1000\n"
    )

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    def test_pinched_bands_without_k_exit_3_outside_classify(self, tmp_path, capsys, command):
        # they ran at the fallback k = max(inf k_min, 1e-12): every simulated
        # radius read 0.0 under a header saying curvature.k = 1e-12
        code, out = run_cli(tmp_path, "p.cfg", self.PINCHED_NO_K, command)
        assert code == 3
        assert "(key 'curvature.k')" in capsys.readouterr().err
        assert not out.exists()

    def test_classify_keeps_the_pinched_fallback(self):
        cfg = parse_config(self.PINCHED_NO_K, "classify")
        assert cfg.pinched and cfg.model.k == 1e-12


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_NAMES = ["sim-small", "sim-recurrent-small", "sim-euclid-small",
                "sim-ambient-small", "sim-ambient-recurrent-small", "sim-ambient-euclid-small",
                "sim-heavytail-small"]
# classify and moments goldens: run name -> the CSV it writes.  A classify
# run's report.txt holds the verdict, criterion and note lines it printed.
REPORT_GOLDENS = {
    "classify-box-screen": "margins.csv",            # uniform-ellipticity screen decides
    "classify-box-recurrent-small": "margins.csv",   # screen inconclusive, moments decide
    "classify-heavytail-small": "margins.csv",
    "classify-inward-small": "margins.csv",
    "classify-pinched-small": "margins.csv",
    "classify-pinched-wide": "margins.csv",          # k_min and k_max readings disagree
    "classify-elliptic-small": "margins.csv",        # closed form
    "classify-euclid-small": "margins.csv",
    "moments-small": "moments.csv",
}

# Budget for a value that passes through libm's sinh, cosh, acosh, exp and
# log, none of which glibc rounds correctly: |got - golden| must stay within
# GOLDEN_TAU * max(1, |golden|).  Moving every such result in
# hyperwalk.geometry by 1-2 ulp at random moved the radial-only golden runs'
# values by at most 1.6e-13 on this scale, and by 2.5e-12 with the same sign
# on every call; in hyperwalk.geometry and hyperwalk.simulator it moved the
# ambient-mode runs by at most 1.2e-13, and 7.2e-14 with the same sign.
# Moving numpy's exp, log, sinh, cosh and arccosh (and math's) by 1-4 ulp at
# random moved the classify and moments runs by at most 3.8e-15, and by
# 7.0e-13 with the same sign on every call.  Moving the powerdecay exponent
# by 1e-6 moves R by 1.1e-5.
GOLDEN_TAU = 1e-11
# The columns compared within the budget.  Every other field, every header
# line and the column line must match byte for byte, and so must an empty
# field in these columns.
GOLDEN_CLOSE_COLUMNS = frozenset({"R", "q5", "q25", "q50", "q75", "q95",
                                  "drift", "drift_hw",
                                  "r", "estimate", "half_width", "margin", "reference"})


def _field_matches(column, got, want):
    if column not in GOLDEN_CLOSE_COLUMNS or not want:
        return got == want
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    if float.__repr__(x) != got or float.__repr__(y) != want:
        return False  # not a plain float repr, e.g. `np.float64(x)`
    return got == want or (math.isfinite(x) and math.isfinite(y)
                           and abs(x - y) <= GOLDEN_TAU * max(1.0, abs(y)))


# The one header line compared within the budget: its values come from
# np.geomspace under grid.spacing = log, which goes through libm's exp and log.
GRID_POINTS = "# grid.points = "


def _header_matches(got, want):
    if got == want or not (got.startswith(GRID_POINTS) and want.startswith(GRID_POINTS)):
        return got == want
    g, w = got[len(GRID_POINTS):].split(";"), want[len(GRID_POINTS):].split(";")
    return len(g) == len(w) and all(_field_matches("r", a, b) for a, b in zip(g, w))


def golden_mismatches(got: str, want: str) -> list:
    """Every way an output CSV departs from its golden copy.

    Header lines, the column line, the line count and every field outside
    GOLDEN_CLOSE_COLUMNS must match byte for byte, except that each value of
    the `# grid.points` header is compared as a field of those columns is.
    Such a field must be spelled as a plain float repr on both sides, and
    match the golden one byte for byte or lie within
    GOLDEN_TAU * max(1, |golden|) of it.
    """
    got_lines, want_lines = got.split("\n"), want.split("\n")
    problems = []
    if len(got_lines) != len(want_lines):
        problems.append(f"{len(got_lines)} lines, golden has {len(want_lines)}")
    columns = None
    for no, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if columns is None:
            if not _header_matches(g, w):
                problems.append(f"line {no}: header {g!r}, golden {w!r}")
            if not w.startswith("#"):
                columns = w.split(",")
            continue
        if g == w == "":
            continue
        g_fields, w_fields = g.split(","), w.split(",")
        if len(g_fields) != len(columns) or len(w_fields) != len(columns):
            problems.append(f"line {no}: {g!r}, golden {w!r}")
            continue
        problems += [f"line {no}: {col} = {a}, golden {b}"
                     for col, a, b in zip(columns, g_fields, w_fields)
                     if not _field_matches(col, a, b)]
    return problems


def _golden_text(name, fname):
    with open(os.path.join(GOLDEN, name + ".out", fname), "rb") as fh:
        return fh.read().decode("ascii")


class TestGoldenRuns:
    """Frozen-output regression: the three sample ensembles must reproduce
    their first validated run.  On one platform (Python, numpy, libm, BLAS,
    CPU dispatch) a re-run reproduces the bytes; across platforms the radii
    and the summary's float statistics may move within GOLDEN_TAU, because
    libm's transcendentals are not correctly rounded.  Everything else is
    still compared byte for byte (see golden_mismatches)."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_byte_identical_to_golden(self, name, tmp_path, capsys):
        cfg = os.path.join(GOLDEN, name + ".cfg")
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for fname in ("trajectories.csv", "summary.csv"):
            got = (out / fname).read_bytes().decode("ascii")
            problems = golden_mismatches(got, _golden_text(name, fname))
            assert not problems, (f"{name}/{fname} diverged from golden in "
                                  f"{len(problems)} places:\n" + "\n".join(problems[:10]))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_simulate_builds_no_record_and_library_records_hold_golden_radii(
            self, name, workers, tmp_path, capsys, monkeypatch, ensembles, forks):
        # each construction appends to a file, so a forked child's count too
        built = tmp_path / "built"
        built.touch()

        class Counted(simulator.TrajectoryRecord):
            def __init__(self, *args):
                with open(built, "a") as fh:
                    fh.write(".")
                super().__init__(*args)

        monkeypatch.setattr(simulator, "TrajectoryRecord", Counted)
        out = tmp_path / "out"
        assert main(["simulate", "--config", os.path.join(GOLDEN, name + ".cfg"),
                     "--out", str(out), "--workers", str(workers)]) == 0
        assert built.read_text() == ""
        (config, _), = ensembles
        records, _ = hw.run_ensemble(config, workers)
        assert built.read_text() == "." * config.walks
        assert len(forks) == 2 * (workers - 1)      # one by main, one by run_ensemble
        # the records hold the golden run's radii
        want = _golden_text(name, "trajectories.csv")
        head = want[:want.index("walk_id,step,R\n") + len("walk_id,step,R\n")]
        got = head + "".join(f"{r.walk_id},{s},{R!r}\n" for r in records for s, R in r.radii)
        problems = golden_mismatches(got, want)
        assert not problems, problems[:10]


    @pytest.mark.parametrize("name", [n for n in GOLDEN_NAMES if "ambient" in n])
    def test_ambient_simulate_is_radial_only_and_never_turns(self, name, tmp_path, capsys,
                                                            monkeypatch):
        # sim.mode = ambient is echoed in the header and changes nothing else
        def no_turn(*args):
            raise AssertionError("simulate turned a direction")
        monkeypatch.setattr(simulator, "_turn", no_turn)
        with open(os.path.join(GOLDEN, name + ".cfg")) as fh:
            text = fh.read()
        assert "sim.mode = ambient\n" in text
        outs = []
        for mode in ("ambient", "radialonly"):
            code, out = run_cli(tmp_path, f"{mode}.cfg",
                                text.replace("sim.mode = ambient", f"sim.mode = {mode}"),
                                "simulate")
            assert code == 0
            outs.append(out)
        for fname in ("trajectories.csv", "summary.csv"):
            a, r = ((out / fname).read_text().splitlines(keepends=True) for out in outs)
            i = a.index("# sim.mode = ambient\n")
            assert r[i] == "# sim.mode = radialonly\n"
            assert a[:i] + a[i + 1:] == r[:i] + r[i + 1:]


_VERDICT_EXIT = {"recurrent": 0, "transient": 1, "inconclusive": 2}


class TestReportGoldens:
    """Frozen classify and moments runs, compared as the simulate goldens
    are: the float columns within GOLDEN_TAU, every other field and header
    byte for byte, and a classify run's verdict, criterion and notes (and so
    its exit code) exactly."""

    @pytest.mark.parametrize("name", REPORT_GOLDENS)
    def test_matches_golden(self, name, tmp_path, capsys):
        command = "moments" if name.startswith("moments") else "classify"
        out = tmp_path / name
        code = main([command, "--config", os.path.join(GOLDEN, name + ".cfg"),
                     "--out", str(out)])
        fname = REPORT_GOLDENS[name]
        problems = golden_mismatches((out / fname).read_bytes().decode("ascii"),
                                     _golden_text(name, fname))
        assert not problems, (f"{name}/{fname} diverged from golden in "
                              f"{len(problems)} places:\n" + "\n".join(problems[:10]))
        if command == "moments":
            assert code == 0
            return
        report = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith(("verdict:", "criterion:", "note:"))]
        want = _golden_text(name, "report.txt").splitlines()
        assert report == want
        assert code == _VERDICT_EXIT[want[0].split()[1]]


@pytest.mark.parametrize("command, name", [
    ("simulate", "sim-small"),
    ("classify", "classify-heavytail-small"),   # reaches quadrature._edges and _tail_bounded
    ("classify", "classify-pinched-small"),     # reaches quadrature._probes
    ("classify", "classify-elliptic-small"),    # the closed form, which draws nothing
    ("moments", "moments-small"),
])
def test_commands_load_neither_numpy_ma_nor_validation(command, name, tmp_path):
    # np.unique, np.median and np.percentile import numpy.ma on first use,
    # about 6 ms of every process; only `validate` needs hyperwalk.validation;
    # a run that draws nothing, as classify and moments of a law they
    # integrate, needs no numpy.random (another 6 ms)
    absent = ("numpy.ma", "hyperwalk.validation")
    if command != "simulate":
        absent += ("numpy.random",)
    code = ("import sys\nfrom hyperwalk.cli import main\n"
            f"assert main([{command!r}, '--config', {os.path.join(GOLDEN, name + '.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}]) in (0, 1, 2)\n"  # a verdict, not an error
            f"print([m for m in {absent!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_simulate_on_two_workers_loads_no_process_pool(tmp_path):
    # concurrent.futures and multiprocessing cost about 13 ms of every
    # process's imports; the ensemble forks its children with os.fork, here
    # on two cores and with the fork floors lowered, so that it forks one
    absent = ("concurrent.futures", "multiprocessing")
    code = ("import os, sys\nfrom hyperwalk import simulator\nfrom hyperwalk.cli import main\n"
            "simulator.FORK_MIN_WALKS = simulator.FORK_MIN_WALK_STEPS = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            f"assert main(['simulate', '--config', {os.path.join(GOLDEN, 'sim-small.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}, '--workers', '2']) == 0\n"
            "assert len(forks) == 1, forks\n"
            f"print([m for m in {absent!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def _layout(text):
    """The lines of a CSV, its columns and the 1-based line of its first row."""
    lines = text.split("\n")
    head = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    return lines, lines[head].split(","), head + 2


def _edit(text, no, column, change):
    """`text` with the field of line `no` (1-based) in `column` set to change(field)."""
    lines, columns, _ = _layout(text)
    fields = lines[no - 1].split(",")
    j = columns.index(column)
    fields[j] = change(fields[j])
    lines[no - 1] = ",".join(fields)
    return "\n".join(lines)


def _nudged(text, rnd):
    """`text` with every value in GOLDEN_CLOSE_COLUMNS moved by 1-4 ulp."""
    lines, columns, first = _layout(text)
    close = [j for j, col in enumerate(columns) if col in GOLDEN_CLOSE_COLUMNS]
    for i in range(first - 1, len(lines) - 1):
        fields = lines[i].split(",")
        for j in close:
            if not fields[j]:
                continue
            x, toward = float(fields[j]), rnd.choice((math.inf, -math.inf))
            for _ in range(rnd.randint(1, 4)):
                x = math.nextafter(x, toward)
            fields[j] = repr(x)
        lines[i] = ",".join(fields)
    return "\n".join(lines)


class TestGoldenComparison:
    """golden_mismatches passes libm-sized noise and fails on anything else."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_passes_every_value_nudged_by_a_few_ulp(self, name):
        rnd = random.Random(name)
        for fname in ("trajectories.csv", "summary.csv"):
            want = _golden_text(name, fname)
            got = _nudged(want, rnd)
            lines, _, first = _layout(want)
            moved = sum(a != b for a, b in zip(got.split("\n"), lines))
            assert moved == len(lines) - first
            assert golden_mismatches(got, want) == []

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_fails_when_one_radius_moves_1e_9_relative(self, name):
        want = _golden_text(name, "trajectories.csv")
        lines, columns, first = _layout(want)
        r = columns.index("R")
        no = max(range(first, len(lines)),
                 key=lambda n: float(lines[n - 1].split(",")[r]))
        got = _edit(want, no, "R", lambda f: repr(float(f) * (1.0 + 1e-9)))
        problems = golden_mismatches(got, want)
        assert len(problems) == 1 and problems[0].startswith(f"line {no}: R = ")

    def test_fails_when_a_row_is_dropped_or_added(self):
        want = _golden_text("sim-recurrent-small", "trajectories.csv")
        lines = want.split("\n")
        mid = len(lines) // 2
        dropped = "\n".join(lines[:mid] + lines[mid + 1:])
        added = "\n".join(lines[:mid] + [lines[mid]] + lines[mid:])
        for got in (dropped, added):
            assert golden_mismatches(got, want)
        last_dropped = "\n".join(lines[:-2] + lines[-1:])
        assert golden_mismatches(last_dropped, want)[0].endswith("lines, golden has "
                                                                 f"{len(lines)}")

    def test_fails_when_a_step_or_walk_changes(self):
        want = _golden_text("sim-recurrent-small", "trajectories.csv")
        no = _layout(want)[2] + 5
        for column in ("walk_id", "step"):
            got = _edit(want, no, column, lambda f: str(int(f) + 1))
            assert golden_mismatches(got, want)

    @pytest.mark.parametrize("fname", ["trajectories.csv", "summary.csv"])
    def test_fails_when_a_header_line_changes(self, fname):
        want = _golden_text("sim-recurrent-small", fname)
        for old, new in (("# sim.seed = 90902", "# sim.seed = 90903"),
                         ("# hyperwalk 0.1.0", "# hyperwalk 0.1.1"),
                         ("\nwalk", "\nwalk_no")):
            if old in want:
                assert golden_mismatches(want.replace(old, new, 1), want)
        assert golden_mismatches(want.replace("\n", "\r\n", 1), want)

    @pytest.mark.parametrize("name", REPORT_GOLDENS)
    def test_report_passes_every_estimate_nudged_by_a_few_ulp(self, name):
        want = _golden_text(name, REPORT_GOLDENS[name])
        assert golden_mismatches(_nudged(want, random.Random(name)), want) == []

    @pytest.mark.parametrize("column", ["r", "estimate", "half_width", "margin"])
    def test_report_fails_when_a_float_moves_beyond_tau(self, column):
        want = _golden_text("classify-pinched-wide", "margins.csv")
        for factor, fails in ((2.0, True), (0.5, False)):
            got = _edit(want, _layout(want)[2], column, lambda f: repr(
                float(f) + factor * GOLDEN_TAU * max(1.0, abs(float(f)))))
            assert bool(golden_mismatches(got, want)) is fails, (column, factor)

    @pytest.mark.parametrize("name", REPORT_GOLDENS)
    def test_grid_points_compare_within_tau(self, name):
        want = _golden_text(name, REPORT_GOLDENS[name])
        line = next(l for l in want.split("\n") if l.startswith(GRID_POINTS))
        points = line[len(GRID_POINTS):].split(";")

        def nudged(i, move):
            moved = points[:i] + [repr(move(float(points[i])))] + points[i + 1:]
            return want.replace(line, GRID_POINTS + ";".join(moved), 1)

        for i in range(len(points)):
            assert golden_mismatches(nudged(i, lambda x: math.nextafter(x, math.inf)),
                                     want) == []
            problems = golden_mismatches(nudged(i, lambda x: x * (1.0 + 1e-9)), want)
            assert len(problems) == 1 and problems[0].startswith("line ")
        for other in (line + ";200.0", line.replace(";", ",", 1), line.replace(" = ", " =", 1)):
            assert golden_mismatches(want.replace(line, other, 1), want)

    def test_report_text_and_empty_fields_compare_byte_for_byte(self):
        margins = _golden_text("classify-pinched-wide", "margins.csv")
        first = _layout(margins)[2]
        for column, value in (("quantity", "scaled-drift"), ("criterion", "pinched-recurrent")):
            assert golden_mismatches(_edit(margins, first, column, lambda _: value), margins)
        moments = _golden_text("moments-small", "moments.csv")
        lines, _, first = _layout(moments)
        nu1 = next(n for n in range(first, len(lines)) if lines[n - 1].split(",")[1] == "nu1")
        for column, value in (("reference", "0.0"), ("bound_kind", "upper")):
            assert golden_mismatches(_edit(moments, nu1, column, lambda _: value), moments)
        # the first row is E[d_tot^2], whose reference is filled in
        assert golden_mismatches(_edit(moments, first, "reference", lambda _: ""), moments)

    @pytest.mark.parametrize("column", ["walks", "steps", "mean_returns",
                                        "fraction_escaped", "fraction_escaped_hw",
                                        "fraction_returned", "fraction_returned_hw"])
    def test_fails_when_a_summary_count_or_fraction_changes(self, column):
        want = _golden_text("sim-recurrent-small", "summary.csv")
        got = _edit(want, _layout(want)[2], column,
                    lambda f: str(int(f) + 1) if f.isdigit()
                    else repr(math.nextafter(float(f), 1.0)))
        assert golden_mismatches(got, want)

    @pytest.mark.parametrize("column", ["q5", "q25", "q50", "q75", "q95",
                                        "drift", "drift_hw"])
    def test_fails_when_a_summary_statistic_moves_beyond_tau(self, column):
        want = _golden_text("sim-recurrent-small", "summary.csv")
        for factor, fails in ((2.0, True), (0.5, False)):
            got = _edit(want, _layout(want)[2], column, lambda f: repr(
                float(f) + factor * GOLDEN_TAU * max(1.0, abs(float(f)))))
            assert bool(golden_mismatches(got, want)) is fails, (column, factor)

    @pytest.mark.parametrize("spell", [lambda f: f"np.float64({f})", lambda f: f + "0"],
                             ids=["numpy-scalar", "padded"])
    def test_rejects_a_value_not_spelled_as_its_float_repr(self, spell):
        want = _golden_text("sim-euclid-small", "trajectories.csv")
        assert "np.float64" not in want
        odd = _edit(want, _layout(want)[2] + 1, "R", spell)
        assert golden_mismatches(odd, want)
        assert golden_mismatches(want, odd)
        assert golden_mismatches(odd, odd)

    def test_non_finite_values_match_only_themselves(self):
        want = _golden_text("sim-small", "summary.csv")

        def drift(value):
            return _edit(want, _layout(want)[2], "drift", lambda _: value)

        for a, b in (("nan", "nan"), ("inf", "inf")):
            assert golden_mismatches(drift(a), drift(b)) == []
        for a, b in (("nan", "0.0"), ("inf", "1e+300"), ("1e+300", "inf"), ("-inf", "inf")):
            assert golden_mismatches(drift(a), drift(b))
