"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

import hyperwalk.cli as cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_are_a_pure_function_of_the_seed(workload):
    first = workloads.jobs(workload, 7)
    workloads.jobs(workload, 8)
    workloads.jobs("classify-mc", 7)
    again = workloads.jobs(workload, 7)
    assert first == again
    assert [j.config_text for j in first] == [j.config_text for j in again]
    other = workloads.jobs(workload, 8)
    assert [j.seed for j in other] != [j.seed for j in first]
    # only the seed moves: sizes and laws stay put, so run time does not
    for a, b in zip(first, other):
        assert [kv for kv in a.keys if kv[0] != "sim.seed"] == \
               [kv for kv in b.keys if kv[0] != "sim.seed"]


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.jobs("no-such-workload", 1)


def _owners():
    return {(name, owner_path, attr): spans.resolve(owner_path).__dict__[attr]
            for name, owner_path, attr, _ in spans.targets()}


def _small_simulate(tmp_path, mode="radialonly"):
    config = tmp_path / "small.cfg"
    config.write_text(
        "curvature.kind = hyperbolic\ncurvature.k = 1.0\ncurvature.d = 2\n"
        "law.kind = elliptic\nlaw.a = const:1\nlaw.b = const:1\n"
        f"sim.steps = 50\nsim.walks = 3\nsim.seed = 5\nsim.mode = {mode}\n")
    job = Job(name="small", command="simulate", workers=1, seed=5,
              keys=(("sim.steps", "50"), ("sim.walks", "3")))
    return job, config


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _owners()
    job, config = _small_simulate(tmp_path)
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            tracer.install(spans.targets())
            assert all(spans.resolve(o).__dict__[a] is not before[(n, o, a)]
                       for n, o, a in before)
            tracer.set_job(0)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(job.argv(str(config), str(tmp_path / "out"))) == 0
            raise RuntimeError("a failure inside the traced run")
    after = _owners()
    assert all(after[key] is before[key] for key in before)
    table = tracer.arrays()
    names = list(table["names"])
    walks = table["name_id"] == names.index("simulator.run_walk")
    draws = table["name_id"] == names.index("increments.sample_components.elliptic")
    assert walks.sum() == 3 and draws.sum() == 150
    # every draw happens inside a run_walk span of job 0
    assert set(table["name_id"][table["parent"][draws]]) == {names.index("simulator.run_walk")}
    assert set(table["job"]) == {0}


def test_per_layer_self_time_subtracts_children_and_wrapper_cost():
    tracer = spans.Tracer()
    tracer.names = ["simulator.run_walk", "increments.sample_components.box"]
    # run_walk 0..1000 ns with two 100 ns draws inside; job 0 walks 2 steps
    tracer.events = [spans._JOB, 0, 0, 0, 1, 100, -2, 200, 1, 300, -2, 400, -1, 1000]
    calibration = {"plain": {"inner": 10.0, "outer": 20.0},
                   "log_domain": {"inner": 10.0, "outer": 20.0}}
    m = spans.per_layer(tracer.arrays(), calibration, {0: 2}, {0: "radialonly"})
    assert m["increments.sample_components.box.draws"] == 2
    assert m["increments.sample_components.box.ns_per_draw"] == pytest.approx(90.0)
    # (1000 - 10 - 2 * (100 + 20)) ns over 2 steps
    assert m["simulator.step_loop.us_per_step.radial"] == pytest.approx(0.375)


def _runner(tmp_path, jobs):
    runner = run.Runner("simulate-radial", 1, tmp_path / "work", 60.0)
    runner.jobs = jobs
    return runner


def test_nan_radius_is_counted_as_failed(tmp_path):
    job, config = _small_simulate(tmp_path)
    out = tmp_path / "round" / job.name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job.argv(str(config), str(out)))
    assert gate.check_job(job, code, "", out) == []

    runner = _runner(tmp_path, [job])
    runner.gate_round([{"exit": code, "stdout": "", "stderr": ""}], tmp_path / "round")
    assert (runner.attempted, runner.failed) == (1, 0)

    lines = (out / "trajectories.csv").read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:2] + ["nan"])
    (out / "trajectories.csv").write_text("\n".join(lines) + "\n")
    problems = gate.check_job(job, code, "", out)
    assert problems and "radius nan" in problems[0]
    runner.gate_round([{"exit": code, "stdout": "", "stderr": ""}], tmp_path / "round")
    assert (runner.attempted, runner.failed) == (2, 1)
    # the changed bytes are flagged as well
    assert any("differ" in p for _, _, p in runner.failures)


def test_wrong_verdict_is_counted_as_failed(tmp_path):
    config = tmp_path / "inward.cfg"
    config.write_text(
        "curvature.kind = hyperbolic\ncurvature.k = 1.0\ncurvature.d = 2\n"
        "law.kind = inwardbiased\nlaw.n = 1\ngrid.start = 10\ngrid.stop = 200\n"
        "grid.count = 4\ngrid.spacing = log\nclassify.samples = 2000\nsim.seed = 3\n")
    job = Job(name="inward", command="classify", workers=1, seed=3,
              keys=(("grid.count", "4"),), exit_code=1, verdict="transient",
              criterion="const-curvature-transient")
    out = tmp_path / "round" / job.name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(job.argv(str(config), str(out)))
    assert gate.check_job(job, code, stdout.getvalue(), out) == []

    injected = stdout.getvalue().replace("verdict:   transient", "verdict:   recurrent")
    assert gate.check_job(job, code, injected, out)
    inconclusive = stdout.getvalue().replace("verdict:   transient", "verdict:   inconclusive")
    assert gate.check_job(job, 2, inconclusive, out)

    runner = _runner(tmp_path, [job])
    runner.gate_round([{"exit": code, "stdout": injected, "stderr": ""}], tmp_path / "round")
    assert (runner.attempted, runner.failed) == (1, 1)


def test_gate_reads_numpy_scalar_spelling():
    assert gate._number("np.float64(1.5)") == 1.5
    assert math.isnan(gate._number("nan"))


def test_times_are_divided_by_the_reference_next_to_them():
    # job 0 takes 2 s while the host is slow (reference 4 ms), 1 s at 2 ms
    rounds = [{"jobs": [{"wall_s": 2.0, "ref_s": 0.004}, {"wall_s": 0.5, "ref_s": 0.002}],
               "peak_rss_mb": 40.0, "setup_s": 0.4, "setup_ref_s": 0.004},
              {"jobs": [{"wall_s": 1.0, "ref_s": 0.002}, {"wall_s": 0.5, "ref_s": 0.002}],
               "peak_rss_mb": 40.0, "setup_s": 0.2, "setup_ref_s": 0.002},
              {"jobs": [{"wall_s": 3.0, "ref_s": 0.006}, {"wall_s": 1.5, "ref_s": 0.006}],
               "peak_rss_mb": 41.0, "setup_s": 0.9, "setup_ref_s": 0.006}]
    runner = run.Runner.__new__(run.Runner)
    runner.jobs = workloads.jobs("simulate-radial", 1)[:2]
    runner.failures, runner.attempted = [], 6
    metrics, report = run.end_to_end(runner, rounds, rounds)
    quiet = run.QUIET_REF_S
    assert metrics["wall_s"] == pytest.approx(quiet * (500.0 + 250.0))
    assert metrics["setup_s"] == pytest.approx(quiet * 100.0)
    assert metrics["peak_rss_mb"] == 40.0
    assert report["wall_raw_s"] == pytest.approx(2.0 + 0.5)
    assert report["setup_raw_s"] == pytest.approx(0.4)
    assert report["walk_steps_per_s"] == pytest.approx(2 * 30 * 2000 / metrics["wall_s"])
