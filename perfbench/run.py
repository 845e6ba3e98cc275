"""hyperwalk's benchmark: CLI workloads end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the `src/hyperwalk` next to
this directory.  Each round runs every job of the workload through
`hyperwalk.cli.main` in a fresh interpreter (worker.py), and rounds repeat
until --seconds have passed (at least two, so every job runs twice and its
CSV bytes can be compared).  Every job goes through the correctness gate
(gate.py).

--trace 0 reports the end-to-end metrics with nothing wrapped, its times
taken against a reference kernel timed next to them (end_to_end).
--trace 1 runs untraced rounds (timing only run_ensemble, for parallel
efficiency) and traced rounds at one worker side by side, and reports the
per-layer metrics from the first traced round's spans, with the tracing
overhead.  The last line of stdout is one JSON object; the lines before it
are the readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 2
SETUP_SAMPLES = 15
EXTRA_S = 140.0        # time allowed beyond --seconds: set-up probes, extra rounds, overrun
QUIET_REF_S = 0.006    # worker.Reference's time on the baseline host when no tenant slows it


class BenchmarkError(Exception):
    """The benchmark could not measure (missing program, crashed worker)."""


def fingerprint() -> dict:
    """Where the numbers came from: interpreter, numpy, BLAS, libc and CPU."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"),
        "libc": " ".join(platform.libc_ver()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def units() -> dict:
    """Unit of every metric: BENCHMARK.json's, plus the report-only ones."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out.update({"wall_raw_s": "s", "setup_raw_s": "s", "ref_s": "s", "walk_steps_per_s": "1/s",
                "mc_samples_per_s": "1/s", "failed_frac": "ratio"})
    return out


class Runner:
    """Runs rounds of one workload's jobs and gates every job it runs."""

    def __init__(self, workload: str, seed: int, workdir: Path, budget_s: float):
        self.workload = workload
        self.seed = seed
        self.jobs = workloads.jobs(workload, seed)
        self.workdir = workdir
        self.deadline = time.monotonic() + budget_s
        self.rounds = 0              # worker processes started
        self.gated = 0               # rounds gated
        self.attempted = 0
        self.failures = []           # (round, job, problem)
        self.digests = {}            # job name -> {csv name: sha256} of its first run
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.pop("HYPERWALK_SEED", None)     # the config seed must stay in force
        configs = workdir / "configs"
        configs.mkdir(parents=True)
        for job in self.jobs:
            (configs / f"{job.name}.cfg").write_text(job.config_text)

    def _spec_jobs(self, out_dir: Path, workers=None) -> list:
        specs = []
        for job in self.jobs:
            config = str(self.workdir / "configs" / f"{job.name}.cfg")
            out = str(out_dir / job.name)
            specs.append({"command": job.command, "config": config, "seed": job.seed,
                          "out": out, "argv": job.argv(config, out, workers)})
        return specs

    def _spawn(self, spec: dict) -> dict:
        tag = f"p{self.rounds}"
        self.rounds += 1
        spec_path = self.workdir / f"{tag}.spec.json"
        result_path = self.workdir / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec))
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise BenchmarkError("time budget exhausted before the run finished")
        t0 = time.monotonic()
        # its own session, so a timeout can stop the pool workers it forked too
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path),
                                 str(result_path)], env=self.env, cwd=str(self.workdir),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=budget)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchmarkError("a round did not finish within the time budget") from None
            raise
        if proc.returncode != 0 or not result_path.exists():
            raise BenchmarkError(f"worker failed (exit {proc.returncode}):\n{stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        if Path(result["hyperwalk_file"]).resolve().parent != (SRC / "hyperwalk").resolve():
            raise BenchmarkError(f"imported hyperwalk from {result['hyperwalk_file']}, "
                                 f"not from {SRC}")
        result["setup_s"] = result["setup_mark"] - t0
        return result

    def setup_probe(self) -> dict:
        spec = {"jobs": self._spec_jobs(self.workdir / "probe"), "setup_only": True,
                "trace": "off"}
        return self._spawn(spec)

    def round(self, trace: str = "off", workers=None, spans_path=None) -> dict:
        out_dir = self.workdir / f"round{self.rounds}"
        spec = {"jobs": self._spec_jobs(out_dir, workers), "setup_only": False,
                "trace": trace, "spans_path": spans_path and str(spans_path)}
        result = self._spawn(spec)
        result["spans_path"] = spans_path
        self.gate_round(result["jobs"], out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def gate_round(self, results: list, out_dir: Path):
        """Gate every job of one round and count attempts and failures."""
        index = self.gated
        self.gated += 1
        for job, res in zip(self.jobs, results):
            self.attempted += 1
            problems = gate.check_job(job, res["exit"], res["stdout"], out_dir / job.name)
            digests = gate.csv_digests(out_dir / job.name)
            if digests != self.digests.setdefault(job.name, digests):
                problems.append("CSV bytes differ from this job's first run")
            if problems and res["stderr"]:
                problems.append(f"stderr: {res['stderr'].strip()[-300:]}")
            self.failures += [(index, job.name, p) for p in problems]

    @property
    def failed(self) -> int:
        return len({(r, name) for r, name, _ in self.failures})


def per_job_median(rounds, jobs, value) -> float:
    """Sum over jobs of the median, across rounds, of `value(job result)`."""
    return sum(statistics.median(value(r["jobs"][i]) for r in rounds)
               for i in range(len(jobs)))


def quiet_wall(rounds, jobs) -> float:
    """Wall time of one pass over the jobs at a quiet host's speed.

    Each job's wall time over the reference kernel's time next to it, its
    median across rounds, summed over jobs and scaled into seconds.
    """
    return QUIET_REF_S * per_job_median(rounds, jobs, lambda j: j["wall_s"] / j["ref_s"])


def run_rounds(runner: Runner, seconds: float) -> list:
    """Untraced rounds until `seconds` have passed, and at least MIN_ROUNDS."""
    rounds = []
    t0 = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - t0 < seconds:
        rounds.append(runner.round())
    return rounds


def ensemble_seconds(rounds: list) -> float:
    """Median total run_ensemble time over rounds timed with trace="ensemble"."""
    import numpy as np

    def total(path):
        with np.load(path) as z:
            return float((z["end"] - z["start"]).sum()) / 1e9

    return statistics.median(total(r["spans_path"]) for r in rounds)


def end_to_end(runner: Runner, rounds: list, setups: list) -> tuple:
    """(gated metrics, report metrics) of the untraced rounds and set-up probes.

    The gated times are taken at a quiet host's speed.  Each job's wall time
    is divided by the reference kernel's time taken right around it
    (worker.Reference), and each set-up time by the kernel's time right
    after it.  The other tenants' load moves both by about the same factor,
    which cancels; a change to hyperwalk moves only the job or the set-up.
    Multiplied by QUIET_REF_S, the medians of those ratios read in seconds.
    """
    metrics = {
        "wall_s": quiet_wall(rounds, runner.jobs),
        "setup_s": QUIET_REF_S * statistics.median(p["setup_s"] / p["setup_ref_s"]
                                                   for p in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    wall = metrics["wall_s"]
    steps = sum(job.walk_steps for job in runner.jobs)
    samples = sum(job.mc_samples for job in runner.jobs)
    report = dict(metrics, wall_raw_s=per_job_median(rounds, runner.jobs,
                                                     lambda j: j["wall_s"]),
                  setup_raw_s=statistics.median(p["setup_s"] for p in setups),
                  ref_s=statistics.median(j["ref_s"] for r in rounds for j in r["jobs"]))
    if steps:
        report["walk_steps_per_s"] = steps / wall
    if samples:
        report["mc_samples_per_s"] = samples / wall
    report["failed_frac"] = runner.failed / runner.attempted
    return metrics, report


def traced(runner: Runner, seconds: float) -> tuple:
    """Per-layer metrics from interleaved untraced and traced rounds.

    Traced rounds run at one worker, because forked pool workers would drop
    their spans.  Each pass runs an untraced round at one worker, a traced
    round, and, where a job uses two workers, an untraced round at the
    workload's own worker counts.  Passes repeat until `seconds` have passed
    (at least MIN_ROUNDS), so both sides of the tracing overhead and of the
    parallel efficiency are medians of the same number of rounds, taken
    side by side.  The first traced round's spans give the per-layer metrics.
    """
    import numpy as np

    import spans

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{runner.workload}-seed{runner.seed}.npz"
    parallel = any(job.workers > 1 for job in runner.jobs)
    native, serial, traced_rounds = [], [], []
    t0 = time.monotonic()
    while len(serial) < MIN_ROUNDS or time.monotonic() - t0 < seconds:
        i = len(serial)
        if parallel:
            native.append(runner.round(trace="ensemble",
                                       spans_path=runner.workdir / f"native-{i}.npz"))
        serial.append(runner.round(trace="ensemble", workers=1,
                                   spans_path=runner.workdir / f"serial-{i}.npz"))
        traced_rounds.append(runner.round(trace="full", workers=1,
                                          spans_path=spans_path if i == 0 else None))

    metrics = {"simulator.ensemble.parallel_efficiency": (
        ensemble_seconds(serial) / (2.0 * ensemble_seconds(native)) if parallel else 0.0)}
    first = traced_rounds[0]
    with np.load(spans_path) as z:
        arrays = {key: z[key] for key in z.files}
    job_steps = {i: int(job.value("sim.steps", 0)) for i, job in enumerate(runner.jobs)}
    job_modes = {i: job.value("sim.mode") for i, job in enumerate(runner.jobs)
                 if job.command == "simulate"}
    metrics.update(spans.per_layer(arrays, first["calibration"], job_steps, job_modes))
    metrics["lamperti.variance_warnings"] = sum(j["variance_warnings"] for j in first["jobs"])
    untraced_wall = quiet_wall(serial, runner.jobs)
    traced_wall = quiet_wall(traced_rounds, runner.jobs)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = int(arrays["start"].size)
    layers = ("cli.", "geometry.", "increments.", "simulator.", "lamperti.", "trace.")
    metrics = dict(sorted(metrics.items(),
                          key=lambda kv: next(i for i, p in enumerate(layers)
                                              if kv[0].startswith(p))))
    info = {"passes": len(serial), "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall, "calibration": first["calibration"],
            "spans_file": str(spans_path)}
    return metrics, info, native or serial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperwalk" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'hyperwalk'}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        runner = Runner(args.workload, args.seed, workdir, args.seconds + EXTRA_S)
        runner.setup_probe()          # discarded: fills the page and bytecode caches
        if args.trace:
            metrics, info, rounds = traced(runner, args.seconds)
            report = dict(metrics)
        else:
            rounds = run_rounds(runner, args.seconds)
            setups = list(rounds)
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.setup_probe())
            metrics, report = end_to_end(runner, rounds, setups)
            info = {"rounds": len(rounds), "setups": len(setups)}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for key, value in fingerprint().items():
        print(f"platform {key}: {value}")
    for key, value in info.items():
        print(f"run {key}: {value}")
    for job in runner.jobs:
        for csv_name, digest in runner.digests.get(job.name, {}).items():
            print(f"sha256 {job.name}/{csv_name} {digest}")
    for i, job in enumerate(runner.jobs):
        walls = " ".join(f"{r['jobs'][i]['wall_s']:.4f}" for r in rounds)
        print(f"job {job.name} ({job.command}, {job.workers} worker(s)) "
              f"measured wall time per round (s): {walls}")
    for r, name, problem in runner.failures:
        print(f"FAILED round {r} job {name}: {problem}")
    print(f"jobs attempted {runner.attempted}  failed {runner.failed}")
    unit = units()
    for name, value in report.items():
        print(f"metric {name} = {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
