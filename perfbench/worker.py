"""One round of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py SPEC.json RESULT.json

The round first does what every CLI run does before its first step or
draw (import hyperwalk, parse the first job's config, build the law and the
WalkConfig) and stamps the monotonic clock, so the parent can measure
set-up time from process start.  Unless the spec asks for set-up only, it
then runs each job through `hyperwalk.cli.main` in this process, with
stdout captured, and records exit code, wall time and warnings.  With a
trace mode in the spec it wraps the module calls first (spans.py) and
saves the spans.  Right after set-up and after every job it times a fixed
reference kernel, which tells the parent how fast the shared core was
running at the time.
"""

import json
import sys
import time
from pathlib import Path


class Reference:
    """A fixed kernel: an interpreter loop, then a numpy pass over 1.6 MB.

    The cores, caches and memory bus of the benchmark host are shared with
    other tenants, whose load slows this kernel and hyperwalk's jobs alike.
    The worker times it right after set-up and after every job.  run.py
    divides the set-up time by the first figure, and each job's wall time
    by the mean of the figures right before and after it.  The kernel
    never changes with the program, so a change to hyperwalk moves those
    ratios by the share it moves the measured times.

    The 1.6 MB are past the L2 cache, and the mix follows the jobs': the
    step loop is interpreter-bound, the Monte Carlo kernels stream arrays.
    The pass works in place, so the kernel holds a fixed 3.2 MB and
    allocates nothing while it runs.
    """

    def __init__(self, size: int = 200_000):
        import numpy as np

        self.x = np.random.default_rng(0).standard_normal(size)
        self.buf = np.empty_like(self.x)

    def run(self) -> float:
        import numpy as np

        s = 0.0
        for i in range(60_000):
            s += (i % 7) * 0.5
        np.abs(self.x, out=self.buf)
        np.negative(self.buf, out=self.buf)
        np.exp(self.buf, out=self.buf)
        np.log1p(self.buf, out=self.buf)
        return s + float(self.buf.sum())

    def seconds(self, runs: int = 3) -> float:
        """Mean wall time of one run of the kernel, over `runs` runs in a row."""
        t0 = time.perf_counter()
        for _ in range(runs):
            self.run()
        return (time.perf_counter() - t0) / runs


def setup(job):
    """Import the CLI and build the first job's config, law and WalkConfig."""
    import hyperwalk.cli as cli

    cfg = cli.parse_config(Path(job["config"]).read_text(), job["command"],
                           base_dir=str(Path(job["config"]).parent),
                           seed_override=job["seed"], out_override=job["out"])
    if cfg.command == "simulate":
        cli.WalkConfig(model=cfg.model, law=cfg.law, steps=cfg.steps, walks=cfg.walks,
                       seed=cfg.seed, mode=cfg.mode, record_stride=cfg.stride,
                       ball_radius=cfg.ball_radius, burn_in=cfg.burn_in,
                       start_radius=cfg.start_radius, escape_radius=cfg.escape_radius)
    return cli


def run_jobs(cli, jobs, ref, ref_before, tracer=None):
    import contextlib
    import io
    import warnings

    from hyperwalk.lamperti import MonteCarloVarianceWarning

    results = []
    for i, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.set_job(i)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always", MonteCarloVarianceWarning)
            t0 = time.perf_counter()
            code = cli.main(job["argv"])
            wall = time.perf_counter() - t0
        ref_after = ref.seconds()
        results.append({
            "exit": code, "wall_s": wall, "ref_s": (ref_before + ref_after) / 2.0,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "variance_warnings": sum(issubclass(w.category, MonteCarloVarianceWarning)
                                     for w in caught),
        })
        ref_before = ref_after
    return results


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    cli = setup(spec["jobs"][0])
    result = {"setup_mark": time.monotonic(), "hyperwalk_file": cli.__file__}
    ref = Reference()
    result["setup_ref_s"] = ref.seconds()
    if not spec["setup_only"]:
        import resource

        if spec["trace"] == "off":
            result["jobs"] = run_jobs(cli, spec["jobs"], ref, result["setup_ref_s"])
        else:
            import spans

            if spec["trace"] == "full":
                result["calibration"] = spans.calibrate()
            with spans.Tracer() as tracer:
                tracer.install(spans.targets(ensemble_only=spec["trace"] == "ensemble"))
                result["jobs"] = run_jobs(cli, spec["jobs"], ref, result["setup_ref_s"], tracer)
            if spec["spans_path"] is not None:
                tracer.save(spec["spans_path"])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (own + workers) / 1024.0   # ru_maxrss is in KiB on Linux
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
