"""Run-to-run spread of the end-to-end metrics, the check behind the bounds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1] [--seconds S]

Runs run.py once per seed (first-seed, first-seed + 1, ...) and prints, for
each end-to-end metric in BENCHMARK.json, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the distance between the first
and third quartile as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=str(ROOT))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)

    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        print(f"{args.workload} {m['name']}: median {q2:.5g} {m['unit']}  "
              f"quartiles [{q1:.5g}, {q3:.5g}]  spread {spread:.3%}  bound {m['bound']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
