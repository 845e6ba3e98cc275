"""Milliseconds per grid radius of the quadrature estimators (ROADMAP aim 1, L5).

    python3 scripts/quadrature_cost.py [--src DIR] [--json FILE]

Times the laws that classify-mc integrates, on its log grid from 10 to 200
at 6 and at 24 radii:
  * `classify_pinched`: the box law with a = 1, b = 1/r (`powerdecay:1,1`)
    in d = 2 on the band k_min = 1, k_max = 1.5, whose lines are cut where
    the bounds' integrands jump or kink;
  * `estimate_moment_functions` at k = 1: the inward-biased law (n = 1,
    d = 2), the heavy-tail law (m = 4, d = 2) and the elliptic law with
    a = b = 1 in d = 3.
Each figure is the median of 5 runs after one warm-up run, divided by the
radii.  `--src` names the `src` directory whose hyperwalk is timed
(default: the one next to this script), so two trees can be timed by the
same script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

RADII = (6, 24)
RUNS = 5
SAMPLES = 200_000       # classify.samples, which no integrated law reads


def cases(hw):
    one = hw.RadialProfile.constant(1.0)
    decay = hw.RadialProfile.power_decay(1.0, 1.0)
    k_max = hw.RadialProfile.constant(1.5)
    box = hw.BoxLaw(one, decay, 2)
    yield "classify_pinched", "box d=2, b=1/r, k in [1, 1.5]", (
        lambda grid: hw.classify_pinched(box, one, k_max, grid, SAMPLES, None))
    for name, law in (("inwardbiased n=1 d=2", hw.InwardBiasedLaw(1.0, 2)),
                      ("heavytail m=4 d=2", hw.HeavyTailLaw(4.0, 2)),
                      ("elliptic a=b=1 d=3", hw.EllipticLaw(one, one, 3))):
        yield "estimate_moment_functions", name, (
            lambda grid, law=law: hw.estimate_moment_functions(law, 1.0, grid, SAMPLES, None))


def ms_per_radius(run, count: int) -> float:
    """The median of RUNS runs on a log grid of `count` radii, in ms per radius."""
    grid = [float(r) for r in np.geomspace(10.0, 200.0, count)]    # the CLI's log grid
    run(grid)
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        run(grid)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / count * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--json", help="also write the rows to this file as JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import hyperwalk as hw

    rows = []
    print(f"{'estimator':<26} {'law':<31}" + "".join(f"{f'{n} radii':>10}" for n in RADII))
    for estimator, name, run in cases(hw):
        figures = [round(ms_per_radius(run, n), 3) for n in RADII]
        rows.append({"estimator": estimator, "law": name,
                     "ms_per_radius": dict(zip((f"radii={n}" for n in RADII), figures))})
        print(f"{estimator:<26} {name:<31}" + "".join(f"{f:>10.3f}" for f in figures))
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
