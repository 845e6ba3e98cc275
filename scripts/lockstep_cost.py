"""Microseconds per lockstep step, the walk step loop's cost (ROADMAP item 7).

    python3 scripts/lockstep_cost.py [--src DIR] [--json FILE]

Times W = 1, 30, 60 and 200 walks of an elliptic law with a = 1 and b = 1
or b = 1/r (`powerdecay:1,1`), on H^2 (k = 1) and in flat space, in two
rows each:
  * `simulate`: `simulator._chunk_tally`, 2,000 steps, the lockstep and
    tally every ensemble runs, in ambient and radial-only mode alike;
  * `probe`: `simulator._lockstep_states(..., directions=True)` run to its
    end, 300 steps, the lockstep that also turns each walk's direction,
    which `neighborhood_return_probe` alone runs.
A last `simulate` row on H^2 times the heavy-tail law with m = 4 (law
`m = 4`), whose straight steps that lockstep takes in closed form and
whose off-axis steps alone run the exact-increment kernel.
Each figure is the median of 3 sets, each set the best of 5 runs, divided
by the steps.  `--src` names the `src` directory whose hyperwalk is timed
(default: the one next to this script), so two trees can be timed by the
same script; a tree whose `_lockstep_states` takes no `directions` (one
whose ambient ensembles turned directions) has the old script with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

WALKS = (1, 30, 60, 200)
STEPS = {"simulate": 2000, "probe": 300}
SETS, RUNS = 3, 5


def cases(hw):
    one = hw.RadialProfile.constant(1.0)
    laws = {"b = 1": hw.EllipticLaw(one, one, 2),
            "b = 1/r": hw.EllipticLaw(one, hw.RadialProfile.power_decay(1.0, 1.0), 2)}
    models = {"H^2": hw.CurvatureModel.hyperbolic(1.0, 2), "flat": hw.CurvatureModel.euclidean(2)}
    for row, steps in STEPS.items():
        for geometry, model in models.items():
            for name, law in laws.items():
                yield row, geometry, name, model, law, steps
    yield "simulate", "H^2", "m = 4", models["H^2"], hw.HeavyTailLaw(4.0, 2), STEPS["simulate"]


def us_per_step(simulator, config, row) -> float:
    """The median of SETS sets, each the best of RUNS runs, in us per step."""
    best = []
    for _ in range(SETS):
        times = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            if row == "simulate":
                simulator._chunk_tally(config, range(config.walks))
            else:
                for _ in simulator._lockstep_states(config, range(config.walks),
                                                    directions=True):
                    pass
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return statistics.median(best) / config.steps * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--json", help="also write the rows to this file as JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import hyperwalk as hw
    from hyperwalk import simulator

    rows = []
    print(f"{'row':<11} {'geometry':<8} {'law':<8}" + "".join(f"{f'W = {w}':>10}" for w in WALKS))
    for row, geometry, name, model, law, steps in cases(hw):
        figures = []
        for walks in WALKS:
            # escape_radius far out, so the tally's records do not vary
            config = simulator.WalkConfig(model, law, steps, walks, 7, mode="ambient",
                                          escape_radius=1e9)
            figures.append(round(us_per_step(simulator, config, row), 2))
        rows.append({"row": row, "geometry": geometry, "law": name, "steps": steps,
                     "us_per_step": dict(zip((f"W={w}" for w in WALKS), figures))})
        print(f"{row:<11} {geometry:<8} {name:<8}" + "".join(f"{f:>10.2f}" for f in figures))
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
