"""Milliseconds of a process's set-up, layer by layer (ROADMAP aim 1).

    python3 scripts/startup_cost.py [--src DIR] [--json FILE]

Each figure is the median over RUNS fresh interpreters, started one at a
time:
  * `interpreter`: `python -c pass`, from spawn to exit, which is the
    interpreter and `site`;
  * `import numpy`, timed inside the process;
  * `import hyperwalk.cli`, after numpy;
  * the benchmark worker's set-up after that (perfbench/worker.py): the
    `parse_config` of configs/recurrent.cfg for simulate and a `WalkConfig`
    from it, or of configs/transient.cfg for classify.
Every row is timed twice: without hyperwalk's bytecode, from a copy of the
package with no __pycache__ under PYTHONDONTWRITEBYTECODE=1, as the
benchmark's fresh trees run; and with all bytecode cached in a temporary
PYTHONPYCACHEPREFIX, written by one untimed run.  `strings` counts the
source strings compiled (audit events naming a `<...>` file) while the
package imports and the worker sets up.  `--src` names the `src` directory
whose hyperwalk is timed (default: the one next to this script).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 15
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SETUPS = {"simulate": CONFIGS / "recurrent.cfg", "classify": CONFIGS / "transient.cfg"}

# one fresh process: argv[1] is the command whose set-up to time, or "";
# prints the layers' seconds and the source strings compiled after numpy
CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
named = []
if sys.argv[2] == "count":
    sys.addaudithook(lambda event, args: named.append(str(args[1]))
                     if event == "compile" and str(args[1]).startswith("<") else None)
t1b = time.perf_counter()
import hyperwalk.cli as cli
t2 = time.perf_counter()
command, path = sys.argv[1], sys.argv[3]
if command:
    with open(path) as fh:
        cfg = cli.parse_config(fh.read(), command, seed_override=7, out_override="out")
    if cfg.command == "simulate":
        cli.WalkConfig(model=cfg.model, law=cfg.law, steps=cfg.steps, walks=cfg.walks,
                       seed=cfg.seed, mode=cfg.mode, record_stride=cfg.stride,
                       ball_radius=cfg.ball_radius, burn_in=cfg.burn_in,
                       start_radius=cfg.start_radius, escape_radius=cfg.escape_radius)
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "hyperwalk.cli": t2 - t1b, "setup": t3 - t2,
                  "strings": len(named), "file": cli.__file__}))
"""


def child(src: Path, env: dict, command: str = "", mode: str = "time") -> dict:
    path = str(SETUPS.get(command, ""))
    out = subprocess.run([sys.executable, "-c", CHILD, command, mode, path],
                         env=dict(env, PYTHONPATH=str(src)), cwd=str(src),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    if Path(result["file"]).resolve().parent != (src / "hyperwalk").resolve():
        raise RuntimeError(f"imported hyperwalk from {result['file']}, not from {src}")
    return result


def interpreter_s(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def table(src: Path, env: dict) -> dict:
    """{row: ms} for one bytecode state; the rows run in turn, RUNS times."""
    samples = {}
    for _ in range(RUNS):
        samples.setdefault("interpreter", []).append(interpreter_s(env))
        bare = child(src, env)
        for key in ("numpy", "hyperwalk.cli"):
            samples.setdefault(key, []).append(bare[key])
        for command in SETUPS:
            samples.setdefault(f"{command} set-up", []).append(child(src, env, command)["setup"])
    rows = {key: round(statistics.median(v) * 1e3, 3) for key, v in samples.items()}
    rows["strings"] = max(child(src, env, command, "count")["strings"] for command in SETUPS)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--json", help="also write the table to this file as JSON")
    args = parser.parse_args(argv)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(Path(args.src) / "hyperwalk", src / "hyperwalk",
                        ignore=shutil.ignore_patterns("__pycache__"))
        states = {"no bytecode": dict(env, PYTHONDONTWRITEBYTECODE="1"),
                  "cached": dict(env, PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))}
        child(src, states["cached"], "simulate")        # writes the cache
        result = {state: table(src, state_env) for state, state_env in states.items()}
    rows = list(result["cached"])
    print(f"{'layer':<18}" + "".join(f"{state:>14}" for state in result))
    for row in rows:
        print(f"{row:<18}" + "".join(f"{result[state][row]:>14}" for state in result))
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
