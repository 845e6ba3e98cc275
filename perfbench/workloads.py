"""The benchmark's workloads: the CLI jobs each one runs, made from a seed.

`jobs(workload, seed)` is a pure function of its arguments.  The seed only
picks each job's `sim.seed`; sizes and laws are fixed, so run time does not
depend on which seed the benchmark is given.  README.md says why each
workload and leg exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("simulate-radial", "simulate-ambient", "classify-mc")

# Leg tables: (name, command, workers, config keys, expectations).
# Expectations: exit code, verdict and criterion (classify), and whether the
# leg must show at least one return to the ball (recurrent and flat legs).
_RECURRENT = {"curvature.kind": "hyperbolic", "curvature.k": "1.0", "curvature.d": "2",
              "law.kind": "elliptic", "law.a": "const:1", "law.b": "powerdecay:1,1"}
_FLAT = {"curvature.kind": "euclidean", "curvature.d": "2",
         "law.kind": "elliptic", "law.a": "const:1.2", "law.b": "const:1"}
_HEAVYTAIL = {"curvature.kind": "hyperbolic", "curvature.k": "1.0", "curvature.d": "2",
              "law.kind": "heavytail", "law.m": "4"}
_GRID = {"grid.start": "10", "grid.stop": "200", "grid.count": "6", "grid.spacing": "log"}

_LEGS = {
    "simulate-radial": (
        ("recurrent", "simulate", 1,
         {**_RECURRENT, "sim.steps": "2000", "sim.walks": "30", "sim.mode": "radialonly",
          "sim.escape_radius": "1000000.0"},
         {"returns": True}),
        ("euclidean", "simulate", 1,
         {**_FLAT, "sim.steps": "2000", "sim.walks": "30", "sim.mode": "radialonly",
          "sim.escape_radius": "1000000.0"},
         {"returns": True}),
        ("heavytail", "simulate", 1,
         {**_HEAVYTAIL, "sim.steps": "1000", "sim.walks": "16", "sim.mode": "radialonly"},
         {}),
    ),
    "simulate-ambient": (
        ("box-d3", "simulate", 2,
         {"curvature.kind": "hyperbolic", "curvature.k": "1.0", "curvature.d": "3",
          "law.kind": "box", "law.a": "const:1", "law.b": "const:1",
          "sim.steps": "200", "sim.walks": "60", "sim.mode": "ambient"},
         {}),
        ("elliptic-d2", "simulate", 2,
         {**_RECURRENT, "sim.steps": "600", "sim.walks": "40", "sim.mode": "ambient"},
         {"returns": True}),
        ("euclidean", "simulate", 2,
         {**_FLAT, "sim.steps": "300", "sim.walks": "20", "sim.mode": "ambient",
          "sim.escape_radius": "1000000.0"},
         {"returns": True}),
    ),
    "classify-mc": (
        ("inwardbiased", "classify", 1,
         {"curvature.kind": "hyperbolic", "curvature.k": "1.0", "curvature.d": "2",
          "law.kind": "inwardbiased", "law.n": "1", **_GRID, "classify.samples": "200000"},
         {"exit": 1, "verdict": "transient", "criterion": "const-curvature-transient"}),
        ("heavytail", "classify", 1,
         {**_HEAVYTAIL, **_GRID, "grid.count": "2", "classify.samples": "1000000"},
         {"exit": 1, "verdict": "transient", "criterion": "const-curvature-transient"}),
        ("pinched", "classify", 1,
         {"curvature.kind": "hyperbolic", "curvature.k_min": "const:1",
          "curvature.k_max": "const:1.5", "curvature.d": "2",
          "law.kind": "box", "law.a": "const:1", "law.b": "powerdecay:1,1",
          **_GRID, "classify.samples": "200000"},
         {"exit": 0, "verdict": "recurrent", "criterion": "pinched-recurrent"}),
        ("moments", "moments", 1,
         {"curvature.kind": "hyperbolic", "curvature.k": "1.0", "curvature.d": "3",
          "law.kind": "elliptic", "law.a": "const:1", "law.b": "const:1",
          "grid.start": "10", "grid.stop": "100", "grid.count": "4",
          "classify.samples": "200000"},
         {}),
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its outputs must satisfy."""

    name: str
    command: str
    workers: int
    seed: int
    keys: tuple                  # ordered (config key, value) pairs
    exit_code: int = 0
    verdict: Optional[str] = None
    criterion: Optional[str] = None
    expect_returns: bool = False

    def value(self, key: str, default=None):
        return dict(self.keys).get(key, default)

    @property
    def config_text(self) -> str:
        lines = [f"# perfbench job {self.name}"]
        lines += [f"{key} = {value}" for key, value in self.keys]
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str, workers: Optional[int] = None) -> list:
        return [self.command, "--config", config_path, "--seed", str(self.seed),
                "--out", out_dir, "--workers", str(self.workers if workers is None else workers)]

    @property
    def walk_steps(self) -> int:
        """Walks x steps requested (simulate jobs)."""
        if self.command != "simulate":
            return 0
        return int(self.value("sim.walks")) * int(self.value("sim.steps"))

    @property
    def mc_samples(self) -> int:
        """Grid points x classify.samples requested (classify and moments jobs)."""
        if self.command == "simulate":
            return 0
        return int(self.value("grid.count")) * int(self.value("classify.samples"))


def job_seed(workload: str, seed: int, leg: str) -> int:
    """A non-negative 63-bit seed for one leg, derived from the run's seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{leg}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def jobs(workload: str, seed: int) -> list:
    """The workload's jobs for this seed, in run order."""
    if workload not in _LEGS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = []
    for name, command, workers, keys, expect in _LEGS[workload]:
        s = job_seed(workload, seed, name)
        out.append(Job(
            name=name, command=command, workers=workers, seed=s,
            keys=tuple(keys.items()) + (("sim.seed", str(s)),),
            exit_code=expect.get("exit", 0), verdict=expect.get("verdict"),
            criterion=expect.get("criterion"), expect_returns=expect.get("returns", False),
        ))
    return out
