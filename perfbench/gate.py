"""Correctness gate for one finished CLI job.

The gate checks what must hold on any correct commit: exit codes, decisive
and consistent verdicts, finite non-negative radii, row counts, fractions
in [0, 1], returns on the recurrent and flat legs, and identical CSV bytes
when the same job repeats within one run.  It never compares against the
goldens or an earlier commit, so a change that legitimately moves output
bits still passes.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

_EXIT_OF_VERDICT = {"recurrent": 0, "transient": 1, "inconclusive": 2}


def csv_digests(out_dir: Path) -> dict:
    """sha256 of every CSV the job wrote, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


def _number(text: str) -> float:
    # Flat-space radii are written as `np.float64(x)` under numpy 2; accept
    # that form so the gate judges the value rather than its spelling.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_csv(path: Path):
    """(header, rows) of a hyperwalk CSV, skipping its `#` config header."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _report_field(stdout: str, field: str):
    for line in stdout.splitlines():
        if line.startswith(f"{field}:"):
            return line.split(":", 1)[1].strip()
    return None


def _rows_per_walk(steps: int, stride: int) -> int:
    return 1 + steps // stride + (1 if steps % stride else 0)


def _check_simulate(job, out_dir: Path) -> list:
    problems = []
    steps = int(job.value("sim.steps"))
    walks = int(job.value("sim.walks"))
    stride = int(job.value("sim.stride", max(1, steps // 1000)))
    _, rows = read_csv(out_dir / "trajectories.csv")
    want = walks * _rows_per_walk(steps, stride)
    if len(rows) != want:
        problems.append(f"trajectories.csv has {len(rows)} rows, expected {want}")
    for row in rows:
        R = _number(row[2])
        if not (math.isfinite(R) and R >= 0.0):
            problems.append(f"walk {row[0]} step {row[1]}: radius {row[2]}")
            break
    header, rows = read_csv(out_dir / "summary.csv")
    if len(rows) != 1:
        return problems + [f"summary.csv has {len(rows)} rows, expected 1"]
    summary = {key: _number(value) for key, value in zip(header, rows[0])}
    for key in ("fraction_escaped", "fraction_returned"):
        if not 0.0 <= summary[key] <= 1.0:
            problems.append(f"{key} = {summary[key]} outside [0, 1]")
    if job.expect_returns and not summary["fraction_returned"] > 0.0:
        problems.append("recurrent/flat leg shows no returns")
    return problems


def _check_classify(job, stdout: str, exit_code: int, out_dir: Path) -> list:
    problems = []
    verdict = _report_field(stdout, "verdict")
    criterion = _report_field(stdout, "criterion")
    if verdict != job.verdict:
        problems.append(f"verdict {verdict!r}, expected {job.verdict!r}")
    if _EXIT_OF_VERDICT.get(verdict) != exit_code:
        problems.append(f"exit code {exit_code} contradicts verdict {verdict!r}")
    if criterion != job.criterion:
        problems.append(f"criterion {criterion!r}, expected {job.criterion!r}")
    count = int(job.value("grid.count"))
    tail = count - count // 2          # radii at or beyond the default r0 (all > 1)
    if job.criterion.startswith("pinched"):
        want = 2 * count + 2 * tail
    else:
        want = 3 * tail
    _, rows = read_csv(out_dir / "margins.csv")
    if len(rows) != want:
        problems.append(f"margins.csv has {len(rows)} rows, expected {want}")
    return problems


def _check_moments(job, out_dir: Path) -> list:
    per_radius = 3
    if job.value("curvature.kind", "hyperbolic") == "hyperbolic":
        per_radius += 2
        if job.value("law.kind") == "heavytail":
            per_radius += 2 if float(job.value("curvature.k")) == 1.0 else 1
    want = int(job.value("grid.count")) * per_radius
    _, rows = read_csv(out_dir / "moments.csv")
    if len(rows) != want:
        return [f"moments.csv has {len(rows)} rows, expected {want}"]
    return []


def check_job(job, exit_code: int, stdout: str, out_dir) -> list:
    """Problems with one finished job; an empty list means it passed."""
    out_dir = Path(out_dir)
    if exit_code != job.exit_code:
        return [f"exit code {exit_code}, expected {job.exit_code}"]
    try:
        if job.command == "simulate":
            return _check_simulate(job, out_dir)
        if job.command == "classify":
            return _check_classify(job, stdout, exit_code, out_dir)
        return _check_moments(job, out_dir)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
