"""Command-line front end.

Four commands, all driven by a flat key-value config file with dotted
sections::

    hyperwalk simulate --config run.cfg [--seed S] [--out DIR] [--workers W]
    hyperwalk classify --config run.cfg ...
    hyperwalk validate --config run.cfg ...
    hyperwalk moments  --config run.cfg ...

`--workers W` (W >= 1, else exit 3) runs the `simulate` ensemble on
min(W, sim.walks, usable cores) processes, this one among them; the other
commands accept it and ignore it.

Config keys, one a line: what the key sets, its domain, and its default in
parentheses.  A value outside its domain exits 3 naming the key and its
line, whatever the command.  Profiles use the mini-language `const:c`,
`powerdecay:c,p` meaning c*min(1, r^-p), or `table:path` with a two-column
r,value CSV relative to the config file.

    command             optional; must match the subcommand when present
    curvature.kind      hyperbolic | euclidean (hyperbolic)
    curvature.k         constant curvature parameter, > 0 (required, except
                        by classify given curvature.k_min and k_max)
    curvature.k_min     pinched lower profile (classify; default const:k)
    curvature.k_max     pinched upper profile (classify; default const:k)
    curvature.d         dimension, integer >= 2 (required; 2 for validate)
    law.kind            elliptic | box | heavytail | inwardbiased
    law.a               radial semi-axis profile (elliptic, box)
    law.b               transverse semi-axis profile (elliptic, box)
    law.m               heavy-tail exponent, > 3
    law.lambda          heavy-tail activation profile or `auto` (auto)
    law.n               inward-biased strength, > 0
    sim.steps           steps per walk, integer >= 0 (0; required by simulate)
    sim.walks           number of walks, integer >= 1 (1; required by simulate)
    sim.seed            master seed, integer >= 0 (env HYPERWALK_SEED, then
                        --seed override)
    sim.mode            ambient | radialonly (radialonly)
    sim.stride          record stride, integer >= 1 (max(1, steps // 1000))
    sim.ball_radius     return-ball radius, > 0 (5.0)
    sim.burn_in         steps ignored before counting returns, integer >= 0
                        (steps // 10)
    sim.start_radius    initial radius, >= 0 (0.0)
    sim.escape_radius   escape threshold, > 0 (100.0)
    grid.start          first radius of the grid (classify/moments), >= 0,
                        and > 0 for log spacing
    grid.stop           last radius of the grid, >= 0 and >= grid.start
    grid.count          number of grid points, integer >= 1
    grid.spacing        linear | log (linear)
    classify.theta      slack in the recurrence inequality, > 0 (0.5)
    classify.epsilon    floor for second-moment screens, > 0 (0.5)
    classify.r0         tail threshold radius, at most the last grid point
                        (grid midpoint)
    classify.samples    Monte Carlo samples per grid radius, integer >= 100
                        (200000); only laws that are sampled use it: every
                        built-in law is integrated, except a box law in
                        d >= 3 or whose largest k times sqrt(3) sup a is
                        above 3
    classify.d_min      minimal radius for the ellipticity screen, at most the
                        last grid point (grid.start)
    out.dir             output directory (`.`; --out overrides)

Exit codes: classify encodes its verdict (0 recurrent, 1 transient,
2 inconclusive); other commands exit 0 on success.  Config/usage errors
exit 3, validation-suite failures exit 4, unexpected errors exit 5.

Every output file starts with a `# key = value` header holding the full
resolved config including the seed.  On the same platform (Python, numpy,
libm, BLAS, CPU dispatch) re-running with exactly that config reproduces the
file byte for byte, for any --workers.  Across platforms values may differ
in their last bits, because libm's transcendentals are not correctly
rounded; for a libm whose sinh, cosh, acosh, exp and log are within about
2 ulp, the golden runs agree within 1e-11 * max(1, |value|).
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, HyperwalkError
# asymptotic_increment_batch is bound here for perfbench/spans.py's tracer
from .geometry import CurvatureModel, asymptotic_increment_batch  # noqa: F401
from .increments import (
    BoxLaw,
    EllipticLaw,
    HeavyTailLaw,
    IncrementLaw,
    InwardBiasedLaw,
    MOMENT_NAMES,
    RadialProfile,
)
from .lamperti import (
    CRIT_EUCLIDEAN,
    MIN_SAMPLES,
    ClassificationReport,
    MarginRow,
    Verdict,
    classify_constant_curvature,
    classify_elliptic_chain,
    classify_euclidean,
    classify_pinched,
    estimate_moment_functions,
    step_moments,
    uniform_ellipticity_transience_check,
)
from .simulator import MODE_AMBIENT, MODE_RADIAL_ONLY, WalkConfig, run_ensemble

COMMANDS = ("simulate", "classify", "validate", "moments")


@dataclass
class RunConfig:
    """A fully validated run: every field resolved, defaults applied."""

    command: str
    model: CurvatureModel
    law: IncrementLaw
    k_min: Optional[RadialProfile]
    k_max: Optional[RadialProfile]
    pinched: bool
    steps: int
    walks: int
    seed: int
    mode: str
    stride: int
    ball_radius: float
    burn_in: int
    start_radius: float
    escape_radius: float
    grid: Optional[list]
    theta: float
    epsilon: float
    r0: Optional[float]
    samples: int
    d_min: Optional[float]
    out_dir: str
    resolved: list = field(default_factory=list)   # ordered (key, value-string)


# ---------------------------------------------------------------------------
# Config keys
# ---------------------------------------------------------------------------
# A value parser takes the value text and the config's directory, and raises
# ValueError with a readable message when the text does not parse.

def _integer(text, base_dir):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _real(text, base_dir):
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def _text(text, base_dir):
    return text


def _choice(*options):
    def parse(text, base_dir):
        if text.lower() not in options:
            raise ValueError(f"expected {' | '.join(options)}, got {text!r}")
        return text.lower()
    return parse


def _parse_profile(text, base_dir) -> RadialProfile:
    """`const:c`, `powerdecay:c,p` or `table:path` (path relative to base_dir)."""
    kind, sep, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if not sep:
            raise ValueError("expected const:c | powerdecay:c,p | table:path")
        if kind == "const":
            return RadialProfile.constant(float(arg))
        if kind == "powerdecay":
            parts = [p.strip() for p in arg.split(",")]
            if len(parts) != 2:
                raise ValueError("powerdecay needs two parameters c,p")
            return RadialProfile.power_decay(float(parts[0]), float(parts[1]))
        if kind == "table":
            radii, values = [], []
            for raw in (Path(base_dir) / arg.strip()).read_text().splitlines():
                row = raw.split("#", 1)[0].strip()
                if row:
                    r_s, v_s = row.split(",", 1)
                    radii.append(float(r_s))
                    values.append(float(v_s))
            return RadialProfile.table(radii, values)
        raise ValueError(f"unknown profile kind {kind!r}")
    except (ValueError, OSError, HyperwalkError) as exc:
        raise ValueError(f"bad profile {text!r}: {exc}") from None


def _profile_or_auto(text, base_dir):
    return None if text.lower() == "auto" else _parse_profile(text, base_dir)


_OPS = {">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class _Key:
    """How one config key is read: `parse` turns its text into a value,
    `default` stands in when the key is absent, and when `op` is set every
    value must satisfy `value op bound`."""

    parse: Callable
    default: object = None
    op: Optional[str] = None
    bound: object = None

    @property
    def domain(self) -> str:
        """The phrase errors and the module docstring use, e.g. `> 0`."""
        return f"{self.op} {self.bound}"

    def check(self, key, value, line=None):
        if self.op is not None and not _OPS[self.op](value, self.bound):
            raise ConfigError(f"must be {self.domain}, got {value}", key=key, line=line)
        return value

    def read(self, key, text, line, base_dir="."):
        try:
            value = self.parse(text, base_dir)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line) from None
        return self.check(key, value, line)


# Every key the config may set, in the order of the module docstring.
# A default of None means absent, or one computed from other keys.
_KEYS = {
    "command": _Key(_choice(*COMMANDS)),
    "curvature.kind": _Key(_choice("hyperbolic", "euclidean"), "hyperbolic"),
    "curvature.k": _Key(_real, None, ">", 0),
    "curvature.k_min": _Key(_parse_profile),
    "curvature.k_max": _Key(_parse_profile),
    "curvature.d": _Key(_integer, 2, ">=", 2),
    "law.kind": _Key(_choice("elliptic", "box", "heavytail", "inwardbiased")),
    "law.a": _Key(_parse_profile),
    "law.b": _Key(_parse_profile),
    "law.m": _Key(_real, None, ">", 3),
    "law.lambda": _Key(_profile_or_auto),
    "law.n": _Key(_real, None, ">", 0),
    "sim.steps": _Key(_integer, 0, ">=", 0),
    "sim.walks": _Key(_integer, 1, ">=", 1),
    "sim.seed": _Key(_integer, 0, ">=", 0),
    "sim.mode": _Key(_choice(MODE_AMBIENT, MODE_RADIAL_ONLY), MODE_RADIAL_ONLY),
    "sim.stride": _Key(_integer, None, ">=", 1),
    "sim.ball_radius": _Key(_real, 5.0, ">", 0),
    "sim.burn_in": _Key(_integer, None, ">=", 0),
    "sim.start_radius": _Key(_real, 0.0, ">=", 0),
    "sim.escape_radius": _Key(_real, 100.0, ">", 0),
    "grid.start": _Key(_real, None, ">=", 0),
    "grid.stop": _Key(_real, None, ">=", 0),
    "grid.count": _Key(_integer, None, ">=", 1),
    "grid.spacing": _Key(_choice("linear", "log"), "linear"),
    "classify.theta": _Key(_real, 0.5, ">", 0),
    "classify.epsilon": _Key(_real, 0.5, ">", 0),
    "classify.r0": _Key(_real),
    "classify.samples": _Key(_integer, 200000, ">=", MIN_SAMPLES),
    "classify.d_min": _Key(_real),
    "out.dir": _Key(_text, "."),
}


def _parse_lines(text: str):
    """Yield (line_no, key, value) for every assignment in the config text."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=line_no)
        key, value = line.split("=", 1)
        yield line_no, key.strip().lower(), value.strip()


def parse_config(text: str, command: str, base_dir: str = ".",
                 seed_override: Optional[int] = None,
                 out_override: Optional[str] = None) -> RunConfig:
    """Parse and validate a config for the given command.

    Unknown keys, duplicates, type mismatches and domain violations are all
    reported with the offending key and line.  Every present value is parsed
    and checked by its _KEYS entry, whether or not the command uses it; this
    function only assembles what depends on several keys.  Defaults are
    applied here and echoed into RunConfig.resolved so output headers
    document them.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    seen = {}   # key -> (value as its _KEYS entry reads it, line)
    for line_no, key, value in _parse_lines(text):
        if key not in _KEYS:
            raise ConfigError("unknown key", key=key, line=line_no)
        if key in seen:
            raise ConfigError("duplicate key", key=key, line=line_no)
        seen[key] = (_KEYS[key].read(key, value, line_no, base_dir), line_no)

    def line(key):
        return seen[key][1] if key in seen else None

    def get(key, required=False, default=None):
        """The key's value; when the key is absent, `default`, or else the
        table's default."""
        if key in seen:
            return seen[key][0]
        if required:
            raise ConfigError(f"missing required key for {command}", key=key)
        return _KEYS[key].default if default is None else default

    declared = get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked",
                          key="command", line=line("command"))

    # --- curvature ---------------------------------------------------------
    kind = get("curvature.kind")
    needs_model = command != "validate"
    d = get("curvature.d", required=needs_model)
    k = k_min = k_max = None
    pinched = False
    if kind == "hyperbolic" and needs_model:
        pinched = "curvature.k_min" in seen
        k = get("curvature.k", required=not pinched)
        if pinched != ("curvature.k_max" in seen):
            missing = "curvature.k_max" if pinched else "curvature.k_min"
            raise ConfigError("k_min and k_max must be given together", key=missing)
        if pinched:
            k_min, k_max = get("curvature.k_min"), get("curvature.k_max")
            if k is None and command != "classify":
                raise ConfigError(f"{command} runs at one constant curvature; k_min and "
                                  "k_max bound it for classify only", key="curvature.k")
            if k is None:
                k = max(k_min.inf(), 1e-12)  # scalar fallback for moment scaling
        else:
            k_min, k_max = RadialProfile.constant(k), RadialProfile.constant(k)
    model = CurvatureModel.hyperbolic(k, d) if k is not None else CurvatureModel.euclidean(d)

    # --- law ---------------------------------------------------------------
    law = None
    if needs_model:
        law_kind = get("law.kind", required=True)
        if law_kind in ("elliptic", "box"):
            a, b = get("law.a", required=True), get("law.b", required=True)
            law = (EllipticLaw if law_kind == "elliptic" else BoxLaw)(a, b, d)
        elif law_kind == "heavytail":
            law = HeavyTailLaw(get("law.m", required=True), d, get("law.lambda"))
        else:
            law = InwardBiasedLaw(get("law.n", required=True), d)

    # --- simulation size and seed -----------------------------------------
    steps = get("sim.steps", required=command == "simulate")
    walks = get("sim.walks", required=command == "simulate")
    seed = get("sim.seed", required=seed_override is None
               and "HYPERWALK_SEED" not in os.environ)
    env_seed = os.environ.get("HYPERWALK_SEED")
    if env_seed is not None:
        seed = _KEYS["sim.seed"].read("HYPERWALK_SEED (environment)", env_seed, None)
    if seed_override is not None:
        seed = _KEYS["sim.seed"].check("--seed", seed_override)

    # --- grid / classification --------------------------------------------
    grid = None
    spacing = "linear"
    if command in ("classify", "moments"):
        g_start = get("grid.start", required=True)
        g_stop = get("grid.stop", required=True)
        count = get("grid.count", required=True)
        spacing = get("grid.spacing")
        if g_stop < g_start:
            raise ConfigError(f"must be >= grid.start = {_fmt(g_start)}, got {_fmt(g_stop)}",
                              key="grid.stop", line=line("grid.stop"))
        if spacing == "log" and g_start == 0:
            raise ConfigError("log spacing needs start > 0",
                              key="grid.start", line=line("grid.start"))
        space = np.geomspace if spacing == "log" else np.linspace
        grid = [float(x) for x in space(g_start, g_stop, count)]

    r0, d_min = get("classify.r0"), get("classify.d_min")
    for key, radius in (("classify.r0", r0), ("classify.d_min", d_min)):
        if grid is not None and radius is not None and radius > grid[-1]:
            raise ConfigError(f"{_fmt(radius)} lies beyond the last grid point "
                              f"{_fmt(grid[-1])}", key=key, line=line(key))

    cfg = RunConfig(
        command=command, model=model, law=law, k_min=k_min, k_max=k_max, pinched=pinched,
        steps=steps, walks=walks, seed=seed, mode=get("sim.mode"),
        stride=get("sim.stride", default=max(1, steps // 1000)),
        ball_radius=get("sim.ball_radius"), burn_in=get("sim.burn_in", default=steps // 10),
        start_radius=get("sim.start_radius"), escape_radius=get("sim.escape_radius"),
        grid=grid, theta=get("classify.theta"), epsilon=get("classify.epsilon"), r0=r0,
        samples=get("classify.samples"), d_min=d_min,
        out_dir=out_override if out_override is not None else get("out.dir"),
    )
    cfg.resolved = _resolve_items(cfg, kind, spacing)
    return cfg


def _fmt(v) -> str:
    if isinstance(v, float):
        # float.__repr__ rather than repr: np.float64 is a float, and under
        # numpy 2 its repr is `np.float64(x)`, which no CSV reader parses.
        return float.__repr__(v)
    return str(v)


def _resolve_items(cfg: RunConfig, curvature_kind: str, spacing: str) -> list:
    items = [("command", cfg.command)]
    items.append(("curvature.kind", curvature_kind))
    if cfg.model is not None and cfg.model.is_hyperbolic:
        items.append(("curvature.k", _fmt(cfg.model.k)))
    if cfg.k_min is not None and cfg.pinched:
        items.append(("curvature.k_min", cfg.k_min.describe()))
        items.append(("curvature.k_max", cfg.k_max.describe()))
    if cfg.model is not None:
        items.append(("curvature.d", str(cfg.model.d)))
    if cfg.law is not None:
        items.append(("law", cfg.law.describe()))
    items += [
        ("sim.steps", str(cfg.steps)),
        ("sim.walks", str(cfg.walks)),
        ("sim.seed", str(cfg.seed)),
        ("sim.mode", cfg.mode),
        ("sim.stride", str(cfg.stride)),
        ("sim.ball_radius", _fmt(cfg.ball_radius)),
        ("sim.burn_in", str(cfg.burn_in)),
        ("sim.start_radius", _fmt(cfg.start_radius)),
        ("sim.escape_radius", _fmt(cfg.escape_radius)),
    ]
    if cfg.grid is not None:
        items.append(("grid.spacing", spacing))
        items.append(("grid.points", ";".join(_fmt(r) for r in cfg.grid)))
        items += [
            ("classify.theta", _fmt(cfg.theta)),
            ("classify.epsilon", _fmt(cfg.epsilon)),
            ("classify.samples", str(cfg.samples)),
        ]
        if cfg.r0 is not None:
            items.append(("classify.r0", _fmt(cfg.r0)))
        if cfg.d_min is not None:
            items.append(("classify.d_min", _fmt(cfg.d_min)))
    return items


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _header_lines(cfg: RunConfig) -> list:
    lines = [f"# hyperwalk {__version__}"]
    lines += [f"# {key} = {value}" for key, value in cfg.resolved]
    return lines


def _csv_line(row) -> str:
    return ",".join(map(_fmt, row)) + "\n"


def _write_csv(path: Path, cfg: RunConfig, columns, chunks):
    """Write the header, the column line and the data `chunks`: strings of
    whole CSV lines, each line ending in a newline and its values spelled
    by _fmt.  Chunks are written as they come, so a large file is never
    held in memory at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([*_header_lines(cfg), ",".join(columns)]) + "\n")
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _trajectory_lines(records):
    """The trajectories.csv rows, one chunk per walk.  Every record holds
    the same steps, so each "{step}," is spelled once, and each walk's
    "{walk_id}," once per walk.  Ids and steps are ints and the radii Python
    floats, which an f-string (repr for the floats) spells as _fmt does."""
    steps = [f"{step}," for step, _ in records[0].radii]
    for r in records:
        walk = f"{r.walk_id},"
        yield "".join([f"{walk}{step}{R!r}\n" for step, (_, R) in zip(steps, r.radii)])


def cmd_simulate(cfg: RunConfig, workers: int = 1) -> int:
    walk_cfg = WalkConfig(
        model=cfg.model, law=cfg.law, steps=cfg.steps, walks=cfg.walks,
        seed=cfg.seed, mode=cfg.mode, record_stride=cfg.stride,
        ball_radius=cfg.ball_radius, burn_in=cfg.burn_in,
        start_radius=cfg.start_radius, escape_radius=cfg.escape_radius,
    )
    records, stats = run_ensemble(walk_cfg, workers=workers)
    out = Path(cfg.out_dir)
    _write_csv(out / "trajectories.csv", cfg, ("walk_id", "step", "R"),
               _trajectory_lines(records))
    q = stats.quantiles
    _write_csv(out / "summary.csv", cfg,
               ("walks", "steps", "q5", "q25", "q50", "q75", "q95", "mean_returns",
                "fraction_escaped", "fraction_escaped_hw", "fraction_returned",
                "fraction_returned_hw", "drift", "drift_hw"),
               [_csv_line((stats.walks, stats.steps, q[5], q[25], q[50], q[75], q[95],
                           stats.mean_returns, stats.fraction_escaped,
                           stats.fraction_escaped_hw, stats.fraction_returned,
                           stats.fraction_returned_hw, stats.drift_estimate,
                           stats.drift_half_width))])
    print(stats.as_text())
    return 0


def _euclidean_report(cfg: RunConfig) -> ClassificationReport:
    """The flat-space 2U-vs-V rule at the last grid radius, from the law's
    closed-form U and V when it knows both, else from lamperti.step_moments:
    by quadrature for a built-in law, else from one draw.  The rule holds for
    zero-drift chains only: a law whose mean radial step is not known to be
    0 is reported inconclusive."""
    r_max = cfg.grid[-1]
    V, U, mean = cfg.law.known_moments(r_max)
    hw_u = hw_v = 0.0
    notes = ["flat-space rule: recurrent iff 2U > V"]
    if U is None or V is None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(10_001,)))
        est, note = step_moments(cfg.law, None, r_max, cfg.samples, rng)
        (V, hw_v), (U, hw_u) = est["E[d_tot^2]"], est["E[d_rad^2]"]
        if note:
            notes.append(note)
    if mean == 0.0:
        # U <= V holds by construction: both come from the same samples (or
        # the same closed forms), and d_rad^2 <= d_tot^2 pointwise
        verdict = classify_euclidean(U, V)
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append(f"the rule needs zero drift, and the mean radial step is {mean!r}")
    rows = [
        MarginRow(r_max, "radial-second-moment-U", U, hw_u, 2.0 * U - V, CRIT_EUCLIDEAN),
        MarginRow(r_max, "total-second-moment-V", V, hw_v, 2.0 * U - V, CRIT_EUCLIDEAN),
    ]
    return ClassificationReport(verdict, CRIT_EUCLIDEAN, [(r_max, 2.0 * U - V)],
                                cfg.theta, r_max, rows, notes)


def classification_report(cfg: RunConfig) -> ClassificationReport:
    """Criterion dispatch for `classify`.

    Euclidean models use the 2U-vs-V rule, which needs zero drift.  Elliptic
    laws in constant or pinched curvature get the closed-form criterion.
    Everything else reads moments: pinched curvature goes to the pinched
    criteria; in constant curvature the moments are estimated first, a law
    whose known mean radial step is 0 is then screened by the
    uniform-ellipticity transience test, which reads those estimates, and
    the moment criteria decide what the screen leaves open.

    A built-in law that offers quadrature lines (every one but a box law in
    d >= 3, or whose curvature times radial half-side exceeds 3) has its
    moments integrated by Gauss quadrature and draws nothing; its
    half_width column is the quadrature error estimate |Q_32 - Q_64| plus a
    rounding floor, not a 99% interval, and the report says so.
    `classify.samples` then plays no part.  Any other law is Monte Carlo:
    one draw of `classify.samples` steps per grid radius in grid order from
    the classify stream, with 99% half-widths.
    """
    if not cfg.model.is_hyperbolic:
        return _euclidean_report(cfg)
    if cfg.law.kind == "elliptic":
        return classify_elliptic_chain(cfg.law.a, cfg.law.b, cfg.k_min, cfg.k_max,
                                       cfg.model.d, cfg.grid, cfg.theta, cfg.r0)
    # built after the closed form's return, which draws nothing: the first
    # np.random access imports numpy.random
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(10_000,)))
    if cfg.pinched:
        return classify_pinched(cfg.law, cfg.k_min, cfg.k_max, cfg.grid, cfg.samples,
                                rng, cfg.theta, cfg.r0)
    moments = estimate_moment_functions(cfg.law, cfg.model.k, cfg.grid, cfg.samples, rng)
    if cfg.law.known_moments(cfg.grid[-1])[2] == 0.0:
        d_min = cfg.d_min if cfg.d_min is not None else cfg.grid[0]
        screen = uniform_ellipticity_transience_check(moments, cfg.epsilon, d_min, cfg.grid)
        if screen.verdict is Verdict.TRANSIENT:
            return screen
    return classify_constant_curvature(moments, cfg.grid, cfg.theta, cfg.r0)


def cmd_classify(cfg: RunConfig, workers: int = 1) -> int:
    report = classification_report(cfg)
    _write_csv(Path(cfg.out_dir) / "margins.csv", cfg,
               ("r", "quantity", "estimate", "half_width", "margin", "criterion"),
               [_csv_line((row.r, row.quantity, row.estimate, row.half_width, row.margin,
                           row.criterion)) for row in report.rows])
    print(report.as_text())
    return {Verdict.RECURRENT: 0, Verdict.TRANSIENT: 1, Verdict.INCONCLUSIVE: 2}[report.verdict]


def cmd_validate(cfg: RunConfig, workers: int = 1) -> int:
    from .validation import run_suites          # loaded on first use
    results = run_suites(seed=cfg.seed)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 4


def cmd_moments(cfg: RunConfig, workers: int = 1) -> int:
    """Tabulate, per grid radius, the step moments against the law's closed
    forms, then nu1 and nu2 and the heavy-tail bound rows.

    Every row comes from lamperti.step_moments: a law that offers
    quadrature lines is integrated by Gauss quadrature, and its half_width is
    |Q_32 - Q_64| plus a rounding floor, an error estimate rather than a 99%
    interval; nothing is drawn.  Any other law takes one draw per grid
    radius, and its rows are the raw sample means of that draw with 99%
    half-widths: nu1 and nu2 there are unpaired, so for a law symmetric
    under v -> -v they are wider than the paired ones `classify` uses.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(20_000,)))
    k = cfg.model.k if cfg.model.is_hyperbolic else None
    law = cfg.law
    rows = []
    notes = set()
    for r in cfg.grid:
        est, note = step_moments(law, k, r, cfg.samples, rng)
        notes.add(note)
        for name, ref in zip(MOMENT_NAMES, law.known_moments(r)):
            rows.append((r, name, *est[name], "" if ref is None else _fmt(float(ref)), "exact"))
        if k is not None:
            nu1 = est["nu1"]
            rows.append((r, "nu1", *nu1, "", ""))
            rows.append((r, "nu2", *est["nu2"], "", ""))
            if law.kind == "heavytail":
                lam = law.lambda_at(r)
                bound = 2.0 * law.m * math.exp(-lam)
                rows.append((r, "transverse-second-moment", *est["E|t|^2"], _fmt(bound),
                             "upper"))
                if k == 1.0:
                    lower = (law.m - 1.0) / (4.0 * (law.m - 2.0) * lam ** (law.m - 2.0))
                    rows.append((r, "nu1-lower-bound", *nu1, _fmt(lower), "lower"))
    _write_csv(Path(cfg.out_dir) / "moments.csv", cfg,
               ("r", "quantity", "estimate", "half_width", "reference", "bound_kind"),
               map(_csv_line, rows))
    for row in rows:
        ref = f"  ref {row[4]}" if row[4] else ""
        print(f"r = {row[0]:<10g} {row[1]:<26} {row[2]:.6g} (hw {row[3]:.3g}){ref}")
    for note in sorted(notes - {None}):
        print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Geodesic random walks on hyperbolic space: simulation and "
                    "recurrence/transience classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run a walk ensemble and write trajectory/summary CSVs"),
        ("classify", "classify a chain; the exit code encodes the verdict"),
        ("validate", "run the numerical self-check suites"),
        ("moments", "tabulate analytic vs Monte Carlo step moments"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (beats HYPERWALK_SEED)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=1,
                       help="at most this many worker processes for the simulate "
                            "ensemble, >= 1; also capped at the walks and the usable "
                            "cores (the other commands ignore it)")
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "validate": cmd_validate,
    "moments": cmd_moments,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 3
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(text, args.command, base_dir=str(Path(args.config).parent),
                           seed_override=args.seed, out_override=args.out)
        return _DISPATCH[args.command](cfg, workers=args.workers)
    except HyperwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
