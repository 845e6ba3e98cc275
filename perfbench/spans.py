"""Spans around the calls into each hyperwalk module, recorded from outside.

A `Tracer` replaces module and class attributes that callers look up at
call time (for example `hyperwalk.simulator.radial_increment_exact`, which
the step loop calls through the module global) with wrappers.  Each
wrapper records one span (name, start, end, parent span, job id) into
flat arrays kept in memory; `save` writes them out once the jobs are done,
and `per_layer` turns them into the per-layer metrics.  The program itself
is not edited, and `uninstall` puts every original attribute back.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

LAW_KINDS = ("elliptic", "box", "heavytail", "inwardbiased")
_LAW_CLASSES = {"elliptic": "EllipticLaw", "box": "BoxLaw", "heavytail": "HeavyTailLaw",
                "inwardbiased": "InwardBiasedLaw"}
CLASSIFIERS = ("estimate_moment_functions", "classify_constant_curvature",
               "classify_pinched", "uniform_ellipticity_transience_check")


def _elems_arg1(args, result):
    return int(np.size(args[1]))


def _draws_arg2(args, result):
    return args[2]              # (self, r, n, rng)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def log_domain_hook():
    """A value hook giving 1 when radial_increment_exact takes its log-domain branch.

    The threshold is read from hyperwalk.geometry, so the hook follows the
    program if the threshold moves.
    """
    threshold = importlib.import_module("hyperwalk.geometry").LOG_DOMAIN_THRESHOLD

    def log_domain(args, result):
        R, d_tot, phi, k = args
        return int(d_tot > 0.0 and -1.0 < phi < 1.0
                   and (k * R > threshold or k * d_tot > threshold))

    return log_domain


def _screen_decided(args, result):
    return int(result.verdict.value == "transient")


def targets(ensemble_only: bool = False) -> list:
    """(span name, owner path, attribute, value hook) for every wrapped call.

    The owner is the module or class the caller looks the name up in, so a
    name imported into `hyperwalk.cli` is wrapped there.  The value hook,
    when present, maps (args, result) to an integer summed per span name:
    elements for batch kernels, draws for samplers, bytes for CSV writes.
    """
    ensemble = [("simulator.run_ensemble", "hyperwalk.cli", "run_ensemble", None)]
    if ensemble_only:
        return ensemble
    out = ensemble + [
        ("cli.parse_config", "hyperwalk.cli", "parse_config", None),
        ("cli.write_csv", "hyperwalk.cli", "_write_csv", _file_bytes),
        ("simulator.run_walk", "hyperwalk.simulator", "run_walk", None),
        ("simulator.ensemble_stats", "hyperwalk.simulator", "ensemble_stats", None),
        ("geometry.radial_increment_exact", "hyperwalk.simulator", "radial_increment_exact",
         log_domain_hook()),
        ("geometry.euclidean_radial_increment", "hyperwalk.simulator",
         "euclidean_radial_increment", None),
        ("geometry.tangent_axes", "hyperwalk.simulator", "_tangent_axes", None),
        ("geometry.euclidean_frame", "hyperwalk.simulator", "euclidean_frame", None),
        ("geometry.radial_increment_exact_batch", "hyperwalk.lamperti",
         "radial_increment_exact_batch", _elems_arg1),
        ("lamperti.asymptotic_increment_batch", "hyperwalk.lamperti",
         "asymptotic_increment_batch", _elems_arg1),
        ("lamperti.asymptotic_increment_batch", "hyperwalk.cli",
         "asymptotic_increment_batch", _elems_arg1),
    ]
    for fn in CLASSIFIERS:
        hook = _screen_decided if fn == "uniform_ellipticity_transience_check" else None
        out.append((f"lamperti.{fn}", "hyperwalk.cli", fn, hook))
    for kind in LAW_KINDS:
        owner = f"hyperwalk.increments.{_LAW_CLASSES[kind]}"
        out.append((f"increments.sample_components.{kind}", owner, "sample_components", None))
        out.append((f"increments.sample_components_batch.{kind}", owner,
                    "sample_components_batch", _draws_arg2))
    return out


def resolve(owner: str):
    """The module or class named by a dotted owner path."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


_VALUE = 1 << 62          # event code: the next entry is the last closed span's value
_JOB = _VALUE + 1         # event code: the next entry is the job id of the spans that follow


class Tracer:
    """Span store plus the wrappers that fill it.

    Wrappers append to one flat list of events (a start is its name id and
    a time, an end is -1 - name id and a time), which costs far less per
    call than building a record; `arrays` turns the events into the span
    table (name, start, end, parent, job, value) once the run is over.
    """

    def __init__(self):
        self.names = []            # span name per name id
        self.events = []
        self._saved = []

    def set_job(self, job: int):
        self.events += (_JOB, job)

    def wrap(self, name: str, fn, hook=None):
        """A wrapper recording one span per call of fn."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns
        push = self.events.append

        if hook is None:
            def traced(*args, **kwargs):
                push(nid)
                push(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    push(-1 - nid)
                    push(clock())
        else:
            def traced(*args, **kwargs):
                push(nid)
                push(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    push(-1 - nid)
                    push(clock())
                push(_VALUE)
                push(hook(args, result))
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self, wrap_targets):
        for name, owner_path, attr, hook in wrap_targets:
            owner = resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        """The span table as numpy arrays, one row per call."""
        name_id, start, end, parent, job, value = [], [], [], [], [], []
        stack = [-1]
        current_job = -1
        last = -1
        events = self.events
        for i in range(0, len(events), 2):
            code, arg = events[i], events[i + 1]
            if code == _VALUE:
                value[last] = arg
            elif code == _JOB:
                current_job = arg
            elif code >= 0:
                stack.append(len(start))
                name_id.append(code)
                start.append(arg)
                end.append(arg)
                parent.append(stack[-2])
                job.append(current_job)
                value.append(0)
            else:
                last = stack.pop()
                end[last] = arg
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.array(name_id, dtype=np.int64),
                "start": np.array(start, dtype=np.int64),
                "end": np.array(end, dtype=np.int64),
                "parent": np.array(parent, dtype=np.int64),
                "job": np.array(job, dtype=np.int64),
                "value": np.array(value, dtype=np.float64)}

    def save(self, path):
        np.savez(path, **self.arrays())


def calibrate(calls: int = 20000, repeats: int = 7) -> dict:
    """Cost of an empty wrapper, in ns per call, for plain and hooked spans.

    `inner` is the part inside the recorded span (it inflates every span
    duration); `outer` is the rest of the wrapper's cost, which lands in the
    caller's self time.  Each figure is the least of several repeats, the
    usual estimate of a fixed cost under timing noise.
    """
    def noop(*args):
        return None

    out = {}
    for label, hook, args in (("plain", None, (1.0, 2.0)),
                              ("log_domain", log_domain_hook(), (40.0, 1.5, 0.3, 1.0))):
        inner, full = [], []
        for _ in range(repeats):
            tracer = Tracer()
            wrapped = tracer.wrap("noop", noop, hook)
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop(*args)
            t1 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped(*args)
            t2 = time.perf_counter_ns()
            spans = tracer.arrays()
            bare = (t1 - t0) / calls
            inner.append(float(np.median(spans["end"] - spans["start"])) - bare)
            full.append((t2 - t1) / calls - bare)
        out[label] = {"inner": max(min(inner), 0.0), "outer": max(min(full) - min(inner), 0.0)}
    return out


def per_layer(spans: dict, calibration: dict, job_steps: dict, job_modes: dict) -> dict:
    """Per-layer metrics from one traced pass.

    job_steps maps job id to walk steps per run_walk call and job_modes maps
    job id to the simulate mode (`radialonly` or `ambient`).  Per-call and
    per-element figures use self time less the calibrated inner cost of the
    wrapper; self time also drops the outer wrapper cost of each child.
    """
    names = [str(n) for n in spans["names"]]
    nid, parent, job, value = spans["name_id"], spans["parent"], spans["job"], spans["value"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    n = dur.size

    def mask(name):
        return nid == names.index(name) if name in names else np.zeros(n, bool)

    rie = "geometry.radial_increment_exact"
    inner = np.where(mask(rie), calibration["log_domain"]["inner"], calibration["plain"]["inner"])
    outer = np.where(mask(rie), calibration["log_domain"]["outer"], calibration["plain"]["outer"])
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child] + outer[child], minlength=n)
    self_ns = np.maximum(dur - inner - child_time, 0.0)

    def calls(name):
        return int(mask(name).sum())

    def units(name):
        return int(value[mask(name)].sum())

    def total_s(name):
        return float(dur[mask(name)].sum()) / 1e9

    def per_unit(name, count):
        return float(self_ns[mask(name)].sum()) / count if count else 0.0

    m = {
        "cli.parse_config.s": total_s("cli.parse_config"),
        "cli.write_csv.s": total_s("cli.write_csv"),
        "cli.write_csv.bytes": units("cli.write_csv"),
    }
    m[f"{rie}.calls"] = calls(rie)
    m[f"{rie}.ns_per_call"] = per_unit(rie, calls(rie))
    m[f"{rie}.log_domain_frac"] = units(rie) / calls(rie) if calls(rie) else 0.0
    for name in ("geometry.euclidean_radial_increment", "geometry.tangent_axes",
                 "geometry.euclidean_frame"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ns_per_call"] = per_unit(name, calls(name))
    for name in ("geometry.radial_increment_exact_batch", "lamperti.asymptotic_increment_batch"):
        m[f"{name}.elems"] = units(name)
        m[f"{name}.ns_per_elem"] = per_unit(name, units(name))

    batch_draws = 0
    for kind in LAW_KINDS:
        name = f"increments.sample_components.{kind}"
        m[f"{name}.draws"] = calls(name)
        m[f"{name}.ns_per_draw"] = per_unit(name, calls(name))
        name = f"increments.sample_components_batch.{kind}"
        batch_draws += units(name)
        m[f"{name}.draws"] = units(name)
        m[f"{name}.ns_per_draw"] = per_unit(name, units(name))

    walk = mask("simulator.run_walk")
    m["simulator.run_walk.calls"] = int(walk.sum())
    for mode, label in (("radialonly", "radial"), ("ambient", "ambient")):
        sel = walk & np.isin(job, [j for j, md in job_modes.items() if md == mode])
        steps = sum(job_steps[int(j)] for j in job[sel])
        m[f"simulator.step_loop.us_per_step.{label}"] = (
            float(self_ns[sel].sum()) / steps / 1e3 if steps else 0.0)
    ens = mask("simulator.run_ensemble")
    walk_cost = dur[walk] + outer[walk]
    m["simulator.ensemble.overhead_s"] = max(
        float(dur[ens].sum() - inner[ens].sum() - walk_cost.sum()) / 1e9, 0.0)
    m["simulator.ensemble_stats.s"] = total_s("simulator.ensemble_stats")

    for fn in CLASSIFIERS:
        m[f"lamperti.{fn}.s"] = total_s(f"lamperti.{fn}")
    m["lamperti.screen_waste_frac"] = (
        _screen_waste(names, nid, parent, value) / batch_draws if batch_draws else 0.0)
    return m


def _screen_waste(names, nid, parent, value) -> float:
    """Batch draws made under a transience screen that did not decide."""
    screen = "lamperti.uniform_ellipticity_transience_check"
    if screen not in names:
        return 0.0
    screen_id = names.index(screen)
    batch_ids = {i for i, name in enumerate(names)
                 if name.startswith("increments.sample_components_batch.")}
    wasted = 0.0
    for idx in np.flatnonzero(np.isin(nid, list(batch_ids))):
        up = parent[idx]
        while up >= 0 and nid[up] != screen_id:
            up = parent[up]
        if up >= 0 and value[up] == 0.0:
            wasted += value[idx]
    return wasted
