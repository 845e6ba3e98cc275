"""The package's value classes (`hyperwalk.errors.record`).

Each class keeps the constructor, defaults, checks, frozenness, equality,
hashing and repr it had as a dataclass or NamedTuple, pinned here class by
class; the one change is that the laws' `kind` and `symmetric` are class
constants, which their reprs no longer list.  Building them compiles no
source text, so a process's set-up pays nothing per class.
"""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk import cli, geometry, increments, lamperti, quadrature, simulator, validation
from hyperwalk.errors import DomainError, replace

SRC = Path(__file__).resolve().parents[1] / "src"

ONE = hw.RadialProfile.constant(1.0)
H2 = hw.CurvatureModel.hyperbolic(1.0, 2)
LAW = hw.EllipticLaw(ONE, ONE, 2)
ARRAY = np.array([1.0, 2.0])

RUN_FIELDS = ("command", "model", "law", "k_min", "k_max", "pinched", "steps", "walks", "seed",
              "mode", "stride", "ball_radius", "burn_in", "start_radius", "escape_radius",
              "grid", "theta", "epsilon", "r0", "samples", "d_min", "out_dir")
STATS_FIELDS = ("quantiles", "mean_returns", "fraction_escaped", "fraction_escaped_hw",
                "fraction_returned", "fraction_returned_hw", "drift_estimate",
                "drift_half_width", "walks", "steps")


def sampler(r, d, rng):
    return 0.0, np.zeros(d - 1)


# class: (its required fields in order, each with a value it keeps as given;
# its defaulted fields in order, with their defaults)
SPECS = {
    cli.RunConfig: ([(n, f"value-{i}") for i, n in enumerate(RUN_FIELDS)], {"resolved": []}),
    cli._Key: ([("parse", int)], {"default": None, "op": None, "bound": None}),
    geometry.CurvatureModel: ([("kind", "euclidean"), ("d", 3)], {"k": 0.0}),
    geometry.HouseholderFrame: ([("radial", ARRAY), ("w", ARRAY), ("scale", ARRAY)], {}),
    increments.RadialProfile: ([("kind", "constant")],
                               {"c": 0.0, "exponent": 0.0, "radii": None, "values": None}),
    increments.EllipticLaw: ([("a", ONE), ("b", ONE), ("d", 2)], {}),
    increments.BoxLaw: ([("a", ONE), ("b", ONE), ("d", 3)], {}),
    increments.HeavyTailLaw: ([("m", 4.5), ("d", 2)], {"lam": None}),
    increments.InwardBiasedLaw: ([("strength", 0.5), ("d", 2)], {}),
    increments.CustomLaw: ([("sampler", sampler), ("d", 2)],
                           {"bound": math.inf, "symmetric": False, "name": "custom"}),
    increments.ZeroDriftResult: ([("mean", ARRAY), ("standard_error", ARRAY),
                                  ("n_samples", 10)], {}),
    lamperti.Estimate: ([("value", 1.5), ("half_width", 0.25)], {}),
    lamperti.MomentFunctions: ([("nu1", abs), ("nu2", abs)],
                               {"transverse": None, "zero_drift": None, "note": None}),
    lamperti.MarginRow: ([("r", 2.0), ("quantity", "q"), ("estimate", 1.0),
                          ("half_width", 0.1), ("margin", 0.9), ("criterion", "c")], {}),
    lamperti.ClassificationReport: ([("verdict", lamperti.Verdict.RECURRENT), ("criterion", "c"),
                                     ("margins", [(1.0, 0.5)]), ("theta", 0.5), ("r0", 2.0)],
                                    {"rows": [], "notes": []}),
    simulator.WalkConfig: ([("model", H2), ("law", LAW), ("steps", 10), ("walks", 2),
                            ("seed", 7)],
                           {"mode": "radialonly", "record_stride": 1, "ball_radius": 5.0,
                            "burn_in": 0, "start_radius": 0.0, "escape_radius": 100.0}),
    simulator.TrajectoryRecord: ([("walk_id", 1), ("radii", [(0, 0.0)]), ("returns", 2),
                                  ("escape_step", None), ("final_R", 3.5)],
                                 {"tail_dr_sum": 0.0, "tail_dr_sumsq": 0.0, "tail_dr_count": 0}),
    simulator.EnsembleStats: ([(n, f"value-{i}") for i, n in enumerate(STATS_FIELDS)], {}),
    simulator.ProbeEstimate: ([("estimate", 0.5), ("half_width", 0.1), ("successes", 5),
                               ("trials", 10)], {}),
    validation.SuiteResult: ([("name", "s"), ("passed", True), ("checked", 3)], {"detail": ""}),
    quadrature.Atoms: ([(n, float(i)) for i, n in enumerate(
        ("d_rad", "t_sq", "d_tot", "log_opp", "weight"))], {}),
    quadrature.Line: ([("lo", 0.0), ("hi", 1.0), ("steps", abs)],
                      {"size": 1, "beta": 0.0, "span": 0.0, "grade": 0}),
}
MUTABLE = {cli.RunConfig, simulator.TrajectoryRecord, lamperti.ClassificationReport}
CLASSES = pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__qualname__)


def example(cls):
    required, _ = SPECS[cls]
    return cls(*(value for _, value in required))


@CLASSES
def test_fields_by_position_or_keyword_with_their_defaults(cls):
    required, defaults = SPECS[cls]
    values = [value for _, value in required]
    for obj in (cls(*values), cls(**dict(required))):
        for name, value in required:
            assert getattr(obj, name) is value, name
        for name, value in defaults.items():
            got = getattr(obj, name)
            assert type(got) is type(value) and got == value, name
    every = cls(*values, *defaults.values())
    assert [getattr(every, name) for name in defaults] == list(defaults.values())


@CLASSES
def test_wrong_arguments_are_refused(cls):
    required, defaults = SPECS[cls]
    values = [value for _, value in required]
    with pytest.raises(TypeError):
        cls(*values[:-1])                                   # one short
    with pytest.raises(TypeError):
        cls(*values, *defaults.values(), None)              # one too many
    with pytest.raises(TypeError):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{required[0][0]: values[0]})          # given twice


@pytest.mark.parametrize("cls, kind, symmetric", [
    (increments.EllipticLaw, "elliptic", True), (increments.BoxLaw, "box", True),
    (increments.HeavyTailLaw, "heavytail", False),
    (increments.InwardBiasedLaw, "inwardbiased", False), (increments.CustomLaw, "custom", False),
])
def test_law_kind_and_symmetry_are_fixed_by_the_class(cls, kind, symmetric):
    law = example(cls)
    assert (law.kind, law.symmetric) == (kind, symmetric)
    with pytest.raises(TypeError):
        example_with(cls, kind=kind)
    if cls is not increments.CustomLaw:     # a custom law says whether it is symmetric
        with pytest.raises(TypeError):
            example_with(cls, symmetric=symmetric)
    assert example_with(increments.CustomLaw, symmetric=True).symmetric is True


def example_with(cls, **kwargs):
    required, _ = SPECS[cls]
    return cls(*(value for _, value in required), **kwargs)


@CLASSES
def test_frozen_classes_refuse_assignment(cls):
    obj = example(cls)
    name = SPECS[cls][0][0][0]
    if cls in MUTABLE:
        setattr(obj, name, "new")
        obj.extra = 1
        assert getattr(obj, name) == "new" and obj.extra == 1
        return
    for attempt in (lambda: setattr(obj, name, "new"), lambda: delattr(obj, name),
                    lambda: setattr(obj, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(obj, name) is SPECS[cls][0][0][1]


@CLASSES
def test_equality_and_hashing(cls):
    a, b = example(cls), example(cls)
    if cls is geometry.HouseholderFrame:        # compared by identity
        assert a != b and a == a and hash(a) != hash(b)
        return
    assert a == b and not a != b
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif cls is increments.ZeroDriftResult:     # its arrays are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != object() and a != None      # noqa: E711


def test_equality_reads_every_field_and_the_class():
    assert hw.CurvatureModel.hyperbolic(1.0, 2) != hw.CurvatureModel.hyperbolic(2.0, 2)
    assert hw.EllipticLaw(ONE, ONE, 2) != hw.BoxLaw(ONE, ONE, 2)
    assert hw.HeavyTailLaw(4.0, 2) != hw.HeavyTailLaw(4.0, 2, ONE)
    assert hash(hw.HeavyTailLaw(4.0, 2)) == hash(hw.HeavyTailLaw(4.0, 2))
    assert {hw.CurvatureModel.euclidean(2), hw.CurvatureModel("euclidean", 2, 5.0)} == {
        hw.CurvatureModel.euclidean(2)}


def test_mutable_defaults_are_made_per_instance():
    a, b = example(lamperti.ClassificationReport), example(lamperti.ClassificationReport)
    a.notes.append("x")
    a.rows.append("y")
    assert b.notes == [] and b.rows == [] and a.notes is not b.notes
    assert example(cli.RunConfig).resolved is not example(cli.RunConfig).resolved


def test_post_init_checks_run():
    with pytest.raises(DomainError):
        hw.CurvatureModel("spherical", 2)
    with pytest.raises(DomainError):
        hw.EllipticLaw(ONE, ONE, 1)             # the check _AxisLaw gives both axis laws
    with pytest.raises(DomainError):
        hw.HeavyTailLaw(3.0, 2)
    with pytest.raises(DomainError):
        hw.WalkConfig(H2, LAW, -1, 2, 7)
    assert hw.CurvatureModel("euclidean", 2, 5.0).k == 0.0     # set on a frozen instance


def test_reprs():
    assert repr(cli._Key(int, 3, ">", 0)) == "_Key(parse=<class 'int'>, default=3, op='>', bound=0)"
    assert repr(H2) == "CurvatureModel(kind='hyperbolic', d=2, k=1.0)"
    frame = geometry.HouseholderFrame(np.zeros(3), np.ones(2), np.ones(1))
    assert repr(frame) == ("HouseholderFrame(radial=array([0., 0., 0.]), w=array([1., 1.]), "
                           "scale=array([1.]))")
    profile = "RadialProfile(kind='constant', c=1.0, exponent=0.0, radii=None, values=None)"
    assert repr(ONE) == profile
    # the laws' reprs listed kind and symmetric too while those were fields
    assert repr(LAW) == f"EllipticLaw(a={profile}, b={profile}, d=2)"
    assert repr(hw.HeavyTailLaw(4.0, 2)) == "HeavyTailLaw(m=4.0, d=2, lam=None)"
    assert repr(lamperti.Estimate(1.0, 0.5)) == "Estimate(value=1.0, half_width=0.5)"
    assert repr(example(lamperti.ClassificationReport)) == (
        "ClassificationReport(verdict=<Verdict.RECURRENT: 'recurrent'>, criterion='c', "
        "margins=[(1.0, 0.5)], theta=0.5, r0=2.0, rows=[], notes=[])")
    assert repr(example(simulator.TrajectoryRecord)) == (
        "TrajectoryRecord(walk_id=1, radii=[(0, 0.0)], returns=2, escape_step=None, "
        "final_R=3.5, tail_dr_sum=0.0, tail_dr_sumsq=0.0, tail_dr_count=0)")
    assert repr(hw.WalkConfig(hw.CurvatureModel.euclidean(2), LAW, 10, 2, 7)) == (
        f"WalkConfig(model=CurvatureModel(kind='euclidean', d=2, k=0.0), law={LAW!r}, "
        "steps=10, walks=2, seed=7, mode='radialonly', record_stride=1, ball_radius=5.0, "
        "burn_in=0, start_radius=0.0, escape_radius=100.0)")
    assert repr(example(validation.SuiteResult)) == (
        "SuiteResult(name='s', passed=True, checked=3, detail='')")
    assert repr(quadrature.Line(0.0, 1.0, None)) == (
        "Line(lo=0.0, hi=1.0, steps=None, size=1, beta=0.0, span=0.0, grade=0)")


def test_replace():
    cfg = hw.WalkConfig(H2, LAW, 10, 2, 7, ball_radius=3.0)
    moved = replace(cfg, steps=20, seed=8)
    assert type(moved) is hw.WalkConfig and (moved.steps, moved.seed) == (20, 8)
    assert moved == hw.WalkConfig(H2, LAW, 20, 2, 8, ball_radius=3.0) and cfg.steps == 10
    assert replace(cfg) == cfg
    with pytest.raises(DomainError):
        replace(cfg, steps=-1)                  # the checks run again
    with pytest.raises(TypeError):
        replace(cfg, not_a_field=1)
    with pytest.raises(TypeError):
        replace(LAW, kind="box")
    report = replace(example(lamperti.ClassificationReport), notes=["n"])
    assert report.notes == ["n"] and report.rows == []
    assert replace(lamperti.Estimate(1.0, 0.5), half_width=0.0) == (1.0, 0.0)


def test_tuple_records_are_tuples():
    e = lamperti.Estimate(1.0, 0.5)
    value, half_width = e
    assert (value, half_width) == (1.0, 0.5) and (e.value, e.half_width) == (1.0, 0.5)
    assert isinstance(e, tuple) and len(e) == 2 and e[0] == 1.0 and e[-1] == 0.5
    assert e == (1.0, 0.5) and (1.0, 0.5) == e and hash(e) == hash((1.0, 0.5))
    assert lamperti.Estimate(*e) == e and e != (1.0, 0.5, 0.0)
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(twin) is lamperti.Estimate and twin == e

    columns = [np.arange(3.0) + i for i in range(5)]
    atoms = quadrature.Atoms(*columns)
    assert atoms[:4] == tuple(columns[:4]) and type(atoms[:4]) is tuple
    assert all(a is c for a, c in zip(atoms, columns)) and atoms.weight is columns[4]
    assert [float(column[0]) for column in atoms] == [0.0, 1.0, 2.0, 3.0, 4.0]

    line = quadrature.Line(0.0, 1.0, abs, grade=3)
    assert line == (0.0, 1.0, abs, 1, 0.0, 0.0, 3) and line.grade == 3
    lo, hi, *_ = line
    assert (lo, hi) == (0.0, 1.0)


def test_set_up_compiles_no_source_text():
    # a fresh interpreter, numpy first: importing the package must compile
    # nothing from a string (the standard library's dataclasses and
    # namedtuple do, 120 strings across these modules)
    code = "\n".join([
        "import json, sys",
        "import numpy",
        "named = []",
        "sys.addaudithook(lambda event, args: named.append(str(args[1]))",
        "                 if event == 'compile' and str(args[1]).startswith('<') else None)",
        "import hyperwalk.cli, hyperwalk.quadrature, hyperwalk.validation",
        "print(json.dumps([hyperwalk.__file__, named, 'dataclasses' in sys.modules]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    where, named, dataclasses_loaded = json.loads(out.stdout)
    assert Path(where).resolve().parent == SRC / "hyperwalk"
    assert named == []
    assert not dataclasses_loaded
