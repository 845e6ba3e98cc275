"""The benchmark's traced run wraps names by `owner.__dict__[attr]`.

perfbench/spans.py lists every (owner, attribute) it wraps.  A name that is
renamed or removed, or no longer imported into the module whose callers
look it up there, makes every traced run die with KeyError; this test
catches that in the main suite.  spans.py is read, not imported as a
package, so no file under perfbench/ is written.
"""

import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = load_spans()


@pytest.mark.parametrize("name, owner, attr", [(n, o, a) for n, o, a, _ in spans.targets()])
def test_wrapped_name_is_bound_where_callers_look_it_up(name, owner, attr):
    assert attr in vars(spans.resolve(owner)), f"{name}: {owner}.{attr} is gone"
