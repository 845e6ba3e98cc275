"""README.md names only what the package has.

Every `hw.<name>` chain in README.md must resolve in `hyperwalk`, so a
renamed or deleted export breaks this test rather than a reader's copy of
the library sketch.  The names of the removed object geometry layer, the
non-confinement check and the test-only wrappers must not come back into
the README.
"""

import functools
import re
from pathlib import Path

import pytest

import hyperwalk

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
HW_CHAINS = sorted(set(re.findall(r"\bhw((?:\.\w+)+)", README)))

REMOVED = ("minkowski_form", "LorentzPoint", "validate_on_hyperboloid", "TangentVector",
           "MINKOWSKI_SQUARE_REL_TOL", "TANGENCY_TOL", "HYPERBOLOID_REL_TOL",
           "validate_tangent", "exp_map", "log_map", "radial_direction",
           "IncrementDecomposition", "make_decomposition", "decompose_increment",
           "RadialFrame", "radial_frame", "DimensionError", "ContractError",
           "UndefinedFrameError", "nonconfinement_check", "NonconfinementRow",
           "NonconfinementReport", "sandwich_ratio", "zero_drift_check")
# also English words: only their code forms are looked for
REMOVED_WORDS = ("distance", "origin")


@pytest.mark.parametrize("chain", HW_CHAINS)
def test_hw_name_resolves(chain):
    functools.reduce(getattr, chain[1:].split("."), hyperwalk)


def test_hw_names_are_found():
    assert ".run_ensemble" in HW_CHAINS


@pytest.mark.parametrize("name", REMOVED + REMOVED_WORDS)
def test_removed_name_is_not_in_readme(name):
    pattern = rf"(?<![\w.]){name}\b" if name in REMOVED else rf"(`|hw\.){name}\b"
    assert not re.search(pattern, README)
