"""The package's module layers, read off its import statements.

Every import from inside the package counts, at module level and inside
functions: the kernels (`geometry`) sit below the step laws (`increments`)
and the quadrature, those below the walk engine (`simulator`) and the
estimators and classifiers (`lamperti`), and the commands (`cli`,
`validation`) on top.  The sources are parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperwalk"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def package_imports(module: str) -> set:
    """The package modules `module` imports, anywhere in its source; a name
    imported from the package itself (`from . import __version__`) counts
    as an import of `__init__`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "hyperwalk":
                    continue
                base = parts[1:]
            else:
                base = (node.module or "").split(".") if node.module else []
            if base:
                found.add(base[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "hyperwalk":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    found.discard(module)
    return found


GRAPH = {m: package_imports(m) for m in MODULES}


def test_every_import_names_a_module_of_the_package():
    for module, imports in GRAPH.items():
        assert imports <= set(MODULES), (module, imports - set(MODULES))


def test_geometry_imports_only_errors():
    assert GRAPH["geometry"] == {"errors"}


@pytest.mark.parametrize("module", ["increments", "quadrature", "simulator"])
def test_lower_layers_import_no_classifier_or_command(module):
    assert not GRAPH[module] & {"lamperti", "cli", "validation"}, GRAPH[module]


def test_the_import_graph_has_no_cycle():
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        path.append(module)
        for child in sorted(GRAPH[module]):
            visit(child)
        path.pop()
        done.add(module)

    for module in MODULES:
        visit(module)
