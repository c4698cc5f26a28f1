"""Import hygiene of the csgcompress package, checked on the syntax tree.

No linter ships with the project, so these tests walk each module with the
standard-library ``ast``: every imported name must be used (or re-exported
through ``__all__``), and no function body may import from the package
itself -- a deferred import hides a dependency between modules that the
module header should state.

One third-party import is deferred on purpose: ``CloudOracle`` imports
``scipy.spatial`` when it is built, because loading it costs about 36 MB of
resident memory and 0.19 s that the tree-oracle, abstract, cover and QUBO
paths never need.  ``test_scipy_loads_only_for_a_cloud_oracle`` checks it
in a fresh interpreter (the test process has loaded scipy already); a future
solver backend built on ``scipy.optimize`` must import it the same way,
inside its solver path.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "csgcompress"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def function_level_package_imports(source: str) -> list[str]:
    """Imports from the package made inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("csgcompress")
            ):
                found.append(f"line {node.lineno}: from {'.' * node.level}"
                             f"{node.module or ''} in {func.name}()")
            elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "csgcompress" for a in node.names
            ):
                found.append(f"line {node.lineno}: import in {func.name}()")
    return found


def _module_id(path: Path) -> str:
    return str(path.relative_to(PACKAGE))


def test_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_package_imports_inside_functions(path):
    assert function_level_package_imports(path.read_text(encoding="utf-8")) == []


def test_checks_flag_what_they_look_for():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .cover import assemble_tree, verify_cover\n"
        "from .graph import graph_to_dict\n"
        "__all__ = ['graph_to_dict']\n"
        "def f():\n"
        "    from .qubo import solve_sa\n"
        "    import csgcompress.cli\n"
        "    return verify_cover, solve_sa, os.getcwd()\n"
    )
    assert unused_imports(source) == [
        "line 2: json", "line 4: assemble_tree", "line 9: csgcompress",
    ]
    assert function_level_package_imports(source) == [
        "line 8: from .qubo in f()", "line 9: import in f()",
    ]


SCIPY_FOOTPRINT = """
import sys

import csgcompress, csgcompress.cli, csgcompress.pipeline
from csgcompress.geometry import CloudOracle, Leaf, TreeOracle, Union, sample_surface, sphere
from csgcompress.pipeline import compress

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

prims = (sphere("A", (0, 0, 0), 1.0), sphere("B", (1.5, 0, 0), 1.0))
tree = Union((Leaf("A"), Leaf("B")))
report = compress(prims, TreeOracle(tree, prims))
assert report.oracle_agreement == 1.0, report.oracle_agreement
assert not scipy_modules(), scipy_modules()[:5]
CloudOracle(sample_surface(tree, prims, 200, seed=0))
assert "scipy.spatial" in sys.modules, scipy_modules()
"""


def test_scipy_loads_only_for_a_cloud_oracle():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    run = subprocess.run([sys.executable, "-c", SCIPY_FOOTPRINT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
