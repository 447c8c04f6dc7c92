"""Every module-level import of the package is used by its module, and
no function imports.

``__init__.py`` is exempt from the first check (its imports are
re-exports), and so is ``from __future__``.  The one import inside a
function is ``GroupSpec.word_problem``'s: the navigator imports
``presentations``, so ``presentations`` cannot import it at load time."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "catdistort"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTION_IMPORTS = {("presentations.py", "word_problem")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def function_imports(source: str) -> list[str]:
    """Names of the functions that hold an import statement."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, (ast.Import, ast.ImportFrom))
                for stmt in fn.body for n in ast.walk(stmt)):
            found.append(fn.name)
    return found


def test_checker_sees_an_unused_import():
    src = "from __future__ import annotations\nimport json\nimport os\nos.sep\n"
    assert unused_imports(src) == ["json"]


def test_checker_sees_a_function_import():
    src = ("import os\n\ndef f():\n    import json\n    return json\n\n"
           "class C:\n    @property\n    def g(self):\n"
           "        if os.sep:\n            from math import pi\n"
           "            return pi\n")
    assert function_imports(src) == ["f", "g"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(MODULES + ["__init__.py"]))
def test_no_function_imports(module):
    found = function_imports((SRC / module).read_text())
    assert [f for f in found if (module, f) not in FUNCTION_IMPORTS] == []
