"""Module layering: `core` sits at the bottom of the package, and the
engine (`transform`, `reduction`, `resolution`) below the input/output
modules.

`transform`, `reduction` and the rest import `core`; an import the other
way, even one deferred into a function body, would make a cycle.  The
engine computes and leaves reading, writing and digesting to `serialize`
and `cli`, which import it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import monored

PACKAGE = Path(monored.__file__).resolve().parent
CORE = PACKAGE / "core.py"


def monored_imports(tree: ast.AST) -> set[str]:
    """The `monored` modules a module imports anywhere, relative imports
    resolved against the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module == "monored":
                names = [f"monored.{alias.name}" for alias in node.names]
            elif not node.level:
                names = [node.module]
            elif node.module:
                names = [f"monored.{node.module}"]
            else:
                names = [f"monored.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n for n in names if n == "monored" or n.startswith("monored."))
    return found


def test_core_imports_only_errors():
    tree = ast.parse(CORE.read_text(encoding="utf-8"))
    assert monored_imports(tree) == {"monored.errors"}


def test_deferred_imports_are_seen():
    tree = ast.parse(
        "def f():\n    from .transform import blow_up_global\n"
        "def g():\n    import monored.reduction\n"
        "def h():\n    from . import serialize\n"
        "def k():\n    from monored import cli\n"
    )
    assert monored_imports(tree) == {
        "monored.transform",
        "monored.reduction",
        "monored.serialize",
        "monored.cli",
    }


@pytest.mark.parametrize("module", ["transform", "reduction", "resolution"])
def test_engine_imports_neither_serialize_nor_cli(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert not monored_imports(tree) & {"monored.serialize", "monored.cli"}
