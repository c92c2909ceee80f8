"""Every name a module of ``src/hom3lie`` imports is used in that module.

The check reads each module with :mod:`ast`: a name bound by an import
must be read somewhere in the module, in code or in an annotation,
string annotations included.  ``__init__`` is exempt, since its imports
are the package's re-exports, and so is ``from __future__ import
annotations``, which binds no name the code reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hom3lie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's imports, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read(tree: ast.AST) -> set[str]:
    """The names the module reads, those in string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [a for node in ast.walk(tree) for a in (
        [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        else [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else [])]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported(tree).items() if name not in used]
    assert not unused, "imported but unused:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_name_and_a_string_annotation():
    tree = ast.parse("import os\nfrom typing import Any\ndef f(x: 'Any') -> None: pass\n")
    assert set(imported(tree)) - read(tree) == {"os"}
