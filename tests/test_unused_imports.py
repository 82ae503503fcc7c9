"""Every module-level import in the package is used by its own module.

No linter ships with the test dependencies, so this walks each module's
syntax tree with ``ast``.  ``__init__`` is left out: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

import scminor

MODULES = sorted(p for p in Path(scminor.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass\nfrom x import y as z\nprint(z)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: dataclass"]
