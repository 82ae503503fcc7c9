"""Every module-level import in the package is used by its own module, and
every private module-level function or class is used by the package.

No linter ships with the test dependencies, so this walks each module's
syntax tree with ``ast``.  A private helper that only tests still reference
fails the second check.
"""

import ast
from pathlib import Path

import pytest

import scminor

PACKAGE = sorted(Path(scminor.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass\nfrom x import y as z\nprint(z)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: dataclass"]


def _unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes of ``sources`` (module name
    to source) whose name appears in no other module-level statement of any
    of them: as a name, an attribute or an imported name."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    names = []
    for _, node in statements:
        names.append(set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names[-1].add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names[-1].add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names[-1].update(alias.name for alias in sub.names)
    return [
        f"{module} line {node.lineno}: {node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in used for j, used in enumerate(names) if j != i)
    ]


def test_every_private_definition_is_referenced_in_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert _unreferenced_private_definitions(sources) == []


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a": "def _alone(k):\n    return _alone(k - 1)\n\nclass _Used: pass\n",
        "b": "from a import _Used\n\ndef _late(): pass\n\nX = _late\n",
    }
    assert _unreferenced_private_definitions(sources) == ["a line 1: _alone"]
