"""Every top-level name in ``src/ternrc`` is used by the package or the
benchmark, not only by tests: API that nothing runs is deleted, not kept
for its tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ternrc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(path):
    """(name, first line, last line) of each top-level def, class and
    assignment in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def _referenced(name, path, first, last):
    """Whether ``name`` occurs as a word in a package or benchmark module,
    outside lines ``first``-``last`` of ``path``, its own definition."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    for user in USERS:
        lines = user.read_text().splitlines()
        if user == path:
            lines = lines[:first - 1] + lines[last:]
        if any(word.search(line) for line in lines):
            return True
    return False


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_top_level_name_is_used_outside_tests(path):
    unused = [name for name, first, last in _definitions(path)
              if not _referenced(name, path, first, last)]
    assert not unused, f"{path.name}: nothing outside tests uses {unused}"
