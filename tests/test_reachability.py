"""Every top-level name in ``src/ternrc`` is used, and every dataclass field
is read outside its class, by the package or the benchmark, not only by
tests: API that nothing runs is deleted, not kept for its tests."""

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


def _referenced(word, path, first, last):
    """Whether the regex ``word`` matches in a package or benchmark module,
    outside lines ``first``-``last`` of ``path``, its own definition."""
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
              if not _referenced(re.compile(rf"\b{re.escape(name)}\b"), path, first, last)]
    assert not unused, f"{path.name}: nothing outside tests uses {unused}"


def _dataclass_fields(path):
    """(class, field, first line, last line) of each field of each top-level
    dataclass in ``path``, with the class's own line span."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, node.lineno, node.end_lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_dataclass_field_is_read_outside_its_class(path):
    unread = [f"{cls}.{name}" for cls, name, first, last in _dataclass_fields(path)
              if not _referenced(re.compile(rf"\.{re.escape(name)}\b"), path, first, last)]
    assert not unread, f"{path.name}: nothing outside tests reads {unread}"
