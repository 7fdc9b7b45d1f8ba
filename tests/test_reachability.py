"""Every top-level name in ``src/ternrc`` is used, and every dataclass field
is read outside its class, by the package or the benchmark, not only by
tests: API that nothing runs is deleted, not kept for its tests. The
benchmark tracer's lookup sites and the parameters its counters bind still
exist, only the output sink and the IDX writers write files, and every name
a module imports is used in that module."""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ternrc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _load_tracer():
    """``perfbench/tracer.py``, loaded read-only: no bytecode cache is
    written next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACER = _load_tracer()


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


#: parameters the tracer's counters bind by name, per layer
COUNTED = {"substrate.forward_batch": ("substrate", "batch"),
           "substrate.advance_drift": ("steps",), "optimizer.propose": ("n",),
           "baselines.lambda_sweep": ("grid", "folds")}


@pytest.mark.parametrize("site", TRACER.SITES, ids=[f"{m}.{a}" for m, a, _, _ in TRACER.SITES])
def test_tracer_site_resolves_with_its_counted_parameters(site):
    module, attr, layer, _ = site
    _, _, fn = TRACER._resolve(module, attr)
    params = list(inspect.signature(fn).parameters)
    assert set(COUNTED.get(layer, ())) <= set(params), f"{module}.{attr}{params}"
    if layer == "harness.BatchReadout.measure":
        # the sweep counter reads the mask as args[1] without binding
        assert params[:2] == ["self", "mask"]


#: (module, enclosing function) of every call that may write a file
WRITERS = {("harness.py", "_OutputSink.write"), ("tasks.py", "write_idx_images"),
           ("tasks.py", "write_idx_labels")}

_WRITE_CALLS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed",
                "savetxt", "dump"}


def _writes_file(call):
    f = call.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    if name != "open":
        return name in _WRITE_CALLS
    # builtin open(file, mode) or Path.open(mode): a mode other than a
    # constant read mode counts as a write
    args = call.args[1:] if isinstance(f, ast.Name) else call.args
    mode = args[0] if args else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return not (mode is None or isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _file_writes(node, scope=()):
    """Qualified scope of each file-writing call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _writes_file(child):
            yield ".".join(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _file_writes(child, scope + (child.name,) if named else scope)


def test_only_the_output_sink_and_idx_writers_write_files():
    found = {(path.name, scope) for path in MODULES
             for scope in _file_writes(ast.parse(path.read_text()))}
    assert found == WRITERS


def _imported(tree):
    """(name, line) of each name an import binds at any level of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
