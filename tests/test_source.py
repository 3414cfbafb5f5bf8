"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "simsub"


def test_src_has_no_assert_statements():
    # invariant checks raise errors; python -O removes assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def _pool_imports(tree):
    """Lines that import concurrent.futures or reach threading.Thread."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.startswith("concurrent") or name == "threading.Thread" for name in names):
            yield node.lineno


def test_src_starts_no_threads():
    # the oracles walk on the calling thread; the caches stay safe for callers
    # that bring their own threads
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        lines = list(_pool_imports(ast.parse(path.read_text(), filename=str(path))))
        assert not lines, f"{path.name}: thread pool import at lines {lines}"


def _imports_of(tree, package):
    """Lines that import package or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            yield node.lineno


def test_src_imports_no_numpy():
    # the oracles are exact integer walks in pure Python
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        lines = list(_imports_of(ast.parse(path.read_text(), filename=str(path)), "numpy"))
        assert not lines, f"{path.name}: numpy import at lines {lines}"


def test_src_imports_no_dataclasses():
    # the value types are slotted classes: a dataclass execs its generated
    # methods at import, on every start-up
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = list(_imports_of(tree, "dataclasses"))
        assert not lines, f"{path.name}: dataclasses import at lines {lines}"


def _cli_import_loads(module):
    code = f"import sys, simsub.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_concurrent_futures():
    assert _cli_import_loads("concurrent.futures") == "False\n"


def test_cli_import_leaves_out_numpy():
    assert _cli_import_loads("numpy") == "False\n"


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "traceback"])
def test_cli_import_leaves_out_start_up_weight(module):
    # traceback is imported where exit code 3 prints one
    assert _cli_import_loads(module) == "False\n"


# names imported only so that perfbench/tracer.py can patch them where their
# callers look them up
_TRACER_SEAMS = {
    "catalog.py": {"convolve", "dirichlet_inverse", "scale_argument", "shift"},
    "cubic.py": {"canonical_associate"},
}


def _unused_imports(tree):
    """Names bound by an import and never read elsewhere in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_src_imports_no_unused_name():
    # __init__.py imports to re-export; every other module reads what it imports
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert paths
    for path in paths:
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        assert set(unused) == _TRACER_SEAMS.get(path.name, set()), f"{path.name}: {unused}"


_FLOAT_ATTRIBUTES = {"omega_float", "omega_conj_float", "embedding_float",
                     "conj_embedding_float"}


def _reachable_functions(tree, entry_points):
    """The module-level functions (and the methods of the classes) of the
    tree that the entry points reach by name, with the entry points."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
    reached, todo = set(), list(entry_points)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        todo.extend(node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name))
    return {name: defs[name] for name in reached}


def test_rotation_enumeration_reads_no_float():
    # the rotation oracle runs on integer pairs: floats only size the boxes of
    # quadratic.squares_under, and never decide a rotation or the budget
    tree = ast.parse((SRC / "cubic.py").read_text())
    path = _reachable_functions(tree, ("rotation_counts", "enumerate_rotations",
                                       "verify_rotation_counts", "check_rotation_budget"))
    assert {"_quaternions", "_primitive_quaternions", "_searches", "_rotations_of_norm",
            "check_rotation_budget", "Rotation3"} <= set(path)
    for name, node in path.items():
        floats = [sub.lineno for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and sub.attr in _FLOAT_ATTRIBUTES
                  or isinstance(sub, ast.Constant) and isinstance(sub.value, float)]
        assert not floats, f"cubic.{name}: float at lines {floats}"
