"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_concurrent_futures():
    code = "import sys, simsub.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
