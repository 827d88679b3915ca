"""Package-level properties: how `import latstab` loads numpy, and the
premise that makes its one-thread BLAS load free."""

import ast
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import latstab

from conftest import run_optimized

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}

THREADS_AFTER_IMPORT = (
    "import os\n"
    "before = dict(os.environ)\n"
    "import latstab\n"
    "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before,\n"
    "      os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def test_import_loads_numpy_with_one_blas_thread():
    if not sys.platform.startswith("linux"):
        pytest.skip("counts the process's threads in /proc/self/task")
    if os.cpu_count() == 1 or len(os.sched_getaffinity(0)) == 1:
        pytest.skip("OpenBLAS starts no worker thread on one CPU")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas!r}, not OpenBLAS")
    unset = dict.fromkeys(BLAS_THREAD_VARS)
    assert run_optimized(THREADS_AFTER_IMPORT, unset) == ["1", "True", "None"]
    # a thread count the caller chose stays, in os.environ and in OpenBLAS
    preset = dict(unset, OPENBLAS_NUM_THREADS="2")
    assert run_optimized(THREADS_AFTER_IMPORT, preset) == ["2", "True", "2"]


def test_import_leaves_no_helper_names():
    assert not {"os", "sys", "numpy"} & set(vars(latstab))


def _blas_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in BLAS_NAMES):
            yield node.lineno, node.func.id
        elif isinstance(node, ast.ImportFrom) and (
                BLAS_NAMES & set((node.module or "").split("."))
                or BLAS_NAMES & {alias.name for alias in node.names}):
            yield node.lineno, f"from {node.module} import"


def test_package_calls_no_blas():
    # numpy is loaded with one BLAS thread because nothing here calls BLAS;
    # code that does must revisit that load in __init__.py first
    src = Path(latstab.__file__).parent
    uses = [f"{path.name}:{line} {what}"
            for path in sorted(src.glob("*.py"))
            for line, what in _blas_uses(ast.parse(path.read_text(), str(path)))]
    assert uses == []


@pytest.mark.parametrize("source", [
    "a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.linalg.solve(a, b)",
    "inner(a, b)", "np.einsum('ij,jk', a, b)", "from numpy.linalg import solve",
    "from numpy import tensordot",
])
def test_blas_guard_catches(source):
    assert list(_blas_uses(ast.parse(source)))


def _defined_name(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return node.id
    return None


def _pairing_helper_breaches(module, tree):
    # one pairing helper: gf2 alone builds column tables (transpose) and has
    # no per-row pairings loop; only pauli calls PauliOp.commutes
    for node in ast.walk(tree):
        name = _defined_name(node)
        if (name == "pairings" and module == "gf2.py"
                or name == "transpose" and module != "gf2.py"):
            yield node.lineno, f"defines {name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "commutes" and module != "pauli.py"):
            yield node.lineno, "calls .commutes("


def test_package_pairs_through_one_helper():
    src = Path(latstab.__file__).parent
    breaches = [f"{path.name}:{line} {what}"
                for path in sorted(src.glob("*.py"))
                for line, what in _pairing_helper_breaches(
                    path.name, ast.parse(path.read_text(), str(path)))]
    assert breaches == []


@pytest.mark.parametrize("module, source, caught", [
    ("gf2.py", "def pairings(v, rows): pass", True),
    ("gf2.py", "pairings = None", True),
    ("groups.py", "def transpose(rows, ncols): pass", True),
    ("codes.py", "a.commutes(b)", True),
    ("gf2.py", "def transpose(rows, ncols): pass", False),
    ("pauli.py", "a.commutes(b)", False),
    ("codes.py", "from .gf2 import transpose\ntable = transpose(rows, 2 * n)", False),
])
def test_pairing_guard_catches(module, source, caught):
    assert bool(list(_pairing_helper_breaches(module, ast.parse(source)))) == caught
