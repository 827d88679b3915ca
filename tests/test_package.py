"""Package-level properties: how `import latstab` loads numpy, and the
premise that makes its one-thread BLAS load free."""

import ast
import os
import re
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


# the modules that own row lists, and so build their column tables
TABLE_OWNERS = {"gf2.py", "codes.py", "groups.py", "barrier.py"}
# gf2's GF(2) layer is Echelon and the column table; no wrapper re-factors
GF2_RETIRED = {"solve", "left_kernel", "extend_basis", "pairings", "intersect_spans"}


def _module_names(tree):
    """The names a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = [_defined_name(sub) for sub in ast.walk(node)]
        for name in names:
            if name is not None:
                yield node.lineno, name


def _pairing_helper_breaches(module, tree):
    # one GF(2) layer: gf2 alone defines transpose and keeps no wrapper
    # around Echelon or per-row pairings loop; only the row lists' owners
    # build column tables; only pauli calls PauliOp.commutes
    if module == "gf2.py":
        for line, name in _module_names(tree):
            if name in GF2_RETIRED:
                yield line, f"defines {name}"
    for node in ast.walk(tree):
        name = _defined_name(node)
        if name == "transpose" and module != "gf2.py":
            yield node.lineno, f"defines {name}"
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if called == "commutes" and module != "pauli.py":
                yield node.lineno, "calls .commutes("
            elif called == "transpose" and module not in TABLE_OWNERS:
                yield node.lineno, "calls transpose("


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
    ("gf2.py", "def solve(rows, target, ncols): pass", True),
    ("gf2.py", "def left_kernel(rows, ncols): pass", True),
    ("gf2.py", "def extend_basis(base_rows, candidates): pass", True),
    ("gf2.py", "def intersect_spans(rows_a, rows_b, ncols): pass", True),
    ("gf2.py", "from .other import solve", True),
    ("gf2.py", "class Echelon:\n    def solve(self, target): pass", False),
    ("groups.py", "def solve(rows, target, ncols): pass", False),
    ("groups.py", "def transpose(rows, ncols): pass", True),
    ("codes.py", "a.commutes(b)", True),
    ("gf2.py", "def transpose(rows, ncols): pass", False),
    ("pauli.py", "a.commutes(b)", False),
    ("codes.py", "from .gf2 import transpose\ntable = transpose(rows, 2 * n)", False),
    ("groups.py", "table = gf2.transpose(rows, 2 * n)", False),
    ("barrier.py", "table = transpose(rows, 2 * n)", False),
    ("pauli.py", "cols = transpose(rows, 2 * n)", True),
    ("metrics.py", "table = gf2.transpose(rows, 2 * n)", True),
])
def test_pairing_guard_catches(module, source, caught):
    assert bool(list(_pairing_helper_breaches(module, ast.parse(source)))) == caught


def _python_floor():
    """The (major, minor) floor of pyproject.toml's requires-python."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_package_parses_at_the_declared_python_floor():
    floor = _python_floor()
    for path in sorted(Path(latstab.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_syntax_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass", feature_version=_python_floor())
