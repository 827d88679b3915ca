"""The names and outputs the benchmark harness in perfbench/ relies on.

The harness wraps layer entry points and calls library functions by name,
from outside the program, so a rename or a deletion in latstab would only
show up as a broken `perfbench/run.py --trace 1` or a failed pass.  The
harness modules are plain data and are loaded here by path, unchanged; its
child process is run here as the harness runs it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import latstab
import latstab.codes
from latstab.config import Budgets
from latstab.zoo import FAMILIES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(latstab.__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.ENTRY_POINTS])
def test_traced_entry_point_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"latstab.{module}"), attr, None))


@pytest.mark.parametrize("name", tracer.ZOO_BUILDERS)
def test_traced_zoo_builder_exists(name):
    assert callable(getattr(importlib.import_module("latstab.zoo"), name, None))


@pytest.mark.parametrize("fn, family",
                         sorted({(fn, fam) for fn, fam, _, _ in workloads.EXACT_CALLS}))
def test_exact_call_exists(fn, family):
    assert callable(getattr(latstab, fn, None))
    assert family in FAMILIES


def test_traced_method_exists():
    assert callable(latstab.codes.CodeSpec.validate_locality)


def test_workload_families_exist():
    used = [family for family, _ in workloads.AUDIT_FAMILIES + workloads.STRUCTURE_CODES]
    assert set(used) <= set(FAMILIES)


@pytest.mark.parametrize("path", [Path(__file__).resolve().parent / "conftest.py",
                                  PERFBENCH / "checks.py"], ids=["conftest", "checks"])
def test_oracles_import_only_parity_from_gf2(path):
    """The oracles check the elimination kernel, so they must not run on it."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("latstab.gf2", "gf2"):
            assert [a.name for a in node.names] == ["parity"], ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "latstab":
            assert "gf2" not in [a.name for a in node.names], ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("latstab.gf2") for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr == "gf2":
            raise AssertionError(f"{path.name} reaches latstab.gf2 by attribute: "
                                 f"{ast.unparse(node)}")


def _run_child(spec, cwd):
    """One harness child on this checkout; its stdout must be one JSON payload."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(SRC), json.dumps(spec)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout[:300]
    return json.loads(lines[0])


def test_setup_child_reports_every_budget(tmp_path):
    env = _run_child({"mode": "setup"}, tmp_path)["env"]
    assert set(env["budgets"]) == {f.name for f in dataclasses.fields(Budgets)}
    assert env["budgets"] == dataclasses.asdict(Budgets())


def test_exact_search_child_matches_pins(tmp_path):
    order = [(fn, fam, L) for fn, fam, L, _ in workloads.EXACT_CALLS]
    payload = _run_child({"mode": "exact-search", "order": order, "trace": True}, tmp_path)
    pins = json.loads((PERFBENCH / "pinned.json").read_text())["exact-search"]
    assert payload["results"] == {workloads.exact_job(*call): pins[workloads.exact_job(*call)]
                                  for call in order}
    # the tracer reads each engine's counters by stats key, 0 when absent
    counters = {"metrics.distance_dp": "front_peak", "metrics.distance_bruteforce": "examined",
                "barrier.barrier_exact": "nodes"}
    seen = set()
    for job, name, _, _, _, extra in payload["spans"]:
        if name in counters and "error" not in extra:
            assert extra[counters[name]] > 0, (job, name, extra)
            seen.add(name)
    assert seen == set(counters)
