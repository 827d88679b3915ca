"""latstab benchmark: runs a workload, checks every output, prints the metrics.

    python3 perfbench/run.py --workload audit-cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                     # all three workloads, seed 0

Load is one client in a closed loop: one process at a time, each pass of a
workload's fixed job list in fresh interpreters, repeated until --seconds is
used up.  With --trace 0 the last line is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and it holds the
per-layer metrics.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import CodeCheck
from tracer import layer_metrics
from workloads import (
    AUDIT_FAMILIES,
    CLEAN_QUERIES,
    EXACT_CALLS,
    STRUCTURE_CODES,
    WORKLOADS,
    audit_job,
    exact_job,
    structure_job,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = BENCH / "pinned.json"

BUDGET_VARS = ("LATSTAB_WEIGHT_CAP", "LATSTAB_NODE_CAP", "LATSTAB_MEM_MB")
SETUP_PROBES = 4  # import-only processes before and again after the passes
RUN_DEADLINE_S = 170.0  # a child still running this long after the run began is killed

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("exact_share", "ratio"),
)


class Child:
    """One finished child process: clock readings, resources and payload."""

    def __init__(self, spec, deadline):
        env = {k: v for k, v in os.environ.items() if k not in BUDGET_VARS}
        argv = [sys.executable, str(BENCH / "child.py"), str(SRC), json.dumps(spec)]
        with open(WORK / "child.stderr", "w+b") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=WORK)
            watchdog = threading.Timer(max(1.0, deadline - t_spawn), proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        self.error = None
        self.payload = {}
        try:
            self.payload = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            self.error = f"child exited {proc.returncode}: {stderr.strip()[-400:]}"
        if proc.returncode != 0 and self.error is None:
            self.error = f"child exited {proc.returncode}: {stderr.strip()[-400:]}"
        p = self.payload
        self.setup_s = p["t_import"] - t_spawn if "t_import" in p else None
        self.wall_s = p.get("t_end", time.monotonic()) - t_spawn
        self.cpu_s = p.get("cpu_s", usage.ru_utime + usage.ru_stime)
        self.maxrss_kb = p.get("maxrss_kb", usage.ru_maxrss)
        self.spans = p.get("spans", [])
        self.import_s = p.get("import_s", 0.0)


class Pass:
    """Totals of one pass of a workload's job list."""

    def __init__(self, children, outputs, failures, attempted, exact, requested):
        self.children = children
        self.outputs = outputs
        self.failures = failures  # failed operation -> reason
        self.attempted = attempted
        self.wall_s = sum(c.wall_s for c in children)
        self.cpu_s = sum(c.cpu_s for c in children)
        self.peak_rss_mb = max(c.maxrss_kb for c in children) / 1024
        self.exact = (exact, requested)
        self.exact_share = exact / requested


def _order(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def pass_audit(seed, trace, deadline):
    children, outputs, failures = [], {}, {}
    exact = requested = 0
    for family, sizes in _order(AUDIT_FAMILIES, seed):
        job = audit_job(family, sizes)
        out = WORK / f"audit-{family}.json"
        if out.exists():
            out.unlink()
        argv = ["audit", "--family", family, "--L", sizes, "--jobs", "1"]
        child = Child({"mode": "cli", "argv": argv, "out": str(out), "trace": trace}, deadline)
        children.append(child)
        if child.error or not out.exists():
            failures[job] = child.error or "no report written"
            continue
        data = out.read_bytes()
        outputs[job] = {"exit": child.payload["exit"], "sha256": hashlib.sha256(data).hexdigest()}
        for inst in json.loads(data)["instances"]:
            if inst["k"] > 0:
                m = inst["metrics"]
                requested += 3
                exact += m.get("d_method") in ("dp", "bruteforce")
                exact += m.get("d1") is not None
                exact += m.get("barrier_method") == "exact_bottleneck"
    return Pass(children, outputs, failures, len(AUDIT_FAMILIES), exact, max(requested, 1))


def pass_exact(seed, trace, deadline):
    # listed order whatever the seed: in one process the order moves the peak
    # RSS by up to 50% through what earlier calls leave allocated
    order = [(fn, fam, L) for fn, fam, L, _ in EXACT_CALLS]
    child = Child({"mode": "exact-search", "order": order, "trace": trace}, deadline)
    outputs = child.payload.get("results", {})
    failures = {"exact-search": child.error} if child.error else {}
    exact = sum(1 for r in outputs.values() if r.get("status") == "exact")
    return Pass([child], outputs, failures, len(EXACT_CALLS), exact, len(EXACT_CALLS))


def pass_structure(seed, trace, deadline):
    # listed order whatever the seed, so that only the cleaning queries vary
    order = list(STRUCTURE_CODES)
    child = Child({"mode": "structure-large", "order": order, "seed": seed, "trace": trace},
                  deadline)
    outputs = child.payload.get("results", {})
    failures = {"structure-large": child.error} if child.error else {}
    codes = {job: CodeCheck(info) for job, info in child.payload.get("codes", {}).items()}
    cleans = child.payload.get("cleans", [])
    for i in range(CLEAN_QUERIES):
        if i >= len(cleans):
            failures[f"clean[{i}]"] = "not run"
            continue
        rec = cleans[i]
        reason = rec.get("error") or codes[rec["code"]].clean_error(rec)
        if reason:
            failures[f"clean[{i}]"] = f"{rec['code']} box {rec['lo']}..{rec['hi']}: {reason}"
    exact = sum(1 for r in outputs.values() if r.get("lindist", {}).get("status") == "exact")
    attempted = len(STRUCTURE_CODES) + CLEAN_QUERIES
    return Pass([child], outputs, failures, attempted, exact, len(STRUCTURE_CODES))


PASSES = {"audit-cli": pass_audit, "exact-search": pass_exact, "structure-large": pass_structure}


def expected_jobs(workload):
    if workload == "audit-cli":
        return [audit_job(f, s) for f, s in AUDIT_FAMILIES]
    if workload == "exact-search":
        return [exact_job(fn, f, L) for fn, f, L, _ in EXACT_CALLS]
    return [structure_job(f, L) for f, L in STRUCTURE_CODES]


def compare(workload, p, pins):
    """Add a failure, by job name, for every output that differs from its pin.

    A crashed child leaves its whole-process reason under the workload's name;
    that entry is then replaced by one failure per job it took down.
    """
    crash = p.failures.pop(workload, None)
    for job in expected_jobs(workload):
        got, want = p.outputs.get(job), pins.get(job)
        if job in p.failures:
            continue
        if got is None:
            p.failures[job] = f"no output ({crash})" if crash else "no output"
        elif got != want:
            p.failures[job] = (f"output differs from the pinned result: "
                               f"got {json.dumps(got)[:300]} want {json.dumps(want)[:300]}")


def _environment(setup_child):
    env = dict(setup_child.payload.get("env", {}))
    env["nproc"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    return env


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    pins = json.loads(PINS.read_text())[workload]
    warm = Child({"mode": "setup"}, deadline)  # also compiles bytecode on a fresh tree
    if warm.error:
        raise SystemExit(f"cannot import latstab from {SRC}: {warm.error}")
    probes = [Child({"mode": "setup"}, deadline) for _ in range(SETUP_PROBES)]
    run_pass = PASSES[workload]
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        # with tracing on, an untraced and a traced pass alternate, so their
        # difference is the tracing overhead under the same machine load
        for is_traced in ((False, True) if trace else (False,)):
            p = run_pass(seed, is_traced, deadline)
            compare(workload, p, pins)
            (traced if is_traced else plain).append(p)
        elapsed = time.monotonic() - t0
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds or time.monotonic() + per_round > deadline - 10:
            break
    probes += [Child({"mode": "setup"}, deadline) for _ in range(SETUP_PROBES)]
    passes = plain + traced
    setups = [c.setup_s for c in probes + [c for p in plain for c in p.children]
              if c.setup_s is not None]
    failures = [f"pass {i}: {job}: {why}" for i, p in enumerate(passes)
                for job, why in p.failures.items()]
    attempted = sum(p.attempted for p in passes)
    # The machine's speed switches between two levels for seconds to minutes
    # at a time.  The median of a few passes lands on one level or the other,
    # while the mean over every pass of the run averages them; so the two
    # times are means and the rest medians.
    end_to_end = {
        "wall_s": statistics.mean(p.wall_s for p in plain),
        "cpu_s": statistics.mean(p.cpu_s for p in plain),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        "setup_s": statistics.median(setups),
        "exact_share": statistics.median(p.exact_share for p in plain),
    }
    layers = None
    if trace:
        per_pass = [layer_metrics([(c.spans, c.import_s) for c in p.children], p.wall_s)
                    for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.mean(p.wall_s for p in traced)
                                      - end_to_end["wall_s"])
        _write_spans(workload, seed, traced)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": _environment(warm), "passes": plain, "traced": traced, "setups": setups,
        "failures": failures, "attempted": attempted, "end_to_end": end_to_end,
        "layers": layers, "elapsed": time.monotonic() - start,
    }


def _write_spans(workload, seed, traced):
    path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, p in enumerate(traced):
            for j, c in enumerate(p.children):
                for job, name, parent, start, end, attrs in c.spans:
                    fh.write(json.dumps({"pass": i, "process": j, "job": job, "name": name,
                                         "parent": parent, "start": start, "end": end,
                                         "attrs": attrs}) + "\n")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def report(res):
    """Human-readable lines; the JSON result line is printed by the caller."""
    env = res["env"]
    plain = res["passes"]
    n = len(plain)
    walls = [p.wall_s for p in plain]
    exact, requested = plain[0].exact
    e2e = res["end_to_end"]
    failed = len(res["failures"])
    lines = [
        f"== {res['workload']}  seed={res['seed']}  seconds={res['seconds']}  "
        f"trace={int(res['trace'])}",
        f"env python={env.get('python')} numpy={env.get('numpy')} latstab={env.get('latstab')} "
        f"nproc={env['nproc']} cpu={env['cpu']!r} budgets={json.dumps(env.get('budgets'))}",
        f"load: closed loop, 1 client, 1 process at a time; {n} untraced passes"
        + (f" + {len(res['traced'])} traced" if res["trace"] else "")
        + f" in {res['elapsed']:.1f} s",
        f"  wall_s       {e2e['wall_s']:10.4f} s      mean of {n} passes "
        f"(median {statistics.median(walls):.4f}, min {min(walls):.4f}, max {max(walls):.4f})",
        f"  cpu_s        {e2e['cpu_s']:10.4f} s      mean of {n} passes, all processes",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MB     median of {n} per-pass peaks",
        f"  setup_s      {e2e['setup_s']:10.4f} s      median of {len(res['setups'])} "
        f"interpreter starts to `import latstab`",
        f"  exact_share  {e2e['exact_share']:10.4f} ratio  {exact}/{requested} exact "
        f"quantities per pass",
        f"  error_share  {failed / res['attempted']:10.4f} ratio  {failed} failed of "
        f"{res['attempted']} operations",
    ]
    for f in res["failures"][:20]:
        lines.append(f"  FAIL {f}")
    if failed > 20:
        lines.append(f"  ... and {failed - 20} more failures")
    if res["layers"]:
        lines.append(f"  per-layer (median of {len(res['traced'])} traced passes):")
        for k, v in res["layers"].items():
            lines.append(f"    {k:32s} {v:14.6f} {_unit(k)}")
    return lines


def result_json(res):
    if res["layers"] is not None:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res["end_to_end"][k], "unit": u} for k, u in END_TO_END}
    failed = len(res["failures"])
    return {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all three, human-readable)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latstab" / "__init__.py").is_file():
        print(f"error: no latstab sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report(res)), flush=True)
        results.append(res)
    if args.workload:
        print(json.dumps(result_json(results[0])))
    else:
        summary = {r["workload"]: result_json(r) for r in results}
        print(json.dumps({
            "correct": all(s["correct"] for s in summary.values()),
            "attempted": sum(s["attempted"] for s in summary.values()),
            "failed": sum(s["failed"] for s in summary.values()),
            "workloads": summary,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
