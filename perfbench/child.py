"""One fresh interpreter of a benchmark pass.

Usage: child.py SRC_DIR SPEC_JSON

SPEC_JSON names the mode:
  {"mode": "setup"}                         import latstab and stop
  {"mode": "cli", "argv": [...], "out": P}  run latstab.cli.main(argv)
  {"mode": "exact-search", "order": [...]}  the exact-search library calls
  {"mode": "structure-large", "order": [...], "seed": S}
plus "trace": true to record spans.  The child prints one JSON line with its
clock readings, the raw outputs and, when traced, its spans.  The harness
checks the outputs; nothing is checked here.
"""

import sys
import time

_t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])
import latstab  # noqa: E402

_t_import = time.monotonic()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

from workloads import (  # noqa: E402
    CLEAN_GENERATORS,
    CLEAN_QUERIES,
    CLEAN_SHAPE_SEED,
    exact_job,
    structure_job,
)


def _hex(op):
    return [format(op.x, "x"), format(op.z, "x")]


def _distance(code, res):
    return {"value": res.value, "status": res.status, "method": res.method,
            "witness": code.format_op(res.witness) if res.witness is not None else None}


def _barrier(code, res):
    out = {"value": res.value, "status": res.status, "method": res.method}
    if res.witness is not None:
        steps = json.dumps([list(s) for s in res.witness.steps]).encode()
        out["final"] = code.format_op(res.witness.final)
        out["eps_max"] = res.witness.eps_max
        out["steps_sha256"] = hashlib.sha256(steps).hexdigest()
    return out


def run_exact(ls, order):
    """Library calls on small codes; a CapacityError is an outcome, not a crash."""
    from latstab.errors import CapacityError
    from latstab.zoo import FAMILIES

    results = {}
    for fn, family, L in order:
        job = exact_job(fn, family, L)
        TRACER.job = job
        code = FAMILIES[family](L)
        try:
            res = getattr(ls, fn)(code)
        except CapacityError as e:
            results[job] = {"error": "CapacityError", "required": e.required, "cap": e.cap}
        except Exception as e:  # reported as a failed operation by the harness
            results[job] = {"error": f"{type(e).__name__}: {e}"}
        else:
            results[job] = (_barrier if fn == "barrier_exact" else _distance)(code, res)
    return results


def run_structure(ls, order, seed):
    """Cold structures and the polynomial layers, then a seeded cleaning batch
    against the now-warm structures of the stabilizer codes."""
    from latstab.zoo import FAMILIES

    results, codes = {}, {}
    for family, L in order:
        job = structure_job(family, L)
        TRACER.job = job
        out = results[job] = {}
        try:
            text = ls.serialize_code(FAMILIES[family](L))
            code = ls.parse_code(text)
            out["digest"] = hashlib.sha256(text.encode()).hexdigest()
            out["locality"] = list(code.validate_locality())
            st = ls.get_structure(code)
            out["nkgs"] = [code.n, st.k, st.g, st.s]
            ld = ls.linear_distance(code, axis=0)
            out["lindist"] = {"value": ld.value, "status": ld.status,
                              "witness": code.format_op(ld.witness) if ld.witness else None}
            if code.lattice.D == 2:
                sw = ls.strip_sweep(code, axis=0)
                out["sweep"] = {"witness": code.format_op(sw.witness), "extent": sw.extent,
                                "method": sw.method}
                out["walk"] = ls.barrier_walk_bound(code, sw.witness, "row_by_row", axis=0).value
        except Exception as e:
            out["error"] = f"{type(e).__name__}: {e}"
            continue
        if code.role == "stabilizer":
            codes[job] = (code, st)

    # Which code each query targets and its box's extents come from a fixed
    # generator, so every seed asks for the same amount of work; the seed
    # picks the operators and where the boxes sit.
    shape_rng = random.Random(CLEAN_SHAPE_SEED)
    rng = random.Random(seed)
    names = sorted(codes)
    queries = []
    for _ in range(CLEAN_QUERIES if names else 0):
        job = shape_rng.choice(names)
        code, st = codes[job]
        logicals = [p for pair in st.logicals.pairs for p in pair]
        op = ls.PauliOp.identity(code.n)
        while op.is_identity:
            for p in logicals:
                if rng.random() < 0.5:
                    op = op.mul(p)
        for g in rng.sample(range(len(code.generators)), CLEAN_GENERATORS):
            op = op.mul(code.generators[g])
        L = code.lattice.L
        extents = []
        for _ in range(code.lattice.D):
            a = shape_rng.randrange(L)
            extents.append(shape_rng.randint(a + 1, L) - a)
        lo = [rng.randint(0, L - e) for e in extents]
        hi = [a + e for a, e in zip(lo, extents)]
        queries.append((job, op, lo, hi))
    TRACER.job = "clean"
    cleans = []
    for job, op, lo, hi in queries:
        code = codes[job][0]
        rec = {"code": job, "op": _hex(op), "lo": lo, "hi": hi}
        try:
            res = ls.clean_stabilizer(code, op, ls.Region.from_box(code.lattice, lo, hi))
        except Exception as e:
            rec["error"] = f"{type(e).__name__}: {e}"
        else:
            rec["outcome"] = res.outcome
            if res.outcome == "cleaned":
                rec["stabilizer"] = _hex(res.stabilizer)
                rec["cleaned"] = _hex(res.cleaned)
                rec["generator_indices"] = list(res.generator_indices)
            else:
                rec["trapped"] = _hex(res.trapped)
        cleans.append(rec)
    return results, cleans, codes


class _NoTracer:
    job = ""
    spans = ()


def _stop():
    """Clock and resource readings the moment the pass's jobs have returned."""
    t_end = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"t_end": t_end,
            "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            "maxrss_kb": max(own.ru_maxrss, kids.ru_maxrss)}


def main():
    global TRACER
    spec = json.loads(sys.argv[2])
    mode = spec["mode"]
    t_start = time.monotonic()
    if mode == "cli":
        importlib.import_module("latstab.cli")
    payload = {"t_import": _t_import,
               "import_s": (_t_import - _t0) + (time.monotonic() - t_start)}
    TRACER = _NoTracer()
    if spec.get("trace"):
        from tracer import Tracer

        TRACER = Tracer()
        TRACER.install()

    if mode == "setup":
        payload.update(_stop())
        from latstab.config import DEFAULT_BUDGETS
        import numpy

        payload["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "latstab": latstab.__version__,
            "budgets": {"weight_cap": DEFAULT_BUDGETS.weight_cap,
                        "node_cap": DEFAULT_BUDGETS.node_cap,
                        "mem_mb": DEFAULT_BUDGETS.mem_mb},
        }
    elif mode == "cli":
        TRACER.job = " ".join(spec["argv"][:3])
        exit_code = latstab.cli.main(spec["argv"] + ["--out", spec["out"]])
        payload.update(_stop())
        payload["exit"] = exit_code
    elif mode == "exact-search":
        results = run_exact(latstab, spec["order"])
        payload.update(_stop())
        payload["results"] = results
    elif mode == "structure-large":
        results, cleans, codes = run_structure(latstab, spec["order"], spec["seed"])
        payload.update(_stop())
        payload["results"] = results
        payload["cleans"] = cleans
        payload["codes"] = {
            job: {"n": code.n,
                  "generators": [_hex(g) for g in code.generators],
                  "anchors": [list(code.anchor(q)) for q in range(code.n)]}
            for job, (code, st) in codes.items()
        }
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    payload["spans"] = list(TRACER.spans)
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
