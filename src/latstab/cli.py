"""Batch command-line front end.

Every subcommand writes a deterministic JSON report (stable key order, no
timestamps) so reruns on identical input are byte-identical.  Exit codes:
0 success, 2 when any audited bound fails to hold (which would falsify the
implementation), 1 for usage, validation and capacity errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import re
import sys
from typing import Dict, List, Optional

from . import __version__
from .audit import audit_family, record_to_jsonable
from .barrier import barrier_exact
from .codes import CodeSpec, parse_code, serialize_code
from .config import Budgets
from .errors import CodeFormatError, LatstabError
from .geometry import Region
from .groups import get_structure
from .metrics import barrier_walk_bound, distance, linear_distance
from .transforms import (
    clean_stabilizer,
    clean_subsystem,
    minimal_block_search,
    restriction_audit,
    strip_sweep,
)
from .zoo import FAMILIES


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(command: str, input_desc: Dict, payload: Dict) -> Dict:
    return {
        "schema_version": 1,
        "tool": {"name": "latstab", "version": __version__},
        "command": command,
        "input": input_desc,
        **payload,
    }


def _emit(report: Dict, out: Optional[str]):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_code(path: str) -> tuple[CodeSpec, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise CodeFormatError(f"code file is not UTF-8: {e}")
    return parse_code(text), _digest(data)


def _parse_box(spec: str, lattice) -> Region:
    """Half-open per-axis ranges, e.g. '0:2,1:3'."""
    parts = spec.split(",")
    if len(parts) != lattice.D:
        raise LatstabError(f"box needs {lattice.D} ranges, got {len(parts)}")
    lo, hi = [], []
    for p in parts:
        m = re.fullmatch(r"(-?\d+):(-?\d+)", p.strip())
        if not m:
            raise LatstabError(f"bad range {p!r}; expected start:stop")
        lo.append(int(m.group(1)))
        hi.append(int(m.group(2)))
    return Region.from_box(lattice, lo, hi)


def _parse_sites(spec: str, lattice) -> Region:
    coords = []
    for m in re.finditer(r"\(([-0-9,\s]+)\)", spec):
        coords.append(tuple(int(t) for t in m.group(1).replace(" ", "").split(",")))
    if not coords:
        raise LatstabError(f"no sites found in {spec!r}")
    return Region.from_sites(lattice, coords)


def _region_arg(args, code) -> Region:
    if args.box:
        return _parse_box(args.box, code.lattice)
    if args.sites:
        return _parse_sites(args.sites, code.lattice)
    raise LatstabError("provide --box or --sites")


def _region_jsonable(code: CodeSpec, region: Region) -> List[List[int]]:
    return [list(c) for c in region.site_coords()]


def _budgets(args) -> Budgets:
    base = Budgets.from_env()
    return Budgets(
        weight_cap=args.weight_cap if args.weight_cap is not None else base.weight_cap,
        node_cap=args.node_cap if args.node_cap is not None else base.node_cap,
        mem_mb=args.mem_budget if args.mem_budget is not None else base.mem_mb,
    )


def _parse_L(spec: str) -> List[int]:
    if ".." in spec:
        a, b = spec.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(t) for t in spec.split(",")]


def _walk_jsonable(trace) -> Dict:
    return {
        "steps": [[q, letter] for q, letter in trace.steps],
        "profile": list(trace.profile),
        "eps_max": trace.eps_max,
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latstab",
        description="analysis of geometrically-local stabilizer/subsystem codes",
    )
    ap.add_argument("--version", action="version", version=f"latstab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, code=True):
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        p.add_argument("--weight-cap", type=int, default=None,
                       help="brute-force weight cap (default 6)")
        p.add_argument("--node-cap", type=int, default=None,
                       help="coset-node cap for exact barriers (default 2^24)")
        p.add_argument("--mem-budget", type=int, default=None,
                       help="memory budget in MiB for the transfer DP (default 4096)")
        if code:
            p.add_argument("--code", required=True, help="code file")

    p = sub.add_parser("zoo", help="emit a built-in code family instance")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--L", type=int, required=True,
                   help="linear size (block count for steane_chain)")
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--boundary", choices=["open", "periodic"], default=None)
    p.add_argument("--out", help="write the code file here (default: stdout)")

    p = sub.add_parser("validate", help="validate a code file")
    common(p)

    p = sub.add_parser("distance", help="exact code distance")
    common(p)
    p.add_argument("--mode", choices=["stabilizer", "subsystem", "bare"],
                   default="subsystem")
    p.add_argument("--method", choices=["auto", "dp", "bruteforce"], default="auto")
    p.add_argument("--axis", type=int, default=0)

    p = sub.add_parser("lindist", help="exact linear distance (axis window width)")
    common(p)
    p.add_argument("--mode", choices=["stabilizer", "subsystem", "bare"],
                   default="subsystem")
    p.add_argument("--axis", type=int, default=0)

    p = sub.add_parser("barrier", help="energy barrier (exact or walk bound)")
    common(p)
    p.add_argument("--method", choices=["exact", "walk"], default="exact")
    p.add_argument("--schedule", choices=["row_by_row", "arbitrary"],
                   default="row_by_row")
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--class-mask", type=int, default=None,
                   help="restrict targets to classes overlapping this used-pair bit mask")

    p = sub.add_parser("clean", help="clean a logical operator off a region")
    common(p)
    p.add_argument("--op", required=True, help="operator in text form")
    p.add_argument("--box", help="half-open region box, e.g. 0:2,1:3")
    p.add_argument("--sites", help="explicit site list, e.g. '(0,0) (0,1)'")

    p = sub.add_parser("sweep", help="strip sweep: certified small-extent logical")
    common(p)
    p.add_argument("--axis", type=int, default=0)

    p = sub.add_parser("restrict-audit", help="restriction dichotomy and distance bound")
    common(p)
    p.add_argument("--box", help="half-open region box")
    p.add_argument("--sites", help="explicit site list")

    p = sub.add_parser("min-block", help="minimal contiguous block with a logical qubit")
    common(p)
    p.add_argument("--axis", type=int, default=0)

    p = sub.add_parser("audit", help="audit a family across sizes")
    common(p, code=False)
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--L", required=True, help="sizes: '2..4' or '2,3,4'")
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--boundary", choices=["open", "periodic"], default=None)
    p.add_argument("--csv", help="also write the flat CSV table here")
    p.add_argument("--jobs", type=int, default=1)
    return ap


def _cmd_zoo(args) -> int:
    kwargs = {}
    if args.D is not None:
        kwargs["D"] = args.D
    if args.boundary is not None:
        kwargs["boundary"] = args.boundary
    code = FAMILIES[args.family](args.L, **kwargs)
    text = serialize_code(code)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    code, digest = _load_code(args.code)
    r_actual, participation = code.validate_locality()
    st = get_structure(code)
    _emit(_report("validate", {"code": args.code, "digest": digest}, {
        "result": {
            "name": code.name,
            "role": code.role,
            "n": code.n,
            "generators": len(code.generators),
            "r_declared": code.declared_r,
            "r_actual": r_actual,
            "max_participation": participation,
            "k": st.k,
            "g": st.g,
            "s": st.s,
        },
    }), args.out)
    return 0


def _cmd_distance(args) -> int:
    code, digest = _load_code(args.code)
    budgets = _budgets(args)
    res = distance(code, args.mode, axis=args.axis, method=args.method, budgets=budgets)
    payload = {
        "result": {
            "value": res.value,
            "status": res.status,
            "mode": res.mode,
            "method": res.method,
            "lower_bound": res.lower_bound,
            "witness": code.format_op(res.witness) if res.witness else None,
        }
    }
    _emit(_report("distance", {"code": args.code, "digest": digest}, payload), args.out)
    return 0


def _cmd_lindist(args) -> int:
    code, digest = _load_code(args.code)
    res = linear_distance(code, axis=args.axis, mode=args.mode)
    _emit(_report("lindist", {"code": args.code, "digest": digest}, {
        "result": {
            "value": res.value,
            "status": res.status,
            "axis": res.axis,
            "witness": code.format_op(res.witness) if res.witness else None,
        },
    }), args.out)
    return 0


def _cmd_barrier(args) -> int:
    code, digest = _load_code(args.code)
    budgets = _budgets(args)
    if args.method == "exact":
        res = barrier_exact(code, mode="subsystem", class_mask=args.class_mask,
                            budgets=budgets)
        result = {
            "value": res.value,
            "status": res.status,
            "method": res.method,
            "walk": _walk_jsonable(res.witness) if res.witness else None,
        }
    else:
        sw = strip_sweep(code, axis=args.axis)
        res = barrier_walk_bound(code, sw.witness, args.schedule, axis=args.axis)
        result = {
            "value": res.value,
            "status": res.status,
            "method": res.method,
            "witness": code.format_op(sw.witness),
            "walk": _walk_jsonable(res.witness),
        }
    _emit(_report("barrier", {"code": args.code, "digest": digest},
                  {"result": result}), args.out)
    return 0


def _cmd_clean(args) -> int:
    code, digest = _load_code(args.code)
    region = _region_arg(args, code)
    op = code.parse_op(args.op)
    if code.role == "stabilizer":
        res = clean_stabilizer(code, op, region)
    else:
        res = clean_subsystem(code, op, region)
    result = {"outcome": res.outcome}
    if res.outcome == "cleaned":
        result["stabilizer"] = code.format_op(res.stabilizer)
        result["cleaned"] = code.format_op(res.cleaned)
        result["generator_indices"] = list(res.generator_indices)
    else:
        result["trapped"] = code.format_op(res.trapped)
    _emit(_report("clean", {
        "code": args.code, "digest": digest, "op": args.op,
        "region": _region_jsonable(code, region),
    }, {"result": result}), args.out)
    return 0


def _cmd_sweep(args) -> int:
    code, digest = _load_code(args.code)
    res = strip_sweep(code, axis=args.axis)
    _emit(_report("sweep", {"code": args.code, "digest": digest}, {
        "result": {
            "witness": code.format_op(res.witness),
            "extent": res.extent,
            "axis": res.axis,
            "method": res.method,
            "strip_widths": list(res.strip_widths),
            "class_bits": res.class_bits,
        },
    }), args.out)
    return 0


def _cmd_restrict_audit(args) -> int:
    code, digest = _load_code(args.code)
    region = _region_arg(args, code)
    budgets = _budgets(args)
    res = restriction_audit(code, region, budgets=budgets)
    holds = res.holds
    _emit(_report("restrict-audit", {
        "code": args.code, "digest": digest,
        "region": _region_jsonable(code, region),
    }, {
        "result": {
            "case": res.case,
            "k_M": res.k_M,
            "d_M": res.d_M,
            "d": res.d,
            "shell_qubits": res.shell_qubits,
            "inequality": "d_M >= d - shell_qubits",
            "holds": holds,
        },
    }), args.out)
    return 0 if holds else 2


def _cmd_min_block(args) -> int:
    code, digest = _load_code(args.code)
    budgets = _budgets(args)
    res = minimal_block_search(code, axis=args.axis, budgets=budgets)
    _emit(_report("min-block", {"code": args.code, "digest": digest}, {
        "result": {
            "found": res.found,
            "start": res.start,
            "width": res.width,
            "axis": res.axis,
            "k_M": res.k_M,
            "d_M": res.d_M,
            "d": res.d,
            "shell_qubits": res.shell_qubits,
            "checks": res.checks,
        },
    }), args.out)
    if res.found and not all(res.checks.values()):
        return 2
    return 0


def _cmd_audit(args) -> int:
    budgets = _budgets(args)
    L_values = _parse_L(args.L)
    records, family_checks = audit_family(
        args.family, L_values, D=args.D, boundary=args.boundary,
        budgets=budgets, jobs=args.jobs,
    )
    params = {"family": args.family, "L": L_values}
    if args.D is not None:
        params["D"] = args.D
    if args.boundary is not None:
        params["boundary"] = args.boundary
    digest = _digest(json.dumps(params, sort_keys=True).encode())
    all_checks = [c for rec in records for c in rec.checks] + family_checks
    failed = [c for c in all_checks if not c.holds]
    report = _report("audit", {**params, "digest": digest}, {
        "instances": [record_to_jsonable(rec) for rec in records],
        "family_checks": [
            {"name": c.name, "inequality": c.inequality, "lhs": c.lhs,
             "rhs": c.rhs, "holds": c.holds, "margin": c.margin}
            for c in family_checks
        ],
        "summary": {
            "checks_total": len(all_checks),
            "checks_failed": len(failed),
            "skipped": sum(len(rec.skipped) for rec in records),
        },
    })
    _emit(report, args.out)
    if args.csv:
        _write_csv(args.csv, args.family, records)
    return 2 if failed else 0


CSV_COLUMNS = ["family", "L", "n", "k", "r", "participation", "d", "d1",
               "barrier", "method", "margins"]


def _write_csv(path: str, family: str, records) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        margins = ";".join(f"{c.name}={c.margin}" for c in rec.checks)
        writer.writerow([
            family,
            rec.params.get("L"),
            rec.n,
            rec.k,
            rec.r_declared,
            rec.participation,
            rec.metrics.get("d"),
            rec.metrics.get("d1"),
            rec.metrics.get("barrier"),
            rec.metrics.get("barrier_method", rec.metrics.get("d_method")),
            margins,
        ])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


_HANDLERS = {
    "zoo": _cmd_zoo,
    "validate": _cmd_validate,
    "distance": _cmd_distance,
    "lindist": _cmd_lindist,
    "barrier": _cmd_barrier,
    "clean": _cmd_clean,
    "sweep": _cmd_sweep,
    "restrict-audit": _cmd_restrict_audit,
    "min-block": _cmd_min_block,
    "audit": _cmd_audit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except LatstabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
