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
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from . import __version__
from .audit import (
    audit_family,
    build_family_code,
    check_to_jsonable,
    family_kwargs,
    record_to_jsonable,
)
from .barrier import barrier_exact
from .codes import CodeSpec, parse_code, serialize_code
from .config import Budgets
from .errors import CodeFormatError, LatstabError
from .geometry import Region
from .groups import get_structure
from .metrics import WalkTrace, barrier_walk_bound, distance, linear_distance
from .pauli import PauliOp
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


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, input_desc: Dict, payload: Dict) -> None:
    report = {
        "schema_version": 1,
        "tool": {"name": "latstab", "version": __version__},
        "command": args.command,
        "input": input_desc,
        **payload,
    }
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def _load_code(path: str) -> tuple[CodeSpec, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise CodeFormatError(f"code file is not UTF-8: {e}")
    return parse_code(text), _digest(data)


def _jsonable(value, code: CodeSpec):
    """Report form of a result value: operators as code text, walks as
    steps/profile/eps_max, tuples as lists."""
    if isinstance(value, PauliOp):
        return code.format_op(value)
    if isinstance(value, WalkTrace):
        return _fields(value, code, "steps profile eps_max")
    if isinstance(value, (tuple, list)):
        return [_jsonable(v, code) for v in value]
    return value


def _fields(result, code: CodeSpec, names: str, **extra) -> Dict:
    """The named (space-separated) fields of a result plus extra fields, in
    report form."""
    picked = {name: getattr(result, name) for name in names.split()}
    return {key: _jsonable(v, code) for key, v in {**picked, **extra}.items()}


def _code_command(run: Callable) -> Callable:
    """Handler for a subcommand on --code: `run(args, code)` returns the extra
    input fields, the result and the exit code; the handler loads the code and
    emits the report."""

    def handler(args) -> int:
        code, digest = _load_code(args.code)
        input_extra, result, exit_code = run(args, code)
        _emit_report(args, {"code": args.code, "digest": digest, **input_extra},
                     {"result": result})
        return exit_code

    return handler


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
        try:
            coords.append(tuple(int(t) for t in m.group(1).replace(" ", "").split(",")))
        except ValueError:
            raise LatstabError(f"bad site {m.group(0)!r}; expected (c1,...,cD)") from None
    if not coords:
        raise LatstabError(f"no sites found in {spec!r}")
    return Region.from_sites(lattice, coords)


def _region_arg(args, code) -> Region:
    if args.box:
        return _parse_box(args.box, code.lattice)
    if args.sites:
        return _parse_sites(args.sites, code.lattice)
    raise LatstabError("provide --box or --sites")


def _budgets(args) -> Budgets:
    flags = {"weight_cap": args.weight_cap, "node_cap": args.node_cap,
             "mem_mb": args.mem_budget}
    return replace(Budgets.from_env(), **{k: v for k, v in flags.items() if v is not None})


def _parse_L(spec: str) -> List[int]:
    try:
        if ".." in spec:
            a, b = spec.split("..")
            return list(range(int(a), int(b) + 1))
        return [int(t) for t in spec.split(",")]
    except ValueError:
        raise LatstabError(f"bad --L {spec!r}; expected '2..4' or '2,3,4'") from None


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
    code = build_family_code(args.family, args.L, args.D, args.boundary)
    _write(serialize_code(code), args.out)
    return 0


@_code_command
def _cmd_validate(args, code):
    r_actual, participation = code.validate_locality()
    return {}, _fields(get_structure(code), code, "k g s", name=code.name, role=code.role,
                       n=code.n, generators=len(code.generators),
                       r_declared=code.declared_r, r_actual=r_actual,
                       max_participation=participation), 0


@_code_command
def _cmd_distance(args, code):
    res = distance(code, args.mode, axis=args.axis, method=args.method,
                   budgets=_budgets(args))
    return {}, _fields(res, code, "value status mode method lower_bound witness"), 0


@_code_command
def _cmd_lindist(args, code):
    res = linear_distance(code, axis=args.axis, mode=args.mode)
    return {}, _fields(res, code, "value status axis witness"), 0


@_code_command
def _cmd_barrier(args, code):
    if args.method == "exact":
        res = barrier_exact(code, mode="subsystem", class_mask=args.class_mask,
                            budgets=_budgets(args))
        return {}, _fields(res, code, "value status method", walk=res.witness), 0
    sw = strip_sweep(code, axis=args.axis)
    res = barrier_walk_bound(code, sw.witness, args.schedule, axis=args.axis)
    return {}, _fields(res, code, "value status method", witness=sw.witness,
                       walk=res.witness), 0


@_code_command
def _cmd_clean(args, code):
    region = _region_arg(args, code)
    op = code.parse_op(args.op)
    clean = clean_stabilizer if code.role == "stabilizer" else clean_subsystem
    res = clean(code, op, region)
    names = ("outcome stabilizer cleaned generator_indices" if res.outcome == "cleaned"
             else "outcome trapped")
    return ({"op": args.op, "region": _jsonable(region.site_coords(), code)},
            _fields(res, code, names), 0)


@_code_command
def _cmd_sweep(args, code):
    res = strip_sweep(code, axis=args.axis)
    return {}, _fields(res, code, "witness extent axis method strip_widths class_bits"), 0


@_code_command
def _cmd_restrict_audit(args, code):
    region = _region_arg(args, code)
    res = restriction_audit(code, region, budgets=_budgets(args))
    return ({"region": _jsonable(region.site_coords(), code)},
            _fields(res, code, "case k_M d_M d shell_qubits holds",
                    inequality="d_M >= d - shell_qubits"),
            0 if res.holds else 2)


@_code_command
def _cmd_min_block(args, code):
    res = minimal_block_search(code, axis=args.axis, budgets=_budgets(args))
    failed = res.found and not all(res.checks.values())
    return ({}, _fields(res, code, "found start width axis k_M d_M d shell_qubits checks"),
            2 if failed else 0)


def _cmd_audit(args) -> int:
    budgets = _budgets(args)
    L_values = _parse_L(args.L)
    records, family_checks = audit_family(
        args.family, L_values, D=args.D, boundary=args.boundary,
        budgets=budgets, jobs=args.jobs,
    )
    params = {"family": args.family, "L": L_values,
              **family_kwargs(args.family, args.D, args.boundary)}
    digest = _digest(json.dumps(params, sort_keys=True).encode())
    all_checks = [c for rec in records for c in rec.checks] + family_checks
    failed = [c for c in all_checks if not c.holds]
    _emit_report(args, {**params, "digest": digest}, {
        "instances": [record_to_jsonable(rec) for rec in records],
        "family_checks": [check_to_jsonable(c) for c in family_checks],
        "summary": {
            "checks_total": len(all_checks),
            "checks_failed": len(failed),
            "skipped": sum(len(rec.skipped) for rec in records),
        },
    })
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
    except (LatstabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
