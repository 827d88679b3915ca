"""Family-level audits: compute metrics over a range of sizes and check every
applicable bound, emitting deterministic report records.

Checks carry a self-contained inequality string plus lhs/rhs/margin so a
failing row pinpoints the violated bound.  Asymptotic statements are reduced
to finite-size evidence (constancy of the barrier column over the tested
range) and labeled as such.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .barrier import barrier_exact
from .codes import STABILIZER, CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import CapacityError, LatstabError, ValidationError
from .groups import get_structure
from .metrics import barrier_walk_bound, distance, linear_distance
from .transforms import minimal_block_search, strip_sweep
from .zoo import FAMILIES


@dataclass(frozen=True)
class Check:
    name: str
    inequality: str
    lhs: int
    rhs: int
    holds: bool
    margin: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "margin", self.rhs - self.lhs)


@dataclass
class InstanceRecord:
    family: str
    name: str
    params: Dict
    n: int
    k: int
    g: int
    s: int
    r_declared: int
    r_actual: int
    participation: int
    metrics: Dict = field(default_factory=dict)
    witnesses: Dict = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    skipped: List[Dict] = field(default_factory=list)


def _center_is_local(code: CodeSpec) -> bool:
    """Whether the stabilizer center has a generating set of r-local rows.

    The computed echelon basis rows are a sufficient witness when local; a
    nonlocal basis row does not prove nonlocality in general, but for the
    audit this conservative test only widens the bound that gets checked.
    """
    return all(code.support_extent(op.support()) <= code.declared_r
               for op in get_structure(code).S.ops())


def audit_instance(family: str, code: CodeSpec, params: Dict,
                   budgets: Budgets = DEFAULT_BUDGETS) -> InstanceRecord:
    st = get_structure(code)
    r_actual, participation = code.validate_locality()
    lat = code.lattice
    rec = InstanceRecord(
        family=family,
        name=code.name,
        params=params,
        n=code.n,
        k=st.k,
        g=st.g,
        s=st.s,
        r_declared=code.declared_r,
        r_actual=r_actual,
        participation=participation,
    )
    r = code.declared_r
    cross = lat.L ** (lat.D - 1)

    dres = distance(code, "subsystem", budgets=budgets)
    d, d_method, d_witness = dres.value, dres.method, dres.witness
    if dres.status == "lower_bound":
        d_method = f"lower_bound>{dres.lower_bound - 1}"
    elif dres.status == "no_logicals":
        d_method = None
    rec.metrics["d"] = d
    rec.metrics["d_method"] = d_method
    if d_witness is not None:
        rec.witnesses["d"] = code.format_op(d_witness)
    if d is None:
        rec.skipped.append({"what": "distance", "reason": d_method or "no logical qubits"})
    else:
        if code.role == STABILIZER or _center_is_local(code):
            rec.checks.append(Check(
                "distance_linear_size_bound", "d <= r*L^(D-1)", d, r * cross, d <= r * cross
            ))
        rec.checks.append(Check(
            "subsystem_distance_bound", "d <= 3*r*L^(D-1)", d, 3 * r * cross,
            d <= 3 * r * cross,
        ))

    lres = linear_distance(code, axis=0, mode="subsystem")
    rec.metrics["d1"] = lres.value
    if lres.witness is None:
        rec.skipped.append({"what": "d1", "reason": "no logical qubits"})
    else:
        rec.witnesses["d1"] = code.format_op(lres.witness)
        if lat.L >= 2 * (r - 1) ** 2:
            rec.checks.append(Check(
                "linear_distance_bound", "d1 <= r", lres.value, r, lres.value <= r
            ))

    # exact barrier when the coset graph fits
    exact_barrier = None
    if st.k == 0:
        rec.skipped.append({"what": "barrier", "reason": "no logical qubits"})
    else:
        try:
            bres = barrier_exact(code, budgets=budgets)
        except CapacityError as e:
            rec.skipped.append({"what": "barrier_exact", "reason": e.reason})
        else:
            exact_barrier = bres.value
            rec.metrics["barrier"] = bres.value
            rec.metrics["barrier_method"] = bres.method
            if bres.witness is not None:
                rec.witnesses["barrier_walk_target"] = code.format_op(bres.witness.final)

    # quasi-1D string walk bound via the strip sweep (2D families); a lattice
    # too short for the strip partition is the sweep's own skip reason
    sweep_bound = None
    if st.k > 0 and lat.D == 2:
        try:
            sw = strip_sweep(code, axis=0)
            wb = barrier_walk_bound(code, sw.witness, "row_by_row", axis=0)
            sweep_bound = wb.value
            rec.metrics["barrier_walk_bound"] = wb.value
            rec.metrics["sweep_extent"] = sw.extent
            rec.witnesses["sweep"] = code.format_op(sw.witness)
            rec.checks.append(Check(
                "sweep_extent_bound", "extent <= r", sw.extent, r, sw.extent <= r
            ))
        except LatstabError as e:
            rec.skipped.append({"what": "strip_sweep", "reason": str(e)})
    if exact_barrier is None and sweep_bound is not None:
        rec.metrics["barrier"] = sweep_bound
        rec.metrics["barrier_method"] = "walk_row_by_row_upper_bound"

    # naive chain: exact barrier <= arbitrary-order walk on a min-weight
    # witness <= 2 * participation * d
    if exact_barrier is not None and d is not None and d_witness is not None:
        wb = barrier_walk_bound(code, d_witness, "arbitrary")
        rec.metrics["barrier_naive_walk"] = wb.value
        rec.checks.append(Check(
            "barrier_vs_naive_walk", "barrier <= walk(min-weight witness)",
            exact_barrier, wb.value, exact_barrier <= wb.value,
        ))
        rec.checks.append(Check(
            "naive_walk_vs_participation", "walk <= 2*participation*d",
            wb.value, 2 * participation * d, wb.value <= 2 * participation * d,
        ))

    # 1D bit-flip sector barrier (the classical-memory no-go column)
    if lat.D == 1 and code.role == STABILIZER and st.k > 0 and exact_barrier is not None:
        bflip = barrier_exact(code, class_mask=0b01, budgets=budgets)
        rec.metrics["barrier_xbar_class"] = bflip.value

    # 1D gauge families: minimal-block procedure
    if lat.D == 1 and code.role != STABILIZER:
        mb = minimal_block_search(code, axis=0, budgets=budgets)
        if mb.found:
            rec.metrics["min_block_width"] = mb.width
            rec.metrics["min_block_distance"] = mb.d_M
            rec.checks.append(Check(
                "min_block_distance_bound", "d_M <= r", mb.d_M, r, mb.d_M <= r
            ))
            rec.checks.append(Check(
                "min_block_overall_bound", "d <= d_M + shell <= 3r",
                mb.d if mb.d is not None else -1, 3 * r,
                mb.checks.get("d <= 3r*L^(D-1)", False)
                and mb.checks.get("d <= d_M + shell", False),
            ))
    return rec


def family_kwargs(family: str, D: Optional[int], boundary: Optional[str]) -> Dict:
    """The optional family-builder arguments that were given; an argument
    the family's builder does not take is a ValidationError."""
    if family not in FAMILIES:
        raise LatstabError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    kwargs = {key: v for key, v in (("D", D), ("boundary", boundary)) if v is not None}
    accepted = inspect.signature(FAMILIES[family]).parameters
    for key in kwargs:
        if key not in accepted:
            raise ValidationError(f"family {family!r} takes no {key} argument")
    return kwargs


def build_family_code(family: str, L: int, D: Optional[int] = None,
                      boundary: Optional[str] = None) -> CodeSpec:
    return FAMILIES[family](L, **family_kwargs(family, D, boundary))


def audit_family(
    family: str,
    L_values: Sequence[int],
    D: Optional[int] = None,
    boundary: Optional[str] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
    jobs: int = 1,
) -> Tuple[List[InstanceRecord], List[Check]]:
    """Audit one family across sizes; returns instance records plus the
    cross-size checks (finite-L constancy of the barrier column)."""
    kwargs = family_kwargs(family, D, boundary)
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    tasks = [(family, L, kwargs, budgets) for L in L_values]
    # the pool forks all its workers at the first submit: one per size at most
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_audit_task, tasks))
    else:
        records = [_audit_task(t) for t in tasks]
    family_checks: List[Check] = []
    barriers = [
        (rec.params["L"], rec.metrics["barrier"])
        for rec in records
        if rec.metrics.get("barrier") is not None and rec.params["L"] >= 3
    ]
    if len(barriers) >= 2:
        values = [b for _, b in barriers]
        family_checks.append(Check(
            "barrier_constant_over_tested_range",
            "max(barrier) - min(barrier) == 0 for tested L >= 3 (finite-size evidence only)",
            max(values) - min(values), 0, max(values) == min(values),
        ))
    return records, family_checks


def _audit_task(task) -> InstanceRecord:
    family, L, kwargs, budgets = task
    return audit_instance(family, FAMILIES[family](L, **kwargs), {"L": L, **kwargs}, budgets)

