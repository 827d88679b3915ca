"""Constructive lemma-level procedures: cleaning, strip sweep, restriction
audit, and the 1D/strip minimal-block search.

Every outcome is machine-checked before it is returned: cleaned results
verify triviality on the region and membership of the multiplier, trapped and
sweep witnesses verify containment, centralizer membership and a nonzero
logical class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .codes import GAUGE, STABILIZER, CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import (
    CapacityError,
    ContractViolation,
    LatstabError,
    NoLogicalQubitsError,
    PreconditionError,
    certify,
)
from .geometry import Region, axis_window_region, boundary_shell, strip_partition
from .gf2 import solve
from .groups import CosetReducer, contained_subgroup, get_structure
from .metrics import _window_logical_vectors, distance, linear_distance
from .pauli import PauliOp


@dataclass(frozen=True)
class CleanResult:
    outcome: str  # cleaned | trapped_logical
    stabilizer: Optional[PauliOp] = None
    cleaned: Optional[PauliOp] = None
    trapped: Optional[PauliOp] = None
    generator_indices: Tuple[int, ...] = ()


def _cleaned(st, op: PauliOp, mult: PauliOp, mask: int, used=()) -> CleanResult:
    cleaned = op.mul(mult)
    certify(cleaned.restrict(mask).is_identity, "cleaned operator still acts on the region")
    certify(st.in_S(mult), "cleaning multiplier is not a stabilizer")
    return CleanResult("cleaned", mult, cleaned, generator_indices=tuple(used))


def _trapped(code: CodeSpec, mask: int, exclude: str) -> CleanResult:
    """The lowest-(weight, vector) operator supported in the mask that commutes
    with the stabilizer group but lies outside S (exclude='S') or G ('G'),
    which must exist when the cleaning is unsolvable."""
    st = get_structure(code)
    basis = st.S if exclude == "S" else st.G
    cands = []
    for v in _window_logical_vectors(st, mask, "subsystem"):
        if not basis.contains_vec(v):
            op = PauliOp.from_vector(code.n, v)
            cands.append((op.weight(), v, op))
    certify(bool(cands), "unsolvable cleaning must leave a trapped logical")
    witness = min(cands, key=lambda t: (t[0], t[1]))[2]
    certify(witness.support_mask() & ~mask == 0, "trapped logical leaves the region")
    certify(st.is_logical(witness, "subsystem"), "trapped operator is not a logical")
    return CleanResult("trapped_logical", trapped=witness)


def clean_stabilizer(code: CodeSpec, op: PauliOp, region: Region) -> CleanResult:
    """Multiply a logical by a product of generators overlapping the region so
    the product acts trivially there, or exhibit a logical trapped inside.

    The multiplier uses only generators whose support overlaps the region;
    non-uniqueness is resolved by the deterministic echelon order.
    """
    if code.role != STABILIZER:
        raise ContractViolation("clean_stabilizer needs a stabilizer code")
    st = get_structure(code)
    if st.stab_syndrome_vec(op.vector):
        raise ContractViolation("operator is not in the centralizer of the stabilizer group")
    mask = code.qubit_mask_in(region)
    restricted = op.restrict(mask)
    if restricted.is_identity:
        return CleanResult("cleaned", PauliOp.identity(code.n), op)
    overlapping = [a for a, g in enumerate(code.generators) if g.support_mask() & mask]
    m2 = mask | (mask << code.n)
    rows = [code.generators[a].vector & m2 for a in overlapping]
    coeff = solve(rows, restricted.vector, 2 * code.n)
    if coeff is not None:
        mult = PauliOp.identity(code.n)
        used = []
        for i, a in enumerate(overlapping):
            if (coeff >> i) & 1:
                mult = mult.mul(code.generators[a])
                used.append(a)
        return _cleaned(st, op, mult, mask, used)
    return _trapped(code, mask, "S")


def clean_subsystem(code: CodeSpec, op: PauliOp, region: Region) -> CleanResult:
    """Subsystem cleaning: the multiplier ranges over the whole stabilizer
    center (which may have no local generators), so it is one global solve."""
    st = get_structure(code)
    if st.syndrome(op):
        raise ContractViolation("operator is not in the centralizer of the gauge group")
    mask = code.qubit_mask_in(region)
    restricted = op.restrict(mask)
    if restricted.is_identity:
        return CleanResult("cleaned", PauliOp.identity(code.n), op)
    m2 = mask | (mask << code.n)
    rows = [r & m2 for r in st.S.rows]
    coeff = solve(rows, restricted.vector, 2 * code.n)
    if coeff is not None:
        v = 0
        for i in range(len(rows)):
            if (coeff >> i) & 1:
                v ^= st.S.rows[i]
        return _cleaned(st, op, PauliOp.from_vector(code.n, v), mask)
    return _trapped(code, mask, "G")


@dataclass(frozen=True)
class SweepResult:
    witness: PauliOp
    extent: int
    axis: int
    method: str  # strip_sweep | strip_sweep_trapped | window_fallback
    strip_widths: Tuple[int, ...]
    class_bits: int


def _reduce_in_window(code: CodeSpec, op: PauliOp, mask: int) -> PauliOp:
    """Minimum-weight representative of op modulo gauge elements contained in
    the window (class and centralizer membership are preserved)."""
    st = get_structure(code)
    inside = contained_subgroup(st.G, mask)
    return PauliOp.from_vector(code.n, CosetReducer(inside.rows, code.n)(op.vector))


def strip_sweep(code: CodeSpec, axis: int = 0) -> SweepResult:
    """Produce a certified nontrivial logical with axis extent at most r by
    cleaning alternating strips and splitting the survivor across the others.

    Stabilizer codes clean strip by strip (each generator meets at most one
    cleaned strip, so later solves cannot recontaminate earlier ones); gauge
    codes clean all even strips in one joint solve over the center, then split
    using locality of the gauge generators.  Candidates from every starting
    logical are certified mechanically; the best (extent, weight, vector) wins.
    If nothing certifies, an exact minimal-window scan supplies the witness.
    """
    st = get_structure(code)
    if st.k == 0:
        raise NoLogicalQubitsError(f"{code.name} has no logical qubits")
    r = max(code.declared_r, 2)
    if code.lattice.L < 2 * (r - 1) ** 2:
        raise PreconditionError(
            f"strip sweep needs L >= 2*(r-1)^2 = {2 * (r - 1) ** 2}, got L={code.lattice.L}"
        )
    strips = strip_partition(code.lattice, r, axis)
    widths = tuple(s_.size // code.lattice.L ** (code.lattice.D - 1) for s_ in strips)
    odd_strips = strips[0::2]
    even_strips = strips[1::2]
    candidates: List[Tuple[int, int, int, PauliOp, str]] = []

    def consider(op: PauliOp, window_mask: int, method: str):
        if op.is_identity:
            return
        reduced = _reduce_in_window(code, op, window_mask)
        if reduced.is_identity or not st.is_logical(reduced, "subsystem"):
            return
        extent = code.bounding_extent(reduced, axis)
        candidates.append((extent, reduced.weight(), reduced.vector, reduced, method))

    start_ops = [p for pair in st.logicals.pairs for p in pair]
    for start in start_ops:
        if code.role == STABILIZER:
            cur = start
            trapped = None
            for strip in even_strips:
                res = clean_stabilizer(code, cur, strip)
                if res.outcome == "trapped_logical":
                    trapped = res.trapped
                    break
                cur = res.cleaned
            if trapped is not None:
                consider(trapped, code.qubit_mask_in(strip), "strip_sweep_trapped")
                continue
        else:
            even_union = Region.empty(code.lattice)
            for strip in even_strips:
                even_union = even_union.union(strip)
            res = clean_subsystem(code, start, even_union)
            if res.outcome == "trapped_logical":
                consider(res.trapped, code.qubit_mask_in(even_union), "strip_sweep_trapped")
                continue
            cur = res.cleaned
        for strip in odd_strips:
            mask = code.qubit_mask_in(strip)
            consider(cur.restrict(mask), mask, "strip_sweep")
    candidates = [c for c in candidates if c[0] <= r]
    if candidates:
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        extent, _, _, witness, method = candidates[0]
        return SweepResult(witness, extent, axis, method, widths, st.class_bits(witness))
    # lemma route failed to certify (possible when the center is nonlocal and
    # cleaning traps a logical spread over several strips): fall back to the
    # exact minimal-window scan, which is still bounded by r when it returns
    lres = linear_distance(code, axis, "subsystem")
    if lres.status == "exact" and lres.value <= r and lres.witness is not None:
        return SweepResult(
            lres.witness, lres.value, axis, "window_fallback", widths,
            st.class_bits(lres.witness),
        )
    raise LatstabError(f"strip sweep found no certified witness of extent <= {r}")


@dataclass(frozen=True)
class RestrictionAuditResult:
    case: str  # no_logicals | distance_bound
    k_M: int
    d_M: Optional[int]
    d: Optional[int]
    shell_qubits: int
    holds: bool
    region_size: int


def compress_qubits(code: CodeSpec, qubit_mask: int, name: str) -> CodeSpec:
    """Code on the masked qubits only, generated by the restrictions of the
    declared generators (duplicates and identities dropped)."""
    qubits = [q for q in range(code.n) if (qubit_mask >> q) & 1]
    remap = {q: i for i, q in enumerate(qubits)}
    cells = [code.qubit_cells[q] for q in qubits]
    gens = []
    seen = set()
    for g in code.generators:
        x = z = 0
        for q in qubits:
            x |= ((g.x >> q) & 1) << remap[q]
            z |= ((g.z >> q) & 1) << remap[q]
        if x == 0 and z == 0 or (x, z) in seen:
            continue
        seen.add((x, z))
        gens.append(PauliOp(len(qubits), x, z))
    return CodeSpec(
        name=name,
        lattice=code.lattice,
        role=GAUGE,
        declared_r=code.declared_r,
        generators=gens,
        qubit_cells=cells,
        cell_scale=code.cell_scale,
    )


def _subsystem_distance(code: CodeSpec, budgets: Budgets, axis: int = 0) -> Optional[int]:
    """Exact subsystem distance (enumeration uncapped by weight), or CapacityError."""
    res = distance(code, "subsystem", axis=axis, weight_cap=code.n, budgets=budgets)
    if res.status != "exact" and res.status != "no_logicals":
        raise CapacityError(f"exact distance infeasible for {code.name}")
    return res.value


def restriction_audit(
    code: CodeSpec,
    region: Region,
    original_distance: Optional[int] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> RestrictionAuditResult:
    """Check the restriction dichotomy: the restricted code has no logical
    qubits, or its distance is at least d minus the qubits in the r-shell."""
    mask = code.qubit_mask_in(region)
    if mask == 0:
        return RestrictionAuditResult("no_logicals", 0, None, original_distance, 0, True, 0)
    sub = compress_qubits(code, mask, f"{code.name}|restricted")
    sub_st = get_structure(sub)
    shell = boundary_shell(region, code.declared_r)
    shell_qubits = code.qubit_mask_in(shell).bit_count()
    if sub_st.k == 0:
        return RestrictionAuditResult(
            "no_logicals", 0, None, original_distance, shell_qubits, True, region.size
        )
    if original_distance is None:
        original_distance = _subsystem_distance(code, budgets)
    d_M = _subsystem_distance(sub, budgets)
    holds = d_M >= original_distance - shell_qubits
    return RestrictionAuditResult(
        "distance_bound", sub_st.k, d_M, original_distance, shell_qubits, holds, region.size
    )


@dataclass(frozen=True)
class MinimalBlockResult:
    found: bool
    start: Optional[int]
    width: Optional[int]
    axis: int
    k_M: int
    d_M: Optional[int]
    d: Optional[int]
    shell_qubits: int
    checks: dict = field(default_factory=dict)


def minimal_block_search(
    code: CodeSpec,
    axis: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> MinimalBlockResult:
    """Smallest contiguous block (1D) or full-height strip (2D) whose
    restricted code keeps a logical qubit, with its exact distance.

    Verifies d_M <= r*L^(D-1) and d <= d_M + |shell qubits| <= 3r*L^(D-1);
    in 1D these are the plain d_M <= r and d <= 3r bounds.
    """
    if code.lattice.D > 2:
        raise PreconditionError("minimal block search supports D = 1 or 2 only")
    lat = code.lattice
    cross = lat.L ** (lat.D - 1)
    for width in range(1, lat.L + 1):
        starts = range(lat.L) if lat.periodic and width < lat.L else range(lat.L - width + 1)
        for start in starts:
            region = axis_window_region(lat, axis, start, width)
            mask = code.qubit_mask_in(region)
            if mask == 0:
                continue
            sub = compress_qubits(code, mask, f"{code.name}|block")
            if get_structure(sub).k == 0:
                continue
            d_M = _subsystem_distance(sub, budgets, axis=axis)
            shell_qubits = code.qubit_mask_in(boundary_shell(region, code.declared_r)).bit_count()
            d = _subsystem_distance(code, budgets, axis=axis)
            r = code.declared_r
            checks = {
                "d_M <= r*L^(D-1)": d_M <= r * cross,
                "d <= d_M + shell": d <= d_M + shell_qubits,
                "d <= 3r*L^(D-1)": d <= 3 * r * cross,
            }
            return MinimalBlockResult(
                True, start, width, axis, get_structure(sub).k, d_M, d, shell_qubits, checks
            )
    return MinimalBlockResult(False, None, None, axis, 0, None, None, 0, {})
