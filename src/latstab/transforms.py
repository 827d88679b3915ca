"""Constructive lemma-level procedures: cleaning, strip sweep, restriction
audit, and the 1D/strip minimal-block search.

Each procedure has one path for every code: the sweep cleans the union of its
even strips with one solve per start logical against one factorization of the
stabilizer rows, and the restriction audit and the block scan count k_M from
the parent's gauge rows (groups._restricted_k), building a restricted code
only when k_M > 0.

Every outcome is machine-checked before it is returned: cleaned results
verify triviality on the region and membership of the multiplier, trapped and
sweep witnesses verify containment, centralizer membership and a nonzero
logical class, and a restricted code's own k must equal the counted k_M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from typing import List, Optional, Tuple

from .codes import GAUGE, STABILIZER, CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import (
    ContractViolation,
    LatstabError,
    NoLogicalQubitsError,
    PreconditionError,
    certify,
)
from .geometry import Region, axis_windows, boundary_shell, strip_partition
from .gf2 import Echelon, combine, gather, solve
from .groups import CosetReducer, _restricted_k, contained_subgroup, get_structure
from .metrics import _lightest_logical, distance, enumeration_refusal, linear_distance
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
    certify(st.S.contains(mult), "cleaning multiplier is not a stabilizer")
    return CleanResult("cleaned", mult, cleaned, generator_indices=tuple(used))


def _trapped(st, mask: int) -> CleanResult:
    """An operator supported in the mask that commutes with the stabilizer
    group but lies outside G (which is S for a stabilizer code), the
    lightest that _lightest_logical finds; one must exist when the cleaning
    is unsolvable."""
    witness = _lightest_logical(st, mask, "subsystem")
    certify(witness is not None, "unsolvable cleaning must leave a trapped logical")
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
    vectors = [code.generators[a].vector for a in overlapping]
    m2 = mask | (mask << code.n)
    coeff = solve([v & m2 for v in vectors], restricted.vector, 2 * code.n)
    if coeff is not None:
        used = [a for i, a in enumerate(overlapping) if (coeff >> i) & 1]
        mult = PauliOp.from_vector(code.n, combine(coeff, vectors))
        return _cleaned(st, op, mult, mask, used)
    return _trapped(st, mask)


def clean_subsystem(code: CodeSpec, op: PauliOp, region: Region) -> CleanResult:
    """Subsystem cleaning: the multiplier ranges over the whole stabilizer
    center (which may have no local generators), so it is one global solve."""
    st = get_structure(code)
    if st.syndrome(op):
        raise ContractViolation("operator is not in the centralizer of the gauge group")
    mask = code.qubit_mask_in(region)
    return _clean_on(st, op, mask, _stabilizers_on(st, mask))


def _stabilizers_on(st, mask: int) -> Echelon:
    """The stabilizer rows cut to the masked qubits, factored once so every
    operator cleaned off the same qubits reuses them."""
    m2 = mask | (mask << st.n)
    return Echelon([r & m2 for r in st.S.rows], 2 * st.n)


def _clean_on(st, op: PauliOp, mask: int, stabilizers: Echelon) -> CleanResult:
    """clean_subsystem for an operator in C(G), against _stabilizers_on(st, mask)."""
    restricted = op.restrict(mask)
    if restricted.is_identity:
        return CleanResult("cleaned", PauliOp.identity(st.n), op)
    coeff = stabilizers.solve(restricted.vector)
    if coeff is not None:
        return _cleaned(st, op, PauliOp.from_vector(st.n, combine(coeff, st.S.rows)), mask)
    return _trapped(st, mask)


@dataclass(frozen=True)
class SweepResult:
    witness: PauliOp
    extent: int
    axis: int
    method: str  # strip_sweep | strip_sweep_trapped | window_fallback
    strip_widths: Tuple[int, ...]
    class_bits: int


def strip_sweep(code: CodeSpec, axis: int = 0) -> SweepResult:
    """Produce a certified nontrivial logical with axis extent at most r by
    cleaning alternating strips and splitting the survivor across the others.

    Every code cleans the union of the even strips in one solve over the
    stabilizer group (clean_subsystem), then splits the survivor across the
    odd strips.  For a stabilizer code S is the span of the generators, so
    this is the paper's cleaning of the even-strip union: a generator spans at
    most r columns and an odd strip is at least r-1 wide, so no generator
    meets two even strips, and the joint solve succeeds exactly when
    strip-by-strip cleaning does.  Candidates from every
    starting logical are certified mechanically; the best (extent, weight,
    vector) wins.  If nothing certifies, an exact minimal-window scan supplies
    the witness.
    """
    st = get_structure(code)
    if st.k == 0:
        raise NoLogicalQubitsError(f"{code.name} has no logical qubits")
    r = max(code.declared_r, 2)
    strips = strip_partition(code.lattice, r, axis)
    widths = tuple(s_.size // code.lattice.L ** (code.lattice.D - 1) for s_ in strips)
    even_mask = code.qubit_mask_in(reduce(Region.union, strips[1::2]))
    even_stabilizers = _stabilizers_on(st, even_mask)
    candidates: List[Tuple[int, int, int, PauliOp, str]] = []

    @cache  # every start logical reuses the odd strips and the even union
    def gauge_inside(window_mask: int) -> Tuple[int, ...]:
        return contained_subgroup(st.G, window_mask).rows

    def consider(op: PauliOp, window_mask: int, method: str):
        if op.is_identity:
            return
        # minimum-weight representative modulo the gauge elements inside the
        # window, which keeps the class and centralizer membership
        reducer = CosetReducer(gauge_inside(window_mask), code.n)
        reduced = PauliOp.from_vector(code.n, reducer(op.vector))
        if reduced.is_identity or not st.is_logical(reduced, "subsystem"):
            return
        extent = code.bounding_extent(reduced, axis)
        candidates.append((extent, reduced.weight(), reduced.vector, reduced, method))

    for start in (p for pair in st.logicals.pairs for p in pair):
        # a logical pair lies in C(G), as clean_subsystem requires
        res = _clean_on(st, start, even_mask, even_stabilizers)
        if res.outcome == "trapped_logical":
            consider(res.trapped, even_mask, "strip_sweep_trapped")
            continue
        for strip in strips[0::2]:
            mask = code.qubit_mask_in(strip)
            consider(res.cleaned.restrict(mask), mask, "strip_sweep")
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
    cells = [code.qubit_cells[q] for q in qubits]
    gens = []
    seen = set()
    for g in code.generators:
        x, z = gather(g.x, qubit_mask), gather(g.z, qubit_mask)
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


def _subsystem_distance(code: CodeSpec, budgets: Budgets) -> Optional[int]:
    """Exact subsystem distance under the budgets (the DP, else enumeration),
    or the enumeration's own CapacityError naming the cap that stopped it."""
    res = distance(code, "subsystem", budgets=budgets)
    if res.status == "lower_bound":
        raise enumeration_refusal(code, res.lower_bound, res.stats["examined"], budgets)
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
    shell_qubits = code.qubit_mask_in(boundary_shell(region, code.declared_r)).bit_count()
    k_M = _restricted_k(get_structure(code).G, mask)
    if k_M == 0:
        return RestrictionAuditResult(
            "no_logicals", 0, None, original_distance, shell_qubits, True, region.size
        )
    sub = compress_qubits(code, mask, f"{code.name}|restricted")
    certify(get_structure(sub).k == k_M, f"restricted code's k is not the counted k_M={k_M}")
    if original_distance is None:
        original_distance = _subsystem_distance(code, budgets)
    d_M = _subsystem_distance(sub, budgets)
    holds = d_M >= original_distance - shell_qubits
    return RestrictionAuditResult(
        "distance_bound", k_M, d_M, original_distance, shell_qubits, holds, region.size
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
    restricted code keeps a logical qubit, with the restriction audit of
    that block.

    Verifies d_M <= r*L^(D-1) and d <= d_M + |shell qubits| <= 3r*L^(D-1);
    in 1D these are the plain d_M <= r and d <= 3r bounds.
    """
    if code.lattice.D > 2:
        raise PreconditionError("minimal block search supports D = 1 or 2 only")
    G = get_structure(code).G
    for width, start, region in axis_windows(code.lattice, axis):
        if _restricted_k(G, code.qubit_mask_in(region)) == 0:
            continue
        res = restriction_audit(code, region, budgets=budgets)
        bound = code.declared_r * code.lattice.L ** (code.lattice.D - 1)
        checks = {
            "d_M <= r*L^(D-1)": res.d_M <= bound,
            "d <= d_M + shell": res.holds,
            "d <= 3r*L^(D-1)": res.d <= 3 * bound,
        }
        return MinimalBlockResult(True, start, width, axis, res.k_M, res.d_M, res.d,
                                  res.shell_qubits, checks)
    return MinimalBlockResult(False, None, None, axis, 0, None, None, 0, {})
