"""Quantitative code metrics: exact distances (enumeration and transfer DP),
linear distance, and walk-based energy-barrier upper bounds.

Search modes share one target predicate (groups.CodeStructure.is_logical):

  subsystem   operators in C(S) outside G         (dressed logicals)
  bare        operators in C(G) outside G         (bare logicals)

A stabilizer code is the subsystem code with G = S, so its distance is the
subsystem one.

A class_mask narrows targets to ones whose used-logical class overlaps the
mask (CodeStructure.target_bits, which rejects a mask selecting no used pair);
restricting to the classes outside <S, designated pairs> is exactly the
gauge-qubit distance/barrier, so gauge-qubit modes are expressed as masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codes import STABILIZER, CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import (
    CapacityError,
    ContractViolation,
    ValidationError,
    certify,
)
from .geometry import axis_windows
from .gf2 import combine, gather, left_kernel, nullspace, pairings, parity, scatter
from .groups import CodeStructure, get_structure
from .pauli import PauliOp

_LETTERS = ("X", "Y", "Z")


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class DistanceResult:
    value: Optional[int]
    status: str  # exact | lower_bound | no_logicals
    mode: str
    method: str
    witness: Optional[PauliOp] = None
    lower_bound: Optional[int] = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WalkTrace:
    """Single-qubit walk: cumulative operators differ on one qubit per step."""

    steps: Tuple[Tuple[int, str], ...]
    profile: Tuple[int, ...]  # energy after each step
    eps_max: int
    final: PauliOp

    @staticmethod
    def build(structure: CodeStructure, steps: Sequence[Tuple[int, str]]) -> "WalkTrace":
        n = structure.n
        synd = 0
        op = PauliOp.identity(n)
        profile = []
        for q, letter in steps:
            step_op = PauliOp.single(n, q, letter)
            synd ^= structure.syndrome(step_op)
            op = op.mul(step_op)
            profile.append(2 * synd.bit_count())
        return WalkTrace(
            steps=tuple(steps),
            profile=tuple(profile),
            eps_max=max(profile, default=0),
            final=op,
        )

    def validate(self, structure: CodeStructure):
        rebuilt = WalkTrace.build(structure, self.steps)
        certify(rebuilt == self, "walk profile or endpoint does not match its steps")


@dataclass(frozen=True)
class BarrierResult:
    value: Optional[int]
    status: str  # exact | upper_bound | no_logicals
    method: str  # exact_bottleneck | walk_row_by_row | walk_arbitrary | walk_given_order
    witness: Optional[WalkTrace] = None
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# brute-force distance


def _detector_rows(st: CodeStructure, mode: str) -> Tuple[int, ...]:
    if mode == "bare" or st.code.role == STABILIZER:
        return st.gen_omega
    return st.stab_omega


def distance_bruteforce(
    code: CodeSpec,
    mode: str = "subsystem",
    class_mask: Optional[int] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> DistanceResult:
    """Exact distance by weight-ordered enumeration of supports and letters.

    Returns the first (minimum-weight) operator passing the target predicate;
    if ``budgets.weight_cap`` is exhausted first, a typed lower-bound result
    (d > cap).
    """
    st = get_structure(code)
    st.check_mode(mode)
    if st.k == 0:
        return DistanceResult(None, "no_logicals", mode, "bruteforce")
    targets = st.target_bits(class_mask)
    cap = budgets.weight_cap
    n = code.n
    det_rows = _detector_rows(st, mode)
    det = [[0] * 3 for _ in range(n)]
    cls = [[0] * 3 for _ in range(n)]
    for q in range(n):
        for li, letter in enumerate(_LETTERS):
            v = PauliOp.single(n, q, letter).vector
            det[q][li] = pairings(v, det_rows)
            cls[q][li] = st.class_bits_vec(v)
    examined = 0
    for w in range(1, cap + 1):
        for support in combinations(range(n), w):
            # depth-first over the 3^w letter assignments
            stack = [(0, 0, 0, ())]
            while stack:
                pos, dacc, cacc, letters = stack.pop()
                if pos == w:
                    examined += 1
                    if dacc == 0 and cacc & targets:
                        witness = PauliOp.from_letters(
                            n, [(q, _LETTERS[li]) for q, li in zip(support, letters)]
                        )
                        return DistanceResult(
                            w, "exact", mode, "bruteforce", witness=witness,
                            stats={"examined": examined},
                        )
                    continue
                q = support[pos]
                for li in (2, 1, 0):  # stack pops X first
                    stack.append((pos + 1, dacc ^ det[q][li], cacc ^ cls[q][li], letters + (li,)))
    return DistanceResult(
        None, "lower_bound", mode, "bruteforce",
        lower_bound=cap + 1, stats={"examined": examined},
    )


# ---------------------------------------------------------------------------
# transfer dynamic programming


def _color_intervals(first: List[int], last: List[int]) -> Tuple[List[int], int]:
    """Assign each [first, last] interval a bit position so that intervals
    sharing a position never overlap (greedy interval-graph coloring)."""
    import heapq

    order = sorted(range(len(first)), key=lambda i: (first[i], last[i], i))
    colors = [0] * len(first)
    active: List[Tuple[int, int]] = []  # (last, color)
    free: List[int] = []
    next_color = 0
    for i in order:
        while active and active[0][0] < first[i]:
            _, c = heapq.heappop(active)
            heapq.heappush(free, c)
        if free:
            c = heapq.heappop(free)
        else:
            c = next_color
            next_color += 1
        colors[i] = c
        heapq.heappush(active, (last[i], c))
    return colors, next_color


def _top_insert(basis: List[int], pivots: int, r: int) -> Tuple[int, int, int]:
    """Insert r, reduced against ``basis`` and nonzero, into a fully reduced
    basis kept in ascending order of highest-bit pivots.  Returns the new pivot
    mask, r's slot in the basis, and the mask of the old basis vectors that
    carried r's pivot bit (they are reduced by r in place)."""
    t = r.bit_length() - 1
    slot = (pivots & ((1 << t) - 1)).bit_count()
    carried = 0
    for j, b in enumerate(basis):
        if (b >> t) & 1:
            basis[j] = b ^ r
            carried |= 1 << j
    basis.insert(slot, r)
    return pivots | 1 << t, slot, carried


def _span(basis: Sequence[int]) -> "np.ndarray":
    """Every element of span(basis), in ascending order when the basis is
    fully reduced with highest-bit pivots in ascending order: element i is
    the XOR of the basis vectors that the bits of i select."""
    out = np.zeros(1 << len(basis), dtype=np.int64)
    for j, b in enumerate(basis):
        out[1 << j:2 << j] = out[:1 << j] ^ b
    return out


# A live DP key is (weight << 2) | letter in a uint16, the letter 0, 1, 2, 3
# for I, X, Y, Z.  An unreached slot's key must survive + (4 + 3), so the
# weight field (14 bits) holds weights up to _MAX_WEIGHT.
_UNREACHED = 0xFFF8
_MAX_WEIGHT = (_UNREACHED >> 2) - 1


def _pack_letters(keys: "np.ndarray") -> "np.ndarray":
    """The 2-bit letters of ``keys``, four per byte: letter i sits in bits
    2 * (i % 4) of byte i // 4."""
    letters = (keys & 3).astype(np.uint8)
    letters = np.concatenate([letters, np.zeros(-len(letters) % 4, dtype=np.uint8)])
    quads = letters.reshape(-1, 4)
    return quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6


def _dp_witness(fronts, trail, contribs, key: int) -> List[int]:
    """Letters (0..3 for I, X, Y, Z) of the path reaching ``key`` in the last
    front, rebuilt backward: trail[p + 1] holds, for each state of front
    p + 1, the letter that first reached it at its least weight, and the
    XOR transitions are invertible, so each step undoes that letter and
    certifies that the predecessor lies in front p."""
    letters = []
    for p in range(len(fronts) - 2, -1, -1):
        i = gather(key, fronts[p + 1][1])
        li = int(trail[p + 1][i >> 2]) >> (2 * (i & 3)) & 3
        key ^= contribs[p][li]
        pbasis, ppivots = fronts[p]
        certify(combine(gather(key, ppivots), pbasis) == key,
                f"DP predecessor at position {p} is not in its front")
        letters.append(li)
    letters.reverse()
    return letters


def distance_dp(
    code: CodeSpec,
    axis: int = 0,
    mode: str = "subsystem",
    class_mask: Optional[int] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> DistanceResult:
    """Exact distance by sweeping qubits along an axis.

    The DP state is (partial anticommutation bits of the detector rows whose
    support window is still open across the sweep front, partial logical-class
    bits); a detector row's bit must be zero when its window closes.  Rows with
    disjoint windows share a state bit, so the front is exponential only in
    the cut size.  Equal to distance_bruteforce wherever both run.

    Every reachable state is reached, so each front is a GF(2) subspace
    (the previous front plus the letters' contributions, cut to the states
    whose closing bits are zero).  A front is held as its reduced basis with
    highest-bit pivots and a uint16 key array indexed by the basis
    coordinates of each state, which is ascending state order; letters act
    by XOR on those coordinates and closing rows by a linear filter, so no
    pass sorts.  The bases alone fix every front's size, so the state cap is
    checked before any keys are built.

    A key is (w << 2) | letter: w the state's least weight, letter (0..3 for
    I, X, Y, Z) the first in that order reaching it at w, so one minimum per
    letter finds both.  Only the current front's keys stay live; the trail
    keeps each front's letters, 2 bits per state, and the witness is rebuilt
    backward from them.  A code with more qubits than the 14-bit weight
    field holds raises CapacityError.
    """
    st = get_structure(code)
    st.check_mode(mode)
    code.lattice.check_axis(axis)
    if st.k == 0:
        return DistanceResult(None, "no_logicals", mode, "dp")
    targets = st.target_bits(class_mask)
    n = code.n
    if n > _MAX_WEIGHT:
        raise CapacityError(
            f"transfer DP weight field holds weights up to {_MAX_WEIGHT}, not {n}",
            required=n, cap=_MAX_WEIGHT,
        )
    order = sorted(range(n), key=lambda q: (code.anchor(q)[axis], code.anchor(q), q))
    pos_of = {q: p for p, q in enumerate(order)}
    det_rows = [r for r in _detector_rows(st, mode) if r]
    mask_n = (1 << n) - 1

    first, last = [], []
    for row in det_rows:
        supp = (row & mask_n) | (row >> n)
        ps = [pos_of[q] for q in range(n) if (supp >> q) & 1]
        first.append(min(ps))
        last.append(max(ps))
    bit_of, det_width = _color_intervals(first, last)
    nbits = det_width + len(st.class_omega)
    if nbits > 62:
        raise CapacityError(
            f"transfer DP front needs {nbits} state bits (cut too wide)",
            required=nbits, cap=62,
        )

    # per position: letter contribution masks and the close mask
    contribs = []
    closes = []
    for p, q in enumerate(order):
        row_ids = [i for i in range(len(det_rows)) if first[i] <= p <= last[i]]
        per_letter = [0]
        for letter in _LETTERS:
            v = PauliOp.single(n, q, letter).vector
            c = 0
            for i in row_ids:
                c |= parity(v & det_rows[i]) << bit_of[i]
            per_letter.append(c | st.class_bits_vec(v) << det_width)
        contribs.append(per_letter)
        close = 0
        for i in range(len(det_rows)):
            if last[i] == p:
                close |= 1 << bit_of[i]
        closes.append(close)

    # the fronts follow from GF(2) algebra alone, so every front size is
    # checked against the state cap before any weight array is built;
    # fronts[p] is the front before position p as (basis, pivot mask), the
    # basis fully reduced with ascending highest-bit pivots
    fronts: List[Tuple[List[int], int]] = [([], 0)]
    steps = []
    peak = 1
    for p in range(n):
        basis, pivots = fronts[p]
        # (a) grow: the front plus span{X, Z} contributions (Y = X ^ Z)
        grown = list(basis)
        inserts = []
        for c in (contribs[p][1], contribs[p][3]):
            r = c ^ combine(gather(c, pivots), grown)
            if r:
                pivots, slot, carried = _top_insert(grown, pivots, r)
                inserts.append((slot, carried))
        # (c) closing rows keep the coordinates i with combine(i, grown) & close == 0
        close = closes[p]
        kept_basis: List[int] = []
        kept_pivots = 0
        for v in left_kernel([b & close for b in grown], close.bit_length()):
            r = v ^ combine(gather(v, kept_pivots), kept_basis)
            kept_pivots = _top_insert(kept_basis, kept_pivots, r)[0]
        size = 1 << len(kept_basis)
        peak = max(peak, size)
        if size > budgets.dp_state_cap:
            raise CapacityError(
                f"transfer DP front has {size} states at position {p}",
                required=size, cap=budgets.dp_state_cap,
            )
        steps.append((inserts, pivots, kept_basis))
        front = [combine(i, grown) for i in kept_basis]
        fronts.append((front, sum(1 << (b.bit_length() - 1) for b in front)))

    # keys[i] is the key of the state combine(i, basis) of the current
    # front; trail[p] keeps only the letters of fronts[p], packed
    keys = np.zeros(1, dtype=np.uint16)
    trail = [_pack_letters(keys)]
    for p, (inserts, pivots, kept_basis) in enumerate(steps):
        keys &= ~np.uint16(3)  # the trail holds the letters; steps read weights
        # a new basis vector doubles the coordinates; an old state keeps its
        # own bit at the new pivot, and the other half starts unreached
        for slot, carried in inserts:
            lo = 1 << slot
            old = keys.reshape(-1, lo)
            out = np.full((old.shape[0], 2, lo), _UNREACHED, dtype=np.uint16)
            if carried:
                bit = (np.bitwise_count(np.arange(len(keys)) & carried) & 1).astype(bool)
                bit = bit.reshape(old.shape)
                out[:, 0, :] = np.where(bit, _UNREACHED, old)
                out[:, 1, :] = np.where(bit, old, _UNREACHED)
            else:
                out[:, 0, :] = old
            keys = out.reshape(-1)
        # (b) letters, read from the grown front before any of them applies;
        # ties keep the earlier letter, whose key is smaller;
        # (c) the close filter keeps ascending order
        kept = _span(kept_basis)
        new = keys[kept]
        for li, c in enumerate(contribs[p][1:], 1):
            np.minimum(new, keys[kept ^ gather(c, pivots)] + (4 + li), out=new)
        certify(len(new) == 1 << len(kept_basis) and int(new.max()) < _UNREACHED,
                f"DP front at position {p} is not a fully reached subspace")
        trail.append(_pack_letters(new))
        keys = new

    weights = keys >> 2
    states = _span(fronts[n][0])
    sel = ((states >> det_width) & targets) != 0
    # every used class is carried by some logical, so some state reaches it
    certify(sel.any(), "DP front holds no target class")
    cand = np.flatnonzero(sel)
    best_i = cand[int(np.argmin(weights[cand]))]
    best_w = int(weights[best_i])
    letters = _dp_witness(fronts, trail, contribs, int(states[best_i]))
    witness = PauliOp.from_letters(
        n, [(order[p], _LETTERS[li - 1]) for p, li in enumerate(letters) if li]
    )
    certify(witness.weight() == best_w, f"DP witness has weight {witness.weight()}, not {best_w}")
    certify(st.is_logical(witness, mode, class_mask), "DP witness is not a target logical")
    return DistanceResult(best_w, "exact", mode, "dp", witness=witness,
                          stats={"front_peak": peak})


def distance(
    code: CodeSpec,
    mode: str = "subsystem",
    axis: int = 0,
    method: str = "auto",
    budgets: Budgets = DEFAULT_BUDGETS,
) -> DistanceResult:
    """Exact distance by the transfer DP ("dp"), weight-ordered enumeration
    ("bruteforce"), or the DP with enumeration as fallback when the DP front
    exceeds its capacity ("auto"); every other error propagates.  An axis
    the lattice lacks is a DimensionError for every method, even with k = 0."""
    if method not in ("auto", "dp", "bruteforce"):
        raise ValidationError(f"unknown distance method {method!r}")
    code.lattice.check_axis(axis)
    if method != "bruteforce":
        try:
            return distance_dp(code, axis=axis, mode=mode, budgets=budgets)
        except CapacityError:
            if method == "dp":
                raise
    return distance_bruteforce(code, mode, budgets=budgets)


# ---------------------------------------------------------------------------
# linear distance (minimal axis window containing a logical)


def _window_logical_vectors(st: CodeStructure, qubit_mask: int, mode: str) -> List[int]:
    """Basis vectors supported on the masked qubits commuting with the mode's
    detector rows (stabilizer group or whole gauge group)."""
    cols = qubit_mask | (qubit_mask << st.n)
    comp = [gather(row, cols) for row in _detector_rows(st, mode)]
    return [scatter(v, cols) for v in nullspace(comp, cols.bit_count())]


@dataclass(frozen=True)
class LinearDistanceResult:
    value: Optional[int]
    status: str
    mode: str
    axis: int
    witness: Optional[PauliOp] = None


def linear_distance(
    code: CodeSpec,
    axis: int = 0,
    mode: str = "subsystem",
    class_mask: Optional[int] = None,
) -> LinearDistanceResult:
    """Exact minimal axis-window width carrying a logical operator.

    Scans window widths in increasing order; for each placement the window
    logicals are read off a nullspace computation, so the scan is exact with
    no weight enumeration.
    """
    st = get_structure(code)
    st.check_mode(mode)
    code.lattice.check_axis(axis)
    if st.k == 0:
        return LinearDistanceResult(None, "no_logicals", mode, axis)
    st.target_bits(class_mask)  # reject an empty mask before the scan
    for width, windows in groupby(axis_windows(code.lattice, axis), key=itemgetter(0)):
        hits = []
        for _, _, region in windows:
            mask = code.qubit_mask_in(region)
            for v in _window_logical_vectors(st, mask, mode):
                if st.is_logical_vec(v, mode, class_mask):
                    op = PauliOp.from_vector(code.n, v)
                    hits.append((op.weight(), v, op))
        if hits:
            hits.sort(key=lambda t: (t[0], t[1]))
            return LinearDistanceResult(width, "exact", mode, axis, witness=hits[0][2])
    return LinearDistanceResult(None, "no_logicals", mode, axis)


# ---------------------------------------------------------------------------
# walk-based barrier upper bounds


def barrier_walk_bound(
    code: CodeSpec,
    witness: PauliOp,
    schedule: str = "row_by_row",
    axis: int = 0,
    order: Optional[Sequence[int]] = None,
) -> BarrierResult:
    """Energy ceiling of the walk implementing the witness letter by letter.

    row_by_row applies the letters in cross-coordinate-major order (the walk
    sweeps along the witness string so only its moving front costs energy);
    arbitrary applies them in qubit-index order; an explicit order wins.
    """
    st = get_structure(code)
    if not st.is_logical(witness):
        raise ContractViolation("walk witness is not a logical operator")
    support = witness.support()
    if order is not None:
        if sorted(order) != support:
            raise ContractViolation("explicit order must permute the witness support")
        ordered = list(order)
        method = "walk_given_order"
    elif schedule == "row_by_row":
        def key(q):
            a = code.anchor(q)
            cross = tuple(a[j] for j in range(code.lattice.D) if j != axis)
            return (cross, a[axis], q)

        ordered = sorted(support, key=key)
        method = "walk_row_by_row"
    elif schedule == "arbitrary":
        ordered = support
        method = "walk_arbitrary"
    else:
        raise ValidationError(f"unknown schedule {schedule!r}")
    trace = WalkTrace.build(st, [(q, witness.letter(q)) for q in ordered])
    certify(trace.final == witness, "walk does not end on the witness")
    return BarrierResult(trace.eps_max, "upper_bound", method, witness=trace)
