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
from itertools import combinations, count, groupby
from math import comb
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codes import CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import (
    CapacityError,
    ContractViolation,
    ValidationError,
    certify,
)
from .geometry import axis_windows
from .gf2 import Echelon, combine, extend_basis, gather, left_kernel, low_bit, nullspace, scatter
from .groups import CodeStructure, get_structure
from .pauli import LETTERS, PauliOp, letter_pairings


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
    method: str  # exact_bottleneck | walk_row_by_row | walk_arbitrary
    witness: Optional[WalkTrace] = None
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# brute-force distance


def enumeration_refusal(code: CodeSpec, w: int, examined: int,
                        budgets: Budgets) -> Optional[CapacityError]:
    """Why weight-ordered enumeration may not go on to weight w after
    ``examined`` operators, or None: w is above ``budgets.weight_cap``, or
    the level's C(n, w)·3^w operators take the count past ``node_cap``."""
    if w > budgets.weight_cap:
        return CapacityError(
            f"enumerating the distance of {code.name} stops at weight {w}, above the "
            f"weight cap {budgets.weight_cap}; raise --weight-cap (Budgets.weight_cap)",
            required=w, cap=budgets.weight_cap,
        )
    level = comb(code.n, w) * 3**w
    total = examined + level
    if total > budgets.node_cap:
        return CapacityError(
            f"enumerating the distance of {code.name} stops at weight {w}: the count "
            f"through that level, {total} = {examined} operators already examined plus "
            f"the level's {level}, passes the node cap {budgets.node_cap}; raise "
            f"--node-cap (Budgets.node_cap)", required=total, cap=budgets.node_cap,
        )
    return None


def distance_bruteforce(
    code: CodeSpec,
    mode: str = "subsystem",
    class_mask: Optional[int] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> DistanceResult:
    """Exact distance by weight-ordered enumeration of supports and letters.

    Returns the first (minimum-weight) operator passing the target predicate,
    or a typed lower-bound result (d >= w) at the first weight w that
    enumeration_refusal refuses.
    """
    st = get_structure(code)
    rows = st.detector_rows(mode)
    if st.k == 0:
        return DistanceResult(None, "no_logicals", mode, "bruteforce")
    targets = st.target_bits(class_mask)
    n = code.n
    det = letter_pairings(rows, n)
    cls = letter_pairings(st.class_omega, n)
    examined = 0
    for w in count(1):
        if enumeration_refusal(code, w, examined, budgets) is not None:
            return DistanceResult(
                None, "lower_bound", mode, "bruteforce",
                lower_bound=w, stats={"examined": examined},
            )
        for support in combinations(range(n), w):
            # depth-first over the 3^w letter assignments
            stack = [(0, 0, 0, ())]
            while stack:
                pos, dacc, cacc, letters = stack.pop()
                if pos == w:
                    examined += 1
                    if dacc == 0 and cacc & targets:
                        witness = PauliOp.from_letters(
                            n, [(q, LETTERS[li]) for q, li in zip(support, letters)]
                        )
                        return DistanceResult(
                            w, "exact", mode, "bruteforce", witness=witness,
                            stats={"examined": examined},
                        )
                    continue
                q = support[pos]
                for li in (2, 1, 0):  # stack pops X first
                    stack.append((pos + 1, dacc ^ det[q][li], cacc ^ cls[q][li], letters + (li,)))


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


def _span(basis: Sequence[int]) -> "np.ndarray":
    """Every element of span(basis): element i is the XOR of the basis
    vectors that the bits of i select."""
    out = np.zeros(1 << len(basis), dtype=np.int64)
    for j, b in enumerate(basis):
        out[1 << j:2 << j] = out[:1 << j] ^ b
    return out


_BLOCK_BITS = 14


def _gather_span(src: "np.ndarray", low: "np.ndarray", high: "np.ndarray") -> "np.ndarray":
    """src[low[i] ^ high[j]] at index j * len(low) + i, gathered in blocks of
    len(low) elements so no full index array is built.  With low and high the
    spans of coords[:_BLOCK_BITS] and coords[_BLOCK_BITS:], element i is
    src[combine(i, coords)]."""
    out = np.empty(len(low) * len(high), dtype=src.dtype)
    idx = np.empty_like(low)
    for block, h in zip(out.reshape(len(high), -1), high):
        # indices are in range; "clip" skips the bounds check and its buffer
        np.take(src, np.bitwise_xor(low, h, out=idx), out=block, mode="clip")
    return out


# A live DP key is (weight << 2) | letter in a uint16, the letter 0, 1, 2, 3
# for I, X, Y, Z; a key of weight up to _MAX_WEIGHT plus a step's + 7 fits.
_MAX_WEIGHT = 0x3FFD
_COSTS = (0, 5, 6, 7)  # per letter I, X, Y, Z: weight + 1 and the letter


def _pack_letters(keys: "np.ndarray") -> "np.ndarray":
    """The 2-bit letters of ``keys``, four per byte in quarters: with b the
    packed length, letter i sits in bits 2 * (i // b) of byte i % b."""
    if len(keys) < 4:
        keys = np.concatenate([keys, np.zeros(4 - len(keys), dtype=keys.dtype)])
    quarters = keys.reshape(4, -1)
    out = (quarters[0] & 3).astype(np.uint8)
    for j in (1, 2, 3):
        out |= (quarters[j] & 3) << (2 * j)
    return out


def _dp_witness(steps, trail, dims, i: int) -> List[int]:
    """Letters (0..3 for I, X, Y, Z) of the path reaching the state with
    coordinates ``i`` in the last front, rebuilt backward.  trail[p] holds, at
    each state's coordinates in front p's chosen basis, the letter that first
    reached it at its least weight; dims[p] is front p's dimension and
    steps[p] = (d, t, moves, coords) its step, coords giving the next front's
    basis in coordinates of the grown front p.  The XOR transitions are
    invertible, so each step undoes that letter's move on the top coordinates
    and certifies that the predecessor lies in front p, below 2^dims[p].
    That certificate checks the walk against the steps only; distance_dp
    checks the letters' contributions against the final state."""
    letters = []
    for p in range(len(steps) - 1, -1, -1):
        packed = trail[p + 1]
        li = int(packed[i % len(packed)]) >> (2 * (i // len(packed))) & 3
        d, _, moves, coords = steps[p]
        i = combine(i, coords) ^ moves[li] << (dims[p] - d)
        certify(not i >> dims[p], f"DP predecessor at position {p} is not in its front")
        letters.append(li)
    letters.reverse()
    return letters


def _letter_step(keys: "np.ndarray", d: int, t: int, moves: Sequence[int]) -> "np.ndarray":
    """Keys of the grown front as a (2^t, R) array: row a is the minimum over
    letters of the front's row a ^ moves[letter] plus the letter's cost.  The
    front is the grown front's rows below 2^d; a source row at or above it
    is a new direction that no state reaches yet, and is skipped."""
    old = keys.reshape(1 << d, -1)
    grown = np.empty((1 << t, old.shape[1]), dtype=np.uint16)
    tmp = np.empty(old.shape[1], dtype=np.uint16)
    for a, row in enumerate(grown):
        reached = False
        for cost, move in zip(_COSTS, moves):
            src = a ^ move
            if src >> d:
                continue
            if reached:
                np.minimum(row, np.add(old[src], cost, out=tmp), out=row)
            else:
                np.add(old[src], cost, out=row)
                reached = True
    return grown


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
    whose closing bits are zero).  A front is held as a basis chosen for
    the next position and a uint16 key array indexed by each state's
    coordinates in that basis.  The letters of position p span V =
    span{X, Z} (Y = X ^ Z); the chosen basis puts a basis of V ∩ front in
    its top coordinates, and the directions of V new to the front go above
    them, so every letter moves only the top t <= 2 coordinates of the grown
    front and acts on whole contiguous blocks of keys.  One gather per
    position, read in blocks, then takes the next front, in its own chosen
    basis, out of the grown front, which also drops the states whose closing
    bits are set.

    The bases alone fix every front's size, so the state cap is checked
    before any keys are built.  Each position builds one Echelon of the
    grown front, its rows tagged by coordinates in the grown basis: the
    letters' moves are solved in it, and so are the next position's letters,
    whose span inside the cut front goes on top of the next basis.  The cut
    front is the left kernel of the grown basis restricted to the closing
    bits.

    A key is (w << 2) | letter: w the state's least weight, letter (0..3 for
    I, X, Y, Z) the first in that order reaching it at w, so one minimum per
    letter finds both.  Only the current front's keys stay live; the trail
    keeps each front's letters, 2 bits per state, and the witness is rebuilt
    backward from them in coordinates (_dp_witness).  Among the target states
    of least weight the least state is picked.  A code with more qubits than
    the 14-bit weight field holds raises CapacityError.
    """
    st = get_structure(code)
    rows = st.detector_rows(mode)
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
    det_rows = [r for r in rows if r]
    mask_n = (1 << n) - 1

    # each row's window of positions
    first, last = [], []
    for row in det_rows:
        supp = (row & mask_n) | (row >> n)
        ps = []
        while supp:
            ps.append(pos_of[low_bit(supp)])
            supp &= supp - 1
        first.append(min(ps))
        last.append(max(ps))
    bit_of, det_width = _color_intervals(first, last)
    nbits = det_width + len(st.class_omega)
    if nbits > 62:
        raise CapacityError(
            f"transfer DP front needs {nbits} state bits (cut too wide); it holds 62",
            required=nbits, cap=62,
        )

    # per position: letter contributions (I, X, Y, Z) and the close mask.
    # Detector row i's pairing moves to state bit bit_of[i]; rows sharing a
    # state bit have disjoint windows, so at most one of them pairs with q
    state_bits = [1 << b for b in bit_of]
    det = letter_pairings(det_rows, n)
    cls = letter_pairings(st.class_omega, n)
    contribs = [(0, *(combine(dm, state_bits) | cm << det_width
                      for dm, cm in zip(det[q], cls[q]))) for q in order]
    closes = [0] * n
    for i, p in enumerate(last):
        closes[p] |= state_bits[i]

    # the algebra pass, before any key array exists.  basis is front p's
    # chosen basis, its top d vectors a basis of V ∩ front
    basis: List[int] = []
    dims = [0]
    steps = []
    d = 0
    peak = 1
    for p in range(n):
        _, cx, cy, cz = contribs[p]
        # tagged by coordinates over the grown basis: basis, then V's new
        # directions, added only when independent so tag j is grown[j]
        ech = Echelon(basis, nbits)
        grown = list(basis)
        for v in (cx, cz):
            if ech.solve(v) is None:
                ech.extend((v,))
                grown.append(v)
        low = len(basis) - d
        t = len(grown) - low
        moves = [0] + [ech.solve(v) >> low for v in (cx, cy, cz)]
        # the cut front: the grown coordinates x whose state
        # combine(x, grown) has its closing bits zero
        close = closes[p]
        kernel = left_kernel([g & close for g in grown], nbits)
        size = 1 << len(kernel)
        peak = max(peak, size)
        if size > budgets.dp_state_cap:
            raise CapacityError(
                f"transfer DP front has {size} states at position {p} > cap {budgets.dp_state_cap}",
                required=size, cap=budgets.dp_state_cap,
            )
        # the next chosen basis, in grown coordinates: a basis of
        # V_{p+1} ∩ front on top of the rest of the cut front
        shared = []
        if p + 1 < n:
            inside = [ech.solve(v) for v in contribs[p + 1][1:] if not v & close]
            shared = extend_basis((), (x for x in inside if x is not None))
        coords = extend_basis(shared, kernel) + shared
        steps.append((d, t, moves, coords))
        basis = [combine(x, grown) for x in coords]
        dims.append(len(basis))
        d = len(shared)

    # keys[i] is the key of the state combine(i, basis) of the current
    # front; trail[p] keeps only the letters of front p, packed.  Positions
    # often repeat their low coordinates, so each low span is built once and
    # kept until its last use
    last_use = {tuple(coords[:_BLOCK_BITS]): p for p, (*_, coords) in enumerate(steps)}
    lows = {}
    keys = np.zeros(1, dtype=np.uint16)
    trail = [_pack_letters(keys)]
    for p, (d, t, moves, coords) in enumerate(steps):
        keys &= ~np.uint16(3)  # the trail holds the letters; steps read weights
        grown = _letter_step(keys, d, t, moves).reshape(-1)
        keys = None  # freed before the gather
        low_coords = tuple(coords[:_BLOCK_BITS])
        low = lows.get(low_coords)
        if low is None:
            low = lows[low_coords] = _span(low_coords)
        if last_use[low_coords] == p:
            del lows[low_coords]
        keys = _gather_span(grown, low, _span(coords[_BLOCK_BITS:]))
        del grown
        trail.append(_pack_letters(keys))

    weights = keys >> 2
    states = _span(basis)
    sel = ((states >> det_width) & targets) != 0
    # every used class is carried by some logical, so some state reaches it
    certify(sel.any(), "DP front holds no target class")
    cand = np.flatnonzero(sel)
    best_w = int(weights[cand].min())
    cand = cand[weights[cand] == best_w]
    final = int(cand[np.argmin(states[cand])])
    letters = _dp_witness(steps, trail, dims, final)
    reached = 0
    for c, li in zip(contribs, letters):
        reached ^= c[li]
    certify(reached == int(states[final]), "DP witness letters do not reach the final state")
    witness = PauliOp.from_letters(
        n, [(order[p], LETTERS[li - 1]) for p, li in enumerate(letters) if li]
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


def _lightest_logical(st: CodeStructure, qubit_mask: int, mode: str,
                      class_mask: Optional[int] = None) -> Optional[PauliOp]:
    """The least (weight, vector) target logical among the basis vectors of
    the operators on the masked qubits that commute with the mode's
    detector rows, or None when no basis vector is one."""
    cols = qubit_mask | (qubit_mask << st.n)
    comp = [gather(row, cols) for row in st.detector_rows(mode)]
    vectors = (scatter(v, cols) for v in nullspace(comp, cols.bit_count()))
    hits = [PauliOp.from_vector(st.n, v) for v in vectors
            if st.is_logical_vec(v, mode, class_mask)]
    return min(hits, key=_weight_order, default=None)


def _weight_order(op: PauliOp) -> Tuple[int, int]:
    return op.weight(), op.vector


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
    st.detector_rows(mode)  # an unknown mode fails before the axis
    code.lattice.check_axis(axis)
    if st.k == 0:
        return LinearDistanceResult(None, "no_logicals", mode, axis)
    st.target_bits(class_mask)  # reject an empty mask before the scan
    for width, windows in groupby(axis_windows(code.lattice, axis), key=itemgetter(0)):
        hits = [_lightest_logical(st, code.qubit_mask_in(region), mode, class_mask)
                for _, _, region in windows]
        hits = [op for op in hits if op is not None]
        if hits:
            return LinearDistanceResult(width, "exact", mode, axis,
                                        witness=min(hits, key=_weight_order))
    certify(False, "the full-lattice window carries no target logical")


# ---------------------------------------------------------------------------
# walk-based barrier upper bounds


def barrier_walk_bound(
    code: CodeSpec,
    witness: PauliOp,
    schedule: str = "row_by_row",
    axis: int = 0,
) -> BarrierResult:
    """Energy ceiling of the walk implementing the witness letter by letter.

    row_by_row applies the letters in cross-coordinate-major order (the walk
    sweeps along the witness string so only its moving front costs energy);
    arbitrary applies them in qubit-index order.
    """
    code.lattice.check_axis(axis)
    st = get_structure(code)
    if not st.is_logical(witness):
        raise ContractViolation("walk witness is not a logical operator")
    support = witness.support()
    if schedule == "row_by_row":
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
