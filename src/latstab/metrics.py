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
from .gf2 import (
    Echelon,
    combine,
    extend_basis,
    gather,
    left_kernel,
    nullspace,
    pairings,
    parity,
    scatter,
)
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
    method: str  # exact_bottleneck | walk_row_by_row | walk_arbitrary
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


def _span(basis: Sequence[int]) -> "np.ndarray":
    """Every element of span(basis): element i is the XOR of the basis
    vectors that the bits of i select."""
    out = np.zeros(1 << len(basis), dtype=np.int64)
    for j, b in enumerate(basis):
        out[1 << j:2 << j] = out[:1 << j] ^ b
    return out


_BLOCK_BITS = 14


def _gather_span(src: "np.ndarray", coords: Sequence[int]) -> "np.ndarray":
    """src[combine(i, coords)] for every i below 2^len(coords), gathered in
    blocks of at most 2^_BLOCK_BITS elements so no full index array is built."""
    low, high = _span(coords[:_BLOCK_BITS]), _span(coords[_BLOCK_BITS:])
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


def _dp_witness(fronts, trail, contribs, key: int) -> List[int]:
    """Letters (0..3 for I, X, Y, Z) of the path reaching ``key`` in the last
    front, rebuilt backward.  fronts[p] is (a tagged Echelon whose first dim
    rows are front p's chosen basis, dim); trail[p] holds, at each state's
    coordinates in that basis, the letter that first reached it at its least
    weight.  The XOR transitions are invertible, so each step undoes that
    letter and certifies that the predecessor lies in front p."""
    letters = []
    i = fronts[-1][0].solve(key)
    for p in range(len(fronts) - 2, -1, -1):
        packed = trail[p + 1]
        li = int(packed[i % len(packed)]) >> (2 * (i // len(packed))) & 3
        key ^= contribs[p][li]
        ech, dim = fronts[p]
        i = ech.solve(key)
        certify(i is not None and not i >> dim,
                f"DP predecessor at position {p} is not in its front")
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
    bits are set.  The bases alone fix every front's size, so the state cap
    is checked before any keys are built.

    A key is (w << 2) | letter: w the state's least weight, letter (0..3 for
    I, X, Y, Z) the first in that order reaching it at w, so one minimum per
    letter finds both.  Only the current front's keys stay live; the trail
    keeps each front's letters, 2 bits per state, and the witness is rebuilt
    backward from them.  Among the target states of least weight the least
    state is picked.  A code with more qubits than the 14-bit weight field
    holds raises CapacityError.
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
    # checked against the state cap before any key array is built.  basis is
    # front p's chosen basis, its top d vectors a basis of V ∩ front;
    # fronts[p] is its Echelon, tagged over the grown basis (basis, then V's
    # new directions), which gives the letters' and the next front's
    # coordinates and serves the backward walk
    fronts = []
    steps = []
    basis: List[int] = []
    d = 0
    peak = 1
    for p in range(n):
        _, cx, cy, cz = contribs[p]
        ech = Echelon(basis, nbits)
        grown = list(basis)
        for v in (cx, cz):
            if ech.solve(v) is None:  # extend only independent rows: tags stay in order
                ech.extend((v,))
                grown.append(v)
        fronts.append((ech, len(basis)))
        t = d + len(grown) - len(basis)
        low = len(grown) - t
        moves = [0] + [ech.solve(v) >> low for v in (cx, cy, cz)]
        # closing rows keep the coordinates x with combine(x, grown) & close == 0
        close = closes[p]
        kernel = left_kernel([g & close for g in grown], close.bit_length())
        size = 1 << len(kernel)
        peak = max(peak, size)
        if size > budgets.dp_state_cap:
            raise CapacityError(
                f"transfer DP front has {size} states at position {p}",
                required=size, cap=budgets.dp_state_cap,
            )
        # the next front's chosen basis: a basis of V_{p+1} ∩ front on top
        shared = []
        if p + 1 < n:
            inside = [ech.solve(v) for v in contribs[p + 1][1:] if v and not v & close]
            shared = extend_basis((), (x for x in inside if x is not None))
        coords = extend_basis(shared, kernel) + shared
        steps.append((d, t, moves, coords))
        basis = [combine(x, grown) for x in coords]
        d = len(shared)
    fronts.append((Echelon(basis, nbits), len(basis)))

    # keys[i] is the key of the state combine(i, basis) of the current
    # front; trail[p] keeps only the letters of fronts[p], packed
    keys = np.zeros(1, dtype=np.uint16)
    trail = [_pack_letters(keys)]
    for d, t, moves, coords in steps:
        keys &= ~np.uint16(3)  # the trail holds the letters; steps read weights
        grown = _letter_step(keys, d, t, moves).reshape(-1)
        keys = None  # freed before the gather
        keys = _gather_span(grown, coords)
        del grown
        trail.append(_pack_letters(keys))

    weights = keys >> 2
    states = _span(basis)
    sel = ((states >> det_width) & targets) != 0
    # every used class is carried by some logical, so some state reaches it
    certify(sel.any(), "DP front holds no target class")
    cand = np.flatnonzero(sel)
    best_w = int(weights[cand].min())
    best = int(states[cand[weights[cand] == best_w]].min())
    letters = _dp_witness(fronts, trail, contribs, best)
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
) -> BarrierResult:
    """Energy ceiling of the walk implementing the witness letter by letter.

    row_by_row applies the letters in cross-coordinate-major order (the walk
    sweeps along the witness string so only its moving front costs energy);
    arbitrary applies them in qubit-index order.
    """
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
