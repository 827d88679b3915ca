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
from typing import Dict, List, Optional, Sequence, Tuple

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
from .gf2 import Echelon, combine, gather, low_bit, nullspace, scatter
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
    n = code.n
    det = letter_pairings(st.detector_table(mode), n)
    if st.k == 0:
        return DistanceResult(None, "no_logicals", mode, "bruteforce")
    targets = st.target_bits(class_mask)
    cls = letter_pairings(st.class_table, n)
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


def _bits(x: int) -> List[int]:
    """The set bits of x, lowest first."""
    out = []
    while x:
        out.append(low_bit(x))
        x &= x - 1
    return out


class _CanonicalBasis:
    """A basis of a DP front in which each vector's pivot is its
    soonest-closing detector bit (ties broken by bit) and no other vector
    holds that bit.  A vector without detector bits has a class pivot, kept
    out of the other class vectors only: class bits never close.  Each
    vector is tagged by its coordinates over the DP's grown basis.

    Adding a direction first reduces it by the pivots it holds, then clears
    its own pivot from the vectors holding it.  That XOR adds only bits that
    close no sooner than the pivot, so each pivot stays its vector's
    soonest-closing bit; a detector bit closing at position p therefore lies
    only in vectors whose pivot closes at p, and cutting the front at p is
    dropping those vectors.
    """

    __slots__ = ("rows", "tags", "pivots", "det_mask", "close_at")

    def __init__(self, det_width: int, nbits: int, n: int):
        self.rows: Dict[int, int] = {}  # pivot bit -> vector
        self.tags: Dict[int, int] = {}  # pivot bit -> coordinates
        self.pivots = 0
        self.det_mask = (1 << det_width) - 1
        self.close_at = [n * 64 + b for b in range(nbits)]  # state bits < 64

    def open(self, bit: int, last: int) -> None:
        """A detector row on ``bit`` opens, closing at position ``last``."""
        self.close_at[bit] = last * 64 + bit

    def _reduce(self, v: int) -> Tuple[int, int, int]:
        """v less the span's vectors with the pivots it holds, detector
        pivots first and class ones only if no detector bit is left; with
        those vectors' pivots and the XOR of their coordinates."""
        used = tag = 0
        for pivots in (self.pivots & self.det_mask, self.pivots):
            held = v & pivots
            for b in _bits(held):
                v ^= self.rows[b]
                tag ^= self.tags[b]
            used |= held
            if v & self.det_mask:
                break
        return v, used, tag

    def solve(self, v: int) -> Optional[int]:
        """The coordinates of v, or None when v is outside the span."""
        v, _, tag = self._reduce(v)
        return None if v else tag

    def coefficients(self, s: int) -> int:
        """The pivots of the vectors whose XOR is s, a vector of the span."""
        return self._reduce(s)[1]

    def add(self, v: int, tag: int) -> None:
        """Extend by v, a direction new to the span, with coordinates tag."""
        det_mask = self.det_mask
        w, _, used_tag = self._reduce(v)
        tag ^= used_tag
        det = w & det_mask
        piv = min(_bits(det), key=self.close_at.__getitem__) if det else low_bit(w)
        for q, u in self.rows.items():
            if u >> piv & 1 and (det or not u & det_mask):
                self.rows[q] = u ^ w
                self.tags[q] ^= tag
        self.rows[piv] = w
        self.tags[piv] = tag
        self.pivots |= 1 << piv

    def cut(self, close: int) -> None:
        """Keep the span's states whose ``close`` bits are zero."""
        for b in _bits(close & self.pivots):
            del self.rows[b], self.tags[b]
        self.pivots &= ~close


def _move_cost(dim: int, m: int, slots: int, c: int, f: int) -> float:
    """Estimated ns of _move from a front of 2^dim keys to one of 2^m with
    ``slots`` letters per state, rotating c key bits and copying runs of 2^f
    keys.  Per-key costs of numpy's copies and takes on a 2-core x86 host:
    a rotation reads each key once (a 32-bit view splits one bit, a
    transposed copy more); a take costs more per key the shorter its runs,
    and every letter adds and takes a minimum; the block table costs about
    (10 + 4 * slots) ns per block."""
    rotate = 0.0 if c == 0 else 0.25 if c == 1 else 0.45 + 0.05 * c
    take = (1.5, 0.41, 0.2, 0.13, 0.09)[min(f, 4)] + 0.12
    return rotate * (1 << dim) + take * slots * (1 << m) + (10 + 4 * slots) * (1 << (m - f))


def _next_layout(canon: _CanonicalBasis, shared: List[int], low: int, dim: int,
                 slots: int) -> Tuple[List[int], int, int, List[int]]:
    """The next front's chosen basis: its coordinates over the grown basis,
    the rotation c and run f that _move reads them by, and its vectors.
    canon's tags become coordinates over the new basis.

    The basis is the canonical one less one vector per shared one, the
    shared vectors (a basis of V_{p+1} ∩ front) on top.  Each shared vector
    takes the place of the latest-closing canonical vector among those it
    sums, after elimination by the shared vectors before it.  A kept vector
    that is the grown basis's vector i < low keeps the coordinate 1 << i, a
    unit; a unit no other coordinate touches is free.  If the free units are
    c, c + 1, ..., c + f - 1, they go first, in order, so the next front's
    lowest f coordinates are the current front's bits c..c + f - 1: with the
    lowest c key bits rotated to the top, _move copies runs of 2^f keys, and
    the order carries over to the next position.  c minimises _move_cost."""
    tags = canon.tags
    drop = 0
    done: List[Tuple[int, int, int]] = []  # (dropped pivot, coefficients, shared sum)
    for k, s in enumerate(shared):
        coef, combo = canon.coefficients(s), 1 << k
        for b, prior, prior_combo in done:
            if coef >> b & 1:
                coef ^= prior
                combo ^= prior_combo
        b = max(_bits(coef), key=canon.close_at.__getitem__)
        done.append((b, coef, combo))
        drop |= 1 << b
    units, others = [], []
    for b in sorted(canon.rows, key=canon.close_at.__getitem__):
        if not drop >> b & 1:
            x = tags[b]
            (units if not x & (x - 1) and x >> low == 0 else others).append(b)
    top = [canon.solve(s) for s in shared]
    touched = 0
    for x in [tags[b] for b in others] + top:
        touched |= x
    home = {b: tags[b].bit_length() - 1 for b in units}
    run = [0] * (low + 1)  # run[c]: free units at c, c + 1, ...
    for i in sorted((home[b] for b in units if not touched >> home[b] & 1), reverse=True):
        run[i] = run[i + 1] + 1
    m = len(units) + len(others) + len(shared)
    c = min((c for c in range(low + 1) if c == 0 or run[c] and not run[c - 1]),
            key=lambda c: _move_cost(dim, m, slots, c, run[c]))
    first = sorted((b for b in units if home[b] >= c and not touched >> home[b] & 1),
                   key=home.__getitem__)
    kept = first + [b for b in units if home[b] < c or touched >> home[b] & 1] + others
    coords = [tags[b] for b in kept] + top
    # relabel: kept vector j is coordinate j; a dropped one solves the
    # shared sums, last elimination first
    for j, b in enumerate(kept):
        tags[b] = 1 << j
    for b, coef, combo in reversed(done):
        tag = 0
        for i in _bits(combo):
            tag ^= 1 << (len(kept) + i)
        for q in _bits(coef ^ 1 << b):
            tag ^= tags[q]
        tags[b] = tag
    return coords, c, run[c], [canon.rows[b] for b in kept] + shared


# A live DP key is (weight << 2) | letter in a uint16, the letter 0, 1, 2, 3
# for I, X, Y, Z; a key of weight up to _MAX_WEIGHT plus a step's + 7 fits.
_MAX_WEIGHT = 0x3FFD
_COSTS = (0, 5, 6, 7)  # per letter I, X, Y, Z: weight + 1 and the letter
_COST_KEYS = np.array(_COSTS, dtype=np.uint16)


def _rotate(keys: "np.ndarray", c: int, out: "np.ndarray") -> None:
    """keys with the lowest c bits of the index moved to the top, into out:
    key i goes to (i >> c) | (i % 2^c) << (dim - c).  keys is scratch
    afterwards."""
    q = len(keys) >> c
    if c == 1:
        # a little-endian 32-bit word holds keys 2j (low half) and 2j + 1
        words = keys.view("<u4")
        np.copyto(out[:q], words, casting="unsafe")
        words >>= 16
        np.copyto(out[q:], words, casting="unsafe")
    else:
        np.copyto(out.reshape(1 << c, q), keys.reshape(q, 1 << c).T)


# rows of the next front whose source rows _move computes at a time
_TABLE_ROWS = 1 << 12


def _move(bufs: List["np.ndarray"], tmp: "np.ndarray", dim: int, d: int, t: int,
          moves: Sequence[int], coords: Sequence[int], c: int, f: int) -> "np.ndarray":
    """One DP position: bufs[0] starts with the keys of a front of 2^dim
    states; the next front's keys are written into the start of one of the
    two buffers, which becomes bufs[0], and returned.  The rest is scratch,
    as is ``tmp``, which holds at least one run of 2^f keys.

    Next key y is the least over letters of key x ^ (move << low) plus the
    letter's cost, x = combine(y, coords) in the grown front, over the
    letters whose move keeps x's new directions (its bits from low + d on)
    inside the front.  With the lowest c key bits rotated to the top, y's
    lowest f bits are the keys' lowest f bits (_next_layout), so the keys
    read as rows of 2^f and each letter is one take of whole rows, their
    numbers from a table over y's higher bits, one entry per row, built for
    a bounded batch of rows at a time.  A state's letters fill 4 >> (t - d)
    slots; a slot's letter can change from row to row only when t > d.  The
    first slot is taken straight into the result, each other one through
    ``tmp`` and a minimum."""
    low = dim - d
    m = len(coords)
    if c:
        _rotate(bufs[0][:1 << dim], c, bufs[1][:1 << dim])
        bufs.reverse()
    run = 1 << f
    src = bufs[0][:1 << dim].reshape(-1, run)
    out = bufs[1][:1 << m].reshape(-1, run)
    batch = min(len(out), len(tmp) >> f, _TABLE_ROWS).bit_length() - 1
    x0 = np.zeros(1 << batch, dtype=np.int64)  # grown state of each row
    for j, v in enumerate(coords[f:f + batch]):
        np.bitwise_xor(x0[:1 << j], v, out=x0[1 << j:2 << j])
    shift = low - c - f
    # slot k of a row whose new directions are h holds letter fits[k][h]
    fits = np.array([[li for li in range(4) if moves[li] >> d == h]
                     for h in range(1 << (t - d))], dtype=np.intp).T
    step = np.array(moves, dtype=np.int64) << shift
    for start in range(0, len(out), len(x0)):
        x = x0 ^ combine(start >> batch, coords[f + batch:])
        # each row's source row, rotated like the keys, before the move
        row = ((x >> c) ^ ((x & ((1 << c) - 1)) << (dim - c))) >> f
        new = x >> (low + d)
        part = out[start:start + len(x)]
        for k, letter in enumerate(fits):
            if t > d:
                li = letter[new]
                index, cost = row ^ step[li], _COST_KEYS[li][:, None]
            else:
                index, cost = row ^ step[k], _COSTS[k]
            block = tmp[:part.size].reshape(-1, run) if k else part
            # indices are in range; "clip" skips the bounds check and buffer
            np.take(src, index, axis=0, out=block, mode="clip")
            np.add(block, cost, out=block)
            if k:
                np.minimum(part, block, out=part)
    bufs.reverse()
    return out.reshape(-1)


def _pack_letters(keys: "np.ndarray", scratch: "np.ndarray") -> "np.ndarray":
    """The 2-bit letters of ``keys``, four per byte: letter i sits in bits
    2 * (i % 4) of byte i // 4.  The keys' low bytes go into ``scratch``
    (uint16, at least len(keys) / 2 + 2 entries), read as little-endian
    32-bit words: a mask keeps the letters and one multiplication gathers a
    word's four into its top byte."""
    n = len(keys)
    low = scratch.view(np.uint8)[:-(-n // 4) * 4]
    low[n:] = 0
    np.copyto(low[:n], keys, casting="unsafe")
    words = low.view("<u4")
    words &= 0x03030303
    words *= 0x01041040  # letter j of the word lands in bits 24 + 2j
    words >>= 24
    return words.astype(np.uint8)


def _dp_witness(steps, trail, dims, i: int) -> List[int]:
    """Letters (0..3 for I, X, Y, Z) of the path reaching the state with
    coordinates ``i`` in the last front, rebuilt backward.  trail[p] holds, at
    each state's coordinates in front p's chosen basis, the letter that first
    reached it at its least weight; dims[p] is front p's dimension and
    steps[p] = (d, t, moves, coords, c, f) its step, coords giving the next
    front's basis in coordinates of the grown front p.  The XOR transitions
    are invertible, so each step undoes that letter's move on the top
    coordinates and certifies that the predecessor lies in front p, below
    2^dims[p].  That certificate checks the walk against the steps only;
    distance_dp checks the letters' contributions against the final state."""
    letters = []
    for p in range(len(steps) - 1, -1, -1):
        packed = trail[p + 1]
        li = int(packed[i >> 2]) >> 2 * (i & 3) & 3
        d, _, moves, coords = steps[p][:4]
        i = combine(i, coords) ^ moves[li] << (dims[p] - d)
        certify(not i >> dims[p], f"DP predecessor at position {p} is not in its front")
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
    whose closing bits are zero).  A front is held as a basis chosen for
    the next position and a uint16 key array indexed by each state's
    coordinates in that basis.  The letters of position p span V =
    span{X, Z} (Y = X ^ Z); the chosen basis puts a basis of V ∩ front in
    its top coordinates, and the directions of V new to the front go above
    them, so every letter moves only the top t <= 2 coordinates of the grown
    front.  The rest of the chosen basis comes from a canonical basis whose
    vectors are cut exactly when their soonest-closing bit closes
    (_CanonicalBasis), laid out so most coordinates keep their key bit from
    one front to the next (_next_layout).  Each position is then one move
    (_move): per letter, a take of whole runs of keys through a small table
    of rows, with no grown front and no per-state index.

    The bases alone fix every front's size, so the state cap is checked
    before any keys are built.  The canonical vectors are tagged by their
    coordinates over the grown basis: the letters' moves are read off the
    tags, and so are the next position's letters, whose span inside the
    cut front goes on top of the next basis.

    A key is (w << 2) | letter: w the state's least weight, letter (0..3 for
    I, X, Y, Z) the first in that order reaching it at w, so one minimum per
    letter finds both.  Only the current front's keys stay live, in two
    buffers of the largest front's size and a scratch of half that; the
    trail keeps each front's letters, 2 bits per state, and the witness is
    rebuilt backward from them in coordinates (_dp_witness).  Among the
    target states of least weight the least state is picked, so the result
    does not depend on the chosen bases.  A code with more qubits than the
    14-bit weight field holds raises CapacityError.
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
    mask_n = (1 << n) - 1

    # each row's window of positions; no detector row is zero (generators are
    # not the identity, the rows of S are independent)
    first, last = [], []
    for row in rows:
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
    det = letter_pairings(st.detector_table(mode), n)
    cls = letter_pairings(st.class_table, n)
    contribs = [(0, *(combine(dm, state_bits) | cm << det_width
                      for dm, cm in zip(det[q], cls[q]))) for q in order]
    closes = [0] * n
    opens: List[List[int]] = [[] for _ in range(n)]
    for i, p in enumerate(last):
        closes[p] |= state_bits[i]
        opens[first[i]].append(i)

    # the algebra pass, before any key array exists.  basis is front p's
    # chosen basis, its top d vectors a basis of V ∩ front; canon holds the
    # front's canonical basis tagged over the grown basis (basis, then V's
    # new directions)
    basis: List[int] = []
    canon = _CanonicalBasis(det_width, nbits, n)
    dims = [0]
    steps = []
    d = 0
    peak = 1
    for p in range(n):
        for i in opens[p]:
            canon.open(bit_of[i], last[i])
        _, cx, cy, cz = contribs[p]
        grown = len(basis)
        for v in (cx, cz):
            if canon.solve(v) is None:
                canon.add(v, 1 << grown)
                grown += 1
        low = len(basis) - d
        t = grown - low
        moves = [0] + [canon.solve(v) >> low for v in (cx, cy, cz)]
        close = closes[p]
        canon.cut(close)
        size = 1 << len(canon.rows)
        peak = max(peak, size)
        if size > budgets.dp_state_cap:
            raise CapacityError(
                f"transfer DP front has {size} states at position {p} > cap {budgets.dp_state_cap}",
                required=size, cap=budgets.dp_state_cap,
            )
        # V_{p+1} ∩ front goes on top of the next chosen basis
        span = Echelon()
        shared = []
        if p + 1 < n:
            shared = [v for v in contribs[p + 1][1:]
                      if not v & close and canon.solve(v) is not None and span.extend((v,))]
        coords, c, f, basis = _next_layout(canon, shared, low, len(basis), 4 >> (t - d))
        steps.append((d, t, moves, coords, c, f))
        dims.append(len(basis))
        d = len(shared)

    # keys[i] is the key of the state combine(i, basis) of the current
    # front, in one of two buffers of the largest front's size; trail[p]
    # keeps only the letters of front p, packed
    bufs = [np.zeros(max(peak, 2), dtype=np.uint16) for _ in range(2)]
    tmp = np.empty(max(peak >> 1, 1 << max(step[5] for step in steps)), dtype=np.uint16)
    keys = bufs[0][:1]
    trail = [_pack_letters(keys, bufs[1])]
    for p, step in enumerate(steps):
        keys &= ~np.uint16(3)  # the trail holds the letters; steps read weights
        keys = _move(bufs, tmp, dims[p], *step)
        trail.append(_pack_letters(keys, bufs[1]))

    weights = keys >> 2
    states = np.zeros(1, dtype=np.int64)  # the last front's states, in order
    for b in basis:
        states = np.concatenate((states, states ^ b))
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
