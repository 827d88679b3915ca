"""Pauli subgroup machinery over the symplectic GF(2) representation.

Groups are handled projectively as GF(2) row spans of 2n-bit vectors.  The
echelon pivot order is the symplectic column order (X-bits then Z-bits), which
makes membership exponent vectors and every derived basis deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .codes import STABILIZER, CodeSpec
from .errors import ValidationError
from .pauli import PauliOp, omega

_MAX_COSET_ENUM_RANK = 16
_WORD = np.dtype("<u8")


class GroupBasis:
    """Independent generating rows of a projective Pauli subgroup."""

    __slots__ = ("n", "rows", "rref_rows", "pivots")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        kept: List[int] = []
        red, piv = [], []
        for r in rows:
            if not gf2.in_span(r, red, piv):
                kept.append(r)
                red, piv = gf2.rref(red + [r])
        self.rows = tuple(kept)
        self.rref_rows = tuple(red)
        self.pivots = tuple(piv)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains_vec(self, v: int) -> bool:
        return gf2.in_span(v, list(self.rref_rows), list(self.pivots))

    def contains(self, op: PauliOp) -> bool:
        return self.contains_vec(op.vector)

    def member_vec(self, v: int) -> Optional[int]:
        """Coefficient mask over self.rows, or None if v is outside the span."""
        return gf2.solve(list(self.rows), v, 2 * self.n)

    def member(self, op: PauliOp) -> Optional[Tuple[int, ...]]:
        """Unique GF(2) exponent vector of op over the basis rows, or None."""
        mask = self.member_vec(op.vector)
        if mask is None:
            return None
        return tuple((mask >> i) & 1 for i in range(self.rank))

    def ops(self) -> List[PauliOp]:
        return [PauliOp.from_vector(self.n, r) for r in self.rows]

    def __repr__(self):
        return f"GroupBasis(n={self.n}, rank={self.rank})"


def span_basis(n: int, ops: Sequence[PauliOp]) -> GroupBasis:
    """Greedy independent subset of the given generators, in order."""
    for op in ops:
        if op.n != n:
            raise ValidationError(f"operator on {op.n} qubits in an n={n} group")
    return GroupBasis(n, [op.vector for op in ops])


def centralizer(basis: GroupBasis) -> GroupBasis:
    """All Pauli vectors commuting with every row: the symplectic nullspace."""
    n = basis.n
    rows = [omega(r, n) for r in basis.rows]
    return GroupBasis(n, gf2.nullspace(rows, 2 * n))


def _intersection(a: GroupBasis, b: GroupBasis) -> GroupBasis:
    return GroupBasis(a.n, gf2.intersect_spans(list(a.rows), list(b.rows), 2 * a.n))


def center(basis: GroupBasis) -> GroupBasis:
    """Span of the group intersected with its centralizer."""
    return _intersection(basis, centralizer(basis))


def restrict_group(basis: GroupBasis, qubit_mask: int) -> GroupBasis:
    """Group of restrictions onto the masked qubits (correct because
    restriction is a homomorphism of the projective group)."""
    m2 = qubit_mask | (qubit_mask << basis.n)
    return GroupBasis(basis.n, [r & m2 for r in basis.rows])


def contained_subgroup(basis: GroupBasis, qubit_mask: int) -> GroupBasis:
    """Subgroup of span elements whose support lies inside the masked qubits."""
    n = basis.n
    out_mask = ~(qubit_mask | (qubit_mask << n))
    outside = [r & out_mask for r in basis.rows]
    rows = []
    for coeff in gf2.left_kernel(outside, 2 * n):
        v = 0
        for i in range(basis.rank):
            if (coeff >> i) & 1:
                v ^= basis.rows[i]
        if v:
            rows.append(v)
    return GroupBasis(n, gf2.rref(rows)[0])


@dataclass(frozen=True)
class LogicalBasis:
    """Anticommuting logical pairs: `pairs` are the protected (used) qubits,
    `gauge_pairs` live inside the gauge group modulo its center."""

    n: int
    pairs: Tuple[Tuple[PauliOp, PauliOp], ...]
    gauge_pairs: Tuple[Tuple[PauliOp, PauliOp], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def g(self) -> int:
        return len(self.gauge_pairs)


class CosetReducer:
    """Deterministic low-weight representative of a vector modulo span(rows).

    Exact when the rows span at most 2^_MAX_COSET_ENUM_RANK elements: the
    span is laid out once, at construction, as 2W uint64 word columns of
    length 2^rank (W = ceil(n/64) little-endian X words, then W Z words), and
    each call weighs every candidate vec ^ s at once, one word column at a
    time into preallocated buffers.  Greedy descent over the rows otherwise.
    Tie-break: lexicographically smallest vector.
    """

    def __init__(self, rows: Sequence[int], n: int):
        self.n = n
        self.rows = list(rows)
        self.nwords = (n + 63) // 64
        self.span = None
        if len(self.rows) <= _MAX_COSET_ENUM_RANK:
            size = 1 << len(self.rows)
            # separate columns rather than one (2^rank, 2W) block: freeing a
            # multi-MB block raises glibc's dynamic mmap threshold, after which
            # later allocations stay on the heap (+2 MB peak RSS on the
            # structure-large benchmark workload)
            span = [np.zeros(size, dtype=_WORD) for _ in range(2 * self.nwords)]
            for i, r in enumerate(self.rows):
                for col, word in zip(span, self._words(r)):
                    col[1 << i:2 << i] = col[:1 << i] ^ word
            self.span = span
            self._x = np.empty(size, dtype=_WORD)
            self._z = np.empty(size, dtype=_WORD)
            self._weights = np.empty(size, dtype=np.uint32)

    def _words(self, v: int) -> np.ndarray:
        packed = (v & ((1 << self.n) - 1)) | ((v >> self.n) << (64 * self.nwords))
        return np.frombuffer(packed.to_bytes(16 * self.nwords, "little"), dtype=_WORD)

    def __call__(self, vec: int) -> int:
        if self.span is None:
            return self._greedy(vec)
        W = self.nwords
        words = self._words(vec)
        weights = self._weights
        weights.fill(0)
        for w in range(W):
            x = np.bitwise_xor(self.span[w], words[w], out=self._x)
            z = np.bitwise_xor(self.span[W + w], words[W + w], out=self._z)
            weights += np.bitwise_count(np.bitwise_or(x, z, out=x))
        idx = np.flatnonzero(weights == weights.min())
        lightest = np.stack([col[idx] for col in self.span], axis=1) ^ words
        # Z words sit above X words and x < 2^n, so the packed words order
        # like the vectors they encode
        packed = min(int.from_bytes(row.tobytes(), "little") for row in lightest)
        return (packed & ((1 << 64 * W) - 1)) | ((packed >> 64 * W) << self.n)

    def _greedy(self, vec: int) -> int:
        n = self.n

        def wt(v):
            return ((v & ((1 << n) - 1)) | (v >> n)).bit_count()

        improved = True
        best = vec
        bw = wt(vec)
        while improved:
            improved = False
            for r in self.rows:
                cand = best ^ r
                cw = wt(cand)
                if cw < bw or (cw == bw and cand < best):
                    best, bw = cand, cw
                    improved = True
        return best


def _symplectic_pairs(vectors: List[int], n: int) -> List[Tuple[int, int]]:
    """Greedy symplectic Gram-Schmidt over a set of vectors on which the form
    is nondegenerate modulo the ambient radical."""
    def sp(u, v):
        return gf2.parity(u & omega(v, n))

    pool = list(vectors)
    out = []
    while pool:
        v = pool.pop(0)
        partner = None
        for i, u in enumerate(pool):
            if sp(v, u):
                partner = pool.pop(i)
                break
        if partner is None:
            raise ValidationError("degenerate symplectic form on logical candidates")
        cleaned = []
        for u in pool:
            if sp(u, partner):
                u ^= v
            if sp(u, v):
                u ^= partner
            cleaned.append(u)
        pool = cleaned
        out.append((v, partner))
    return out


def _orient_pair(n: int, a: int, b: int) -> Tuple[int, int]:
    """Order a pair as (X-like, Z-like) by X-letter count, stable on ties."""
    xa = (a & ((1 << n) - 1)).bit_count()
    xb = (b & ((1 << n) - 1)).bit_count()
    if xb > xa:
        return b, a
    return a, b


class CodeStructure:
    """Cached group-theoretic decomposition of a code.

    Construction computes the gauge group, its centralizer, the stabilizer
    group (center for gauge codes), the counts s, g, k and the syndrome maps.
    The deterministic logical basis (used and gauge pairs) and the
    logical-class map are built on first read, since callers that need only
    the counts, such as the minimal-block search, never read them.
    """

    def __init__(self, code: CodeSpec):
        self.code = code
        n = code.n
        self.n = n
        self.gen_vectors = tuple(g.vector for g in code.generators)
        self.gen_omega = tuple(omega(v, n) for v in self.gen_vectors)
        self.G = span_basis(n, code.generators)
        self.CG = centralizer(self.G)
        self.S = self.G if code.role == STABILIZER else _intersection(self.G, self.CG)
        self.s = self.S.rank
        if (self.G.rank - self.s) % 2:
            raise ValidationError("gauge rank minus center rank must be even")
        self.g = (self.G.rank - self.s) // 2
        self.k = n - self.s - self.g
        self.stab_omega = tuple(omega(r, n) for r in self.S.rows)

    @cached_property
    def logicals(self) -> LogicalBasis:
        n = self.n

        def sort_key(v):
            return (PauliOp.from_vector(n, v).weight(), v)

        gauge_cands = sorted(self.G.rows, key=sort_key)
        gauge_ext = gf2.extend_basis(self.S.rows, gauge_cands)
        if len(gauge_ext) != 2 * self.g:
            raise ValidationError("gauge extension has wrong dimension")
        used_cands = sorted(self.CG.rows, key=sort_key)
        used_ext = gf2.extend_basis(list(self.S.rows) + gauge_ext, used_cands)
        if len(used_ext) != 2 * self.k:
            raise ValidationError("logical extension has wrong dimension")

        reduce = CosetReducer(self.S.rows, n)

        def build_pairs(vectors):
            pairs = []
            for a, b in _symplectic_pairs(vectors, n):
                a = reduce(a)
                b = reduce(b)
                a, b = _orient_pair(n, a, b)
                pairs.append((PauliOp.from_vector(n, a), PauliOp.from_vector(n, b)))
            return tuple(pairs)

        return LogicalBasis(
            n=n,
            pairs=build_pairs(used_ext),
            gauge_pairs=build_pairs(gauge_ext),
        )

    @cached_property
    def class_omega(self) -> Tuple[int, ...]:
        class_rows = []
        for xbar, zbar in self.logicals.pairs:
            class_rows.append(omega(zbar.vector, self.n))
            class_rows.append(omega(xbar.vector, self.n))
        return tuple(class_rows)

    # -- linear maps ---------------------------------------------------------

    def syndrome_vec(self, v: int) -> int:
        """Anticommutation bits against the declared generator list."""
        return gf2.pairings(v, self.gen_omega)

    def syndrome(self, op: PauliOp) -> int:
        return self.syndrome_vec(op.vector)

    def energy_vec(self, v: int) -> int:
        return 2 * self.syndrome_vec(v).bit_count()

    def energy(self, op: PauliOp) -> int:
        """Energy cost: twice the number of declared terms anticommuting with op.

        Exact for commuting-generator Hamiltonians; an upper bound on the
        sector gap for non-commuting gauge Hamiltonians.
        """
        return self.energy_vec(op.vector)

    def stab_syndrome_vec(self, v: int) -> int:
        return gf2.pairings(v, self.stab_omega)

    def class_bits_vec(self, v: int) -> int:
        """Pairing with the used logical pairs: bit 2j is the X-bar_j
        component (pairing with Z-bar_j), bit 2j+1 the Z-bar_j component."""
        return gf2.pairings(v, self.class_omega)

    def class_bits(self, op: PauliOp) -> int:
        return self.class_bits_vec(op.vector)

    # -- membership / targets -------------------------------------------------

    def in_S(self, op: PauliOp) -> bool:
        return self.S.contains(op)

    def in_G(self, op: PauliOp) -> bool:
        return self.G.contains(op)

    def check_mode(self, mode: str) -> None:
        """Reject a mode the search engines do not know, and stabilizer mode
        on a gauge code (whose dressed logicals need subsystem mode)."""
        if mode not in ("stabilizer", "subsystem", "bare"):
            raise ValidationError(f"unknown mode {mode!r}")
        if mode == "stabilizer" and self.code.role != STABILIZER:
            raise ValidationError("stabilizer mode on a gauge code; use subsystem")

    def is_logical_vec(self, v: int, mode: str, class_mask: Optional[int] = None) -> bool:
        """Target predicate for distance/barrier searches.

        stabilizer/subsystem: commutes with the stabilizer group and carries a
        used-class component (outside S resp. G).  bare: commutes with the
        whole gauge group and lies outside it.  class_mask restricts targets
        to ones overlapping the given used-class bits.
        """
        self.check_mode(mode)
        if (self.syndrome_vec if mode == "bare" else self.stab_syndrome_vec)(v):
            return False
        cls = self.class_bits_vec(v)
        if class_mask is not None:
            return bool(cls & class_mask)
        return cls != 0

    def is_logical(self, op: PauliOp, mode: str = "subsystem",
                   class_mask: Optional[int] = None) -> bool:
        return self.is_logical_vec(op.vector, mode, class_mask)


_structure_cache: Dict[CodeSpec, CodeStructure] = {}


def get_structure(code: CodeSpec) -> CodeStructure:
    if code not in _structure_cache:
        if len(_structure_cache) > 128:
            _structure_cache.clear()
        _structure_cache[code] = CodeStructure(code)
    return _structure_cache[code]


def logical_basis(code: CodeSpec) -> LogicalBasis:
    """Deterministic symplectic basis of logical pairs (used + gauge)."""
    return get_structure(code).logicals
