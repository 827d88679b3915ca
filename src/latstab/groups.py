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
from .errors import DimensionError, ValidationError, certify
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


def _gram(rows: Sequence[int], n: int) -> List[int]:
    """The rows' symplectic Gram matrix: bit j of entry i says rows i, j anticommute."""
    table = gf2.transpose(rows, 2 * n)
    return [gf2.combine(omega(r, n), table) for r in rows]


def _center(basis: GroupBasis) -> GroupBasis:
    """The center of the span: the rows' combinations by the kernel of their
    Gram matrix, which are the elements commuting with every row."""
    kernel = gf2.Echelon(_gram(basis.rows, basis.n), basis.rank).kernel
    return GroupBasis(basis.n, gf2.rref(gf2.combine(c, basis.rows) for c in kernel)[0])


def _restricted_k(basis: GroupBasis, qubit_mask: int) -> int:
    """k_M of the gauge code on the masked qubits generated by the rows'
    restrictions R: n_M - rank(R) + rank(Gram(R))/2.  Restriction is a
    homomorphism, so R spans the restricted group; its center has rank
    rank(R) - rank(Gram) and it has rank(Gram)/2 gauge pairs."""
    n = basis.n
    m2 = qubit_mask | (qubit_mask << n)
    rows = [v for v in (r & m2 for r in basis.rows) if v]
    return qubit_mask.bit_count() - gf2.rank(rows) + gf2.rank(_gram(rows, n)) // 2


def contained_subgroup(basis: GroupBasis, qubit_mask: int) -> GroupBasis:
    """Subgroup of span elements whose support lies inside the masked qubits."""
    n = basis.n
    out_mask = ~(qubit_mask | (qubit_mask << n))
    outside = [r & out_mask for r in basis.rows]
    rows = [gf2.combine(coeff, basis.rows) for coeff in gf2.Echelon(outside, 2 * n).kernel]
    return GroupBasis(n, gf2.rref(rows)[0])


@dataclass(frozen=True)
class LogicalBasis:
    """Anticommuting logical pairs: `pairs` are the protected (used) qubits,
    `gauge_pairs` live inside the gauge group modulo its center."""

    n: int
    pairs: Tuple[Tuple[PauliOp, PauliOp], ...]
    gauge_pairs: Tuple[Tuple[PauliOp, PauliOp], ...]


class CosetReducer:
    """Deterministic low-weight representative of a vector modulo span(rows).

    Exact when the rows span at most 2^_MAX_COSET_ENUM_RANK elements: the
    span is laid out once, at construction, as 2W uint64 word columns of
    length 2^rank (W = ceil(n/64) little-endian X words, then W Z words),
    next to each element's weight in uint16.  A call weighs vec ^ s only for
    the span elements s with wt(s) <= 2 wt(vec).  That is exact: supp(s) lies
    in supp(vec) ∪ supp(vec ^ s), so wt(s) > 2 wt(vec) gives wt(vec ^ s) >
    wt(vec) = wt(vec ^ 0), and the bound keeps its ties, so the least
    (weight, vector) is the one over the whole span; a bound below the least
    nonzero span weight returns vec at once.  Greedy descent over the rows
    otherwise.  Tie-break: lexicographically smallest vector.
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
            # a weight past 2^16 wraps in uint16 and so only adds candidates
            W = self.nwords
            self.weights = np.zeros(size, dtype=np.uint16)
            for w in range(W):
                self.weights += np.bitwise_count(span[w] | span[W + w])
            self.least = int(self.weights[1:].min(initial=0xFFFF))

    def _words(self, v: int) -> np.ndarray:
        packed = (v & ((1 << self.n) - 1)) | ((v >> self.n) << (64 * self.nwords))
        return np.frombuffer(packed.to_bytes(16 * self.nwords, "little"), dtype=_WORD)

    def __call__(self, vec: int) -> int:
        if self.span is None:
            return self._greedy(vec)
        W = self.nwords
        words = self._words(vec)
        bound = 2 * _weight(vec, self.n)
        if bound < self.least:  # no nonzero span element is light enough
            return vec
        idx = np.flatnonzero(self.weights <= bound)
        weights = np.zeros(len(idx), dtype=np.int64)
        for w in range(W):
            x = self.span[w][idx] ^ words[w]
            x |= self.span[W + w][idx] ^ words[W + w]
            weights += np.bitwise_count(x)
        idx = idx[weights == weights.min()]
        lightest = np.stack([col[idx] for col in self.span], axis=1) ^ words
        # Z words sit above X words and x < 2^n, so the packed words order
        # like the vectors they encode
        packed = min(int.from_bytes(row.tobytes(), "little") for row in lightest)
        return (packed & ((1 << 64 * W) - 1)) | ((packed >> 64 * W) << self.n)

    def _greedy(self, vec: int) -> int:
        n = self.n
        improved = True
        best = vec
        bw = _weight(vec, n)
        while improved:
            improved = False
            for r in self.rows:
                cand = best ^ r
                cw = _weight(cand, n)
                if cw < bw or (cw == bw and cand < best):
                    best, bw = cand, cw
                    improved = True
        return best


def _weight(v: int, n: int) -> int:
    """Number of qubits on which the 2n-bit vector v acts."""
    return ((v & ((1 << n) - 1)) | (v >> n)).bit_count()


def _symplectic_pairs(vectors: List[int], n: int) -> List[Tuple[int, int]]:
    """Greedy symplectic Gram-Schmidt over a set of vectors on which the form
    is nondegenerate modulo the ambient radical.  The form is symmetric, so
    each chosen vector's omega is taken once and paired with the pool."""
    pool = list(vectors)
    out = []
    while pool:
        v = pool.pop(0)
        ov = omega(v, n)
        i = next((i for i, u in enumerate(pool) if gf2.parity(u & ov)), None)
        certify(i is not None, "degenerate symplectic form on logical candidates")
        partner = pool.pop(i)
        op = omega(partner, n)
        cleaned = []
        for u in pool:
            if gf2.parity(u & op):
                u ^= v
            if gf2.parity(u & ov):
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

    Construction computes the gauge group, the stabilizer group (center for
    gauge codes), the counts s, g, k and the syndrome maps.  The centralizer
    C(G), the deterministic logical basis (used and gauge pairs) and the
    logical-class map are built on first read, since callers that need only
    the counts, such as the minimal-block search, never read them; only the
    logical basis reads C(G).
    """

    def __init__(self, code: CodeSpec):
        self.code = code
        n = code.n
        self.n = n
        self.gen_vectors = tuple(g.vector for g in code.generators)
        self.gen_omega = tuple(omega(v, n) for v in self.gen_vectors)
        self.G = span_basis(n, code.generators)
        self.S = self.G if code.role == STABILIZER else _center(self.G)
        self.s = self.S.rank
        certify((self.G.rank - self.s) % 2 == 0, "gauge rank minus center rank must be even")
        self.g = (self.G.rank - self.s) // 2
        self.k = n - self.s - self.g
        self.stab_omega = tuple(omega(r, n) for r in self.S.rows)
        self.gen_table = gf2.transpose(self.gen_omega, 2 * n)
        self.stab_table = gf2.transpose(self.stab_omega, 2 * n)

    @cached_property
    def CG(self) -> GroupBasis:
        """C(G), the operators commuting with every element of G."""
        return centralizer(self.G)

    @cached_property
    def logicals(self) -> LogicalBasis:
        n = self.n

        def sort_key(v):
            return (_weight(v, n), v)

        # greedy extensions of S: first by the gauge rows, then by C(G)'s
        span = gf2.Echelon(self.S.rows)
        gauge_ext = [v for v in sorted(self.G.rows, key=sort_key) if span.extend((v,))]
        certify(len(gauge_ext) == 2 * self.g, "gauge extension has wrong dimension")
        used_ext = [v for v in sorted(self.CG.rows, key=sort_key) if span.extend((v,))]
        certify(len(used_ext) == 2 * self.k, "logical extension has wrong dimension")

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

    @cached_property
    def class_table(self) -> List[int]:
        return gf2.transpose(self.class_omega, 2 * self.n)

    # -- linear maps ---------------------------------------------------------
    # The PauliOp forms check the operator's qubit count; the _vec forms take
    # a 2n-bit vector as given.

    def _vector(self, op: PauliOp) -> int:
        if op.n != self.n:
            raise DimensionError(f"operator acts on {op.n} qubits, code has {self.n}")
        return op.vector

    def syndrome_vec(self, v: int) -> int:
        """Anticommutation bits against the declared generator list."""
        return gf2.combine(v, self.gen_table)

    def syndrome(self, op: PauliOp) -> int:
        return self.syndrome_vec(self._vector(op))

    def energy_vec(self, v: int) -> int:
        return 2 * self.syndrome_vec(v).bit_count()

    def energy(self, op: PauliOp) -> int:
        """Energy cost: twice the number of declared terms anticommuting with op.

        Exact for commuting-generator Hamiltonians; an upper bound on the
        sector gap for non-commuting gauge Hamiltonians.
        """
        return self.energy_vec(self._vector(op))

    def stab_syndrome_vec(self, v: int) -> int:
        return gf2.combine(v, self.stab_table)

    def class_bits_vec(self, v: int) -> int:
        """Pairing with the used logical pairs: bit 2j is the X-bar_j
        component (pairing with Z-bar_j), bit 2j+1 the Z-bar_j component."""
        return gf2.combine(v, self.class_table)

    def class_bits(self, op: PauliOp) -> int:
        return self.class_bits_vec(self._vector(op))

    # -- membership / targets -------------------------------------------------

    def detector_rows(self, mode: str) -> Tuple[int, ...]:
        """The omega rows a search target must commute with: the declared
        generators in bare mode and for a stabilizer code (G = S), else the
        stabilizer rows.  An unknown mode is a ValidationError."""
        if mode not in ("subsystem", "bare"):
            raise ValidationError(f"unknown mode {mode!r}")
        if mode == "bare" or self.code.role == STABILIZER:
            return self.gen_omega
        return self.stab_omega

    def detector_table(self, mode: str) -> List[int]:
        """The column table of detector_rows(mode)."""
        return self.gen_table if self.detector_rows(mode) is self.gen_omega else self.stab_table

    def target_bits(self, class_mask: Optional[int]) -> int:
        """The used-class bits a target must overlap: all 2k of them for
        None, else the mask's bits among them (bits >= 2k name no pair).
        A negative mask, or one that selects no used pair, is a
        ValidationError."""
        used = (1 << (2 * self.k)) - 1
        if class_mask is None:
            return used
        if class_mask < 0:
            raise ValidationError(f"class mask {class_mask} is negative")
        if not class_mask & used:
            raise ValidationError(
                f"class mask {class_mask:#b} selects none of the {self.k} used logical pairs")
        return class_mask & used

    def is_logical_vec(self, v: int, mode: str, class_mask: Optional[int] = None) -> bool:
        """Target predicate for distance/barrier searches.

        subsystem: commutes with the stabilizer group and carries a
        used-class component (so lies outside G, which is S for a stabilizer
        code).  bare: commutes with the whole gauge group and lies outside
        it.  class_mask restricts targets to ones overlapping the given
        used-class bits (see target_bits).
        """
        table, targets = self.detector_table(mode), self.target_bits(class_mask)
        return not gf2.combine(v, table) and bool(self.class_bits_vec(v) & targets)

    def is_logical(self, op: PauliOp, mode: str = "subsystem",
                   class_mask: Optional[int] = None) -> bool:
        return self.is_logical_vec(self._vector(op), mode, class_mask)


_structure_cache: Dict[CodeSpec, CodeStructure] = {}


def get_structure(code: CodeSpec) -> CodeStructure:
    st = _structure_cache.get(code)
    if st is None:
        if len(_structure_cache) > 128:
            _structure_cache.clear()
        st = _structure_cache[code] = CodeStructure(code)
    return st
