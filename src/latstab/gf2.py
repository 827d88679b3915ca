"""GF(2) linear algebra on int bitsets (bit i = column i, little-endian)."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


def parity(x: int) -> int:
    return x.bit_count() & 1


def low_bit(x: int) -> int:
    """Index of the lowest set bit. x must be nonzero."""
    return (x & -x).bit_length() - 1


def pairings(v: int, rows: Sequence[int]) -> int:
    """Bit i is parity(v & rows[i]); with omega-swapped rows, bit i is set
    exactly when v anticommutes with row i's operator."""
    out = 0
    for i, row in enumerate(rows):
        out |= parity(v & row) << i
    return out


def rref(rows: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (rows, pivot columns), both pivot-sorted.

    Pivots are taken in ascending column order (bit 0 first), which fixes the
    deterministic echelon convention used throughout the package.
    """
    piv2row = {}
    for r in rows:
        for p, q in piv2row.items():
            if (r >> p) & 1:
                r ^= q
        if r:
            pv = low_bit(r)
            for p in piv2row:
                if (piv2row[p] >> pv) & 1:
                    piv2row[p] ^= r
            piv2row[pv] = r
    pivots = sorted(piv2row)
    return [piv2row[p] for p in pivots], pivots


def rank(rows: Iterable[int]) -> int:
    return len(rref(rows)[0])


def reduce_row(r: int, rref_rows: List[int], pivots: List[int]) -> int:
    for row, p in zip(rref_rows, pivots):
        if (r >> p) & 1:
            r ^= row
    return r


def in_span(r: int, rref_rows: List[int], pivots: List[int]) -> bool:
    return reduce_row(r, rref_rows, pivots) == 0


def _augmented_rref(rows: List[int], ncols: int):
    """RREF of rows augmented with identity coefficient bits above ncols.

    Returns (piv2row, kernel_masks); data parts stay fully reduced so a single
    elimination pass over the result is order-independent.
    """
    mask = (1 << ncols) - 1
    piv2row = {}
    kernel = []
    for i, r in enumerate(rows):
        a = (r & mask) | (1 << (ncols + i))
        for p, q in piv2row.items():
            if (a >> p) & 1:
                a ^= q
        if a & mask:
            pv = low_bit(a & mask)
            for p in piv2row:
                if (piv2row[p] >> pv) & 1:
                    piv2row[p] ^= a
            piv2row[pv] = a
        else:
            kernel.append(a >> ncols)
    return piv2row, kernel


def solve(rows: List[int], target: int, ncols: int) -> Optional[int]:
    """Coefficient mask c with XOR of rows[i] over set bits of c == target.

    Rows may be dependent; returns the solution picked by the deterministic
    echelon order, or None when target is outside the span.
    """
    piv2row, _ = _augmented_rref(rows, ncols)
    t = target
    for p, q in piv2row.items():
        if (t >> p) & 1:
            t ^= q
    if t & ((1 << ncols) - 1):
        return None
    return t >> ncols


def left_kernel(rows: List[int], ncols: int) -> List[int]:
    """Basis of coefficient masks c with XOR of rows selected by c == 0."""
    return _augmented_rref(rows, ncols)[1]


def nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {v : parity(r & v) == 0 for every row r}."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for row, p in zip(red, pivots):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def intersect_spans(rows_a: List[int], rows_b: List[int], ncols: int) -> List[int]:
    """RREF basis of span(rows_a) ∩ span(rows_b)."""
    stacked = list(rows_a) + list(rows_b)
    na = len(rows_a)
    out = []
    for mask in left_kernel(stacked, ncols):
        v = 0
        for i in range(na):
            if (mask >> i) & 1:
                v ^= rows_a[i]
        if v:
            out.append(v)
    return rref(out)[0]


def extend_basis(base_rows: Iterable[int], candidates: Iterable[int]) -> List[int]:
    """Greedy independent extension: candidates (in order) independent of base."""
    red, pivots = rref(base_rows)
    piv2row = dict(zip(pivots, red))
    added = []
    for c in candidates:
        r = c
        for p, q in piv2row.items():
            if (r >> p) & 1:
                r ^= q
        if r:
            pv = low_bit(r)
            for p in piv2row:
                if (piv2row[p] >> pv) & 1:
                    piv2row[p] ^= r
            piv2row[pv] = r
            added.append(c)
    return added
