"""GF(2) linear algebra on int bitsets (bit i = column i, little-endian).

Every elimination runs through one kernel, `Echelon`, so every result below
follows one pivot convention and is fixed by the order of the input rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def parity(x: int) -> int:
    return x.bit_count() & 1


def low_bit(x: int) -> int:
    """Index of the lowest set bit. x must be nonzero."""
    return (x & -x).bit_length() - 1


def bits(x: int) -> List[int]:
    """The set bits of x, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def transpose(rows: Sequence[int], ncols: int) -> List[int]:
    """The rows' column table: bit i of entry c is bit c of rows[i], so for v
    below 2^ncols bit i of combine(v, table) is parity(v & rows[i]), read at
    the cost of v's set bits; with omega-swapped rows, v's anticommutations."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def combine(mask: int, rows: Sequence[int]) -> int:
    """XOR of rows[i] over the set bits i of mask."""
    v = 0
    while mask:
        v ^= rows[low_bit(mask)]
        mask &= mask - 1
    return v


def gather(v: int, cols: int) -> int:
    """The bits of v at the set bits of cols, packed: bit j of the result is
    v's bit at the j-th lowest set bit of cols."""
    out = 0
    v &= cols
    while v:
        low = v & -v
        out |= 1 << (cols & (low - 1)).bit_count()
        v ^= low
    return out


def scatter(v: int, cols: int) -> int:
    """The inverse of gather: bit j of v goes to the j-th lowest set bit of cols."""
    out = 0
    while v:
        low = cols & -cols
        if v & 1:
            out |= low
        v >>= 1
        cols ^= low
    return out


def _reduce(r: int, pivot_rows: Iterable[Tuple[int, int]]) -> int:
    for p, q in pivot_rows:
        if (r >> p) & 1:
            r ^= q
    return r


class Echelon:
    """Fully reduced row echelon form, grown one row at a time.

    A row's pivot is its lowest set data bit: any bit when ``ncols`` is None,
    else a bit below ``ncols``.  With ``ncols`` given, the i-th added row is
    cut to its data bits and tagged with bit ``ncols + i``: ``solve`` reads
    coefficients off the tags, and each added row that reduces to zero leaves
    its tag, a dependency among the added rows, in ``kernel``.

    Fully reduced means each pivot bit is set in its own row and in no other
    row; ``pivmask`` holds the pivot bits.  XORing in a pivot's row thus
    clears that pivot bit and flips no other, so a vector is reduced in one
    pass by the rows of the pivot bits it holds, and by no other row.
    """

    __slots__ = ("ncols", "data_mask", "piv2row", "pivmask", "kernel")

    def __init__(self, rows: Iterable[int] = (), ncols: Optional[int] = None):
        self.ncols = ncols
        self.data_mask = -1 if ncols is None else (1 << ncols) - 1
        self.piv2row: Dict[int, int] = {}
        self.pivmask = 0
        self.kernel: List[int] = []
        self.extend(rows)

    def reduce(self, r: int) -> int:
        """r less the span's vector that clears r's pivot bits."""
        piv2row = self.piv2row
        held = r & self.pivmask
        while held:
            low = held & -held
            r ^= piv2row[low.bit_length() - 1]
            held ^= low
        return r

    def extend(self, rows: Iterable[int]) -> int:
        """Insert the rows in order; returns how many were independent of the
        rows before them."""
        piv2row, kernel, ncols, data_mask = self.piv2row, self.kernel, self.ncols, self.data_mask
        independent = 0
        for r in rows:
            if ncols is not None:
                # every added row is stored or left in the kernel
                r = (r & data_mask) | (1 << (ncols + len(piv2row) + len(kernel)))
            r = self.reduce(r)
            data = r & data_mask
            if not data:
                if ncols is not None:
                    kernel.append(r >> ncols)
                continue
            pv = low_bit(data)
            for p, q in piv2row.items():
                if (q >> pv) & 1:
                    piv2row[p] = q ^ r
            piv2row[pv] = r
            self.pivmask |= 1 << pv
            independent += 1
        return independent

    def solve(self, target: int) -> Optional[int]:
        """Coefficient mask c with XOR of the added rows selected by c equal to
        target (needs ``ncols``), or None when target is outside the span."""
        t = self.reduce(target)
        if t & self.data_mask:
            return None
        return t >> self.ncols


def rref(rows: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (rows, pivot columns), both pivot-sorted.

    Pivots are taken in ascending column order (bit 0 first), which fixes the
    deterministic echelon convention used throughout the package.
    """
    piv2row = Echelon(rows).piv2row
    pivots = sorted(piv2row)
    return [piv2row[p] for p in pivots], pivots


def rank(rows: Iterable[int]) -> int:
    return len(rref(rows)[0])


def in_span(r: int, rref_rows: List[int], pivots: List[int]) -> bool:
    return _reduce(r, zip(pivots, rref_rows)) == 0


def nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {v : parity(r & v) == 0 for every row r}: one vector per free
    column f, f plus the pivots of the reduced rows holding f."""
    red, pivots = rref(rows)
    pivot_bits = [1 << p for p in pivots]
    pivmask = sum(pivot_bits)
    table = transpose(red, ncols)
    return [1 << f | combine(table[f], pivot_bits) for f in range(ncols) if not pivmask >> f & 1]

