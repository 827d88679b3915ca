"""Projective n-qubit Pauli operators as symplectic GF(2) bit vectors.

An operator is a pair of int bitsets (x, z): qubit i carries I/X/Z/Y for
(x_i, z_i) = (0,0)/(1,0)/(0,1)/(1,1).  Phases are quotiented out: every value
represents an element of the Pauli group modulo <iI>, which is all the
distance, commutation and energy machinery ever needs.  The only
phase-sensitive case (P equal to minus a stabilizer) is a global phase on the
code space and is deliberately not distinguished.

The flat 2n-bit vector used by the group machinery is x | (z << n), so column
order is all X-bits then all Z-bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionError, ValidationError
from .gf2 import bits, parity

_LETTERS = ("I", "X", "Z", "Y")  # indexed by x + 2*z
LETTERS = ("X", "Y", "Z")  # the order of letter_pairings' triples
# letter, in either case -> its (x, z) bits
_BITS = {c: (i & 1, i >> 1) for i, letter in enumerate(_LETTERS) for c in (letter, letter.lower())}


@dataclass(frozen=True, slots=True, init=False)
class PauliOp:
    """Immutable projective Pauli operator on n qubits."""

    n: int
    x: int
    z: int

    def __init__(self, n: int, x: int = 0, z: int = 0):
        mask = (1 << n) - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x & mask)
        object.__setattr__(self, "z", z & mask)

    @staticmethod
    def identity(n: int) -> "PauliOp":
        return PauliOp(n)

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliOp":
        return PauliOp.from_letters(n, [(qubit, letter)])

    @staticmethod
    def from_letters(n: int, letters: Iterable[tuple[int, str]]) -> "PauliOp":
        """Product of single-qubit letters; a repeated qubit multiplies its
        factors, so [(0, "Y"), (0, "X")] gives Z on qubit 0."""
        x = z = 0
        for qubit, letter in letters:
            if not 0 <= qubit < n:
                raise DimensionError(f"qubit {qubit} outside 0..{n - 1}")
            try:
                bx, bz = _BITS[letter]
            except KeyError:
                raise ValidationError(f"unknown Pauli letter {letter!r}") from None
            x ^= bx << qubit
            z ^= bz << qubit
        return PauliOp(n, x, z)

    @staticmethod
    def from_vector(n: int, vec: int) -> "PauliOp":
        mask = (1 << n) - 1
        return PauliOp(n, vec & mask, vec >> n)

    @property
    def vector(self) -> int:
        """Flat symplectic vector: X-bits in columns 0..n-1, Z-bits above."""
        return self.x | (self.z << self.n)

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def mul(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        return PauliOp(self.n, self.x ^ other.x, self.z ^ other.z)

    __mul__ = mul

    def commutes(self, other: "PauliOp") -> bool:
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        return parity((self.x & other.z) ^ (self.z & other.x)) == 0

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> list[int]:
        return bits(self.x | self.z)

    def support_mask(self) -> int:
        return self.x | self.z

    def letter(self, qubit: int) -> str:
        return _LETTERS[((self.x >> qubit) & 1) + 2 * ((self.z >> qubit) & 1)]

    def restrict(self, mask: int) -> "PauliOp":
        """Restriction onto the qubits set in mask.

        Agrees with self on them, identity elsewhere; a homomorphism of the
        projective group.
        """
        return PauliOp(self.n, self.x & mask, self.z & mask)

    def letters(self) -> Iterator[tuple[int, str]]:
        for q in self.support():
            yield q, self.letter(q)

    def __repr__(self) -> str:
        if self.is_identity:
            return f"PauliOp(n={self.n}, I)"
        body = " ".join(f"{letter}{q}" for q, letter in self.letters())
        return f"PauliOp(n={self.n}, {body})"


def omega(vec: int, n: int) -> int:
    """Swap the X/Z halves so that parity(omega(v) & w) is the symplectic form."""
    mask = (1 << n) - 1
    return (vec >> n) | ((vec & mask) << n)


def letter_pairings(table: Sequence[int], n: int) -> List[Tuple[int, int, int]]:
    """For each qubit q the masks (X_q, Y_q, Z_q), read off a row list's
    column table (gf2.transpose(rows, 2n)): bit i of a letter's mask is the
    pairing of that single-qubit letter on q with rows[i].  X_q is column q,
    Z_q is column n + q, and Y = X ^ Z."""
    return [(x, x ^ z, z) for x, z in zip(table[:n], table[n:])]
