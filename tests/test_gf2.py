import random

from latstab import gf2
from latstab.pauli import PauliOp, omega


def test_rref_small():
    rows, pivots = gf2.rref([0b011, 0b110, 0b101])
    assert len(rows) == 2
    assert pivots == [0, 1]
    assert gf2.in_span(0b101, rows, pivots)
    assert not gf2.in_span(0b001, rows, pivots)


def test_rank_matches_definition():
    assert gf2.rank([]) == 0
    assert gf2.rank([0]) == 0
    assert gf2.rank([0b1, 0b10, 0b11]) == 2


def test_solve_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        ncols = rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 8))]
        coeff = rng.getrandbits(len(rows)) if rows else 0
        target = 0
        for i, r in enumerate(rows):
            if (coeff >> i) & 1:
                target ^= r
        sol = gf2.Echelon(rows, ncols).solve(target)
        assert sol is not None
        got = 0
        for i, r in enumerate(rows):
            if (sol >> i) & 1:
                got ^= r
        assert got == target


def test_solve_unsolvable():
    assert gf2.Echelon([0b01], 2).solve(0b10) is None


def test_left_kernel():
    rows = [0b01, 0b10, 0b11]
    for mask in gf2.Echelon(rows, 2).kernel:
        acc = 0
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= r
        assert acc == 0 and mask != 0
    assert len(gf2.Echelon(rows, 2).kernel) == 1


def test_nullspace_orthogonality():
    rng = random.Random(11)
    for _ in range(100):
        ncols = rng.randint(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 6))]
        basis = gf2.nullspace(rows, ncols)
        assert len(basis) == ncols - gf2.rank(rows)
        for v in basis:
            for r in rows:
                assert gf2.parity(v & r) == 0
        # the basis is the one with a single free column per vector, in order
        pivots = gf2.rref(rows)[1]
        pivmask = sum(1 << p for p in pivots)
        assert [v & ~pivmask for v in basis] == [1 << f for f in range(ncols) if f not in pivots]


def test_extend_basis_greedy():
    span = gf2.Echelon([0b01])
    added = [c for c in [0b01, 0b11, 0b10] if span.extend((c,))]
    assert added == [0b11]


def test_pairings_match_commutation_oracle():
    # a pairing is combine over the rows' column table; widths around the
    # 64-bit word edges, with empty row lists and the zero vector
    rng = random.Random(11)
    sizes = [rng.randint(1, 6) for _ in range(200)] + [1, 63, 64, 65, 130] * 20
    for t, n in enumerate(sizes):
        ops = [PauliOp(n, rng.getrandbits(n), rng.getrandbits(n))
               for _ in range(rng.randint(0, 8) if t % 7 else 0)]
        p = PauliOp(n, rng.getrandbits(n), rng.getrandbits(n)) if t % 6 else PauliOp.identity(n)
        table = gf2.transpose([omega(q.vector, n) for q in ops], 2 * n)
        assert len(table) == 2 * n
        bits = gf2.combine(p.vector, table)
        assert bits >> len(ops) == 0
        for i, q in enumerate(ops):
            assert (bits >> i) & 1 == (not p.commutes(q))
