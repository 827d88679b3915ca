import hashlib
import random

import pytest

from latstab import (
    PauliOp,
    centralizer,
    contained_subgroup,
    get_structure,
    make_bacon_shor_2d,
    make_heisenberg_gauge,
    make_repetition_1d,
    make_toric_2d,
    span_basis,
)
from latstab import groups
from latstab.errors import CertificateError
from latstab.geometry import Region
from latstab.gf2 import rank
from latstab.groups import CosetReducer, GroupBasis, _center, _restricted_k

from conftest import all_paulis, coset_reduce_oracle, random_centralizer_element


def restricted_group(basis, qubit_mask):
    """Restrictions of the rows onto the masked qubits, which span the
    restricted group because restriction is a homomorphism."""
    m2 = qubit_mask | (qubit_mask << basis.n)
    return GroupBasis(basis.n, [r & m2 for r in basis.rows])


def zz(n, i, j):
    return PauliOp.from_letters(n, [(i, "Z"), (j, "Z")])


def test_span_basis_rank():
    gens = [zz(3, 0, 1), zz(3, 1, 2), zz(3, 0, 2)]
    assert span_basis(3, gens).rank == 2
    assert span_basis(3, []).rank == 0


def test_centralizer_single_z():
    b = span_basis(1, [PauliOp.single(1, 0, "Z")])
    c = centralizer(b)
    assert c.rank == 1
    assert c.contains(PauliOp.single(1, 0, "Z"))
    assert not c.contains(PauliOp.single(1, 0, "X"))


def test_centralizer_dimension_identity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        ops = [PauliOp(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(rng.randint(0, 6))]
        b = span_basis(n, ops)
        assert centralizer(b).rank == 2 * n - b.rank


def test_toric_centralizer_dimension():
    code = make_toric_2d(2)
    st = get_structure(code)
    assert centralizer(st.S).rank == code.n + st.k  # 10 for [[8, 2]]


def test_double_centralizer():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        ops = [PauliOp(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(rng.randint(0, 5))]
        b = span_basis(n, ops)
        cc = centralizer(centralizer(b))
        assert cc.rank == b.rank
        assert all(cc.contains_vec(r) for r in b.rows)


def test_center_examples():
    bs = make_bacon_shor_2d(3)
    st = get_structure(bs)
    assert st.S.rank == 4
    assert all(op.weight() == 6 for op in st.S.ops())
    # abelian input: center equals the span
    rep = make_repetition_1d(4)
    G = get_structure(rep).G
    assert _center(G).rank == G.rank
    # trivial center
    assert get_structure(make_heisenberg_gauge(1, 3)).s == 0


def test_restrict_group_identities():
    # k_M on the whole code is k, and on no qubits it is 0
    for code in (make_toric_2d(3), make_bacon_shor_2d(3), make_heisenberg_gauge(1, 3)):
        st = get_structure(code)
        assert _restricted_k(st.G, (1 << code.n) - 1) == st.k
        assert _restricted_k(st.G, 0) == 0


def test_restricted_toric_contains_interior_plaquette():
    code = make_toric_2d(3)
    st = get_structure(code)
    disk = Region.from_box(code.lattice, (0, 0), (2, 2))
    mask = code.qubit_mask_in(disk)
    plaquettes = [g for g in code.generators if g.x == 0]
    inside = [g for g in plaquettes if g.support_mask() & ~mask == 0]
    assert inside
    restricted = restricted_group(st.S, mask)
    for g in inside:
        assert restricted.contains(g)


def test_contained_subgroup_examples():
    rep = make_repetition_1d(4)
    st = get_structure(rep)
    got = contained_subgroup(st.S, 0b0011)
    assert got.rank == 1
    assert got.contains(zz(4, 0, 1))
    # single plaquette region on the toric code
    code = make_toric_2d(3)
    stc = get_structure(code)
    plaq = next(g for g in code.generators if g.x == 0)
    inside = contained_subgroup(stc.S, plaq.support_mask())
    assert inside.rank == 1
    assert inside.contains(plaq)


def test_contained_subset_of_restricted():
    rng = random.Random(9)
    code = make_toric_2d(2)
    st = get_structure(code)
    for _ in range(25):
        mask = rng.getrandbits(code.n)
        small = contained_subgroup(st.S, mask)
        big = restricted_group(st.S, mask)
        for r in small.rows:
            assert big.contains_vec(r)


def test_contained_commutes_with_restriction_group():
    # S(M) always sits inside the centralizer of S_M on the window
    rng = random.Random(10)
    code = make_toric_2d(3)
    st = get_structure(code)
    for _ in range(20):
        mask = rng.getrandbits(code.n)
        inside = contained_subgroup(st.S, mask)
        restricted = restricted_group(st.S, mask)
        for a in inside.ops():
            assert a.support_mask() & ~mask == 0
            for b in restricted.ops():
                assert a.commutes(b)


def test_logical_basis_invariants():
    for code in (make_toric_2d(2), make_toric_2d(3), make_bacon_shor_2d(3),
                 make_repetition_1d(5), make_heisenberg_gauge(1, 3)):
        st = get_structure(code)
        lb = st.logicals
        every = [op for pair in lb.pairs for op in pair]
        for j, (xb, zb) in enumerate(lb.pairs):
            assert not xb.commutes(zb)
            for i, other in enumerate(every):
                if i // 2 != j:
                    assert xb.commutes(other) and zb.commutes(other)
            for srow in st.S.rows:
                s_op = PauliOp.from_vector(code.n, srow)
                assert xb.commutes(s_op) and zb.commutes(s_op)
            assert not st.G.contains(xb) and not st.G.contains(zb)


def test_logical_counts():
    assert get_structure(make_toric_2d(2)).k == 2
    bs = get_structure(make_bacon_shor_2d(3))
    assert (bs.k, bs.g) == (1, 4)
    rep = get_structure(make_repetition_1d(6))
    assert rep.k == 1
    xbar, zbar = rep.logicals.pairs[0]
    assert xbar.weight() == 6 and xbar.z == 0  # X on every site
    assert zbar.weight() == 1 and zbar.x == 0  # single Z


def test_wrong_extension_dimension_is_a_certificate_error(monkeypatch):
    # the extension lengths hold by construction; a broken kernel must show
    # as a failed certificate, not as the caller's bad input
    st = groups.CodeStructure(make_repetition_1d(3))
    monkeypatch.setattr(groups.gf2.Echelon, "extend", lambda *args: 0)
    with pytest.raises(CertificateError, match="logical extension has wrong dimension"):
        st.logicals


def test_centralizer_factorization_rank_equation():
    # C(S) = G * C(G) as a rank identity, for every zoo code
    from latstab import (make_generalized_toric, make_steane_chain,
                         make_surface_2d)

    codes = [
        make_repetition_1d(4),
        make_toric_2d(2),
        make_toric_2d(3),
        make_surface_2d(3),
        make_bacon_shor_2d(3),
        make_heisenberg_gauge(1, 3),
        make_steane_chain(3),
        make_generalized_toric(3, 2),
    ]
    for code in codes:
        st = get_structure(code)
        assert centralizer(st.S).rank == rank(list(st.G.rows) + list(st.CG.rows))


def test_syndrome_and_class_maps():
    code = make_toric_2d(3)
    st = get_structure(code)
    assert st.syndrome(PauliOp.identity(code.n)) == 0
    assert st.class_bits(PauliOp.identity(code.n)) == 0
    # single X anticommutes with exactly two plaquettes
    x = PauliOp.single(code.n, 0, "X")
    assert st.syndrome(x).bit_count() == 2
    # class of X-bar pairs only with its own Z-bar
    xbar = st.logicals.pairs[0][0]
    assert st.class_bits(xbar) == 0b01


def test_linearity_exhaustive_small():
    for L in (2, 3):
        code = make_repetition_1d(L)
        st = get_structure(code)
        ops = list(all_paulis(code.n))
        for a in ops:
            for b in ops:
                ab = a.mul(b)
                assert st.syndrome(ab) == st.syndrome(a) ^ st.syndrome(b)
                assert st.class_bits(ab) == st.class_bits(a) ^ st.class_bits(b)


def test_linearity_sampled_large(rng):
    code = make_toric_2d(3)
    st = get_structure(code)
    for _ in range(500):
        a = PauliOp(code.n, rng.getrandbits(code.n), rng.getrandbits(code.n))
        b = PauliOp(code.n, rng.getrandbits(code.n), rng.getrandbits(code.n))
        ab = a.mul(b)
        assert st.syndrome(ab) == st.syndrome(a) ^ st.syndrome(b)
        assert st.class_bits(ab) == st.class_bits(a) ^ st.class_bits(b)


def test_centralizer_elements_have_zero_stab_syndrome(rng):
    for code in (make_toric_2d(2), make_bacon_shor_2d(2)):
        st = get_structure(code)
        for _ in range(50):
            op = random_centralizer_element(rng, st)
            assert st.stab_syndrome_vec(op.vector) == 0


def _independent_rows(rnd, n, count, sparse):
    """count independent random 2n-bit rows; sparse rows touch 1-3 qubits,
    so many cosets hold several least-weight elements."""
    rows = []
    while len(rows) < count:
        if sparse:
            v = 0
            for q in rnd.sample(range(n), min(n, rnd.randint(1, 3))):
                v ^= PauliOp.single(n, q, rnd.choice("XYZ")).vector
        else:
            v = rnd.getrandbits(2 * n)
        if GroupBasis(n, rows + [v]).rank > len(rows):
            rows.append(v)
    return rows


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 81, 130])
def test_coset_reducer_matches_enumeration_oracle(n):
    # one word, the word boundary (63/64/65) and several words per half
    rnd = random.Random(n)
    for r in sorted({min(r, 2 * n) for r in (0, 1, 2, 3, 6, 11, 16)}):
        for sparse in (False, True):
            rows = _independent_rows(rnd, n, r, sparse)
            reduce = CosetReducer(rows, n)
            near = [rnd.choice(rows) ^ (1 << rnd.randrange(2 * n)) for _ in range(3)] if rows else []
            for vec in [0, rnd.getrandbits(2 * n), (1 << 2 * n) - 1] + near:
                assert reduce(vec) == coset_reduce_oracle(vec, rows, n), (n, r, sparse, vec)


@pytest.mark.parametrize("n, vec, rows, expected", [
    # X_0 and X_64 weigh the same: the smaller vector wins, across words
    (65, 1 << 64, [1 | (1 << 64)], 1),
    # Z_0 against X_0 on a three-word layout: the X half is lower
    (130, 1 << 130, [1 | (1 << 130)], 1),
    # X_{n-1} against Z_0 right at the X/Z seam: vec itself is least
    (64, 1 << 63, [(1 << 63) | (1 << 64)], 1 << 63),
    # X_2 + span(X_0 X_1, X_1 X_2) holds X_0, X_1, X_2 (weight 1) and X_0 X_1 X_2
    (5, 0b100, [0b011, 0b110], 0b001),
    # X_3 + span(X_0 X_3): the tie X_0 needs wt(s) = 2 wt(vec), the bound's edge
    (4, 0b1000, [0b1001], 0b0001),
])
def test_coset_reducer_tie_break_least_vector(n, vec, rows, expected):
    assert CosetReducer(rows, n)(vec) == expected == coset_reduce_oracle(vec, rows, n)


@pytest.mark.parametrize("L, digest", [
    (7, "bc800c9d2c257acf497aefb984d6ccc322c1b107028b0bbe48557329d1d48780"),
    (9, "4a09ae656040d72afaf889d62dbd2a91e368130a60eed45f42fac3e0320422e7"),
])
def test_bacon_shor_logical_basis_pinned(L, digest):
    # SHA-256 of the pair vectors as built by full Python enumeration of the
    # rank-12 / rank-16 stabilizer span
    lb = get_structure(make_bacon_shor_2d(L)).logicals
    vecs = ([(a.vector, b.vector) for a, b in lb.pairs],
            [(a.vector, b.vector) for a, b in lb.gauge_pairs])
    assert hashlib.sha256(repr(vecs).encode()).hexdigest() == digest
