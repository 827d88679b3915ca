"""Brute-force cross-checks of the group machinery on small instances.

Everything here recomputes the target set element by element over the full
4^n Pauli group (or the full subgroup span), independent of the echelon and
nullspace code paths it validates.
"""

import random

from latstab import (
    Budgets,
    CodeSpec,
    Lattice,
    PauliOp,
    barrier_exact,
    centralizer,
    contained_subgroup,
    distance_bruteforce,
    distance_dp,
    get_structure,
    linear_distance,
    make_heisenberg_gauge,
    make_repetition_1d,
    span_basis,
)
from latstab.groups import _center, _restricted_k

from conftest import all_paulis, walk_barrier_oracle


def random_ops(rng, n, count):
    return [PauliOp(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count)]


def span_elements(basis):
    out = {PauliOp.identity(basis.n)}
    for op in basis.ops():
        out |= {p.mul(op) for p in out}
    return out


def test_centralizer_matches_bruteforce():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 3)
        b = span_basis(n, random_ops(rng, n, rng.randint(0, 5)))
        gens = b.ops()
        want = {p for p in all_paulis(n) if all(p.commutes(g) for g in gens)}
        got = span_elements(centralizer(b))
        assert got == want


def test_center_matches_bruteforce():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 3)
        b = span_basis(n, random_ops(rng, n, rng.randint(0, 5)))
        elems = span_elements(b)
        want = {p for p in elems if all(p.commutes(q) for q in elems)}
        # the stabilizer group of a gauge code: CodeStructure's S
        got = span_elements(_center(b))
        assert got == want


def test_restrict_and_contained_match_bruteforce():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        b = span_basis(n, random_ops(rng, n, rng.randint(0, 5)))
        mask = rng.getrandbits(n)
        elems = span_elements(b)
        # k_M of the restricted group R on the masked qubits, from its size
        # and its center's: |R| = 2^(s + 2g), |Z(R)| = 2^s, k = n_M - s - g
        restricted = {p.restrict(mask) for p in elems}
        center = {p for p in restricted if all(p.commutes(q) for q in restricted)}
        rank_r, s = (len(group).bit_length() - 1 for group in (restricted, center))
        assert _restricted_k(b, mask) == mask.bit_count() - s - (rank_r - s) // 2
        want_contained = {p for p in elems if p.support_mask() & ~mask == 0}
        assert span_elements(contained_subgroup(b, mask)) == want_contained


def test_logical_counts_on_random_gauge_groups():
    # n = s + g + k must hold for any generated subgroup
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 4)
        gens = [op for op in random_ops(rng, n, rng.randint(1, 6)) if not op.is_identity]
        if not gens:
            continue
        code = CodeSpec("rand", Lattice(1, n), "gauge", n, gens)
        st = get_structure(code)
        assert st.s + st.g + st.k == n
        assert st.G.rank == st.s + 2 * st.g
        assert centralizer(st.S).rank == 2 * n - st.s


def test_linear_distance_matches_extent_enumeration():
    # oracle: minimum over all logicals (full 4^n scan) of the axis extent
    for code in (make_repetition_1d(4), make_heisenberg_gauge(1, 3)):
        st = get_structure(code)
        best = None
        for op in all_paulis(code.n):
            if op.is_identity or not st.is_logical(op, "subsystem"):
                continue
            e = code.bounding_extent(op, 0)
            best = e if best is None else min(best, e)
        assert linear_distance(code, axis=0).value == best


def test_linear_distance_bare_mode():
    code = make_heisenberg_gauge(1, 3)
    # C(G) = <X_all, Z_all>: every bare logical spans the whole chain
    assert linear_distance(code, axis=0, mode="bare").value == 3


def test_distance_class_mask_restriction():
    code = make_repetition_1d(5)
    # operators carrying the X-bar class must flip every site
    assert distance_dp(code, class_mask=0b01).value == 5
    assert distance_bruteforce(code, class_mask=0b01, budgets=Budgets(weight_cap=5)).value == 5
    # Z-bar class is the cheap one
    assert distance_dp(code, class_mask=0b10).value == 1


def test_dp_matches_bruteforce_on_random_local_gauge_codes():
    rng = random.Random(6)
    built = 0
    while built < 20:
        n = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(2, 7)):
            q = rng.randrange(n - 1)
            span = rng.choice((1, 2))
            letters = [(q + i, rng.choice("XYZ")) for i in range(span + 1) if q + i < n]
            op = PauliOp.from_letters(n, letters)
            if not op.is_identity:
                gens.append(op)
        if not gens:
            continue
        code = CodeSpec(f"dp_rand{built}", Lattice(1, n), "gauge", 3, gens)
        st = get_structure(code)
        if st.k == 0:
            continue
        built += 1
        for mode in ("subsystem", "bare"):
            dp = distance_dp(code, mode=mode)
            bf = distance_bruteforce(code, mode, budgets=Budgets(weight_cap=n))
            assert dp.value == bf.value, (code.name, mode)
            assert bf.stats["examined"] <= Budgets().node_cap


def test_barrier_matches_oracle_on_random_local_gauge_codes():
    rng = random.Random(5)
    built = 0
    while built < 6:
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(2, 5)):
            q = rng.randrange(n - 1)
            letters = [(q, rng.choice("XYZ")), (q + 1, rng.choice("XYZ"))]
            gens.append(PauliOp.from_letters(n, letters))
        gens = [g for g in gens if not g.is_identity]
        if not gens:
            continue
        code = CodeSpec(f"rand{built}", Lattice(1, n), "gauge", 2, gens)
        st = get_structure(code)
        if st.k == 0:
            continue
        built += 1
        got = barrier_exact(code).value
        want = walk_barrier_oracle(code, lambda op: st.is_logical(op, "subsystem"))
        assert got == want, code.name
