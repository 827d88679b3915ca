import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st_

from latstab import (
    Lattice,
    PauliOp,
    Region,
    distance,
    get_structure,
    make_repetition_1d,
    make_toric_2d,
    strip_sweep,
)
from latstab.errors import DimensionError
from latstab.gf2 import combine, transpose
from latstab.pauli import LETTERS, letter_pairings

from conftest import all_paulis


def P(n, spec):
    return PauliOp.from_letters(n, spec)


def test_single_qubit_group_table():
    x, z, y = (PauliOp.single(1, 0, c) for c in "XZY")
    assert x.mul(z) == y
    assert z.mul(x) == y  # projectively equal
    for p in (x, z, y):
        assert p.mul(p).is_identity


def test_repeated_qubit_multiplies_its_factors():
    assert P(1, [(0, "Y"), (0, "X")]) == PauliOp.single(1, 0, "Z")
    assert P(2, [(1, "X"), (1, "X")]).is_identity
    assert P(2, [(0, "y"), (1, "I")]) == PauliOp.single(2, 0, "Y")
    rep = make_repetition_1d(3)
    assert rep.parse_op("Y(1) X(1) Z(2)") == P(3, [(1, "Z"), (2, "Z")])
    assert rep.parse_op("X(0) X(0)").is_identity


@pytest.mark.parametrize("obj, field", [(PauliOp(2, 1), "x"), (PauliOp(2, 1), "n"),
                                        (Region(Lattice(1, 3), 1), "mask")])
def test_fields_are_frozen(obj, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, 0)


TORIC = make_toric_2d(3)
VALUES = {
    "PauliOp": lambda: PauliOp(3, 1, 2),
    "Region": lambda: Region.full(TORIC.lattice),
    "CodeSpec": lambda: TORIC,
    "LogicalBasis": lambda: get_structure(TORIC).logicals,
    "DistanceResult": lambda: distance(TORIC),
    "SweepResult": lambda: strip_sweep(TORIC, axis=0),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_pickle_copy_and_asdict(name):
    value = VALUES[name]()
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value
    assert dataclasses.asdict(value)


def test_overlap_cancellation():
    a = P(3, [(0, "X"), (1, "X")])
    b = P(3, [(1, "X"), (2, "X")])
    assert a.mul(b) == P(3, [(0, "X"), (2, "X")])


def test_commutation_basics():
    assert not PauliOp.single(2, 0, "X").commutes(PauliOp.single(2, 0, "Z"))
    assert PauliOp.single(2, 0, "X").commutes(PauliOp.single(2, 1, "Z"))
    # two single-site anticommutations cancel mod 2
    yy = P(2, [(0, "Y"), (1, "Y")])
    xx = P(2, [(0, "X"), (1, "X")])
    assert yy.commutes(xx)


def test_weight_support():
    assert PauliOp.identity(4).weight() == 0
    op = P(4, [(1, "X"), (2, "Z")])
    assert op.weight() == 2
    assert op.support() == [1, 2]
    # seeded random operators around the 64-bit word edges, against an index scan
    rng = random.Random(89)
    for n in (1, 63, 64, 65, 130):
        for _ in range(20):
            op = PauliOp(n, rng.getrandbits(n) & rng.getrandbits(n), rng.getrandbits(n))
            assert op.support() == [i for i in range(n) if op.letter(i) != "I"]


def test_dimension_errors():
    with pytest.raises(DimensionError):
        PauliOp.identity(2).mul(PauliOp.identity(3))
    with pytest.raises(DimensionError):
        PauliOp.identity(2).commutes(PauliOp.identity(3))


def test_restrict_basics():
    op = P(3, [(0, "X"), (1, "X"), (2, "X")])
    assert op.restrict([0, 1]) == P(3, [(0, "X"), (1, "X")])
    assert op.restrict([]).is_identity
    assert op.restrict(0b111) == op


pauli_strategy = st_.tuples(st_.integers(0, 15), st_.integers(0, 15)).map(
    lambda t: PauliOp(4, t[0], t[1])
)


@given(pauli_strategy, pauli_strategy, pauli_strategy)
def test_group_laws(a, b, c):
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(PauliOp.identity(4)) == a
    assert a.mul(a).is_identity


@given(pauli_strategy, pauli_strategy, pauli_strategy)
def test_symplectic_bilinearity(a, b, c):
    assert a.commutes(b) == b.commutes(a)
    # <a, bc> = <a,b> xor <a,c>
    lhs = not a.commutes(b.mul(c))
    rhs = (not a.commutes(b)) ^ (not a.commutes(c))
    assert lhs == rhs


@given(pauli_strategy, pauli_strategy)
def test_weight_subadditive(a, b):
    assert a.mul(b).weight() <= a.weight() + b.weight()


@given(pauli_strategy, pauli_strategy, st_.integers(0, 15), st_.integers(0, 15))
def test_restrict_homomorphism_and_idempotence(a, b, m1, m2):
    assert a.mul(b).restrict(m1) == a.restrict(m1).mul(b.restrict(m1))
    assert a.restrict(m1).restrict(m2) == a.restrict(m1 & m2)


def test_restrict_homomorphism_exhaustive_small():
    for n in (1, 2, 3):
        for a in all_paulis(n):
            for b in all_paulis(n):
                for mask in range(1 << n):
                    assert a.mul(b).restrict(mask) == a.restrict(mask).mul(b.restrict(mask))


def test_vector_roundtrip():
    for op in all_paulis(3):
        assert PauliOp.from_vector(3, op.vector) == op


@pytest.mark.parametrize("n", [1, 2, 5, 31, 64, 65, 130, 200])
def test_letter_pairings_matches_single_qubit_pairings(n):
    rng = random.Random(n)
    halves = ((1 << n) - 1, ((1 << n) - 1) << n, (1 << 2 * n) - 1)
    rows = [rng.getrandbits(2 * n) & rng.choice(halves) for _ in range(rng.randint(0, 40))]
    rows += [0, 0]  # empty rows
    rows += rng.sample(rows, min(3, len(rows)))  # duplicates
    rng.shuffle(rows)
    cols = transpose(rows, 2 * n)
    table = letter_pairings(cols, n)
    assert len(table) == n
    for q, masks in enumerate(table):
        assert masks == tuple(combine(PauliOp.single(n, q, letter).vector, cols)
                              for letter in LETTERS)
