"""The transfer DP (`metrics.distance_dp`): a SHA-256 pin over its outcomes on
the small zoo, its capacity limits, its certified backward walk, its memory,
and the letter cases the zoo never reaches, against brute force.

The pin was recorded with the sorting engine that the subspace engine
replaced; it fixes every value, status, witness (in lattice coordinates),
front peak and `CapacityError` (required, cap) across families, axes, modes
and class masks, so the two engines are byte-identical on all of them.
`PYTHONPATH=src python tests/test_transfer_dp.py` prints the pinned outcome
records, one JSON line each, and then their digest.
"""

import hashlib
import json
import random
import tracemalloc
from itertools import product

import pytest
from conftest import run_optimized

from latstab import (
    Budgets,
    CodeSpec,
    Lattice,
    PauliOp,
    distance_bruteforce,
    distance_dp,
    get_structure,
    make_surface_2d,
    make_toric_2d,
    metrics,
)
from latstab.errors import CapacityError, CertificateError, LatstabError
from latstab.zoo import FAMILIES

SMALL = Budgets(mem_mb=1)


def _cases():
    for family in sorted(FAMILIES):
        for L in range(1, 9):
            try:
                code = FAMILIES[family](L=L)
            except LatstabError:
                continue  # L the family does not admit
            if code.n > 130:
                continue
            for axis in range(code.lattice.D):
                for mode in ("subsystem", "bare"):
                    for mask in (None, 0b01, 0b10, 0b11):
                        yield code, (family, L, axis, mode, mask)


def _outcome(code, axis, mode, mask):
    try:
        res = distance_dp(code, axis=axis, mode=mode, class_mask=mask, budgets=SMALL)
    except CapacityError as exc:
        return ["capacity", exc.required, exc.cap]
    witness = None if res.witness is None else code.format_op(res.witness)
    return [res.value, res.status, witness, res.stats.get("front_peak")]


DP_OUTCOMES_SHA = "244a706a9a414a541d87e45f1c45fe8005d0f4e48fab657df641ac0f7253351e"


def _records():
    return [[list(case), _outcome(code, *case[2:])] for code, case in _cases()]


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_distance_dp_outcomes_pinned():
    records = _records()
    for case, out in records:
        if out[0] != "capacity":
            peak = out[3]
            assert peak & (peak - 1) == 0, (case, peak)  # every front is a subspace
    assert len(records) == 496
    assert _digest(records) == DP_OUTCOMES_SHA


def _forward_front_sizes(code, axis):
    """Size of each DP front of a stabilizer code, by forward enumeration
    of its set of states: an operator on the swept qubits that commutes with
    every generator supported among them has as state its anticommutation
    bits with every generator and logical operator."""
    st = get_structure(code)
    n = code.n
    order = sorted(range(n), key=lambda q: (code.anchor(q)[axis], code.anchor(q), q))
    checks = list(code.generators) + [op for pair in st.logicals.pairs for op in pair]
    last = [max((order.index(q) for q in g.support()), default=-1)
            for g in code.generators]
    front = {0}
    sizes = [1]
    for p, q in enumerate(order):
        moves = [sum((not PauliOp.single(n, q, letter).commutes(c)) << i
                     for i, c in enumerate(checks)) for letter in "XYZ"]
        closed = sum(1 << i for i, lp in enumerate(last) if lp == p)
        front = {s ^ m for s in front for m in [0] + moves if not (s ^ m) & closed}
        sizes.append(len(front))
    return sizes


@pytest.mark.parametrize("family, L", [("toric", 2), ("toric", 3), ("surface", 2),
                                       ("surface", 3), ("surface", 4), ("surface", 5),
                                       ("repetition", 2), ("repetition", 5)])
def test_front_dimensions_match_forward_enumeration(monkeypatch, family, L):
    # the pin fixes only the peak front; this checks every front, read from
    # the dims the DP hands its backward walk.  Fronts reach 2^16 states
    # (toric 3, axis 1), still a small set to enumerate
    seen = []
    walk = metrics._dp_witness

    def spy(steps, trail, dims, i):
        seen.append(dims)
        return walk(steps, trail, dims, i)

    monkeypatch.setattr(metrics, "_dp_witness", spy)
    code = FAMILIES[family](L=L)
    for axis in range(code.lattice.D):
        sizes = _forward_front_sizes(code, axis)
        distance_dp(code, axis=axis)
        assert [1 << dim for dim in seen.pop()] == sizes, (family, L, axis)


def test_front_over_state_cap_raises():
    with pytest.raises(CapacityError) as info:
        distance_dp(make_toric_2d(8), budgets=SMALL)
    assert (info.value.required, info.value.cap) == (16384, 4096)


def test_cut_wider_than_62_state_bits_raises():
    code = FAMILIES["generalized_toric"](L=4)
    with pytest.raises(CapacityError, match="needs 123 state bits") as info:
        distance_dp(code)
    assert (info.value.required, info.value.cap) == (123, 62)


def test_code_wider_than_weight_field_raises(monkeypatch):
    code = make_toric_2d(3)  # 18 qubits
    monkeypatch.setattr(metrics, "_MAX_WEIGHT", 18)
    assert distance_dp(code).value == 3
    monkeypatch.setattr(metrics, "_MAX_WEIGHT", 17)
    with pytest.raises(CapacityError, match="weight field") as info:
        distance_dp(code)
    assert (info.value.required, info.value.cap) == (18, 17)


# the walk reads the middle front's trail with every letter swapped
# (I with X, Y with Z), so a predecessor leaves its front
FLIP_LETTERS = (
    "import latstab.metrics as m\n"
    "real = m._dp_witness\n"
    "def walk(fronts, trail, contribs, key):\n"
    "    trail = list(trail)\n"
    "    trail[len(trail) // 2] = trail[len(trail) // 2] ^ 0x55\n"
    "    return real(fronts, trail, contribs, key)\n"
    "m._dp_witness = walk\n"
)


def test_corrupted_letter_trail_raises(monkeypatch):
    monkeypatch.setattr(metrics, "_dp_witness", metrics._dp_witness)  # restored after
    exec(FLIP_LETTERS, {})
    with pytest.raises(CertificateError, match="is not in its front"):
        distance_dp(make_toric_2d(3))


def test_corrupted_letter_trail_raises_under_optimize():
    script = FLIP_LETTERS + (
        "from latstab import CertificateError, distance_dp, make_toric_2d\n"
        "try:\n"
        "    distance_dp(make_toric_2d(3))\n"
        "except CertificateError as exc:\n"
        "    print('is not in its front' in str(exc), __debug__)\n"
    )
    assert run_optimized(script) == ["True", "False"]


def test_letters_checked_against_final_state(monkeypatch):
    # swapping an X for a Z keeps the weight, but not the state reached
    walk = metrics._dp_witness

    def swapped(*args):
        letters = walk(*args)
        p = next(p for p, li in enumerate(letters) if li in (1, 3))
        letters[p] ^= 2
        return letters

    monkeypatch.setattr(metrics, "_dp_witness", swapped)
    with pytest.raises(CertificateError, match="do not reach the final state"):
        distance_dp(make_toric_2d(3))


@pytest.mark.parametrize("L, front_peak, bound_mib", [(7, 65536, 3.5), (8, 262144, 7)],
                         ids=["surface7", "surface8"])
def test_traced_peak_stays_small(L, front_peak, bound_mib):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    # Surface 7 read 6.35 MiB with a uint16 weight trail and 2.17 MiB with
    # letters; surface 8 read 9.37 MiB while each position built full int64
    # index arrays, ~4.8 MiB with blocked gathers from the chosen bases
    code = make_surface_2d(L)
    assert distance_dp(code).stats["front_peak"] == front_peak  # warm the structure
    tracemalloc.start()
    try:
        distance_dp(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def _random_local_gauge_codes(seed, count):
    """Gauge codes on a chain with generators of weight 1 to 3 on
    neighbouring qubits, k > 0."""
    rng = random.Random(seed)
    built = 0
    while built < count:
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 6)):
            q = rng.randrange(n)
            letters = [(q + i, rng.choice("XYZ")) for i in range(rng.randint(1, 3)) if q + i < n]
            gens.append(PauliOp.from_letters(n, letters))
        code = CodeSpec(f"letters{built}", Lattice(1, n), "gauge", 3, gens)
        if get_structure(code).k:
            built += 1
            yield code


def test_degenerate_letter_cases_match_bruteforce(monkeypatch):
    # a position's letters span V = span{X, Z}; its letter step sees
    # (dim V ∩ front, directions of V new to the front).  Zoo positions have
    # three distinct nonzero letters, so only (0, 2), (1, 1) and (2, 0) occur
    # there; a weight-1 generator (Z = 0, Y = X) or a qubit whose letters are
    # all gauge (V = 0) gives the others
    seen = set()
    step = metrics._letter_step

    def spy(keys, d, t, moves):
        seen.add((d, t - d))
        return step(keys, d, t, moves)

    monkeypatch.setattr(metrics, "_letter_step", spy)
    for code in _random_local_gauge_codes(7, 60):
        st = get_structure(code)
        masks = [None] + [1 << b for b in range(2 * st.k)]
        for mode, mask in product(("subsystem", "bare"), masks):
            dp = distance_dp(code, mode=mode, class_mask=mask)
            bf = distance_bruteforce(code, mode, mask, Budgets(weight_cap=code.n))
            assert dp.value == bf.value, (code.name, mode, mask)
            assert bf.stats["examined"] <= Budgets().node_cap
            assert dp.witness.weight() == dp.value
            assert st.is_logical(dp.witness, mode, mask)
    assert seen == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


if __name__ == "__main__":
    # every pinned outcome as one JSON line, then their digest, so a re-pin
    # can list the old and new records side by side
    records = _records()
    for record in records:
        print(json.dumps(record))
    print(_digest(records))
