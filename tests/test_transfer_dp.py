"""The transfer DP (`metrics.distance_dp`): a SHA-256 pin over its outcomes on
the small zoo, its capacity limits, its certified backward walk and its
memory.

The pin was recorded with the sorting engine that the subspace engine
replaced; it fixes every value, status, witness (in lattice coordinates),
front peak and `CapacityError` (required, cap) across families, axes, modes
and class masks, so the two engines are byte-identical on all of them.
"""

import hashlib
import json
import tracemalloc

import pytest
from conftest import run_optimized

from latstab import Budgets, distance_dp, make_surface_2d, make_toric_2d, metrics
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


def test_distance_dp_outcomes_pinned():
    records = []
    for code, case in _cases():
        out = _outcome(code, *case[2:])
        peak = out[3] if out[0] != "capacity" else None
        if peak is not None:
            assert peak & (peak - 1) == 0, (case, peak)  # every front is a subspace
        records.append([list(case), out])
    assert len(records) == 496
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == DP_OUTCOMES_SHA


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


def test_surface7_traced_peak_stays_small():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic;
    # it was 6.35 MiB with a uint16 weight trail and is ~2.2 MiB with letters
    code = make_surface_2d(7)
    assert distance_dp(code).stats["front_peak"] == 65536  # warm the structure
    tracemalloc.start()
    try:
        distance_dp(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
