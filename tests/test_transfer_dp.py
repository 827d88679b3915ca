"""The transfer DP (`metrics.distance_dp`): a SHA-256 pin over its outcomes on
the small zoo, and its two capacity limits.

The pin was recorded with the sorting engine that the subspace engine
replaced; it fixes every value, status, witness (in lattice coordinates),
front peak and `CapacityError` (required, cap) across families, axes, modes
and class masks, so the two engines are byte-identical on all of them.
"""

import hashlib
import json

import pytest

from latstab import Budgets, distance_dp, make_toric_2d
from latstab.errors import CapacityError, LatstabError
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
