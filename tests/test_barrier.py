import dataclasses

import pytest

from latstab import (
    Budgets,
    CertificateError,
    CodeSpec,
    Lattice,
    PauliOp,
    barrier_exact,
    barrier_walk_bound,
    distance_bruteforce,
    get_structure,
    make_bacon_shor_2d,
    make_heisenberg_gauge,
    make_repetition_1d,
    make_steane_chain,
    make_surface_2d,
    make_toric_2d,
)
from latstab import barrier
from latstab.audit import audit_instance
from latstab.errors import CapacityError

from conftest import run_optimized, walk_barrier_oracle


def test_matches_unquotiented_oracle_repetition():
    for L in (3, 4, 5):
        code = make_repetition_1d(L)
        st = get_structure(code)
        got = barrier_exact(code).value
        want = walk_barrier_oracle(code, lambda op: st.is_logical(op, "subsystem"))
        assert got == want == 0
        got2 = barrier_exact(code, class_mask=0b01).value
        want2 = walk_barrier_oracle(
            code, lambda op: st.is_logical(op, "subsystem", class_mask=0b01)
        )
        assert got2 == want2 == 2


def test_matches_unquotiented_oracle_periodic():
    code = make_repetition_1d(4, "periodic")
    st = get_structure(code)
    got = barrier_exact(code, class_mask=0b01).value
    want = walk_barrier_oracle(
        code, lambda op: st.is_logical(op, "subsystem", class_mask=0b01)
    )
    # a flipped domain on a ring has two walls
    assert got == want == 4


def test_matches_unquotiented_oracle_heisenberg():
    code = make_heisenberg_gauge(1, 3)
    st = get_structure(code)
    got = barrier_exact(code).value
    want = walk_barrier_oracle(code, lambda op: st.is_logical(op, "subsystem"))
    assert got == want


def test_matches_unquotiented_oracle_steane():
    code = make_steane_chain(1)
    st = get_structure(code)
    got = barrier_exact(code).value
    want = walk_barrier_oracle(code, lambda op: st.is_logical(op, "subsystem"))
    assert got == want


def test_toric3_exact_value_and_bounds():
    code = make_toric_2d(3)
    res = barrier_exact(code)
    assert res.value == 4
    assert res.status == "exact"
    # independent two-sided pin: every first step costs at least the minimum
    # single-qubit energy, and a string walk achieves 4
    st = get_structure(code)
    min_single = min(
        st.energy(PauliOp.single(code.n, q, letter))
        for q in range(code.n)
        for letter in "XYZ"
    )
    assert min_single == 4
    d = distance_bruteforce(code, budgets=Budgets(weight_cap=3))
    wb = barrier_walk_bound(code, d.witness, "row_by_row", axis=0)
    assert wb.value >= 4
    res.witness.validate(st)
    assert res.witness.eps_max == 4


def test_witness_walk_reaches_forbidden_class():
    code = make_surface_2d(2)
    st = get_structure(code)
    res = barrier_exact(code)
    assert res.status == "exact"
    final = res.witness.final
    assert st.is_logical(final, "subsystem")
    assert res.witness.profile[-1] == st.energy(final)


def test_barrier_value_even_and_parity():
    for code in (make_repetition_1d(6), make_surface_2d(2), make_bacon_shor_2d(2)):
        res = barrier_exact(code)
        assert res.value % 2 == 0


def test_node_cap_capacity_error():
    code = make_toric_2d(3)
    with pytest.raises(CapacityError) as exc:
        barrier_exact(code, budgets=Budgets(node_cap=2**10))
    assert "barrier_walk_bound" in str(exc.value)


def test_audit_records_node_cap_skip():
    code = make_toric_2d(3)
    rec = audit_instance("toric", code, {"L": 3}, Budgets(node_cap=2**10))
    assert {"what": "barrier_exact",
            "reason": "coset graph 2^20 exceeds node cap 1024"} in rec.skipped
    # the strip-sweep walk bound stands in for the skipped exact value
    assert rec.metrics["barrier"] == rec.metrics["barrier_walk_bound"] == 4
    assert rec.metrics["barrier_method"] == "walk_row_by_row_upper_bound"
    assert "barrier_naive_walk" not in rec.metrics


def test_audit_names_label_width_skip():
    # 2^65 nodes fit a node cap of 2^80, but not the search's 64-bit labels
    rec = audit_instance("repetition", make_repetition_1d(64), {"L": 64},
                         Budgets(node_cap=2**80))
    assert {"what": "barrier_exact",
            "reason": "coset graph 2^65 needs 65-bit labels; the search holds 64"} in rec.skipped


def test_audit_records_why_no_strip_sweep_ran():
    # toric 3 declared with r = 3 is too short for the strip partition
    code = dataclasses.replace(make_toric_2d(3), declared_r=3)
    rec = audit_instance("custom", code, {"L": 3})
    assert rec.skipped == [{"what": "strip_sweep",
                            "reason": "strip partition needs L >= 2*(r-1)^2 = 8, got L=3"}]
    assert "barrier_walk_bound" not in rec.metrics


def test_no_logicals_result():
    code = CodeSpec("fixed", Lattice(1, 2), "stabilizer", 2,
                    [PauliOp.single(2, 0, "Z"), PauliOp.single(2, 1, "Z")])
    res = barrier_exact(code)
    assert res.status == "no_logicals" and res.value is None


def test_audit_of_code_without_logicals_names_no_engine():
    # no engine searched, so the distance skip reads like the d1 and barrier ones
    code = CodeSpec("fixed", Lattice(1, 2), "stabilizer", 2,
                    [PauliOp.single(2, 0, "Z"), PauliOp.single(2, 1, "X")])
    rec = audit_instance("fixed", code, {"L": 2})
    assert rec.metrics["d"] is None and rec.metrics["d_method"] is None
    assert rec.skipped == [{"what": what, "reason": "no logical qubits"}
                           for what in ("distance", "d1", "barrier")]


def test_gauge_qubit_mode_toric():
    code = make_toric_2d(3)
    # gauging either logical pair (a class mask over the other, kept pair)
    # cannot lower the barrier below the stabilizer value, and the remaining
    # string still costs only 4
    for kept in (0b1100, 0b0011):
        res = barrier_exact(code, class_mask=kept)
        assert res.value == 4
        assert res.status == "exact"


def test_bacon_shor_subsystem_barrier_endpoint_cost():
    code = make_bacon_shor_2d(3)
    res = barrier_exact(code)
    assert res.value == 2  # anticommutation cost of the moving column end
    wb = barrier_walk_bound(code, get_structure(code).logicals.pairs[0][0],
                            "row_by_row", axis=0)
    assert res.value <= wb.value <= 4


def _four_two_two():
    """[[4,2,2]]: the smallest code here with two logical pairs to gauge."""
    return CodeSpec("four_two_two", Lattice(1, 4), "stabilizer", 4, [
        PauliOp.from_letters(4, [(q, "X") for q in range(4)]),
        PauliOp.from_letters(4, [(q, "Z") for q in range(4)]),
    ])


def _small_codes():
    return [
        make_repetition_1d(3),
        make_repetition_1d(4, "periodic"),
        make_surface_2d(2),
        make_bacon_shor_2d(2),
        make_heisenberg_gauge(1, 3),
        make_steane_chain(1),
        _four_two_two(),
    ]


def test_class_mask_matches_unquotiented_oracle():
    for code in _small_codes():
        st = get_structure(code)
        for mask in range(1, 1 << (2 * st.k)):
            got = barrier_exact(code, class_mask=mask).value
            want = walk_barrier_oracle(
                code, lambda op: st.is_logical(op, "subsystem", class_mask=mask)
            )
            assert got == want, (code.name, mask)


@pytest.mark.parametrize("code, value, steps", [
    (make_toric_2d(3), 4, [(5, "X"), (4, "X"), (3, "X")]),
    (make_surface_2d(2), 2, [(1, "X"), (0, "X")]),
    (make_steane_chain(1), 2, [(1, "X"), (2, "X"), (0, "X")]),
    (make_heisenberg_gauge(1, 3), 4, [(2, "X"), (1, "X"), (0, "X")]),
], ids=["toric3", "surface2", "steane_chain1", "heisenberg1_3"])
def test_witness_steps_pinned(code, value, steps):
    # pins the search order: ascending levels, waves within a level, the
    # lowest edge index on first touch, the least target label per level
    res = barrier_exact(code)
    assert res.value == value
    assert list(res.witness.steps) == steps


def test_search_visits_only_reached_cosets():
    code = make_toric_2d(4)  # 2^34 cosets, past the default node cap
    res = barrier_exact(code, budgets=Budgets(node_cap=2**34))
    assert res.value == 4
    assert res.stats["nodes"] < 2**20
    res.witness.validate(get_structure(code))


def test_failed_certificate_raises(monkeypatch):
    monkeypatch.setattr(barrier, "_reconstruct", lambda *args: [])
    with pytest.raises(CertificateError, match="peaks at 0, not 2"):
        barrier_exact(make_repetition_1d(3), class_mask=0b01)


def test_failed_certificate_raises_under_optimize():
    # the barrier walk loses its steps; the DP witness loses its letters
    script = (
        "import latstab.barrier as b\n"
        "import latstab.metrics as m\n"
        "from latstab import CertificateError, PauliOp, make_repetition_1d\n"
        "b._reconstruct = lambda *args: []\n"
        "m.PauliOp = type('Blank', (PauliOp,), {'from_letters': staticmethod(\n"
        "    lambda n, letters: PauliOp.identity(n))})\n"
        "for search in (b.barrier_exact, m.distance_dp):\n"
        "    try:\n"
        "        search(make_repetition_1d(3), class_mask=0b01)\n"
        "    except CertificateError:\n"
        "        print('CertificateError', __debug__)\n"
    )
    assert run_optimized(script) == ["CertificateError", "False"] * 2


def test_reconstruct_rejects_broken_parent_chain():
    with pytest.raises(CertificateError, match="no parent"):
        barrier._reconstruct(5, {0: -1}, [1], [(0, "X")])
    with pytest.raises(CertificateError, match="does not terminate"):
        barrier._reconstruct(1, {0: -1, 1: 0}, [0], [(0, "X")])


def test_search_leaves_numpy_ma_unimported():
    # numpy 2's plain np.unique imports numpy.ma on first use, ~15 ms a process
    script = (
        "import sys\n"
        "from latstab import barrier_exact, make_toric_2d\n"
        "print(barrier_exact(make_toric_2d(3)).value, 'numpy.ma' in sys.modules)\n"
    )
    assert run_optimized(script) == ["4", "False"]
