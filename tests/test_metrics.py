import inspect

import pytest

from latstab import (
    Budgets,
    PauliOp,
    barrier_exact,
    barrier_walk_bound,
    distance,
    distance_bruteforce,
    distance_dp,
    get_structure,
    linear_distance,
    make_bacon_shor_2d,
    make_heisenberg_gauge,
    make_repetition_1d,
    make_steane_chain,
    make_surface_2d,
    make_toric_2d,
)
from latstab.errors import ContractViolation, DimensionError, ValidationError
from latstab.metrics import WalkTrace

from conftest import brute_min_weight, run_optimized


def test_energy_cost_identity_zero():
    assert get_structure(make_toric_2d(2)).energy(PauliOp.identity(8)) == 0


def test_energy_cost_single_x_toric():
    code = make_toric_2d(3)
    assert get_structure(code).energy(PauliOp.single(code.n, 0, "X")) == 4


def test_energy_cost_bacon_shor_partial_column_endpoint():
    code = make_bacon_shor_2d(4)
    st = get_structure(code)
    xbar = st.logicals.pairs[0][0]  # X column
    col = sorted(xbar.support(), key=lambda q: code.anchor(q))
    # the full column commutes with everything on the open lattice
    assert st.energy(xbar) == 0
    # a prefix only anticommutes with the vertical ZZ at its moving end
    prefix = PauliOp.from_letters(code.n, [(q, "X") for q in col[:2]])
    assert st.energy(prefix) == 2


def test_distance_examples():
    assert distance_bruteforce(make_repetition_1d(5)).value == 1
    cap3 = Budgets(weight_cap=3)
    assert distance_bruteforce(make_toric_2d(3), budgets=cap3).value == 3
    assert distance_bruteforce(make_bacon_shor_2d(3), "subsystem", budgets=cap3).value == 3


def test_distance_weight_cap_lower_bound():
    res = distance_bruteforce(make_toric_2d(3), budgets=Budgets(weight_cap=2))
    assert res.status == "lower_bound"
    assert res.value is None
    assert res.lower_bound == 3


def test_bruteforce_stops_before_a_level_past_the_node_cap():
    # toric 6 (n = 72): levels 1-3 hold 216 + 23,004 + 1,610,280 operators;
    # level 4's 83,331,990 would pass the default node cap 2^24
    res = distance_bruteforce(make_toric_2d(6))
    assert (res.status, res.lower_bound) == ("lower_bound", 4)
    assert res.stats["examined"] == 1_633_500 <= Budgets().node_cap


@pytest.mark.parametrize("node_cap, lower_bound, examined", [
    (100, 2, 54),
    (54 + 1377 - 1, 2, 54),
    (54 + 1377, 3, 54 + 1377),
])
def test_bruteforce_node_cap_counts_whole_levels(node_cap, lower_bound, examined):
    # toric 3 (n = 18, d = 3): level 1 holds 54 operators, level 2 1377; a
    # level is enumerated only if all of it fits the cap
    res = distance_bruteforce(make_toric_2d(3), budgets=Budgets(node_cap=node_cap))
    assert (res.status, res.lower_bound) == ("lower_bound", lower_bound)
    assert res.stats["examined"] == examined <= node_cap


def test_distance_witness_is_logical():
    code = make_surface_2d(3)
    st = get_structure(code)
    res = distance_bruteforce(code, budgets=Budgets(weight_cap=3))
    assert res.witness.weight() == res.value == 3
    assert st.is_logical(res.witness, "subsystem")


def test_distance_against_independent_scan():
    # oracle: plain weight-ordered scan with a from-scratch predicate
    code = make_toric_2d(2)
    st = get_structure(code)

    def is_logical(op):
        if any(not op.commutes(g) for g in code.generators):
            return False
        return not st.S.contains(op)

    w, _ = brute_min_weight(code, is_logical, 4)
    assert w == 2 == distance_bruteforce(code).value


def test_dp_equals_bruteforce_everywhere():
    cases = [
        (make_repetition_1d(4), "subsystem", 4),
        (make_repetition_1d(6, "periodic"), "subsystem", 6),
        (make_toric_2d(2), "subsystem", 2),
        (make_toric_2d(3), "subsystem", 3),
        (make_surface_2d(2), "subsystem", 2),
        (make_surface_2d(3), "subsystem", 3),
        (make_bacon_shor_2d(2), "subsystem", 2),
        (make_bacon_shor_2d(3), "subsystem", 3),
        (make_heisenberg_gauge(1, 3), "subsystem", 3),
        (make_heisenberg_gauge(1, 3), "bare", 3),
        (make_steane_chain(1), "subsystem", 3),
        (make_steane_chain(3), "subsystem", 3),
    ]
    for code, mode, cap in cases:
        dp = distance_dp(code, mode=mode)
        bf = distance_bruteforce(code, mode, budgets=Budgets(weight_cap=cap))
        assert dp.value == bf.value, code.name
        assert bf.stats["examined"] <= Budgets().node_cap


def test_dp_axis_symmetry():
    code = make_toric_2d(3)
    assert distance_dp(code, axis=0).value == distance_dp(code, axis=1).value


def test_dp_repetition_large_fast():
    assert distance_dp(make_repetition_1d(100)).value == 1


@pytest.mark.parametrize("engine", [
    lambda code, axis: distance(code, axis=axis),
    lambda code, axis: distance(code, axis=axis, method="bruteforce"),
    lambda code, axis: distance_dp(code, axis=axis),
    lambda code, axis: linear_distance(code, axis=axis),
], ids=["distance", "distance_bruteforce", "distance_dp", "linear_distance"])
def test_axis_checked_before_no_logicals(engine):
    from latstab import CodeSpec, Lattice

    code = CodeSpec("fixed", Lattice(1, 2), "stabilizer", 2,
                    [PauliOp.single(2, 0, "Z"), PauliOp.single(2, 1, "Z")])
    assert engine(code, 0).status == "no_logicals"
    with pytest.raises(DimensionError, match="axis 7 outside 0..0"):
        engine(code, 7)


@pytest.mark.parametrize("axis", [2, -1])
def test_walk_bound_checks_axis(axis):
    # without the check axis 2 was an IndexError and axis -1 ordered the walk
    # by the last axis
    code = make_toric_2d(3)
    witness = get_structure(code).logicals.pairs[0][0]
    assert barrier_walk_bound(code, witness, axis=1).status == "upper_bound"
    with pytest.raises(DimensionError, match=f"axis {axis} outside 0..1"):
        barrier_walk_bound(code, witness, axis=axis)


def test_linear_distance_examples():
    assert linear_distance(make_toric_2d(3), axis=0).value == 1
    assert linear_distance(make_repetition_1d(5)).value == 1
    assert linear_distance(make_bacon_shor_2d(3), axis=0).value == 1
    # the surface code also carries a width-1 logical along one axis
    assert linear_distance(make_surface_2d(3), axis=0).value == 1


def test_linear_distance_witness_certified():
    code = make_toric_2d(4)
    st = get_structure(code)
    res = linear_distance(code, axis=1)
    assert st.is_logical(res.witness, "subsystem")
    assert code.bounding_extent(res.witness, 1) == res.value


def test_walk_trace_invariants():
    code = make_repetition_1d(4)
    st = get_structure(code)
    steps = [(0, "X"), (1, "X"), (2, "X"), (3, "X")]
    trace = WalkTrace.build(st, steps)
    trace.validate(st)
    assert trace.final == PauliOp(4, 0b1111, 0)
    assert trace.profile == (2, 2, 2, 0)
    assert trace.eps_max == 2


def test_walk_bound_requires_logical():
    code = make_toric_2d(2)
    with pytest.raises(ContractViolation):
        barrier_walk_bound(code, PauliOp.single(code.n, 0, "X"))


def test_walk_bound_row_by_row_constant_toric():
    for L in (3, 4, 6):
        code = make_toric_2d(L)
        res = linear_distance(code, axis=0)
        wb = barrier_walk_bound(code, res.witness, "row_by_row", axis=0)
        assert wb.value == 4


def test_walk_bound_arbitrary_vs_participation_cap():
    code = make_toric_2d(3)
    d = distance_bruteforce(code, budgets=Budgets(weight_cap=3))
    wb = barrier_walk_bound(code, d.witness, "arbitrary")
    _, participation = code.validate_locality()
    assert wb.value <= 2 * participation * d.value


def test_walk_bound_explicit_order():
    code = make_repetition_1d(5)
    st = get_structure(code)
    xbar = st.logicals.pairs[0][0]
    # a walk in an order of one's own is WalkTrace.build on that order
    trace = WalkTrace.build(st, [(q, xbar.letter(q)) for q in (4, 3, 2, 1, 0)])
    assert trace.final == xbar
    assert trace.eps_max == 2


@pytest.mark.parametrize("engine", [
    lambda code: distance(code, "stabilizer"),
    lambda code: distance_dp(code, mode="stabilizer"),
    lambda code: distance_bruteforce(code, "stabilizer"),
    lambda code: linear_distance(code, mode="stabilizer"),
], ids=["distance", "distance_dp", "distance_bruteforce", "linear_distance"])
def test_stabilizer_mode_rejected_on_gauge_code(engine):
    # "stabilizer" is an unknown mode on every code, gauge or not: a stabilizer
    # code is the subsystem code with G = S, so "subsystem" gives its distance
    for code in (make_bacon_shor_2d(3), make_toric_2d(3)):
        with pytest.raises(ValidationError, match="unknown mode 'stabilizer'"):
            engine(code)


@pytest.mark.parametrize("engine, match", [
    (lambda code: distance(code, method="foo"), "unknown distance method 'foo'"),
    (lambda code: barrier_walk_bound(code, get_structure(code).logicals.pairs[0][0],
                                     schedule="foo"), "unknown schedule 'foo'"),
], ids=["distance_method", "walk_schedule"])
def test_unknown_engine_choice_rejected(engine, match):
    with pytest.raises(ValidationError, match=match):
        engine(make_toric_2d(3))


def _xbar_on_23_qubits():
    """Toric 3's X-bar rewrapped on 23 qubits: the same bits, wrong count."""
    code = make_toric_2d(3)
    xbar = get_structure(code).logicals.pairs[0][0]
    return code, PauliOp(23, xbar.x, xbar.z)


@pytest.mark.parametrize("method", ["syndrome", "energy", "class_bits", "is_logical"])
def test_structure_rejects_operator_on_other_qubit_count(method):
    code, op = _xbar_on_23_qubits()
    st = get_structure(code)
    # the _vec forms read the bits as given, so they take it for a logical
    assert st.is_logical_vec(op.vector, "subsystem") and st.class_bits_vec(op.vector) == 1
    with pytest.raises(DimensionError, match="operator acts on 23 qubits, code has 18"):
        getattr(st, method)(op)


def test_walk_bound_rejects_operator_on_other_qubit_count():
    code, op = _xbar_on_23_qubits()
    with pytest.raises(DimensionError, match="operator acts on 23 qubits, code has 18"):
        barrier_walk_bound(code, op)


def test_removed_search_options():
    # each question has one way to ask it: the barrier engines search the
    # subsystem targets only, and Budgets.weight_cap is the one enumeration cap
    for fn, name in ((barrier_exact, "mode"), (barrier_walk_bound, "mode"),
                     (barrier_walk_bound, "order"),
                     (distance, "weight_cap"), (distance_bruteforce, "weight_cap")):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    with pytest.raises(TypeError):
        barrier_exact(make_repetition_1d(3), mode="subsystem")


MASKED_ENGINES = pytest.mark.parametrize("engine", [
    lambda code, mask: distance_dp(code, class_mask=mask),
    lambda code, mask: distance_bruteforce(code, budgets=Budgets(weight_cap=3), class_mask=mask),
    lambda code, mask: linear_distance(code, class_mask=mask),
    lambda code, mask: barrier_exact(code, class_mask=mask),
    lambda code, mask: get_structure(code).is_logical(PauliOp.identity(code.n),
                                                      class_mask=mask),
], ids=["distance_dp", "distance_bruteforce", "linear_distance", "barrier_exact",
        "is_logical"])


@pytest.mark.parametrize("mask", [0, 0b110000], ids=["zero", "above_2k"])
@MASKED_ENGINES
def test_class_mask_selecting_no_pair_rejected(engine, mask):
    # toric 3 has k = 2, so class bits 0..3 name its two used pairs
    with pytest.raises(ValidationError, match="selects none of the 2 used logical pairs"):
        engine(make_toric_2d(3), mask)


@pytest.mark.parametrize("mask", [-1, -2], ids=["minus_1", "minus_2"])
@MASKED_ENGINES
def test_negative_class_mask_rejected(engine, mask):
    # as a Python int, -1 has every bit set and -2 every bit from 1 up, so
    # read as masks they would select every pair or all but the first class
    with pytest.raises(ValidationError, match=f"class mask {mask} is negative"):
        engine(make_toric_2d(3), mask)


@pytest.mark.parametrize("script", [
    # walk bound: the rebuilt walk stops one letter short of the witness
    "import latstab.metrics as m\n"
    "from latstab import PauliOp, make_repetition_1d\n"
    "build = m.WalkTrace.build\n"
    "m.WalkTrace.build = staticmethod(lambda st, steps: build(st, steps[:-1]))\n"
    "call = lambda: m.barrier_walk_bound(make_repetition_1d(3), PauliOp(3, 0b111, 0))\n",
    # trapping: the window search finds no logical in a region that traps one
    "import latstab.transforms as t\n"
    "from latstab import Region, make_toric_2d\n"
    "t._lightest_logical = lambda *args: None\n"
    "code = make_toric_2d(3)\n"
    "op = code.parse_op('X(1,0) X(1,2) X(1,4)')\n"
    "region = Region.from_box(code.lattice, [0, 0], [3, 1])\n"
    "call = lambda: t.clean_stabilizer(code, op, region)\n",
], ids=["walk_bound", "clean_trapped"])
def test_failed_certificate_raises_under_optimize(script):
    script += (
        "from latstab import CertificateError\n"
        "try:\n"
        "    call()\n"
        "except CertificateError:\n"
        "    print('CertificateError', __debug__)\n"
    )
    assert run_optimized(script) == ["CertificateError", "False"]
