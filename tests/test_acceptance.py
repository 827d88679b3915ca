"""Acceptance gate: one test per criterion, exact integer tolerances, with a
printed PASS line each (run with `pytest tests/test_acceptance.py -v -s`)."""

import time

from latstab import (
    Budgets,
    PauliOp,
    barrier_exact,
    barrier_walk_bound,
    clean_stabilizer,
    clean_subsystem,
    distance_bruteforce,
    distance_dp,
    get_structure,
    make_bacon_shor_2d,
    make_generalized_toric,
    make_heisenberg_gauge,
    make_repetition_1d,
    make_steane_chain,
    make_surface_2d,
    make_toric_2d,
    minimal_block_search,
    restriction_audit,
    strip_sweep,
)
from latstab.geometry import Region
from latstab.gf2 import rank
from latstab.zoo import STEANE_X_SETS

from conftest import random_centralizer_element


def _report(line):
    print(f"PASS {line}")


def test_criterion_1_distance_audit_toric_and_surface():
    # exact d = L and d <= r*L (r=2) for toric and the open surface variant
    for make, family in ((make_toric_2d, "toric"), (make_surface_2d, "surface")):
        for L in (2, 3, 4):
            code = make(L)
            t0 = time.monotonic()
            res = distance_bruteforce(code, "subsystem", budgets=Budgets(weight_cap=L))
            elapsed = time.monotonic() - t0
            assert res.status == "exact"
            assert res.value == L, (family, L)
            assert res.value <= 2 * L
            assert elapsed < 60.0, (family, L, elapsed)
            margin = 2 * L - res.value
            assert margin >= 0
    _report("criterion 1: toric+surface L=2..4 exact d=L <= r*L within runtime budget")


def test_criterion_2_strip_sweep_certified_everywhere():
    codes = [
        make_toric_2d(2), make_toric_2d(3), make_toric_2d(4), make_toric_2d(5),
        make_surface_2d(2), make_surface_2d(3), make_surface_2d(4),
        make_bacon_shor_2d(2), make_bacon_shor_2d(3), make_bacon_shor_2d(4),
        make_heisenberg_gauge(2, 3),
        make_generalized_toric(2, 2), make_generalized_toric(2, 3),
    ]
    runs = certified = 0
    for code in codes:
        st = get_structure(code)
        r = max(code.declared_r, 2)
        assert code.lattice.L >= 2 * (r - 1) ** 2
        for axis in (0, 1):
            res = strip_sweep(code, axis=axis)
            runs += 1
            ok = (
                res.extent <= r
                and st.is_logical(res.witness, "subsystem")
                and st.class_bits(res.witness) != 0
                and code.bounding_extent(res.witness, axis) == res.extent
            )
            assert ok, (code.name, axis)
            certified += 1
    assert certified == runs
    _report(f"criterion 2: strip sweep certified on {certified}/{runs} runs "
            f"(extent <= r, class map nonzero)")


def test_criterion_3_constant_barrier_toric():
    exact = barrier_exact(make_toric_2d(3))
    assert exact.status == "exact" and exact.value == 4
    bounds = []
    for L in range(3, 9):
        code = make_toric_2d(L)
        sw = strip_sweep(code, axis=0)
        wb = barrier_walk_bound(code, sw.witness, "row_by_row", axis=0)
        bounds.append(wb.value)
    assert bounds == [4] * 6
    assert max(bounds) - min(bounds) == 0
    _report("criterion 3: exact toric L=3 barrier = 4; walk bounds = 4 for L=3..8, "
            "zero variation")


def test_criterion_4_repetition_barriers():
    # quantum distance 1 makes the unrestricted barrier trivial (= 0 through
    # the weight-1 phase-flip logical); the classical no-go lives in the
    # bit-flip sector, whose exact barrier is the constant 2
    for L in range(2, 13):
        code = make_repetition_1d(L)
        assert distance_bruteforce(code, budgets=Budgets(weight_cap=1)).value == 1
        assert barrier_exact(code).value == 0
        flip = barrier_exact(code, class_mask=0b01)
        assert flip.status == "exact"
        assert flip.value == 2, L
    _report("criterion 4: repetition L=2..12 quantum d = 1, bit-flip sector "
            "barrier = 2 (unrestricted barrier = 0 via the weight-1 logical)")


def test_criterion_5_subsystem_bounds():
    for L in (2, 3, 4):
        code = make_bacon_shor_2d(L)
        res = distance_dp(code, mode="subsystem")
        assert res.value == L
        assert res.value <= 3 * 2 * L  # 3 r L^(D-1)
    for nb in (1, 3, 5):
        code = make_steane_chain(nb)
        mb = minimal_block_search(code, axis=0)
        assert mb.found
        assert mb.d_M <= code.declared_r
        assert mb.d <= mb.d_M + mb.shell_qubits
        assert mb.d <= 3 * code.declared_r
    for L in (3, 5):
        code = make_heisenberg_gauge(1, L)
        assert distance_bruteforce(code, "subsystem", budgets=Budgets(weight_cap=1)).value == 1
        mb = minimal_block_search(code, axis=0)
        assert mb.found and mb.d_M <= code.declared_r and mb.d <= 3 * code.declared_r
    _report("criterion 5: Bacon-Shor d = L <= 3rL; steane/heisenberg minimal "
            "blocks obey d_M <= r and d <= 3r; heisenberg d = 1")


def _steane_block_class_min_weight():
    """Independent oracle: per-block minimum weight of each logical class of
    one [[7,1,3]] block, by enumerating the 2^6 stabilizer multiplications."""
    n = 7
    stabs = []
    for s in STEANE_X_SETS:
        stabs.append(PauliOp.from_letters(n, [(q, "X") for q in s]))
    for s in STEANE_X_SETS:
        stabs.append(PauliOp.from_letters(n, [(q, "Z") for q in s]))
    span = [PauliOp.identity(n)]
    for g in stabs:
        span += [p.mul(g) for p in span]
    reps = {
        "X": PauliOp(n, (1 << n) - 1, 0),
        "Z": PauliOp(n, 0, (1 << n) - 1),
        "Y": PauliOp(n, (1 << n) - 1, (1 << n) - 1),
    }
    return {c: min(rep.mul(s).weight() for s in span) for c, rep in reps.items()}


def test_criterion_6_gauge_distance_constant_bare_weight_grows():
    block_min = _steane_block_class_min_weight()
    assert block_min == {"X": 3, "Z": 3, "Y": 3}
    gauge_distances = {}
    bare_weights = {}
    for nb in (1, 3, 5):
        code = make_steane_chain(nb)
        res = distance_bruteforce(code, "subsystem", budgets=Budgets(weight_cap=3))
        assert res.status == "exact"
        gauge_distances[nb] = res.value
        bare = distance_dp(code, mode="bare")
        bare_weights[nb] = bare.value
        # dual route: a bare logical must carry the same class in every block,
        # so the block-product oracle pins the exact value
        assert bare.value == nb * min(block_min.values())
    assert gauge_distances == {1: 3, 3: 3, 5: 3}
    assert bare_weights == {1: 3, 3: 9, 5: 15}
    # brute-force cross-check where enumeration is feasible
    steane1 = make_steane_chain(1)
    assert distance_bruteforce(steane1, "bare", budgets=Budgets(weight_cap=3)).value == 3
    ratios = [bare_weights[nb] / nb for nb in (1, 3, 5)]
    assert len(set(ratios)) == 1
    _report("criterion 6: steane chain d(G) = 3 for all n_blocks; bare minimum "
            "weight = 3*n_blocks (linear growth), dual-route checked")


def test_criterion_7a_randomized_cleaning(rng):
    codes = [
        make_repetition_1d(5),
        make_toric_2d(2),
        make_toric_2d(3),
        make_surface_2d(2),
        make_surface_2d(3),
        make_bacon_shor_2d(2),
        make_bacon_shor_2d(3),
        make_heisenberg_gauge(1, 3),
        make_heisenberg_gauge(2, 3),
        make_steane_chain(1),
    ]
    total = 0
    per_code = 100
    for code in codes:
        st = get_structure(code)
        lat = code.lattice
        for _ in range(per_code):
            region = Region(lat, rng.getrandbits(lat.n_sites))
            mask = code.qubit_mask_in(region)
            if code.role == "stabilizer":
                op = random_centralizer_element(rng, st)
                res = clean_stabilizer(code, op, region)
                if res.outcome == "cleaned":
                    assert res.cleaned.restrict(mask).is_identity
                    assert res.cleaned == op.mul(res.stabilizer)
                    assert st.S.contains(res.stabilizer)
                    for a in res.generator_indices:
                        assert code.generators[a].support_mask() & mask
                else:
                    assert res.trapped.support_mask() & ~mask == 0
                    assert st.is_logical(res.trapped, "subsystem")
            else:
                op = random_centralizer_element(rng, st, bare=True)
                res = clean_subsystem(code, op, region)
                if res.outcome == "cleaned":
                    assert res.cleaned.restrict(mask).is_identity
                    assert res.cleaned == op.mul(res.stabilizer)
                    assert st.S.contains(res.stabilizer)
                else:
                    assert res.trapped.support_mask() & ~mask == 0
                    assert st.is_logical(res.trapped, "subsystem")
            total += 1
    assert total == per_code * len(codes) == 1000
    _report(f"criterion 7a: cleaning postconditions hold on {total}/1000 "
            f"randomized (code, operator, region) cases")


def test_criterion_7b_restriction_bound_never_violated(rng):
    cases = [
        (make_toric_2d(3), 3),
        (make_repetition_1d(7), 1),
        (make_bacon_shor_2d(3), 3),
        (make_surface_2d(3), 3),
        (make_steane_chain(1), 3),
    ]
    checked = 0
    for code, d in cases:
        lat = code.lattice
        for _ in range(40):
            region = Region(lat, rng.getrandbits(lat.n_sites))
            res = restriction_audit(code, region, original_distance=d)
            assert res.holds, (code.name, region.site_coords())
            checked += 1
    assert checked == 200
    _report("criterion 7b: restriction bound d_M >= d - |shell| held on "
            "200/200 randomized regions")


def test_criterion_7c_group_identities_all_zoo():
    codes = [
        make_repetition_1d(4),
        make_repetition_1d(5, "periodic"),
        make_toric_2d(2),
        make_toric_2d(3),
        make_surface_2d(2),
        make_surface_2d(3),
        make_bacon_shor_2d(2),
        make_bacon_shor_2d(3),
        make_heisenberg_gauge(1, 3),
        make_heisenberg_gauge(2, 3),
        make_steane_chain(1),
        make_steane_chain(3),
        make_generalized_toric(3, 2),
    ]
    from latstab import centralizer

    for code in codes:
        st = get_structure(code)
        # C(S) = G . C(G) as a rank identity
        assert centralizer(st.S).rank == rank(list(st.G.rows) + list(st.CG.rows)), code.name
        # dimension identity and double centralizer
        assert centralizer(st.S).rank == 2 * code.n - st.S.rank
        cc = centralizer(centralizer(st.G))
        assert cc.rank == st.G.rank
        assert all(cc.contains_vec(r) for r in st.G.rows)
    _report(f"criterion 7c: group identities (useful identity, double "
            f"centralizer) hold for {len(codes)} zoo codes")


def test_criterion_7d_dp_equals_bruteforce():
    cases = [
        (make_repetition_1d(4), "subsystem", 4),
        (make_repetition_1d(8), "subsystem", 8),
        (make_repetition_1d(5, "periodic"), "subsystem", 5),
        (make_toric_2d(2), "subsystem", 2),
        (make_toric_2d(3), "subsystem", 3),
        (make_toric_2d(4), "subsystem", 4),
        (make_surface_2d(2), "subsystem", 2),
        (make_surface_2d(3), "subsystem", 3),
        (make_bacon_shor_2d(2), "subsystem", 2),
        (make_bacon_shor_2d(3), "subsystem", 3),
        (make_bacon_shor_2d(4), "subsystem", 4),
        (make_heisenberg_gauge(1, 3), "subsystem", 1),
        (make_heisenberg_gauge(1, 5), "subsystem", 1),
        (make_heisenberg_gauge(1, 3), "bare", 3),
        (make_steane_chain(1), "subsystem", 3),
        (make_steane_chain(3), "subsystem", 3),
        (make_generalized_toric(3, 2), "subsystem", 2),
    ]
    for code, mode, cap in cases:
        dp = distance_dp(code, mode=mode)
        bf = distance_bruteforce(code, mode, budgets=Budgets(weight_cap=cap))
        assert bf.status == "exact"
        assert bf.stats["examined"] <= Budgets().node_cap
        assert dp.value == bf.value, (code.name, mode)
    _report(f"criterion 7d: DP distance equals brute force on {len(cases)} instances")


def test_criterion_7e_quotient_soundness_and_linearity(rng):
    # exhaustive for n <= 4
    for L in (2, 3, 4):
        code = make_repetition_1d(L)
        st = get_structure(code)
        span = [0]
        for row in st.S.rows:
            span += [v ^ row for v in span]
        for x in range(1 << code.n):
            for z in range(1 << code.n):
                v = x | (z << code.n)
                sv, cv = st.syndrome_vec(v), st.class_bits_vec(v)
                for s in span:
                    assert st.syndrome_vec(v ^ s) == sv
                    assert st.class_bits_vec(v ^ s) == cv
    # sampled at larger n: 10^4 trials
    trials = 0
    for code in (make_toric_2d(3), make_bacon_shor_2d(3), make_steane_chain(3)):
        st = get_structure(code)
        for _ in range(3334):
            a = PauliOp(code.n, rng.getrandbits(code.n), rng.getrandbits(code.n))
            b = PauliOp(code.n, rng.getrandbits(code.n), rng.getrandbits(code.n))
            ab = a.mul(b)
            assert st.syndrome(ab) == st.syndrome(a) ^ st.syndrome(b)
            assert st.class_bits(ab) == st.class_bits(a) ^ st.class_bits(b)
            s = 0
            for row in st.S.rows:
                if rng.random() < 0.5:
                    s ^= row
            assert st.energy_vec(a.vector ^ s) == st.energy_vec(a.vector)
            assert st.is_logical_vec(a.vector ^ s, "subsystem") == st.is_logical_vec(
                a.vector, "subsystem"
            )
            trials += 1
    assert trials >= 10000
    _report(f"criterion 7e: quotient soundness and map linearity exhaustive for "
            f"n<=4 and on {trials} sampled trials at larger n")


def test_criterion_8_naive_bound_chain():
    instances = [
        make_repetition_1d(4),
        make_repetition_1d(8),
        make_repetition_1d(12),
        make_toric_2d(2),
        make_toric_2d(3),
        make_surface_2d(2),
        make_surface_2d(3),
        make_bacon_shor_2d(2),
        make_bacon_shor_2d(3),
        make_heisenberg_gauge(1, 3),
        make_heisenberg_gauge(1, 5),
        make_steane_chain(1),
    ]
    violations = 0
    for code in instances:
        st = get_structure(code)
        exact = barrier_exact(code)
        assert exact.status == "exact"
        d = distance_dp(code, mode="subsystem")
        wb = barrier_walk_bound(code, d.witness, "arbitrary")
        _, participation = code.validate_locality()
        if not (exact.value <= wb.value <= 2 * participation * d.value):
            violations += 1
    assert violations == 0
    _report(f"criterion 8: exact barrier <= naive walk <= 2*participation*d on "
            f"{len(instances)} instances, zero violations")
