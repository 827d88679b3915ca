import dataclasses
import hashlib
import json
import random
from itertools import product

import pytest

import latstab.transforms as transforms
from latstab import (
    Budgets,
    CodeSpec,
    Lattice,
    PauliOp,
    barrier_exact,
    clean_stabilizer,
    clean_subsystem,
    compress_qubits,
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
from latstab.audit import audit_instance
from latstab.errors import (CapacityError, CertificateError, ContractViolation, LatstabError,
                             NoLogicalQubitsError, PreconditionError)
from latstab.geometry import Region, axis_windows
from latstab.groups import _restricted_k
from latstab.zoo import FAMILIES

from conftest import random_centralizer_element


def test_clean_disjoint_region_is_identity_multiplier():
    code = make_toric_2d(3)
    st = get_structure(code)
    zbar = st.logicals.pairs[0][1]
    rows = {code.anchor(q)[1] for q in zbar.support()}
    other_row = (max(rows) + 1) % 3
    region = Region.from_sites(code.lattice, [(x, other_row) for x in range(3)])
    if code.qubit_mask_in(region) & zbar.support_mask():
        pytest.skip("region overlaps the logical; pick a different row")
    res = clean_stabilizer(code, zbar, region)
    assert res.outcome == "cleaned"
    assert res.stabilizer.is_identity


def test_clean_deforms_logical_around_region():
    code = make_toric_2d(4)
    st = get_structure(code)
    zbar = st.logicals.pairs[0][1]
    region = Region.from_box(code.lattice, (1, 0), (3, 2))
    assert code.qubit_mask_in(region) & zbar.support_mask()
    res = clean_stabilizer(code, zbar, region)
    assert res.outcome == "cleaned"
    assert res.cleaned.restrict(code.qubit_mask_in(region)).is_identity
    assert st.is_logical(res.cleaned, "subsystem")
    assert st.class_bits(res.cleaned) == st.class_bits(zbar)
    # multiplier uses only generators overlapping the region
    mask = code.qubit_mask_in(region)
    for a in res.generator_indices:
        assert code.generators[a].support_mask() & mask


def test_clean_full_lattice_traps():
    code = make_toric_2d(3)
    st = get_structure(code)
    res = clean_stabilizer(code, st.logicals.pairs[0][1], Region.full(code.lattice))
    assert res.outcome == "trapped_logical"
    assert st.is_logical(res.trapped, "subsystem")


def test_clean_contract_violation():
    code = make_toric_2d(2)
    with pytest.raises(ContractViolation):
        clean_stabilizer(code, PauliOp.single(code.n, 0, "X"), Region.full(code.lattice))


@pytest.mark.parametrize("clean, match", [
    (clean_stabilizer, "clean_stabilizer needs a stabilizer code"),
    (clean_subsystem, "not in the centralizer of the gauge group"),
], ids=["stabilizer_clean_on_gauge_code", "subsystem_clean_outside_CG"])
def test_clean_contract_violation_on_gauge_code(clean, match):
    # a single X on Bacon-Shor anticommutes with a ZZ gauge term
    code = make_bacon_shor_2d(2)
    with pytest.raises(ContractViolation, match=match):
        clean(code, PauliOp.single(code.n, 0, "X"), Region.full(code.lattice))


def test_clean_subsystem_moves_bacon_shor_column():
    code = make_bacon_shor_2d(3)
    st = get_structure(code)
    xbar = st.logicals.pairs[0][0]
    top = Region.from_sites(code.lattice, [code.anchor(min(xbar.support()))])
    res = clean_subsystem(code, xbar, top)
    assert res.outcome == "cleaned"
    assert res.cleaned.restrict(code.qubit_mask_in(top)).is_identity
    assert st.stab_syndrome_vec(res.cleaned.vector) == 0
    assert st.class_bits(res.cleaned) == st.class_bits(xbar)
    # the multiplier is a (nonlocal) center element, weight 2L
    assert res.stabilizer.weight() == 6


def test_clean_subsystem_empty_region():
    code = make_bacon_shor_2d(2)
    st = get_structure(code)
    res = clean_subsystem(code, st.logicals.pairs[0][0], Region.empty(code.lattice))
    assert res.outcome == "cleaned" and res.stabilizer.is_identity


def test_randomized_cleaning_postconditions(rng):
    codes = [
        make_repetition_1d(5),
        make_toric_2d(2),
        make_toric_2d(3),
        make_surface_2d(2),
        make_bacon_shor_2d(2),
        make_bacon_shor_2d(3),
        make_heisenberg_gauge(1, 3),
        make_steane_chain(1),
    ]
    for code in codes:
        st = get_structure(code)
        lat = code.lattice
        for _ in range(30):
            region = Region(lat, rng.getrandbits(lat.n_sites))
            mask = code.qubit_mask_in(region)
            if code.role == "stabilizer":
                op = random_centralizer_element(rng, st)
                res = clean_stabilizer(code, op, region)
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


def test_strip_sweep_certified_across_zoo():
    codes = [
        make_toric_2d(2), make_toric_2d(3), make_toric_2d(5),
        make_surface_2d(2), make_surface_2d(4),
        make_bacon_shor_2d(2), make_bacon_shor_2d(4),
        make_heisenberg_gauge(2, 3),
    ]
    for code in codes:
        st = get_structure(code)
        for axis in (0, 1):
            res = strip_sweep(code, axis=axis)
            assert res.extent <= max(code.declared_r, 2), code.name
            assert st.is_logical(res.witness, "subsystem"), code.name
            assert code.bounding_extent(res.witness, axis) == res.extent


def test_strip_sweep_repetition():
    code = make_repetition_1d(4)
    res = strip_sweep(code, axis=0)
    assert res.extent <= 2


# SHA-256 of [[witness text, extent, method] for axis 0, then axis 1],
# recorded before the sweep's stabilizer codes moved to the joint cleaning of
# the even-strip union; the single cleaning path must reproduce them
SWEEP_PINS = {
    "toric-2": "70fdc5fa1f018b23c21892532c596368b334d20b5c0a5f4326f9d2d1efeebca1",
    "toric-3": "3fe546b21a275b7a09b9032e69ff9448ff66adba64ce9d67899cf66e7b0a80aa",
    "toric-4": "4b6d08f04687dcedaa74ef46785876353e416e1e9a01e4194df6286025e5fc08",
    "toric-5": "64c2777bfc7ca72c5c03df5a38be23eae38d49f705d5104894e070f78ca41a6f",
    "toric-6": "b3871da7bf9c5e4de5e1e5ee00551d5bc564d722fc8eeeb1891e3fcb29b4a083",
    "toric-7": "1a316d81a206593506f1692b55131f800cf1ff949bf10925873ad2e7159e7aac",
    "toric-8": "df1db5dfe3ed7c5d1a3cedb968052ed8b87fa989f97890901f1f394d2d679c8f",
    "surface-2": "198c2e2841c308ac194e8b374262af27d29c4db0490d063332604fca924d9c4f",
    "surface-3": "052ed46b74b962ae16273004227e1fb65b22431f17f0af64cc25cee6e4705fd1",
    "surface-4": "d9bcd396b0d91adf50d23f2d61a2d42ef181ba08164bb43190da907f21d6441e",
    "surface-5": "2817ac38f8ba143903f6b83e6bdaa80f0b2a374f63295755652cf7f0fe0a8d98",
    "surface-6": "43ff81bb2bd37a1c2340fa61cd684bfc88e4a367e27fbbe709db29936d0a90df",
    "surface-7": "1879e66f5fd9a89ae0a0b96434e9044e4db9c4eb0a641d4b5a897404b479e183",
    "surface-8": "3b8a4d66eef2eec56a8fb42036432d4a6d90290ba959058363060e5eb4a8f6b3",
}


@pytest.mark.parametrize("key", sorted(SWEEP_PINS))
def test_strip_sweep_pinned(key):
    family, L = key.split("-")
    code = {"toric": make_toric_2d, "surface": make_surface_2d}[family](int(L))
    rows = []
    for axis in (0, 1):
        res = strip_sweep(code, axis=axis)
        rows.append([code.format_op(res.witness), res.extent, res.method])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SWEEP_PINS[key]


def _op_record(op):
    return None if op is None else [op.n, op.x, op.z]


def _cleaning_records():
    """Seeded clean_stabilizer (stabilizer codes), clean_subsystem and
    strip_sweep results, every field of each, in one list."""
    codes = [make_toric_2d(3), make_toric_2d(4), make_surface_2d(3), make_surface_2d(4),
             make_bacon_shor_2d(3), make_bacon_shor_2d(4), make_steane_chain(3),
             make_heisenberg_gauge(1, 5)]
    records = []
    for code in codes:
        rng = random.Random(code.name)
        st = get_structure(code)
        cleans = [clean_subsystem] + [clean_stabilizer] * (code.role == "stabilizer")
        for i in range(24):
            # regions of density 1/2, 1/4 and 1/8
            mask = -1
            for _ in range(1 + i % 3):
                mask &= rng.getrandbits(code.lattice.n_sites)
            region = Region(code.lattice, mask)
            op = random_centralizer_element(rng, st, bare=True)
            for clean in cleans:
                res = clean(code, op, region)
                records.append([code.name, clean.__name__, res.outcome,
                                *map(_op_record, (res.stabilizer, res.cleaned, res.trapped)),
                                list(res.generator_indices)])
        for axis in range(code.lattice.D):
            try:
                res = strip_sweep(code, axis=axis)
            except PreconditionError as exc:  # Steane chain 3: L is below 2(r-1)^2
                records.append([code.name, "strip_sweep", str(exc)])
                continue
            records.append([code.name, "strip_sweep", _op_record(res.witness), res.extent,
                            res.axis, res.method, list(res.strip_widths), res.class_bits])
    return records


# SHA-256 of _cleaning_records(), recorded before clean_stabilizer and
# clean_subsystem shared one cleaning body
CLEANING_SHA = "64941884d50ed85b54913c6a3775a9e313e6468bcead67e8a209c2718b8b6d44"


def test_cleaning_outputs_are_pinned():
    records = _cleaning_records()
    assert {r[2] for r in records if r[1] != "strip_sweep"} == {"cleaned", "trapped_logical"}
    text = json.dumps(records)
    assert hashlib.sha256(text.encode()).hexdigest() == CLEANING_SHA


def test_strip_sweep_needs_logicals():
    # a code with k = 0: single qubit fully fixed by its stabilizer
    code = CodeSpec("fixed", Lattice(1, 2), "stabilizer", 2,
                    [PauliOp.single(2, 0, "Z"), PauliOp.single(2, 1, "Z")])
    with pytest.raises(NoLogicalQubitsError):
        strip_sweep(code)


def _clean_to_identity(st, *_):
    # a cleaning that leaves nothing, so no sweep candidate certifies
    return transforms.CleanResult("cleaned", cleaned=PauliOp.identity(st.n))


def test_strip_sweep_falls_back_to_the_window_scan(monkeypatch):
    # no zoo code reaches the fallback; the exact window scan supplies it
    code = make_toric_2d(4)
    monkeypatch.setattr(transforms, "_clean_on", _clean_to_identity)
    res = strip_sweep(code, axis=0)
    lres = transforms.linear_distance(code, 0, "subsystem")
    assert res.method == "window_fallback"
    assert (res.witness, res.extent) == (lres.witness, lres.value)
    assert res.extent <= max(code.declared_r, 2)


def test_strip_sweep_without_a_certified_witness_raises(monkeypatch):
    code = make_toric_2d(4)
    r = max(code.declared_r, 2)
    wide = dataclasses.replace(transforms.linear_distance(code, 0, "subsystem"), value=r + 1)
    monkeypatch.setattr(transforms, "_clean_on", _clean_to_identity)
    monkeypatch.setattr(transforms, "linear_distance", lambda *args: wide)
    with pytest.raises(LatstabError, match=f"no certified witness of extent <= {r}"):
        strip_sweep(code, axis=0)


def test_compress_qubits_keeps_locality_and_drops_identities():
    code = make_toric_2d(3)
    region = Region.from_box(code.lattice, (0, 0), (2, 2))
    sub = compress_qubits(code, code.qubit_mask_in(region), "sub")
    assert sub.n == code.qubit_mask_in(region).bit_count()
    assert all(not g.is_identity for g in sub.generators)


def test_restriction_audit_disk_and_full():
    code = make_toric_2d(3)
    disk = Region.from_box(code.lattice, (0, 0), (2, 2))
    res = restriction_audit(code, disk, original_distance=3)
    assert res.case == "no_logicals" and res.holds
    full = restriction_audit(code, Region.full(code.lattice), original_distance=3)
    assert full.case == "distance_bound"
    assert full.d_M == 3 and full.shell_qubits == 0 and full.holds


def test_restriction_audit_reads_weight_cap():
    # a 1 MiB budget puts toric 3's transfer DP over capacity, so enumeration
    # decides d = 3, and it stops at the cap
    code = make_toric_2d(3)
    full = Region.full(code.lattice)
    with pytest.raises(CapacityError, match="weight cap 1") as exc:
        restriction_audit(code, full, budgets=Budgets(weight_cap=1, mem_mb=1))
    assert (exc.value.required, exc.value.cap) == (2, 1)
    res = restriction_audit(code, full, budgets=Budgets(weight_cap=3, mem_mb=1))
    assert res.d == res.d_M == 3


def test_restriction_audit_names_the_node_cap():
    # the DP is over a 1 MiB budget, and the 54 weight-1 operators examined
    # plus toric 3's weight-2 level of 1377 pass a node cap of 100: required
    # is the count that passed the cap, both in operators
    code = make_toric_2d(3)
    with pytest.raises(CapacityError, match="passes the node cap 100") as exc:
        restriction_audit(code, Region.full(code.lattice), budgets=Budgets(node_cap=100, mem_mb=1))
    assert (exc.value.required, exc.value.cap) == (1431, 100)


REFUSING_ENGINES = {
    "distance_dp": lambda code, b: distance_dp(code, budgets=b),
    "distance_bruteforce": lambda code, b: distance_bruteforce(code, budgets=b),
    "barrier_exact": lambda code, b: barrier_exact(code, budgets=b),
    "restriction_audit": lambda code, b: restriction_audit(code, Region.full(code.lattice),
                                                           budgets=b),
    "minimal_block_search": lambda code, b: minimal_block_search(code, budgets=b),
}


@pytest.mark.parametrize("engine", sorted(REFUSING_ENGINES))
def test_every_refusal_passed_its_cap(engine):
    # over a small budget ladder, each CapacityError counts what passed the
    # cap (required > cap) and names the cap's value
    refused = []
    for code, (node_cap, weight_cap, mem_mb) in product(
            (make_toric_2d(3), make_bacon_shor_2d(3), make_repetition_1d(6)),
            product((100, 1430, 2**21), (1, 2, 6), (1, 64))):
        budgets = Budgets(weight_cap=weight_cap, node_cap=node_cap, mem_mb=mem_mb)
        try:
            REFUSING_ENGINES[engine](code, budgets)
        except CapacityError as e:
            assert e.required > e.cap, (code.name, budgets, str(e))
            assert str(e.cap) in str(e), (code.name, budgets, str(e))
            refused.append(e)
    # brute force answers a refusal with a lower bound instead of raising
    assert bool(refused) == (engine != "distance_bruteforce")


def holey_code():
    """D=1, L=4 open code with no qubit at site (3)."""
    return CodeSpec("holey", Lattice(1, 4), "stabilizer", 2,
                    [PauliOp.from_letters(3, [(0, "Z"), (1, "Z")]),
                     PauliOp.from_letters(3, [(1, "Z"), (2, "Z")])],
                    qubit_cells=[(0,), (1,), (2,)])


def test_restriction_audit_region_without_qubits_counts_shell():
    code = holey_code()
    res = restriction_audit(code, Region.from_sites(code.lattice, [(3,)]))
    assert res.case == "no_logicals" and res.holds
    assert res.shell_qubits == 2 and res.region_size == 1


def test_restriction_audit_randomized_never_violates(rng):
    cases = [
        (make_toric_2d(3), 3),
        (make_repetition_1d(7), 1),
        (make_bacon_shor_2d(3), 3),
        (make_surface_2d(3), 3),
        (make_steane_chain(1), 3),
    ]
    for code, d in cases:
        lat = code.lattice
        for _ in range(40):
            region = Region(lat, rng.getrandbits(lat.n_sites))
            res = restriction_audit(code, region, original_distance=d)
            assert res.holds, (code.name, region.site_coords())


def test_minimal_block_steane_and_heisenberg():
    for nb in (1, 3):
        code = make_steane_chain(nb)
        res = minimal_block_search(code, axis=0)
        assert res.found
        assert res.d_M <= code.declared_r
        assert res.checks["d <= 3r*L^(D-1)"]
        assert res.checks["d <= d_M + shell"]
    for L in (3, 5):
        code = make_heisenberg_gauge(1, L)
        res = minimal_block_search(code, axis=0)
        assert res.found and res.d_M <= code.declared_r
        assert res.d == 1


def test_minimal_block_bacon_shor_strips():
    code = make_bacon_shor_2d(3)
    res = minimal_block_search(code, axis=0)
    assert res.found
    L = code.lattice.L
    assert res.d_M <= code.declared_r * L
    assert res.checks["d <= 3r*L^(D-1)"]


def test_minimal_block_without_logicals_and_in_3d():
    fixed = CodeSpec("fixed", Lattice(1, 2), "stabilizer", 2,
                     [PauliOp.single(2, 0, "Z"), PauliOp.single(2, 1, "X")])
    res = minimal_block_search(fixed, axis=0)
    assert not res.found and res.k_M == 0 and res.checks == {}
    with pytest.raises(PreconditionError, match="supports D = 1 or 2 only"):
        minimal_block_search(make_generalized_toric(3, 2))


K_M_CODES = [
    make_repetition_1d(2), make_repetition_1d(5), make_repetition_1d(5, "periodic"),
    *(make(L) for make in (make_toric_2d, make_surface_2d, make_bacon_shor_2d)
      for L in (2, 3, 4)),
    make_heisenberg_gauge(1, 5), make_heisenberg_gauge(2, 3),
    make_steane_chain(1), make_steane_chain(3),
    make_generalized_toric(2, 3), make_generalized_toric(3, 2),
]


def test_restricted_k_matches_restricted_code():
    windows = 0
    for code in K_M_CODES:
        G = get_structure(code).G
        for axis in range(code.lattice.D):
            for width, start, region in axis_windows(code.lattice, axis):
                mask = code.qubit_mask_in(region)
                expect = get_structure(compress_qubits(code, mask, "sub")).k
                assert _restricted_k(G, mask) == expect, (code.name, axis, start, width)
                windows += 1
    assert windows == 470


@pytest.mark.parametrize("code", [make_steane_chain(3), make_bacon_shor_2d(3)],
                         ids=["steane_chain3", "bacon_shor3"])
def test_minimal_block_builds_one_restricted_code(code, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return compress_qubits(*args)

    monkeypatch.setattr(transforms, "compress_qubits", counting)
    res = minimal_block_search(code, axis=0)
    assert res.found and len(built) == 1


def test_wrong_restricted_k_raises_certificate_error(monkeypatch):
    monkeypatch.setattr(transforms, "_restricted_k", lambda basis, mask: 5)
    with pytest.raises(CertificateError):
        minimal_block_search(make_steane_chain(1), axis=0)
    code = make_toric_2d(3)
    with pytest.raises(CertificateError):
        restriction_audit(code, Region.full(code.lattice), original_distance=3)


@pytest.mark.parametrize("family, L", [("heisenberg", 3), ("heisenberg", 5), ("steane_chain", 3)])
def test_audit_computes_the_parent_distance_once(family, L, monkeypatch):
    # audit_instance hands its exact d to the minimal-block audit, so the
    # restriction audit computes the restricted code's distance only
    code = FAMILIES[family](L)
    calls = []
    real = transforms.distance

    def counted(c, *args, **kwargs):
        calls.append(c.name)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(transforms, "distance", counted)
    rec = audit_instance(family, code, {"L": L})
    assert rec.metrics["min_block_distance"] is not None
    assert calls == [f"{code.name}|restricted"]
