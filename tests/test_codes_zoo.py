import pytest

from latstab import (
    CodeSpec,
    Lattice,
    PauliOp,
    get_structure,
    make_bacon_shor_2d,
    make_generalized_toric,
    make_heisenberg_gauge,
    make_repetition_1d,
    make_steane_chain,
    make_surface_2d,
    make_toric_2d,
    parse_code,
    serialize_code,
)
from latstab.errors import CodeFormatError, LocalityError, ValidationError

ZOO = [
    make_repetition_1d(3),
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


def test_repetition_counts():
    assert len(make_repetition_1d(3).generators) == 2
    assert len(make_repetition_1d(4, "periodic").generators) == 4
    assert make_repetition_1d(4).validate_locality() == (2, 2)


def test_toric_counts_and_rank():
    code = make_toric_2d(2)
    assert code.n == 8
    assert len(code.generators) == 8
    assert get_structure(code).S.rank == 6
    assert get_structure(code).k == 2


def test_toric_participation_exactly_four_everywhere():
    code = make_toric_2d(4)
    r, part = code.validate_locality()
    assert (r, part) == (2, 4)
    counts = [0] * code.n
    for g in code.generators:
        for q in g.support():
            counts[q] += 1
    assert set(counts) == {4}  # two stars + two plaquettes per edge


def test_generalized_toric_d3_structure():
    code = make_generalized_toric(3, 2)
    assert code.n == 3 * 8  # edges of the 2^3 torus
    xs = [g for g in code.generators if g.z == 0]
    zs = [g for g in code.generators if g.x == 0]
    assert len(xs) == 3 * 8  # faces
    assert len(zs) == 8  # vertices
    assert all(g.weight() == 4 for g in xs)
    assert all(g.weight() == 6 for g in zs)
    assert get_structure(code).k == 3


def test_generalized_toric_d2_is_toric_relabeled():
    L = 3
    gt = make_generalized_toric(2, L)
    tor = make_toric_2d(L)

    def shift(cell):
        return tuple((c + 1) % (2 * L) for c in cell)

    remap = {q: tor.qubit_at(shift(cell)) for q, cell in enumerate(gt.qubit_cells)}

    def relabel(op):
        return PauliOp.from_letters(tor.n, [(remap[q], op.letter(q)) for q in op.support()])

    assert {relabel(g) for g in gt.generators} == set(tor.generators)


def test_generalized_toric_d4_constructs_locally():
    code = make_generalized_toric(4, 2)
    assert code.n == 6 * 16  # faces of the 2^4 torus
    r, part = code.validate_locality()
    assert r == 2


def test_surface_code_shape():
    code = make_surface_2d(3)
    assert code.n == 9 + 4
    assert get_structure(code).k == 1


def test_bacon_shor_counts_and_center():
    for L in (3, 4):
        code = make_bacon_shor_2d(L)
        assert len(code.generators) == 2 * L * (L - 1)
        st = get_structure(code)
        assert st.S.rank == 2 * (L - 1)
        assert all(op.weight() == 2 * L for op in st.S.ops())
        assert st.k == 1


def test_heisenberg_center_trivial_and_bare_logical():
    code = make_heisenberg_gauge(1, 3)
    st = get_structure(code)
    assert st.s == 0
    x_all = PauliOp(code.n, (1 << code.n) - 1, 0)
    assert st.syndrome(x_all) == 0  # commutes with every generator
    assert not st.G.contains(x_all)


def test_heisenberg_bare_weight_is_lattice_volume():
    from latstab import distance_dp

    assert distance_dp(make_heisenberg_gauge(1, 3), mode="bare").value == 3
    assert distance_dp(make_heisenberg_gauge(1, 5), mode="bare").value == 5
    assert distance_dp(make_heisenberg_gauge(2, 3), mode="bare").value == 9


def test_heisenberg_rejects_even_L():
    with pytest.raises(ValidationError):
        make_heisenberg_gauge(1, 4)


def test_steane_chain_rejects_even_blocks():
    with pytest.raises(ValidationError):
        make_steane_chain(2)


def test_steane_chain_structure():
    code = make_steane_chain(3)
    st = get_structure(code)
    assert (st.s, st.g, st.k) == (18, 2, 1)


def test_steane_chain_collective_pair_is_the_protected_logical():
    code = make_steane_chain(3)
    st = get_structure(code)
    full = (1 << code.n) - 1
    x_all, z_all = PauliOp(code.n, full, 0), PauliOp(code.n, 0, full)
    assert not x_all.commutes(z_all)
    for op in (x_all, z_all):
        assert st.stab_syndrome_vec(op.vector) == 0
        assert st.is_logical(op, "subsystem")
    # they carry complementary halves of the single used class
    assert st.class_bits(x_all) | st.class_bits(z_all) == 0b11
    assert st.class_bits(x_all) & st.class_bits(z_all) == 0


def test_zoo_locality_and_validation():
    for code in ZOO:
        r, part = code.validate_locality()
        assert r <= code.declared_r
        assert part >= 1


def test_serialization_roundtrip_all():
    for code in ZOO:
        text = serialize_code(code)
        back = parse_code(text)
        assert back == code
        assert serialize_code(back) == text


@pytest.mark.parametrize("field", ["name", "declared_r", "generators", "_anchors"])
def test_code_spec_is_immutable(field):
    # a spec keys the structure cache, so its identity cannot change under it
    code = make_toric_2d(3)
    with pytest.raises(AttributeError):
        setattr(code, field, getattr(code, field))
    assert code == make_toric_2d(3) and hash(code) == hash(make_toric_2d(3))


def test_parse_rejects_duplicate_cells():
    text = (
        "lattice D=1 L=3 boundary=open\n"
        "name=dup\nrole=stabilizer\nr=2\nscale=1\n"
        "qubits:\n(0)\n(0)\n"
    )
    with pytest.raises(CodeFormatError):
        parse_code(text)


def test_parse_rejects_anticommuting_stabilizers():
    text = (
        "lattice D=1 L=2 boundary=open\n"
        "name=bad\nrole=stabilizer\nr=2\n"
        "X(0)\nZ(0)\n"
    )
    with pytest.raises(ValidationError) as exc:
        parse_code(text)
    assert "anticommute" in str(exc.value)


def test_parse_reports_line_numbers():
    text = (
        "lattice D=1 L=3 boundary=open\n"
        "name=x\nrole=stabilizer\nr=2\n"
        "Z(0) Z(1)\n"
        "Q(1)\n"
    )
    with pytest.raises(CodeFormatError) as exc:
        parse_code(text)
    assert "line 6" in str(exc.value)


@pytest.mark.parametrize("bad_line", ["r=abc", "scale=x"])
def test_parse_rejects_bad_integer_with_line_number(bad_line):
    text = (
        "lattice D=1 L=3 boundary=open\n"
        "name=x\nrole=stabilizer\n"
        f"{bad_line}\n"
        "Z(0) Z(1)\n"
    )
    with pytest.raises(CodeFormatError) as exc:
        parse_code(text)
    assert exc.value.line == 4


_HEADER = ["lattice D=1 L=3 boundary=open", "name=x", "role=stabilizer", "r=2", "scale=1",
           "qubits:", "(0)", "(1)", "(2)", "Z(0) Z(1)"]


@pytest.mark.parametrize("repeat, key, first", [
    ("lattice D=1 L=5 boundary=open", "lattice", 1),
    ("name=y", "name=", 2),
    ("role=gauge", "role=", 3),
    ("r=3", "r=", 4),
    ("scale=1", "scale=", 5),
    ("qubits:", "qubits:", 6),
], ids=["lattice", "name", "role", "r", "scale", "qubits"])
def test_parse_rejects_repeated_header_line(repeat, key, first):
    assert parse_code("\n".join(_HEADER) + "\n").n == 3
    with pytest.raises(CodeFormatError) as exc:
        parse_code("\n".join(_HEADER + [repeat, "Z(1) Z(2)"]) + "\n")
    assert exc.value.line == 11
    assert f"repeated {key!r} header line (first on line {first})" in str(exc.value)


def test_load_code_rejects_non_utf8(tmp_path):
    from latstab.cli import _load_code

    path = tmp_path / "latin1.code"
    path.write_bytes("lattice D=1 L=3 boundary=open\nname=\xe9\n".encode("latin-1"))
    with pytest.raises(CodeFormatError):
        _load_code(str(path))


def test_nonlocal_generator_rejected():
    n = 8
    gens = [PauliOp.from_letters(n, [(0, "X"), (n - 1, "X")])]
    with pytest.raises(LocalityError) as exc:
        CodeSpec("nonlocal", Lattice(1, n), "stabilizer", 2, gens)
    assert exc.value.generator_index == 0


def test_operator_text_roundtrip():
    code = make_toric_2d(2)
    for g in code.generators:
        assert code.parse_op(code.format_op(g)) == g
    assert code.parse_op("").is_identity
    assert code.format_op(PauliOp.identity(code.n)) == ""


def test_bounding_extent_translation_invariant_periodic():
    code = make_toric_2d(3)
    L = code.lattice.L

    def translate(op, dx):
        moved = []
        for q in op.support():
            a, b = code.qubit_cells[q]
            moved.append((code.qubit_at(((a + 2 * dx) % (2 * L), b)), op.letter(q)))
        return PauliOp.from_letters(code.n, moved)

    import random
    rng = random.Random(13)
    for _ in range(30):
        op = PauliOp(code.n, rng.getrandbits(code.n), rng.getrandbits(code.n))
        for dx in (1, 2):
            assert code.bounding_extent(op, 0) == code.bounding_extent(translate(op, dx), 0)


def test_bounding_extent_examples():
    code = make_bacon_shor_2d(4)
    col = PauliOp.from_letters(code.n, [(code.lattice.site_index((0, j)), "Z") for j in range(4)])
    assert code.bounding_extent(col, axis=0) == 1
    assert code.bounding_extent(col, axis=1) == 4
    assert code.bounding_extent(PauliOp.identity(code.n), axis=0) == 0
    per = make_repetition_1d(6, "periodic")
    wrap = PauliOp.from_letters(6, [(0, "X"), (5, "X")])
    assert per.bounding_extent(wrap, axis=0) == 2
    open_ = make_repetition_1d(6)
    assert open_.bounding_extent(wrap, axis=0) == 6


def test_support_extent_is_widest_axis_extent():
    for code in ZOO:
        for g in code.generators:
            side = max(code.bounding_extent(g, axis) for axis in range(code.lattice.D))
            assert code.support_extent(g.support()) == side
        assert code.support_extent([]) == 0


def test_center_locality_from_support_extent():
    from latstab.audit import _center_is_local

    assert _center_is_local(make_toric_2d(3))
    assert _center_is_local(make_steane_chain(3))
    # the Bacon-Shor center is generated by two-column X and two-row Z strings
    assert not _center_is_local(make_bacon_shor_2d(3))
