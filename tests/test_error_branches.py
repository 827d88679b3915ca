"""Each malformed input below gets its typed LatstabError, one case per check."""

import pytest

from latstab import (
    CodeSpec,
    Lattice,
    PauliOp,
    Region,
    clean_stabilizer,
    make_repetition_1d,
    span_basis,
)
from latstab.audit import audit_family
from latstab.errors import (
    DimensionError,
    LatstabError,
    PreconditionError,
    RegionError,
    ValidationError,
)
from latstab.geometry import axis_window_region, boundary_shell, strip_widths

LAT = Lattice(2, 3)
OTHER = Lattice(2, 4)
REP = make_repetition_1d(3)
SITE0 = Region.from_box(REP.lattice, (0,), (1,))

CASES = [
    ("lattice_boundary", lambda: Lattice(2, 3, "x"), DimensionError, "boundary"),
    ("site_index_arity", lambda: LAT.site_index((0,)), DimensionError, "expected 2"),
    ("site_index_range", lambda: LAT.site_index((0, 3)), RegionError, "outside"),
    ("region_mask", lambda: Region(LAT, 1 << LAT.n_sites), RegionError, "outside the lattice"),
    ("box_arity", lambda: Region.from_box(LAT, (0,), (1,)), DimensionError, "one entry per axis"),
    ("union_lattices", lambda: Region.full(LAT).union(Region.full(OTHER)), RegionError,
     "different lattices"),
    ("qubit_mask_lattice", lambda: REP.qubit_mask_in(Region.full(LAT)), RegionError,
     "differs from the code lattice"),
    ("shell_radius", lambda: boundary_shell(Region.full(LAT), 0), PreconditionError, "radius"),
    ("window_open_boundary", lambda: axis_window_region(LAT, 0, 2, 2), RegionError,
     "beyond an open boundary"),
    ("strip_r", lambda: strip_widths(8, 1), PreconditionError, "r >= 2"),
    ("generator_n", lambda: CodeSpec("bad", REP.lattice, "stabilizer", 2, [PauliOp(2, 1)]),
     ValidationError, "acts on 2 qubits"),
    ("format_op_n", lambda: REP.format_op(PauliOp(2, 1)), DimensionError, "code has 3"),
    ("span_basis_n", lambda: span_basis(3, [PauliOp(2, 1)]), ValidationError, "n=3 group"),
    ("audit_family", lambda: audit_family("nope", [3]), LatstabError, "unknown family"),
    ("letter_qubit", lambda: PauliOp.from_letters(2, [(2, "X")]), DimensionError,
     "outside 0..1"),
    ("letter_unknown", lambda: PauliOp.from_letters(2, [(0, "Q")]), ValidationError,
     "unknown Pauli letter"),
    # operators on another qubit count: off the region, anticommuting, too wide
    ("clean_n_off_region", lambda: clean_stabilizer(REP, PauliOp(2, 0, 0b10), SITE0),
     DimensionError, "acts on 2 qubits, code has 3"),
    ("clean_n_fewer", lambda: clean_stabilizer(REP, PauliOp(2, 1), SITE0), DimensionError,
     "acts on 2 qubits, code has 3"),
    ("clean_n_more", lambda: clean_stabilizer(REP, PauliOp(8, 1 << 7), SITE0), DimensionError,
     "acts on 8 qubits, code has 3"),
]


@pytest.mark.parametrize("call, error, match", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_raises_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
