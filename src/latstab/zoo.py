"""Constructors for the built-in code families.

Edge/face codes use the doubled-coordinate cell convention (codes module): a
cell of the L^D grid is a tuple in {0..2L-1}^D (periodic) whose odd
coordinates mark the oriented axes, so vertices are all-even, edges have one
odd coordinate, faces two, and so on.  Boundary/coboundary walk one step along
an odd/even axis.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, Sequence, Tuple

from .codes import GAUGE, STABILIZER, CodeSpec
from .errors import ValidationError
from .geometry import Lattice, OPEN, PERIODIC
from .pauli import PauliOp

Cell = Tuple[int, ...]


def _cells_of_dim(D: int, L: int, dim: int) -> List[Cell]:
    cells = []
    for axes in combinations(range(D), dim):
        for v in product(range(L), repeat=D):
            cells.append(tuple(2 * v[j] + (1 if j in axes else 0) for j in range(D)))
    return sorted(cells)


def _torus_faces(cell: Cell, L: int, odd: bool) -> List[Cell]:
    """The cells one step from cell along its odd axes (its boundary) or
    along its even axes (its coboundary)."""
    return [cell[:j] + ((c + s) % (2 * L),) + cell[j + 1:]
            for j, c in enumerate(cell) if c % 2 == odd for s in (-1, 1)]


def _op_on_cells(n: int, index: Dict[Cell, int], cells: Sequence[Cell], letter: str) -> PauliOp:
    return PauliOp.from_letters(n, [(index[c], letter) for c in cells])


def _bonds(lattice: Lattice, axis: int) -> List[Tuple[int, int]]:
    """Nearest-neighbour site-index pairs (a, b), b one step from a along the
    axis, in order of a; on a periodic lattice the last site on the axis
    steps to the first."""
    step = lattice.L ** (lattice.D - 1 - axis)
    lap = lattice.L * step  # index distance of one lap around the axis
    return [(a, a - a % lap + (a + step) % lap) for a in range(lattice.n_sites)
            if lattice.periodic or a % lap < lap - step]


def make_repetition_1d(L: int, boundary: str = OPEN) -> CodeSpec:
    """Phase-flip-unprotected classical repetition code: ZZ couplings on a chain."""
    if L < 2:
        raise ValidationError(f"repetition code needs L >= 2, got {L}")
    lattice = Lattice(1, L, boundary)
    gens = [PauliOp.from_letters(L, [(a, "Z"), (b, "Z")]) for a, b in _bonds(lattice, 0)]
    return CodeSpec(
        name=f"repetition_1d(L={L},{boundary})",
        lattice=lattice,
        role=STABILIZER,
        declared_r=2,
        generators=gens,
    )


def _torus_code(name: str, D: int, L: int, qdim: int, xdim: int, zdim: int) -> CodeSpec:
    """CSS code on the periodic L^D grid: qubits on qdim-cells, X checks on
    xdim-cells and Z checks on zdim-cells, each check on its cell's boundary
    if above qdim and on its coboundary if below."""
    qcells = _cells_of_dim(D, L, qdim)
    index = {c: i for i, c in enumerate(qcells)}
    n = len(qcells)
    gens = [_op_on_cells(n, index, _torus_faces(c, L, dim > qdim), letter)
            for dim, letter in ((xdim, "X"), (zdim, "Z")) for c in _cells_of_dim(D, L, dim)]
    return CodeSpec(
        name=name,
        lattice=Lattice(D, L, PERIODIC),
        role=STABILIZER,
        declared_r=2,
        generators=gens,
        qubit_cells=qcells,
        cell_scale=2,
    )


def make_toric_2d(L: int) -> CodeSpec:
    """Toric code: qubits on edges of the periodic LxL grid, X stars on
    vertices, Z plaquettes on faces; n = 2L^2, k = 2."""
    if L < 2:
        raise ValidationError(f"toric code needs L >= 2, got {L}")
    return _torus_code(f"toric_2d(L={L})", 2, L, 1, 0, 2)


def make_generalized_toric(D: int, L: int) -> CodeSpec:
    """Hypercubic torus CSS family: qubits on floor(D/2)-cells, X generators on
    cells one dimension up, Z generators on cells one dimension down."""
    if not 2 <= D <= 4:
        raise ValidationError(f"generalized toric supports D in 2..4, got {D}")
    if L < 2:
        raise ValidationError(f"generalized toric needs L >= 2, got {L}")
    dq = D // 2
    return _torus_code(f"generalized_toric(D={D},L={L})", D, L, dq, dq + 1, dq - 1)


def make_surface_2d(L: int) -> CodeSpec:
    """Open-boundary surface code, distance L: checkerboard layout with
    n = L^2 + (L-1)^2 qubits and k = 1."""
    if L < 2:
        raise ValidationError(f"surface code needs L >= 2, got {L}")
    lattice = Lattice(2, L, OPEN)
    qcells = sorted(
        (a, b)
        for a in range(2 * L - 1)
        for b in range(2 * L - 1)
        if a % 2 == b % 2
    )
    index = {c: i for i, c in enumerate(qcells)}
    n = len(qcells)

    def neighbors(a, b):
        cand = [(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)]
        return [c for c in cand if c in index]

    gens = []
    for a in range(1, 2 * L - 1, 2):
        for b in range(0, 2 * L - 1, 2):
            gens.append(_op_on_cells(n, index, neighbors(a, b), "X"))
    for a in range(0, 2 * L - 1, 2):
        for b in range(1, 2 * L - 1, 2):
            gens.append(_op_on_cells(n, index, neighbors(a, b), "Z"))
    return CodeSpec(
        name=f"surface_2d(L={L})",
        lattice=lattice,
        role=STABILIZER,
        declared_r=2,
        generators=gens,
        qubit_cells=qcells,
        cell_scale=2,
    )


def make_bacon_shor_2d(L: int) -> CodeSpec:
    """2D Bacon-Shor gauge group: XX along axis 0 and ZZ along axis 1 on the
    open LxL vertex grid; 2L(L-1) two-qubit generators."""
    if L < 2:
        raise ValidationError(f"Bacon-Shor needs L >= 2, got {L}")
    lattice = Lattice(2, L, OPEN)
    gens = [PauliOp.from_letters(L * L, [(a, letter), (b, letter)])
            for axis, letter in ((0, "X"), (1, "Z")) for a, b in _bonds(lattice, axis)]
    return CodeSpec(
        name=f"bacon_shor_2d(L={L})",
        lattice=lattice,
        role=GAUGE,
        declared_r=2,
        generators=gens,
    )


def make_heisenberg_gauge(D: int, L: int) -> CodeSpec:
    """Gauge group generated by nearest-neighbor XX, YY and ZZ on an open grid.

    Only odd L is meaningful: X_all and Z_all then commute with the gauge
    group without being generated by it, giving one (distance-1) logical qubit
    with trivial stabilizer center.
    """
    if D not in (1, 2):
        raise ValidationError(f"heisenberg gauge supports D in {{1,2}}, got {D}")
    if L % 2 == 0:
        raise ValidationError(
            f"heisenberg gauge needs odd L (even L loses the parity argument that "
            f"keeps X_all and Z_all outside the gauge group), got {L}"
        )
    lattice = Lattice(D, L, OPEN)
    bonds = sorted(pair for axis in range(D) for pair in _bonds(lattice, axis))
    gens = [PauliOp.from_letters(lattice.n_sites, [(a, letter), (b, letter)])
            for a, b in bonds for letter in ("X", "Y", "Z")]
    return CodeSpec(
        name=f"heisenberg_gauge(D={D},L={L})",
        lattice=lattice,
        role=GAUGE,
        declared_r=2,
        generators=gens,
    )


STEANE_X_SETS = ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6))


def make_steane_chain(n_blocks: int) -> CodeSpec:
    """Chain of [[7,1,3]] blocks with all block logicals gauged out except the
    collective pair prod X-bar_i, prod Z-bar_i.

    Block logicals are the standard X-bar = X^7, Z-bar = Z^7 transversal
    representatives; consecutive-pair products X-bar_i X-bar_{i+1} and
    Z-bar_i Z-bar_{i+1} generate the gauge logical subspace.  n_blocks must be
    odd so the collective pair stays outside the gauge group.
    """
    if n_blocks < 1 or n_blocks % 2 == 0:
        raise ValidationError(
            f"steane chain needs odd n_blocks >= 1 (even counts put the collective "
            f"logicals inside the gauge group), got {n_blocks}"
        )
    n = 7 * n_blocks
    lattice = Lattice(1, n, OPEN)
    gens = []
    for b in range(n_blocks):
        off = 7 * b
        for s in STEANE_X_SETS:
            gens.append(PauliOp.from_letters(n, [(off + q, "X") for q in s]))
        for s in STEANE_X_SETS:
            gens.append(PauliOp.from_letters(n, [(off + q, "Z") for q in s]))
    for b in range(n_blocks - 1):
        qs = list(range(7 * b, 7 * b + 14))
        gens.append(PauliOp.from_letters(n, [(q, "X") for q in qs]))
        gens.append(PauliOp.from_letters(n, [(q, "Z") for q in qs]))
    return CodeSpec(
        name=f"steane_chain(n_blocks={n_blocks})",
        lattice=lattice,
        role=GAUGE,
        declared_r=14 if n_blocks > 1 else 7,
        generators=gens,
    )


FAMILIES = {
    "repetition": lambda L, boundary=OPEN: make_repetition_1d(L, boundary),
    "toric": lambda L: make_toric_2d(L),
    "surface": lambda L: make_surface_2d(L),
    "generalized_toric": lambda L, D=3: make_generalized_toric(D, L),
    "bacon_shor": lambda L: make_bacon_shor_2d(L),
    "heisenberg": lambda L, D=1: make_heisenberg_gauge(D, L),
    "steane_chain": lambda L: make_steane_chain(L),
}
