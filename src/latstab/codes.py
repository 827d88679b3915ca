"""Code specifications: lattice-embedded generator lists plus text round-trip.

A CodeSpec owns the declared generating set exactly as given (overcomplete
sets are preserved: energy accounting counts declared terms; rank reduction
happens only in the group machinery).  Qubits live on lattice cells.  Vertex
codes use cell_scale=1 and the cell coordinate is the site itself; edge/face
codes use cell_scale=2 with doubled coordinates (a cell with base vertex v and
odd coordinates on its oriented axes), and every geometric predicate acts on
the anchor vertex cell//2 (the minimal corner).

Text form of an operator: whitespace-separated factors like X(c1,..,cD) with
integer cell coordinates; the empty string is the identity.  Code files:

    lattice D=2 L=3 boundary=periodic
    name=toric(L=3)
    role=stabilizer
    r=2
    scale=2
    qubits:
    (1,0)
    ...
    X(1,0) X(0,1) Z(1,2)
    ...

The qubits block (and scale line) are omitted for vertex codes whose qubits
are all lattice sites in row-major order.  Parsing and printing round-trip
bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CodeFormatError, DimensionError, LocalityError, RegionError, ValidationError
from .geometry import Lattice, Region, min_window
from .pauli import PauliOp

STABILIZER = "stabilizer"
GAUGE = "gauge"

_FACTOR_RE = re.compile(r"([IXYZ])\(([-0-9,\s]*)\)")


@dataclass(frozen=True, slots=True)
class CodeSpec:
    """Lattice geometry + declared generator list + locality metadata.

    Immutable: the seven constructor fields are its identity (equality and
    hash), and the anchor tables are derived from them once."""

    name: str
    lattice: Lattice
    role: str
    declared_r: int
    generators: Sequence[PauliOp]
    qubit_cells: Optional[Sequence[Tuple[int, ...]]] = None
    cell_scale: int = 1
    _cell_index: Dict[Tuple[int, ...], int] = field(init=False, compare=False, repr=False)
    _anchors: Tuple[Tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _anchor_site: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.role not in (STABILIZER, GAUGE):
            raise ValidationError(f"role must be stabilizer or gauge: {self.role!r}")
        if self.declared_r < 1:
            raise ValidationError(f"r must be a positive integer: {self.declared_r}")
        if self.cell_scale not in (1, 2):
            raise ValidationError(f"cell_scale must be 1 or 2: {self.cell_scale}")
        lattice, scale = self.lattice, self.cell_scale
        cells = self.qubit_cells
        if cells is None:
            if scale != 1:
                raise ValidationError("implicit qubit cells require cell_scale=1")
            cells = lattice.sites()
        cells = tuple(tuple(c) for c in cells)
        cell_index = {}
        anchors = []
        anchor_site = []
        hi = scale * lattice.L if lattice.periodic else scale * (lattice.L - 1) + 1
        for q, cell in enumerate(cells):
            if len(cell) != lattice.D:
                raise ValidationError(f"qubit {q}: cell arity {len(cell)} != D={lattice.D}")
            if any(not 0 <= c < hi for c in cell):
                raise ValidationError(f"qubit {q}: cell {cell} outside the lattice")
            if cell in cell_index:
                raise ValidationError(f"duplicate qubit cell {cell}")
            cell_index[cell] = q
            a = tuple(c // scale for c in cell)
            anchors.append(a)
            anchor_site.append(lattice.site_index(a))
        # frozen: the normalized fields and the tables are set once, here
        object.__setattr__(self, "qubit_cells", cells)
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "_cell_index", cell_index)
        object.__setattr__(self, "_anchors", tuple(anchors))
        object.__setattr__(self, "_anchor_site", tuple(anchor_site))
        self.validate()

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.qubit_cells)

    def anchor(self, qubit: int) -> Tuple[int, ...]:
        """Minimal-corner vertex of the qubit's cell."""
        return self._anchors[qubit]

    def qubit_at(self, cell: Sequence[int]) -> int:
        cell = tuple(cell)
        if cell not in self._cell_index:
            raise ValidationError(f"no qubit at cell {cell}")
        return self._cell_index[cell]

    def qubit_mask_in(self, region: Region) -> int:
        """Bitset of qubits whose anchor vertex lies in the region."""
        if region.lattice != self.lattice:
            raise RegionError("region lattice differs from the code lattice")
        mask = 0
        for q, site in enumerate(self._anchor_site):
            if region.contains_index(site):
                mask |= 1 << q
        return mask

    def bounding_extent(self, op: PauliOp, axis: int) -> int:
        """Minimal contiguous (cyclic if periodic) axis window covering the
        support's anchor vertices; 0 for the identity by convention."""
        self.lattice.check_axis(axis)
        values = [self._anchors[q][axis] for q in op.support()]
        return min_window(self.lattice.L, self.lattice.periodic, values)

    # -- validation --------------------------------------------------------

    def validate(self):
        for i, g in enumerate(self.generators):
            if g.n != self.n:
                raise ValidationError(f"generator {i} acts on {g.n} qubits, code has {self.n}")
            if g.is_identity:
                raise ValidationError(f"generator {i} is the identity")
        if self.role == STABILIZER:
            for i in range(len(self.generators)):
                for j in range(i + 1, len(self.generators)):
                    if not self.generators[i].commutes(self.generators[j]):
                        raise ValidationError(
                            f"stabilizer generators {i} and {j} anticommute: "
                            f"{self.format_op(self.generators[i])!r} vs "
                            f"{self.format_op(self.generators[j])!r}"
                        )
        self.validate_locality()

    def support_extent(self, qubits: Sequence[int]) -> int:
        """Side of the minimal axis-aligned (cyclic if periodic) anchor
        hypercube covering the qubits; 0 for none."""
        lat = self.lattice
        return max(min_window(lat.L, lat.periodic, [self._anchors[q][axis] for q in qubits])
                   for axis in range(lat.D))

    def validate_locality(self) -> Tuple[int, int]:
        """(r_actual, max_participation); raises when a generator exceeds declared_r."""
        r_actual = 0
        worst = None
        for i, g in enumerate(self.generators):
            side = self.support_extent(g.support())
            if side > r_actual:
                r_actual, worst = side, i
        participation = [0] * self.n
        for g in self.generators:
            for q in g.support():
                participation[q] += 1
        max_participation = max(participation, default=0)
        if r_actual > self.declared_r:
            raise LocalityError(
                f"generator {worst} ({self.format_op(self.generators[worst])!r}) needs a "
                f"hypercube of side {r_actual} > declared r={self.declared_r}",
                generator_index=worst,
                actual_r=r_actual,
            )
        return r_actual, max_participation

    # -- operator text form --------------------------------------------------

    def format_op(self, op: PauliOp) -> str:
        if op.n != self.n:
            raise DimensionError(f"operator acts on {op.n} qubits, code has {self.n}")
        parts = []
        for q, letter in op.letters():
            coords = ",".join(str(c) for c in self.qubit_cells[q])
            parts.append(f"{letter}({coords})")
        return " ".join(parts)

    def parse_op(self, text: str) -> PauliOp:
        text = text.strip()
        if not text:
            return PauliOp.identity(self.n)
        x = z = 0
        for m in _FACTOR_RE.finditer(text):
            letter = m.group(1)
            try:
                cell = tuple(int(t) for t in m.group(2).replace(" ", "").split(","))
            except ValueError:
                raise CodeFormatError(f"bad coordinates in factor {m.group(0)!r}")
            q = self.qubit_at(cell)
            if letter in ("X", "Y"):
                x ^= 1 << q
            if letter in ("Z", "Y"):
                z ^= 1 << q
        stripped = _FACTOR_RE.sub("", text).strip()
        if stripped:
            raise CodeFormatError(f"unparsed operator text {stripped!r}")
        return PauliOp(self.n, x, z)

    def __repr__(self):
        return (
            f"CodeSpec({self.name!r}, {self.lattice.D}D L={self.lattice.L} "
            f"{self.lattice.boundary}, role={self.role}, n={self.n}, "
            f"m={len(self.generators)})"
        )


def _default_cells(lattice: Lattice) -> Tuple[Tuple[int, ...], ...]:
    return tuple(lattice.sites())


def serialize_code(code: CodeSpec) -> str:
    """Canonical text form; parse_code(serialize_code(c)) reproduces c."""
    lines = [
        f"lattice D={code.lattice.D} L={code.lattice.L} boundary={code.lattice.boundary}",
        f"name={code.name}",
        f"role={code.role}",
        f"r={code.declared_r}",
    ]
    implicit = code.cell_scale == 1 and code.qubit_cells == _default_cells(code.lattice)
    if not implicit:
        lines.append(f"scale={code.cell_scale}")
        lines.append("qubits:")
        for cell in code.qubit_cells:
            lines.append("(" + ",".join(str(c) for c in cell) + ")")
    for g in code.generators:
        lines.append(code.format_op(g))
    return "\n".join(lines) + "\n"


def _parse_int(line: str, key: str, lineno: int) -> int:
    try:
        return int(line[len(key):])
    except ValueError:
        raise CodeFormatError(f"bad integer in {line!r}", lineno)


def parse_code(text: str) -> CodeSpec:
    lattice = None
    name = ""
    role = None
    declared_r = None
    scale = 1
    cells: Optional[List[Tuple[int, ...]]] = None
    gen_lines: List[Tuple[int, str]] = []
    in_qubits = False
    header_lines = {}  # header key -> line number of its one occurrence
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = re.match(r"lattice|(?:name|role|r|scale)=|qubits:$", line)
        if header:
            first = header_lines.setdefault(header.group(), lineno)
            if first != lineno:
                raise CodeFormatError(
                    f"repeated {header.group()!r} header line (first on line {first})", lineno)
        if line.startswith("lattice"):
            m = re.fullmatch(r"lattice\s+D=(\d+)\s+L=(\d+)\s+boundary=(open|periodic)", line)
            if not m:
                raise CodeFormatError(f"bad lattice header {line!r}", lineno)
            lattice = Lattice(int(m.group(1)), int(m.group(2)), m.group(3))
        elif line.startswith("name="):
            name = line[len("name="):]
        elif line.startswith("role="):
            role = line[len("role="):]
        elif line.startswith("r="):
            declared_r = _parse_int(line, "r=", lineno)
        elif line.startswith("scale="):
            scale = _parse_int(line, "scale=", lineno)
        elif line == "qubits:":
            in_qubits = True
            cells = []
        elif in_qubits and line.startswith("("):
            if not re.fullmatch(r"\((-?\d+)(,-?\d+)*\)", line):
                raise CodeFormatError(f"bad qubit cell {line!r}", lineno)
            cells.append(tuple(int(t) for t in line[1:-1].split(",")))
        else:
            in_qubits = False
            gen_lines.append((lineno, line))
    if lattice is None:
        raise CodeFormatError("missing lattice header")
    if role is None:
        raise CodeFormatError("missing role= line")
    if declared_r is None:
        raise CodeFormatError("missing r= line")
    try:
        code = CodeSpec(
            name=name,
            lattice=lattice,
            role=role,
            declared_r=declared_r,
            generators=(),
            qubit_cells=cells,
            cell_scale=scale,
        )
    except ValidationError as e:
        raise CodeFormatError(str(e))
    generators = []
    for lineno, line in gen_lines:
        try:
            generators.append(code.parse_op(line))
        except (CodeFormatError, ValidationError) as e:
            raise CodeFormatError(str(e), lineno)
    return CodeSpec(
        name=name,
        lattice=lattice,
        role=role,
        declared_r=declared_r,
        generators=generators,
        qubit_cells=cells,
        cell_scale=scale,
    )
