"""Hypercubic lattice geometry: sites, regions, windows, shells and strips.

Sites are the vertices {0..L-1}^D; site indices are row-major with the last
coordinate fastest (index = ((c0*L + c1)*L + ...) + c_{D-1}), fixed so that
serialized operators are bit-exact reproducible.  Qubits living on edges or
faces are handled one level up (codes module) by anchoring each qubit cell to
its minimal-corner vertex; everything here acts on vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionError, PreconditionError, RegionError

OPEN = "open"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Lattice:
    """D-dimensional grid of linear size L with open or periodic boundary."""

    D: int
    L: int
    boundary: str = OPEN

    def __post_init__(self):
        if self.D < 1:
            raise DimensionError(f"D must be >= 1, got {self.D}")
        if self.L < 2:
            raise DimensionError(f"L must be >= 2, got {self.L}")
        if self.boundary not in (OPEN, PERIODIC):
            raise DimensionError(f"boundary must be open or periodic: {self.boundary!r}")

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    @property
    def n_sites(self) -> int:
        return self.L**self.D

    def check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.D:
            raise DimensionError(f"axis {axis} outside 0..{self.D - 1}")

    def site_index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.D:
            raise DimensionError(f"expected {self.D} coordinates, got {len(coords)}")
        idx = 0
        for c in coords:
            if not 0 <= c < self.L:
                raise RegionError(f"coordinate {c} outside 0..{self.L - 1}")
            idx = idx * self.L + c
        return idx

    def site_coords(self, index: int) -> Tuple[int, ...]:
        coords = []
        for _ in range(self.D):
            coords.append(index % self.L)
            index //= self.L
        return tuple(reversed(coords))

    def sites(self) -> Iterator[Tuple[int, ...]]:
        """Every site's coordinates, in index order (lexicographic)."""
        return product(range(self.L), repeat=self.D)


@dataclass(frozen=True, slots=True)
class Region:
    """Immutable subset of lattice sites, stored as an int bitset over site indices."""

    lattice: Lattice
    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.lattice.n_sites:
            raise RegionError("region mask has bits outside the lattice")

    @staticmethod
    def from_sites(lattice: Lattice, coords_list: Iterable[Sequence[int]]) -> "Region":
        mask = 0
        for coords in coords_list:
            mask |= 1 << lattice.site_index(coords)
        return Region(lattice, mask)

    @staticmethod
    def from_box(lattice: Lattice, lo: Sequence[int], hi: Sequence[int]) -> "Region":
        """Half-open axis-aligned box: lo[j] <= c_j < hi[j]."""
        if len(lo) != lattice.D or len(hi) != lattice.D:
            raise DimensionError("box bounds must have one entry per axis")
        ranges = [range(a, b) for a, b in zip(lo, hi)]
        return Region.from_sites(lattice, product(*ranges))

    @staticmethod
    def full(lattice: Lattice) -> "Region":
        return Region(lattice, (1 << lattice.n_sites) - 1)

    @staticmethod
    def empty(lattice: Lattice) -> "Region":
        return Region(lattice, 0)

    def union(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.lattice, self.mask | other.mask)

    def _check(self, other: "Region"):
        if other.lattice != self.lattice:
            raise RegionError("regions live on different lattices")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def site_coords(self) -> List[Tuple[int, ...]]:
        """The region's sites in index order, which is lexicographic."""
        bits = bin(self.mask)[:1:-1]  # bit i is character i
        return [u for u, b in zip(self.lattice.sites(), bits) if b == "1"]

    def __repr__(self):
        return f"Region({self.lattice.D}D L={self.lattice.L}, {self.size} sites)"


def min_window(L: int, periodic: bool, values: Iterable[int]) -> int:
    """Length of the shortest contiguous (cyclic if periodic) interval of
    {0..L-1} covering all values.  Empty input gives 0 by convention."""
    vs = sorted(set(values))
    if not vs:
        return 0
    if not periodic:
        return vs[-1] - vs[0] + 1
    if len(vs) == 1:
        return 1
    max_gap = 0
    for a, b in zip(vs, vs[1:]):
        max_gap = max(max_gap, b - a)
    max_gap = max(max_gap, vs[0] + L - vs[-1])
    return L - max_gap + 1


def boundary_shell(region: Region, r: int) -> Region:
    """Sites outside the region within l-infinity distance r of it: the
    region dilated by r along each axis in turn (cyclically if periodic),
    minus the region."""
    if r < 1:
        raise PreconditionError(f"shell radius must be >= 1, got {r}")
    lat = region.lattice
    L = lat.L

    def reach(c):
        if lat.periodic:
            return {(c + s) % L for s in range(-r, r + 1)}
        return range(max(c - r, 0), min(c + r + 1, L))

    ball = set(region.site_coords())
    for j in range(lat.D):
        ball = {u[:j] + (c,) + u[j + 1:] for u in ball for c in reach(u[j])}
    return Region(lat, Region.from_sites(lat, ball).mask & ~region.mask)


def axis_window_region(lattice: Lattice, axis: int, start: int, width: int) -> Region:
    """All sites whose axis coordinate lies in the (cyclic) window [start, start+width)."""
    lattice.check_axis(axis)
    cols = {(start + i) % lattice.L if lattice.periodic else start + i for i in range(width)}
    if not lattice.periodic and any(c >= lattice.L or c < 0 for c in cols):
        raise RegionError("window extends beyond an open boundary")
    ranges = [range(lattice.L)] * lattice.D
    ranges[axis] = cols
    return Region.from_sites(lattice, product(*ranges))


def axis_windows(lattice: Lattice, axis: int) -> Iterator[Tuple[int, int, Region]]:
    """Every axis window as (width, start, region), by width and then start:
    cyclic placements on a periodic lattice, in-bounds ones on an open one."""
    lattice.check_axis(axis)
    L = lattice.L
    for width in range(1, L + 1):
        starts = range(L) if lattice.periodic and width < L else range(L - width + 1)
        for start in starts:
            yield width, start, axis_window_region(lattice, axis, start, width)


def strip_widths(L: int, r: int) -> List[int]:
    """Widths of a strip cover of {0..L-1}: a widths of r-1 and b of r with
    a+b even, maximizing the number of width-r strips, wide strips first."""
    if r < 2:
        raise PreconditionError(f"strip partition needs r >= 2, got {r}")
    if L < 2 * (r - 1) ** 2:
        raise PreconditionError(
            f"strip partition needs L >= 2*(r-1)^2 = {2 * (r - 1) ** 2}, got L={L}"
        )
    for b in range(L // r, -1, -1):
        rem = L - b * r
        if rem % (r - 1):
            continue
        a = rem // (r - 1)
        if (a + b) % 2 == 0:
            return [r] * b + [r - 1] * a
    raise PreconditionError(f"no strip decomposition of L={L} with widths {r - 1}/{r}")


def strip_partition(lattice: Lattice, r: int, axis: int = 0) -> List[Region]:
    """Disjoint cover of the lattice by contiguous axis-aligned strips of
    width r or r-1, an even number of them, in order along the axis."""
    lattice.check_axis(axis)
    widths = strip_widths(lattice.L, r)
    strips = []
    start = 0
    for w in widths:
        strips.append(axis_window_region(lattice, axis, start, w))
        start += w
    return strips
