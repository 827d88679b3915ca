import random

import pytest

from latstab.errors import PreconditionError
from latstab.geometry import (
    Lattice,
    Region,
    axis_window_region,
    axis_windows,
    boundary_shell,
    min_window,
    strip_partition,
    strip_widths,
)
from latstab.zoo import make_bacon_shor_2d, make_generalized_toric, make_surface_2d, make_toric_2d


def test_site_indexing_roundtrip():
    lat = Lattice(3, 4)
    for i in range(lat.n_sites):
        assert lat.site_index(lat.site_coords(i)) == i


def test_min_window_open():
    assert min_window(8, False, []) == 0
    assert min_window(8, False, [3]) == 1
    assert min_window(8, False, [0, 7]) == 8


def test_min_window_periodic_wraps():
    assert min_window(8, True, [0, 7]) == 2
    assert min_window(8, True, [1, 2, 3]) == 3
    assert min_window(8, True, [0, 4]) == 5


def test_boundary_shell_interior_site():
    lat = Lattice(2, 5)
    m = Region.from_sites(lat, [(2, 2)])
    shell = boundary_shell(m, 1)
    assert shell.size == 8
    assert (shell.mask & m.mask) == 0


def test_boundary_shell_full_and_half():
    lat = Lattice(1, 10)
    assert boundary_shell(Region.full(lat), 1).size == 0
    left = Region.from_box(lat, (0,), (5,))
    shell = boundary_shell(left, 2)
    assert shell.site_coords() == [(5,), (6,)]


def test_boundary_shell_periodic():
    lat = Lattice(1, 10, "periodic")
    left = Region.from_box(lat, (0,), (5,))
    shell = boundary_shell(left, 2)
    # wraps around both ends
    assert shell.site_coords() == [(5,), (6,), (8,), (9,)]


def test_region_algebra():
    lat = Lattice(2, 3)
    a = Region.from_box(lat, (0, 0), (2, 2))
    b = Region.from_box(lat, (2, 0), (3, 3)).union(Region.from_box(lat, (0, 2), (2, 3)))
    assert a.union(b) == Region.full(lat)
    assert (a.mask & b.mask) == 0


def test_strip_widths_examples():
    assert strip_widths(8, 3) == [2, 2, 2, 2]
    # maximize the number of width-r strips (design decision)
    assert strip_widths(10, 2) == [2, 2, 2, 2, 1, 1]
    assert strip_widths(2, 2) == [1, 1]


def test_strip_widths_properties():
    for r in (2, 3, 4):
        for L in range(2 * (r - 1) ** 2, 40):
            ws = strip_widths(L, r)
            assert sum(ws) == L
            assert set(ws) <= {r - 1, r}
            assert len(ws) % 2 == 0


def test_strip_widths_precondition():
    with pytest.raises(PreconditionError):
        strip_widths(7, 3)  # needs L >= 8


def test_strip_partition_covers_disjointly():
    lat = Lattice(2, 8, "periodic")
    strips = strip_partition(lat, 3, axis=0)
    total = 0
    acc = Region.empty(lat)
    for s in strips:
        assert (acc.mask & s.mask) == 0
        acc = acc.union(s)
        total += s.size
    assert acc == Region.full(lat)
    assert total == lat.n_sites


def test_axis_window_wraps():
    lat = Lattice(2, 4, "periodic")
    w = axis_window_region(lat, 0, 3, 2)  # columns 3 and 0
    cols = {c[0] for c in w.site_coords()}
    assert cols == {0, 3}


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_axis_windows_order(boundary):
    lat = Lattice(2, 3, boundary)
    got = [(w, s) for w, s, _ in axis_windows(lat, 1)]
    starts = {1: 3, 2: 3, 3: 1} if boundary == "periodic" else {1: 3, 2: 2, 3: 1}
    assert got == [(w, s) for w in (1, 2, 3) for s in range(starts[w])]
    for w, s, region in axis_windows(lat, 1):
        assert region == axis_window_region(lat, 1, s, w)


# -- the lattice layer against direct per-site definitions --------------------
def _axis_distance_oracle(lat, a, b):
    d = abs(a - b)
    return min(d, lat.L - d) if lat.periodic else d


def _shell_oracle(region, r):
    """Every outside site tested against every inside site, l-infinity metric."""
    lat = region.lattice
    inside = [lat.site_coords(i) for i in range(lat.n_sites) if region.mask >> i & 1]
    mask = 0
    for i in range(lat.n_sites):
        if region.mask >> i & 1:
            continue
        u = lat.site_coords(i)
        if any(max(_axis_distance_oracle(lat, a, b) for a, b in zip(u, v)) <= r
               for v in inside):
            mask |= 1 << i
    return mask


def _window_oracle(lat, axis, start, width):
    """Every site's decoded coordinate tested against the window's columns."""
    cols = {(start + i) % lat.L if lat.periodic else start + i for i in range(width)}
    return sum(1 << i for i in range(lat.n_sites) if lat.site_coords(i)[axis] in cols)


def _coords_oracle(region):
    lat = region.lattice
    return sorted(lat.site_coords(i) for i in range(lat.n_sites) if region.mask >> i & 1)


def _lattices():
    for D, Ls in ((1, range(2, 7)), (2, range(2, 7)), (3, range(2, 5))):
        for L in Ls:
            for boundary in ("open", "periodic"):
                yield Lattice(D, L, boundary)


def _random_regions(lat, rng, count=20):
    yield Region.empty(lat)
    yield Region.full(lat)
    for _ in range(count):
        density = rng.choice((0.05, 0.2, 0.5, 0.9))
        yield Region(lat, sum(1 << i for i in range(lat.n_sites) if rng.random() < density))


def test_shell_windows_and_coords_match_the_per_site_definitions():
    rng = random.Random(20081983)
    for lat in _lattices():
        for region in _random_regions(lat, rng):
            assert region.site_coords() == _coords_oracle(region)
            for r in (1, 2, 3):
                assert boundary_shell(region, r).mask == _shell_oracle(region, r), (lat, r)
        for axis in range(lat.D):
            for width, start, window in axis_windows(lat, axis):
                assert window.mask == _window_oracle(lat, axis, start, width)


def _qubit_mask_oracle(code, region):
    """Each qubit's anchor vertex tested against the region, one qubit at a time."""
    lat = code.lattice
    return sum(1 << q for q in range(code.n)
               if region.mask >> lat.site_index(code.anchor(q)) & 1)


@pytest.mark.parametrize("code", [
    make_toric_2d(3), make_toric_2d(4), make_surface_2d(3), make_surface_2d(4),
    make_bacon_shor_2d(3), make_bacon_shor_2d(4), make_generalized_toric(3, 2),
    make_generalized_toric(3, 3),
], ids=lambda c: c.name)
def test_qubit_mask_in_matches_the_per_qubit_anchor_scan(code):
    rng = random.Random(code.name)
    for region in _random_regions(code.lattice, rng):
        assert code.qubit_mask_in(region) == _qubit_mask_oracle(code, region)

