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
