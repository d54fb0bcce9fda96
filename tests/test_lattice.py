from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau.lattice import (
    Cell,
    CubicalComplex,
    GridSpec,
    HalfLattice,
    box_cells,
    build_skeleton,
    check_box_cells,
    cell_measure,
    complex_from_text,
    complex_to_text,
    connected_components,
)

from conftest import boundary_incidences, euler_characteristic, face_closure


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, ())
    with pytest.raises(ValueError):
        GridSpec(7, 0, tuple((0, 1) for _ in range(7)))
    with pytest.raises(ValueError):
        GridSpec(2, 0, ((0, 1),))
    with pytest.raises(ValueError):
        GridSpec(2, 0, ((0, 0), (0, 1)))
    g = GridSpec(3, 2, ((0, 2), (0, 2), (0, 2)))
    assert g.side == Fraction(1, 4)


@pytest.mark.parametrize("k", [-1, 65, 100_000])
def test_grid_level_is_bounded(k):
    """Weights are integers over 2**(k m), so the level k lies in 0..64."""
    assert GridSpec(2, 64, ((0, 1), (0, 1))).side == Fraction(1, 2**64)
    with pytest.raises(ValueError, match=f"grid.k must lie in 0..64, got {k}"):
        GridSpec(2, k, ((0, 1), (0, 1)))


def test_cell_basics():
    c = Cell((1, 2, 3), 0b101)
    assert c.dim == 2
    assert c.axes() == [0, 2]
    assert len(c.faces()) == 4
    assert len(c.corners()) == 4
    assert c.barycenter() == (Fraction(3, 2), Fraction(2), Fraction(7, 2))


@given(
    n=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_faces_of_faces_pair_up(n, data):
    """Every (d-2)-face of a cell is shared by exactly two (d-1)-faces."""
    mask = data.draw(st.integers(1, (1 << n) - 1))
    anchor = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
    c = Cell(anchor, mask)
    if c.dim < 2:
        return
    counts = {}
    for f in c.faces():
        for g in f.faces():
            counts[g] = counts.get(g, 0) + 1
    assert set(counts.values()) == {2}


CELLS = st.integers(1, 6).flatmap(lambda n: st.builds(
    Cell, st.tuples(*[st.integers(-4, 4)] * n), st.integers(0, (1 << n) - 1)))


@given(cells=st.lists(CELLS, min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_cell_is_its_tuple(cells):
    """Hash, order and repr of a cell are those of (anchor, free_axes), it
    compares equal to that plain tuple, and its fields are read-only."""
    for c in cells:
        assert hash(c) == hash((c.anchor, c.free_axes))
        assert c == (c.anchor, c.free_axes)
        assert repr(c) == f"Cell(anchor={c.anchor!r}, free_axes={c.free_axes!r})"
        for field in ("anchor", "free_axes"):
            with pytest.raises(AttributeError):
                setattr(c, field, getattr(c, field))
    assert sorted(cells) == sorted(cells, key=lambda c: (c.anchor, c.free_axes))


def test_cube_faces_and_incidences():
    """The six faces of the unit 3-cube and their signs, listed by hand."""
    cube = Cell((0, 0, 0), 0b111)
    signed = [
        (Cell((1, 0, 0), 0b110), 1), (Cell((0, 0, 0), 0b110), -1),
        (Cell((0, 1, 0), 0b101), -1), (Cell((0, 0, 0), 0b101), 1),
        (Cell((0, 0, 1), 0b011), 1), (Cell((0, 0, 0), 0b011), -1),
    ]
    assert boundary_incidences(cube) == signed
    assert cube.faces() == {f for f, _ in signed}
    square = Cell((1, 2, 3), 0b101)
    assert boundary_incidences(square) == [
        (Cell((2, 2, 3), 0b100), 1), (Cell((1, 2, 3), 0b100), -1),
        (Cell((1, 2, 4), 0b001), -1), (Cell((1, 2, 3), 0b001), 1),
    ]
    assert square.corners() == [(1, 2, 3), (1, 2, 4), (2, 2, 3), (2, 2, 4)]


BOXES = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.integers(-3, 2), st.integers(1, 3 if n <= 3 else 2)).map(
        lambda lw: (lw[0], lw[0] + lw[1])), min_size=n, max_size=n))


@given(box=BOXES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_half_lattice_ids(box, data):
    """Half-lattice ids number a box's cells of every dimension one to one
    onto 0..prod(2 w_a + 1) - 1, as the defining sum says; each face of a
    cell lies at id +- strides[a], and the face table gives
    `boundary_incidences`' faces and signs in its order."""
    n = len(box)
    H = HalfLattice(box)
    widths = [2 * (hi - lo) + 1 for lo, hi in box]
    strides = [1]
    for w in widths[:-1]:
        strides.append(strides[-1] * w)
    assert H.strides == strides
    cells = [c for d in range(n + 1) for c in box_cells(box, d)]
    ids = [H.id(c) for c in cells]
    assert ids == [
        sum((2 * (x - lo) + (c.free_axes >> a & 1)) * s
            for a, (x, (lo, _), s) in enumerate(zip(c.anchor, box, strides)))
        for c in cells
    ]
    total = 1
    for w in widths:
        total *= w
    assert sorted(ids) == list(range(total))
    d = data.draw(st.integers(1, n))
    for c in box_cells(box, d):
        at = H.id(c)
        assert {H.id(f) for f in c.faces()} == {
            at + sign * strides[a] for a in c.axes() for sign in (1, -1)}
        assert [(at + offset, sign) for offset, sign in H.faces[c.free_axes]] == [
            (H.id(f), sign) for f, sign in boundary_incidences(c)]


def test_complex_closure_and_dims():
    grid = GridSpec(2, 0, ((0, 2), (0, 2)))
    square = Cell((0, 0), 0b11)
    X = CubicalComplex(grid, [square])
    assert len(X.cells_of_dim(2)) == 1
    assert len(X.cells_of_dim(1)) == 4
    assert len(X.cells_of_dim(0)) == 4
    assert euler_characteristic(X) == 1


def test_skeleton_counts():
    grid = GridSpec(2, 0, ((0, 2), (0, 2)))
    skel = build_skeleton(grid, 2)
    assert len(skel.cells_of_dim(0)) == 9
    assert len(skel.cells_of_dim(1)) == 12
    assert len(skel.cells_of_dim(2)) == 4
    with pytest.raises(ValueError):
        build_skeleton(grid, 3)


def test_cell_measure_dyadic():
    grid = GridSpec(2, 1, ((0, 2), (0, 2)))
    assert cell_measure(Cell((0, 0), 0b11), grid) == Fraction(1, 4)
    assert cell_measure(Cell((0, 0), 0b1), grid) == Fraction(1, 2)
    assert cell_measure(Cell((0, 0), 0), grid) == 1


def test_connected_components():
    grid = GridSpec(2, 0, ((0, 5), (0, 5)))
    X = CubicalComplex(grid, [Cell((0, 0), 0b11), Cell((3, 3), 0b11)])
    comps = connected_components(X)
    assert len(comps) == 2
    assert sum(len(c.cells_of_dim(2)) for c in comps) == 2


SMALL_BOXES = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.integers(-2, 1), st.integers(1, 3)).map(
        lambda lw: (lw[0], lw[0] + lw[1])), min_size=n, max_size=n))


@given(box=SMALL_BOXES, data=st.data())
@settings(max_examples=100, deadline=None)
def test_closure_and_box_check(box, data):
    """`CubicalComplex(grid, cells)` is the definitional face closure of the
    cells, and it raises exactly when a given cell leaves the box: cells of
    the box, and at most two cells of the box widened by one on every side."""
    n = len(box)
    grid = GridSpec(n, 0, tuple(box))
    everything = [c for d in range(n + 1) for c in box_cells(box, d)]
    near = st.builds(Cell, st.tuples(*(st.integers(lo - 1, hi) for lo, hi in box)),
                     st.integers(0, (1 << n) - 1))
    cells = data.draw(st.lists(st.sampled_from(everything), max_size=8))
    cells += data.draw(st.lists(near, max_size=2))
    inside = all(lo <= x and x + (c.free_axes >> a & 1) <= hi
                 for c in cells for a, (x, (lo, hi)) in enumerate(zip(c.anchor, box)))
    if not inside:
        with pytest.raises(ValueError, match="outside bounding box"):
            CubicalComplex(grid, cells)
        return
    X = CubicalComplex(grid, cells)
    closure = face_closure(cells)
    assert X.cells == closure
    for d in range(n + 1):
        assert X.cells_of_dim(d) == {c for c in closure if c.dim == d}


@given(box=SMALL_BOXES, data=st.data())
@settings(max_examples=100, deadline=None)
def test_connected_components_partition(box, data):
    """The components of a random complex partition X into face-closed
    pieces that share no face, and each piece is connected through the
    face relation."""
    grid = GridSpec(len(box), 0, tuple(box))
    everything = [c for d in range(len(box) + 1) for c in box_cells(box, d)]
    X = CubicalComplex(grid, data.draw(st.lists(st.sampled_from(everything), max_size=10)))
    comps = connected_components(X)
    assert sum(len(comp) for comp in comps) == len(X)
    assert set().union(*(comp.cells for comp in comps)) == X.cells
    owner = {c: i for i, comp in enumerate(comps) for c in comp.cells}
    for i, comp in enumerate(comps):
        assert face_closure(comp.cells) == comp.cells
        assert all(owner[f] == i for c in comp.cells for f in c.faces())
        neighbours = {c: set() for c in comp.cells}
        for c in comp.cells:
            for f in c.faces():
                neighbours[c].add(f)
                neighbours[f].add(c)
        start = min(comp.cells)
        seen, queue = {start}, [start]
        while queue:
            for c in neighbours[queue.pop()] - seen:
                seen.add(c)
                queue.append(c)
        assert seen == comp.cells


def test_text_roundtrip():
    grid = GridSpec(3, 1, ((0, 2), (-1, 3), (0, 1)))
    X = CubicalComplex(grid, [Cell((0, 0, 0), 0b011), Cell((1, 2, 0), 0b001)])
    Y = complex_from_text(complex_to_text(X))
    assert X == Y
    with pytest.raises(ValueError):
        complex_from_text("")
    with pytest.raises(ValueError):
        complex_from_text("2 0 0 1\n")  # malformed header


def test_cell_outside_box_rejected():
    grid = GridSpec(2, 0, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        CubicalComplex(grid, [Cell((2, 0), 0b11)])


def test_export_off(tmp_path):
    from plateau.lattice import export_off

    grid = GridSpec(3, 0, ((0, 2), (0, 2), (0, 2)))
    X = CubicalComplex(grid, [Cell((0, 0, 0), 0b011), Cell((0, 1, 1), 0b110)])
    path = tmp_path / "out.off"
    export_off(X, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF"
    nverts, nfaces, _ = map(int, lines[1].split())
    assert nfaces == 2
    assert len(lines) == 2 + nverts + nfaces


@pytest.mark.parametrize("box", [((0, 8), (0, 8), (0, 12)), ((0, 3), (-1, 1)), ((0, 2),) * 4])
def test_check_box_cells_counts_before_listing(box, monkeypatch):
    """The count that `check_box_cells` names, from side lengths alone, is
    the number of d-cells that `box_cells` lists; the box passes at that
    bound and fails one below it.  The CI's 8x8x12 box holds 2,560 2-cells."""
    for d in range(len(box) + 1):
        count = sum(1 for _ in box_cells(box, d))
        monkeypatch.setattr("plateau.lattice.MAX_BOX_CELLS", count)
        check_box_cells(box, d)
        monkeypatch.setattr("plateau.lattice.MAX_BOX_CELLS", count - 1)
        expected = f"holds {count} {d}-cells, above the bound {count - 1}$"
        with pytest.raises(ValueError, match=expected):
            check_box_cells(box, d)
    if len(box) == 3:
        assert sum(1 for _ in box_cells(box, 2)) == 2560
