import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau import linalg
from plateau.cochain import coboundary, coboundary_space, cohomology, restriction_image
from plateau.lattice import Cell, CubicalComplex, GridSpec, box_cells, build_skeleton
from plateau.linalg import GF2, RATIONAL, Coeffs, FieldMatrix, kernel_basis, row_reduce
from plateau.scenarios import _block_boundary
from plateau.spanning import canonical_L

from conftest import (
    boundary_incidences,
    contains_class,
    euler_characteristic,
    extending,
    matrix_entry,
    matrix_row,
)

GF5 = Coeffs("gfp", 5)


def ring_complex(grid, lo=(0, 0), hi=(2, 2)):
    return CubicalComplex(grid, _block_boundary(lo, hi))


def test_boundary_incidences_signs():
    c = Cell((0, 0), 0b11)
    inc = dict(boundary_incidences(c))
    assert len(inc) == 4
    # boundary of the boundary vanishes with integer signs
    total = {}
    for f, s in inc.items():
        for v, t in boundary_incidences(f):
            total[v] = total.get(v, 0) + s * t
    assert all(v == 0 for v in total.values())


@given(
    n=st.integers(2, 4),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_boundary_squared_zero(n, data):
    mask = data.draw(st.integers(3, (1 << n) - 1))
    c = Cell(tuple(data.draw(st.integers(0, 3)) for _ in range(n)), mask)
    if c.dim < 2:
        return
    total = {}
    for f, s in boundary_incidences(c):
        for v, t in boundary_incidences(f):
            total[v] = total.get(v, 0) + s * t
    assert all(v == 0 for v in total.values())


@pytest.mark.parametrize("F", [GF2, GF5, RATIONAL])
def test_delta_squared_zero(F):
    grid = GridSpec(3, 0, ((0, 2), (0, 2), (0, 2)))
    skel = build_skeleton(grid, 3)
    d0, d1 = coboundary(skel, 0, F), coboundary(skel, 1, F)
    for j in range(d0.cols):
        col = [matrix_entry(d0, i, j) for i in range(d0.rows)]
        assert all(v == F.zero for v in d1.apply(col))


def test_coboundary_matrix_shape():
    """delta(1) of a 2x2 square maps the 12 edges' cochains to the 4 squares'."""
    grid = GridSpec(2, 0, ((0, 2), (0, 2)))
    M = coboundary(build_skeleton(grid, 2), 1, GF2)
    assert (M.rows, M.cols) == (4, 12)


@pytest.mark.parametrize("F", [GF2, GF5, RATIONAL])
def test_box_cohomology_trivial(F):
    grid = GridSpec(2, 0, ((0, 3), (0, 3)))
    skel = build_skeleton(grid, 2)
    assert cohomology(skel, 0, F).dim == 1
    assert cohomology(skel, 0, F, reduced=True).dim == 0
    assert cohomology(skel, 1, F).dim == 0


@pytest.mark.parametrize("F", [GF2, GF5, RATIONAL])
def test_circle_cohomology(F):
    grid = GridSpec(2, 0, ((0, 3), (0, 3)))
    ring = ring_complex(grid, (0, 0), (3, 3))
    assert cohomology(ring, 0, F).dim == 1
    assert cohomology(ring, 1, F).dim == 1


def test_torus_cohomology_gf2(torus_problem):
    A = torus_problem.A
    assert cohomology(A, 0, GF2).dim == 1
    assert cohomology(A, 1, GF2).dim == 2
    assert cohomology(A, 2, GF2).dim == 1
    assert euler_characteristic(A) == 0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cohomology_dim_from_ranks_and_cocycles_off_the_echelon(data):
    """On random subcomplexes of small boxes, in degrees 0-2, reduced and
    not: `cocycles` equals `kernel_basis` of delta_d, rows in order, and the
    dimension taken from ranks equals dim Z - dim B, with as many quotient
    basis vectors."""
    F = data.draw(st.sampled_from([GF2, GF5, RATIONAL]))
    n = data.draw(st.integers(2, 3))
    grid = GridSpec(n, 0, tuple((0, data.draw(st.integers(1, 3 if n == 2 else 2))) for _ in range(n)))
    cells = sorted(box_cells(grid.box, data.draw(st.integers(0, n))))
    X = CubicalComplex(grid, data.draw(st.lists(st.sampled_from(cells), max_size=8, unique=True)))
    d, reduced = data.draw(st.integers(0, 2)), data.draw(st.booleans())
    H = cohomology(X, d, F, reduced)
    K = kernel_basis(coboundary(X, d, F))
    assert H.cocycles.rows == K.rows
    B = coboundary_space(X, d, F, reduced)
    assert H.dim == len(H.basis_reps) == K.dim - B.dim


def test_box_skeleton_dim_reads_no_kernel(monkeypatch):
    """The dimension of H^1 of a box skeleton comes from ranks alone: no
    kernel is read off an echelon until the cocycles are asked for."""
    calls = []
    read_off = linalg._read_off

    def counted(E, cols):
        calls.append(cols)
        return read_off(E, cols)

    monkeypatch.setattr(linalg, "_read_off", counted)
    skeleton = build_skeleton(GridSpec(3, 0, ((0, 2), (0, 3), (0, 4))), 2)
    H = cohomology(skeleton, 1, Coeffs("gfp", 3))
    assert H.dim == 0 and calls == []
    # H^1 = 0, so the cocycles are the coboundaries of the connected 0-cochains
    assert H.cocycles.dim == len(skeleton.cells_of_dim(0)) - 1
    assert len(calls) == 1


def test_restriction_image_full_vs_ring():
    grid = GridSpec(2, 0, ((0, 3), (0, 3)))
    skel = build_skeleton(grid, 2)
    ring = ring_complex(grid, (0, 0), (3, 3))
    img = restriction_image(skel, ring, 1, GF2)
    (cls,) = canonical_L(ring, 2, GF2)
    # the ring class does not extend over the filled box
    assert not contains_class(img, cls.rep)
    img_self = restriction_image(ring, ring, 1, GF2)
    assert contains_class(img_self, cls.rep)
    with pytest.raises(ValueError):
        restriction_image(ring, skel, 1, GF2)


def _rereduced_quotient_basis(cocycles, coboundaries):
    """Reference: re-reduce coboundaries + kept reps + v for every cocycle
    vector v, in order."""
    F, n = coboundaries.coeffs, coboundaries.ambient_dim
    current = list(coboundaries.basis)
    rank = row_reduce(FieldMatrix.from_rows(F, current, n))[1]
    reps = []
    for v in cocycles:
        r = row_reduce(FieldMatrix.from_rows(F, current + [v], n))[1]
        if r > rank:
            reps.append(list(v))
            current.append(list(v))
            rank = r
    return reps


def _circle():
    grid = GridSpec(2, 0, ((0, 3), (0, 3)))
    return ring_complex(grid, (0, 0), (3, 3)), 1


def _torus():
    grid = GridSpec(3, 0, ((0, 3), (0, 3), (0, 1)))
    cells = _block_boundary((0, 0, 0), (3, 3, 1)) ^ _block_boundary((1, 1, 0), (2, 2, 1))
    return CubicalComplex(grid, cells), 2


def _box_with_two_holes():
    grid = GridSpec(2, 0, ((0, 5), (0, 3)))
    skel = build_skeleton(grid, 2)
    holes = {Cell((1, 1), 0b11), Cell((3, 1), 0b11)}
    return CubicalComplex(grid, skel.cells - holes, closed=True), 2


@pytest.mark.parametrize("F", [GF2, GF5, RATIONAL])
@pytest.mark.parametrize("make", [_circle, _torus, _box_with_two_holes])
def test_quotient_basis_matches_rereduction(F, make):
    X, h1 = make()
    H = cohomology(X, 1, F)
    assert H.dim == h1
    assert H.basis_reps == _rereduced_quotient_basis(H.cocycles.basis, H.coboundaries)
    # reversed cocycle order: the first independent cocycles are kept
    rev = H.cocycles.basis[::-1]
    assert extending(H.coboundaries, rev) == _rereduced_quotient_basis(rev, H.coboundaries)


def _skeleton_2x3x4():
    grid = GridSpec(3, 0, ((-1, 1), (2, 5), (0, 4)))
    return build_skeleton(grid, 2), 0


@pytest.mark.parametrize("F", [GF2, GF5, RATIONAL])
@pytest.mark.parametrize("make", [_circle, _torus, _box_with_two_holes, _skeleton_2x3x4])
def test_delta_rows_match_boundary_incidences(F, make):
    """Row i of coboundary(X, d), built on half-lattice ids, is the
    coboundary of the i-th sorted (d+1)-cell read off `boundary_incidences`
    at the complex's `position` of its faces."""
    X, _ = make()
    for d in range(X.dim):
        M, pos = coboundary(X, d, F), X.position(d)
        assert (M.rows, M.cols) == (len(X.sorted_cells(d + 1)), len(pos))
        for i, c in enumerate(X.sorted_cells(d + 1)):
            expected = [F.zero] * len(pos)
            for f, sign in boundary_incidences(c):
                expected[pos[f]] = F.reduce(sign)
            assert matrix_row(M, i) == expected
