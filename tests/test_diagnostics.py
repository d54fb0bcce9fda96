from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_measure, regularity_reference, slicing_bands
from plateau.density import DensityField
from plateau.diagnostics import (
    _band_index,
    _radius2,
    default_probe_point,
    density_profile,
    monotonicity_check,
    regularity_constant,
    slicing_check,
)
from plateau.lattice import Cell, CubicalComplex, GridSpec, box_cells
from plateau.linalg import GF2
from plateau.solver import SolverConfig, solve, surface_weight
from plateau.spanning import SpanningProblem, Surface


@pytest.fixture(scope="module")
def disk_surface(disk_problem):
    X, _ = solve(disk_problem, SolverConfig())
    return X


def test_band_index_is_floor_of_root():
    w = Fraction(1, 2)
    assert _band_index(Fraction(0), w) == 0
    assert _band_index(Fraction(1, 4), w) == 1  # d = 1/2 exactly
    assert _band_index(Fraction(1, 5), w) == 0
    assert _band_index(Fraction(9), w) == 6  # d = 3, w = 1/2
    assert _band_index(Fraction(35, 4), w) == 5  # d just below 3


def test_slicing_bands_sum_to_total(disk_surface):
    rep = slicing_check(
        disk_surface, (Fraction(5, 2), Fraction(5, 2)), Fraction(1)
    )
    assert rep.lhs == rep.rhs  # per-band estimate * width telescopes exactly
    assert rep.rhs == surface_weight(disk_surface)
    assert sum(bw for _, bw, _ in rep.bands) == rep.rhs
    assert rep.slack_factor == 1


def test_slicing_rejects_thin_shell(disk_surface):
    with pytest.raises(ValueError, match="shell width"):
        slicing_check(disk_surface, (Fraction(0), Fraction(0)), Fraction(1, 2))


def test_density_profile_monotone(disk_surface):
    p = default_probe_point(disk_surface)
    radii = [Fraction(r) for r in (1, 2, 3, 4)]
    prof = density_profile(disk_surface, p, radii)
    assert prof.g == sorted(prof.g)
    assert prof.g[-1] == surface_weight(disk_surface)  # radius covers box
    ratios = prof.ratios()
    assert all(r > 0 for r in ratios)


def test_density_profile_rejects_off_lattice(disk_surface):
    with pytest.raises(ValueError, match="lattice point"):
        density_profile(disk_surface, (Fraction(1, 3), Fraction(0)), [Fraction(1)])
    with pytest.raises(ValueError, match="lattice point"):
        # integer point far from the surface
        density_profile(disk_surface, (Fraction(55), Fraction(55)), [Fraction(1)])


def test_profile_and_monotonicity_reject_radii_not_positive(disk_surface):
    """A radius <= 0 names itself in a ValueError: it used to read as its
    absolute value, or divide by zero at a barycenter."""
    p = default_probe_point(disk_surface)
    assert p == (3, 1)
    with pytest.raises(ValueError, match="radius -1 must be positive"):
        density_profile(disk_surface, p, [Fraction(-1), Fraction(1)])
    with pytest.raises(ValueError, match="radius -1 must be positive"):
        monotonicity_check(disk_surface, p, [(Fraction(1), Fraction(-1))])
    with pytest.raises(ValueError, match="radius 0 must be positive"):
        monotonicity_check(
            disk_surface, (Fraction(3, 2), Fraction(3, 2)), [(Fraction(1), Fraction(0))]
        )


def test_regularity_flat_plane_exact(disk_problem):
    """For the flat filled square, the worst vertex is a corner: a ball of
    radius r centered there meets cells of total area >= (r/2)^2 for dyadic
    r <= 1, so c_hat is bounded below by a positive explicit constant."""
    X, _ = solve(disk_problem, SolverConfig())
    rep = regularity_constant(X, Fraction(1))
    assert rep.c_hat > 0
    assert rep.sample_size > 0
    assert rep.worst is not None
    point, r = rep.worst
    assert r <= 1
    # the flat disk at k=0 has unit cells; a corner ball of radius 1 catches
    # exactly one unit cell (barycenter distance sqrt(1/2) <= 1)
    assert rep.c_hat == 1


def test_regularity_rejects_degenerate(disk_problem):
    empty = Surface(disk_problem, frozenset(disk_problem.A.cells_of_dim(2)))
    with pytest.raises(ValueError, match="no cells outside A"):
        regularity_constant(empty, Fraction(1))
    X, _ = solve(disk_problem, SolverConfig())
    with pytest.raises(ValueError, match="max radius"):
        regularity_constant(X, Fraction(1, 2))


def test_monotonicity_ratios(disk_surface):
    p = default_probe_point(disk_surface)
    pairs = [(Fraction(2), Fraction(1)), (Fraction(3), Fraction(2))]
    rep = monotonicity_check(disk_surface, p, pairs)
    assert len(rep.ratios) == 2
    assert rep.min_ratio is not None
    assert rep.min_ratio > 0
    assert rep.k_hat is not None
    # flat interior point: density is non-increasing in r only up to boundary
    # effects; with the default threshold no warnings fire here
    assert rep.warnings == []


def test_monotonicity_warns_below_threshold(disk_surface):
    p = default_probe_point(disk_surface)
    rep = monotonicity_check(
        disk_surface,
        p,
        [(Fraction(2), Fraction(1))],
        warn_threshold=Fraction(100),
    )
    assert rep.warnings and "WARN" in rep.warnings[0]


def test_monotonicity_rejects_bad_pair(disk_surface):
    p = default_probe_point(disk_surface)
    with pytest.raises(ValueError, match="s <= r"):
        monotonicity_check(disk_surface, p, [(Fraction(1), Fraction(2))])


def test_monotonicity_none_ratio_off_surface(disk_problem):
    X = Surface(
        disk_problem,
        frozenset(
            Cell((x, y), 0b11) for x in range(1, 4) for y in range(1, 4)
        ),
    )
    # a point far from the surface: g(s) = 0 -> ratio None, no crash
    rep = monotonicity_check(
        X, (Fraction(0), Fraction(0)), [(Fraction(1), Fraction(1, 2))]
    )
    assert rep.ratios == [None]
    assert rep.min_ratio is None
    assert rep.k_hat is None


def test_default_probe_point_is_on_surface(disk_surface):
    p = default_probe_point(disk_surface)
    side = disk_surface.problem.grid.side
    lattice = tuple(int(x / side) for x in p)
    verts = set()
    for c in disk_surface.free_mcells():
        verts.update(c.corners())
    assert lattice in verts


def test_default_probe_point_rejects_empty(disk_problem):
    empty = Surface(disk_problem, frozenset(disk_problem.A.cells_of_dim(2)))
    with pytest.raises(ValueError, match="no cells outside A"):
        default_probe_point(empty)


@st.composite
def _surfaces(draw):
    """A surface on a small n = 2 or 3 box at level k <= 2, with a
    constant, affine or radial density and some of its m-cells in A."""
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(0, 2))
    m = draw(st.integers(1, n))
    box = tuple(
        (lo, lo + draw(st.integers(1, 3 if n == 2 else 2)))
        for lo in (draw(st.integers(-1, 1)) for _ in range(n))
    )
    grid = GridSpec(n, k, box)
    cells = sorted(box_cells(box, m))
    keep = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=12, unique=True))
    in_A = draw(st.lists(st.sampled_from(keep), max_size=len(keep) - 1, unique=True))
    half = Fraction(1, 2)
    kind = draw(st.sampled_from(("constant", "coordinate-affine", "radial")))
    density = DensityField(
        kind=kind, value=Fraction(draw(st.integers(1, 3))), offset=Fraction(4),
        coeffs=tuple(draw(st.sampled_from((0, Fraction(1, 3), half))) for _ in range(n)),
        center=(half,) * n, slope=half, a=Fraction(1, 100), b=Fraction(100),
    )
    problem = SpanningProblem(CubicalComplex(grid, in_A), grid, m, [], GF2, density)
    return Surface(problem, frozenset(keep))


def _coords(side):
    """Coordinates on the lattice, on the half-lattice, and off both."""
    return st.builds(
        lambda num, den: Fraction(num, den) * side,
        st.integers(-6, 12), st.sampled_from((1, 2, 3, 5)),
    )


@given(X=_surfaces(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_diagnostics_match_fraction_reference(X, data):
    """All four diagnostics equal the ambient-Fraction reference, for probe
    points on and off the half-lattice."""
    side, m, n = X.problem.grid.side, X.problem.m, X.problem.grid.n
    center = tuple(data.draw(_coords(side)) for _ in range(n))
    radius = st.builds(lambda q: q * side / 4, st.integers(1, 16))

    width = side * data.draw(st.sampled_from((1, Fraction(3, 2), 2, Fraction(5, 2))))
    rep = slicing_check(X, center, width)
    assert [(t, bw) for t, bw, _ in rep.bands] == slicing_bands(X, center, width)
    assert rep.rhs == surface_weight(X)

    corners = sorted({v for c in X.free_mcells() for v in c.corners()})
    vertex = tuple(x * side for x in data.draw(st.sampled_from(corners)))
    radii = data.draw(st.lists(radius, min_size=1, max_size=4))
    prof = density_profile(X, vertex, radii)
    assert prof.g == [ball_measure(X, vertex, r, True) for r in sorted(radii)]

    max_radius = side * data.draw(st.integers(1, 4))
    reg = regularity_constant(X, max_radius)
    assert (reg.c_hat, reg.sample_size, reg.worst) == regularity_reference(X, max_radius)

    for point in (center, vertex):
        pairs = [tuple(sorted(p, reverse=True)) for p in data.draw(
            st.lists(st.tuples(radius, radius), min_size=1, max_size=3))]
        expected = []
        for r, s in pairs:
            gr, gs = ball_measure(X, point, r, True), ball_measure(X, point, s, True)
            expected.append(None if gs == 0 else (gr / r**m) / (gs / s**m))
        assert monotonicity_check(X, point, pairs).ratios == expected


@pytest.mark.parametrize("k", (0, 1))
def test_diagnostics_on_both_radius_paths_match_reference(k):
    """At k = 0 and k = 1, with radii that are and are not whole numbers of
    sides (so `_radius2` takes its int and its Fraction path), the four
    diagnostics equal the ambient-Fraction references; the three probes
    from one point are computed once and kept with the surface."""
    grid = GridSpec(3, k, ((0, 3), (0, 2), (0, 2)))
    side = grid.side
    cells = sorted(box_cells(grid.box, 2))
    half = Fraction(1, 2)
    density = DensityField(kind="coordinate-affine", offset=Fraction(4),
                           coeffs=(half, Fraction(1, 3), 0), a=Fraction(1, 100), b=Fraction(100))
    problem = SpanningProblem(CubicalComplex(grid, cells[:3]), grid, 2, [], GF2, density)
    X = Surface(problem, frozenset(cells[::2]))
    whole, partial = [side, 2 * side, 3 * side], [side * Fraction(5, 4), side * Fraction(7, 3)]
    assert all(isinstance(_radius2(r, side), int) for r in whole)
    assert not any(isinstance(_radius2(r, side), int) for r in partial)
    vertex = tuple(x * side for x in X.free_vertices[len(X.free_vertices) // 2])
    assert X._probes == {}
    prof = density_profile(X, vertex, whole + partial)
    assert prof.g == [ball_measure(X, vertex, r, True) for r in sorted(whole + partial)]
    rep = slicing_check(X, vertex, side * Fraction(3, 2))
    assert [(t, bw) for t, bw, _ in rep.bands] == slicing_bands(X, vertex, side * Fraction(3, 2))
    pairs = [(3 * side, side * Fraction(5, 4)), (side * Fraction(7, 3), side)]
    expected = [(ball_measure(X, vertex, r, True) / r**2) / (ball_measure(X, vertex, s, True) / s**2)
                for r, s in pairs]
    assert monotonicity_check(X, vertex, pairs).ratios == expected
    assert list(X._probes) == [vertex]
    reg = regularity_constant(X, 4 * side)
    assert (reg.c_hat, reg.sample_size, reg.worst) == regularity_reference(X, 4 * side)
