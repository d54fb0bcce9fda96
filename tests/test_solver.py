import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau.lattice import Cell, CubicalComplex, GridSpec, box_cells
from plateau.oracle import OracleConfig, isoperimetric_scan
from plateau.scenarios import build_problem, scenario_from_dict
from plateau.solver import (
    SolverConfig,
    _admissible_regions,
    assert_one_minimal,
    contract_to_witnesses,
    greedy_minimize,
    local_replace,
    region_interior,
    solve,
    surface_weight,
)
from plateau.spanning import SpanningProblem, Surface, relative_coboundary_dominates, spans
from plateau.witness import build_witness_system

from conftest import n4_sphere_problem, reference_admissible_regions, skeleton_push


def _mask(system, X):
    """The column mask that a solver stage takes for the surface X."""
    return system.mask_of(X.mcells) | system.a_mask


def _replace(X, lows, highs, system):
    """`local_replace` on a surface and a region, as a surface."""
    return system.surface(
        local_replace(_mask(system, X), region_interior(system, lows, highs), system)
    )


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(removal_order="nope")
    with pytest.raises(ValueError):
        SolverConfig(max_passes=0)


def test_initial_fill_spans(disk_problem, disk_system):
    X = disk_system.surface(disk_system.full_mask())
    assert disk_system.spans_surface(X)
    assert spans(X)


def test_greedy_minimize_disk(disk_problem, disk_system):
    fill = disk_system.full_mask()
    Y, moves = greedy_minimize(fill, SolverConfig(), disk_system)
    X, Y = disk_system.surface(fill), disk_system.surface(Y)
    assert disk_system.spans_surface(Y)
    assert surface_weight(Y) == 9
    assert sum(delta for _, delta in moves) == surface_weight(Y) - surface_weight(X)
    assert_one_minimal(Y, disk_system)


def test_greedy_random_orders_span(disk_problem, disk_system):
    X = disk_system.full_mask()
    for seed in range(5):
        cfg = SolverConfig(removal_order="random", seed=seed)
        Y = disk_system.surface(greedy_minimize(X, cfg, disk_system)[0])
        assert disk_system.spans_surface(Y)
        assert_one_minimal(Y, disk_system)
        assert surface_weight(Y) >= 9


def test_greedy_requires_spanning_start(disk_problem, disk_system):
    empty = Surface(disk_problem, frozenset())
    with pytest.raises(ValueError):
        greedy_minimize(_mask(disk_system, empty), SolverConfig(), disk_system)


def test_contract_to_witnesses_spans(tiny_problem, tiny_system):
    X = contract_to_witnesses(tiny_system)
    assert X & tiny_system.a_mask == tiny_system.a_mask
    assert tiny_system.spans_surface(tiny_system.surface(X))


def test_local_replace_flattens_bump(disk_problem, disk_system):
    """A surface with a dent is repaired to the flat filling in one region."""
    region = {
        Cell((x, y), 0b11) for x in range(1, 4) for y in range(1, 4)
    }
    # replace the center cell by a bump around it in a fictitious spanning
    # surface: here we simply test that the flat disk is already optimal
    X = Surface(disk_problem, frozenset(region))
    Y = _replace(X, (1, 1), (3, 3), disk_system)
    assert Y.mcells == X.mcells  # already minimal inside the region


def test_local_replace_removes_extra_cell(disk_problem, disk_system):
    region = {Cell((x, y), 0b11) for x in range(1, 4) for y in range(1, 4)}
    extra = Cell((0, 0), 0b11)
    X = Surface(disk_problem, frozenset(region | {extra}))
    Y = _replace(X, (0, 0), (1, 2), disk_system)
    assert surface_weight(Y) == surface_weight(X) - 1
    assert extra not in Y.mcells
    assert disk_system.spans_surface(Y)


def test_local_replace_drops_cells_that_domination_keeps(disk_problem, disk_system):
    """Cells that fill their region's frontier circle are dropped: the global
    verdict survives, although the relative coboundary domination that an
    earlier version of the move required rejects this refill."""
    region = {Cell((x, y), 0b11) for x in range(1, 4) for y in range(1, 4)}
    extra = {Cell((0, 0), 0b11), Cell((0, 1), 0b11)}
    X = Surface(disk_problem, frozenset(region | extra))
    Y = _replace(X, (0, 0), (1, 2), disk_system)
    assert Y.mcells == X.mcells - extra
    assert surface_weight(Y) == surface_weight(X) - 2
    assert spans(Y)

    grid = GridSpec(2, 0, ((0, 1), (0, 2)))
    inside = [c for c in X.complex.cells if grid.contains_cell(c)]
    trace = CubicalComplex(
        grid, [c for c in inside if c not in extra and c.dim < 2], closed=True
    )
    Xin = CubicalComplex(grid, inside, closed=True)
    assert not relative_coboundary_dominates(trace, Xin, trace, 1, disk_problem.coeffs)


def test_local_replace_rejects_bad_region(disk_problem, disk_system):
    X = Surface(
        disk_problem,
        frozenset(Cell((x, y), 0b11) for x in range(1, 4) for y in range(1, 4)),
    )
    with pytest.raises(ValueError, match="outside the grid box"):
        region_interior(disk_system, (0, 0), (9, 9))
    with pytest.raises(ValueError, match="touches the boundary"):
        region_interior(disk_system, (0, 0), (3, 3))  # interior contains part of the ring
    holed = X.without(Cell((2, 2), 0b11))
    with pytest.raises(ValueError, match="requires a spanning surface"):
        _replace(holed, (1, 1), (3, 3), disk_system)


def test_local_replace_random_soundness(tiny_problem, tiny_system):
    """Seeded random spanning surfaces stay spanning under local_replace."""
    X0 = tiny_system.full_mask()
    regions = list(_admissible_regions(tiny_problem))
    rng = random.Random(5)
    failures = 0
    for seed in range(6):
        cfg = SolverConfig(removal_order="random", seed=seed)
        X, _ = greedy_minimize(X0, cfg, tiny_system)
        for lows, highs in rng.sample(regions, 8):
            X = local_replace(X, region_interior(tiny_system, lows, highs), tiny_system)
            if not tiny_system.spans_surface(tiny_system.surface(X)):
                failures += 1
    assert failures == 0


def _in_interior(c, lows, highs):
    """Whether the cell's closure lies in the region and misses its frontier."""
    return all(
        lo <= c.anchor[a] < hi if c.has_axis(a) else lo < c.anchor[a] < hi
        for a, (lo, hi) in enumerate(zip(lows, highs))
    )


def _interior_mcells(problem, lows, highs):
    return sorted(c for c in problem.box_mcells() if _in_interior(c, lows, highs))


def _reference_refills(X, lows, highs, system):
    """By enumeration of the interior subsets: the lightest refill that keeps
    X spanning, and the lightest refill lighter than X's own interior that
    relative coboundary domination accepts (X's own weight if there is none)."""
    problem = X.problem
    m = problem.m
    ints, denominator = problem.weight_table()
    table = {c: Fraction(w, denominator) for c, w in ints.items()}
    interior = _interior_mcells(problem, lows, highs)
    current = X.mcells.intersection(interior)
    base = system.mask_of(X.mcells - current) | system.mask_of(
        problem.A.cells_of_dim(m)
    )
    subsets = sorted(
        (sum((table[c] for c in combo), Fraction(0)), combo)
        for r in range(len(interior) + 1)
        for combo in itertools.combinations(interior, r)
    )
    spanning = next(
        w for w, combo in subsets if system.spans_mask(base | system.mask_of(combo))
    )
    grid = GridSpec(problem.grid.n, problem.grid.k, tuple(zip(lows, highs)))
    inside = [c for c in X.complex.cells if grid.contains_cell(c)]
    trace = [c for c in inside if not _in_interior(c, lows, highs)]
    T = CubicalComplex(grid, trace, closed=True)
    Xin = CubicalComplex(grid, inside, closed=True)
    current_weight = sum((table[c] for c in current), Fraction(0))
    dominated = current_weight
    for w, combo in subsets:
        if w >= current_weight:
            break
        Y = CubicalComplex(grid, set(T.cells) | set(combo))
        if relative_coboundary_dominates(Y, Xin, T, m - 1, problem.coeffs):
            dominated = w
            break
    return current_weight, spanning, dominated


def test_local_replace_matches_enumeration(
    disk_problem, disk_system, tiny_problem, tiny_system
):
    """On random greedy surfaces, a local move reaches the lightest spanning
    refill (or keeps X when none is strictly lighter) and is never heavier
    than the lightest refill that domination accepts."""
    cases = []
    for problem, system, seeds, per_seed in (
        (disk_problem, disk_system, range(4), None),
        (tiny_problem, tiny_system, range(2), 2),
    ):
        regions = list(_admissible_regions(problem))
        X0 = system.full_mask()
        for seed in seeds:
            cfg = SolverConfig(removal_order="random", seed=seed)
            X = system.surface(greedy_minimize(X0, cfg, system)[0])
            # regions holding 1 to 4 cells of X: each lighter refill costs a
            # domination check, and 4 cells keep that to 299 checks
            occupied = [
                r for r in regions
                if 0 < len(X.mcells.intersection(_interior_mcells(problem, *r))) <= 4
            ]
            picked = regions if per_seed is None else random.Random(seed).sample(
                occupied, per_seed
            )
            cases += [(X, lows, highs, system) for lows, highs in picked]
    improved = 0
    for X, lows, highs, system in cases:
        current, spanning, dominated = _reference_refills(X, lows, highs, system)
        x = _mask(system, X)
        y = local_replace(x, region_interior(system, lows, highs), system)
        Y = system.surface(y)
        moved = surface_weight(X) - surface_weight(Y)
        if spanning < current:
            assert moved == current - spanning
            assert system.spans_surface(Y)
            improved += 1
        else:
            assert y is x
        assert current - moved <= dominated
    assert improved  # some rings_tiny cases have a strictly lighter refill


def test_admissible_regions_and_interiors(disk_system, tiny_system):
    """A 2-box is admissible iff no cell of A lies in its interior, and the
    interior that `solve` lists once per region, like the region helper's
    mask, is the box m-cells inside it."""
    for system in (disk_system, tiny_system, build_witness_system(n4_sphere_problem())):
        problem = system.problem
        box = problem.grid.box
        expected = [
            lows for lows in itertools.product(*(range(lo, hi - 1) for lo, hi in box))
            if not any(
                _in_interior(c, lows, [lo + 2 for lo in lows]) for c in problem.A.cells
            )
        ]
        regions = list(_admissible_regions(problem))
        assert [lows for lows, _ in regions] == expected
        for lows, highs in regions:
            interior = box_cells(tuple(zip(lows, highs)), problem.m, interior=True)
            assert sorted(interior) == _interior_mcells(problem, lows, highs)
            assert region_interior(system, lows, highs) == system.mask_of(
                _interior_mcells(problem, lows, highs)
            )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_admissible_regions_match_per_cell_reference(data):
    """2-boxes, swept from A's vertices, equal the per-cell blocked set, in
    order, on random closed A with n = 2-4; m = n lets A hold n-cells."""
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, n))
    box = tuple((lo, lo + data.draw(st.integers(1, 4 if n < 4 else 3)))
                for lo in (data.draw(st.integers(-1, 1)) for _ in range(n)))
    grid = GridSpec(n, 0, box)
    cells = sorted(box_cells(box, data.draw(st.integers(0, m))))
    A = CubicalComplex(grid, data.draw(st.lists(st.sampled_from(cells), max_size=4, unique=True)))
    problem = SpanningProblem(A, grid, m, [])
    assert list(_admissible_regions(problem)) == reference_admissible_regions(problem)


def test_local_replace_n4_m3_smoke():
    """A 2-box in n=4, m=3 has 32 interior 3-cells; the move on the
    full fill around a 2-sphere finishes and keeps the surface spanning."""
    problem = n4_sphere_problem()
    system = build_witness_system(problem)
    X = system.surface(system.full_mask())
    lows, highs = next(_admissible_regions(problem))
    assert len(_interior_mcells(problem, lows, highs)) == 32
    Y = _replace(X, lows, highs, system)
    assert system.spans_surface(Y)
    assert surface_weight(Y) < surface_weight(X)


def test_skeleton_push_bound_and_domination(tiny_problem, tiny_system):
    X, _ = greedy_minimize(tiny_system.full_mask(), SolverConfig(), tiny_system)
    X = tiny_system.surface(X)
    bound = Fraction(4 * 3) ** 2
    outcomes = []
    for lows, highs in list(_admissible_regions(tiny_problem))[::3]:
        out = skeleton_push(X, lows, tiny_system)
        outcomes.append(out)
        assert out.shadow_measure <= bound * out.interior_measure
        assert out.ratio_ok
        if out.accepted:
            assert tiny_system.spans_surface(out.surface)
    assert any(o.accepted for o in outcomes)


def test_skeleton_push_rejects_bad_block(tiny_problem):
    X = Surface(tiny_problem, frozenset(tiny_problem.box_mcells()))
    with pytest.raises(ValueError, match="outside the grid box"):
        skeleton_push(X, (3, 3, 5))
    with pytest.raises(ValueError, match="touches A"):
        skeleton_push(X, (2, 2, 0))


def test_solve_disk(disk_problem):
    X, report = solve(disk_problem, SolverConfig())
    assert report.spans_verified
    assert surface_weight(X) == 9
    assert report.final_weight == 9
    d = report.to_dict()
    assert d["final_weight"] == "9"
    assert d["spans_verified"] is True


def test_solve_is_deterministic(disk_problem):
    X1, r1 = solve(disk_problem, SolverConfig())
    X2, r2 = solve(disk_problem, SolverConfig())
    assert X1.mcells == X2.mcells
    assert r1.to_dict()["moves"] == r2.to_dict()["moves"]


def test_solve_accepts_local_moves():
    """A radial-density rings problem whose local sweep improves the greedy
    surface: the sweep starts from the lighter of the greedy fill and the
    greedy witness re-seeding (737/3); in one pass three 2-boxes are refilled
    more lightly, the greedy re-run then removes one more cell, and a further
    pass finds nothing.  The sweep stays a heuristic: the cold oracle
    certifies 505/3 at the root."""
    problem = build_problem(scenario_from_dict({
        "grid": {"n": 3, "k": 0, "box": [[0, 5], [0, 3], [0, 6]]},
        "boundary": {"tag": "three_rings", "size": 3, "origin": [0, 0],
                     "spacing": 2, "z0": 1},
        "m": 2, "seed": 1,
        "density": {"kind": "radial", "offset": 1, "slope": "8/3",
                    "center": ["4/2", "5/2", "4/2"], "a": "1/1000", "b": 1000},
    }))
    system = build_witness_system(problem)
    X, report = solve(problem, SolverConfig(), system)
    assert [kind for kind, _ in report.moves].count("local_replace") == 3
    step = Fraction(-7, 3)
    assert report.moves[-4:] == [("local_replace", step)] * 3 + [("remove", step)]
    assert report.final_weight == surface_weight(X) == Fraction(709, 3)
    assert spans(X)
    assert_one_minimal(X, system)
    before_sweep = min(
        surface_weight(system.surface(greedy_minimize(Y, SolverConfig(), system)[0]))
        for Y in (system.full_mask(), contract_to_witnesses(system))
    )
    assert before_sweep == Fraction(737, 3)
    result = isoperimetric_scan(problem, OracleConfig())
    assert (result.best_weight, result.optimal, result.nodes) == (Fraction(505, 3), True, 0)
