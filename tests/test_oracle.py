import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau.lattice import CubicalComplex
from plateau.linalg import GF2, bit_indices
from plateau.linking import crossed_faces
from plateau.oracle import (
    OracleConfig,
    build_loop_catalogue,
    crop_problem,
    exact_packing_bound,
    isoperimetric_scan,
    loop_packing_lp,
    oracle_surface,
    packing_lower_bound,
    root_lp,
)
from plateau.scenarios import build_problem, scenario_from_dict
from plateau.solver import SolverConfig, solve, surface_weight
from plateau.spanning import CohomologyClass, SpanningProblem, spans
from plateau.witness import build_witness_system

from conftest import (
    SCENARIO_NAMES, bench_instances, bench_problem, load, n4_sphere_problem, problem_over,
    rectangle_loops,
)

GF3 = {"kind": "gfp", "p": 3}


def test_crop_tiny_rings(tiny_problem):
    cropped = crop_problem(tiny_problem)
    assert cropped.grid.box == ((0, 3), (0, 3), (1, 3))
    assert cropped.A.cells == tiny_problem.A.cells


def test_crop_keeps_nonconstant_axes(torus_problem):
    cropped = crop_problem(torus_problem)
    # radial density with a 2d center is constant along z only
    assert cropped.grid.box[0] == torus_problem.grid.box[0]
    assert cropped.grid.box[1] == torus_problem.grid.box[1]
    assert cropped.grid.box[2] == (1, 3)


CROP_CASES = [(name, load(name).raw) for name in SCENARIO_NAMES] + [
    (d["name"], d) for d in bench_instances("certify", 1)
]


@pytest.mark.parametrize("raw", [raw for _, raw in CROP_CASES],
                         ids=[name for name, _ in CROP_CASES])
def test_crop_equals_full_construction(raw):
    """The cropped problem, built without repeating the class and density
    checks, equals one the full constructor builds and checks on its box."""
    problem = build_problem(scenario_from_dict(raw))
    problem.weight_table()  # a table of the larger box must not carry over
    cropped = crop_problem(problem)
    A = CubicalComplex(cropped.grid, problem.A.cells)
    full = SpanningProblem(
        A, cropped.grid, problem.m,
        [CohomologyClass(list(c.rep), c.label) for c in problem.L],
        problem.coeffs, problem.density,
    )
    assert cropped.grid == full.grid
    assert cropped.A.cells == full.A.cells
    assert [c.rep for c in cropped.L] == [c.rep for c in full.L]
    assert cropped.weight_table() == full.weight_table()
    assert cropped == full


def test_cropped_box_must_hold_A(tiny_problem):
    with pytest.raises(ValueError, match="inside the problem box"):
        tiny_problem.cropped(((-1, 3), (0, 3), (1, 3)))
    with pytest.raises(ValueError, match="outside bounding box"):
        tiny_problem.cropped(((0, 2), (0, 3), (1, 3)))
    assert tiny_problem.cropped(tiny_problem.grid.box) == tiny_problem


def test_loop_catalogue_is_closed_loops(tiny_problem):
    loops = rectangle_loops(tiny_problem.grid)
    assert len(loops) > 100
    for loop in loops[::211]:
        steps = loop.steps()
        assert steps[-1][1] == steps[0][0]


def test_loop_masks_are_forcing(tiny_problem, tiny_system):
    """Every catalogued mask has odd parity on all witnesses of some class."""
    masks = build_loop_catalogue(tiny_system)
    assert masks
    for g in masks[::17]:
        ok = False
        for space in tiny_system.spaces:
            odd = bin(space.particular & g).count("1") % 2 == 1
            kernel_even = all(
                bin(v & g).count("1") % 2 == 0 for v in space.basis
            )
            if odd and kernel_even:
                ok = True
                break
        assert ok


@pytest.mark.parametrize("name", [
    "rings_tiny", "rings_tiny-cropped", "torus", "n4_sphere",
    "sphere_shell", "disk3", "rings-wide5",
])
def test_loop_masks_match_walked_loops(name):
    """The catalogue's prefix-XOR masks are exactly the masks of the walked
    rectangle loops, deduplicated, sorted and filtered the same way: kept
    iff odd on some space's particular and even on each of its basis
    vectors, one vector at a time.  rings-wide5 is the seed-1 certify
    instance, cropped as the oracle crops it (three classes, 52-vector bases)."""
    if name == "n4_sphere":
        problem = n4_sphere_problem()
    elif name == "rings-wide5":
        problem = crop_problem(bench_problem("certify", 1, name))
    else:
        problem = build_problem(load(name.removesuffix("-cropped")))
        if name.endswith("-cropped"):
            problem = crop_problem(problem)
    system = build_witness_system(problem)
    masks = build_loop_catalogue(system)
    if name in ("sphere_shell", "disk3"):
        assert masks == []
        return
    walked = set()
    for loop in rectangle_loops(problem.grid):
        g = 0
        for face, _ in crossed_faces(loop, problem.grid):
            g ^= 1 << system.column[face]
        walked.add(g)
    walked.discard(0)
    expected = [
        g for g in sorted(walked, key=lambda g: (bin(g).count("1"), g))
        if any(
            bin(s.particular & g).count("1") % 2 == 1
            and all(bin(v & g).count("1") % 2 == 0 for v in s.basis)
            for s in system.spaces
        )
    ]
    assert masks and masks == expected


def _floors(loops, weights):
    return {g: min(weights[j] for j in bit_indices(g)) for g in loops}


def test_packing_lower_bound_sound(tiny_problem, tiny_system):
    masks = build_loop_catalogue(tiny_system)
    weights = tiny_system.weights
    lb, feasible = packing_lower_bound(masks, 0, 0, weights, _floors(masks, weights))
    assert feasible
    # never above the certified optimum, on the scaled integer weights
    assert 0 < lb <= 21 * tiny_system.scale


def _packing_over_catalogue(loops, satisfied, excluded, weights):
    """The greedy packing with every loop's minimum taken over its
    available faces, scanning the whole catalogue."""
    used = lb = 0
    for g in loops:
        if g & satisfied:
            continue
        avail = g & ~excluded
        if not avail:
            return lb, False
        if not avail & used:
            used |= avail
            lb += min(weights[j] for j in bit_indices(avail))
    return lb, True


@pytest.mark.parametrize("name", ["rings_tiny", "torus"])
def test_packing_over_live_loops_matches_full_catalogue(name):
    """The bound a search node computes from its live loops and one new
    column equals the bound over the whole catalogue with the node's
    `include | a_mask`, for random include and exclude masks."""
    problem = crop_problem(build_problem(load(name)))
    system = build_witness_system(problem)
    loops = build_loop_catalogue(system)
    weights = system.weights
    floors = _floors(loops, weights)
    a_mask = system.mask_of(problem.A.cells_of_dim(problem.m))
    free = [j for j in range(system.ncols) if not a_mask >> j & 1]
    rng = random.Random(name)
    for _ in range(60):
        include = exclude = 0
        for j in free:
            r = rng.random()
            if r < 0.08:
                include |= 1 << j
            elif r < 0.3:
                exclude |= 1 << j
        live = [g for g in loops if not g & (include | a_mask)]
        col = rng.choice([j for j in free if not (include | exclude) >> j & 1])
        for bit in (0, 1 << col):
            full = _packing_over_catalogue(loops, include | bit | a_mask, exclude, weights)
            assert packing_lower_bound(
                loops, include | bit | a_mask, exclude, weights, floors) == full
            assert packing_lower_bound(live, bit, exclude, weights, floors) == full


def test_oracle_disk_exact(disk_problem):
    res = isoperimetric_scan(disk_problem, OracleConfig())
    assert res.optimal
    assert res.best_weight == 9
    X = oracle_surface(disk_problem, res)
    assert spans(X)


def test_oracle_tiny_rings_regression(tiny_problem):
    """The certified optimum is 21 (one wall band serving two ring classes
    plus one disk), not the naive 27 of three disks."""
    res = isoperimetric_scan(tiny_problem, OracleConfig())
    assert res.optimal
    assert res.best_weight == 21
    assert res.lower_bound == 21
    X = oracle_surface(tiny_problem, res)
    assert spans(X)
    assert surface_weight(X) == 21


def _without_root_lp(monkeypatch):
    """Skip the root LP, so that the search runs exactly as it would on an
    instance the LP does not certify."""
    monkeypatch.setattr("plateau.oracle.root_lp", lambda system, loops, a_mask, deadline: None)


def _without_loops(monkeypatch):
    """An empty loop catalogue: no LP bound, and every node branches on a
    support column."""
    monkeypatch.setattr("plateau.oracle.build_loop_catalogue", lambda system, deadline=None: [])


@pytest.mark.parametrize("name, pinned", [
    ("rings_tiny", (669, 21, 21, True)),
    ("torus", (4047, Fraction(9, 2), Fraction(9, 2), True)),
])
def test_cold_search_tree_is_pinned(name, pinned, monkeypatch):
    """The cold search under a 5,000-node budget visits a fixed tree.  A
    change to the bounds or the branching changes these numbers on purpose;
    a change to the cost per node must not."""
    _without_root_lp(monkeypatch)
    res = isoperimetric_scan(
        build_problem(load(name)), OracleConfig(budget=5_000, warm_start=False)
    )
    assert (res.nodes, res.best_weight, res.lower_bound, res.optimal) == pinned
    assert res.stop == "done"


@pytest.mark.parametrize("name, pinned", [
    ("rings_tiny", (5_000, 21, 1, False)),
    ("torus", (5_000, 6, Fraction(9, 8), False)),
])
def test_cold_search_tree_without_loops_is_pinned(name, pinned, monkeypatch):
    """Without the loop catalogue every node branches on a support column,
    exclusion first; the budget-stopped search pins that order."""
    _without_loops(monkeypatch)
    res = isoperimetric_scan(
        build_problem(load(name)), OracleConfig(budget=5_000, warm_start=False)
    )
    assert (res.nodes, res.best_weight, res.lower_bound, res.optimal) == pinned
    assert res.stop == "budget"


# the wide rings of the certify benchmark (seed 1)
RINGS_WIDE4 = {
    "name": "rings-wide4",
    "grid": {"n": 3, "k": 0, "box": [[0, 5], [0, 5], [0, 4]]},
    "boundary": {"tag": "three_rings", "size": 4, "origin": [0, 0],
                 "spacing": 1, "z0": 1},
    "m": 2,
    "seed": 256,
}


def test_budget_stopped_search_with_loops_is_pinned(monkeypatch):
    """A loop-bearing search that the budget stops keeps its incumbent and
    packing bound."""
    _without_root_lp(monkeypatch)
    problem = build_problem(scenario_from_dict(RINGS_WIDE4))
    res = isoperimetric_scan(problem, OracleConfig(budget=5_000, warm_start=False))
    assert (res.nodes, res.best_weight, res.lower_bound, res.optimal) == (
        5_000, 60, 28, False)
    assert res.stop == "budget"


@pytest.mark.parametrize("name, optimum", [
    ("rings_tiny", 21),
    ("torus", Fraction(9, 2)),
    ("rings-wide4", 32),
    ("rings_d1", 40),
    ("rings_d3", 75),
])
def test_root_lp_certifies_without_search(name, optimum):
    """The cold root LP certifies every loop-bearing instance at node 0, so a
    one-node budget suffices."""
    if name == "rings-wide4":
        problem = build_problem(scenario_from_dict(RINGS_WIDE4))
    else:
        problem = build_problem(load(name))
    res = isoperimetric_scan(problem, OracleConfig(budget=1, warm_start=False))
    assert (res.nodes, res.best_weight, res.lower_bound, res.optimal) == (
        0, optimum, optimum, True)
    assert res.stop == "lp_root"
    X = oracle_surface(problem, res)
    assert spans(X) and surface_weight(X) == optimum


def _root_loops(name):
    problem = crop_problem(build_problem(load(name)))
    system = build_witness_system(problem)
    a_mask = system.mask_of(problem.A.cells_of_dim(problem.m))
    loops = [g for g in build_loop_catalogue(system) if not g & a_mask]
    return system, loops, a_mask


def _loads(loops, y):
    load = {}
    for g, v in zip(loops, y):
        for e in bit_indices(g):
            load[e] = load.get(e, 0) + Fraction(v)
    return load


@st.composite
def packing_instances(draw):
    """1-30 loop masks over at most 16 faces, some of them repeats, sub- or
    super-masks of earlier ones; weights 1-5, or all 1 (degenerate)."""
    nfaces = draw(st.integers(1, 16))
    loops = []
    for _ in range(draw(st.integers(1, 30))):
        g = sum(1 << e for e in draw(st.sets(st.integers(0, nfaces - 1), min_size=1)))
        if loops and draw(st.booleans()):
            h = draw(st.sampled_from(loops))
            g = draw(st.sampled_from([h, h & g or h, h | g]))
        loops.append(g)
    if draw(st.booleans()):
        return loops, [1] * nfaces
    return loops, draw(st.lists(st.integers(1, 5), min_size=nfaces, max_size=nfaces))


@given(packing_instances())
@settings(max_examples=300, deadline=None)
def test_loop_packing_lp_is_optimal(instance):
    """y is a feasible packing, the prices a feasible cover, and their values
    agree, so both are optimal; the exact bound never exceeds the LP value."""
    loops, weights = instance
    y, price = loop_packing_lp(loops, weights)
    tol = 1e-6
    assert min(y) >= -tol
    assert all(x <= weights[e] + tol for e, x in _loads(loops, y).items())
    assert min(price.values()) >= -tol
    assert all(sum(price[e] for e in bit_indices(g)) >= 1 - tol for g in loops)
    assert abs(sum(y) - sum(weights[e] * x for e, x in price.items())) <= tol
    assert exact_packing_bound(loops, y, weights) <= sum(y) + tol


@pytest.mark.parametrize("name, value", [("rings_tiny", 21), ("torus", 36)])
def test_exact_bound_scales_down_infeasible_packings(name, value):
    """Perturbed LP solutions that overload some face are scaled down to a
    bound no higher than the LP value (scaled units); the unperturbed one
    reaches it up to rounding."""
    system, loops, _ = _root_loops(name)
    weights = system.weights
    y, _ = loop_packing_lp(loops, weights)
    assert value - 1 < exact_packing_bound(loops, y, weights) <= value
    rng = random.Random(name)
    for _ in range(20):
        bumped = [v * rng.uniform(1.0, 1.6) + rng.uniform(0.0, 0.3) for v in y]
        load = _loads(loops, bumped)
        assert any(x > weights[e] for e, x in load.items())
        assert exact_packing_bound(loops, bumped, weights) <= value
    # a packing through a zero-weight face proves nothing
    zero = list(weights)
    zero[next(bit_indices(loops[0]))] = 0
    assert exact_packing_bound(loops, [1.0] * len(loops), zero) == 0


def test_non_spanning_primal_falls_back_to_search(monkeypatch):
    """With one face dropped from the LP's rounded primal, the candidate no
    longer spans: nothing is certified at the root, the search finds the
    same optimum, and the LP bound stays the floor of a stopped search."""
    system, loops, a_mask = _root_loops("rings_tiny")
    y, price = loop_packing_lp(loops, system.weights)
    dropped = min(e for e, x in price.items() if x > 0.5)

    def without_one_face(loops, weights, deadline):
        y, price = loop_packing_lp(loops, weights, deadline)
        return y, {**price, dropped: 0.0}

    monkeypatch.setattr("plateau.oracle.loop_packing_lp", without_one_face)
    assert root_lp(system, loops, a_mask) == (21, None)
    problem = build_problem(load("rings_tiny"))
    res = isoperimetric_scan(problem, OracleConfig(budget=5_000, warm_start=False))
    assert res.nodes > 0 and res.stop == "done"
    assert (res.best_weight, res.lower_bound, res.optimal) == (21, 21, True)
    # stopped at once, the search's own bound is the greedy packing's 20
    res = isoperimetric_scan(problem, OracleConfig(budget=1, warm_start=False))
    assert (res.stop, res.lower_bound, res.optimal) == ("budget", 21, False)
    # a warm start that meets the LP bound needs no search
    res = isoperimetric_scan(problem, OracleConfig())
    assert (res.nodes, res.stop, res.best_weight, res.optimal) == (0, "lp_root", 21, True)


def test_search_stop_reasons(monkeypatch):
    _without_loops(monkeypatch)
    res = isoperimetric_scan(
        build_problem(load("rings_tiny")), OracleConfig(time_limit=1e-9, warm_start=False))
    assert (res.stop, res.nodes, res.optimal) == ("time", 0, False)
    res = isoperimetric_scan(build_problem(load("disk3")), OracleConfig(warm_start=False))
    assert (res.stop, res.optimal) == ("done", True)


def test_deadline_stops_catalogue_and_root_lp():
    """The time limit holds before the search too.  Under 1 ms, rings_d3,
    whose catalogue and root LP take tens of milliseconds, stops at 0 nodes
    with the full fill and the bound it has; a passed deadline gives no
    loops and no LP solution."""
    problem = build_problem(load("rings_d3"))
    start = time.monotonic()
    res = isoperimetric_scan(problem, OracleConfig(time_limit=0.001))
    assert time.monotonic() - start < 0.4
    assert (res.stop, res.nodes, res.optimal) == ("time", 0, False)
    assert res.lower_bound <= 75
    system = build_witness_system(crop_problem(problem))
    assert res.best_weight == Fraction(system.weight(system.full_mask()), system.scale)
    passed = time.monotonic() - 1
    assert build_loop_catalogue(system, passed) == []
    loops = build_loop_catalogue(system)
    assert loop_packing_lp(loops, system.weights, passed) is None
    assert loop_packing_lp(loops[:50], system.weights) is not None


@pytest.mark.parametrize("field, value", [
    ("budget", 0), ("budget", -3), ("time_limit", 0), ("time_limit", -1.0),
    ("time_limit", float("nan")),
])
def test_oracle_config_rejects_empty_limits(field, value):
    with pytest.raises(ValueError, match=field):
        OracleConfig(**{field: value})


def test_oracle_budget_exhaustion(tiny_problem, monkeypatch):
    _without_loops(monkeypatch)
    res = isoperimetric_scan(tiny_problem, OracleConfig(budget=1, warm_start=False))
    assert not res.optimal
    assert res.lower_bound <= res.best_weight
    d = res.to_dict()
    assert d["optimal"] is False
    assert d["stop"] == "budget"


@pytest.mark.parametrize("name", ["disk3", "rings_tiny", "torus"])
def test_warm_scan_builds_one_witness_system(name, monkeypatch):
    """The warm start's `solve` reuses the scan's witness system."""
    calls = []

    def counted(problem):
        calls.append(problem)
        return build_witness_system(problem)

    monkeypatch.setattr("plateau.oracle.build_witness_system", counted)
    monkeypatch.setattr("plateau.solver.build_witness_system", counted)
    res = isoperimetric_scan(build_problem(load(name)), OracleConfig())
    assert res.optimal
    assert len(calls) == 1


def test_oracle_matches_solver_on_tiny(tiny_problem):
    res = isoperimetric_scan(tiny_problem, OracleConfig())
    X, _ = solve(tiny_problem, SolverConfig())
    assert surface_weight(X) == res.best_weight


def test_oracle_no_loops_for_higher_codim():
    """m < n-1 or m = n problems get an empty catalogue but still certify."""
    from plateau.scenarios import build_problem, load_scenario
    from plateau.witness import build_witness_system

    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "scenarios", "sphere_shell.json"
    )
    problem = build_problem(load_scenario(path))
    system = build_witness_system(problem)
    assert build_loop_catalogue(system) == []
    res = isoperimetric_scan(problem, OracleConfig())
    assert res.optimal
    assert res.best_weight == 8


@pytest.mark.parametrize("coeffs", [GF3, "rational"], ids=["gf3", "rational"])
def test_cold_oracle_certifies_disk_over_other_fields(coeffs):
    problem = problem_over("disk3", coeffs)
    res = isoperimetric_scan(problem, OracleConfig(warm_start=False))
    assert res.optimal
    assert res.best_weight == res.lower_bound == 9
    assert spans(oracle_surface(problem, res))


def test_gfp_2_is_gf2_and_certifies_at_the_root():
    """{"kind": "gfp", "p": 2} loads as GF(2), so the loop catalogue serves
    it: the cold oracle certifies the rings_d1 copy at the root."""
    problem = problem_over("rings_d1", {"kind": "gfp", "p": 2})
    assert problem.coeffs is GF2
    res = isoperimetric_scan(problem, OracleConfig(budget=2000, warm_start=False))
    assert (res.best_weight, res.lower_bound, res.stop) == (40, 40, "lp_root")


def test_oracle_budget_exhaustion_over_gf3():
    """A budget-stopped search over GF(3) still reports a spanning incumbent
    and a valid lower bound."""
    problem = problem_over("rings_tiny", GF3)
    res = isoperimetric_scan(problem, OracleConfig(budget=200, warm_start=False))
    assert res.lower_bound <= res.best_weight
    X = oracle_surface(problem, res)
    assert spans(X)
    assert surface_weight(X) == res.best_weight
