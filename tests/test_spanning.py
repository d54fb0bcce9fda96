import copy
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plateau.cochain import CochainComplexData, boundary_incidences, cohomology
from plateau.lattice import (
    Cell, CubicalComplex, GridSpec, HalfLattice, box_cells, build_skeleton, connected_components,
)
from plateau.linalg import GF2, RATIONAL, Coeffs, FieldMatrix, _dense
from plateau.solver import (
    SolverConfig,
    _admissible_regions,
    assert_one_minimal,
    greedy_minimize,
    local_replace,
    region_interior,
    surface_weight,
)
from plateau.spanning import (
    CohomologyClass,
    SpanningProblem,
    Surface,
    canonical_L,
    check_closed_manifold,
    fundamental_cycle,
    spans,
)
from plateau import spanning
from plateau.witness import build_witness_system

from conftest import (
    block_cells, mod2_boundary, chain_boundary, gauss_jordan, matrix_row, problem_over, reference_cofaces,
    reference_solution_spaces, restriction_spans,
)

FIELDS = (GF2, Coeffs("gfp", 3), RATIONAL)


def test_canonical_L_three_rings(tiny_problem):
    assert len(tiny_problem.L) == 3
    comps_hit = set()
    for cls in tiny_problem.L:
        # each class pairs to 1 with exactly one ring's fundamental cycle
        lower = sorted(tiny_problem.A.cells_of_dim(1))
        pos = {c: i for i, c in enumerate(lower)}
        zs = {c.anchor[2] for c, i in pos.items() if cls.rep[i]}
        assert len(zs) == 1
        comps_hit.add(zs.pop())
    assert comps_hit == {1, 2, 3}


@pytest.mark.parametrize("F", FIELDS, ids=["gf2", "gf3", "q"])
@pytest.mark.parametrize("name", ["sphere_shell", "rings_d3"])
def test_canonical_L_walks_each_component_once(monkeypatch, name, F):
    """Over GF(p) and Q `canonical_L` reads each top cell's signed faces once,
    for both the closed-manifold count and the orientation walk, and calls no
    `Cell.faces`.  Over GF(2) it
    counts ridge cofaces with `Cell.faces` and orients nothing."""
    A = problem_over(name, "gf2").A
    m = 2 if name == "rings_d3" else 3
    calls = {"boundary_incidences": 0, "faces": 0}
    incidences, faces = spanning.boundary_incidences, Cell.faces

    def counted_incidences(cell):
        calls["boundary_incidences"] += 1
        return incidences(cell)

    def counted_faces(cell):
        calls["faces"] += 1
        return faces(cell)

    monkeypatch.setattr(spanning, "boundary_incidences", counted_incidences)
    monkeypatch.setattr(Cell, "faces", counted_faces)
    expected = canonical_L(A, m, F)
    monkeypatch.undo()
    assert expected == canonical_L(A, m, F)
    top = len(A.cells_of_dim(m - 1))
    if F.kind == "gf2":
        assert calls == {"boundary_incidences": 0, "faces": top}
    else:
        assert calls == {"boundary_incidences": top, "faces": 0}


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_canonical_L_rejects_alike_over_every_field(data):
    """On random complexes that may or may not be closed manifolds (the mod-2
    boundary of a few cells plus up to two stray cells of the same
    dimension), `canonical_L` over GF(3) and Q, which counts ridge cofaces
    from each top cell's signed faces, raises on each component the same closed-manifold error
    as over GF(2), which counts them with `Cell.faces`.  Where GF(2) builds a
    class, the other fields build the same one, or find no orientation walk:
    two surfaces that meet at a vertex only are one component, but not one
    ridge-connected one."""
    n = data.draw(st.integers(2, 4))
    dim = data.draw(st.integers(1, n - 1))
    box = ((0, 3 if n < 4 else 2),) * n
    solids = sorted(box_cells(box, dim + 1))
    cells = data.draw(st.lists(st.sampled_from(solids), min_size=1, max_size=3, unique=True))
    strays = data.draw(st.lists(st.sampled_from(sorted(box_cells(box, dim))), max_size=2))
    K = CubicalComplex(GridSpec(n, 0, box), [*mod2_boundary(cells), *strays])
    for comp in connected_components(K):
        outcomes = []
        for F in FIELDS:
            try:
                outcomes.append([c.rep for c in canonical_L(comp, dim + 1, F)])
            except ValueError as exc:
                outcomes.append(str(exc))
        gf2, *others = outcomes
        for out in others:
            assert out == gf2 or not isinstance(gf2, str) and out in (
                "component is non-orientable", "top cells of component are not ridge-connected")


@pytest.mark.parametrize("F", FIELDS, ids=["gf2", "gf3", "q"])
def test_canonical_L_of_point_components(F):
    """For m = 1 the classes are component indicators in reduced degree 0:
    one point has none, since its indicator is the constant, and each of two
    points has its own nonzero class."""
    grid = GridSpec(2, 0, ((0, 3), (0, 3)))
    point = CubicalComplex(grid, [Cell((0, 0), 0)])
    assert canonical_L(point, 1, F) == []
    with pytest.raises(ValueError, match="zero class"):
        SpanningProblem(point, grid, 1, [CohomologyClass([F.one])], F)
    pair = CubicalComplex(grid, [Cell((0, 0), 0), Cell((2, 1), 0)])
    L = canonical_L(pair, 1, F)
    assert sorted(cls.rep for cls in L) == [[F.zero, F.one], [F.one, F.zero]]
    problem = SpanningProblem(pair, grid, 1, L, F)
    assert spans(problem.surface(problem.box_mcells()))
    assert not spans(problem.surface([]))


def test_zero_class_rejected(disk_problem):
    A = disk_problem.A
    rep = [GF2.zero] * len(A.cells_of_dim(1))
    cls = CohomologyClass(rep, "zero")
    with pytest.raises(ValueError, match="zero class"):
        SpanningProblem(A, disk_problem.grid, 2, [cls], GF2)


def test_non_cocycle_rejected(disk_problem):
    A = disk_problem.A
    lower = sorted(A.cells_of_dim(1))
    rep = [GF2.zero] * len(lower)
    rep[0] = GF2.one  # a single edge of a ring is not a cocycle in degree 1?
    cls = CohomologyClass(rep, "edge")
    # on a closed curve every 1-cochain is a cocycle; at m = 3 the
    # representative needs one entry per 2-cell of A, of which there are none
    with pytest.raises(ValueError, match="one entry per"):
        SpanningProblem(A, disk_problem.grid, 3, [cls], GF2)


def test_non_cocycle_rejected_torus(torus_problem):
    A = torus_problem.A
    lower = sorted(A.cells_of_dim(1))
    rep = [GF2.zero] * len(lower)
    rep[0] = GF2.one  # single edge on a 2-complex: coboundary is nonzero
    cls = CohomologyClass(rep, "edge")
    with pytest.raises(ValueError, match="cocycle"):
        SpanningProblem(A, torus_problem.grid, 2, [cls], GF2)


def _classes_with_bad_last(case: str, F: Coeffs):
    """(A, grid, m, L): every class of L but the last is a nonzero cocycle.

    m = 2: two unit-square rings and a filled square, far apart; the good
    classes mark one edge of each ring.  m = 1: two isolated vertices and an
    edge; the good classes mark one vertex each.
    """
    if case in ("cocycle", "coboundary"):
        grid, m = GridSpec(3, 0, ((0, 3), (0, 3), (0, 4))), 2
        rings = Cell((0, 0, 0), 0b011).faces() | Cell((0, 0, 2), 0b011).faces()
        A = CubicalComplex(grid, rings | {Cell((1, 1, 4), 0b011)})
        marked = [Cell((0, 0, 0), 0b001), Cell((0, 0, 2), 0b001)]
    else:
        grid, m = GridSpec(2, 0, ((0, 3), (0, 3))), 1
        A = CubicalComplex(grid, [Cell((0, 0), 0), Cell((2, 0), 0), Cell((0, 2), 0b01)])
        marked = [Cell((0, 0), 0), Cell((2, 0), 0)]
    lower = sorted(A.cells_of_dim(m - 1))

    def cochain(values: dict) -> list:
        return [F.reduce(values.get(c, 0)) for c in lower]

    L = [CohomologyClass(cochain({c: 1}), f"good-{i}")
         for i, c in enumerate(marked)]
    if case == "cocycle":  # an edge of the filled square
        bad = cochain({Cell((1, 1, 4), 0b001): 1})
    elif case == "coboundary":  # delta of a ring vertex
        v = Cell((0, 0, 0), 0)
        bad = cochain({e: s for e in lower for f, s in boundary_incidences(e) if f == v})
    elif case == "end":  # one end of the edge
        bad = cochain({Cell((0, 2), 0): 1})
    else:  # the constant 0-cochain
        bad = cochain({c: 1 for c in lower})
    return A, grid, m, L + [CohomologyClass(bad, "bad")]


@pytest.mark.parametrize("F", [GF2, Coeffs("gfp", 3)], ids=["gf2", "gf3"])
@pytest.mark.parametrize("case, match", [
    ("cocycle", "not a cocycle"), ("coboundary", "zero class"),
    ("end", "not a cocycle"), ("constant", "zero class"),
])
def test_only_last_class_is_bad(case, match, F):
    """One coboundary space checks every class, not only the first."""
    A, grid, m, L = _classes_with_bad_last(case, F)
    SpanningProblem(A, grid, m, L[:-1], F)
    with pytest.raises(ValueError, match=match):
        SpanningProblem(A, grid, m, L, F)


def test_boundary_dim_invariant(disk_problem):
    grid = disk_problem.grid
    square = CubicalComplex(grid, [Cell((1, 1), 0b11)])
    with pytest.raises(ValueError, match="dimension"):
        SpanningProblem(square, grid, 1, [], GF2)


def test_disk_spans_iff_complete(disk_problem):
    region = [
        Cell((x, y), 0b11) for x in range(1, 4) for y in range(1, 4)
    ]
    full = Surface(disk_problem, frozenset(region))
    assert spans(full)
    for drop in region:
        assert not spans(full.without(drop))
    # cells outside the ring do not help
    outside = Surface(
        disk_problem,
        frozenset(region[:-1]) | {Cell((0, 0), 0b11)},
    )
    assert not spans(outside)


def test_spans_matches_witness_system(tiny_problem, tiny_system):
    rng = random.Random(7)
    box = tiny_problem.box_mcells()
    for _ in range(25):
        mcells = frozenset(c for c in box if rng.random() < 0.8)
        X = Surface(tiny_problem, mcells)
        assert spans(X) == tiny_system.spans_surface(X)


def test_spans_matches_restriction_image_rings_tiny_gf3():
    """The three-class rings_tiny problem over GF(3): `spans` agrees with
    the restriction-image definition on the empty surface, the full fill, a
    1-minimal surface, that surface minus each of a few cells, and random
    subsets of the box.  Each class is then moved by a random coboundary of
    A, which spreads it over many edges with both signs; the verdicts stay."""
    F = Coeffs("gfp", 3)
    problem = problem_over("rings_tiny", {"kind": "gfp", "p": 3})
    assert len(problem.L) == 3 and problem.coeffs == F
    system = build_witness_system(problem)
    box = problem.box_mcells()
    X = system.surface(greedy_minimize(system.full_mask(), SolverConfig(), system)[0])
    rng = random.Random(3)
    surfaces = [frozenset(), frozenset(box), X.mcells]
    surfaces += [X.mcells - {c} for c in rng.sample(sorted(X.mcells), 4)]
    keeps = (0.5, 0.8, 0.8, 0.8, 0.9, 0.9, 0.95)
    surfaces += [frozenset(c for c in box if rng.random() < keep) for keep in keeps]
    verdicts = []
    for cells in surfaces:
        Y = Surface(problem, cells)
        verdicts.append(spans(Y))
        assert verdicts[-1] == restriction_spans(Y) == system.spans_surface(Y)
    assert verdicts[:3] == [False, True, True]
    assert not any(verdicts[3:7])
    delta = CochainComplexData(problem.A, F).delta(0)
    for _ in range(4):
        moved = SpanningProblem(problem.A, problem.grid, 2, [
            CohomologyClass([F.add(x, y) for x, y in zip(cls.rep, delta.apply(
                [rng.randrange(3) for _ in range(delta.cols)]))])
            for cls in problem.L
        ], F)
        assert [spans(Surface(moved, cells)) for cells in surfaces] == verdicts


@pytest.mark.parametrize("F", FIELDS, ids=["gf2", "gf3", "q"])
def test_spans_of_the_empty_surface(F, disk_problem):
    """The empty surface spans exactly when L is empty."""
    disk = SpanningProblem(disk_problem.A, disk_problem.grid, 2,
                           canonical_L(disk_problem.A, 2, F), F)
    empty = Surface(disk, frozenset())
    assert spans(empty) is restriction_spans(empty) is False
    grid = GridSpec(2, 0, ((0, 3), (0, 3)))
    point = CubicalComplex(grid, [Cell((1, 1), 0)])
    none = Surface(SpanningProblem(point, grid, 1, canonical_L(point, 1, F), F), frozenset())
    assert spans(none) is restriction_spans(none) is True


def test_fundamental_cycle_is_cycle(tiny_problem):
    from plateau.lattice import connected_components

    for comp in connected_components(tiny_problem.A):
        cyc = fundamental_cycle(comp, 2)
        assert chain_boundary(cyc) == {}
        assert all(v in (1, -1) for v in cyc.values())


@pytest.mark.parametrize("n, cells, m, match", [
    (3, [Cell((1, 1, 1), 0)], 2, "no top cells"),
    (3, [Cell((0, 0, 0), 0b011), Cell((1, 1, 0), 0b011)], 3, "not ridge-connected"),
    (2, [Cell((0, 0), 0b01), Cell((1, 0), 0b01), Cell((2, 0), 0b10)], 2, "form a cycle"),
], ids=["vertex", "squares-at-a-vertex", "open-path"])
def test_fundamental_cycle_error_paths(n, cells, m, match):
    """A vertex has no top cells at m = 2; two squares that share only a
    vertex are not ridge-connected at m = 3; an open path of edges has a
    nonzero boundary at m = 2.  Over GF(3), `canonical_L` rejects each of
    these components too."""
    comp = CubicalComplex(GridSpec(n, 0, ((0, 3),) * n), cells)
    with pytest.raises(ValueError, match=match):
        fundamental_cycle(comp, m)
    with pytest.raises(ValueError):
        canonical_L(comp, m, Coeffs("gfp", 3))


@pytest.mark.parametrize("F", FIELDS, ids=["gf2", "gf3", "q"])
@pytest.mark.parametrize("name", ["rings_tiny", "torus"])
def test_cell_boundaries_split_each_boundary_at_A(name, F):
    """`cell_boundaries` holds one row per box m-cell, in `box_mcells` order:
    each face of `boundary_incidences` that lies off A at column
    top - `HalfLattice` id, below nf, with its sign in the field, and the sum
    of sign * l_i(e) over the faces e on A at column nf + i; the table is
    cached, and a cropped problem builds an equal one of its own."""
    problem = problem_over(name, F.kind if F.kind != "gfp" else {"kind": "gfp", "p": F.p})
    H = HalfLattice(problem.grid.box)
    top = H.id(Cell(tuple(hi for _, hi in problem.grid.box), 0))
    pos = problem.A.position(problem.m - 1)
    table = problem.cell_boundaries()
    rows, nf = table
    assert nf == top + 1
    assert list(rows) == problem.box_mcells()
    for cell, row in rows.items():
        faces = boundary_incidences(cell)
        expected = {top - H.id(f): F.reduce(sign) for f, sign in faces if f not in pos}
        assert all(c < nf for c in expected)
        for i, cls in enumerate(problem.L):
            x = F.reduce(sum(sign * cls.rep[pos[f]] for f, sign in faces if f in pos))
            if x:
                expected[nf + i] = x
        assert row == (sum(1 << c for c in expected) if F is GF2 else expected)
    assert problem.cell_boundaries() is table
    cropped = problem.cropped(tuple(problem.grid.box))
    assert cropped.cell_boundaries() is not table
    assert cropped.cell_boundaries() == table


@pytest.mark.parametrize("F", FIELDS[1:], ids=["gf3", "q"])
@pytest.mark.parametrize("name", ["rings_tiny", "torus"])
def test_spans_and_witness_build_leave_the_table_unchanged(name, F):
    """Echelons store the table's own dicts: `spans` on several surfaces and
    a witness build leave every row equal to a deep copy taken before them."""
    problem = problem_over(name, F.kind if F.kind != "gfp" else {"kind": "gfp", "p": F.p})
    before = copy.deepcopy(problem.cell_boundaries())
    box, rng = problem.box_mcells(), random.Random(5)
    for keep in (0.3, 0.6, 0.9, 1.0):
        spans(Surface(problem, rng.sample(box, round(keep * len(box)))))
    build_witness_system(problem)
    assert problem.cell_boundaries() == before


def test_surface_free_mcells(tiny_problem):
    X = Surface(tiny_problem, frozenset(tiny_problem.box_mcells()))
    a2 = tiny_problem.A.cells_of_dim(2)
    assert all(c not in a2 for c in X.free_mcells())
    Y = X.with_added([])
    assert Y.mcells == X.mcells


def test_non_manifold_boundary_rejected():
    """A theta graph: two unit squares sharing an edge, whose end vertices
    lie on three edges each."""
    grid = GridSpec(2, 0, ((0, 3), (0, 2)))
    horizontal = [Cell((x, y), 1) for x in (0, 1) for y in (0, 1)]
    vertical = [Cell((x, 0), 2) for x in (0, 1, 2)]
    theta = CubicalComplex(grid, horizontal + vertical)
    with pytest.raises(ValueError, match="3 top cofaces"):
        check_closed_manifold(theta, 1)
    with pytest.raises(ValueError, match="3 top cofaces"):
        canonical_L(theta, 2, GF2)
    with pytest.raises(ValueError, match="expected a closed 2-manifold"):
        check_closed_manifold(theta, 2)
    square = CubicalComplex(grid, horizontal[:2] + vertical[:2])
    check_closed_manifold(square, 1)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_closed_manifold_check_matches_coface_reference(data):
    """On random closed complexes with n = 2-4 and dim 1..n-1 (the mod-2
    boundary of a few (dim+1)-cells, which pairs every ridge evenly, plus
    up to two stray dim-cells), `check_closed_manifold` raises exactly when
    the per-ridge coface walk finds a ridge, in the same order, with a
    count other than 2, and names that ridge and count."""
    n = data.draw(st.integers(2, 4))
    dim = data.draw(st.integers(1, n - 1))
    box = ((0, 3 if n < 4 else 2),) * n
    grid = GridSpec(n, 0, box)
    parity: dict[Cell, int] = {}
    solids = sorted(box_cells(box, dim + 1))
    for c in data.draw(st.lists(st.sampled_from(solids), min_size=1, max_size=4, unique=True)):
        for f in c.faces():
            parity[f] = parity.get(f, 0) ^ 1
    strays = data.draw(st.lists(st.sampled_from(sorted(box_cells(box, dim))), max_size=2))
    K = CubicalComplex(grid, [f for f, odd in parity.items() if odd] + strays)
    assume(K.dim == dim)
    top = K.cells_of_dim(dim)
    counts = ((r, sum(c in top for c in reference_cofaces(r, grid)))
              for r in K.cells_of_dim(dim - 1))
    bad = next(((r, k) for r, k in counts if k != 2), None)
    if bad is None:
        check_closed_manifold(K, dim)
    else:
        with pytest.raises(ValueError) as err:
            check_closed_manifold(K, dim)
        assert str(err.value) == (f"ridge {bad[0]} has {bad[1]} top cofaces; the complex "
                                  "is not a closed manifold")


@st.composite
def spanning_surfaces(draw, n: int, m: int, fields=FIELDS):
    """A random small problem over one of `fields` whose A bounds one or two
    m-dimensional blocks (so its classes are `canonical_L`'s), and random
    cell sets of its box, some holding a block's filling."""
    F = draw(st.sampled_from(fields))
    side = draw(st.integers(2, 3 if n < 4 else 2))  # Q on a 3^4 box takes seconds
    grid = GridSpec(n, 0, ((0, side),) * n)
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        axes = draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))
        lo, hi = [], []
        for a in range(n):
            low = draw(st.integers(0, side - 1 if a in axes else side))
            lo.append(low)
            hi.append(draw(st.integers(low + 1, side)) if a in axes else low)
        blocks.append(block_cells(lo, hi))
    faces: dict[Cell, int] = {}
    for c in {c for block in blocks for c in block}:
        for f in c.faces():
            faces[f] = faces.get(f, 0) + 1
    A = CubicalComplex(grid, [f for f, k in faces.items() if k == 1])
    try:
        problem = SpanningProblem(A, grid, m, canonical_L(A, m, F), F)
    except ValueError:  # the blocks touch: A is no closed manifold
        assume(False)
    assume(problem.L)
    rng = random.Random(draw(st.integers(0, 2**32)))
    box = problem.box_mcells()
    surfaces = []
    for _ in range(3):
        keep = draw(st.sampled_from((0.3, 0.7, 0.9)))
        cells = {c for c in box if rng.random() < keep}
        if draw(st.booleans()):
            cells |= set(rng.choice(blocks))
        surfaces.append(frozenset(cells))
    return problem, surfaces


# the (n, m) of the generator's properties; n = m = 2 is disk3's shape
SHAPES = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("n, m", SHAPES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_spans_matches_restriction_image_and_witnesses(n, m, data):
    """`spans` agrees with the restriction-image definition and with the
    witness system on random small problems over GF(2), GF(3) and Q."""
    problem, surfaces = data.draw(spanning_surfaces(n, m))
    system = build_witness_system(problem)
    for cells in surfaces:
        X = Surface(problem, cells)
        assert spans(X) == restriction_spans(X) == system.spans_surface(X)


@pytest.mark.parametrize("n, m", SHAPES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_witness_spaces_match_per_row_reference(n, m, data):
    """Each class's witness space, read off the face kernel by rank one,
    against `reference_solution_spaces` on the transposed system: the face
    rows with right-hand side 0, shared, then each class row with
    right-hand side 1, grown and read off on its own.  Over GF(2) the
    particular and the basis are the reference's, in order; over GF(p) and
    Q the particular is, and the basis is the reference kernel's reduced
    row echelon form."""
    problem, _ = data.draw(spanning_surfaces(n, m, FIELDS + (Coeffs("gfp", 7),)))
    F, ncols = problem.coeffs, len(problem.box_mcells())
    rows, nf = problem.cell_boundaries()
    T = FieldMatrix(F, list(rows.values()), nf + len(problem.L)).transpose()
    augmented = [matrix_row(T, i) + [F.zero if i < nf else F.one] for i in range(T.rows)]
    reference = reference_solution_spaces(FieldMatrix.from_rows(F, augmented, ncols + 1), nf)
    spaces = build_witness_system(problem).spaces
    assert len(spaces) == len(reference) == len(problem.L)
    for space, (particular, kernel) in zip(spaces, reference):
        if F.kind == "gf2":
            assert (space.particular, space.basis) == (particular, kernel)
            continue
        assert _dense(F, space.particular, ncols) == _dense(F, particular, ncols)
        R, pivots = gauss_jordan(F, [_dense(F, v, ncols) for v in kernel], ncols)
        assert [_dense(F, v, ncols) for v in space.basis] == R[:len(pivots)]


@pytest.mark.parametrize("n, m", SHAPES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_spanning_lemmas(n, m, data):
    """The structural spanning facts on random small problems over GF(2),
    GF(3) and Q: enlarging a spanning surface keeps it spanning; a vertex off
    the surface, added in isolation, leaves the verdict as it is; and a
    complex of dimension at most m - 2 has no (m-1)-cohomology."""
    problem, surfaces = data.draw(spanning_surfaces(n, m))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    box = problem.box_mcells()
    vertices = build_skeleton(problem.grid, 0).sorted_cells(0)
    for cells in surfaces:
        X = Surface(problem, cells)
        verdict = spans(X)
        if verdict:
            assert spans(X.with_added(c for c in box if rng.random() < 0.3))
        off = [v for v in vertices if v not in X.complex]
        if off:
            iso = rng.choice(off)
            K = CubicalComplex(problem.grid, set(X.complex.cells) | {iso})
            assert restriction_spans(X, K) == verdict
    if m >= 2:
        low = build_skeleton(problem.grid, m - 2)
        Z = CubicalComplex(problem.grid, [c for c in low.cells if rng.random() < 0.5])
        assert cohomology(Z, m - 1, problem.coeffs).dim == 0


@pytest.mark.parametrize("n, m", SHAPES)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_local_moves_keep_spanning(n, m, data):
    """On every spanning surface of a random small problem, the full fill
    and its greedy reduction included, one greedy pass in either removal
    order leaves a spanning 1-minimal surface, and a local move in any admissible
    2-box returns a surface that still spans and weighs no more."""
    problem, surfaces = data.draw(spanning_surfaces(n, m))
    system = build_witness_system(problem)
    fill = system.full_mask()
    greedy, _ = greedy_minimize(fill, SolverConfig(), system)
    regions = list(_admissible_regions(problem))
    seed = data.draw(st.integers(0, 99))
    orders = (SolverConfig(), SolverConfig(removal_order="random", seed=seed))
    starts = [system.surface(fill), system.surface(greedy)]
    for X in starts + [Surface(problem, cells) for cells in surfaces]:
        if not spans(X):
            continue
        x = system.mask_of(X.mcells) | system.a_mask
        for cfg in orders:
            Y = system.surface(greedy_minimize(x, cfg, system)[0])
            assert spans(Y)
            assert_one_minimal(Y, system)
        for lows, highs in regions:
            Y = system.surface(local_replace(x, region_interior(system, lows, highs), system))
            assert spans(Y)
            assert surface_weight(Y) <= surface_weight(X)
