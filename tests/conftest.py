import importlib.util
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import pytest

from plateau.cochain import boundary_incidences, coboundary_space, restriction_image
from plateau.lattice import Cell, CubicalComplex, GridSpec, box_cells, cell_measure
from plateau.linalg import GF2, FieldMatrix, Subspace, _dense, _echelon, _to_row
from plateau.linking import DualLoop, crossed_faces
from plateau.scenarios import build_problem, load_scenario, run, scenario_from_dict
from plateau.solver import cell_weight
from plateau.spanning import (
    SpanningProblem,
    Surface,
    canonical_L,
    fundamental_cycle,
    relative_coboundary_dominates,
)
from plateau.witness import WitnessSystem, build_witness_system

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SCENARIO_NAMES = (
    "disk3",
    "rings_tiny",
    "rings_d1",
    "rings_d3",
    "torus",
    "sphere_shell",
)


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, f"{name}.json")


def load(name: str):
    return load_scenario(scenario_path(name))


def problem_over(name: str, coeffs) -> SpanningProblem:
    """A shipped scenario's problem with other coefficients."""
    with open(scenario_path(name)) as fh:
        raw = json.load(fh)
    return build_problem(scenario_from_dict({**raw, "coeffs": coeffs}))


def bench_instances(workload: str, seed: int) -> list[dict]:
    """A benchmark workload's scenario dicts, from its generator."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "generate.py")
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.GENERATORS[workload](seed)


def bench_problem(workload: str, seed: int, name: str) -> SpanningProblem:
    """The named instance of a benchmark workload, built."""
    [raw] = [d for d in bench_instances(workload, seed) if d["name"] == name]
    return build_problem(scenario_from_dict(raw))


def n4_sphere_problem() -> SpanningProblem:
    """n = 4, m = 3: the boundary of one 4-cell's 3-face, a 2-sphere."""
    grid = GridSpec(4, 0, ((0, 4), (0, 4), (0, 4), (0, 3)))
    A = CubicalComplex(grid, Cell((1, 1, 1, 1), 0b0111).faces())
    return SpanningProblem(A, grid, 3, canonical_L(A, 3, GF2))


def restriction_spans(X: Surface, K: Optional[CubicalComplex] = None) -> bool:
    """The restriction-image definition of spanning, the reference for
    `spanning.spans`: no class of L lies in the image of H^(m-1)(X) in
    H^(m-1)(A), taken modulo A's coboundaries and, for m = 1, the constants.

    It restricts the whole cocycle space of X's face-closed complex, or of
    the complex K holding A when one is given, to A; `spans` solves one
    extension system over X's m-cells instead.
    """
    problem = X.problem
    K = X.complex if K is None else K
    image = restriction_image(K, problem.A, problem.m - 1, problem.coeffs)
    cob = coboundary_space(image.A_data, problem.m - 1, problem.m == 1)
    return not any(image.image.sum(cob).contains(cls.rep) for cls in problem.L)


def matrix_row(M: FieldMatrix, i: int) -> list:
    """Row i of a FieldMatrix as an entry list."""
    return _dense(M.coeffs, M._rows[i], M.cols)


def matrix_entry(M: FieldMatrix, i: int, j: int):
    """Entry (i, j) of a FieldMatrix."""
    return matrix_row(M, i)[j]


def vanishing_below(S: Subspace, k: int) -> Subspace:
    """The vectors of S that are zero at every column below k: the span of
    the echelon rows that pivot at k or later, as `spanning.spans` reads its
    obstructions off its echelon."""
    rows = [r for c, r in S._echelon.rows.items() if c >= k]
    return Subspace(S.coeffs, S.ambient_dim, rows)


def extending(S: Subspace, vectors: Iterable[Sequence]) -> list[list]:
    """The vectors, in order, that each lie outside the span of S and of the
    vectors kept before them."""
    E = S._echelon.copy()
    return [list(v) for v in vectors if E.add(_to_row(S.coeffs, v, S.ambient_dim))]


def augmented_read_off(F, R: list, pivots: list, ncols: int) -> Optional[tuple]:
    """(particular, kernel) of an augmented system, as entry lists, read off
    its reduced row echelon form R, row i pivoting at pivots[i] and column
    ncols the right-hand side; None when a pivot lies there.  The particular
    is zero at every free column; the kernel row of free column j is one at
    j, zero at the other free columns and -R[i][j] at pivots[i], in
    increasing order of j."""
    if ncols in pivots:
        return None
    particular = [F.zero] * ncols
    for i, c in enumerate(pivots):
        particular[c] = R[i][ncols]
    kernel = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F.zero] * ncols
        v[j] = F.one
        for i, c in enumerate(pivots):
            v[c] = F.sub(F.zero, R[i][j])
        kernel.append(v)
    return particular, kernel


def reference_solution_spaces(M: FieldMatrix, shared: int) -> list[Optional[tuple]]:
    """Solution sets of the systems "rows below `shared`, plus row i" of M,
    one for each row i at or after `shared`, the last column of M the
    right-hand side: the reference for the witness build's spaces.  Each row
    is added to a copy of the shared rows' echelon, and `augmented_read_off`
    reads that system's reduced form.  Each entry is (particular, kernel
    rows) in FieldMatrix's internal row form, or None."""
    F, ncols = M.coeffs, M.cols - 1
    E = _echelon(F)
    for r in M._rows[:shared]:
        E.add(r)
    E.reduced()
    out = []
    for r in M._rows[shared:]:
        own = E.copy()
        own.add(r)
        rows = own.reduced().rows
        pivots = sorted(rows)
        solution = augmented_read_off(F, [_dense(F, rows[c], M.cols) for c in pivots], pivots, ncols)
        out.append(solution and (_to_row(F, solution[0], ncols),
                                 [_to_row(F, v, ncols) for v in solution[1]]))
    return out


def reference_admissible_regions(problem: SpanningProblem, side: int):
    """Reference for `solver._admissible_regions`: each cell of A blocks the
    small box of low corners of the regions whose interior it meets."""
    blocked = set()
    for c in problem.A.cells:
        blocked.update(itertools.product(*(
            range(x + 1 - side, x + (c.free_axes >> a & 1))
            for a, x in enumerate(c.anchor)
        )))
    ranges = [range(low, high - side + 1) for low, high in problem.grid.box]
    return [(lows, [lo + side for lo in lows])
            for lows in itertools.product(*ranges) if lows not in blocked]


def gauss_jordan(F, rows, cols):
    """Reference: textbook Gauss-Jordan on entry lists, lowest-column pivots.

    Returns the reduced row echelon form (pivot rows by increasing pivot,
    then zero rows) and the pivot columns."""
    R = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(cols):
        lead = len(pivots)
        piv = next((i for i in range(lead, len(R)) if R[i][col] != F.zero), None)
        if piv is None:
            continue
        R[lead], R[piv] = R[piv], R[lead]
        inv = F.inv(R[lead][col])
        R[lead] = [F.mul(inv, x) for x in R[lead]]
        for i in range(len(R)):
            f = R[i][col]
            if i != lead and f != F.zero:
                R[i] = [F.sub(x, F.mul(f, p)) for x, p in zip(R[i], R[lead])]
        pivots.append(col)
    return R, pivots


def restricted_echelon(F, rows, cols) -> tuple[dict[int, list], list[bool]]:
    """Reference: rows, as entry lists, added one at a time to an echelon
    that pivots on the columns in `cols` only.  Each row is reduced while
    its lowest column in `cols` holds a pivot, then becomes the pivot there,
    scaled to one, if it has a column in `cols` left.  Returns the pivots
    (column -> row) and, per row, whether it became one."""
    pivots: dict[int, list] = {}
    added = []
    for r in rows:
        r = restricted_reduce(F, pivots, r, cols)
        lead = next((c for c in sorted(cols) if r[c] != F.zero), None)
        if lead is not None:
            inv = F.inv(r[lead])
            pivots[lead] = [F.mul(inv, x) for x in r]
        added.append(lead is not None)
    return pivots, added


def restricted_reduce(F, pivots: dict[int, list], r, cols, every: bool = False) -> list:
    """Reference: the entry list r less pivot rows, lowest column first,
    until its lowest column in `cols` holds no pivot, or with `every` until
    it holds no pivot at all."""
    r = list(r)
    while True:
        held = [c for c in sorted(cols) if r[c] != F.zero]
        if every:
            held = [c for c in held if c in pivots]
        if not held or held[0] not in pivots:
            return r
        f = r[held[0]]
        r = [F.sub(x, F.mul(f, p)) for x, p in zip(r, pivots[held[0]])]


def reference_constrain_zero(space, col: int) -> bool:
    """Reference for `GenericAffineSpace.constrain_zeros`: intersect the
    space with {w_col = 0} by eliminating col with the first basis vector
    that holds it, which leaves the basis."""
    F = space.coeffs

    def minus_multiple(row: dict, f, v: dict) -> dict:
        out = dict(row)
        for j, y in v.items():
            x = F.sub(out.get(j, F.zero), F.mul(f, y))
            if x:
                out[j] = x
            else:
                out.pop(j, None)
        return out

    pivot = next((i for i, v in enumerate(space.basis) if col in v), None)
    if pivot is None:
        return col not in space.particular
    pv = space.basis.pop(pivot)
    inv = F.inv(pv[col])
    if col in space.particular:
        space.particular = minus_multiple(
            space.particular, F.mul(space.particular[col], inv), pv)
    space.basis = [
        minus_multiple(v, F.mul(v[col], inv), pv) if col in v else v
        for v in space.basis
    ]
    return True


def contains_class(image, rep) -> bool:
    """Membership of a cocycle on A in a `RestrictionImage`, modulo A's
    coboundaries."""
    return image.image.sum(image.coboundaries).contains(rep)


def euler_characteristic(X: CubicalComplex) -> int:
    return sum((-1) ** d * len(X.cells_of_dim(d)) for d in range(X.dim + 1))


def density_reference(f, cell: Cell, grid: GridSpec) -> Fraction:
    """f at the cell's barycenter from Fraction ambient coordinates: the
    reference for `DensityField.on_grid`, which stays in integers."""
    point = tuple(x * grid.side for x in cell.barycenter())
    if f.kind == "constant":
        return f.value
    if f.kind == "coordinate-affine":
        acc = f.offset
        for c, x in zip(f.coeffs, point):
            acc += c * x
        return acc
    dist = max((abs(x - c) for c, x in zip(f.center, point)), default=Fraction(0))
    return f.offset + f.slope * dist


def _dist2(p, q) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p, q))


def ball_measure(X: Surface, point, r: Fraction, weighted: bool) -> Fraction:
    """Measure of X's free m-cells whose ambient barycenter lies within r of
    the point, in Fractions: the reference for the diagnostics' ball sums.

    `diagnostics` compares squared distances in half-lattice units instead.
    """
    grid = X.problem.grid
    total = Fraction(0)
    for c in X.free_mcells():
        bary = tuple(x * grid.side for x in c.barycenter())
        if _dist2(bary, point) <= r**2:
            total += cell_weight(c, X.problem) if weighted else cell_measure(c, grid)
    return total


def slicing_bands(X: Surface, center, shell_width: Fraction) -> list:
    """(t_low, band weight) per nonempty band, from ambient Fraction distances:
    band j holds the cells with floor(distance / width) = j."""
    bands: dict[int, Fraction] = {}
    for c in X.free_mcells():
        bary = tuple(x * X.problem.grid.side for x in c.barycenter())
        q = _dist2(bary, center) / shell_width**2
        j = math.isqrt(q.numerator // q.denominator)
        bands[j] = bands.get(j, Fraction(0)) + cell_weight(c, X.problem)
    return [(j * shell_width, w) for j, w in sorted(bands.items())]


def regularity_reference(X: Surface, max_radius: Fraction):
    """(c_hat, sample count, worst) of `diagnostics.regularity_constant`,
    from one Fraction ball sum per (surface vertex, dyadic radius) pair."""
    side, m = X.problem.grid.side, X.problem.m
    radii = []
    r = side
    while r <= max_radius:
        radii.append(r)
        r *= 2
    verts = sorted({v for c in X.free_mcells() for v in c.corners()})
    c_hat, worst, count = None, None, 0
    for v in verts:
        point = tuple(Fraction(x) * side for x in v)
        for r in radii:
            val = ball_measure(X, point, r, weighted=False) / r**m
            count += 1
            if c_hat is None or val < c_hat:
                c_hat, worst = val, (point, r)
    return c_hat, count, worst


def rectangle_loops(grid: GridSpec) -> list[DualLoop]:
    """All axis-aligned dual rectangle loops of the grid, as voxel walks.

    In each coordinate plane (p, q), with the other voxel coordinates inside
    the box, the corners p0 < p1 and q0 < q1 range from one voxel below the
    box up to its upper end.  This is the loop set whose crossing masks
    `oracle.build_loop_catalogue` computes from prefix masks; tests walk it
    through `linking.crossed_faces` as the reference.
    """
    n = grid.n
    out = []
    for p, q in itertools.combinations(range(n), 2):
        others = [a for a in range(n) if a not in (p, q)]
        p_lo, p_hi = grid.box[p][0] - 1, grid.box[p][1]
        q_lo, q_hi = grid.box[q][0] - 1, grid.box[q][1]
        for pos in itertools.product(*(range(*grid.box[a]) for a in others)):
            fixed = [0] * n
            for a, v in zip(others, pos):
                fixed[a] = v

            def voxel(vp: int, vq: int) -> tuple[int, ...]:
                v = list(fixed)
                v[p], v[q] = vp, vq
                return tuple(v)

            for p0 in range(p_lo, p_hi):
                for p1 in range(p0 + 1, p_hi + 1):
                    for q0 in range(q_lo, q_hi):
                        for q1 in range(q0 + 1, q_hi + 1):
                            out.append(DualLoop(
                                tuple(voxel(t, q0) for t in range(p0, p1))
                                + tuple(voxel(p1, t) for t in range(q0, q1))
                                + tuple(voxel(t, q1) for t in range(p1, p0, -1))
                                + tuple(voxel(p0, t) for t in range(q1, q0, -1))
                            ))
    return out


# ---------------------------------------------------------------------------
# Linking numbers of dual loops with boundary curves (n = 3): the signed
# crossings of a loop with an integral 2-chain that bounds the curve, built
# by an axis-sweep prism construction (acceptance criterion 5).


def bounding_chain(
    cycle: dict[Cell, int], grid: GridSpec, axis_order: Optional[Sequence[int]] = None
) -> dict[Cell, int]:
    """An integral 2-chain F with boundary equal to the given 1-cycle.

    Sweeps the cycle to the low box corner one axis at a time; the shadow
    faces of each swept edge telescope so the boundary works out exactly.
    Raises if the input is not a cycle.
    """
    order = list(axis_order) if axis_order is not None else list(range(grid.n))
    F: dict[Cell, int] = {}
    cur = {c: v for c, v in cycle.items() if v}
    for c in cur:
        if c.dim != 1:
            raise ValueError("bounding_chain expects a 1-chain")
    for axis in order:
        low = grid.box[axis][0]
        nxt: dict[Cell, int] = {}
        for edge, coeff in cur.items():
            f = edge.axes()[0]
            if f == axis:
                continue  # absorbed by the shadow walls of the other edges
            sigma = 1 if axis < f else -1
            mask = 1 << axis | 1 << f
            for t in range(low, edge.anchor[axis]):
                anchor = list(edge.anchor)
                anchor[axis] = t
                face = Cell(tuple(anchor), mask)
                F[face] = F.get(face, 0) + sigma * coeff
            proj_anchor = list(edge.anchor)
            proj_anchor[axis] = low
            proj = Cell(tuple(proj_anchor), edge.free_axes)
            nxt[proj] = nxt.get(proj, 0) + coeff
        cur = {c: v for c, v in nxt.items() if v}
    if cur:
        raise ValueError("input 1-chain is not a cycle")
    F = {c: v for c, v in F.items() if v}
    # edges parallel to a sweep axis are silently absorbed above, so a
    # non-cycle can survive the telescoping; verify the boundary explicitly
    if chain_boundary(F) != {c: v for c, v in cycle.items() if v}:
        raise ValueError("input 1-chain is not a cycle")
    return F


def chain_boundary(chain: dict[Cell, int]) -> dict[Cell, int]:
    out: dict[Cell, int] = {}
    for c, coeff in chain.items():
        for f, sign in boundary_incidences(c):
            out[f] = out.get(f, 0) + sign * coeff
    return {c: v for c, v in out.items() if v}


def linking_number(
    gamma: DualLoop, Ai: CubicalComplex, grid: GridSpec,
    axis_order: Optional[Sequence[int]] = None,
) -> int:
    """Linking number of a dual loop with a closed-curve boundary component."""
    if grid.n != 3:
        raise ValueError("linking numbers are computed for n = 3")
    orientation = fundamental_cycle(Ai, 2)
    F = bounding_chain(orientation, grid, axis_order)
    residue = chain_boundary(F)
    if residue != {c: v for c, v in orientation.items() if v}:
        raise AssertionError("bounding chain failed verification")
    total = 0
    for face, sign in crossed_faces(gamma, grid):
        total += sign * F.get(face, 0)
    return total


def loop_crossing_parity(loop: DualLoop, chain_support: Iterable[Cell],
                         grid: GridSpec) -> int:
    """Mod-2 crossing count of a dual loop with a set of (n-1)-cells."""
    support = set(chain_support)
    count = 0
    for face, _ in crossed_faces(loop, grid):
        if face in support:
            count ^= 1
    return count


# ---------------------------------------------------------------------------
# The paper's deformation step: the push of a surface onto cube frontiers,
# with its (4n)^m shadow bound (acceptance criterion 3).  No program path
# uses it; local_replace minimizes each region exactly instead.


def _region_split(
    cells: Iterable[Cell], lows: Sequence[int], highs: Sequence[int]
) -> tuple[list[Cell], list[Cell]]:
    """(interior, frontier) among the cells that lie in the closed region."""
    interior, frontier = [], []
    for c in cells:
        inside = True
        on_boundary = False
        for a, (low, high) in enumerate(zip(lows, highs)):
            lo = c.anchor[a]
            hi = lo + (1 if c.has_axis(a) else 0)
            if lo < low or hi > high:
                inside = False
                break
            if not c.has_axis(a) and (lo == low or lo == high):
                on_boundary = True
        if inside:
            (frontier if on_boundary else interior).append(c)
    return interior, frontier


@dataclass
class PushOutcome:
    surface: Surface
    accepted: bool
    shadow_measure: Fraction
    interior_measure: Fraction

    @property
    def ratio_ok(self) -> bool:
        n = self.surface.problem.grid.n
        m = self.surface.problem.m
        bound = Fraction(4 * n) ** m
        return self.shadow_measure <= bound * self.interior_measure


def _project_point(p: tuple[Fraction, ...], v: tuple[Fraction, ...]):
    """Radial projection of v from center p onto the frontier of the 2-block."""
    d = tuple(x - y for x, y in zip(v, p))
    mx = max(abs(x) for x in d)
    if mx == 0:
        return None
    t = 1 / mx
    landing = tuple(y + t * x for x, y in zip(d, p))
    facets = [
        (a, 1 if d[a] > 0 else -1) for a in range(len(d)) if abs(d[a]) == mx
    ]
    return landing, facets


def skeleton_push(X: Surface, lows: Sequence[int],
                  system: Optional[WitnessSystem] = None) -> PushOutcome:
    """Push X out of the open coarse block (side 2) onto its frontier.

    The interior content is replaced by the boundary cells met by the radial
    cones from the block center; the move is rolled back if the relative
    coboundary domination fails (the continuous projection argument does not
    automatically survive rounding to cells).
    """
    problem = X.problem
    grid = problem.grid
    n, m = grid.n, problem.m
    highs = [lo + 2 for lo in lows]
    box = grid.box
    for a in range(n):
        if not box[a][0] <= lows[a] < highs[a] <= box[a][1]:
            raise ValueError("coarse block outside the grid box")
    if _region_split(problem.A.cells, lows, highs)[0]:
        raise ValueError("coarse block interior touches A")
    block_grid = GridSpec(n, grid.k, tuple(zip(lows, highs)))
    interior, frontier = _region_split(
        sorted(box_cells(block_grid.box, m)), lows, highs
    )
    interior_set = set(interior)
    inside_now = sorted(c for c in X.mcells if c in interior_set)
    if not inside_now:
        return PushOutcome(X, True, Fraction(0), Fraction(0))

    center = tuple(Fraction(lo + 1) for lo in lows)
    frontier_by_facet: dict[tuple[int, int], list[Cell]] = {}
    for b in frontier:
        for a in range(n):
            if not b.has_axis(a):
                if b.anchor[a] == lows[a]:
                    frontier_by_facet.setdefault((a, -1), []).append(b)
                if b.anchor[a] == highs[a]:
                    frontier_by_facet.setdefault((a, 1), []).append(b)

    shadow: set[Cell] = set()
    for c in inside_now:
        landings: dict[tuple[int, int], list[tuple[Fraction, ...]]] = {}
        for corner in c.corners():
            pt = _project_point(center, tuple(Fraction(x) for x in corner))
            if pt is None:
                continue
            landing, facets = pt
            for facet in facets:
                landings.setdefault(facet, []).append(landing)
        for facet, pts in landings.items():
            axes = [a for a in range(n) if a != facet[0]]
            los = [min(p[a] for p in pts) for a in axes]
            his = [max(p[a] for p in pts) for a in axes]
            for b in frontier_by_facet.get(facet, []):
                ok = True
                for i, a in enumerate(axes):
                    blo = Fraction(b.anchor[a])
                    bhi = blo + (1 if b.has_axis(a) else 0)
                    if bhi < los[i] or blo > his[i]:
                        ok = False
                        break
                if ok and b.dim == m:
                    shadow.add(b)

    shadow_measure = sum(
        (cell_measure(b, grid) for b in shadow), Fraction(0)
    )
    interior_measure = sum(
        (cell_measure(c, grid) for c in inside_now), Fraction(0)
    )
    bound = Fraction(4 * n) ** m
    if shadow_measure > bound * interior_measure:
        raise AssertionError("skeleton push exceeded the (4n)^m measure bound")

    x_interior, x_frontier = _region_split(X.complex.cells, lows, highs)
    T = CubicalComplex(block_grid, x_frontier, closed=True)
    Xin = CubicalComplex(block_grid, x_interior + x_frontier, closed=True)
    Y = CubicalComplex(block_grid, set(T.cells) | shadow)
    if not relative_coboundary_dominates(Y, Xin, T, m - 1, problem.coeffs):
        return PushOutcome(X, False, shadow_measure, interior_measure)
    new_mcells = (X.mcells - interior_set) | shadow
    result = Surface(problem, frozenset(new_mcells))
    system = system or build_witness_system(problem)
    if not system.spans_surface(result):
        return PushOutcome(X, False, shadow_measure, interior_measure)
    return PushOutcome(result, True, shadow_measure, interior_measure)


@pytest.fixture(scope="session")
def disk_problem():
    return build_problem(load("disk3"))


@pytest.fixture(scope="session")
def disk_system(disk_problem):
    return build_witness_system(disk_problem)


@pytest.fixture(scope="session")
def tiny_problem():
    return build_problem(load("rings_tiny"))


@pytest.fixture(scope="session")
def tiny_system(tiny_problem):
    return build_witness_system(tiny_problem)


@pytest.fixture(scope="session")
def torus_problem():
    return build_problem(load("torus"))


@pytest.fixture(scope="session")
def scenario_runs():
    """One full pipeline run per shipped scenario, reused across tests."""
    out = {}
    for name in SCENARIO_NAMES:
        scenario = load(name)
        report, X = run(scenario)
        out[name] = (report, X, scenario)
    return out
