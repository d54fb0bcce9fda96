import importlib.util
import itertools
import math
import os
from fractions import Fraction

import pytest

from plateau.cochain import coboundary_space, restriction_image
from plateau.lattice import Cell, CubicalComplex, GridSpec, cell_measure
from plateau.linalg import GF2
from plateau.linking import DualLoop
from plateau.scenarios import build_problem, load_scenario, run, scenario_from_dict
from plateau.solver import cell_weight
from plateau.spanning import SpanningProblem, Surface, canonical_L
from plateau.witness import build_witness_system

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


def restriction_spans(X: Surface) -> bool:
    """The restriction-image definition of spanning, the reference for
    `spanning.spans`: no class of L lies in the image of H^(m-1)(X) in
    H^(m-1)(A), taken modulo A's coboundaries and, for m = 1, the constants.

    It restricts the whole cocycle space of X's face-closed complex to A;
    `spans` solves one extension system over X's m-cells instead.
    """
    problem = X.problem
    image = restriction_image(X.complex, problem.A, problem.m - 1, problem.coeffs)
    cob = coboundary_space(image.A_data, problem.m - 1, problem.m == 1)
    return not any(image.image.sum(cob).contains(cls.rep) for cls in problem.L)


def density_reference(f, cell: Cell, grid: GridSpec) -> Fraction:
    """f at the cell's barycenter from Fraction ambient coordinates: the
    reference for `DensityField.at_cell`, which stays in integers."""
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
