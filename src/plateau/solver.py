"""Minimization of weighted area over spanning surfaces.

Where the oracle's loop catalogue applies and L is non-empty, `solve` first
runs the oracle's root stage on the cropped problem.  A root LP primal that
weighs the rounded-up bound is a minimum, and 1-minimal since every free
cell weighs at least a > 0; spanning does not depend on the box, so it is
lifted to the full box and returned as it is.  Otherwise: fill the full
m-skeleton (contractible box, so it spans), greedily remove cells in one
pass while the spanning verdict survives (a cell that cannot go at its turn
never can, see `greedy_minimize`), do the same from the witness re-seeding
and from the lifted root primal, then sweep local replacements over 2-boxes
from the lightest (a unit box holds no interior m-cell when m < n, and when
m = n its one cell lies on a 1-minimal surface).  A local replacement is an
exact minimization of one region's interior on the witness branch-and-bound
that the oracle also runs.  Every accepted move preserves spanning by
construction and the final surface is 1-minimal.  Every stage works on the
caller's witness system (only `solve` and `assert_one_minimal` build one when
none is given) and on column masks over its m-cells that hold A's columns;
`solve` builds one `Surface`, at its exit.  Greedy removal and local moves
zero a column set in one pass per space; witness re-seeding solves each
order's member on an echelon.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import spanning
from .lattice import Cell, box_cells
from .linalg import bit_indices
from .oracle import RootStage, catalogue_applies, frac_str, root_stage
from .spanning import SpanningProblem, Surface
from .witness import WitnessSystem, branch_and_bound, build_witness_system

# The paper's local-move test, relative coboundary domination.  No solver
# path calls it; bench/tracing.py wraps it in every module that binds it, and
# the harness's own test checks the wrapper at this binding.
relative_coboundary_dominates = spanning.relative_coboundary_dominates


@dataclass(frozen=True)
class SolverConfig:
    removal_order: str = "heaviest-first"
    max_passes: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.removal_order not in ("heaviest-first", "random"):
            raise ValueError(f"unknown removal order {self.removal_order!r}")
        if self.max_passes < 1:
            raise ValueError("max_passes must be positive")


@dataclass
class SolveReport:
    initial_weight: Fraction
    final_weight: Fraction
    moves: list[tuple[str, Fraction]] = field(default_factory=list)
    spans_verified: bool = False
    wall_time: float = 0.0
    # the root LP's exact bound, where the root stage ran; else None
    lower_bound: Optional[Fraction] = None

    @property
    def certified(self) -> bool:
        """Whether the final weight meets the lower bound, so it is a minimum."""
        return self.final_weight == self.lower_bound

    def to_dict(self) -> dict:
        out = {
            "initial_weight": frac_str(self.initial_weight),
            "final_weight": frac_str(self.final_weight),
            "moves": [[kind, frac_str(delta)] for kind, delta in self.moves],
            "spans_verified": self.spans_verified,
            "wall_time_seconds": round(self.wall_time, 3),
        }
        if self.lower_bound is not None:
            out["lower_bound"] = frac_str(self.lower_bound)
            out["certified"] = self.certified
        return out


def cell_weight(cell: Cell, problem: SpanningProblem) -> Fraction:
    """Weight of one m-cell of the problem's box."""
    table, scale = problem.weight_table()
    return Fraction(table[cell], scale)


def surface_weight(X: Surface) -> Fraction:
    """Weighted m-measure of X minus A, exactly."""
    table, scale = X.problem.weight_table()
    return Fraction(sum(table[c] for c in X.free_mcells()), scale)


def greedy_minimize(
    X0: int, cfg: SolverConfig, system: WitnessSystem
) -> tuple[int, list[tuple[str, Fraction]]]:
    """Remove columns one at a time while every class keeps a witness chain.

    Returns the reduced mask and one ("remove", -weight) move per removed
    cell.  One pass leaves it 1-minimal: a cell stays only when some space
    holds its column in `particular` and in no basis vector, and zeroing
    other columns only adds multiples of vectors that lack that column, so
    no later removal frees a kept cell.  Raises ValueError unless X0 spans.
    """
    spaces = system.copy_spaces()
    for s in spaces:
        if not s.constrain_zeros(system.full_mask() & ~X0):
            raise ValueError("greedy_minimize requires a spanning start surface")

    weights, scale = system.weights, system.scale
    # columns follow the sorted m-cells, so a stable sort on weight alone
    # breaks ties by cell
    free = list(bit_indices(X0 & ~system.a_mask))
    if cfg.removal_order == "heaviest-first":
        free.sort(key=lambda j: -weights[j])
    else:
        random.Random(cfg.seed).shuffle(free)

    moves: list[tuple[str, Fraction]] = []
    X = X0
    for col in free:
        if all(s.can_zero(col) for s in spaces):
            for s in spaces:
                s.constrain_zero(col)
            X &= ~(1 << col)
            moves.append(("remove", Fraction(-weights[col], scale)))
    return X, moves


def contract_to_witnesses(system: WitnessSystem) -> int:
    """A plus one low-weight witness chain per class, drawn from the box.

    Within each class's witness space, coordinates are zeroed greedily
    heaviest-first, in 2n tie-breaking orders (`zeroed_supports` solves each
    order's survivor directly); the surviving member is a witness chain, so
    the union spans by construction.  It escapes poor 1-minimal surfaces
    that greedy removal gets stuck on.
    """
    problem = system.problem
    a_mask = system.a_mask
    # several deterministic zeroing orders of the free columns; per class the
    # lightest survivor wins (which cells a greedy zeroing leaves is highly
    # order-sensitive).  Columns follow the sorted m-cells, so a stable sort
    # breaks the remaining ties by cell.
    weights, mcells = system.weights, system.mcells
    free = list(bit_indices(system.full_mask() & ~a_mask))
    orders = [
        sorted(free, key=lambda j, a=axis, s=sign: (-weights[j], s * mcells[j].anchor[a]))
        for axis in range(problem.grid.n)
        for sign in (1, -1)
    ]

    candidates = [  # each class's distinct supports, in order of first appearance
        list(dict.fromkeys(s_mask & ~a_mask for s_mask in space.zeroed_supports(orders)))
        for space in system.spaces
    ]

    # the union weight rewards sharing cells across classes, so pick one
    # candidate witness per class jointly when that is enumerable
    keep = 0
    if math.prod(len(supports) for supports in candidates) <= 4096:
        best_w: Optional[int] = None
        for combo in itertools.product(*candidates):
            union = 0
            for s_mask in combo:
                union |= s_mask
            w = system.weight(union)
            if best_w is None or w < best_w:
                best_w, keep = w, union
    else:
        for supports in candidates:
            keep |= min(supports, key=lambda s_mask: (system.weight(s_mask & ~keep), s_mask))
    return keep | a_mask


# ---------------------------------------------------------------------------
# local replacement (exact minimization inside small subboxes)

# node cap of one local move's search.  The shipped scenarios settle every
# side-2 region at the root node; a capped search keeps the lightest refill
# found so far, which still spans and is never heavier than X's own.
LOCAL_NODE_CAP = 20_000


def region_interior(system: WitnessSystem, lows: Sequence[int],
                    highs: Sequence[int]) -> int:
    """The mask of the region's interior m-cells: inside it and off its
    frontier.  Raises unless the region lies in the box and no cell of A
    lies in its interior."""
    problem = system.problem
    box = problem.grid.box
    for a in range(problem.grid.n):
        if not box[a][0] <= lows[a] < highs[a] <= box[a][1]:
            raise ValueError("region outside the grid box")
    for c in problem.A.cells:
        if all(
            lo <= x < hi if c.has_axis(a) else lo < x < hi
            for a, (x, lo, hi) in enumerate(zip(c.anchor, lows, highs))
        ):
            raise ValueError("region interior touches the boundary complex A")
    return system.mask_of(box_cells(tuple(zip(lows, highs)), problem.m, interior=True))


def local_replace(X: int, interior: int, system: WitnessSystem) -> int:
    """Exact minimum-weight refilling of X inside one small region.

    `interior` is the mask of the region's interior m-cells, which must
    avoid A (`region_interior`).  Every column outside it stays as in X,
    and the witness branch-and-bound that the oracle runs finds the lightest
    set of interior columns that keeps X spanning.  X itself is returned
    when it has no interior column, or when no refill is strictly lighter
    than its own.  The search stops after LOCAL_NODE_CAP nodes with the
    lightest refill found so far.  Raises ValueError when X has interior
    columns but does not span.
    """
    current = X & interior
    if not current:
        return X
    spaces = system.copy_spaces()
    for s in spaces:
        s.constrain_zeros(system.full_mask() & ~(X | interior))
    if not all(s.member_within(X) is not None for s in spaces):
        raise ValueError("local_replace requires a spanning surface")
    search = branch_and_bound(
        spaces, X & ~interior, system.weights, system.weight(current),
        budget=LOCAL_NODE_CAP,
    )
    if search.best is None:
        return X
    return X & ~interior | search.best[1] & interior


# ---------------------------------------------------------------------------
# full pipeline


def _admissible_regions(problem: SpanningProblem):
    """The 2-boxes whose interior avoids A: every interior cell of a 2-box
    holds its centre vertex, and A is closed, so it blocks the box iff it
    holds that vertex."""
    blocked = {tuple(x - 1 for x in c.anchor) for c in problem.A.cells_of_dim(0)}
    for lows in itertools.product(*(range(low, high - 1) for low, high in problem.grid.box)):
        if lows not in blocked:
            yield lows, [lo + 2 for lo in lows]


def solve(
    problem: SpanningProblem, cfg: SolverConfig,
    system: Optional[WitnessSystem] = None, root: Optional[RootStage] = None,
) -> tuple[Surface, SolveReport]:
    """The root stage where a loop catalogue applies; unless it certifies
    its primal, greedy removal from each start, then local replacement
    sweeps.  `system` (the full box's) and `root` (the oracle's root stage
    of this problem) are built here when not given and needed."""
    t0 = time.monotonic()
    if root is None and problem.L and catalogue_applies(problem):
        root = root_stage(problem)
    lower = None if root is None else Fraction(root.lower, root.system.scale)
    if root is not None and root.certified:
        # `root_lp` keeps a primal only when it spans, and spanning does not
        # depend on the box
        Y = problem.surface(root.system.surface(root.primal).mcells)
        return Y, SolveReport(lower, lower, spans_verified=True,
                              wall_time=time.monotonic() - t0, lower_bound=lower)
    if system is None and root is not None and root.system.problem is problem:
        system = root.system  # the crop kept the whole box
    system = system or build_witness_system(problem)
    scale = system.scale
    # the fill, A u every m-cell of the box, spans: the witness build raised
    # unless every class has a witness chain in the box
    X = system.full_mask()
    initial_weight = system.weight(X)
    X, moves = greedy_minimize(X, cfg, system)
    w = system.weight(X)
    # witness re-seeding (a union of per-class witness chains drawn from the
    # whole box) and the lifted root primal: each replaces the surface when
    # its greedy descent is strictly lighter
    starts = [("witness_seed", contract_to_witnesses(system))]
    if root is not None and root.primal is not None:
        lifted = system.mask_of(root.system.surface(root.primal).mcells)
        starts.append(("lp_seed", lifted | system.a_mask))
    for kind, start in starts:
        seed, _ = greedy_minimize(start, cfg, system)
        ws = system.weight(seed)
        if ws < w:
            moves.append((kind, Fraction(ws - w, scale)))
            X, w = seed, ws
    interiors = [  # listed once for every pass; each avoids A by construction
        system.mask_of(box_cells(tuple(zip(lows, highs)), problem.m, interior=True))
        for lows, highs in _admissible_regions(problem)
    ]
    for _ in range(cfg.max_passes):
        improved = False
        for interior in interiors:
            # local_replace returns X itself unless a refill is strictly lighter
            X2 = local_replace(X, interior, system)
            if X2 != X:
                w2 = system.weight(X2)
                moves.append(("local_replace", Fraction(w2 - w, scale)))
                X, w = X2, w2
                improved = True
        if improved:
            X, removals = greedy_minimize(X, cfg, system)
            moves += removals
            w = system.weight(X)
        else:
            break
    Y = system.surface(X)
    report = SolveReport(
        initial_weight=Fraction(initial_weight, scale),
        final_weight=Fraction(w, scale),
        moves=moves,
        spans_verified=system.spans_surface(Y),
        wall_time=time.monotonic() - t0,
        lower_bound=lower,
    )
    if not report.spans_verified:
        raise AssertionError("solver output lost the spanning property")
    return Y, report


def assert_one_minimal(X: Surface, system: Optional[WitnessSystem] = None) -> None:
    """Check that removing any single free m-cell breaks spanning."""
    system = system or build_witness_system(X.problem)
    base = system.mask_of(X.mcells) | system.a_mask
    for c in X.free_mcells():
        if system.spans_mask(base & ~(1 << system.column[c])):
            raise AssertionError(f"cell {c} is removable; surface not 1-minimal")
