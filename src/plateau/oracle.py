"""Exhaustive minimization with certified optimality (branch and bound).

The search is `witness.branch_and_bound` over the whole (cropped) box:
branching includes or excludes one m-cell at a time, exclusion constrains
every class's witness space, and a node is closed as soon as the included
cells alone carry a witness for every class.  Lower bounds come from
face-disjoint packings of dual-lattice loops whose crossing parity is odd on
every witness of some class: each such loop forces at least one of its
crossed faces into any spanning surface.

A budget caps the number of expanded nodes; on exhaustion the best surface
found is reported together with a still-valid global lower bound.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Cell, CubicalComplex, GridSpec
from .linalg import bit_indices
from .solver import SolverConfig, frac_str, solve
from .spanning import CohomologyClass, SpanningProblem, Surface
from .witness import WitnessSystem, branch_and_bound, build_witness_system


@dataclass(frozen=True)
class OracleConfig:
    budget: int = 500_000
    time_limit: float = 540.0
    use_loops: bool = True
    warm_start: bool = True

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"oracle budget must be at least 1, got {self.budget}")
        if self.time_limit <= 0:
            raise ValueError(f"oracle time_limit must be positive, got {self.time_limit}")


@dataclass
class OracleResult:
    best_weight: Fraction
    lower_bound: Fraction
    optimal: bool
    nodes: int
    best_mcells: frozenset[Cell]
    cropped_box: tuple[tuple[int, int], ...]
    loop_count: int

    def to_dict(self) -> dict:
        return {
            "best_weight": frac_str(self.best_weight),
            "lower_bound": frac_str(self.lower_bound),
            "optimal": self.optimal,
            "nodes": self.nodes,
            "cells": len(self.best_mcells),
            "cropped_box": [list(b) for b in self.cropped_box],
            "loop_count": self.loop_count,
        }


# ---------------------------------------------------------------------------
# crop reduction


def crop_problem(problem: SpanningProblem) -> SpanningProblem:
    """Shrink the box to the hull of A along density-invariant axes.

    Clamping a witness chain into the hull along such an axis fixes A, keeps
    the boundary inside A and never increases weight, so the cropped minimum
    equals the original one.
    """
    grid = problem.grid
    n = grid.n
    box = []
    for a in range(n):
        lo0, hi0 = grid.box[a]
        if not problem.density.constant_along(a):
            box.append((lo0, hi0))
            continue
        lo = min(c.anchor[a] for c in problem.A.cells)
        hi = max(c.anchor[a] + (1 if c.has_axis(a) else 0) for c in problem.A.cells)
        if lo == hi:
            hi = hi + 1 if hi < hi0 else hi
            lo = lo - 1 if lo == hi else lo
        box.append((lo, hi))
    new_box = tuple(box)
    if new_box == grid.box:
        return problem
    new_grid = GridSpec(n, grid.k, new_box)
    new_A = CubicalComplex(new_grid, problem.A.cells, closed=True)
    new_L = [
        CohomologyClass(new_A, cls.degree, list(cls.rep), cls.label)
        for cls in problem.L
    ]
    return SpanningProblem(
        new_A, new_grid, problem.m, new_L, problem.coeffs, problem.density
    )


# ---------------------------------------------------------------------------
# dual-loop catalogue


def build_loop_catalogue(system: WitnessSystem) -> list[int]:
    """Crossing masks of dual loops that are odd on some class's witnesses.

    The loops are the axis-aligned voxel rectangles of every coordinate plane
    (p, q), corners up to one voxel outside the box: they subsume lines,
    elbows, U-shapes and the unit squares around single edges.  Only applies
    to codimension-one surfaces over GF(2); otherwise empty.  Returned masks
    are deduplicated and sorted by popcount for greedy packing.
    """
    problem = system.problem
    box = problem.grid.box
    n = len(box)
    if problem.coeffs.kind != "gf2" or problem.m != n - 1:
        return []
    column = system.column
    ext = [range(lo - 1, hi + 1) for lo, hi in box]
    # prefix[a][v]: XOR of the columns of the in-box faces normal to axis a
    # on the voxel line through v, up to v.  A rectangle crosses four such
    # segments, each the XOR of two prefixes, so its mask is the XOR of
    # prefix[p] ^ prefix[q] over its four corner voxels.
    prefix: list[dict] = [{} for _ in box]
    for v in itertools.product(*ext):
        for a, line in enumerate(prefix):
            col = column.get(Cell(v, (1 << n) - 1 ^ 1 << a))
            below = line.get(v[:a] + (v[a] - 1,) + v[a + 1:], 0)
            line[v] = below if col is None else below ^ 1 << col

    masks: set[int] = set()
    for p, q in itertools.combinations(range(n), 2):
        others = (range(1) if b in (p, q) else range(*box[b]) for b in range(n))
        for t in itertools.product(*others):
            # corner[i][k]: prefix[p] ^ prefix[q] at voxel (ext[p][i], ext[q][k]);
            # with d = corner[i] ^ corner[j], rectangle i < j, k < l has mask d[k] ^ d[l]
            corner = [[0] * len(ext[q]) for _ in ext[p]]
            for (i, x), (k, y) in itertools.product(enumerate(ext[p]), enumerate(ext[q])):
                v = t[:p] + (x,) + t[p + 1:q] + (y,) + t[q + 1:]
                corner[i][k] = prefix[p][v] ^ prefix[q][v]
            for i, low in enumerate(corner):
                for high in corner[i + 1:]:
                    d = [a ^ b for a, b in zip(low, high)]
                    for k, dk in enumerate(d):
                        masks.update(dk ^ dl for dl in d[k + 1:])
    masks.discard(0)

    valid: list[int] = []
    for g in sorted(masks, key=lambda m: (m.bit_count(), m)):
        for s in system.spaces:
            if (s.particular & g).bit_count() & 1 and all(
                not (v & g).bit_count() & 1 for v in s.basis
            ):
                valid.append(g)
                break
    return valid


def packing_lower_bound(
    loops: list[int], satisfied_mask: int, excluded_mask: int,
    weights: Sequence[int], floors: dict[int, int],
) -> tuple[int, bool]:
    """Greedy face-disjoint loop packing; (bound, feasible).

    Each packed loop forces one distinct cell among its available faces, so
    the sum of per-loop minimum face weights bounds any completion from below.
    `floors[g]` is loop g's minimum over all its faces, used when none is
    excluded.  A loop with no available face at all proves the node infeasible.
    """
    used = 0
    lb = 0
    keep = ~excluded_mask
    for g in loops:
        if g & satisfied_mask:
            continue
        avail = g & keep
        if not avail:
            return lb, False
        if avail & used:
            # a cell satisfying an already-packed loop could satisfy this one
            continue
        used |= avail
        lb += floors[g] if avail == g else min(weights[j] for j in bit_indices(avail))
    return lb, True


# ---------------------------------------------------------------------------
# certified scan


def isoperimetric_scan(
    problem: SpanningProblem, cfg: Optional[OracleConfig] = None
) -> OracleResult:
    """Certified minimum weight over all spanning surfaces of the problem."""
    cfg = cfg or OracleConfig()
    t0 = time.monotonic()
    work = crop_problem(problem)
    if not work.L:
        return OracleResult(
            Fraction(0), Fraction(0), True, 0, frozenset(), work.grid.box, 0
        )
    system = build_witness_system(work)
    weights = system.weights
    a_mask = system.mask_of(work.A.cells_of_dim(work.m))
    loops = build_loop_catalogue(system) if cfg.use_loops else []

    best_weight: Optional[int] = None
    best_mask = 0
    if cfg.warm_start:
        X_ub, _ = solve(work, SolverConfig(), system)
        best_mask = system.mask_of(X_ub.mcells) | a_mask
        best_weight = system.weight(best_mask)

    floors = {g: min(weights[j] for j in bit_indices(g)) for g in loops}

    def node_bound(live: list[int], include_bit: int, exclude: int, w: int):
        lb, feasible = packing_lower_bound(live, include_bit, exclude, weights, floors)
        return (w + lb), feasible

    search = branch_and_bound(
        system.copy_spaces(), a_mask, weights, best_weight, loops=loops,
        bound=node_bound, budget=cfg.budget, deadline=t0 + cfg.time_limit,
    )
    if search.best is not None:
        best_weight, best_mask = search.best
    if best_weight is None:
        if not search.exhausted:
            raise AssertionError("search ended without any spanning surface")
        # budget ran out before any incumbent: fall back to the full fill,
        # which always spans (the box is contractible)
        best_mask = system.full_mask()
        best_weight = system.weight(best_mask)
    if search.exhausted:
        lower = min(search.open_bounds + [best_weight])
        optimal = lower == best_weight
    else:
        lower = best_weight
        optimal = True

    cells = frozenset(
        system.mcells[j] for j in bit_indices(best_mask & ~a_mask)
    )
    # report against the original problem (crop preserves the optimum)
    scale = system.scale
    return OracleResult(
        Fraction(best_weight, scale), Fraction(lower, scale), optimal,
        search.nodes, cells, work.grid.box, len(loops),
    )


def oracle_surface(problem: SpanningProblem, result: OracleResult) -> Surface:
    """Lift the oracle's winning cell set back onto the original problem."""
    return Surface(problem, result.best_mcells)
