"""Exhaustive minimization with certified optimality (root LP, then branch and bound).

Every spanning surface meets each dual-lattice loop whose crossing parity is
odd on every witness of some class: the loop forces at least one of its
crossed faces into the surface.  Before any search, the loop-packing LP over
the root's loops (max sum y_g with each face's load at most its weight; a
loop enters the simplex only once the dual prices violate it) gives a lower
bound, checked exactly in integers, and its dual prices, rounded at 1/2,
give a candidate surface.  When that surface, or the solver's warm start,
spans and weighs no more than the bound, it is certified optimal without a
single search node.  `root_stage` is this root on its own: `solver.solve`
starts from it too.

Otherwise the search is `witness.branch_and_bound` over the whole (cropped)
box: branching includes or excludes one m-cell at a time, exclusion
constrains every class's witness space, and a node is closed as soon as the
included cells alone carry a witness for every class.  Node lower bounds come
from greedy face-disjoint packings of the same loops.  A budget caps the
number of expanded nodes; on exhaustion the best surface found is reported
together with a still-valid global lower bound, at least the LP's.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Cell, HalfLattice
from .linalg import bit_indices
from .spanning import SpanningProblem, Surface
from .witness import WitnessSystem, branch_and_bound, build_witness_system


def frac_str(x: Fraction) -> str:
    """Exact report form of a rational: "p/q", or "p" for an integer."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True)
class OracleConfig:
    budget: int = 500_000
    time_limit: float = 540.0
    warm_start: bool = True

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"oracle budget must be at least 1, got {self.budget}")
        if not self.time_limit > 0:  # also rejects NaN
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
    # lp_root: the root LP bound certified the incumbent with no search;
    # done: the search finished; budget, time: a limit stopped it
    stop: str

    def to_dict(self) -> dict:
        return {
            "best_weight": frac_str(self.best_weight),
            "lower_bound": frac_str(self.lower_bound),
            "optimal": self.optimal,
            "nodes": self.nodes,
            "cells": len(self.best_mcells),
            "cropped_box": [list(b) for b in self.cropped_box],
            "loop_count": self.loop_count,
            "stop": self.stop,
        }


# ---------------------------------------------------------------------------
# crop reduction


def crop_problem(problem: SpanningProblem) -> SpanningProblem:
    """Shrink the box to the hull of A along density-invariant axes.

    Clamping a witness chain into the hull along such an axis fixes A, keeps
    the boundary inside A and never increases weight, so the cropped minimum
    equals the original one.  An empty A has no hull and keeps its box.
    """
    grid = problem.grid
    n = grid.n
    box = []
    for a in range(n):
        lo0, hi0 = grid.box[a]
        if not problem.density.constant_along(a):
            box.append((lo0, hi0))
            continue
        lo = min((c.anchor[a] for c in problem.A.cells), default=lo0)
        hi = max((c.anchor[a] + (c.free_axes >> a & 1) for c in problem.A.cells), default=hi0)
        if lo == hi:
            hi = hi + 1 if hi < hi0 else hi
            lo = lo - 1 if lo == hi else lo
        box.append((lo, hi))
    new_box = tuple(box)
    if new_box == grid.box:
        return problem
    return problem.cropped(new_box)


# ---------------------------------------------------------------------------
# dual-loop catalogue


def catalogue_applies(problem: SpanningProblem) -> bool:
    """Whether the loop catalogue covers the problem: codimension one over GF(2)."""
    return problem.coeffs.kind == "gf2" and problem.m == problem.grid.n - 1


def build_loop_catalogue(system: WitnessSystem, deadline: float = math.inf) -> list[int]:
    """Crossing masks of dual loops that are odd on some class's witnesses.

    The loops are the axis-aligned voxel rectangles of every coordinate plane
    (p, q), corners up to one voxel outside the box: they subsume lines,
    elbows, U-shapes and the unit squares around single edges.  Only applies
    to codimension-one surfaces over GF(2); otherwise empty.  Returned masks
    are deduplicated and sorted by popcount for greedy packing; none once the
    `time.monotonic()` instant `deadline`, checked once per plane, passes.

    Face column j is a parity word: one bit per vector of each space (its
    particular, then its basis) that holds column j, and above them mask bit
    j.  XOR is linear, so a loop's word is its parity on every vector below
    its mask, and it is kept iff some space's field reads 1.
    """
    problem = system.problem
    box = problem.grid.box
    n = len(box)
    if not catalogue_applies(problem):
        return []
    parity, fields, nbits = [0] * system.ncols, [], 0
    for s in system.spaces:
        fields.append((((1 << s.dim + 1) - 1) << nbits, 1 << nbits))
        for v in (s.particular, *s.basis):
            for j in bit_indices(v):
                parity[j] |= 1 << nbits
            nbits += 1
    # faces and voxels keyed by half-lattice ids of the box widened by one
    # voxel; ext[a] holds the voxel terms (2i + 1) strides[a] along axis a,
    # and the face of voxel v normal to axis a below it sits at v - strides[a]
    H = HalfLattice([(lo - 1, hi + 1) for lo, hi in box])
    word = {H.id(c): 1 << nbits + j | parity[j] for j, c in enumerate(system.mcells)}
    ext = [[(2 * i + 1) * s for i in range(hi - lo + 2)] for (lo, hi), s in zip(box, H.strides)]
    # prefix[a][v]: XOR of the words of the in-box faces normal to axis a
    # on the voxel line through v, up to v.  A rectangle crosses four such
    # segments, each the XOR of two prefixes, so its word is the XOR of
    # prefix[p] ^ prefix[q] over its four corner voxels.
    prefix: list[dict] = [{} for _ in box]
    for v in map(sum, itertools.product(*ext)):
        for line, s in zip(prefix, H.strides):
            line[v] = line.get(v - 2 * s, 0) ^ word.get(v - s, 0)

    words: set[int] = set()
    for p, q in itertools.combinations(range(n), 2):
        others = ([0] if b in (p, q) else ext[b][1:-1] for b in range(n))
        for base in map(sum, itertools.product(*others)):
            if time.monotonic() > deadline:
                return []
            # corner[i][k]: prefix[p] ^ prefix[q] at voxel (ext[p][i], ext[q][k]);
            # with d = corner[i] ^ corner[j], rectangle i < j, k < l has word d[k] ^ d[l]
            corner = [[prefix[p][v] ^ prefix[q][v] for v in (base + x + y for y in ext[q])]
                      for x in ext[p]]
            for low, high in itertools.combinations(corner, 2):
                # a list, not a lazy map: combinations' tuple of a map grew peak RSS 3%
                d = list(map(operator.xor, low, high))
                words.update(itertools.starmap(operator.xor, itertools.combinations(d, 2)))
    valid = {w >> nbits for f, one in fields for w in words if w & f == one}
    return sorted(valid, key=lambda g: (g.bit_count(), g))


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
# root LP

_EPS = 1e-9
_Y_SCALE = 1 << 20  # exact_packing_bound floors each y_g to a multiple of 2**-20
_ADMIT = 10  # most loops that enter the tableau in a pricing round after the first


def loop_packing_lp(
    loops: Sequence[int], weights: Sequence[int], deadline: float = math.inf
) -> Optional[tuple[list[float], dict[int, float]]]:
    """The loop-packing LP max sum y_g s.t. sum over g crossing e of y_g <= weights[e].

    Primal simplex on a sparse float tableau, one row per face that some
    loop crosses; the rows start with their slacks basic at the origin, which
    is feasible, so there is no phase 1.  Loops enter lazily: the slack
    columns hold B^-1, so a loop's column is the sum of its faces' slack
    columns and its reduced cost is its price sum minus 1.  At each optimum
    over the columns so far, the violated loops (price sum below 1) enter the
    current basis in catalogue order and face-disjoint: at the origin a
    greedy packing of all loops, later at most `_ADMIT` per round (larger
    batches fill in B^-1 faster).  With none violated the optimum is global.
    Each loop enters once, and Bland's rule (the lowest-index entering
    variable, loops before slacks, and on ratio ties the leaving row with the
    lowest-index basic variable) rules out cycling in between, so the simplex
    ends; it still stops after 10 * (rows + loops) pivots, or past `deadline`
    (checked every 8 pivots), and then returns None, as it does when rounding
    leaves an entering column with no positive entry.  Otherwise it returns
    (y, price): y[k] for loop k, and for each crossed face column the final
    reduced cost of its slack, which is the face's value in an optimal
    solution of the covering LP
    min sum w_e x_e s.t. sum over e in g of x_e >= 1.  No float decides a
    result: `exact_packing_bound` checks y, and the spanning test checks the
    rounded prices.
    """
    faces = list(bit_indices(functools.reduce(operator.or_, loops, 0)))
    row_of = {e: i for i, e in enumerate(faces)}
    nl, obj = len(loops), len(faces)
    cols = [[row_of[e] for e in bit_indices(g)] for g in loops]
    # rows[i] for face i, basic variable basic[i] (loop k, or nl + i for the
    # face's slack); rows[obj] holds the objective's reduced costs
    rows: list[dict[int, float]] = [{nl + i: 1.0} for i in range(obj)] + [{}]
    holders = {nl + i: {i} for i in range(obj)}  # variable -> rows holding it
    rhs = [float(weights[e]) for e in faces] + [0.0]
    basic = list(range(nl, nl + obj))
    idle = list(range(nl))  # loops not yet in the tableau, in catalogue order
    cap = nl  # most loops admitted in a pricing round: all of them at the origin

    for it in range(10 * (obj + nl)):
        if it % 8 == 0 and time.monotonic() > deadline:
            return None
        cost = rows[obj]
        enter = min((j for j, c in cost.items() if c < -_EPS), default=None)
        if enter is None:
            price = [cost.get(nl + i, 0.0) for i in range(obj)]
            used, admitted = 0, []
            for k in idle:
                if loops[k] & used:
                    continue
                s = sum(map(price.__getitem__, cols[k]))
                if s < 1 - _EPS:
                    used |= loops[k]
                    admitted.append(k)
                    col: dict[int, float] = {}
                    for i in cols[k]:
                        for r in holders[nl + i]:
                            col[r] = col.get(r, 0.0) + rows[r][nl + i]
                    col[obj] = s - 1.0
                    holders[k] = {r for r, a in col.items() if abs(a) > _EPS}
                    for r in holders[k]:
                        rows[r][k] = col[r]
                    if len(admitted) == cap:
                        break
            if not admitted:
                value = dict(zip(basic, rhs))
                return [value.get(k, 0.0) for k in range(nl)], dict(zip(faces, price))
            idle = [k for k in idle if k not in holders]  # admitted loops have holders
            enter, cap = admitted[0], _ADMIT
        leave, ratio = None, 0.0
        for i in holders[enter]:
            a = rows[i][enter]
            if i != obj and a > _EPS:
                t = rhs[i] / a
                if leave is None or t < ratio - _EPS or (
                    t <= ratio + _EPS and basic[i] < basic[leave]
                ):
                    leave, ratio = i, t
        if leave is None:
            return None  # every loop crosses a face, so only rounding gets here
        a = rows[leave][enter]
        pivot = {j: v / a for j, v in rows[leave].items()}
        rows[leave], rhs[leave], basic[leave] = pivot, rhs[leave] / a, enter
        for i in list(holders[enter]):
            if i == leave:
                continue
            row = rows[i]
            f = row[enter]
            for j, v in pivot.items():
                x = row.get(j, 0.0) - f * v
                if abs(x) > _EPS:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = x
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
            rhs[i] = max(0.0, rhs[i] - f * rhs[leave])
    return None


def exact_packing_bound(
    loops: Sequence[int], y: Sequence[float], weights: Sequence[int]
) -> Fraction:
    """An exact lower bound on the weight of every column set meeting all loops.

    Each y[k] is floored to a non-negative multiple of 2**-20, the face loads
    of these values are summed in integers, and their total is divided by
    the worst overload max_e load_e / weights[e] when that exceeds 1, which
    makes the packing feasible.  A set S meeting every loop then weighs at
    least sum_{e in S} load_e >= sum_k y[k].
    """
    q = [max(0, math.floor(v * _Y_SCALE)) for v in y]
    load: dict[int, int] = {}
    for g, qk in zip(loops, q):
        if qk:
            for e in bit_indices(g):
                load[e] = load.get(e, 0) + qk
    overload = Fraction(1)
    for e, x in load.items():
        cap = weights[e] * _Y_SCALE
        if x > cap:
            if not cap:
                return Fraction(0)
            overload = max(overload, Fraction(x, cap))
    return Fraction(sum(q), _Y_SCALE) / overload


def root_lp(
    system: WitnessSystem, loops: list[int], a_mask: int, deadline: float = math.inf
) -> Optional[tuple[int, Optional[int]]]:
    """(lower, primal) from the loop-packing LP over the loops that miss `a_mask`.

    `lower` is the exact bound rounded up, valid because every surface
    weight is an integer on the system's scale; `primal` is `a_mask` plus
    the faces priced above 1/2, when that spans, else None.  None when no
    loop is left or `loop_packing_lp` gives up.
    """
    loops = [g for g in loops if not g & a_mask]
    if not loops:
        return None
    lp = loop_packing_lp(loops, system.weights, deadline)
    if lp is None:
        return None
    y, price = lp
    lower = math.ceil(exact_packing_bound(loops, y, system.weights))
    mask = a_mask
    for e, x in price.items():
        if x > 0.5:
            mask |= 1 << e
    return lower, (mask if system.spans_mask(mask) else None)


@dataclass(frozen=True)
class RootStage:
    """The root of the certified search, on the cropped problem: its witness
    system, loop catalogue, the root LP's bound rounded up on the system's
    scale (0 when the LP gives up or no loop is left) and its spanning
    primal, a column mask holding A's columns (None when there is none)."""

    system: WitnessSystem
    loops: list[int]
    lower: int
    primal: Optional[int]

    @property
    def certified(self) -> bool:
        """Whether the primal weighs the bound, which makes it a minimum."""
        return self.primal is not None and self.system.weight(self.primal) == self.lower


def root_stage(problem: SpanningProblem, deadline: float = math.inf) -> RootStage:
    """Crop the problem, build its witness system, catalogue and root LP."""
    system = build_witness_system(crop_problem(problem))
    loops = build_loop_catalogue(system, deadline)
    lower, primal = root_lp(system, loops, system.a_mask, deadline) or (0, None)
    return RootStage(system, loops, lower, primal)


# ---------------------------------------------------------------------------
# certified scan


def isoperimetric_scan(
    problem: SpanningProblem, cfg: Optional[OracleConfig] = None
) -> OracleResult:
    """Certified minimum weight over all spanning surfaces of the problem."""
    cfg = cfg or OracleConfig()
    deadline = time.monotonic() + cfg.time_limit
    if not problem.L:
        box = crop_problem(problem).grid.box
        return OracleResult(Fraction(0), Fraction(0), True, 0, frozenset(), box, 0, "done")
    root = root_stage(problem, deadline)
    system, loops, lower = root.system, root.loops, root.lower
    work, weights, a_mask = system.problem, system.weights, system.a_mask

    best_weight: Optional[int] = None
    best_mask = 0
    if root.primal is not None:
        best_mask, best_weight = root.primal, system.weight(root.primal)
    timed_out = time.monotonic() > deadline  # the search then stops at once
    if cfg.warm_start and not timed_out and not root.certified:
        from .solver import SolverConfig, solve  # solver imports this module

        # solve takes this root as it is and runs it no second time
        X_ub, _ = solve(work, SolverConfig(), system, root)
        warm = system.mask_of(X_ub.mcells) | a_mask
        w = system.weight(warm)
        if best_weight is None or w < best_weight:
            best_mask, best_weight = warm, w
    nodes, stop = 0, "lp_root"
    if best_weight is None or best_weight > lower:
        floors = {g: min(weights[j] for j in bit_indices(g)) for g in loops}

        def node_bound(live: list[int], include_bit: int, exclude: int, w: int):
            lb, feasible = packing_lower_bound(live, include_bit, exclude, weights, floors)
            return (w + lb), feasible

        search = branch_and_bound(
            system.copy_spaces(), a_mask, weights, best_weight, loops=loops,
            bound=node_bound, budget=cfg.budget, deadline=deadline,
        )
        nodes = search.nodes
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
            lower = max(lower, min(search.open_bounds + [best_weight]))
            stop = "budget" if nodes >= cfg.budget else "time"
        else:
            lower = best_weight
            stop = "done"

    # report against the original problem (crop preserves the optimum)
    scale = system.scale
    return OracleResult(
        Fraction(best_weight, scale), Fraction(lower, scale), lower == best_weight,
        nodes, system.surface(best_mask).mcells, work.grid.box, len(loops), stop,
    )


def oracle_surface(problem: SpanningProblem, result: OracleResult) -> Surface:
    """Lift the oracle's winning cell set back onto the original problem."""
    return Surface(problem, result.best_mcells)
