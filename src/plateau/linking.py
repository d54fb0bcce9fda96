"""Linking numbers of dual-lattice loops with boundary components (n=3, m=2).

Loops run through voxel centers (dual lattice), so every step crosses exactly
one grid face transversally.  The linking number with a closed curve component
is the signed count of crossings with an explicit integral 2-chain bounding
the curve, built by an axis-sweep prism construction.

This module serves linking-number checks (acceptance criterion 5) and the
tests; the oracle computes its loops' crossing masks from witness columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cochain import boundary_incidences
from .lattice import Cell, CubicalComplex, GridSpec
from .spanning import fundamental_cycle


@dataclass(frozen=True)
class DualLoop:
    """Closed loop of voxel anchors; consecutive entries differ by one step.

    Voxels may lie outside the grid box; only in-box face crossings interact
    with cells of a surface.
    """

    voxels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.voxels) < 2:
            raise ValueError("loop needs at least two voxels")
        for u, v in self.steps():
            diff = [b - a for a, b in zip(u, v)]
            if sorted(map(abs, diff)) != [0] * (len(u) - 1) + [1]:
                raise ValueError(f"non-adjacent voxels {u} -> {v}")

    def steps(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        vs = self.voxels
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def step_face(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[Cell, int]:
    """The face crossed moving from voxel u to adjacent voxel v, with sign.

    The sign carries the factor (-1)**axis so that, against the cubical
    boundary convention (the face pair along the j-th free axis has sign
    (-1)**j), the crossing pairing of a closed loop with any boundary
    2-cycle telescopes to zero.  This makes linking numbers independent of
    the bounding-chain construction.
    """
    n = len(u)
    axis = next(a for a in range(n) if u[a] != v[a])
    direction = v[axis] - u[axis]
    anchor = list(u)
    if direction > 0:
        anchor[axis] += 1
    mask = (1 << n) - 1 & ~(1 << axis)
    sign = direction if axis % 2 == 0 else -direction
    return Cell(tuple(anchor), mask), sign


def crossed_faces(loop: DualLoop, grid: GridSpec) -> list[tuple[Cell, int]]:
    """In-box (face, sign) crossings of the loop, in traversal order."""
    out = []
    for u, v in loop.steps():
        face, sign = step_face(u, v)
        if grid.contains_cell(face):
            out.append((face, sign))
    return out


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
