"""Dual-lattice loops and the grid faces they cross.

Loops run through voxel centers (dual lattice), so every step crosses exactly
one grid face transversally, with a sign.  Paired with a bounding chain of a
boundary curve, the signed crossings give a linking number; the tests build
those chains.  The oracle computes its loops' crossing masks from prefix
words instead, and the tests walk loops through `crossed_faces` as its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Cell, GridSpec


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
