"""Cubical complexes on dyadic grids: cells, faces, skeleta, components.

All geometry is exact: anchors are integer lattice coordinates at a fixed
dyadic level, measures are Fractions.  Cells are identified
combinatorially (minimal-corner anchor + bitmask of free axes), never by
floating point data.  A cell is a NamedTuple, so hashing, comparison and
construction run in C; it compares equal to the plain tuple
(anchor, free_axes).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class GridSpec:
    """A dyadic grid at level k inside an integer bounding box.

    Cell side length is 2**-k in ambient units; anchors are in lattice units,
    i.e. an anchor coordinate c corresponds to the point c * 2**-k.
    """

    n: int
    k: int
    box: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 6:
            raise ValueError(f"ambient dimension must be in 1..6, got {self.n}")
        if len(self.box) != self.n:
            raise ValueError("bounding box must have one (low, high) pair per axis")
        if not 0 <= self.k <= 64:  # weights are integers over 2**(k m): memory grows with k
            raise ValueError(f"grid.k must lie in 0..64, got {self.k}")
        for low, high in self.box:
            if low >= high:
                raise ValueError(f"degenerate box axis: low={low} high={high}")

    @property
    def side(self) -> Fraction:
        return Fraction(1, 2**self.k)

    @cached_property
    def half_lattice(self) -> "HalfLattice":
        return HalfLattice(self.box)

    def contains_cell(self, cell: "Cell") -> bool:
        free = cell.free_axes
        for a, (low, high) in enumerate(self.box):
            x = cell.anchor[a]
            if x < low or x + (free >> a & 1) > high:
                return False
        return True


class Cell(NamedTuple):
    """A d-cell of the grid: minimal corner + bitmask of spanned axes.

    Hash, order and repr are those of the tuple (anchor, free_axes), and a
    cell compares equal to that plain tuple.
    """

    anchor: tuple[int, ...]
    free_axes: int

    @property
    def dim(self) -> int:
        return self.free_axes.bit_count()

    def has_axis(self, a: int) -> bool:
        return bool(self.free_axes >> a & 1)

    def axes(self) -> list[int]:
        return [a for a in range(len(self.anchor)) if self.has_axis(a)]

    def half_coords(self) -> list[int]:
        """2 * anchor + axis bit on every axis: the barycenter in half-lattice
        units (side / 2)."""
        mask = self.free_axes
        return [2 * x + (mask >> a & 1) for a, x in enumerate(self.anchor)]

    def faces(self) -> set["Cell"]:
        """The 2*dim codimension-1 faces, in canonical (minimal-corner) form."""
        anchor, mask = self.anchor, self.free_axes
        out: set[Cell] = set()
        for a, x in enumerate(anchor):
            if mask >> a & 1:
                face = mask ^ 1 << a
                out.add(Cell(anchor, face))
                shifted = list(anchor)
                shifted[a] = x + 1
                out.add(Cell(tuple(shifted), face))
        return out

    def corners(self) -> list[tuple[int, ...]]:
        axes = self.axes()
        out = []
        for bits in itertools.product((0, 1), repeat=len(axes)):
            p = list(self.anchor)
            for b, a in zip(bits, axes):
                p[a] += b
            out.append(tuple(p))
        return out

    def barycenter(self) -> tuple[Fraction, ...]:
        """Barycenter in lattice units (multiply by grid side for ambient)."""
        return tuple(Fraction(h, 2) for h in self.half_coords())


def cell_measure(cell: Cell, grid: GridSpec) -> Fraction:
    """d-dimensional measure of a d-cell: (2**-k) ** d, exactly."""
    return grid.side ** cell.dim


class CubicalComplex:
    """A face-closed finite set of cells of one grid: the given cells, checked
    against its box, and their faces.  With closed=True the caller passes a
    face-closed set of this grid's cells, and nothing is checked or added."""

    def __init__(self, grid: GridSpec, cells: Iterable[Cell], closed: bool = False):
        self.grid = grid
        cellset = set(cells)
        if not closed:
            for c in cellset:
                if not grid.contains_cell(c):
                    raise ValueError(f"cell {c} outside bounding box")
            cellset = _close(cellset)
        self._by_dim: dict[int, frozenset[Cell]] = {}
        for c in cellset:
            self._by_dim.setdefault(c.dim, set()).add(c)  # type: ignore[arg-type]
        self._by_dim = {d: frozenset(s) for d, s in self._by_dim.items()}
        self._cells = frozenset(cellset)
        self._sorted: dict[int, list[Cell]] = {}
        self._position: dict[int, dict[Cell, int]] = {}

    @property
    def cells(self) -> frozenset[Cell]:
        return self._cells

    def cells_of_dim(self, d: int) -> frozenset[Cell]:
        return self._by_dim.get(d, frozenset())

    def sorted_cells(self, d: int) -> list[Cell]:
        """The d-cells in sorted order: one shared list per complex and d."""
        if d not in self._sorted:
            self._sorted[d] = sorted(self.cells_of_dim(d))
        return self._sorted[d]

    def position(self, d: int) -> dict[Cell, int]:
        """Each d-cell's index in `sorted_cells(d)`: one shared dict per complex and d."""
        if d not in self._position:
            self._position[d] = {c: i for i, c in enumerate(self.sorted_cells(d))}
        return self._position[d]

    @property
    def dim(self) -> int:
        return max(self._by_dim, default=-1)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubicalComplex):
            return NotImplemented
        return self.grid == other.grid and self._cells == other._cells

    def __hash__(self) -> int:
        return hash((self.grid, self._cells))

    def is_subcomplex_of(self, other: "CubicalComplex") -> bool:
        return self._cells <= other._cells

    def union(self, other: "CubicalComplex") -> "CubicalComplex":
        """X u Y, for a Y on the same grid (not checked)."""
        return CubicalComplex(self.grid, self._cells | other._cells, closed=True)


def _close(cells: set[Cell]) -> set[Cell]:
    """The cells and their faces, a layer at a time: each cell but a vertex is
    asked for its faces once."""
    out, layer = set(cells), [c for c in cells if c.free_axes]
    while layer:
        new = {f for c in layer for f in c.faces()} - out
        out |= new
        layer = [f for f in new if f.free_axes]
    return out


# most d-cells of a problem's box: the boundary rows are as wide as the box's
# half-lattice id range, so memory grows with the square of the cell count
MAX_BOX_CELLS = 20_000


def check_box_cells(box: Sequence[tuple[int, int]], d: int) -> None:
    """Raise ValueError when the box holds more than MAX_BOX_CELLS d-cells,
    counted before any is listed: over each set of d axes, the product of
    the side lengths on those axes and the lengths + 1 on the others."""
    count = sum(
        math.prod(high - low + (a not in axes) for a, (low, high) in enumerate(box))
        for axes in itertools.combinations(range(len(box)), d)
    )
    if count > MAX_BOX_CELLS:
        raise ValueError(f"the box holds {count} {d}-cells, above the bound {MAX_BOX_CELLS}")


def box_cells(box: Sequence[tuple[int, int]], d: int,
              interior: bool = False) -> Iterator[Cell]:
    """Every d-cell of an integer box; with interior=True only those that
    meet the open box, each fixed axis strictly between its ends."""
    for axes in itertools.combinations(range(len(box)), d):
        mask = sum(1 << a for a in axes)
        ranges = [
            range(low, high) if mask >> a & 1
            else range(low + interior, high + 1 - interior)
            for a, (low, high) in enumerate(box)
        ]
        for anchor in itertools.product(*ranges):
            yield Cell(anchor, mask)


class HalfLattice:
    """Integer ids of a box's cells: sum_a (2 (anchor[a] - lo_a) + bit_a) *
    strides[a], bit_a being axis a's free bit.  The faces along a free axis
    a sit at id +- strides[a]; `faces[free_axes]`, the one statement of the
    incidence signs, lists (id offset, sign): along the j-th free axis (from
    0), the high face with (-1)**j, then the low face with its negative.
    Each grid builds one, `GridSpec.half_lattice`, read by
    `SpanningProblem.cell_boundaries` (face columns by decreasing id, for
    `spanning.spans` and, transposed, `witness.build_witness_system`),
    `cochain.coboundary`, `connected_components`' union-find and
    `spanning.canonical_L`'s `signed_faces`; `oracle.build_loop_catalogue`
    builds its own for a box widened by one voxel."""

    def __init__(self, box: Sequence[tuple[int, int]]):
        self.strides = list(itertools.accumulate(
            (2 * (hi - lo) + 1 for lo, hi in box[:-1]), operator.mul, initial=1))
        self.faces = [[(s * self.strides[a], s * (-1) ** j)
                       for j, a in enumerate(a for a in range(len(box)) if mask >> a & 1)
                       for s in (1, -1)] for mask in range(1 << len(box))]
        low = 2 * sum(lo * s for (lo, _), s in zip(box, self.strides))
        self.base = [sum(s for a, s in enumerate(self.strides) if mask >> a & 1) - low
                     for mask in range(1 << len(box))]

    def id(self, cell: Cell) -> int:
        return self.base[cell.free_axes] + 2 * sum(map(operator.mul, cell.anchor, self.strides))

    def signed_faces(self, cell: Cell) -> list[tuple[int, int]]:
        """(face id, sign) of each codimension-1 face, in `faces` order."""
        at = self.id(cell)
        return [(at + offset, sign) for offset, sign in self.faces[cell.free_axes]]


def build_skeleton(grid: GridSpec, d: int) -> CubicalComplex:
    """Full d-skeleton of every cube of the bounding box."""
    if not 0 <= d <= grid.n:
        raise ValueError(f"skeleton dimension {d} out of range 0..{grid.n}")
    cells = [c for dd in range(d + 1) for c in box_cells(grid.box, dd)]
    return CubicalComplex(grid, cells, closed=True)


def connected_components(X: CubicalComplex) -> list[CubicalComplex]:
    """Partition of X by shared faces, found on `HalfLattice` ids, in deterministic order."""
    H = X.grid.half_lattice
    cells = {H.id(c): c for c in X.cells}
    parent = {i: i for i in cells}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, c in cells.items():
        for offset, _ in H.faces[c.free_axes]:
            if i + offset in parent:
                ri, rf = find(i), find(i + offset)
                if ri != rf:
                    parent[ri] = rf
    groups: dict[int, set[Cell]] = {}
    for i, c in cells.items():
        groups.setdefault(find(i), set()).add(c)
    comps = [CubicalComplex(X.grid, s, closed=True) for s in groups.values()]
    comps.sort(key=lambda comp: min(comp.cells))
    return comps


# ---------------------------------------------------------------------------
# serialization


def complex_to_text(X: CubicalComplex) -> str:
    """Line format: header 'n k low high ...', then 'anchor... axesmask'."""
    head = [str(X.grid.n), str(X.grid.k)]
    for low, high in X.grid.box:
        head.extend((str(low), str(high)))
    lines = [" ".join(head)]
    for c in sorted(X.cells):
        lines.append(" ".join(map(str, (*c.anchor, c.free_axes))))
    return "\n".join(lines) + "\n"


def complex_from_text(text: str) -> CubicalComplex:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty complex file")
    head = list(map(int, lines[0].split()))
    if len(head) != 2 + 2 * head[0]:  # n, k and n (low, high) pairs
        raise ValueError(f"malformed complex header {lines[0]!r}")
    n, k = head[:2]
    grid = GridSpec(n, k, tuple(zip(head[2::2], head[3::2])))
    cells = []
    for ln in lines[1:]:
        vals = list(map(int, ln.split()))
        # n anchor coordinates, then an axis mask below 2**n
        if len(vals) != n + 1 or not 0 <= vals[n] < 1 << n:
            raise ValueError(f"malformed cell line: {ln!r}")
        cells.append(Cell(tuple(vals[:n]), vals[n]))
    return CubicalComplex(grid, cells)


def export_off(X: CubicalComplex, path: str) -> None:
    """Write the 2-cells of X as quads in OFF format (for external viewers)."""
    side = X.grid.side
    verts: dict[tuple[int, ...], int] = {}
    quads: list[list[int]] = []
    for c in X.sorted_cells(2):
        a1, a2 = c.axes()
        loop = []
        for da1, da2 in ((0, 0), (1, 0), (1, 1), (0, 1)):
            p = list(c.anchor)
            p[a1] += da1
            p[a2] += da2
            key = tuple(p)
            if key not in verts:
                verts[key] = len(verts)
            loop.append(verts[key])
        quads.append(loop)
    lines = ["OFF", f"{len(verts)} {len(quads)} 0"]
    for p in verts:
        coords = [float(side * x) for x in p] + [0.0] * (3 - len(p))
        lines.append(" ".join(f"{v:.6f}" for v in coords[:3]))
    for quad in quads:
        lines.append("4 " + " ".join(map(str, quad)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
