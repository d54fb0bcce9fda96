"""Spanning problems: class sets on the boundary complex and the spanning test.

A candidate surface X = A u (face closure of chosen m-cells) spans a class l
on A iff l does not extend over X: no (m-1)-cocycle on X restricts to l.
`spans` asks this directly, with one linear system over X's m-cells whose
unknowns are the cochain's values off A; it builds no complex for X and
takes no quotient, since coboundaries of A (and, for m = 1, constants)
always extend.  It only adds the rows of X's m-cells, stored once per problem
in the `cell_boundaries` table, to an echelon: an unknown face sits at a
fixed column below nf, read off its `lattice.HalfLattice` id, and class i at
nf + i.  The witness build reads the transpose of the same table.
The restriction image of H^(m-1)(X) in H^(m-1)(A), taken modulo A's
coboundaries, answers the same question; the tests check the verdict
against it.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .cochain import (
    CochainComplexData,
    boundary_incidences,
    coboundary_space,
    restriction_image,
)
from .density import DensityField
from .lattice import (
    Cell,
    CubicalComplex,
    GridSpec,
    HalfLattice,
    box_cells,
    check_box_cells,
    connected_components,
)
from .linalg import Coeffs, _echelon


@dataclass
class CohomologyClass:
    """A class of L given by an explicit cocycle representative.

    A and the degree m - 1 are the problem's: the representative vector is
    indexed by A's sorted (m-1)-cells, which `SpanningProblem` checks.
    """

    rep: list
    label: str = ""


@dataclass
class SpanningProblem:
    """The data (A, C, L, m, coefficients, density) of one minimization."""

    A: CubicalComplex
    grid: GridSpec
    m: int
    L: list[CohomologyClass]
    coeffs: Coeffs = field(default_factory=lambda: Coeffs("gf2"))
    density: DensityField = field(default_factory=DensityField)
    _mcells: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    _weights: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    _boundaries: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.A.grid != self.grid:
            raise ValueError("boundary complex must live on the problem grid")
        if self.A.dim > self.m:
            raise ValueError("boundary complex dimension exceeds m")
        if self.L:
            A_data = CochainComplexData(self.A, self.coeffs)
            delta = A_data.delta(self.m - 1)
            coboundaries = coboundary_space(A_data, self.m - 1, reduced=self.m == 1)
            ncells = len(self.A.cells_of_dim(self.m - 1))
        for cls in self.L:
            if len(cls.rep) != ncells:
                raise ValueError(f"class representative needs one entry per (m-1)-cell "
                                 f"of A, {ncells}, not {len(cls.rep)}")
            if any(v != self.coeffs.zero for v in delta.apply(cls.rep)):
                raise ValueError("class representative is not a cocycle")
            if coboundaries.contains(cls.rep):
                raise ValueError("L must avoid the zero class")
        if self.m > self.grid.n:
            raise ValueError(f"m = {self.m} exceeds the grid dimension {self.grid.n}")
        self.density.validate(self.grid, self.m)

    def surface(self, mcells) -> "Surface":
        return Surface(self, frozenset(mcells))

    def box_mcells(self) -> list[Cell]:
        """Every m-cell of the box, sorted, listed once per problem."""
        if self._mcells is None:
            check_box_cells(self.grid.box, self.m)
            self._mcells = sorted(box_cells(self.grid.box, self.m))
        return self._mcells

    def cell_boundaries(self) -> tuple[dict[Cell, object], int]:
        """(rows, nf): one row per m-cell of the box, in `box_mcells` order, in
        the field's internal form (a packed int over GF(2), a sparse dict
        otherwise), built once per problem.  A face e off A sits at column
        top - id(e), top the box's largest `HalfLattice` id, below nf = top + 1;
        class i at nf + i holds the sum of sign * l_i(e) over the faces e on A.
        Over Q, decreasing ids made `spans` 1.7x faster than increasing ids (5x
        on the shell).  Echelons store these rows as they are: `linalg` copies
        a row before it writes to it."""
        if self._boundaries is None:
            F, H = self.coeffs, HalfLattice(self.grid.box)
            top = H.id(Cell(tuple(hi for _, hi in self.grid.box), 0))
            on_A = {top - H.id(c): [cls.rep[p] for cls in self.L]
                    for c, p in self.A.position(self.m - 1).items()}
            faces = [[(offset, F.reduce(sign)) for offset, sign in fs] for fs in H.faces]
            rows, gf2 = {}, F.kind == "gf2"
            for cell in self.box_mcells():
                at, acc, row = top - H.id(cell), None, 0 if gf2 else {}
                for offset, sign in faces[cell.free_axes]:
                    vals = on_A.get(at - offset)
                    if vals is not None:
                        acc = [x + sign * v for x, v in zip(acc or [0] * len(vals), vals)]
                    elif gf2:  # packed in place: a dict packed after costs 1.5x
                        row |= 1 << at - offset
                    else:
                        row[at - offset] = sign
                for j, x in enumerate(map(F.reduce, acc) if acc else (), top + 1):
                    if x and gf2:
                        row |= 1 << j
                    elif x:
                        row[j] = x
                rows[cell] = row
            self._boundaries = rows, top + 1
        return self._boundaries

    def weight_table(self) -> tuple[dict[Cell, int], int]:
        """(table, scale): each m-cell c of the box weighs table[c] / scale,
        the density at its barycenter times its measure 2**(-k m); computed
        once per problem."""
        if self._weights is None:
            D, g = self.density.on_grid(self.grid)
            table = {c: g(c) for c in self.box_mcells()}
            self._weights = (table, D << self.grid.k * self.m)
        return self._weights

    def cropped(self, box: tuple[tuple[int, int], ...]) -> "SpanningProblem":
        """This problem on a sub-box of its box that still holds A: the class
        and density checks passed on the larger box, so only A's containment
        runs (on its vertices, the corners of its cells); L is shared."""
        if any(lo < lo0 or hi > hi0 for (lo, hi), (lo0, hi0) in zip(box, self.grid.box)):
            raise ValueError("a cropped box must lie inside the problem box")
        grid = GridSpec(self.grid.n, self.grid.k, box)
        if not all(map(grid.contains_cell, self.A.cells_of_dim(0))):
            raise ValueError("a cell of A lies outside bounding box")
        out = copy.copy(self)
        out.A = CubicalComplex(grid, self.A.cells, closed=True)
        out.grid, out._mcells, out._weights, out._boundaries = grid, None, None, None
        return out


class Surface:
    """A candidate X = A u closure(mcells) for one spanning problem."""

    def __init__(self, problem: SpanningProblem, mcells: frozenset[Cell]):
        self.problem = problem
        self.mcells = frozenset(mcells)
        # the weight table holds every m-cell of the box; the loop below
        # names a cell that is not one
        if not problem.weight_table()[0].keys() >= self.mcells:
            for c in self.mcells:
                if c.dim != problem.m:
                    raise ValueError(f"cell {c} is not {problem.m}-dimensional")
                if not problem.grid.contains_cell(c):
                    raise ValueError(f"cell {c} outside the problem box")
        self._complex: Optional[CubicalComplex] = None
        self._vertices: Optional[list[tuple[int, ...]]] = None
        self._probes: dict = {}  # `diagnostics` probes, by point

    @property
    def complex(self) -> CubicalComplex:
        if self._complex is None:
            closure = CubicalComplex(self.problem.grid, self.mcells)
            self._complex = closure.union(self.problem.A)
        return self._complex

    def free_mcells(self) -> list[Cell]:
        """m-cells carrying weight: those not already part of A."""
        A_cells = self.problem.A.cells_of_dim(self.problem.m)
        return sorted(c for c in self.mcells if c not in A_cells)

    @property
    def free_vertices(self) -> list[tuple[int, ...]]:
        """The lattice points of the free m-cells, sorted; computed once."""
        if self._vertices is None:
            self._vertices = sorted({v for c in self.free_mcells() for v in c.corners()})
        return self._vertices

    def without(self, cell: Cell) -> "Surface":
        return Surface(self.problem, self.mcells - {cell})

    def with_added(self, cells) -> "Surface":
        return Surface(self.problem, self.mcells | set(cells))


def spans(X: Surface) -> bool:
    """True iff no class of L extends over X: no cochain u on the (m-1)-faces
    off A makes l + u a cocycle on X's m-cells.

    One system decides every class: the rows of X's m-cells in the problem's
    `cell_boundaries` table, face columns (the unknowns) below nf and class
    columns at or above it.  The echelon keeps its rows in row echelon form,
    each row's pivot its lowest column and no two pivots alike.  In any such
    form the rows that pivot at or above nf span the row combinations with
    no unknown part, the obstructions: a combination of rows is zero below nf
    only if no row pivoting there takes part.  So l_i extends iff none of
    these rows is nonzero at its column, and no back-substitution is needed.
    A's own m-cells give zero rows, as each l_i is a cocycle.  Coboundaries
    of A, and for m = 1 constants, extend, so no quotient is taken.
    """
    problem = X.problem
    rows, nf = problem.cell_boundaries()
    E = _echelon(problem.coeffs)
    for cell in X.mcells:
        E.add(rows[cell])
    hit, gf2 = 0, problem.coeffs.kind == "gf2"
    for c, r in E.rows.items():
        if c >= nf:
            hit |= r >> nf if gf2 else sum(1 << j - nf for j in r)
    return hit == (1 << len(problem.L)) - 1


def relative_coboundary_dominates(
    Y: CubicalComplex, Xin: CubicalComplex, T: CubicalComplex, d: int,
    coeffs: Coeffs,
) -> bool:
    """Local replacement test: image of Y in H^d(T) inside the image of Xin.

    When true, substituting Y for Xin inside a region whose frontier trace is
    T preserves the global spanning verdict.
    """
    if not (T.is_subcomplex_of(Y) and T.is_subcomplex_of(Xin)):
        raise ValueError("frontier trace must be contained in both complexes")
    T_data = CochainComplexData(T, coeffs)
    img_Y = restriction_image(Y, T, d, coeffs, A_data=T_data)
    img_X = restriction_image(Xin, T, d, coeffs, A_data=T_data)
    mod = img_X.image.sum(img_X.coboundaries)
    return all(mod.contains(v) for v in img_Y.image.basis)


# ---------------------------------------------------------------------------
# canonical class sets


def check_closed_manifold(K: CubicalComplex, dim: int, counts: Optional[dict] = None) -> None:
    """Raise ValueError unless K is a closed dim-manifold complex: it has
    dimension dim and every (dim-1)-cell has exactly two top cofaces in K
    (counted here unless `counts` gives them by ridge)."""
    if K.dim != dim:
        raise ValueError(
            f"complex has dimension {K.dim}, expected a closed {dim}-manifold"
        )
    if counts is None:
        counts = Counter(f for c in K.cells_of_dim(dim) for f in c.faces())
    for ridge in K.cells_of_dim(dim - 1):
        if (count := counts.get(ridge, 0)) != 2:
            raise ValueError(
                f"ridge {ridge} has {count} top cofaces; the complex is not a "
                "closed manifold"
            )


def fundamental_cycle(comp: CubicalComplex, m: int,
                      faces: Optional[dict] = None) -> dict[Cell, int]:
    """Oriented fundamental (m-1)-cycle of a closed manifold component, the
    least top cell at +1.  From `faces`, each top cell's `boundary_incidences`
    (read here if not given), one table of each ridge's signed top cofaces
    serves the orientation walk and the zero-boundary check."""
    top = comp.sorted_cells(m - 1)
    if not top:
        raise ValueError("component has no top cells")
    faces = faces or {c: boundary_incidences(c) for c in top}
    cofaces: dict[Cell, list[tuple[Cell, int]]] = {}
    for c in top:
        for f, sign in faces[c]:
            cofaces.setdefault(f, []).append((c, sign))
    orientation: dict[Cell, int] = {top[0]: 1}
    queue = [top[0]]
    while queue:
        c = queue.pop()
        for f, sign in faces[c]:
            for c2, sign2 in cofaces[f]:
                if c2 == c:
                    continue
                want = -orientation[c] * sign * sign2
                if c2 not in orientation:
                    orientation[c2] = want
                    queue.append(c2)
                elif orientation[c2] != want:
                    raise ValueError("component is non-orientable")
    if len(orientation) != len(top):
        raise ValueError("top cells of component are not ridge-connected")
    if any(sum(orientation[c] * sign for c, sign in cs) for cs in cofaces.values()):
        raise ValueError("component top cells do not form a cycle")
    return orientation


def canonical_L(A: CubicalComplex, m: int, coeffs: Coeffs) -> list[CohomologyClass]:
    """One generator class per closed-manifold component of A.

    The generator is the indicator of the component's least top cell; it
    pairs to 1 with the component's fundamental cycle, so it is not zero.
    Over GF(p) and Q that cycle needs an orientation, which
    `fundamental_cycle` checks exists and starts at that cell; each top
    cell's signed faces are read once, for the closed-manifold count and that
    walk (over GF(2) the count uses `Cell.faces`).  For m = 1 the classes are
    component indicators in reduced degree 0, and the one component of a
    connected A is the constant: then there is no class.
    """
    comps = connected_components(A)
    if m == 1 and len(comps) == 1:
        return []
    pos = A.position(m - 1)
    out = []
    for ci, comp in enumerate(comps):
        rep = [coeffs.zero] * len(pos)
        if m == 1:
            for c in comp.cells_of_dim(0):
                rep[pos[c]] = coeffs.one
        else:
            if coeffs.kind == "gf2":
                check_closed_manifold(comp, m - 1)
            else:  # one `boundary_incidences` call per top cell serves both
                faces = {c: boundary_incidences(c) for c in comp.sorted_cells(m - 1)}
                check_closed_manifold(comp, m - 1, Counter(f for fs in faces.values() for f, _ in fs))
                fundamental_cycle(comp, m, faces)
            rep[pos[min(comp.cells_of_dim(m - 1))]] = coeffs.one
        out.append(CohomologyClass(rep, label=f"component-{ci}"))
    return out
