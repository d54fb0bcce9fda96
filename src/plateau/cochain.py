"""Cellular cochain complexes of cubical complexes and their cohomology.

For finite cubical complexes (compact polyhedra) cellular cohomology is the
right finite computation; degree 0 can be reduced, with the convention that
the reduced group of the empty complex is zero.  The dimension of H^d comes
from ranks, n_d - rank delta_d - dim B^d; a cocycle basis is read off the
echelon of delta_d's rows only when it is asked for or the dimension is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .lattice import Cell, CubicalComplex, HalfLattice
from .linalg import Coeffs, FieldMatrix, Subspace, _dense, kernel_basis


def boundary_incidences(cell: Cell) -> list[tuple[Cell, int]]:
    """Codimension-1 faces of cell with incidence signs.

    The face pair along the j-th free axis (in increasing axis order) carries
    sign (-1)**(j-1), the high face positive and the low face negative.
    """
    out = []
    axes = cell.axes()
    for j, a in enumerate(axes):
        mask = cell.free_axes & ~(1 << a)
        sign = 1 if j % 2 == 0 else -1
        shifted = list(cell.anchor)
        shifted[a] += 1
        out.append((Cell(tuple(shifted), mask), sign))
        out.append((Cell(cell.anchor, mask), -sign))
    return out


class CochainComplexData:
    """Coboundary matrices of one complex over one field, cached per degree."""

    def __init__(self, X: CubicalComplex, coeffs: Coeffs):
        self.complex = X
        self.coeffs = coeffs
        self._delta: dict[int, FieldMatrix] = {}

    def delta(self, d: int) -> FieldMatrix:
        """Coboundary C^d -> C^{d+1}: transpose of the boundary operator.

        Row i is the (d+1)-cell of sorted position i, column j the d-cell of
        sorted position j; faces are found by `HalfLattice` id offsets, and
        rows are built in FieldMatrix's internal form."""
        if d not in self._delta:
            F, X = self.coeffs, self.complex
            H = HalfLattice(X.grid.box)
            pos = {H.id(c): j for j, c in enumerate(X.sorted_cells(d))}
            rows = []
            if F.kind == "gf2":
                for c in X.sorted_cells(d + 1):
                    at = H.id(c)
                    rows.append(sum(1 << pos[at + offset] for offset, _ in H.faces[c.free_axes]))
            else:
                unit = {1: F.reduce(1), -1: F.reduce(-1)}
                for c in X.sorted_cells(d + 1):
                    at = H.id(c)
                    rows.append({pos[at + offset]: unit[sign]
                                 for offset, sign in H.faces[c.free_axes]})
            self._delta[d] = FieldMatrix(F, rows, len(pos))
        return self._delta[d]

    def cochain_dim(self, d: int) -> int:
        return len(self.complex.cells_of_dim(d))


def coboundary_space(data: CochainComplexData, d: int,
                     reduced: bool = False) -> Subspace:
    """Coboundaries in degree d: the span of the columns of delta_{d-1}.

    In degree 0 this is zero, or the constant cochains when reduced.
    """
    if d > 0:
        return Subspace.row_space(data.delta(d - 1).transpose())
    n0 = data.cochain_dim(0)
    ones = [[data.coeffs.one] * n0] if reduced and n0 else []
    return Subspace.from_vectors(data.coeffs, n0, ones)


@dataclass
class CohomologySpace:
    """Computed H^d of one complex: coboundaries, quotient basis, and the
    echelon of delta_d's rows, off which `cocycles` is read when first asked for."""

    data: CochainComplexData
    degree: int
    delta_rows: Subspace
    coboundaries: Subspace
    basis_reps: list[list]

    @property
    def dim(self) -> int:
        return len(self.basis_reps)

    @cached_property
    def cocycles(self) -> Subspace:
        return self.delta_rows.kernel()


def cohomology(X: CubicalComplex, d: int, coeffs: Coeffs,
               reduced: bool = False,
               data: Optional[CochainComplexData] = None) -> CohomologySpace:
    """H^d(X) over the field, optionally reduced in degree 0; its dimension
    comes from ranks, and cocycles are read only when it is positive."""
    if d < 0:
        raise ValueError("cohomology degree must be nonnegative")
    data = data or CochainComplexData(X, coeffs)
    delta_rows = Subspace.row_space(data.delta(d))
    coboundaries = coboundary_space(data, d, reduced)
    H = CohomologySpace(data, d, delta_rows, coboundaries, [])
    # a cocycle joins the quotient basis iff it lies outside the span of the
    # coboundaries and of the cocycles kept before it; once dim H^d are kept
    # every later cocycle is dependent
    rank = delta_rows.ambient_dim - delta_rows.dim - coboundaries.dim
    grown = coboundaries._echelon.copy()
    for r in H.cocycles.rows if rank else ():
        if grown.add(r):
            H.basis_reps.append(_dense(coeffs, r, delta_rows.ambient_dim))
            if len(H.basis_reps) == rank:
                break
    return H


@dataclass
class RestrictionImage:
    """Image of H^d(X) -> H^d(A) as cocycle vectors on A, with A's coboundaries."""

    A_data: CochainComplexData
    degree: int
    image: Subspace
    coboundaries: Subspace


def restriction_image(X: CubicalComplex, A: CubicalComplex, d: int, coeffs: Coeffs,
                      X_data: Optional[CochainComplexData] = None,
                      A_data: Optional[CochainComplexData] = None) -> RestrictionImage:
    """Image of the restriction map on degree-d cohomology, as a subspace.

    Returned on the nose as the span of restricted X-cocycles inside the
    cocycles of A; membership tests must work modulo A's coboundaries, so
    those are carried along.
    """
    if not A.is_subcomplex_of(X):
        raise ValueError("A is not a subcomplex of X")
    X_data = X_data or CochainComplexData(X, coeffs)
    A_data = A_data or CochainComplexData(A, coeffs)
    X_cocycles = kernel_basis(X_data.delta(d))
    xpos = X.position(d)
    where = {xpos[c]: i for i, c in enumerate(A.sorted_cells(d))}
    image = X_cocycles.restricted(where, A_data.cochain_dim(d))
    return RestrictionImage(A_data, d, image, coboundary_space(A_data, d))
