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

from .lattice import CubicalComplex
from .linalg import Coeffs, FieldMatrix, Subspace, _dense, kernel_basis


def coboundary(X: CubicalComplex, d: int, coeffs: Coeffs) -> FieldMatrix:
    """Coboundary C^d -> C^{d+1} of X: transpose of the boundary operator.

    Row i is the (d+1)-cell of sorted position i, column j the d-cell of
    sorted position j; faces and signs are read off the grid's `HalfLattice`,
    and rows are built in FieldMatrix's internal form."""
    H, rows = X.grid.half_lattice, []
    pos = {H.id(c): j for j, c in enumerate(X.sorted_cells(d))}
    unit = {1: coeffs.reduce(1), -1: coeffs.reduce(-1)}
    for c in X.sorted_cells(d + 1):
        at, faces = H.id(c), H.faces[c.free_axes]
        if coeffs.kind == "gf2":
            rows.append(sum(1 << pos[at + offset] for offset, _ in faces))
        else:
            rows.append({pos[at + offset]: unit[sign] for offset, sign in faces})
    return FieldMatrix(coeffs, rows, len(pos))


def coboundary_space(X: CubicalComplex, d: int, coeffs: Coeffs,
                     reduced: bool = False) -> Subspace:
    """Coboundaries in degree d: the span of the columns of delta_{d-1}.

    In degree 0 this is zero, or the constant cochains when reduced.
    """
    if d > 0:
        return Subspace.row_space(coboundary(X, d - 1, coeffs).transpose())
    n0 = len(X.cells_of_dim(0))
    ones = [[coeffs.one] * n0] if reduced and n0 else []
    return Subspace.from_vectors(coeffs, n0, ones)


@dataclass
class CohomologySpace:
    """Computed H^d of one complex: coboundaries, quotient basis, and the
    echelon of delta_d's rows, off which `cocycles` is read when first asked for."""

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
               reduced: bool = False) -> CohomologySpace:
    """H^d(X) over the field, optionally reduced in degree 0; its dimension
    comes from ranks, and cocycles are read only when it is positive."""
    if d < 0:
        raise ValueError("cohomology degree must be nonnegative")
    delta_rows = Subspace.row_space(coboundary(X, d, coeffs))
    coboundaries = coboundary_space(X, d, coeffs, reduced)
    H = CohomologySpace(delta_rows, coboundaries, [])
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

    image: Subspace
    coboundaries: Subspace


def restriction_image(X: CubicalComplex, A: CubicalComplex, d: int,
                      coeffs: Coeffs) -> RestrictionImage:
    """Image of the restriction map on degree-d cohomology, as a subspace.

    Returned on the nose as the span of restricted X-cocycles inside the
    cocycles of A; membership tests must work modulo A's coboundaries, so
    those are carried along.
    """
    if not A.is_subcomplex_of(X):
        raise ValueError("A is not a subcomplex of X")
    X_cocycles = kernel_basis(coboundary(X, d, coeffs))
    xpos = X.position(d)
    where = {xpos[c]: i for i, c in enumerate(A.sorted_cells(d))}
    image = X_cocycles.restricted(where, len(A.cells_of_dim(d)))
    return RestrictionImage(image, coboundary_space(A, d, coeffs))
