"""Hoelder-continuous density weights f: box -> [a, b] on cell barycenters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Cell, GridSpec, box_cells


@dataclass(frozen=True)
class DensityField:
    """Weight function evaluated at cell barycenters, in exact rationals.

    kind:
      constant:          f = value
      coordinate-affine: f = offset + sum(coeffs[i] * x_i), ambient units
      radial:            f = offset + slope * max(0, |x - center|_inf)
    bounds (a, b) and the Hoelder data are declared; `validate` checks the
    bounds on the box, and nothing checks the Hoelder data.
    """

    kind: str = "constant"
    value: Fraction = Fraction(1)
    offset: Fraction = Fraction(1)
    coeffs: tuple[Fraction, ...] = ()
    center: tuple[Fraction, ...] = ()
    slope: Fraction = Fraction(0)
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)
    hoelder_alpha: Fraction = Fraction(1)
    hoelder_const: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "coordinate-affine", "radial"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not 0 < self.a <= self.b:
            raise ValueError("density bounds must satisfy 0 < a <= b")
        if not 0 < self.hoelder_alpha <= 1:
            raise ValueError("hoelder exponent must lie in (0, 1]")

    def at_cell(self, cell: Cell, grid: GridSpec) -> Fraction:
        """f at the cell's barycenter, in integers until the last step: the
        barycenter is h / 2**(k+1) with h = 2 * anchor + axis bit, and the
        coefficients (or center) are ints over their common denominator q."""
        if self.kind == "constant":
            return self.value
        half = 2 ** (grid.k + 1)
        h = [2 * x + (cell.free_axes >> a & 1) for a, x in enumerate(cell.anchor)]
        data = self.coeffs if self.kind == "coordinate-affine" else self.center
        q = math.lcm(*(c.denominator for c in data))
        ints = [c.numerator * (q // c.denominator) for c in data]
        if self.kind == "coordinate-affine":
            return self.offset + Fraction(sum(c * x for c, x in zip(ints, h)), q * half)
        dist = max((abs(x * q - c * half) for c, x in zip(ints, h)), default=0)
        return self.offset + self.slope * Fraction(dist, q * half)

    def constant_along(self, axis: int) -> bool:
        """Whether f is independent of the given coordinate."""
        if self.kind == "constant":
            return True
        if self.kind == "coordinate-affine":
            return axis >= len(self.coeffs) or self.coeffs[axis] == 0
        # radial: a center shorter than n leaves trailing axes unused
        return axis >= len(self.center)

    def validate(self, grid: GridSpec, dim: int) -> None:
        """Check the [a, b] bounds at the barycenter of every dim-cell of the
        box; a constant density is checked at the first cell only."""
        for cell in box_cells(grid.box, dim):
            v = self.at_cell(cell, grid)
            if not self.a <= v <= self.b:
                raise ValueError(
                    f"density {v} at cell {cell} escapes bounds [{self.a}, {self.b}]"
                )
            if self.kind == "constant":
                return
