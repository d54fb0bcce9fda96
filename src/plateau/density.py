"""Hoelder-continuous density weights f: box -> [a, b] on cell barycenters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .lattice import Cell, GridSpec, box_cells, check_box_cells


@dataclass(frozen=True)
class DensityField:
    """Weight function at cell barycenters, as ints over one denominator.

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

    def on_grid(self, grid: GridSpec) -> tuple[int, Callable[[Cell], int]]:
        """(D, g): f at a cell's barycenter is g(cell) / D, with g an int and
        one denominator D for the grid.  The barycenter is h / 2**(k+1) with
        h = 2 * anchor + axis bit, and the coefficients (or center) are ints
        over their common denominator q."""
        if self.kind == "constant":
            return self.value.denominator, lambda cell, v=self.value.numerator: v
        half = 2 ** (grid.k + 1)
        affine = self.kind == "coordinate-affine"
        data = self.coeffs if affine else self.center
        q = math.lcm(*(c.denominator for c in data))
        ints = [c.numerator * (q // c.denominator) for c in data]
        # f = offset + factor * (an int of h) / (q * half)
        factor = Fraction(1 if affine else self.slope)
        D = math.lcm(self.offset.denominator, factor.denominator * q * half)
        base, step = int(self.offset * D), factor * D // (q * half)

        def g(cell: Cell) -> int:
            h = cell.half_coords()
            if affine:
                return base + step * sum(c * x for c, x in zip(ints, h))
            return base + step * max((abs(x * q - c * half) for c, x in zip(ints, h)), default=0)

        return D, g

    def constant_along(self, axis: int) -> bool:
        """Whether f is independent of the given coordinate."""
        if self.kind == "constant":
            return True
        if self.kind == "coordinate-affine":
            return axis >= len(self.coeffs) or self.coeffs[axis] == 0
        # radial: a center shorter than n leaves trailing axes unused
        return axis >= len(self.center)

    def validate(self, grid: GridSpec, dim: int) -> Optional[dict[Cell, int]]:
        """Check the [a, b] bounds at the barycenter of every dim-cell of the
        box, as ceil(a D) <= g <= floor(b D) on `on_grid`'s ints.  A constant
        density is checked at the first cell only and gives None; any other,
        once `check_box_cells` passes, gives the table of g on the box."""
        D, g = self.on_grid(grid)
        low, high = math.ceil(self.a * D), math.floor(self.b * D)
        if self.kind != "constant":
            check_box_cells(grid.box, dim)
        table = {}
        for cell in box_cells(grid.box, dim):
            v = table[cell] = g(cell)
            if not low <= v <= high:
                raise ValueError(
                    f"density {Fraction(v, D)} at cell {cell} escapes bounds "
                    f"[{self.a}, {self.b}]"
                )
            if self.kind == "constant":
                return None
        return table
