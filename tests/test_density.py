import dataclasses
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from plateau.density import DensityField
from plateau.lattice import GridSpec, box_cells

from conftest import density_reference

# odd denominators keep values off the dyadic half-lattice
ODD = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 5, 7, 9, 15]))


@st.composite
def densities(draw, n: int) -> DensityField:
    kind = draw(st.sampled_from(["constant", "coordinate-affine", "radial"]))
    loose = {"a": Fraction(1, 1000), "b": Fraction(1000)}
    if kind == "constant":
        return DensityField(value=draw(ODD.filter(lambda v: v > 0)), a=Fraction(1, 1000))
    # a shorter tuple leaves the trailing axes unused
    values = tuple(draw(st.lists(ODD, min_size=0, max_size=n)))
    offset, slope = draw(ODD), draw(ODD)
    if kind == "coordinate-affine":
        return DensityField(kind, offset=offset, coeffs=values, **loose)
    return DensityField(kind, offset=offset, center=values, slope=slope, **loose)


@given(data=st.data(), n=st.integers(1, 4), k=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_at_cell_matches_fraction_reference(data, n, k):
    """The integer half-lattice evaluation equals the Fraction barycenter one
    on every m-cell of a small box, for every m."""
    lows = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    box = tuple((lo, lo + data.draw(st.integers(1, 2))) for lo in lows)
    grid = GridSpec(n, k, box)
    f = data.draw(densities(n))
    D, g = f.on_grid(grid)
    for m in range(n + 1):
        for cell in box_cells(box, m):
            assert Fraction(g(cell), D) == density_reference(f, cell, grid)


@pytest.mark.parametrize("f", [
    DensityField("coordinate-affine", offset=Fraction(2, 3),
                 coeffs=(Fraction(1, 5), Fraction(-2, 7))),
    DensityField("radial", offset=Fraction(1, 3),
                 center=(Fraction(3, 5), Fraction(1, 7)), slope=Fraction(2, 9)),
], ids=["affine", "radial"])
def test_validate_bounds_to_one_denominator(f):
    """`validate` accepts a density equal to a or b at some cell, and rejects
    one that is 1/D, or half of that, outside: the ceil(a D) and floor(b D)
    edge on `on_grid`'s ints."""
    grid = GridSpec(2, 1, ((0, 2), (-1, 1)))
    D, g = f.on_grid(grid)
    values = [g(cell) for cell in box_cells(grid.box, 2)]
    lo, hi = min(values), max(values)
    assert 0 < lo < hi

    def bounded(a: Fraction, b: Fraction) -> DensityField:
        return dataclasses.replace(f, a=a, b=b)

    for a, b in [(Fraction(lo, D), Fraction(hi, D)),
                 (Fraction(2 * lo - 1, 2 * D), Fraction(2 * hi + 1, 2 * D))]:
        bounded(a, b).validate(grid, 2)
    for a, b in [(Fraction(lo + 1, D), Fraction(hi, D)),
                 (Fraction(lo, D), Fraction(hi - 1, D)),
                 (Fraction(2 * lo + 1, 2 * D), Fraction(hi, D)),
                 (Fraction(lo, D), Fraction(2 * hi - 1, 2 * D))]:
        with pytest.raises(ValueError, match="escapes bounds"):
            bounded(a, b).validate(grid, 2)
