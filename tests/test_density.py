from fractions import Fraction

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
    for m in range(n + 1):
        for cell in box_cells(box, m):
            assert f.at_cell(cell, grid) == density_reference(f, cell, grid)
