"""Minimum-weight spanning surfaces on cubical grids.

Cells, complexes and exact field linear algebra (GF(2), GF(p), rationals)
support a cohomological spanning condition: a surface X containing a fixed
boundary complex A spans a class set L iff no class of L extends over X.
The solver minimizes weighted m-measure over spanning surfaces; the oracle
certifies minima exhaustively on small instances; diagnostics measure slice,
density, regularity and monotonicity behavior of the outputs.
"""

__version__ = "0.1.0"

from .density import DensityField
from .lattice import (
    Cell,
    CubicalComplex,
    GridSpec,
    build_skeleton,
    cell_measure,
    complex_from_text,
    complex_to_text,
    connected_components,
    export_off,
)
from .linalg import GF2, RATIONAL, Coeffs, FieldMatrix, Subspace
from .cochain import cohomology, restriction_image
from .spanning import (
    CohomologyClass,
    SpanningProblem,
    Surface,
    canonical_L,
    fundamental_cycle,
    relative_coboundary_dominates,
    spans,
)
from .linking import DualLoop
from .witness import WitnessSystem, build_witness_system
from .solver import (
    SolveReport,
    SolverConfig,
    greedy_minimize,
    local_replace,
    region_interior,
    solve,
    surface_weight,
)
from .oracle import OracleConfig, OracleResult, crop_problem, isoperimetric_scan
from .diagnostics import (
    DensityProfile,
    MonotonicityReport,
    RegularityReport,
    SliceReport,
    density_profile,
    monotonicity_check,
    regularity_constant,
    slicing_check,
)
from .scenarios import (
    RunReport,
    Scenario,
    build_boundary,
    build_problem,
    load_scenario,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
