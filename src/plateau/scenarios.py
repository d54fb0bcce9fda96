"""Scenario files, built-in boundary complexes, and run orchestration.

Scenario files are JSON with exact rationals written as "p/q" strings.
Built-in boundaries are lattice discretizations of round benchmark shapes,
each the mod-2 boundary of one or two blocks of cells: a square "disk"
boundary loop, three stacked rings, a square-annulus torus surface, and a
box-boundary sphere shell.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from . import __version__
from .density import DensityField
from .diagnostics import (
    default_probe_point,
    density_profile,
    monotonicity_check,
    regularity_constant,
    slicing_check,
)
from .lattice import (
    Cell,
    CubicalComplex,
    GridSpec,
    complex_from_text,
    complex_to_text,
    export_off,
)
from .linalg import GF2, Coeffs
from .solver import SolverConfig, frac_str, solve
from .spanning import CohomologyClass, SpanningProblem, Surface, canonical_L, spans

DIAGNOSTIC_NAMES = ("slicing", "profile", "regularity", "monotonicity")


def parse_diagnostics(value: Any) -> list[str]:
    """Diagnostic names from "all", "none", a comma separated string or a list."""
    if value == "all":
        return list(DIAGNOSTIC_NAMES)
    if value == "none":
        return []
    if isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip()]
    if not isinstance(value, list):
        raise ValueError(f"diagnostics must be all, none or a list, got {value!r}")
    for name in value:
        if name not in DIAGNOSTIC_NAMES:
            raise ValueError(f"unknown diagnostic {name!r}")
    return list(value)


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}") from exc
    raise ValueError(f"expected a rational, got {value!r}")


@dataclass
class Scenario:
    name: str
    grid: GridSpec
    boundary: dict
    m: int
    coeffs: Coeffs
    L_spec: Any  # "canonical" or explicit cochain list
    density: DensityField
    solver: SolverConfig
    diagnostics: list[str]
    seed: int
    raw: dict = field(default_factory=dict)


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario parse error in {path}: {exc}") from exc
    return scenario_from_dict(data)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError(f"scenario must be a JSON object, got {data!r}")
    for key in ("grid", "boundary", "m", "seed"):
        if key not in data:
            raise ValueError(f"scenario field {key!r} is required")
    g = _block(data, "grid")
    for key in ("n", "k", "box"):
        if key not in g:
            raise ValueError(f"grid field {key!r} is required")
    n = _as_int(g["n"], "grid.n")
    grid = GridSpec(n, _as_int(g["k"], "grid.k"), _int_pairs(g["box"], "grid.box", n))
    boundary = _block(data, "boundary")
    if "tag" not in boundary:
        raise ValueError("boundary field 'tag' is required")
    m = _as_int(data["m"], "m")
    if not 1 <= m <= grid.n:
        raise ValueError(f"scenario field m must lie in 1..{grid.n}, got {m}")
    kind = data.get("coeffs", "gf2")
    if kind == "gf2":
        coeffs = GF2
    elif kind == "rational":
        coeffs = Coeffs("rational")
    elif isinstance(kind, dict) and kind.get("kind") == "gfp":
        if "p" not in kind:
            raise ValueError("scenario field coeffs.p is required for a gfp field")
        p = _as_int(kind["p"], "coeffs.p")
        coeffs = GF2 if p == 2 else Coeffs("gfp", p)  # GF(2) has one code path, bit-packed
    else:
        raise ValueError(f"unknown coefficient field {kind!r}")
    density = _density_from_dict(_block(data, "density", {"kind": "constant"}), grid.n)
    solver_cfg = _solver_from_dict(_block(data, "solver", {}))
    diag = parse_diagnostics(data.get("diagnostics", "all"))
    name = data.get("name", "unnamed")  # the stem of the files `run` writes
    if not isinstance(name, str):
        raise ValueError(f"scenario field name must be a string, got {name!r}")
    if name in ("", ".", "..") or os.sep in name or (os.altsep and os.altsep in name):
        raise ValueError(f"scenario field name must be a plain file name, got {name!r}")
    return Scenario(
        name=name,
        grid=grid,
        boundary=boundary,
        m=m,
        coeffs=coeffs,
        L_spec=data.get("L", "canonical"),
        density=density,
        solver=solver_cfg,
        diagnostics=diag,
        seed=_as_int(data["seed"], "seed"),
        raw=data,
    )


def _as_int(value: Any, path: str) -> int:
    """An integer scenario field; a ValueError names the field otherwise.

    Booleans, strings and non-integral numbers are rejected, not converted,
    so a malformed value never loads as some other integer.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"scenario field {path} must be an integer, got {value!r}")
    return value


def _int_pair(value: Any, path: str) -> tuple[int, int]:
    """One [low, high] (or [x, y]) pair of integers."""
    try:
        lo, hi = value
        return _as_int(lo, path), _as_int(hi, path)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"scenario field {path} must be a pair of integers, got {value!r}"
        ) from exc


def _int_pairs(value: Any, path: str, count: int) -> tuple[tuple[int, int], ...]:
    """A list of `count` [low, high] integer pairs, such as grid.box."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ValueError(
            f"scenario field {path} must be a list of {count} integer pairs, got {value!r}"
        )
    return tuple(_int_pair(pair, path) for pair in value)


def _block(data: dict, key: str, default: Optional[dict] = None) -> dict:
    """The scenario block data[key] (default when absent), which must be an object."""
    value = data.get(key, default)
    if not isinstance(value, dict):
        raise ValueError(f"scenario block {key!r} must be an object, got {value!r}")
    return value


def _density_from_dict(d: dict, n: int) -> DensityField:
    kind = d.get("kind", "constant")
    kwargs: dict[str, Any] = {"kind": kind}
    for key in ("value", "offset", "slope", "a", "b", "hoelder_alpha", "hoelder_const"):
        if key in d:
            kwargs[key] = parse_rational(d[key])
    for key in ("coeffs", "center"):
        if key in d:
            # a shorter list leaves the trailing axes unused; a longer one is an error
            if not isinstance(d[key], (list, tuple)) or len(d[key]) > n:
                raise ValueError(f"scenario field density.{key} must be a list of at most "
                                 f"{n} rationals, got {d[key]!r}")
            kwargs[key] = tuple(parse_rational(v) for v in d[key])
    if "a" not in kwargs or "b" not in kwargs:
        lo, hi = _density_range_hint(kwargs)
        kwargs.setdefault("a", lo)
        kwargs.setdefault("b", hi)
    return DensityField(**kwargs)


def _density_range_hint(kwargs: dict) -> tuple[Fraction, Fraction]:
    """Loose declared bounds when the scenario omits them (validated later)."""
    kind = kwargs.get("kind", "constant")
    if kind == "constant":
        v = kwargs.get("value", Fraction(1))
        return v, v
    return Fraction(1, 1000), Fraction(1000)


def _solver_from_dict(d: dict) -> SolverConfig:
    return SolverConfig(
        removal_order=d.get("removal_order", "heaviest-first"),
        max_passes=_as_int(d.get("max_passes", 4), "solver.max_passes"),
        seed=_as_int(d.get("seed", 0), "solver.seed"),
    )


# ---------------------------------------------------------------------------
# built-in boundaries


# each builtin tag's grid dimension, and the name its dimension error uses
_BUILTIN_GRID = {"disk": (2, "disk boundary"), "three_rings": (3, "three_rings"),
                 "torus_longitude": (3, "torus_longitude"), "sphere_shell": (3, "sphere_shell")}


def _block_boundary(lo: tuple[int, ...], hi: tuple[int, ...]) -> set[Cell]:
    """The mod-2 boundary of the block of cells anchored in [lo, hi), spanning
    the axes where lo < hi and at lo on the others: its side faces normal to
    each spanned axis, at lo and at hi, listed directly.  Each builtin is the
    boundary of one or two blocks (the torus: the outer solid XOR its hole)."""
    spanned = [a for a, (l, h) in enumerate(zip(lo, hi)) if l < h]
    full = sum(1 << a for a in spanned)
    out: set[Cell] = set()
    for a in spanned:
        for end in (lo[a], hi[a]):
            ranges = [range(end, end + 1) if b == a else range(l, max(h, l + 1))
                      for b, (l, h) in enumerate(zip(lo, hi))]
            out.update(Cell(anchor, full ^ 1 << a) for anchor in itertools.product(*ranges))
    return out


def build_boundary(scenario: Scenario) -> CubicalComplex:
    grid = scenario.grid
    spec = scenario.boundary
    tag = spec["tag"]
    if tag == "custom":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ValueError(f"scenario field boundary.path must be a file path, got {path!r}")
        with open(path) as fh:
            A = complex_from_text(fh.read())
        if A.grid != grid:
            raise ValueError("custom boundary grid differs from the scenario grid")
        return A
    if not isinstance(tag, str) or tag not in _BUILTIN_GRID:
        raise ValueError(f"unknown boundary tag {tag!r}")
    n, name = _BUILTIN_GRID[tag]
    if grid.n != n:
        raise ValueError(f"{name} requires a {n}-dimensional grid")
    if tag == "disk":
        size = _as_int(spec.get("size", 3), "boundary.size")
        x0, y0 = _int_pair(spec.get("origin", (0, 0)), "boundary.origin")
        lo, hi = (x0, y0), (x0 + size, y0 + size)
        _require_in_box(grid, (0, 1), lo, hi)
        cells = _block_boundary(lo, hi)
    elif tag == "three_rings":
        size = _as_int(spec.get("size", 3), "boundary.size")
        spacing = _as_int(spec.get("spacing"), "boundary.spacing")
        x0, y0 = _int_pair(spec.get("origin", (0, 0)), "boundary.origin")
        z0 = _as_int(spec.get("z0", 0), "boundary.z0")
        if spacing < 1:
            raise ValueError("ring spacing must be at least 1")
        if z0 + 2 * spacing > grid.box[2][1] or z0 < grid.box[2][0]:
            raise ValueError("ring spacing exceeds the box height")
        _require_in_box(grid, (0, 1), (x0, y0), (x0 + size, y0 + size))
        cells = set().union(*(_block_boundary((x0, y0, z), (x0 + size, y0 + size, z))
                              for z in range(z0, z0 + 3 * spacing, spacing)))
    elif tag == "torus_longitude":
        outer = _int_pairs(spec.get("outer", [[0, 6], [0, 6]]), "boundary.outer", 2)
        hole = _int_pairs(spec.get("hole", [[2, 4], [2, 4]]), "boundary.hole", 2)
        z = _int_pair(spec.get("z", (1, 3)), "boundary.z")
        _require_in_box(grid, (0, 1), *zip(*outer))
        if not (grid.box[2][0] <= z[0] < z[1] <= grid.box[2][1]):
            raise ValueError("torus z-range outside the box")
        for axis in (0, 1):
            if not outer[axis][0] < hole[axis][0] < hole[axis][1] < outer[axis][1]:
                raise ValueError("torus hole must be strictly inside the outer box")
        cells = _block_boundary(*zip(*outer, z)) ^ _block_boundary(*zip(*hole, z))
    else:
        box = _int_pairs(spec.get("solid", [[0, 3], [0, 3], [0, 3]]), "boundary.solid", 3)
        for a in range(3):
            if not grid.box[a][0] <= box[a][0] < box[a][1] <= grid.box[a][1]:
                raise ValueError("sphere shell solid outside the box")
        cells = _block_boundary(*zip(*box))
    return CubicalComplex(grid, cells)


def _require_in_box(grid, axes, lo, hi) -> None:
    for a, l, h in zip(axes, lo, hi):
        if not grid.box[a][0] <= l < h <= grid.box[a][1]:
            raise ValueError(f"boundary rectangle outside the box on axis {a}")


def build_classes(scenario: Scenario, A: CubicalComplex) -> list[CohomologyClass]:
    if scenario.L_spec == "canonical":
        return canonical_L(A, scenario.m, scenario.coeffs)
    if not isinstance(scenario.L_spec, list):
        raise ValueError(
            f'scenario field L must be "canonical" or a list of classes, got {scenario.L_spec!r}'
        )
    classes = []
    pos = A.position(scenario.m - 1)
    for i, entry in enumerate(scenario.L_spec):
        path = f"L[{i}].cochain"
        cochain = entry.get("cochain") if isinstance(entry, dict) else None
        if not isinstance(cochain, list):
            raise ValueError(f"scenario field {path} must be a list, got {cochain!r}")
        rep = [scenario.coeffs.zero] * len(pos)
        for item in cochain:
            try:
                *anchor, mask, coeff = item
                cell = Cell(tuple(_as_int(v, path) for v in anchor),
                            _as_int(mask, path))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"scenario field {path} entry {item!r} is not [*anchor, mask, coeff]"
                ) from exc
            if cell not in pos:
                raise ValueError(f"class cochain cell {cell} is not a cell of A")
            rep[pos[cell]] = scenario.coeffs.reduce(parse_rational(coeff))
        classes.append(CohomologyClass(rep, entry.get("label", f"class-{i}")))
    return classes


def build_problem(scenario: Scenario) -> SpanningProblem:
    A = build_boundary(scenario)
    L = build_classes(scenario, A)
    # A's grid equals the scenario's; a custom file's is another object, and
    # each grid object builds its own `HalfLattice`
    return SpanningProblem(A, A.grid, scenario.m, L, scenario.coeffs, scenario.density)


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class RunReport:
    scenario: dict
    solve_report: dict
    diagnostics: dict
    files: list[str]
    version: str
    seed: int
    wall_time: float
    determinism_hash: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "solve": self.solve_report,
                "diagnostics": self.diagnostics,
                "files": self.files,
                "version": self.version,
                "seed": self.seed,
                "wall_time_seconds": round(self.wall_time, 3),
                "determinism_hash": self.determinism_hash,
            },
            indent=2,
            sort_keys=True,
        )


def _hashable_core(scenario: dict, solve_report: dict, diagnostics: dict) -> str:
    core = {
        "scenario": scenario,
        "solve": {k: v for k, v in solve_report.items() if k != "wall_time_seconds"},
        "diagnostics": diagnostics,
    }
    return hashlib.sha256(
        json.dumps(core, sort_keys=True).encode()
    ).hexdigest()


def _diagnostics_blocks(X: Surface, names: list[str]) -> dict:
    out: dict[str, Any] = {}
    if not X.free_mcells():
        return {name: "empty surface" for name in names}
    side = X.problem.grid.side
    p = default_probe_point(X)
    if "slicing" in names:
        rep = slicing_check(X, p, 2 * side)
        out["slicing"] = {
            "center": [frac_str(c) for c in rep.center],
            "shell_width": frac_str(rep.shell_width),
            "lhs": frac_str(rep.lhs),
            "rhs": frac_str(rep.rhs),
            "slack_factor": frac_str(rep.slack_factor)
            if rep.slack_factor is not None
            else None,
        }
    if "profile" in names:
        radii = [side * k for k in (1, 2, 3, 4)]
        prof = density_profile(X, p, radii)
        out["profile"] = {
            "point": [frac_str(c) for c in prof.point],
            "radii": [frac_str(r) for r in prof.radii],
            "g": [frac_str(v) for v in prof.g],
            "ratios": [round(v, 9) for v in prof.ratios()],
        }
    if "regularity" in names:
        reg = regularity_constant(X, 4 * side)
        out["regularity"] = {
            "c_hat": frac_str(reg.c_hat),
            "max_radius": frac_str(reg.max_radius),
            "sample_size": reg.sample_size,
        }
    if "monotonicity" in names:
        pairs = [(4 * side, 2 * side), (3 * side, 2 * side), (2 * side, side)]
        mono = monotonicity_check(X, p, pairs)
        out["monotonicity"] = {
            "pairs": [[frac_str(r), frac_str(s)] for r, s in mono.pairs],
            "ratios": [
                frac_str(r) if r is not None else None for r in mono.ratios
            ],
            "warnings": mono.warnings,
        }
    return out


def run(
    scenario: Scenario,
    out_dir: Optional[str] = None,
    mesh: bool = False,
    diagnostics_override: Optional[list[str]] = None,
) -> tuple[RunReport, Surface]:
    t0 = time.monotonic()
    problem = build_problem(scenario)
    X, solve_report = solve(problem, scenario.solver)
    names = (
        diagnostics_override
        if diagnostics_override is not None
        else scenario.diagnostics
    )
    blocks = _diagnostics_blocks(X, names)
    files: list[str] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        surf_path = os.path.join(out_dir, f"{scenario.name}.surface.txt")
        with open(surf_path, "w") as fh:
            fh.write(complex_to_text(X.complex))
        files.append(surf_path)
        if mesh:
            mesh_path = os.path.join(out_dir, f"{scenario.name}.off")
            export_off(X.complex, mesh_path)
            files.append(mesh_path)
    solve_dict = solve_report.to_dict()
    report = RunReport(
        scenario=scenario.raw,
        solve_report=solve_dict,
        diagnostics=blocks,
        files=files,
        version=__version__,
        seed=scenario.seed,
        wall_time=time.monotonic() - t0,
        determinism_hash=_hashable_core(scenario.raw, solve_dict, blocks),
    )
    if out_dir is not None:
        report_path = os.path.join(out_dir, f"{scenario.name}.report.json")
        with open(report_path, "w") as fh:
            fh.write(report.to_json() + "\n")
        report.files.append(report_path)
    return report, X


def check_surface(surface_path: str, scenario: Scenario) -> bool:
    """Spanning verdict for a surface stored in the complex text format."""
    with open(surface_path) as fh:
        complex_ = complex_from_text(fh.read())
    if complex_.grid != scenario.grid:
        raise ValueError("surface grid differs from the scenario grid")
    problem = build_problem(scenario)
    # A's own m-cells add zero rows to the spanning system: each class is a cocycle
    return spans(Surface(problem, complex_.cells_of_dim(problem.m)))
