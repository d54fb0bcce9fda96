"""Empirical measure-theoretic diagnostics on discrete surfaces.

Slicing tables, density profiles, regularity constants, and monotonicity
ratios.  Pass/fail decisions stay in exact rational arithmetic; pi enters
only in reported float ratios, never in assertions.  Distances are squared
and in half-lattice units (side / 2), where a cell's barycenter is the int
tuple 2 * anchor + axis bit: a ball of radius r is d2 <= (2r / side)**2.
Weights are the problem's `weight_table` ints, summed before one division
by its scale; a probe of a surface from a point is computed once and kept
with the surface.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Cell
from .spanning import Surface

# unit-ball volumes used in reported ratios (floats by design), for every m
# the schema accepts: alpha_m = alpha_(m-2) * 2 pi / m gives 1, 2, pi and
# 4 pi / 3 to the bit for m <= 3
_ALPHA = [1.0, 2.0]
for _m in range(2, 7):
    _ALPHA.append(_ALPHA[_m - 2] * 2 * math.pi / _m)


def _exact(v: Fraction):
    """v as an int when it is whole, so lattice comparisons stay in ints."""
    return v.numerator if v.denominator == 1 else v


def _radius2(r: Fraction, side: Fraction):
    """(2r / side)**2, an int when r is a whole number of sides."""
    q, rest = divmod(r, side)
    return (2 * q) ** 2 if not rest else _exact((2 * r / side) ** 2)


def _probe(X: Surface, point: tuple[Fraction, ...]) -> list[tuple[object, int]]:
    """(d2 from the point, `weight_table` int) of every free m-cell, once per
    surface and point; d2 is an int when the point lies on the half-lattice."""
    if point not in X._probes:
        cells, table = X.free_mcells(), X.problem.weight_table()[0]
        q = [_exact(2 * x / X.problem.grid.side) for x in point]
        X._probes[point] = [
            (sum((b - p) ** 2 for b, p in zip(c.half_coords(), q)), table[c])
            for c in cells
        ]
    return X._probes[point]


def _ball_weight(X: Surface, probe: list, r: Fraction) -> Fraction:
    """Weight of the probed cells whose barycenter lies within r > 0."""
    if r <= 0:
        raise ValueError(f"radius {r} must be positive")
    r2 = _radius2(r, X.problem.grid.side)
    return Fraction(sum(w for d2, w in probe if d2 <= r2), X.problem.weight_table()[1])


@dataclass
class SliceReport:
    center: tuple[Fraction, ...]
    shell_width: Fraction
    bands: list[tuple[Fraction, Fraction, Fraction]]  # (t_low, band weight, slice est.)
    lhs: Fraction
    rhs: Fraction

    @property
    def slack_factor(self) -> Optional[Fraction]:
        return self.lhs / self.rhs if self.rhs else None


def _band_index(d2, w) -> int:
    """floor(sqrt(d2)/w) without leaving exact arithmetic, in ints when
    both are ints."""
    return math.isqrt(d2 // w**2)


def slicing_check(X: Surface, center: Sequence[Fraction], shell_width: Fraction) -> SliceReport:
    """Band the weighted m-measure by barycenter distance from the center.

    The per-band slice estimate is band weight / width, so lhs approximates
    the integrated slice measure; the calibrated claim is lhs within a sqrt(n)
    factor of rhs, not the continuous inequality verbatim.
    """
    side = X.problem.grid.side
    if shell_width < side:
        raise ValueError("shell width must be at least one cell side")
    center = tuple(Fraction(c) for c in center)
    scale = X.problem.weight_table()[1]
    bands: dict[int, int] = {}
    width = _exact(2 * shell_width / side)  # in half-lattice units
    probe = _probe(X, center)
    for d2, w in probe:
        j = _band_index(d2, width)
        bands[j] = bands.get(j, 0) + w
    rhs = Fraction(sum(w for _, w in probe), scale)
    table = [
        (j * shell_width, Fraction(bw, scale), Fraction(bw, scale) / shell_width)
        for j, bw in sorted(bands.items())
    ]
    lhs = sum((sl * shell_width for _, _, sl in table), Fraction(0))
    return SliceReport(center, shell_width, table, lhs, rhs)


@dataclass
class DensityProfile:
    point: tuple[Fraction, ...]
    radii: list[Fraction]
    g: list[Fraction]
    m: int

    def ratios(self) -> list[float]:
        alpha = _ALPHA[self.m]
        return [float(gv) / (alpha * float(r) ** self.m) for r, gv in zip(self.radii, self.g)]

    def lower_density(self, min_radius: Fraction) -> Optional[float]:
        vals = [
            ratio
            for r, ratio in zip(self.radii, self.ratios())
            if r >= min_radius
        ]
        return min(vals) if vals else None


def density_profile(
    X: Surface, point: Sequence[Fraction], radii: Sequence[Fraction]
) -> DensityProfile:
    point = tuple(Fraction(p) for p in point)
    side = X.problem.grid.side
    lattice = tuple(p / side for p in point)
    vertex = tuple(int(v) for v in lattice)
    if any(v.denominator != 1 for v in lattice) or (
        Cell(vertex, 0) not in X.problem.A
        and not any(vertex in c.corners() for c in X.mcells)
    ):
        raise ValueError("profile point must be a lattice point of the surface")
    rs = sorted(Fraction(r) for r in radii)
    probe = _probe(X, point)
    g = [_ball_weight(X, probe, r) for r in rs]
    for a, b in zip(g, g[1:]):
        if a > b:
            raise AssertionError("profile must be monotone in r")
    return DensityProfile(point, rs, g, X.problem.m)


@dataclass
class RegularityReport:
    c_hat: Fraction
    max_radius: Fraction
    sample_size: int
    worst: Optional[tuple[tuple[Fraction, ...], Fraction]] = None


def regularity_constant(X: Surface, max_radius: Fraction) -> RegularityReport:
    """c_hat = min over surface lattice points p and dyadic radii r <= R of
    measure(X within r of p) / r^m, in exact rationals."""
    cells = X.free_mcells()
    if not cells:
        raise ValueError("surface has no cells outside A")
    grid = X.problem.grid
    m = X.problem.m
    radii = []
    r = grid.side
    while r <= max_radius:
        radii.append(r)
        r *= 2
    if not radii:
        raise ValueError("max radius below one cell side")
    # a ball's measure is count * side**m, so with r_j = side * 2**j its
    # ratio is count / 2**(j m): compared as count << (J - j) m in ints, J
    # the last j.  One sorted pass serves every r
    bary = [c.half_coords() for c in cells]
    J = len(radii) - 1
    cutoffs = [(_radius2(r, grid.side), (J - j) * m, r) for j, r in enumerate(radii)]
    best: Optional[int] = None
    worst = None
    count = 0
    for v in X.free_vertices:
        d2 = sorted(
            sum((b - 2 * x) ** 2 for b, x in zip(bc, v)) for bc in bary
        )
        for r2, shift, r in cutoffs:
            val = bisect_right(d2, r2) << shift
            count += 1
            if best is None or val < best:
                best = val
                worst = (tuple(Fraction(x) * grid.side for x in v), r)
    if best is None:
        raise AssertionError("no surface lattice point was sampled")
    return RegularityReport(Fraction(best, 1 << J * m), max_radius, count, worst)


@dataclass
class MonotonicityReport:
    point: tuple[Fraction, ...]
    pairs: list[tuple[Fraction, Fraction]]
    ratios: list[Optional[Fraction]]
    warn_threshold: Fraction
    warnings: list[str] = field(default_factory=list)

    @property
    def min_ratio(self) -> Optional[Fraction]:
        vals = [r for r in self.ratios if r is not None]
        return min(vals) if vals else None

    @property
    def k_hat(self) -> Optional[float]:
        vals = [
            float(ratio) ** (1.0 / float(r))
            for (r, _s), ratio in zip(self.pairs, self.ratios)
            if ratio is not None and ratio > 0
        ]
        return min(vals) if vals else None


def monotonicity_check(
    X: Surface,
    point: Sequence[Fraction],
    radius_pairs: Sequence[tuple[Fraction, Fraction]],
    warn_threshold: Fraction = Fraction(1, 10),
) -> MonotonicityReport:
    """Ratios (g(r)/r^m)/(g(s)/s^m) for s <= r; WARN below threshold, no hard
    assertion (lattice surfaces need not be pointwise minimizers)."""
    point = tuple(Fraction(p) for p in point)
    m = X.problem.m
    probe = _probe(X, point)
    pairs = []
    ratios: list[Optional[Fraction]] = []
    warnings = []
    for r, s in radius_pairs:
        r, s = Fraction(r), Fraction(s)
        if s > r:
            raise ValueError(f"pair ({r}, {s}) must satisfy s <= r")
        pairs.append((r, s))
        gs = _ball_weight(X, probe, s)
        gr = _ball_weight(X, probe, r)
        if gs == 0:
            ratios.append(None)
            continue
        ratio = (gr / r**m) / (gs / s**m)
        ratios.append(ratio)
        if ratio < warn_threshold:
            warnings.append(
                f"WARN monotonicity ratio {float(ratio):.4f} below "
                f"{float(warn_threshold):.4f} at (r={r}, s={s})"
            )
    return MonotonicityReport(point, pairs, ratios, warn_threshold, warnings)


def default_probe_point(X: Surface) -> tuple[Fraction, ...]:
    """Deterministic lattice point on X outside A, for report probes."""
    verts = X.free_vertices
    if not verts:
        raise ValueError("surface has no cells outside A")
    side = X.problem.grid.side
    mid = verts[len(verts) // 2]
    return tuple(Fraction(x) * side for x in mid)
