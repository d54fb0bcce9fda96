"""Seeded scenario dicts for the three benchmark workloads.

Every input is a plain dict in the `scenarios/*.json` schema (rationals as
"p/q" strings); the program sees it only through
`plateau.scenarios.scenario_from_dict`.  The same (workload, seed) gives
byte-identical dicts: all randomness comes from one `random.Random` seeded
with a string, which does not depend on PYTHONHASHSEED.

Each workload is a fixed list of strata (boundary family, m, density kind,
field), and the seed draws the remaining properties inside each stratum: box
padding, boundary placement, symmetric variants of the density, and the
scenario's `solver` block.  Keeping the strata fixed keeps the cost and total
weight of an instance set close across seeds, so a run-to-run difference
measures the code, not the draw.
"""

from __future__ import annotations

import json
import random
from typing import Any

# Shipped scenarios the oracle certifies today, with their README optima.
SHIPPED: dict[str, tuple[dict, str]] = {
    "disk3": ({
        "name": "disk3",
        "grid": {"n": 2, "k": 0, "box": [[0, 5], [0, 5]]},
        "boundary": {"tag": "disk", "size": 3, "origin": [1, 1]},
        "m": 2, "seed": 1,
    }, "9"),
    "sphere_shell": ({
        "name": "sphere_shell",
        "grid": {"n": 3, "k": 0, "box": [[0, 4], [0, 4], [0, 4]]},
        "boundary": {"tag": "sphere_shell", "solid": [[1, 3], [1, 3], [1, 3]]},
        "m": 3, "seed": 1,
    }, "8"),
    "rings_tiny": ({
        "name": "rings_tiny",
        "grid": {"n": 3, "k": 0, "box": [[0, 4], [0, 4], [0, 6]]},
        "boundary": {"tag": "three_rings", "size": 3, "origin": [0, 0],
                     "spacing": 1, "z0": 1},
        "m": 2, "seed": 1,
    }, "21"),
    "torus": ({
        "name": "torus_meridian",
        "grid": {"n": 3, "k": 0, "box": [[0, 6], [0, 6], [0, 4]]},
        "boundary": {"tag": "torus_longitude", "outer": [[0, 6], [0, 6]],
                     "hole": [[2, 4], [2, 4]], "z": [1, 3]},
        "m": 2,
        "L": [{"label": "longitude", "cochain": [
            [x, y, 2, 4, 1]
            for x, y in
            [(x, 0) for x in range(7)] + [(x, 6) for x in range(7)]
            + [(0, y) for y in range(1, 6)] + [(6, y) for y in range(1, 6)]
        ]}],
        "density": {"kind": "radial", "center": ["3", "1"], "slope": "1/4",
                    "offset": "1", "a": "1", "b": "9/4"},
        "seed": 1,
    }, "9/2"),
}

FIELDS = {"gf2": "gf2", "gf3": {"kind": "gfp", "p": 3}, "q": "rational"}

# Kept shares of the box m-cells for the verify surfaces: the empty surface
# never spans, the full box fill always does (the box is contractible), and
# the seed draws which cells the partial ones keep.  Fixed sizes keep the cost
# of a verdict, which grows with the surface, close across seeds.
KEEP = [0.0, 1.0, 0.5, 0.7, 0.85, 0.95]


def canonical_bytes(items: Any) -> bytes:
    """The byte form two generator calls must agree on."""
    return json.dumps(items, sort_keys=True).encode()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"plateau-bench:{workload}:{seed}")


def _solver_block(rng: random.Random) -> dict:
    # local_box_side stays 2: with side 1 a region has no interior m-cells,
    # so local replacement, the hot path this workload measures, never runs.
    return {
        "removal_order": rng.choice(["heaviest-first", "random"]),
        "local_box_side": 2,
        "max_passes": rng.choice([3, 4]),
        "seed": rng.randrange(1000),
    }


def _pad(rng: random.Random, extent: list[int], axes: int,
         pad: bool = True) -> tuple[list[list[int]], list[int]]:
    """Box around `extent` cells per axis with one seeded spare layer.

    One of the first `axes` axes gets one extra layer on a seeded side
    (none when `pad` is false); returns the box and the boundary's low corner.
    """
    grow = rng.randrange(axes) if pad else -1
    low_side = rng.random() < 0.5
    box, origin = [], []
    for a, e in enumerate(extent):
        extra = 1 if a == grow else 0
        box.append([0, e + extra])
        origin.append(1 if a == grow and low_side else 0)
    return box, origin


def _disk(rng: random.Random, name: str, density: dict | None, pad: bool = True) -> dict:
    size = 3
    box, origin = _pad(rng, [size + 2, size + 2], 2, pad)
    d = {
        "name": name,
        "grid": {"n": 2, "k": 0, "box": box},
        "boundary": {"tag": "disk", "size": size,
                     "origin": [origin[0] + 1, origin[1] + 1]},
        "m": 2,
        "seed": rng.randrange(1000),
    }
    if density:
        d["density"] = density
    return d


def _rings(rng: random.Random, name: str, size: int, spacing: int) -> dict:
    # A tight box: one spare layer costs up to twice the solve time, and how
    # much depends on which side it sits, so padding would dominate the draw.
    return {
        "name": name,
        "grid": {"n": 3, "k": 0,
                 "box": [[0, size + 1], [0, size + 1], [0, 2 * spacing + 2]]},
        "boundary": {"tag": "three_rings", "size": size, "origin": [0, 0],
                     "spacing": spacing, "z0": 1},
        "m": 2,
        "seed": rng.randrange(1000),
    }


def _torus(rng: random.Random, name: str, outer: int, density: dict | None) -> dict:
    # a tight box, as for the rings
    ring = (
        [(x, y) for x in range(outer + 1) for y in (0, outer)]
        + [(x, y) for y in range(1, outer) for x in (0, outer)]
    )
    d = {
        "name": name,
        "grid": {"n": 3, "k": 0, "box": [[0, outer], [0, outer], [0, 3]]},
        "boundary": {"tag": "torus_longitude", "outer": [[0, outer], [0, outer]],
                     "hole": [[1, outer - 1], [1, outer - 1]], "z": [1, 2]},
        "m": 2,
        # vertical edges of the outer wall: the class dual to the meridian
        "L": [{"label": "longitude", "cochain": [[x, y, 1, 4, 1] for x, y in ring]}],
        "seed": rng.randrange(1000),
    }
    if density == "radial":
        # centre on the middle of a seeded arm; the four arms are symmetric
        mid, low, high = f"{outer}/2", "1/2", f"{2 * outer - 1}/2"
        center = [[mid, low], [mid, high], [low, mid], [high, mid]][rng.randrange(4)]
        d["density"] = {"kind": "radial", "center": center, "slope": "1/4",
                        "offset": "1"}
    return d


def _shell(rng: random.Random, name: str, solid: list[int], density: dict | None,
           pad: bool = True) -> dict:
    extent = list(solid)
    rng.shuffle(extent)
    box, origin = _pad(rng, [e + 2 for e in extent], 3, pad)
    d = {
        "name": name,
        "grid": {"n": 3, "k": 0, "box": box},
        "boundary": {"tag": "sphere_shell", "solid": [
            [origin[a] + 1, origin[a] + 1 + extent[a]] for a in range(3)
        ]},
        "m": 3,
        "seed": rng.randrange(1000),
    }
    if density:
        d["density"] = density
    return d


def _affine(rng: random.Random, n: int) -> dict:
    """Affine density with a seeded permutation of fixed slopes over x, y."""
    xy = ["1/4", "1/8"]
    rng.shuffle(xy)
    coeffs = xy + ["1/8"] * (n - 2)
    return {"kind": "coordinate-affine", "offset": "1", "coeffs": coeffs}


def solve_instances(seed: int) -> list[dict]:
    """GF(2) instances of the four builtin families for `scenarios.run`."""
    rng = _rng("solve", seed)
    out = [
        _disk(rng, "disk-const", None),
        _disk(rng, "disk-affine", _affine(rng, 2)),
        _rings(rng, "rings-const", 2, 1),
        _torus(rng, "torus-const", 4, None),
        _torus(rng, "torus-radial", 4, "radial"),
        _shell(rng, "shell-const", [2, 2, 1], None),
        _shell(rng, "shell-affine", [2, 2, 1], _affine(rng, 3)),
    ]
    for d in out:
        d["solver"] = _solver_block(rng)
        d["diagnostics"] = "all"
    return out


def certify_instances(seed: int) -> list[dict]:
    """The shipped certified scenarios plus seeded instances of the families.

    The wide rings (size 4 and 5, spacing 1) exhaust the node budget today;
    constant density lets the crop shrink their box, radial density on the
    torus blocks the crop.
    """
    rng = _rng("certify", seed)
    out = [dict(d, name=f"shipped-{key}") for key, (d, _) in SHIPPED.items()]
    out += [
        _disk(rng, "disk-affine", _affine(rng, 2)),
        _rings(rng, "rings-narrow", 3, 2),
        _rings(rng, "rings-wide4", 4, 1),
        _rings(rng, "rings-wide5", 5, 1),
        _torus(rng, "torus-radial", 4, "radial"),
        _shell(rng, "shell-affine", [2, 2, 1], _affine(rng, 3)),
    ]
    return out


def verify_instances(seed: int) -> dict:
    """Problems with kept shares for random surfaces, plus box skeleta.

    Fields: GF(2) and GF(3) on every family, Q on the small disk and shell
    (Q elimination on the ring and torus boxes costs seconds per call).
    Each problem gets one surface per entry of `KEEP`.  Boxes are tight, so
    the seed varies only which cells each surface keeps: box size varies in
    the other two workloads.  The skeleta are fixed: the axis order of one
    box moves its H^1 time by up to 30%, which would dominate the draw.
    """
    rng = _rng("verify", seed)
    problems = []
    families = [
        ("disk", lambda: _disk(rng, "disk", None, pad=False), ("gf2", "gf3", "q")),
        ("shell", lambda: _shell(rng, "shell", [1, 1, 1], None, pad=False),
         ("gf2", "gf3", "q")),
        ("rings", lambda: _rings(rng, "rings", 2, 1), ("gf2", "gf3")),
        ("torus", lambda: _torus(rng, "torus", 3, None), ("gf2", "gf3")),
    ]
    for family, make, fields in families:
        for field in fields:
            d = make()
            d["name"] = f"{family}-{field}"
            d["coeffs"] = FIELDS[field]
            problems.append({
                "family": family,
                "scenario": d,
                "keep": KEEP,
                "surface_seed": rng.randrange(10**6),
            })
    skeleta = [
        {"dims": [2, 3, 4], "coeffs": FIELDS["gf3"]},
        {"dims": [3, 4, 4], "coeffs": FIELDS["gf2"]},
    ]
    return {"problems": problems, "skeleta": skeleta}


GENERATORS = {
    "solve": solve_instances,
    "certify": certify_instances,
    "verify": verify_instances,
}
