import contextlib
import copy
import io
import json
import os
import re
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plateau.cli import main
from plateau.lattice import (
    Cell, CubicalComplex, GridSpec, build_skeleton, complex_to_text, connected_components,
)
from plateau.linalg import GF2
from plateau.scenarios import (
    _block_boundary,
    build_boundary,
    build_problem,
    check_surface,
    load_scenario,
    parse_rational,
    run,
    scenario_from_dict,
)
from plateau.spanning import SpanningProblem, check_closed_manifold

from conftest import (
    SCENARIO_NAMES, block_cells, euler_characteristic, load, mod2_boundary, scenario_path,
)


def test_parse_rational():
    from fractions import Fraction

    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="boolean"):
        parse_rational(True)
    with pytest.raises(ValueError, match="rational"):
        parse_rational([1])


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_shipped_scenarios_load_and_build(name):
    scenario = load(name)
    problem = build_problem(scenario)
    assert problem.L  # at least one nonzero class
    assert problem.m == scenario.m


def test_missing_fields_rejected():
    with pytest.raises(ValueError, match="'grid' is required"):
        scenario_from_dict({"boundary": {"tag": "disk"}, "m": 2, "seed": 0})
    with pytest.raises(ValueError, match="'box' is required"):
        scenario_from_dict(
            {"grid": {"n": 2, "k": 0}, "boundary": {"tag": "disk"},
             "m": 2, "seed": 0}
        )
    with pytest.raises(ValueError, match="'tag' is required"):
        scenario_from_dict(
            {"grid": {"n": 2, "k": 0, "box": [[0, 3], [0, 3]]},
             "boundary": {}, "m": 2, "seed": 0}
        )


def test_unknown_coeffs_and_diagnostic_rejected():
    base = {
        "grid": {"n": 2, "k": 0, "box": [[0, 5], [0, 5]]},
        "boundary": {"tag": "disk", "size": 3, "origin": [1, 1]},
        "m": 2,
        "seed": 0,
    }
    with pytest.raises(ValueError, match="unknown coefficient"):
        scenario_from_dict({**base, "coeffs": "float"})
    with pytest.raises(ValueError, match="unknown diagnostic"):
        scenario_from_dict({**base, "diagnostics": ["entropy"]})
    with pytest.raises(ValueError, match="unknown boundary tag"):
        build_boundary(
            scenario_from_dict({**base, "boundary": {"tag": "moebius"}})
        )


def test_ring_spacing_validation():
    base = {
        "grid": {"n": 3, "k": 0, "box": [[0, 4], [0, 4], [0, 6]]},
        "m": 2,
        "seed": 0,
    }
    with pytest.raises(ValueError, match="ring spacing exceeds the box height"):
        build_boundary(
            scenario_from_dict(
                {**base, "boundary": {"tag": "three_rings", "size": 3,
                                      "spacing": 4, "z0": 0}}
            )
        )
    with pytest.raises(ValueError, match="spacing must be at least 1"):
        build_boundary(
            scenario_from_dict(
                {**base, "boundary": {"tag": "three_rings", "size": 3,
                                      "spacing": 0, "z0": 0}}
            )
        )


def test_torus_hole_validation():
    base = {
        "grid": {"n": 3, "k": 0, "box": [[0, 6], [0, 6], [0, 4]]},
        "m": 2,
        "seed": 0,
    }
    with pytest.raises(ValueError, match="strictly inside"):
        build_boundary(
            scenario_from_dict(
                {**base,
                 "boundary": {"tag": "torus_longitude",
                              "outer": [[0, 6], [0, 6]],
                              "hole": [[0, 4], [2, 4]], "z": [1, 3]}}
            )
        )
    with pytest.raises(ValueError, match="z-range outside"):
        build_boundary(
            scenario_from_dict(
                {**base,
                 "boundary": {"tag": "torus_longitude",
                              "outer": [[0, 6], [0, 6]],
                              "hole": [[2, 4], [2, 4]], "z": [1, 5]}}
            )
        )


def test_component_counts():
    rings = build_boundary(load("rings_tiny"))
    assert len(connected_components(rings)) == 3
    torus = build_boundary(load("torus"))
    assert len(connected_components(torus)) == 1


def test_torus_euler_characteristic():
    torus = build_boundary(load("torus"))
    chi = sum(
        (-1) ** d * len(torus.cells_of_dim(d)) for d in range(3)
    )
    assert chi == 0


def test_zero_class_rejected():
    scenario = scenario_from_dict(
        {
            "grid": {"n": 2, "k": 0, "box": [[0, 5], [0, 5]]},
            "boundary": {"tag": "disk", "size": 3, "origin": [1, 1]},
            "m": 2,
            "L": [{"cochain": [[1, 1, 1, 0]]}],  # zero coefficient
            "seed": 0,
        }
    )
    with pytest.raises(ValueError, match="zero class"):
        build_problem(scenario)


def test_custom_boundary_grid_mismatch(tmp_path):
    from plateau.lattice import complex_to_text
    from plateau.scenarios import build_boundary as bb

    disk = build_boundary(load("disk3"))
    path = tmp_path / "ring.txt"
    path.write_text(complex_to_text(disk))
    scenario = scenario_from_dict(
        {
            "grid": {"n": 2, "k": 1, "box": [[0, 5], [0, 5]]},  # wrong k
            "boundary": {"tag": "custom", "path": str(path)},
            "m": 2,
            "seed": 0,
        }
    )
    with pytest.raises(ValueError, match="grid differs"):
        bb(scenario)


def test_run_is_deterministic():
    scenario = load("disk3")
    r1, X1 = run(scenario)
    r2, X2 = run(scenario)
    assert X1.mcells == X2.mcells
    assert r1.determinism_hash == r2.determinism_hash


@pytest.mark.parametrize("side", (1, 2, "x"))
def test_loader_ignores_local_box_side(side):
    """The sweep always uses 2-boxes: the loader ignores a `local_box_side`
    key, as it ignores any unknown `solver` key, and the solve block is the
    one without it."""
    raw = load("disk3").raw

    def solve_block(solver: dict) -> dict:
        report, _ = run(scenario_from_dict({**raw, "solver": solver}), diagnostics_override=[])
        return {k: v for k, v in report.solve_report.items() if k != "wall_time_seconds"}

    plain = solve_block({"max_passes": 2})
    assert solve_block({"max_passes": 2, "local_box_side": side}) == plain
    assert plain["final_weight"] == "9"


def test_run_writes_outputs(tmp_path):
    scenario = load("disk3")
    report, X = run(scenario, out_dir=str(tmp_path), mesh=True)
    names = {os.path.basename(f) for f in report.files}
    assert names == {
        "disk3.surface.txt", "disk3.off", "disk3.report.json"
    }
    data = json.loads((tmp_path / "disk3.report.json").read_text())
    assert data["solve"]["spans_verified"] is True
    assert data["determinism_hash"] == report.determinism_hash


def test_check_surface_roundtrip(tmp_path):
    scenario = load("disk3")
    report, X = run(scenario, out_dir=str(tmp_path))
    surf = tmp_path / "disk3.surface.txt"
    assert check_surface(str(surf), scenario)
    # a surface missing one interior cell does not span
    text = surf.read_text().splitlines()
    header, cells = text[0], text[1:]
    broken = tmp_path / "broken.txt"
    broken.write_text("\n".join([header] + cells[:-1]) + "\n")
    # removing an arbitrary line may drop an A cell instead; the verdict
    # just has to be computed without error
    check_surface(str(broken), scenario)


# ---------------------------------------------------------------------------
# command line


def test_cli_solve(tmp_path, capsys):
    code = main(
        ["solve", scenario_path("disk3"), "--out", str(tmp_path),
         "--mesh", "--diagnostics", "slicing,regularity"]
    )
    assert code == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["solve"]["final_weight"] == "9"
    assert set(data["diagnostics"]) == {"slicing", "regularity"}
    assert (tmp_path / "disk3.off").exists()


ESCAPING_NAMES = ["", ".", "..", "../escape", "sub/escape", os.path.abspath("escape")]


@pytest.mark.parametrize("name", ESCAPING_NAMES)
def test_scenario_name_must_be_a_plain_file_name(name):
    """The name is the stem of the files `run` writes into its output
    directory, so one that is empty, a dot entry or holds a path separator
    is rejected; a plain name loads as it is."""
    raw = load("disk3").raw
    with pytest.raises(ValueError, match="plain file name"):
        scenario_from_dict({**raw, "name": name})
    assert scenario_from_dict({**raw, "name": "disk3.copy"}).name == "disk3.copy"


@pytest.mark.parametrize("name", [None, 5, True, ["disk3"], {"stem": "disk3"}])
def test_scenario_name_must_be_a_string(name, tmp_path):
    """A name that is no string is an input error, not converted with str():
    the loader rejects it, and `plateau solve --out` exits 2 and writes
    nothing."""
    raw = {**load("disk3").raw, "name": name}
    with pytest.raises(ValueError, match="scenario field name must be a string"):
        scenario_from_dict(raw)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(raw))
    code, err = _cli_exit(["solve", str(path), "--out", str(tmp_path / "out"),
                           "--diagnostics", "none"])
    assert code == 2
    assert err.startswith("error:") and "name must be a string" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["named.json"]


def test_cli_solve_rejects_an_oversized_grid_level(tmp_path):
    """A disk3 copy at grid.k = 100,000 exits 2 at load, naming grid.k,
    before any solve allocates weights over 2**(k m)."""
    raw = load("disk3").raw
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**raw, "grid": {**raw["grid"], "k": 100_000}}))
    code, err = _cli_exit(["solve", str(path), "--diagnostics", "none"])
    assert code == 2
    assert err.startswith("error:") and "grid.k must lie in 0..64" in err


def test_cli_rejects_a_box_above_the_cell_bound(tmp_path, capsys):
    """A 3000x3000 disk holds 9,000,000 2-cells: `plateau solve` and
    `plateau check` exit 2 at once, naming the count and the bound, where
    the boundary rows used to allocate until a MemoryError.  The oracle
    crops the box to A's hull and still certifies 9; a radial density,
    which blocks the crop, is refused when the problem is built."""
    raw = {**load("disk3").raw, "grid": {"n": 2, "k": 0, "box": [[0, 3000], [0, 3000]]}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(raw))
    surface = tmp_path / "wide.surface.txt"
    grid = GridSpec(2, 0, ((0, 3000), (0, 3000)))
    surface.write_text(complex_to_text(CubicalComplex(grid, [Cell((1, 1), 0b11)])))
    for argv in (["solve", str(path), "--diagnostics", "none"],
                 ["check", str(surface), str(path)]):
        t0 = time.monotonic()
        code, err = _cli_exit(argv)
        assert time.monotonic() - t0 < 1
        assert code == 2
        assert err == "error: the box holds 9000000 2-cells, above the bound 20000\n"
    assert main(["oracle", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["best_weight"] == "9"
    radial = {"kind": "radial", "offset": 1, "slope": 1, "center": [1, 1], "a": 1, "b": 10**4}
    with pytest.raises(ValueError, match="9000000 2-cells, above the bound 20000"):
        build_problem(scenario_from_dict({**raw, "density": radial}))


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_cli_solve_name_cannot_leave_out_dir(tmp_path, absolute):
    """`plateau solve --out o1` with the name ../escape, which would write
    next to o1, or an absolute name, which would drop o1, exits 2 and writes
    nothing."""
    name = str(tmp_path / "escape") if absolute else "../escape"
    path = tmp_path / "escape.json"
    path.write_text(json.dumps({**load("disk3").raw, "name": name}))
    code, err = _cli_exit(["solve", str(path), "--out", str(tmp_path / "o1"),
                           "--diagnostics", "none"])
    assert code == 2
    assert err.startswith("error:") and "plain file name" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["escape.json"]


def test_cli_solve_diagnostics_none(capsys):
    code = main(["solve", scenario_path("disk3"), "--diagnostics", "none"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagnostics"] == {}


def test_cli_solve_four_cube(tmp_path, capsys):
    """m = 4 with every diagnostic: the boundary of a unit 4-cube in a box
    of side 2 spans with that cube alone."""
    grid = GridSpec(4, 0, ((0, 2),) * 4)
    cube = CubicalComplex(grid, [Cell((0, 0, 0, 0), 0b1111)])
    boundary = tmp_path / "cube4.txt"
    boundary.write_text(complex_to_text(
        CubicalComplex(grid, [c for c in cube.cells if c.dim < 4])))
    path = tmp_path / "cube4.json"
    path.write_text(json.dumps({
        "name": "cube4", "grid": {"n": 4, "k": 0, "box": [[0, 2]] * 4},
        "boundary": {"tag": "custom", "path": str(boundary)}, "m": 4, "seed": 1}))
    code = main(["solve", str(path), "--diagnostics", "all"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["solve"]["final_weight"] == "1"
    assert set(data["diagnostics"]) == {"slicing", "profile", "regularity", "monotonicity"}


def test_cli_check(tmp_path, capsys):
    run(load("disk3"), out_dir=str(tmp_path))
    surf = str(tmp_path / "disk3.surface.txt")
    code = main(["check", surf, scenario_path("disk3")])
    assert code == 0
    assert "spans" in capsys.readouterr().out


def test_cli_check_failing_surface(tmp_path, capsys):
    # an empty surface file: header only
    scenario = load("disk3")
    path = tmp_path / "empty.txt"
    from plateau.lattice import CubicalComplex, complex_to_text

    path.write_text(complex_to_text(CubicalComplex(scenario.grid, set())))
    code = main(["check", str(path), scenario_path("disk3")])
    assert code == 1
    assert "does-not-span" in capsys.readouterr().out


def test_cli_oracle(capsys):
    code = main(["oracle", scenario_path("disk3")])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["optimal"] is True
    assert data["best_weight"] == "9"


def test_cli_oracle_over_gf3(tmp_path, capsys):
    with open(scenario_path("disk3")) as fh:
        raw = json.load(fh)
    path = tmp_path / "disk3_gf3.json"
    path.write_text(json.dumps({**raw, "coeffs": {"kind": "gfp", "p": 3}}))
    code = main(["oracle", str(path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["optimal"] is True
    assert data["best_weight"] == "9"


def test_diagnostics_field_forms():
    with open(scenario_path("disk3")) as fh:
        raw = json.load(fh)
    assert scenario_from_dict({**raw, "diagnostics": "none"}).diagnostics == []
    assert scenario_from_dict(
        {**raw, "diagnostics": ["slicing", "profile"]}
    ).diagnostics == ["slicing", "profile"]
    with pytest.raises(ValueError, match="diagnostics must be"):
        scenario_from_dict({**raw, "diagnostics": 3})


def test_cli_error_paths(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2
    assert main(
        ["solve", scenario_path("disk3"), "--diagnostics", "entropy"]
    ) == 2
    capsys.readouterr()
    for top in ("5", "null", "true", "[1]", '"x"'):
        bad.write_text(top)
        assert main(["solve", str(bad)]) == 2
        assert "scenario must be a JSON object" in capsys.readouterr().err
    with open(scenario_path("disk3")) as fh:
        raw = json.load(fh)
    for field, change in (
        ("grid.box", {"grid": {**raw["grid"], "box": [5, 5]}}),
        ("coeffs.p", {"coeffs": {"kind": "gfp"}}),
        ("coeffs.p", {"coeffs": {"kind": "gfp", "p": 1000000000000000003}}),
        ("grid.k", {"grid": {**raw["grid"], "k": -1}}),
        ("'grid'", {"grid": 5}),
        ("'boundary'", {"boundary": "disk"}),
        ("'density'", {"density": 3}),
        ("'solver'", {"solver": [1]}),
        ("boundary.spacing", {
            "grid": {"n": 3, "k": 0, "box": [[0, 4], [0, 4], [0, 4]]},
            "boundary": {"tag": "three_rings"},
        }),
        ("boundary.path", {"boundary": {"tag": "custom"}}),
        ("solver.max_passes", {"solver": {"max_passes": None}}),
        ("boundary.origin", {"boundary": {"tag": "disk", "origin": 5}}),
        ("density.coeffs", {"density": {"kind": "coordinate-affine", "coeffs": 5}}),
        ("density.coeffs", {"density": {"kind": "coordinate-affine",
                                        "coeffs": ["1/8", "0", "0", "5"]}}),
        ("L[0].cochain", {"L": [{"cochain": 5}]}),
        ("field m ", {"m": 0}),
        ("field m ", {"m": 2.7}),
        ("field m ", {"m": True}),
        ("field seed ", {"seed": 1.5}),
        ("solver.max_passes", {"solver": {"max_passes": 2.9}}),
        ("grid.box", {"grid": {**raw["grid"], "box": [[0.5, 5.9], [0, 5]]}}),
        ("L[0].cochain", {"L": [{"cochain": [[1, 1, "1", 1]]}]}),
    ):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({**raw, **change}))
        assert main(["solve", str(path)]) == 2
        assert field in capsys.readouterr().err
    torus = load("torus").raw
    path.write_text(json.dumps(
        {**torus, "density": {**torus["density"], "center": ["3", "1", "0", "2"]}}))
    assert main(["solve", str(path)]) == 2
    assert "density.center" in capsys.readouterr().err
    for budget in ("0", "-3"):
        assert main(["oracle", scenario_path("disk3"), "--budget", budget]) == 2
        assert "budget" in capsys.readouterr().err
    for seconds in ("0", "-1.5", "nan"):
        assert main(["oracle", scenario_path("disk3"), "--time-limit", seconds]) == 2
        assert "time_limit" in capsys.readouterr().err


# Fields the loader reads as an integer, an integer pair, a list of pairs, an
# object, a tag, a rational or a list of rationals; the required ones may
# also go missing.
REQUIRED_FIELDS = {
    ("grid",), ("grid", "n"), ("grid", "k"), ("grid", "box"), ("boundary",),
    ("boundary", "tag"), ("boundary", "spacing"), ("m",), ("seed",),
}


def _fuzz_fields(raw: dict) -> list[tuple[tuple, str]]:
    """(path, shape) of every such field of a scenario dict."""
    fields = [(("grid",), "object"), (("boundary",), "object"), (("boundary", "tag"), "tag"),
              (("grid", "n"), "int"), (("grid", "k"), "int"), (("m",), "int"),
              (("seed",), "int"), (("grid", "box"), "pairs")]
    fields += [(("grid", "box", a, i), "int") for a in range(raw["grid"]["n"]) for i in (0, 1)]
    for key, value in raw["boundary"].items():
        if key != "tag":
            shape = ("int" if isinstance(value, int)
                     else "pair" if isinstance(value[0], int) else "pairs")
            fields.append((("boundary", key), shape))
    if "density" in raw:
        fields += [(("density",), "object"), (("density", "kind"), "tag")]
        fields += [(("density", key), "rationals" if key in ("coeffs", "center") else "rational")
                   for key in raw["density"] if key != "kind"]
    return fields


# the shipped scenarios, plus disk3 with an affine and a constant density,
# so that every density field the loader reads appears in some base
FUZZ_BASES = {name: load(name).raw for name in ("disk3", "rings_tiny", "torus", "sphere_shell")}
FUZZ_BASES["disk3-affine"] = {**FUZZ_BASES["disk3"], "density": {
    "kind": "coordinate-affine", "coeffs": ["1/8", "0"], "offset": "1", "a": "1", "b": "2",
    "hoelder_alpha": "1", "hoelder_const": "1/8"}}
FUZZ_BASES["disk3-constant"] = {**FUZZ_BASES["disk3"], "density": {"kind": "constant", "value": "3/2"}}
FUZZ_CASES = [
    (name, path, shape) for name, raw in FUZZ_BASES.items() for path, shape in _fuzz_fields(raw)
]
SMALL = st.integers(-3, 3)
WRONG_TYPE = {
    "int": st.one_of(st.text(max_size=3), st.none(), st.lists(SMALL, max_size=2)),
    "pair": st.one_of(st.text(max_size=3), st.none(), SMALL,
                      st.dictionaries(st.text(max_size=2), SMALL, max_size=2)),
    "object": st.one_of(st.text(max_size=3), st.none(), SMALL, st.lists(SMALL, max_size=2)),
    "tag": st.one_of(st.none(), SMALL, st.lists(SMALL, max_size=2)),
}
WRONG_TYPE["pairs"] = WRONG_TYPE["pair"]
# no text here parses as a rational
WRONG_TYPE["rational"] = st.one_of(st.text("xy/ .", max_size=3), st.none(),
                                   st.lists(SMALL, max_size=2))
WRONG_TYPE["rationals"] = st.one_of(WRONG_TYPE["rational"].filter(lambda v: type(v) is not list),
                                    SMALL, st.lists(WRONG_TYPE["rational"], min_size=1, max_size=2))


@given(case=st.sampled_from(FUZZ_CASES), data=st.data())
@settings(max_examples=200, deadline=None)
def test_malformed_scenario_exits_2(case, data):
    """A shipped scenario broken at one known field (a wrong type, a missing
    required key, a non-integral number, a boolean, or a density tuple longer
    than n) makes `plateau solve` exit 2 with an error line, never run or
    raise."""
    name, path, shape = case
    raw = copy.deepcopy(FUZZ_BASES[name])
    breaks = ["type", "fraction", "boolean"] + ["missing"] * (path in REQUIRED_FIELDS)
    breaks += ["long"] * (shape == "rationals")
    how = data.draw(st.sampled_from(breaks))
    *parents, last = path
    holder = raw
    for key in parents:
        holder = holder[key]
    if how == "missing":
        del holder[last]
    elif how == "long":
        n = raw["grid"]["n"]
        holder[last] = holder[last] + data.draw(st.lists(
            st.sampled_from(["0", "5", "1/8"]), min_size=n + 1 - len(holder[last]), max_size=n + 2))
    else:
        holder[last] = data.draw({
            "type": WRONG_TYPE[shape],
            "fraction": st.floats(-8, 8).filter(lambda x: not x.is_integer()),
            "boolean": st.booleans(),
        }[how])
    code, err = _solve_exit(raw)
    assert code == 2, (path, raw)
    assert err.startswith("error:")


def _cli_exit(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one `plateau` command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _solve_exit(raw: dict) -> tuple[int, str]:
    """Exit code and standard error of `plateau solve` on a scenario dict."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "broken.json")
        with open(scenario, "w") as fh:
            json.dump(raw, fh)
        return _cli_exit(["solve", scenario])


# disk3's A is one ring; its 1-cells are the cells an L cochain may name
RING_EDGES = build_boundary(load("disk3")).cells_of_dim(1)
NOT_INT = st.one_of(WRONG_TYPE["int"], st.booleans(),
                    st.floats(-8, 8).filter(lambda x: not x.is_integer()))
NOT_RATIONAL = st.one_of(WRONG_TYPE["rational"], st.booleans(), st.floats(-8, 8))


@st.composite
def _broken_item(draw):
    """An [x, y, mask, coeff] item on an edge of A with one position broken."""
    edge = draw(st.sampled_from(sorted(RING_EDGES)))
    item = [*edge.anchor, edge.free_axes, "1"]
    at = draw(st.integers(0, 3))
    item[at] = draw(NOT_RATIONAL if at == 3 else NOT_INT)
    return item


MALFORMED_ITEMS = st.one_of(
    st.none(), SMALL, st.text("xy", max_size=3),
    st.lists(SMALL, max_size=6).filter(lambda item: len(item) != 4),
    _broken_item(),
    # a well-formed item on a cell that is not an edge of A
    st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(0, 4)).filter(
        lambda t: Cell(t[:2], t[2]) not in RING_EDGES).map(lambda t: [*t, "1"]),
)
MALFORMED_L = st.one_of(
    st.one_of(st.none(), SMALL, st.text("xy", max_size=3),
              st.dictionaries(st.text(max_size=2), SMALL, max_size=2)),
    st.lists(st.one_of(st.none(), SMALL, st.text(max_size=3), st.lists(SMALL, max_size=2)),
             min_size=1, max_size=2),
    st.one_of(st.none(), SMALL, st.text(max_size=3),
              st.dictionaries(st.text(max_size=2), SMALL, max_size=2)).map(
        lambda cochain: [{"cochain": cochain}]),
    st.lists(MALFORMED_ITEMS, min_size=1, max_size=2).map(lambda items: [{"cochain": items}]),
)


@given(L=MALFORMED_L)
@settings(max_examples=150, deadline=None)
def test_malformed_L_exits_2(L):
    """An L field that is no list, holds an entry that is no object, a
    cochain that is no list, or an item that is no [*anchor, mask, coeff]
    on an (m-1)-cell of A makes `plateau solve` exit 2 with an error line."""
    code, err = _solve_exit({**FUZZ_BASES["disk3"], "L": L})
    assert code == 2, L
    assert err.startswith("error:")


# disk3's ring in the complex text format (n = 2, box [0, 5]^2): a surface
# file that `plateau check` reads, and a `custom` boundary file
RING_TEXT = complex_to_text(build_boundary(load("disk3")))
NOT_AN_INT = st.sampled_from(["x", "1.5", "1/2", "0x1", "--2", "+"])


@st.composite
def _malformed_complex_text(draw):
    """RING_TEXT broken once: a header that is not n, k and 2n box ends, a
    dimension out of 1..6, a degenerate box axis, a token that is no
    integer, a cell line of the wrong length, an axis mask outside [0, 4),
    or a cell anchored outside the box."""
    head, *cells = [line.split() for line in RING_TEXT.splitlines()]
    cell = draw(st.sampled_from(cells))
    how = draw(st.sampled_from(["short", "long", "dimension", "degenerate", "token",
                                "width", "mask", "outside"]))
    if how == "short":
        del head[draw(st.integers(1, len(head) - 1)):]
    elif how == "long":
        head += draw(st.lists(SMALL.map(str), min_size=1, max_size=3))
    elif how == "dimension":
        n = draw(st.sampled_from([0, 7, 8]))
        head[:] = [str(n), "0"] + ["0", "5"] * n
    elif how == "degenerate":  # high at or below low = 0
        head[draw(st.sampled_from([3, 5]))] = draw(st.sampled_from(["0", "-1"]))
    elif how == "token":
        row = draw(st.sampled_from([head, cell]))
        row[draw(st.integers(0, len(row) - 1))] = draw(NOT_AN_INT)
    elif how == "width":
        cell[:] = cell[:-1] if draw(st.booleans()) else cell + ["0"]
    elif how == "mask":
        cell[2] = str(draw(st.one_of(st.integers(-10**6, -1), st.integers(4, 10**6))))
    else:
        cell[draw(st.integers(0, 1))] = str(draw(st.one_of(st.integers(-10**6, -1),
                                                           st.integers(6, 10**6))))
    return "".join(" ".join(row) + "\n" for row in (head, *cells))


def _complex_file_exit(text: str, via: str) -> tuple[int, str]:
    """`plateau check` of text as a surface of disk3, or `plateau solve` of
    disk3 with text as its custom boundary."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.txt")
        with open(path, "w") as fh:
            fh.write(text)
        if via == "check":
            return _cli_exit(["check", path, scenario_path("disk3")])
        return _solve_exit({**FUZZ_BASES["disk3"], "boundary": {"tag": "custom", "path": path}})


def test_complex_text_rejects_malformed_lines():
    """RING_TEXT itself is well formed; a one-token header, and a cell line
    whose axis mask is 9 or -1 in an n = 2 file, exit 2."""
    assert _complex_file_exit(RING_TEXT, "check")[0] == 1  # the ring alone does not span
    assert _complex_file_exit(RING_TEXT, "custom")[0] == 0
    head, rest = RING_TEXT.split("\n", 1)
    for text in ("3\n" + rest, f"{head}\n1 1 9\n{rest}", f"{head}\n1 1 -1\n{rest}"):
        for via in ("check", "custom"):
            code, err = _complex_file_exit(text, via)
            assert code == 2 and err.startswith("error:"), (text, via)


@given(text=_malformed_complex_text(), via=st.sampled_from(["check", "custom"]))
@settings(max_examples=150, deadline=None)
def test_malformed_complex_file_exits_2(text, via):
    """A surface file for `plateau check`, or a `custom` boundary file for
    `plateau solve`, that breaks the complex text format exits 2 with an
    error line."""
    code, err = _complex_file_exit(text, via)
    assert code == 2, (text, via)
    assert err.startswith("error:")


@st.composite
def _nested_blocks(draw):
    """(lo, hi) of a block with n <= 4 and some axes possibly degenerate, and
    (lo, hi) of a block inside it, degenerate on any of the outer's axes."""
    n = draw(st.integers(1, 4))
    lo = [draw(st.integers(-2, 2)) for _ in range(n)]
    hi = [low + draw(st.integers(0, 3)) for low in lo]
    ilo = [draw(st.integers(low, max(low, high - 1))) for low, high in zip(lo, hi)]
    ihi = [draw(st.integers(low, high)) if high > low else low
           for low, high in zip(ilo, hi)]
    return (lo, hi), (ilo, ihi)


@given(blocks=_nested_blocks())
@settings(max_examples=300, deadline=None)
def test_block_boundary_matches_face_parity(blocks):
    """`_block_boundary` lists a block's side faces directly; they are the
    faces that an odd number of its cells have, and the XOR of a nested
    pair's boundaries is that of the cells in one block but not the other."""
    (lo, hi), (ilo, ihi) = blocks
    outer, inner = block_cells(lo, hi), block_cells(ilo, ihi)
    assert _block_boundary(lo, hi) == mod2_boundary(outer)
    assert _block_boundary(ilo, ihi) == mod2_boundary(inner)
    assert (_block_boundary(lo, hi) ^ _block_boundary(ilo, ihi)
            == mod2_boundary(set(outer) ^ set(inner)))


# per builtin: grid dimension, the dimension of the closed manifold it
# builds, its number of components and its Euler characteristic
BUILTINS = {"disk": (2, 1, 1, 0), "three_rings": (3, 1, 3, 0),
            "torus_longitude": (3, 2, 1, 0), "sphere_shell": (3, 2, 1, 2)}
PARAMETER_CHECKS = re.compile(
    "requires a [23]-dimensional grid|boundary rectangle outside the box"
    "|ring spacing (must be at least 1|exceeds the box height)"
    "|torus z-range outside the box|torus hole must be strictly inside"
    "|sphere shell solid outside the box")


def _shifted(draw, value):
    """value with each integer in it moved by at most 2."""
    if isinstance(value, int):
        return value + draw(st.integers(-2, 2))
    return [_shifted(draw, v) for v in value]


@st.composite
def _builtin_scenarios(draw):
    """A builtin boundary with in-range parameters in a small box.  Then, in
    three draws of four, the grid gets the wrong dimension or every
    parameter moves by at most 2, which reaches out of the box and makes
    ends meet."""
    tag = draw(st.sampled_from(sorted(BUILTINS)))
    n = BUILTINS[tag][0]
    box = [[draw(st.integers(-1, 0)), draw(st.integers(3, 7))] for _ in range(n)]

    def inside(axis: int, count: int) -> list[int]:
        """count distinct coordinates of the box along axis, in order."""
        return sorted(draw(st.lists(st.integers(*box[axis]), min_size=count,
                                    max_size=count, unique=True)))

    if tag == "torus_longitude":
        xs, ys = inside(0, 4), inside(1, 4)
        spec = {"outer": [[xs[0], xs[3]], [ys[0], ys[3]]],
                "hole": [xs[1:3], ys[1:3]], "z": inside(2, 2)}
    elif tag == "sphere_shell":
        spec = {"solid": [inside(a, 2) for a in range(3)]}
    else:
        x = draw(st.integers(box[0][0], box[0][1] - 1))
        y = draw(st.integers(box[1][0], box[1][1] - 1))
        spec = {"size": draw(st.integers(1, min(box[0][1] - x, box[1][1] - y))),
                "origin": [x, y]}
        if tag == "three_rings":
            lo, hi = box[2]
            spacing = draw(st.integers(1, (hi - lo) // 2))
            spec.update(spacing=spacing, z0=draw(st.integers(lo, hi - 2 * spacing)))
    how = draw(st.sampled_from(["none", "dimension", "shift", "shift"]))
    if how == "dimension":
        n = 5 - n
        box = (box + [[0, 4]])[:n]
    elif how == "shift":
        spec = {key: _shifted(draw, value) for key, value in spec.items()}
    return {"grid": {"n": n, "k": 0, "box": box}, "boundary": {"tag": tag, **spec},
            "m": 1, "seed": 0}


@given(raw=_builtin_scenarios())
# rings that coincide, and a hole that meets the outer wall: a U-shaped solid
@example(raw={"grid": {"n": 3, "k": 0, "box": [[0, 4], [0, 4], [0, 6]]}, "m": 1, "seed": 0,
              "boundary": {"tag": "three_rings", "size": 2, "spacing": 0, "z0": 1}})
@example(raw={"grid": {"n": 3, "k": 0, "box": [[0, 6], [0, 6], [0, 4]]}, "m": 1, "seed": 0,
              "boundary": {"tag": "torus_longitude", "outer": [[0, 6], [0, 6]],
                           "hole": [[0, 4], [2, 4]], "z": [1, 3]}})
@settings(max_examples=500, deadline=None)
def test_builtins_are_closed_manifolds(raw):
    """Every builtin the loader accepts is a closed manifold of the builtin's
    dimension, with its number of components and Euler characteristic (a
    torus, not a sphere): `build_boundary` does not check this, so its parameter
    checks must guarantee it.  Every rejection comes from one of those
    checks."""
    try:
        A = build_boundary(scenario_from_dict(raw))
    except ValueError as exc:
        assert PARAMETER_CHECKS.search(str(exc)), (raw, exc)
        return
    _, dim, components, chi = BUILTINS[raw["boundary"]["tag"]]
    assert A.dim == dim
    check_closed_manifold(A, dim)
    assert len(connected_components(A)) == components
    assert euler_characteristic(A) == chi


@pytest.mark.parametrize("coeffs, coeff, outcome", [
    ("gf2", "1/3", "9"),  # 3^-1 = 1 mod 2
    ("gf2", "1/2", "divides its denominator"),
    ("gf2", "3/2", "divides its denominator"),
    ("gf2", "2/3", "zero class"),
    ({"kind": "gfp", "p": 3}, "1/2", "9"),  # 2^-1 = 2 mod 3
    ({"kind": "gfp", "p": 3}, "-5/4", "9"),  # -5 * 4^-1 = 1 mod 3
    ({"kind": "gfp", "p": 3}, "3/2", "zero class"),  # 3 * 2^-1 = 0 mod 3
    ({"kind": "gfp", "p": 3}, "1/3", "divides its denominator"),
    ("rational", "3/2", "9"),
    ("rational", "0/7", "zero class"),
], ids=lambda v: f"gf{v['p']}" if isinstance(v, dict) else None)
def test_L_coefficients_reduce_exactly(coeffs, coeff, outcome, tmp_path, capsys):
    """A rational class coefficient num/den is num * den^-1 in GF(p); a
    denominator that p divides exits 2, as does a coefficient that is 0 there."""
    path = tmp_path / "disk3_L.json"
    path.write_text(json.dumps({**FUZZ_BASES["disk3"], "coeffs": coeffs,
                                "L": [{"cochain": [[1, 1, 1, coeff]]}]}))
    code = main(["solve", str(path), "--diagnostics", "none"])
    out, err = capsys.readouterr()
    if outcome == "9":
        assert code == 0
        assert json.loads(out)["solve"]["final_weight"] == "9"
    else:
        assert code == 2
        assert outcome in err


def _far_corner_density(kind: str, box, free: tuple[int, ...]) -> dict:
    """A density that leaves [a, b] only at the m-cell in the box's far
    corner whose free axes are `free` (a constant one leaves it everywhere).

    The affine slope is 1 along the free axes and 2 along the others, so that
    cell is the unique maximum, 1/2 above every other cell.  The radial
    center sits at the corner, one step out along the fixed axes, so that
    cell is the unique nearest one, 1/2 nearer than every other cell.
    """
    high = [h for _, h in box]
    if kind == "constant":
        return {"kind": "constant", "value": "3", "a": "1", "b": "2"}
    if kind == "coordinate-affine":
        coeffs = [1 if a in free else 2 for a in range(len(box))]
        top = 1 + sum(c * h for c, h in zip(coeffs, high)) - Fraction(len(free), 2)
        return {"kind": kind, "offset": "1", "coeffs": [str(c) for c in coeffs],
                "a": "1/1000", "b": str(top - Fraction(1, 4))}
    center = [h if a in free else h + 1 for a, h in enumerate(high)]
    nearest = Fraction(1, 2) if len(free) == len(box) else 1
    return {"kind": kind, "offset": "1", "slope": "1", "center": [str(c) for c in center],
            "a": str(1 + nearest + Fraction(1, 4)), "b": "1000"}


_BOUND_CASES = [
    ("disk3", kind, (0, 1)) for kind in ("constant", "coordinate-affine", "radial")
] + [
    ("rings_tiny", kind, free)
    for kind in ("coordinate-affine", "radial")
    for free in ((0, 1), (0, 2), (1, 2))
]


@pytest.mark.parametrize(
    "name,kind,free", _BOUND_CASES,
    ids=[f"{name}-{kind}-free{''.join(map(str, free))}" for name, kind, free in _BOUND_CASES],
)
def test_density_bounds_enforced(name, kind, free, tmp_path, capsys):
    with open(scenario_path(name)) as fh:
        raw = json.load(fh)
    raw["density"] = _far_corner_density(kind, raw["grid"]["box"], free)
    scenario = scenario_from_dict(raw)
    grid, m, f = scenario.grid, scenario.m, scenario.density
    if kind != "constant":
        corner = Cell(
            tuple(h - 1 if a in free else h for a, (_, h) in enumerate(grid.box)),
            sum(1 << a for a in free),
        )
        D, g = f.on_grid(grid)
        outside = [
            c for c in build_skeleton(grid, m).cells_of_dim(m)
            if not f.a <= Fraction(g(c), D) <= f.b
        ]
        assert outside == [corner]
    with pytest.raises(ValueError, match="escapes bounds"):
        SpanningProblem(CubicalComplex(grid, []), grid, m, [], GF2, f)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path), "--diagnostics", "none"]) == 2
    assert "escapes bounds" in capsys.readouterr().err
