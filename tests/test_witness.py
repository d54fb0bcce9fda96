import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau import linalg, witness
from plateau.cochain import boundary_incidences
from plateau.linalg import GF2, Coeffs, FieldMatrix, Subspace, _dense, bit_indices
from plateau.scenarios import build_problem, scenario_from_dict
from plateau.solver import (
    SolverConfig, contract_to_witnesses, greedy_minimize, solve, surface_weight,
)
from plateau.spanning import Surface
from plateau.witness import Gf2AffineSpace, GenericAffineSpace, build_witness_system

from conftest import (
    bench_problem, n4_sphere_problem, reference_constrain_zero, reference_solution_spaces,
    scenario_path,
)

FIELD_SPECS = {"gf2": "gf2", "gf3": {"kind": "gfp", "p": 3}, "rational": "rational"}


@st.composite
def random_systems(draw, max_cols: int, values: int):
    """(ncols, rows, shared): augmented rows with entries in range(values),
    the first `shared` of them common to every class, as
    `reference_solution_spaces` takes them."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(
        st.lists(st.integers(0, values - 1), min_size=ncols + 1, max_size=ncols + 1),
        min_size=1, max_size=ncols + 2,
    ))
    shared = draw(st.integers(0, len(rows) - 1))
    return ncols, rows, shared


def test_affine_space_operations():
    # x0+x1=1, x1+x2=0: the shared row x1+x2=0, then the class row x0+x1=1
    system = FieldMatrix.from_rows(GF2, [[0, 1, 1, 0], [1, 1, 0, 1]], 4)
    [(particular, kernel)] = reference_solution_spaces(system, 1)
    space = Gf2AffineSpace(3, particular, kernel)
    # solutions: (1,0,0) and (0,1,1)
    assert space.dim == 1
    assert space.member_within(0b001) == 0b001
    assert space.member_within(0b110) == 0b110
    assert space.member_within(0b010) is None
    sp = space.copy()
    assert sp.constrain_zero(0)  # forces (0,1,1)
    assert sp.forced_mask() == 0b110
    assert not sp.can_zero(1)
    assert not sp.constrain_zero(1)


def _members(space) -> set[int]:
    """Every member of a GF(2) witness space, by enumeration."""
    out = {space.particular}
    for v in space.basis:
        out |= {x ^ v for x in out}
    return out


def _check_keys(space) -> None:
    """Each basis vector holds its key, and no other vector holds it."""
    assert space.key_mask == sum(1 << k for k in space.vecs)
    assert space.or_mask == sum(1 << c for c in range(space.ncols)
                                if any(v >> c & 1 for v in space.basis))
    for k, v in space.vecs.items():
        assert v >> k & 1
        assert not any(w >> k & 1 for j, w in space.vecs.items() if j != k)
    # `reduced` is the member that is zero on every key: reduced ^ particular
    # lies in the span of the basis
    assert not space.reduced & space.key_mask
    assert space.reduced in _members(space)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_keyed_space_matches_bruteforce(data):
    """Random systems through `reference_solution_spaces`, then random
    `constrain_zero` and `copy` steps: `member_within` agrees with brute
    force, every basis vector keeps a private column, `reduced` stays the
    member zero on every key, and a copy never shares state."""
    ncols, rows, shared = data.draw(random_systems(10, 2))
    system = FieldMatrix.from_rows(GF2, rows, ncols + 1)
    for i, solution in enumerate(reference_solution_spaces(system, shared)):
        # the members by brute force: x with rows[:shared] and rows[shared + i]
        own = rows[:shared] + [rows[shared + i]]
        expected = {
            x for x in range(1 << ncols)
            if all(sum(r[j] for j in range(ncols) if x >> j & 1) % 2 == r[ncols]
                   for r in own)
        }
        if solution is None:
            assert not expected
            continue
        space = Gf2AffineSpace(ncols, *solution)
        snapshots = []
        for _ in range(data.draw(st.integers(0, 8))):
            _check_keys(space)
            assert _members(space) == expected
            for allowed in data.draw(st.lists(st.integers(0, (1 << ncols) - 1),
                                              max_size=4)):
                member = space.member_within(allowed)
                if member is None:
                    assert not any(x & ~allowed == 0 for x in expected)
                else:
                    assert member in expected and member & ~allowed == 0
            if data.draw(st.booleans()):
                snapshots.append((space, space.particular, space.reduced, dict(space.vecs)))
                old, space = space, space.copy()
                assert space.vecs is not old.vecs
                _check_keys(space)
            col = data.draw(st.integers(0, ncols - 1))
            expected = {x for x in expected if not x >> col & 1}
            assert space.constrain_zero(col) == bool(expected)
            if not expected:
                break
            _check_keys(space)
        for old, particular, reduced, vecs in snapshots:
            assert (old.particular, old.reduced, old.vecs) == (particular, reduced, vecs)


def test_keyed_space_rejects_basis_without_private_columns():
    with pytest.raises(ValueError, match="private column"):
        Gf2AffineSpace(3, 0, [0b011, 0b110, 0b101])
    with pytest.raises(ValueError, match="private column"):
        Gf2AffineSpace(2, 0, [0b11, 0b01])


def test_generic_affine_space_matches_gf2():
    GF3 = Coeffs("gfp", 3)
    space = GenericAffineSpace(GF3, 3, {0: 1}, [{0: 1, 1: 1}, {2: 1}])
    assert space.support_mask() == 0b001
    assert space.can_zero(0)
    assert space.constrain_zero(0)
    assert all(v.get(0, 0) == 0 for v in space.basis)
    assert space.particular.get(0, 0) == 0
    member = space.member_within(0b010)
    assert member is not None and member.get(0, 0) == 0 and member.get(2, 0) == 0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_generic_space_matches_bruteforce(data):
    """GF(3) systems through `reference_solution_spaces` and a reduced
    basis, as `build_witness_system` builds them, then random
    `constrain_zero` and `copy` steps: `member_within`, `forced_mask` and
    `can_zero` agree with brute force, and a copy never changes its
    parent's rows."""
    F = Coeffs("gfp", 3)
    ncols, rows, shared = data.draw(random_systems(5, 3))
    system = FieldMatrix.from_rows(F, rows, ncols + 1)
    for i, solution in enumerate(reference_solution_spaces(system, shared)):
        own = rows[:shared] + [rows[shared + i]]
        expected = {
            x for x in itertools.product(range(3), repeat=ncols)
            if all(sum(a * b for a, b in zip(r, x)) % 3 == r[ncols] for r in own)
        }
        if solution is None:
            assert not expected
            continue
        particular, kernel = solution
        space = GenericAffineSpace(F, ncols, particular, Subspace(F, ncols, kernel).rows)
        snapshots = []
        for _ in range(data.draw(st.integers(0, 6))):
            assert all(space.particular.values())
            assert all(all(v.values()) for v in space.basis)
            members = set()
            for combo in itertools.product(range(3), repeat=space.dim):
                x = _dense(F, space.particular, ncols)
                for c, v in zip(combo, space.basis):
                    x = [(a + c * v.get(j, 0)) % 3 for j, a in enumerate(x)]
                members.add(tuple(x))
            assert members == expected
            assert space.forced_mask() == sum(
                1 << j for j in range(ncols) if all(x[j] for x in expected))
            for j in range(ncols):
                assert space.can_zero(j) == any(not x[j] for x in expected)
            for allowed in data.draw(st.lists(st.integers(0, (1 << ncols) - 1),
                                              max_size=4)):
                inside = [x for x in expected
                          if all(allowed >> j & 1 for j in range(ncols) if x[j])]
                member = space.member_within(allowed)
                if member is None:
                    assert not inside
                else:
                    assert tuple(_dense(F, member, ncols)) in inside
            if data.draw(st.booleans()):
                snapshots.append((space, dict(space.particular),
                                  [dict(v) for v in space.basis]))
                space = space.copy()
            col = data.draw(st.integers(0, ncols - 1))
            expected = {x for x in expected if not x[col]}
            assert space.constrain_zero(col) == bool(expected)
            if not expected:
                break
        for old, particular, basis in snapshots:
            assert (old.particular, old.basis) == (particular, basis)


FIELDS = {"gf2": GF2, "gf3": Coeffs("gfp", 3), "rational": Coeffs("rational")}


def _spaces(F, ncols, rows, shared) -> list:
    """The solvable spaces of a random system, built as
    `build_witness_system` builds them."""
    out = []
    for solution in reference_solution_spaces(FieldMatrix.from_rows(F, rows, ncols + 1), shared):
        if solution is None:
            continue
        particular, kernel = solution
        if F.kind == "gf2":
            out.append(Gf2AffineSpace(ncols, particular, kernel))
        else:
            out.append(GenericAffineSpace(
                F, ncols, particular, Subspace(F, ncols, kernel).rows))
    return out


def _state(space) -> tuple:
    """Everything a space holds, GF(2) dict order included."""
    if isinstance(space, Gf2AffineSpace):
        return (list(space.vecs.items()), space.particular, space.reduced,
                space.or_mask, space.key_mask)
    return space.particular, space.basis


def _zeroed_one_at_a_time(space, cols):
    """A copy of the space after `constrain_zero` on each column in turn,
    and the results of those calls."""
    out = space.copy()
    return out, [out.constrain_zero(col) for col in cols]


@pytest.mark.parametrize("field", sorted(FIELDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_constrain_zeros_equals_one_column_at_a_time(field, data):
    """`constrain_zeros(mask)` leaves the state that `constrain_zero` on each
    column of the mask, lowest first, leaves, and is False iff one of those
    calls is: one elimination pass over the mask equals one pass per column.
    Successive masks start from the state the last one left."""
    F = FIELDS[field]
    ncols, rows, shared = data.draw(
        random_systems(10, 2) if field == "gf2" else random_systems(6, 3))
    for space in _spaces(F, ncols, rows, shared):
        for _ in range(data.draw(st.integers(1, 3))):
            mask = data.draw(st.integers(0, (1 << ncols) - 1))
            one, results = _zeroed_one_at_a_time(space, bit_indices(mask))
            assert space.constrain_zeros(mask) == all(results)
            assert _state(space) == _state(one)


GENERIC_FIELDS = {"gf3": (Coeffs("gfp", 3), 3), "gf7": (Coeffs("gfp", 7), 7),
                  "rational": (Coeffs("rational"), 3)}


@pytest.mark.parametrize("field", sorted(GENERIC_FIELDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_generic_constrain_zeros_matches_reference(field, data):
    """Over GF(3), GF(7) and Q, `constrain_zeros(mask)` returns what the
    reference, one eliminating column at a time lowest first, returns, and
    leaves its exact state: `particular`, and `basis` in order, also after a
    column that could not be zeroed.  Successive masks start from the state
    the last one left."""
    F, values = GENERIC_FIELDS[field]
    ncols, rows, shared = data.draw(random_systems(6, values))
    for space in _spaces(F, ncols, rows, shared):
        for _ in range(data.draw(st.integers(1, 3))):
            mask = data.draw(st.integers(0, (1 << ncols) - 1))
            reference = space.copy()
            results = [reference_constrain_zero(reference, col) for col in bit_indices(mask)]
            assert space.constrain_zeros(mask) == all(results)
            assert space.particular == reference.particular
            assert space.basis == reference.basis


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_zeroed_supports_equal_one_column_at_a_time(data):
    """Over GF(2), each order's member from `zeroed_supports` is the one that
    `constrain_zero` on every column of a random order leaves, and agrees
    with it on the columns of a partial order.  The first order is partial
    too at times, so a later order may reach columns the first did not."""
    ncols, rows, shared = data.draw(random_systems(10, 2))
    for space in _spaces(GF2, ncols, rows, shared):
        perms = data.draw(st.lists(st.permutations(range(ncols)), min_size=1, max_size=4))
        first = perms[0][:data.draw(st.just(ncols) | st.integers(0, ncols))]
        orders = [first] + [p[:data.draw(st.integers(0, ncols))] for p in perms[1:]]
        state = _state(space)
        supports = space.zeroed_supports(orders)
        assert _state(space) == state
        assert len(supports) == len(orders)
        for order, support in zip(orders, supports):
            one, _ = _zeroed_one_at_a_time(space, order)
            cols = (1 << ncols) - 1 if len(order) == ncols else sum(1 << c for c in order)
            assert support & cols == one.support_mask() & cols
            assert support in _members(space)


@pytest.mark.parametrize("name", ["rings_tiny", "torus"])
def test_one_pass_zeroing_on_shipped_spaces(name):
    """On the GF(2) spaces of two shipped scenarios (torus has m-cells of A):
    `constrain_zeros` on random masks, and `zeroed_supports` on the orders of
    random permutations, equal zeroing one column at a time."""
    with open(scenario_path(name)) as fh:
        problem = build_problem(scenario_from_dict(json.load(fh)))
    system = build_witness_system(problem)
    rng = random.Random(5)
    for space in system.spaces:
        for density in (0.1, 0.5, 0.9):
            mask = sum(1 << j for j in range(system.ncols) if rng.random() < density)
            one, results = _zeroed_one_at_a_time(space, bit_indices(mask))
            mine = space.copy()
            assert mine.constrain_zeros(mask) == all(results)
            assert _state(mine) == _state(one)
        orders = [rng.sample(range(system.ncols), system.ncols) for _ in range(3)]
        expected = [_zeroed_one_at_a_time(space, order)[0].support_mask() for order in orders]
        assert space.zeroed_supports(orders) == expected


def _witness_digest(system) -> str:
    """Digest of every witness space's dense particular and basis, in order."""
    F, n = system.problem.coeffs, system.ncols
    lines = []
    for s in system.spaces:
        lines.append(" ".join(map(str, _dense(F, s.particular, n))))
        lines.extend(" ".join(map(str, _dense(F, v, n))) for v in s.basis)
        lines.append("")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, field, digest", [
    ("disk3", "gf3", "e2a121676066ba83"),
    ("disk3", "rational", "e2a121676066ba83"),
    ("torus", "gf3", "63df5f44c2f73f0e"),
    ("torus", "rational", "29e9272debf86ab4"),
    ("rings_tiny", "gf2", "0b9e5be0474b3507"),
    ("rings_tiny", "gf3", "90b301d48d5c6e64"),
    ("rings_tiny", "gf7", "bba0db5106ab8a34"),
    ("rings_tiny", "rational", "f561555d263f24cc"),
    ("torus", "gf2", "7a8060e5834d9804"),
    ("sphere_shell", "gf2", "66a994d6bb12558d"),
    ("n4_sphere", "gf2", "5f4d726ff866492a"),
    ("disk-const", "gf2", "37b08683f3f37b1f"),
], ids=["disk3-gf3", "disk3-rational", "torus-gf3", "torus-rational", "rings_tiny-gf2",
        "rings_tiny-gf3", "rings_tiny-gf7", "rings_tiny-rational", "torus-gf2", "sphere_shell-gf2", "n4_sphere-gf2", "disk-const-gf2"])
def test_generic_witness_spaces_are_pinned(name, field, digest):
    """Witness spaces are pinned entry by entry and in basis order: GF(3)
    and Q on two shipped scenarios, rings_tiny's three classes of dimension
    98 over GF(3), GF(7) and Q (each class's basis updated by rank one from
    the face kernel), and GF(2) on three shipped scenarios (three classes;
    m = n - 1 with a 272-vector basis; m = n), the n = 4 sphere and the
    seed-1 solve disk-const (n = m = 2).  The reduced echelon form is
    unique, so a change of row form, row order or elimination order must not
    move them."""
    if name == "n4_sphere":
        problem = n4_sphere_problem()
    elif name == "disk-const":
        problem = bench_problem("solve", 1, name)
    else:
        with open(scenario_path(name)) as fh:
            raw = json.load(fh)
        coeffs = {**FIELD_SPECS, "gf7": {"kind": "gfp", "p": 7}}[field]
        problem = build_problem(scenario_from_dict({**raw, "coeffs": coeffs}))
    system = build_witness_system(problem)
    if name == "rings_tiny":
        assert [s.dim for s in system.spaces] == [98, 98, 98]
    assert _witness_digest(system) == digest


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_build_reads_one_kernel(field, monkeypatch):
    """The witness build reads the face kernel off its echelon once, and
    every class's space from it: one `_read_off` for rings_tiny's three
    classes, over GF(2) and over Q."""
    with open(scenario_path("rings_tiny")) as fh:
        raw = json.load(fh)
    problem = build_problem(scenario_from_dict({**raw, "coeffs": FIELD_SPECS[field]}))
    calls = []
    read_off = linalg._read_off

    def counted(E, cols):
        calls.append(cols)
        return read_off(E, cols)

    for module in (linalg, witness):
        monkeypatch.setattr(module, "_read_off", counted)
    system = build_witness_system(problem)
    assert len(system.spaces) == 3 and len(calls) == 1


def test_witness_system_agrees_with_spans(disk_problem, disk_system):
    from plateau.spanning import spans

    rng = random.Random(11)
    box = disk_problem.box_mcells()
    for _ in range(40):
        mcells = frozenset(c for c in box if rng.random() < 0.7)
        X = Surface(disk_problem, mcells)
        assert disk_system.spans_surface(X) == spans(X)


@pytest.mark.parametrize("field", sorted(FIELD_SPECS))
def test_witness_chain_boundaries_in_A(field):
    """Each particular witness is an m-chain whose boundary lies inside A and
    pairs to one with its class; each basis vector has boundary inside A and
    pairs to zero."""
    with open(scenario_path("rings_tiny")) as fh:
        raw = json.load(fh)
    problem = build_problem(scenario_from_dict({**raw, "coeffs": FIELD_SPECS[field]}))
    system = build_witness_system(problem)
    F = problem.coeffs
    a_lower = problem.A.cells_of_dim(problem.m - 1)
    a_pos = {c: i for i, c in enumerate(sorted(a_lower))}

    def entries(w):
        return _dense(F, w, system.ncols)

    def boundary_and_pairing(w, cls):
        bd = {}
        for cell, x in zip(system.mcells, entries(w)):
            if not x:
                continue
            for f, sign in boundary_incidences(cell):
                bd[f] = F.add(bd.get(f, F.zero), F.mul(F.reduce(sign), x))
        assert all(v == F.zero for f, v in bd.items() if f not in a_lower)
        pairing = F.zero
        for f, v in bd.items():
            if f in a_lower:
                pairing = F.add(pairing, F.mul(cls.rep[a_pos[f]], v))
        return pairing

    assert len(system.spaces) == len(problem.L) == 3
    for space, cls in zip(system.spaces, problem.L):
        assert boundary_and_pairing(space.particular, cls) == F.one
        assert space.basis
        for v in space.basis:
            assert boundary_and_pairing(v, cls) == F.zero


def test_witness_system_rejects_unspannable():
    """A class on a ring that does not fit inside the box has no witness."""
    # hole of the torus scenario removed from the box: the longitude class
    # of a full annulus around a missing column cannot be witnessed if the
    # boundary itself is broken; easiest failure: explicit class on cells
    # missing from A
    scenario = scenario_from_dict(
        {
            "name": "bad",
            "grid": {"n": 2, "k": 0, "box": [[0, 3], [0, 3]]},
            "boundary": {"tag": "disk", "size": 3, "origin": [0, 0]},
            "m": 2,
            "L": [{"cochain": [[5, 5, 1, 1]]}],
            "seed": 0,
        }
    )
    with pytest.raises(ValueError, match="not a cell of A"):
        build_problem(scenario)


@pytest.mark.parametrize("name, changes", [
    ("torus", {}),
    ("torus", {"grid": {"n": 3, "k": 1, "box": [[0, 6], [0, 6], [0, 4]]}}),
    ("disk3", {"density": {"kind": "coordinate-affine", "coeffs": ["1/3", "1/7"]}}),
], ids=["torus", "torus_k1", "disk3_affine"])
def test_integer_weights_over_one_scale(name, changes):
    """Column weights are the cell weights times one scale, exact integers,
    0 on A's m-cells, and convert back to the weights of solver surfaces."""
    with open(scenario_path(name)) as fh:
        raw = json.load(fh)
    problem = build_problem(scenario_from_dict({**raw, **changes}))
    system = build_witness_system(problem)
    scale = system.scale
    assert scale > 1
    ints, denominator = problem.weight_table()
    table = {c: Fraction(w, denominator) for c, w in ints.items()}
    a_cells = problem.A.cells_of_dim(problem.m)
    assert bool(a_cells) == (name == "torus")
    assert system.a_mask == system.mask_of(a_cells)
    for j, c in enumerate(system.mcells):
        assert type(system.weights[j]) is int
        assert system.weights[j] == (0 if c in a_cells else table[c] * scale)
    assert scale == math.lcm(*(table[c].denominator for c in system.mcells if c not in a_cells))
    X, report = solve(problem, SolverConfig())
    seed = contract_to_witnesses(system)
    surfaces = [X, seed, greedy_minimize(seed, SolverConfig(), system)[0]]
    for Y in surfaces:
        mask = system.mask_of(Y.mcells)
        assert Fraction(system.weight(mask), scale) == surface_weight(Y)
    assert report.final_weight == surface_weight(X)
