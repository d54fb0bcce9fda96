import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateau.linalg import (
    GF2,
    RATIONAL,
    Coeffs,
    FieldMatrix,
    Subspace,
    _dense,
    _echelon,
    _Echelon,
    _Gf2Echelon,
    _to_row,
    kernel_basis,
    row_reduce,
    solution_spaces,
)

from conftest import (
    gauss_jordan,
    matrix_entry,
    matrix_row,
    reference_solution_spaces,
    restricted_echelon,
    restricted_reduce,
    vanishing_below,
)

GF3 = Coeffs("gfp", 3)
GF5 = Coeffs("gfp", 5)
GF7 = Coeffs("gfp", 7)
FIELDS = [GF2, GF5, RATIONAL]


def test_coeffs_validation():
    with pytest.raises(ValueError):
        Coeffs("gfp", 4)
    with pytest.raises(ValueError):
        Coeffs("gfp")
    with pytest.raises(ValueError):
        Coeffs("float")
    # the largest prime below the bound is accepted; a larger one is
    # rejected before any trial division
    assert Coeffs("gfp", 2**31 - 1).p == 2**31 - 1
    with pytest.raises(ValueError, match="coeffs.p"):
        Coeffs("gfp", 2**61 - 1)


def test_reduce_maps_rationals_into_the_field():
    """num/den is num * den^-1 mod p, never a truncation; ints keep x mod p."""
    assert [GF3.reduce(Fraction(a, 2)) for a in (1, 3, -5)] == [2, 0, 2]
    assert [GF2.reduce(Fraction(a, 3)) for a in (1, 2, 5)] == [1, 0, 1]
    assert [F.reduce(-7) for F in (GF2, GF3, GF5)] == [1, 2, 3]
    assert RATIONAL.reduce(Fraction(3, 2)) == Fraction(3, 2)
    for F, x in ((GF2, Fraction(3, 2)), (GF3, Fraction(1, 3)), (GF5, Fraction(2, 15))):
        with pytest.raises(ValueError, match="divides its denominator"):
            F.reduce(x)


@pytest.mark.parametrize("F", FIELDS)
def test_field_axioms_spotcheck(F):
    vals = [F.reduce(x) for x in (-2, -1, 0, 1, 2, 3)]
    for a in vals:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.sub(a, a) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


@pytest.mark.parametrize("F", FIELDS)
def test_row_reduce_rank(F):
    M = FieldMatrix.from_rows(F, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3)
    _, rank, pivots = row_reduce(M)
    # rows sum to zero over GF(2), are independent over GF(5) and Q
    assert rank == (2 if F.kind == "gf2" else 3)
    assert len(pivots) == rank


def _solve(M, b):
    """Some x with M x = b, or None: the one system that `solution_spaces`
    reads off the augmented rows [M | b] when every row is shared but the
    last.  M has at least one row."""
    F = M.coeffs
    aug = FieldMatrix.from_rows(F, [matrix_row(M, i) + [v] for i, v in enumerate(b)], M.cols + 1)
    (solution,) = solution_spaces(aug, M.rows - 1)
    return None if solution is None else _dense(F, solution[0], M.cols)


@pytest.mark.parametrize("F", FIELDS)
def test_solve_and_kernel(F):
    M = FieldMatrix.from_rows(F, [[1, 1, 0], [0, 1, 1]], 3)
    b = [F.one, F.one]
    x = _solve(M, b)
    assert x is not None
    assert M.apply(x) == [F.reduce(v) for v in b]
    K = kernel_basis(M)
    assert K.dim == 1
    for v in K.basis:
        assert all(e == F.zero for e in M.apply(v))


def test_solve_inconsistent():
    M = FieldMatrix.from_rows(GF2, [[1, 1], [1, 1]], 2)
    assert _solve(M, [0, 1]) is None


def test_subspace_membership():
    S = Subspace.from_vectors(GF2, 3, [[1, 1, 0], [0, 1, 1]])
    assert S.dim == 2
    assert S.contains([1, 0, 1])
    assert not S.contains([1, 0, 0])
    T = Subspace.from_vectors(GF2, 3, [[1, 0, 0]])
    assert S.sum(T).dim == 3


@st.composite
def matrix_and_x(draw):
    F = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = [
        [draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)
    ]
    x = [draw(st.integers(-3, 3)) for _ in range(cols)]
    return F, entries, x


@given(matrix_and_x())
@settings(max_examples=80, deadline=None)
def test_solve_recovers_consistent_rhs(mx):
    """For b = M x, `solution_spaces` on [M | b] finds some x' with M x' = b."""
    F, entries, x = mx
    M = FieldMatrix.from_rows(F, entries, len(entries[0]))
    xr = [F.reduce(v) for v in x]
    b = M.apply(xr)
    got = _solve(M, b)
    assert got is not None
    assert M.apply(got) == b


@given(matrix_and_x())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(mx):
    F, entries, _ = mx
    M = FieldMatrix.from_rows(F, entries, len(entries[0]))
    K = kernel_basis(M)
    zero = [F.zero] * M.rows
    for v in K.basis:
        assert M.apply(v) == zero
    _, rank, _ = row_reduce(M)
    assert K.dim == M.cols - rank


@given(matrix_and_x(), st.data())
@settings(max_examples=60, deadline=None)
def test_restricted_matches_restricting_the_vectors(mx, data):
    """Restricting the echelon rows gives the subspace spanned by the
    restricted basis vectors, echelon row for row.  `vanishing_below(S, k)` is
    the part of S that is zero below column k: it lies in S, its vectors
    vanish there, and its dimension is dim S minus the rank of S's first k
    columns."""
    F, entries, _ = mx
    S = Subspace.from_vectors(F, len(entries[0]), entries)
    where = data.draw(st.lists(st.integers(0, S.ambient_dim - 1), unique=True))
    positions = {j: i for i, j in enumerate(where)}
    expected = Subspace.from_vectors(
        F, len(where), [[v[j] for j in where] for v in S.basis])
    assert S.restricted(positions, len(where)).rows == expected.rows
    k = data.draw(st.integers(0, S.ambient_dim))
    tail = vanishing_below(S, k)
    assert all(S.contains(v) and not any(v[:k]) for v in tail.basis)
    head = S.restricted({j: j for j in range(k)}, k)
    assert tail.dim == S.dim - head.dim


def test_rational_entries_exact():
    M = FieldMatrix.from_rows(
        RATIONAL, [[Fraction(1, 3), Fraction(1, 6)]], 2
    )
    x = _solve(M, [Fraction(1)])
    assert x is not None
    assert Fraction(1, 3) * x[0] + Fraction(1, 6) * x[1] == 1


@pytest.mark.parametrize("F", FIELDS)
def test_from_rows_rejects_overlong_row(F):
    with pytest.raises(ValueError):
        FieldMatrix.from_rows(F, [[1, 0, 1]], 2)
    with pytest.raises(ValueError):
        Subspace.from_vectors(F, 2, [[1, 0], [0, 1, 1]])


def _per_entry(F, rows, cols):
    """Reference: the rows' entries reduced one at a time, zero-padded."""
    return [[F.reduce(v) for v in r] + [F.zero] * (cols - len(r)) for r in rows]


@st.composite
def ragged_rows(draw):
    F = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(0, 7))
    entry = st.sampled_from([0, 1, -1, 2, 3, Fraction(1), Fraction(-2)])
    rows = [
        draw(st.lists(entry, max_size=cols)) for _ in range(draw(st.integers(0, 6)))
    ]
    return F, rows, cols


@given(ragged_rows())
@settings(max_examples=150, deadline=None)
def test_packed_kernels_match_per_entry_definitions(frc):
    F, rows, cols = frc
    dense = _per_entry(F, rows, cols)
    M = FieldMatrix.from_rows(F, rows, cols)
    assert [matrix_row(M, i) for i in range(M.rows)] == dense
    T = M.transpose()
    assert (T.rows, T.cols) == (cols, len(rows))
    assert all(matrix_entry(T, j, i) == dense[i][j] for i in range(len(rows)) for j in range(cols))

    R, rank, pivots = row_reduce(M)
    ref_R, ref_pivots = gauss_jordan(F, dense, cols)
    assert pivots == ref_pivots and rank == len(ref_pivots)
    assert [matrix_row(R, i) for i in range(R.rows)] == ref_R

    free = [j for j in range(cols) if j not in ref_pivots]
    ref_kernel = []
    for j in free:
        v = [F.zero] * cols
        v[j] = F.one
        for i, pc in enumerate(ref_pivots):
            v[pc] = F.sub(F.zero, ref_R[i][j])
        ref_kernel.append(v)
    K = kernel_basis(M)
    assert K.basis == Subspace.from_vectors(F, cols, ref_kernel).basis
    assert K.dim == cols - rank


@st.composite
def shared_systems(draw, F, max_cols):
    """Augmented rows (last entry the right-hand side): shared rows, then two
    rows that each complete one system."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.integers(-2, 2)
    rows = [
        [draw(entry) for _ in range(ncols + 1)]
        for _ in range(draw(st.integers(0, 5)) + 2)
    ]
    return FieldMatrix.from_rows(F, rows, ncols + 1), len(rows) - 2


def _order(F):
    return 2 if F.kind == "gf2" else F.p


def _members(F, particular, kernel, ncols):
    """Every member of particular + span(kernel), as tuples of entries."""
    particular = _dense(F, particular, ncols)
    kernel = [_dense(F, v, ncols) for v in kernel]
    out = set()
    for combo in itertools.product(range(_order(F)), repeat=len(kernel)):
        x = particular
        for c, v in zip(combo, kernel):
            x = [F.add(a, F.mul(c, b)) for a, b in zip(x, v)]
        out.add(tuple(x))
    return out


@pytest.mark.parametrize("F,max_cols", [(GF2, 6), (GF3, 4)], ids=["gf2", "gf3"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_solution_spaces_match_bruteforce(F, max_cols, data):
    """Each system's solution set, against all vectors of the field."""
    M, shared = data.draw(shared_systems(F, max_cols))
    ncols = M.cols - 1
    solutions = solution_spaces(M, shared)
    assert len(solutions) == 2
    for own, solution in zip((shared, shared + 1), solutions):
        rows = [matrix_row(M, i) for i in range(shared)] + [matrix_row(M, own)]
        expected = {
            x for x in itertools.product(range(_order(F)), repeat=ncols)
            if all(F.reduce(sum(a * b for a, b in zip(r, x))) == r[ncols] for r in rows)
        }
        if not expected:
            assert solution is None
            continue
        particular, kernel = solution
        assert _members(F, particular, kernel, ncols) == expected
        assert len(expected) == _order(F) ** len(kernel)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_solution_spaces_over_rationals(data):
    M, shared = data.draw(shared_systems(RATIONAL, 6))
    ncols = M.cols - 1
    for own, solution in zip((shared, shared + 1), solution_spaces(M, shared)):
        A = FieldMatrix.from_rows(
            RATIONAL, [matrix_row(M, i)[:ncols] for i in list(range(shared)) + [own]], ncols
        )
        b = [matrix_entry(M, i, ncols) for i in list(range(shared)) + [own]]
        augmented = FieldMatrix.from_rows(
            RATIONAL, [matrix_row(M, i) for i in list(range(shared)) + [own]], ncols + 1
        )
        _, rank, _ = row_reduce(A)
        # consistent iff appending b to the columns of A keeps the rank
        if row_reduce(augmented)[1] != rank:
            assert solution is None
            continue
        particular = _dense(RATIONAL, solution[0], ncols)
        kernel = [_dense(RATIONAL, v, ncols) for v in solution[1]]
        assert A.apply(particular) == b
        for v in kernel:
            assert all(e == 0 for e in A.apply(v))
        assert len(kernel) == ncols - rank
        assert Subspace.from_vectors(RATIONAL, ncols, kernel).dim == len(kernel)


def test_solution_spaces_inconsistent_system():
    # x0 + x1 = 0 shared; x0 + x1 = 1 contradicts it, x1 = 1 does not
    M = FieldMatrix.from_rows(GF2, [[1, 1, 0], [1, 1, 1], [0, 1, 1]], 3)
    inconsistent, consistent = solution_spaces(M, 1)
    assert inconsistent is None
    assert consistent == (0b11, [])


@st.composite
def rank_one_systems(draw):
    """A field and augmented rows (last entry the right-hand side, often
    nonzero): shared rows, then rows each drawn at random or as a
    combination of the shared rows with the same or another right-hand
    side, so that its unknowns reduce to zero.  With `inconsistent`, one
    such combination with another right-hand side joins the shared rows."""
    F = draw(st.sampled_from([GF2, GF3, GF7, RATIONAL]))
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-2, 2)
    shared = [[draw(entry) for _ in range(ncols + 1)] for _ in range(draw(st.integers(0, 5)))]

    def combination(shift: int) -> list:
        row = [0] * (ncols + 1)
        for r in shared:
            f = draw(entry)
            row = [x + f * y for x, y in zip(row, r)]
        row[ncols] += shift
        return row

    if draw(st.booleans()) and draw(st.booleans()):  # inconsistent, a quarter of the time
        shared.append(combination(1))
    own = [
        draw(st.sampled_from([
            lambda: [draw(entry) for _ in range(ncols + 1)],
            lambda: combination(0),
            lambda: combination(draw(st.integers(1, 2))),
        ]))()
        for _ in range(draw(st.integers(1, 4)))
    ]
    rows = [[F.reduce(x) for x in r] for r in shared + own]
    return FieldMatrix.from_rows(F, rows, ncols + 1), len(shared)


@given(rank_one_systems())
@settings(max_examples=300, deadline=None)
def test_rank_one_solution_spaces_match_per_row_reference(system):
    """Each row's solution set, updated by rank one from the shared rows'
    read-off, equals the one read off a copy of the shared echelon grown by
    that row: the same particular and kernel rows, in order, or None alike.
    Shared rows carry nonzero right-hand sides, the shared system may be
    inconsistent, and rows whose unknowns reduce to zero carry a zero or a
    nonzero right-hand side."""
    M, shared = system
    F, ncols = M.coeffs, M.cols - 1
    entries = [matrix_row(M, i) for i in range(M.rows)]

    def dense(solution):
        if solution is None:
            return None
        particular, kernel = solution
        return _dense(F, particular, ncols), [_dense(F, v, ncols) for v in kernel]

    got = solution_spaces(M, shared)
    assert list(map(dense, got)) == list(map(dense, reference_solution_spaces(M, shared)))
    assert [matrix_row(M, i) for i in range(M.rows)] == entries


def _rref(F, rows, cols) -> list:
    """The nonzero rows of the reference reduced row echelon form."""
    R, pivots = gauss_jordan(F, rows, cols)
    return R[: len(pivots)]


def _rank(F, rows, cols) -> int:
    return len(gauss_jordan(F, rows, cols)[1])


def _solution_reference(F, rows, ncols):
    """(particular, kernel) of augmented rows with ncols unknowns, read off
    the reference form as `solution_spaces` defines them, or None."""
    R, pivots = gauss_jordan(F, rows, ncols + 1)
    if ncols in pivots:
        return None
    particular = [F.zero] * ncols
    for i, c in enumerate(pivots):
        particular[c] = R[i][ncols]
    kernel = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F.zero] * ncols
        v[j] = F.one
        for i, c in enumerate(pivots):
            v[c] = F.sub(F.zero, R[i][j])
        kernel.append(v)
    return particular, kernel


@st.composite
def echelon_programs(draw):
    """A field, a column count and a sequence of echelon operations: a
    vector op (add, contains, copy) carries its entries, a read op none."""
    F = draw(st.sampled_from([GF2, GF3, GF7, RATIONAL]))
    cols = draw(st.integers(1, 6))
    vec = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3]), min_size=cols, max_size=cols)
    reads = ["rows", "row_reduce", "kernel_basis", "solution_spaces"]
    op = st.one_of(
        st.tuples(st.sampled_from(["add", "add", "contains", "copy"]), vec),
        st.tuples(st.sampled_from(reads), st.none()),
    )
    return F, cols, draw(st.lists(op, min_size=1, max_size=16))


@given(echelon_programs())
@settings(max_examples=300, deadline=None)
def test_echelon_reads_match_gauss_jordan(program):
    """Rows added one at a time, before and after reads, and every read of
    the echelon, of row_reduce, kernel_basis and solution_spaces against
    textbook Gauss-Jordan on the rows added so far.  Reading a copy leaves
    its parent's rows as they were, and no read changes a matrix's rows."""
    F, cols, ops = program
    S = Subspace(F, cols)
    added: list[list] = []

    def dense(r) -> list:
        return _dense(F, r, cols)

    for name, v in ops:
        if v is not None:
            v = [F.reduce(x) for x in v]
        M = FieldMatrix.from_rows(F, added, cols)
        entries = [matrix_row(M, i) for i in range(M.rows)]
        rank = _rank(F, added, cols)
        if name == "add":
            assert S._echelon.add(_to_row(F, v, cols)) == (_rank(F, added + [v], cols) > rank)
            added.append(v)
        elif name == "contains":
            assert S.contains(v) == (_rank(F, added + [v], cols) == rank)
        elif name == "copy":
            parent = {c: dense(r) for c, r in S._echelon.rows.items()}
            child = S._echelon.copy()
            child.add(_to_row(F, v, cols))
            reduced = child.reduced().rows
            assert [dense(reduced[c]) for c in sorted(reduced)] == _rref(F, added + [v], cols)
            assert {c: dense(r) for c, r in S._echelon.rows.items()} == parent
        elif name == "rows":
            assert [dense(r) for r in S.rows] == _rref(F, added, cols)
        elif name == "row_reduce":
            R, r, pivots = row_reduce(M)
            assert ([matrix_row(R, i) for i in range(R.rows)], pivots) == gauss_jordan(F, added, cols)
            assert r == rank
        elif name == "kernel_basis":
            kernel = _solution_reference(F, [row + [F.zero] for row in added], cols)[1]
            assert kernel_basis(M).basis == _rref(F, kernel, cols)
        else:
            shared = max(len(added) - 2, 0)
            solutions = solution_spaces(M, shared)
            assert len(solutions) == len(added) - shared
            for row, solution in zip(added[shared:], solutions):
                expected = _solution_reference(F, added[:shared] + [row], cols - 1)
                if expected is None:
                    assert solution is None
                else:
                    particular, kernel = solution
                    unknowns = [_dense(F, x, cols - 1) for x in [particular, *kernel]]
                    assert (unknowns[0], unknowns[1:]) == expected
        assert [matrix_row(M, i) for i in range(M.rows)] == entries


@st.composite
def restricted_programs(draw):
    """A field, a column count, the columns an echelon pivots on (None for
    all), whether a GF(2) bitmask is given as the complement of the other
    columns (a negative int, as `member_within` gives it), rows to add and
    probe vectors, as entry lists."""
    F = draw(st.sampled_from([GF2, GF3, GF7, RATIONAL]))
    ncols = draw(st.integers(1, 7))
    vec = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3]), min_size=ncols, max_size=ncols)
    cols = draw(st.none() | st.sets(st.integers(0, ncols - 1)))
    rows = draw(st.lists(vec, max_size=8))
    probes = draw(st.lists(vec, min_size=1, max_size=4))
    return F, ncols, cols, draw(st.booleans()), rows, probes


@given(restricted_programs())
@settings(max_examples=300, deadline=None)
def test_column_restricted_echelons_match_reference(program):
    """Both echelons, on a column set or on all columns by default, against
    a reference elimination restricted to those columns: `add` keeps the
    rows the reference keeps, with the same pivot rows, `_reduce` of probe
    vectors, on the echelon's columns and on its pivots alone, gives the
    reference's remainders and leaves the probes as they were, and the
    reduced echelon clears each pivot from the other rows."""
    F, ncols, cols, negative, rows, probes = program
    if cols is None:
        E, cols = _echelon(F), set(range(ncols))
    else:
        mask = sum(1 << c for c in cols)
        if negative and F.kind == "gf2":
            mask = ~((1 << ncols) - 1 & ~mask)
        E = _Gf2Echelon(mask) if F.kind == "gf2" else _Echelon(F, mask)
    rows = [[F.reduce(x) for x in r] for r in rows]
    pivots, added = restricted_echelon(F, rows, cols)
    assert [E.add(_to_row(F, r, ncols)) for r in rows] == added
    assert {c: _dense(F, r, ncols) for c, r in E.rows.items()} == pivots
    for v in probes:
        v = [F.reduce(x) for x in v]
        row = _to_row(F, v, ncols)
        assert _dense(F, E._reduce(row), ncols) == restricted_reduce(F, pivots, v, cols)
        assert (_dense(F, E._reduce(row, every=True), ncols)
                == restricted_reduce(F, pivots, v, cols, every=True))
        assert _dense(F, row, ncols) == v
    reduced = E.reduced().rows
    for c, r in reduced.items():
        entries = _dense(F, r, ncols)
        assert entries[c] == F.one and all(entries[k] == F.zero for k in reduced if k != c)
