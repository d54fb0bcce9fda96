"""Exact linear algebra over GF(2), GF(p) and the rationals.

Matrices are small and dense enough that exact elimination into the
(unique) reduced row echelon form is the right tool; rows are inserted one
at a time, so span membership and rank growth need no re-reduction.  GF(2)
rows are packed into Python ints; other fields use lists of ints /
Fractions.  `solve`, `kernel_basis` and `solution_spaces` read solutions off
one echelon in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Coeffs:
    """Field of coefficients: 'gf2', 'gfp' (with p), or 'rational'."""

    kind: str
    p: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("gf2", "gfp", "rational"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "gfp" and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def zero(self):
        return Fraction(0) if self.kind == "rational" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "rational" else 1

    def reduce(self, x):
        if self.kind == "gf2":
            return x & 1 if isinstance(x, int) else int(x) % 2
        if self.kind == "gfp":
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        if self.kind == "gf2":
            return (a + b) & 1
        if self.kind == "gfp":
            return (a + b) % self.p
        return a + b

    def sub(self, a, b):
        if self.kind == "gf2":
            return (a + b) & 1
        if self.kind == "gfp":
            return (a - b) % self.p
        return a - b

    def mul(self, a, b):
        if self.kind == "gf2":
            return a & b
        if self.kind == "gfp":
            return a * b % self.p
        return a * b

    def inv(self, a):
        if self.kind == "gf2":
            if a & 1 == 0:
                raise ZeroDivisionError
            return 1
        if self.kind == "gfp":
            if a % self.p == 0:
                raise ZeroDivisionError
            return pow(a, self.p - 2, self.p)
        return 1 / Fraction(a)


GF2 = Coeffs("gf2")
RATIONAL = Coeffs("rational")


# byte value -> ASCII digit of its parity, and ASCII digit -> 0/1
_PARITY_DIGIT = bytes(48 + (i & 1) for i in range(256))
_DIGIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")


def _pack(F: Coeffs, vec: Sequence) -> int:
    """A GF(2) vector as an int: entry j is bit j."""
    try:
        digits = bytes(vec[::-1]).translate(_PARITY_DIGIT)
    except (TypeError, ValueError):  # entries outside range(256)
        digits = bytes([48 + F.reduce(v) for v in reversed(vec)])
    return int(digits or b"0", 2)


def _unpack(x: int, cols: int) -> list[int]:
    """The length-cols 0/1 list of a packed GF(2) vector."""
    if not cols:
        return []
    return list(f"{x:0{cols}b}"[::-1].encode().translate(_DIGIT_VALUE))


def bit_indices(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _to_row(F: Coeffs, vec: Sequence, cols: int):
    """A vector in the internal row form of FieldMatrix, zero-padded to cols."""
    if len(vec) > cols:
        raise ValueError(f"vector of length {len(vec)} exceeds {cols} columns")
    if F.kind == "gf2":
        return _pack(F, vec)
    return [F.reduce(v) for v in vec] + [F.zero] * (cols - len(vec))


class _Gf2Echelon:
    """Packed GF(2) rows in reduced echelon form, grown one row at a time.

    Each stored row is keyed by its pivot, its lowest set bit, and has no
    other stored row's pivot set.
    """

    __slots__ = ("rows", "mask")

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}
        self.mask = 0

    def copy(self) -> "_Gf2Echelon":
        # add() replaces rows and never changes one in place
        E = _Gf2Echelon()
        E.rows = dict(self.rows)
        E.mask = self.mask
        return E

    def _reduce(self, r: int) -> int:
        for c in bit_indices(r & self.mask):
            r ^= self.rows[c]
        return r

    def contains(self, r: int) -> bool:
        return not self._reduce(r)

    def add(self, r: int) -> bool:
        """Add r to the span; False iff it was already in it."""
        r = self._reduce(r)
        if not r:
            return False
        low = r & -r
        for c, b in self.rows.items():
            if b & low:
                self.rows[c] = b ^ r
        self.rows[low.bit_length() - 1] = r
        self.mask |= low
        return True


def _minus_multiple(F: Coeffs, row: list, f, v: list) -> list:
    """row - f * v, skipping the zero entries of v."""
    return [F.sub(x, F.mul(f, y)) if y else x for x, y in zip(row, v)]


class _Echelon:
    """Rows over GF(p) or Q in reduced echelon form, grown one row at a time.

    Each stored row is keyed by its pivot, its first nonzero column, carries
    a one there and a zero at every other stored row's pivot.
    """

    def __init__(self, coeffs: Coeffs) -> None:
        self.coeffs = coeffs
        self.rows: dict[int, list] = {}

    def copy(self) -> "_Echelon":
        # add() replaces rows and never changes one in place
        E = _Echelon(self.coeffs)
        E.rows = dict(self.rows)
        return E

    def _reduce(self, v: list) -> list:
        F = self.coeffs
        for c, row in self.rows.items():
            f = v[c]
            if f != F.zero:
                v = _minus_multiple(F, v, f, row)
        return v

    def contains(self, v: list) -> bool:
        zero = self.coeffs.zero
        return all(x == zero for x in self._reduce(v))

    def add(self, v: list) -> bool:
        """Add v to the span; False iff it was already in it."""
        F = self.coeffs
        v = self._reduce(v)
        c = next((j for j, x in enumerate(v) if x != F.zero), None)
        if c is None:
            return False
        inv = F.inv(v[c])
        v = [F.mul(inv, x) if x else x for x in v]
        for k, row in self.rows.items():
            f = row[c]
            if f != F.zero:
                self.rows[k] = _minus_multiple(F, row, f, v)
        self.rows[c] = v
        return True


def _echelon(coeffs: Coeffs):
    return _Gf2Echelon() if coeffs.kind == "gf2" else _Echelon(coeffs)


class FieldMatrix:
    """Exact matrix over a field, stored as rows in internal form."""

    def __init__(self, coeffs: Coeffs, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.coeffs = coeffs
        self.rows = rows
        self.cols = cols
        self._rows: list = [
            0 if coeffs.kind == "gf2" else [coeffs.zero] * cols for _ in range(rows)
        ]

    def __getitem__(self, ij):
        i, j = ij
        if self.coeffs.kind == "gf2":
            return self._rows[i] >> j & 1
        return self._rows[i][j]

    def __setitem__(self, ij, v) -> None:
        i, j = ij
        v = self.coeffs.reduce(v)
        if self.coeffs.kind == "gf2":
            if self._rows[i] >> j & 1 != v:
                self._rows[i] ^= 1 << j
        else:
            self._rows[i][j] = v

    def row(self, i: int) -> list:
        if self.coeffs.kind == "gf2":
            return _unpack(self._rows[i], self.cols)
        return list(self._rows[i])

    @classmethod
    def from_rows(cls, coeffs: Coeffs, rows: Sequence[Sequence], cols: int):
        """Matrix with the given rows; a short row is padded with zeros."""
        return cls._packed(coeffs, [_to_row(coeffs, r, cols) for r in rows], cols)

    @classmethod
    def from_sparse_rows(cls, coeffs: Coeffs, rows: Sequence[Iterable[tuple[int, object]]],
                         cols: int) -> "FieldMatrix":
        """Matrix whose row i holds value v at column j for each (j, v) in rows[i]."""
        out = []
        for r in rows:
            x = 0 if coeffs.kind == "gf2" else [coeffs.zero] * cols
            for j, v in r:
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} out of range")
                v = coeffs.reduce(v)
                if coeffs.kind != "gf2":
                    x[j] = v
                elif v != x >> j & 1:
                    x ^= 1 << j
            out.append(x)
        return cls._packed(coeffs, out, cols)

    @classmethod
    def _packed(cls, coeffs: Coeffs, rows: list, cols: int) -> "FieldMatrix":
        """Matrix taking ownership of rows already in internal form."""
        out = cls(coeffs, 0, cols)
        out.rows = len(rows)
        out._rows = rows
        return out

    def transpose(self) -> "FieldMatrix":
        """The transposed matrix: row j holds column j of this one."""
        if self.coeffs.kind == "gf2":
            cols = [0] * self.cols
            for i, r in enumerate(self._rows):
                bit = 1 << i
                for j in bit_indices(r):
                    cols[j] |= bit
            return FieldMatrix._packed(self.coeffs, cols, self.rows)
        cols = [[r[j] for r in self._rows] for j in range(self.cols)]
        return FieldMatrix._packed(self.coeffs, cols, self.rows)

    def apply(self, v: Sequence) -> list:
        """Matrix-vector product M @ v."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in apply")
        F = self.coeffs
        if F.kind == "gf2":
            packed = _pack(F, v)
            return [bin(r & packed).count("1") & 1 for r in self._rows]
        out = []
        for r in self._rows:
            acc = F.zero
            for a, b in zip(r, v):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return out


def row_reduce(M: FieldMatrix) -> tuple[FieldMatrix, int, list[int]]:
    """Gauss-Jordan reduced form, rank, and pivot columns.

    The reduced row echelon form is unique: pivot rows in increasing pivot
    column order, then zero rows.
    """
    F = M.coeffs
    E = _echelon(F)
    for r in M._rows:
        E.add(r)
    pivots = sorted(E.rows)
    zero_rows = [0 if F.kind == "gf2" else [F.zero] * M.cols
                 for _ in range(M.rows - len(pivots))]
    R = FieldMatrix._packed(F, [E.rows[c] for c in pivots] + zero_rows, M.cols)
    return R, len(pivots), pivots


@dataclass
class Subspace:
    """Row-reduced basis of a subspace of coeffs**ambient_dim.

    The basis is not to be changed after construction: membership tests
    reuse an elimination state built from it.
    """

    coeffs: Coeffs
    ambient_dim: int
    basis: list[list]
    _reducer: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def row_space(cls, M: FieldMatrix) -> "Subspace":
        """The span of the rows of M."""
        R, rank, _ = row_reduce(M)
        return cls(M.coeffs, M.cols, [R.row(i) for i in range(rank)])

    @classmethod
    def from_vectors(cls, coeffs: Coeffs, ambient_dim: int, vectors: Iterable[Sequence]):
        vecs = [list(v) for v in vectors]
        return cls.row_space(FieldMatrix.from_rows(coeffs, vecs, ambient_dim))

    def _new_reducer(self):
        E = _echelon(self.coeffs)
        for b in self.basis:
            E.add(_to_row(self.coeffs, b, self.ambient_dim))
        return E

    def contains(self, v: Sequence) -> bool:
        if self._reducer is None:
            self._reducer = self._new_reducer()
        return self._reducer.contains(_to_row(self.coeffs, v, self.ambient_dim))

    def extending(self, vectors: Iterable[Sequence]) -> list[list]:
        """The vectors, in order, that each lie outside the span of this
        subspace and of the vectors kept before them."""
        E = self._new_reducer()
        return [
            list(v) for v in vectors
            if E.add(_to_row(self.coeffs, v, self.ambient_dim))
        ]

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(
            self.coeffs, self.ambient_dim, self.basis + other.basis
        )


def _augmented_echelon(M: FieldMatrix, rhs: Sequence):
    """Echelon of the augmented matrix [M | rhs]."""
    F = M.coeffs
    E = _echelon(F)
    for r, b in zip(M._rows, rhs):
        b = F.reduce(b)
        E.add(r | b << M.cols if F.kind == "gf2" else r + [b])
    return E


def _read_off(E, cols: int) -> Optional[tuple]:
    """(particular, kernel rows) of the augmented system held by E.

    Columns below `cols` are the unknowns and column `cols` is the right-hand
    side; None iff a pivot lies there, that is, the system has no solution.
    Both parts are in FieldMatrix's internal row form.  The particular
    solution is zero at every free column; the kernel row of free column j is
    one at j and zero at the other free columns, in increasing order of j.
    """
    if cols in E.rows:
        return None
    free = [j for j in range(cols) if j not in E.rows]
    if isinstance(E, _Gf2Echelon):
        # over GF(2), -R[i, j] = R[i, j]: the free bits of pivot row i
        full = (1 << cols) - 1
        particular = 0
        kernel = {j: 1 << j for j in free}
        for c, r in E.rows.items():
            particular |= (r >> cols & 1) << c
            for j in bit_indices((r & full) ^ (1 << c)):
                kernel[j] |= 1 << c
        return particular, [kernel[j] for j in free]
    F = E.coeffs
    particular = [F.zero] * cols
    kernel = {j: [F.one if i == j else F.zero for i in range(cols)] for j in free}
    for c, r in E.rows.items():
        particular[c] = r[cols]
        for j in free:
            if r[j]:
                kernel[j][c] = F.sub(F.zero, r[j])
    return particular, [kernel[j] for j in free]


def kernel_basis(M: FieldMatrix) -> Subspace:
    """Basis of the right null space {v : M v = 0}."""
    _, kernel = _read_off(_augmented_echelon(M, [0] * M.rows), M.cols)
    return Subspace.row_space(FieldMatrix._packed(M.coeffs, kernel, M.cols))


def solve(M: FieldMatrix, b: Sequence) -> Optional[list]:
    """Some x with M x = b, or None iff b is outside the column space."""
    if len(b) != M.rows:
        raise ValueError("dimension mismatch in solve")
    F = M.coeffs
    solution = _read_off(_augmented_echelon(M, b), M.cols)
    if solution is None:
        return None
    x = _unpack(solution[0], M.cols) if F.kind == "gf2" else solution[0]
    if M.apply(x) != [F.reduce(v) for v in b]:
        raise AssertionError("solve returned x with M x != b")
    return x


def solution_spaces(M: FieldMatrix, shared: int) -> list[Optional[tuple]]:
    """Solution sets of the systems "rows below `shared`, plus row i" of M,
    one for each row i at or after `shared`.

    The last column of M is the right-hand side.  The shared rows are reduced
    once; each system then adds its own row to a copy of that echelon.  Each
    entry is (particular, kernel rows) as `_read_off` gives it, or None when
    that system has no solution.
    """
    E = _echelon(M.coeffs)
    for r in M._rows[:shared]:
        E.add(r)
    out = []
    for r in M._rows[shared:]:
        own = E.copy()
        own.add(r)
        out.append(_read_off(own, M.cols - 1))
    return out

