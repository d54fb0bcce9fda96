"""Exact linear algebra over GF(2), GF(p) and the rationals.

Matrices are small and sparse, and exact elimination is the right tool.  An
echelon grows one row at a time in row echelon form: `add` reduces a new row
only until its lowest column is no stored pivot, so span membership and rank
growth need no re-reduction.  Reading a reduced form (`_read_off`,
`Subspace.rows`, `row_reduce`) first back-substitutes once, in place, into the
(unique) reduced row echelon form; the span is unchanged.  GF(2) rows are
packed into Python ints; other fields use sparse dict rows, column -> nonzero
int mod p or Fraction.  A stored row is replaced, never changed in place, so
echelons, matrices and subspaces share them; `_dense` gives a row's entry
list where it leaves the module.  `_read_off` gives the kernel of an echelon's
rows, one row per free column; `kernel_basis` and the witness build read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


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
        # below 2**31, trial division takes at most 46,341 steps
        if self.kind == "gfp" and not (self.p < 2**31 and _is_prime(self.p)):
            raise ValueError(f"coeffs.p must be a prime below 2**31, got {self.p}")

    @property
    def zero(self):
        return Fraction(0) if self.kind == "rational" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "rational" else 1

    def reduce(self, x):
        """x in the field; a rational num/den maps to num * den^-1 mod p."""
        if self.kind == "rational":
            return Fraction(x)
        p = self.p or 2
        if isinstance(x, int):
            return x % p
        x = Fraction(x)
        if x.denominator % p == 0:
            raise ValueError(f"{x} has no value mod {p}: {p} divides its denominator")
        return x.numerator * pow(x.denominator, -1, p) % p

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


def _dense(F: Coeffs, row, cols: int) -> list:
    """The length-cols entry list of a row in internal form."""
    if F.kind != "gf2":
        zero = F.zero
        return [row.get(j, zero) for j in range(cols)]
    if not cols:
        return []
    return list(f"{row:0{cols}b}"[::-1].encode().translate(_DIGIT_VALUE))


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
    return {j: x for j, x in enumerate(map(F.reduce, vec)) if x}


class _Gf2Echelon:
    """Packed GF(2) rows in row echelon form, grown one row at a time.

    Rows pivot on the columns of the bitmask `cols`, all by default: each
    stored row is keyed by its pivot, its lowest set bit in `cols`, and no
    two rows share a pivot.  `reduced` clears every pivot from the other rows.
    """

    __slots__ = ("rows", "mask", "cols", "is_reduced")

    def __init__(self, cols: int = -1) -> None:
        self.rows: dict[int, int] = {}
        self.mask = 0
        self.cols = cols
        self.is_reduced = True

    def copy(self) -> "_Gf2Echelon":
        E = _Gf2Echelon(self.cols)
        E.rows = dict(self.rows)
        E.mask = self.mask
        E.is_reduced = self.is_reduced
        return E

    def _reduce(self, r: int, every: bool = False) -> int:
        """r less stored rows, until its lowest set bit in `cols` is no
        pivot, or with every until r holds no pivot."""
        rows, mask = self.rows, self.mask
        cols = mask if every else self.cols
        while x := r & cols:
            low = x & -x
            if not low & mask:
                break
            r ^= rows[low.bit_length() - 1]
        return r

    def contains(self, r: int) -> bool:
        return not self._reduce(r)

    def add(self, r: int) -> bool:
        """Add r to the span; False, storing nothing, iff r is 0 on cols once reduced."""
        r = self._reduce(r)
        if not (x := r & self.cols):
            return False
        low = x & -x
        self.rows[low.bit_length() - 1] = r
        self.mask |= low
        self.is_reduced = False
        return True

    def reduced(self) -> "_Gf2Echelon":
        """This echelon in reduced row echelon form, back-substituted in place.

        Rows are taken in decreasing pivot order, so each row clears its
        higher pivots with rows that hold no other pivot.
        """
        if not self.is_reduced:
            rows, mask = self.rows, self.mask
            for c in sorted(rows, reverse=True):
                r = rows[c]
                x = r & mask ^ 1 << c
                while x:  # bit_indices inline, 7% off zeroed_supports
                    low = x & -x
                    r ^= rows[low.bit_length() - 1]
                    x ^= low
                rows[c] = r
            self.is_reduced = True
        return self


def _subtract(F: Coeffs, row: dict, f, v: dict) -> dict:
    """row - f * v, computed in place in row; f is nonzero."""
    p = F.p
    for j, y in v.items():
        x = row.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]
    return row


class _Echelon:
    """Sparse rows over GF(p) or Q in row echelon form, grown one row at a time.

    As `_Gf2Echelon`, given a nonnegative bitmask or -1 for all columns,
    with `cols` the set of those columns (None for all); a stored row also
    carries a one at its pivot.
    """

    def __init__(self, coeffs: Coeffs, cols: int = -1) -> None:
        self.coeffs = coeffs
        self.cols = None if cols == -1 else set(bit_indices(cols))
        self.rows: dict[int, dict] = {}
        self.is_reduced = True

    def copy(self) -> "_Echelon":
        E = _Echelon(self.coeffs)
        E.cols = self.cols
        E.rows = dict(self.rows)
        E.is_reduced = self.is_reduced
        return E

    def _reduce(self, v: dict, every: bool = False) -> dict:
        """v less stored rows, until its lowest column in `cols` is no pivot,
        or with every until v holds no pivot.  v itself if no row applies,
        else one private copy, reduced in place."""
        F, rows = self.coeffs, self.rows
        cols = rows if every else self.cols
        out = v
        while out:
            c = min(out) if cols is None else min(out.keys() & cols, default=None)
            row = rows.get(c)
            if row is None:
                break
            if out is v:
                out = dict(v)
            _subtract(F, out, out[c], row)
        return out

    def contains(self, v: dict) -> bool:
        return not self._reduce(v)

    def add(self, v: dict) -> bool:
        """Add v to the span; False, storing nothing, iff v is 0 on cols once reduced."""
        F = self.coeffs
        r = self._reduce(v)
        c = min(r if self.cols is None else r.keys() & self.cols, default=None)
        if c is None:
            return False
        if r[c] != 1:
            r = dict(r) if r is v else r  # scaled in a private dict, in place
            inv, p = F.inv(r[c]), F.p
            for j, x in r.items():
                r[j] = inv * x % p if p else inv * x
        self.rows[c] = r
        self.is_reduced = False
        return True

    def reduced(self) -> "_Echelon":
        """This echelon in reduced row echelon form, back-substituted in place.

        Rows are taken in decreasing pivot order, so each row clears its
        higher pivots with rows that hold no other pivot; a row that changes
        is replaced by a new dict, as copies of this echelon share rows.
        """
        if not self.is_reduced:
            F, rows = self.coeffs, self.rows
            for c in sorted(rows, reverse=True):
                r = rows[c]
                hits = [k for k in r if k != c and k in rows]
                if hits:
                    r = dict(r)
                    for k in hits:
                        _subtract(F, r, r[k], rows[k])
                    rows[c] = r
            self.is_reduced = True
        return self


def _echelon(coeffs: Coeffs):
    return _Gf2Echelon() if coeffs.kind == "gf2" else _Echelon(coeffs)


class FieldMatrix:
    """Exact matrix over a field, stored as rows in internal form: packed
    ints over GF(2), sparse dicts otherwise."""

    def __init__(self, coeffs: Coeffs, rows: list, cols: int):
        """Matrix taking ownership of rows already in internal form."""
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.coeffs = coeffs
        self.rows = len(rows)
        self.cols = cols
        self._rows = rows

    @classmethod
    def from_rows(cls, coeffs: Coeffs, rows: Sequence[Sequence], cols: int):
        """Matrix with the given rows; a short row is padded with zeros."""
        return cls(coeffs, [_to_row(coeffs, r, cols) for r in rows], cols)

    def transpose(self) -> "FieldMatrix":
        """The transposed matrix: row j holds column j of this one."""
        if self.coeffs.kind == "gf2":
            cols = [0] * self.cols
            for i, r in enumerate(self._rows):
                bit = 1 << i
                for j in bit_indices(r):
                    cols[j] |= bit
            return FieldMatrix(self.coeffs, cols, self.rows)
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                cols[j][i] = x
        return FieldMatrix(self.coeffs, cols, self.rows)

    def apply(self, v: Sequence) -> list:
        """Matrix-vector product M @ v."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in apply")
        F = self.coeffs
        if F.kind == "gf2":
            packed = _pack(F, v)
            return [(r & packed).bit_count() & 1 for r in self._rows]
        out = []
        for r in self._rows:
            acc = F.zero
            for j, a in r.items():
                acc = F.add(acc, F.mul(a, v[j]))
            out.append(acc)
        return out


def row_reduce(M: FieldMatrix) -> tuple[FieldMatrix, int, list[int]]:
    """Reduced row echelon form, rank, and pivot columns.

    The reduced row echelon form is unique: pivot rows in increasing pivot
    column order, then zero rows.
    """
    F = M.coeffs
    E = _echelon(F)
    for r in M._rows:
        E.add(r)
    E.reduced()
    pivots = sorted(E.rows)
    zero_rows = [0 if F.kind == "gf2" else {} for _ in range(M.rows - len(pivots))]
    R = FieldMatrix(F, [E.rows[c] for c in pivots] + zero_rows, M.cols)
    return R, len(pivots), pivots


class Subspace:
    """Subspace of coeffs**ambient_dim, held as an echelon of its rows.

    The constructor adds rows in FieldMatrix's internal form.  The span is
    not changed afterwards: `contains` tests against the echelon, `sum` grows
    a copy of it, and reading `rows` reduces it in place.
    """

    def __init__(self, coeffs: Coeffs, ambient_dim: int, rows: Iterable = ()):
        self.coeffs = coeffs
        self.ambient_dim = ambient_dim
        self._echelon = _echelon(coeffs)
        for r in rows:
            self._echelon.add(r)

    @property
    def rows(self) -> list:
        """The reduced echelon's rows in internal form, by increasing pivot."""
        E = self._echelon.reduced()
        return [E.rows[c] for c in sorted(E.rows)]

    @property
    def basis(self) -> list[list]:
        """The reduced echelon's rows as entry lists, by increasing pivot."""
        return [_dense(self.coeffs, r, self.ambient_dim) for r in self.rows]

    @property
    def dim(self) -> int:
        return len(self._echelon.rows)

    @classmethod
    def row_space(cls, M: FieldMatrix) -> "Subspace":
        """The span of the rows of M."""
        return cls(M.coeffs, M.cols, M._rows)

    @classmethod
    def from_vectors(cls, coeffs: Coeffs, ambient_dim: int, vectors: Iterable[Sequence]):
        return cls(coeffs, ambient_dim, [_to_row(coeffs, v, ambient_dim) for v in vectors])

    def restricted(self, positions: dict[int, int], ambient_dim: int) -> "Subspace":
        """The span of the vectors' entries at the keys of `positions`, entry
        j moved to coordinate positions[j] of an ambient_dim-space."""
        if self.coeffs.kind == "gf2":
            keep = sum(1 << j for j in positions)
            rows = [sum(1 << positions[j] for j in bit_indices(r & keep))
                    for r in self._echelon.rows.values()]
        else:
            rows = [{positions[j]: x for j, x in r.items() if j in positions}
                    for r in self._echelon.rows.values()]
        return Subspace(self.coeffs, ambient_dim, rows)

    def contains(self, v: Sequence) -> bool:
        return self._echelon.contains(_to_row(self.coeffs, v, self.ambient_dim))

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        out = Subspace(self.coeffs, self.ambient_dim)
        out._echelon = self._echelon.copy()
        for r in other._echelon.rows.values():
            out._echelon.add(r)
        return out

    def kernel(self) -> "Subspace":
        """{v : r . v = 0 for every row r}, read off the reduced echelon."""
        return Subspace(self.coeffs, self.ambient_dim, _read_off(self._echelon, self.ambient_dim))


def _read_off(E, cols: int) -> list:
    """The kernel rows of the rows held by E, which this reduces first, in
    FieldMatrix's internal row form: the row of free column j is one at j
    and zero at the other free columns, in increasing order of j."""
    E.reduced()
    free = [j for j in range(cols) if j not in E.rows]
    if isinstance(E, _Gf2Echelon):
        # over GF(2), -R[i, j] = R[i, j]: the free bits of pivot row i
        kernel = {j: 1 << j for j in free}
        for c, r in E.rows.items():
            for j in bit_indices(r ^ 1 << c):
                kernel[j] |= 1 << c
        return [kernel[j] for j in free]
    p = E.coeffs.p
    kernel = {j: {j: E.coeffs.one} for j in free}
    for c, r in E.rows.items():
        for j, x in r.items():
            if j != c:
                kernel[j][c] = -x % p if p else -x
    return [kernel[j] for j in free]


def kernel_basis(M: FieldMatrix) -> Subspace:
    """Basis of the right null space {v : M v = 0}."""
    return Subspace.row_space(M).kernel()
