"""Witness-chain formulation of the spanning test.

Over a field, a class l on A fails to extend over X iff some m-chain w
supported on X's m-cells has boundary supported on A with <l, bd w> = 1.
The witnesses for one class form an affine subspace of the m-chain space of
the full box; spanning tests against any X reduce to asking whether that
affine space meets the coordinate subspace supported on X.  The rows
"bd w vanishes off A", one per face off A, are the face columns of the
problem's `SpanningProblem.cell_boundaries` table, whose rows the spanning
test adds, and class i's row is its class column.  The face rows are
homogeneous and shared by all classes, so their kernel is read once, and
each class's witnesses are that kernel cut by one functional, "<l, bd w> =
1": a rank-one update of it (see `build_witness_system`).  This is the
engine behind the greedy solver, its local moves and the exhaustive oracle;
it is cross-checked against the direct cohomological definition in the tests.

Every elimination on a space runs on a `linalg` echelon that pivots on the
columns at hand.  Over GF(2) each basis vector of a space is keyed by a
private column that no other basis vector holds (see `Gf2AffineSpace`), so
a membership test eliminates only over the vectors keyed inside `allowed`.

The system also holds the one weight representation of the package: each
m-cell's weight as an integer over one common denominator `scale`.
`branch_and_bound` is the one minimizer over these spaces and weights: the
oracle runs it on the whole box, a local move on one region's interior.  It
tests each space once per node, and a space met at a node leaves that node's
subtree: including cells only grows the allowed set, excluding a cell zeroes
a column outside it, which the member found already avoids, and the space's
forced cells lie inside it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .lattice import Cell
from .linalg import GF2, Coeffs, FieldMatrix, Subspace, _Echelon, _Gf2Echelon, _echelon
from .linalg import _read_off, _subtract, bit_indices
from .spanning import SpanningProblem, Surface


class Gf2AffineSpace:
    """Affine subspace of GF(2)^ncols: particular + span(basis), bit-packed.

    Each basis vector is keyed by a private column: a column that is set in
    that vector and in no other.  `linalg._read_off` gives each kernel vector
    its own free column, and `constrain_zeros` keeps the property, because no
    vector it removes holds another vector's key.  A member's value at a key
    then says whether that key's vector is in its combination.  `reduced`,
    the particular with every key cleared, is the one member zero on all
    keys: `member_within` starts from it and eliminates over the vectors
    keyed inside `allowed` only.
    """

    __slots__ = ("ncols", "particular", "reduced", "vecs", "or_mask", "key_mask")

    def __init__(self, ncols: int, particular: int, basis: list[int]):
        once = twice = 0
        for v in basis:
            twice |= once & v
            once |= v
        private = once & ~twice
        vecs = {}  # key column -> vector, in basis order
        for i, v in enumerate(basis):
            own = v & private
            if not own:
                raise ValueError(f"basis vector {i} has no private column")
            vecs[(own & -own).bit_length() - 1] = v
        self.ncols = ncols
        self.particular = particular
        self.vecs = vecs
        self.or_mask = once
        self.key_mask = sum(1 << k for k in vecs)
        self.reduced = particular
        for k in bit_indices(particular & self.key_mask):
            self.reduced ^= vecs[k]

    def copy(self) -> "Gf2AffineSpace":
        out = Gf2AffineSpace.__new__(Gf2AffineSpace)
        out.ncols = self.ncols
        out.particular = self.particular
        out.reduced = self.reduced
        out.vecs = dict(self.vecs)
        out.or_mask = self.or_mask
        out.key_mask = self.key_mask
        return out

    @property
    def basis(self) -> list[int]:
        return list(self.vecs.values())

    @property
    def dim(self) -> int:
        return len(self.vecs)

    def forced_mask(self) -> int:
        """Coordinates equal to 1 on every member."""
        return self.particular & ~self.or_mask

    def support_mask(self) -> int:
        """Support of the current particular member, as a bitmask."""
        return self.particular

    def can_zero(self, col: int) -> bool:
        return not (self.particular >> col & 1) or bool(self.or_mask >> col & 1)

    def constrain_zero(self, col: int) -> bool:
        """Intersect with {w_col = 0}; False if that empties the space."""
        return self.constrain_zeros(1 << col)

    def constrain_zeros(self, mask: int) -> bool:
        """Intersect with {w_c = 0} for each column c of the mask; False iff
        some column could not be zeroed.  One vector-major pass leaves the
        state of `constrain_zero` on each column in turn, lowest first: each
        vector that meets the mask, in key order, joins an echelon pivoting
        on the mask's columns and leaves, or reduces to zero on the mask and
        stays.  `particular` and `reduced` then lose every pivot they hold."""
        if not self.or_mask & mask:
            return not self.particular & mask
        E, vecs, or_mask = _Gf2Echelon(mask), {}, 0
        for k, v in self.vecs.items():
            if v & mask:
                v = E._reduce(v)
                if v & mask:
                    E.add(v)
                    self.key_mask ^= 1 << k
                    continue
            vecs[k] = v
            or_mask |= v
        self.vecs, self.or_mask = vecs, or_mask
        self.particular = E._reduce(self.particular, every=True)
        self.reduced = E._reduce(self.reduced, every=True)
        return not self.particular & mask

    def zeroed_supports(self, orders: Sequence[Sequence[int]]) -> list[int]:
        """Per order of columns, a member equal on those columns to the one
        `constrain_zero` on each in turn leaves: the member zero on the
        order's greedy-first independent columns, whatever the basis.  Each
        column's dim-bit functional | its particular bit << dim joins one
        echelon per order, pivoting on the dim bits; once reduced, row i's
        high bit says whether basis vector i is in the member.  An order
        within the first order's columns, as in `contract_to_witnesses`,
        stops at the first's rank; any other at dim."""
        basis, dim, particular = self.basis, self.dim, self.particular
        rows = [f | 1 << dim if particular >> c & 1 else f for c, f in
                enumerate(FieldMatrix(GF2, basis, self.ncols).transpose()._rows)]
        out, rank, first = [], dim, set(orders[0] if orders else ())
        for order in orders:
            E, cap = _Gf2Echelon((1 << dim) - 1), rank if first.issuperset(order) else dim
            for c in order:
                if len(E.rows) == cap:
                    break
                E.add(rows[c])
            if not out:
                rank = len(E.rows)
            member = particular
            for i, r in E.reduced().rows.items():
                if r >> dim:
                    member ^= basis[i]
            out.append(member)
        return out

    def member_within(self, allowed: int) -> Optional[int]:
        """Some member with support inside `allowed`, or None: `reduced` less
        the vectors keyed inside it, eliminated on the forbidden columns."""
        forbidden = ~allowed
        t = self.reduced
        if not t & forbidden:
            return t
        E = _Gf2Echelon(forbidden)
        for k in bit_indices(self.key_mask & allowed):
            if self.vecs[k] & forbidden:
                E.add(self.vecs[k])
        t = E._reduce(t)
        return None if t & forbidden else t


class GenericAffineSpace:
    """Same interface as Gf2AffineSpace over GF(p) or the rationals, on
    `linalg`'s sparse rows.  Rows are replaced, never changed in place, so a
    copy shares them with its parent."""

    def __init__(self, coeffs: Coeffs, ncols: int, particular: dict, basis: list[dict]):
        self.coeffs = coeffs
        self.ncols = ncols
        self.particular = particular
        self.basis = list(basis)

    def copy(self) -> "GenericAffineSpace":
        return GenericAffineSpace(self.coeffs, self.ncols, self.particular, self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def forced_mask(self) -> int:
        held = set().union(*self.basis)
        return sum(1 << col for col in self.particular if col not in held)

    def support_mask(self) -> int:
        return sum(1 << col for col in self.particular)

    def can_zero(self, col: int) -> bool:
        return col not in self.particular or any(col in v for v in self.basis)

    def constrain_zero(self, col: int) -> bool:
        return self.constrain_zeros(1 << col)

    def constrain_zeros(self, mask: int) -> bool:
        """As `Gf2AffineSpace.constrain_zeros`: each basis vector that meets
        the mask, in order, joins an echelon pivoting on the mask's columns
        or stays reduced to zero there; `particular` loses every pivot.  A
        one-column mask is met by a dict lookup, a third of a set test's cost."""
        E = _Echelon(self.coeffs, mask)
        if len(E.cols) == 1:
            (col,) = E.cols
            hits = [i for i, v in enumerate(self.basis) if col in v]
        else:
            hits = [i for i, v in enumerate(self.basis) if not v.keys().isdisjoint(E.cols)]
        if hits:
            basis = list(self.basis)
            for i in hits:
                v = basis[i] = E._reduce(basis[i])
                if not v.keys().isdisjoint(E.cols):
                    E.add(v)
                    basis[i] = None
            self.basis = [v for v in basis if v is not None]
            self.particular = E._reduce(self.particular, every=True)
        return self.particular.keys().isdisjoint(E.cols)

    def zeroed_supports(self, orders: Sequence[Sequence[int]]) -> list[int]:
        out = [self.copy() for _ in orders]
        for sp, order in zip(out, orders):
            for col in order:
                sp.constrain_zero(col)
        return [sp.support_mask() for sp in out]

    def member_within(self, allowed: int) -> Optional[dict]:
        E = _Echelon(self.coeffs, (1 << self.ncols) - 1 & ~allowed)
        for v in self.basis:
            if not E.cols.isdisjoint(v):
                E.add(v)
        t = E._reduce(self.particular)
        return t if E.cols.isdisjoint(t) else None


@dataclass
class WitnessSystem:
    """Witness affine spaces of all classes of one problem, plus indexing.

    `weights[j]` is the weight of m-cell j times `scale`, the least common
    denominator of all cell weights, so it is an exact integer; A's m-cells
    weigh 0.  Every search and comparison runs on these integers, and
    `Fraction(w, scale)` converts a total back for a report.
    """

    problem: SpanningProblem
    mcells: list[Cell]
    column: dict[Cell, int]
    spaces: list
    weights: list[int]
    scale: int
    a_mask: int  # the columns of A's m-cells

    @property
    def ncols(self) -> int:
        return len(self.mcells)

    def mask_of(self, cells) -> int:
        mask = 0
        for c in cells:
            mask |= 1 << self.column[c]
        return mask

    def full_mask(self) -> int:
        return (1 << self.ncols) - 1

    def weight(self, mask: int) -> int:
        """Scaled weight of the columns in the mask."""
        return sum(self.weights[j] for j in bit_indices(mask))

    def spans_mask(self, allowed: int) -> bool:
        return all(s.member_within(allowed) is not None for s in self.spaces)

    def spans_surface(self, X: Surface) -> bool:
        return self.spans_mask(self.mask_of(X.mcells) | self.a_mask)

    def surface(self, mask: int) -> Surface:
        """A plus the mask's m-cells off A."""
        return self.problem.surface(self.mcells[j] for j in bit_indices(mask & ~self.a_mask))

    def copy_spaces(self) -> list:
        return [s.copy() for s in self.spaces]


def _rank_one(F: Coeffs, V: list, a: list, k: int) -> list:
    """[v_i - (a_i/a_k) v_k for i != k], in order: the combinations of the
    rows V on which a functional with values a_i = f(v_i) vanishes."""
    vk = V[k]
    if F.kind == "gf2":
        return [v ^ vk if x else v for i, (v, x) in enumerate(zip(V, a)) if i != k]
    inv = F.inv(a[k])
    return [_subtract(F, dict(v), F.mul(x, inv), vk) if x else v
            for i, (v, x) in enumerate(zip(V, a)) if i != k]


def build_witness_system(problem: SpanningProblem) -> WitnessSystem:
    """Set up the witness spaces and integer weights on the full box grid.

    The face rows are the transpose of the problem's `cell_boundaries`
    table: a row per face column, holding the cells whose row holds it.  Row
    order changes only the work, as the reduced echelon form is unique: face
    rows by decreasing lowest column seldom meet a stored pivot (over Q, half
    the time of first-met order on the rings).  Their kernel K is read once,
    a row per free column in increasing order.  Class i's row l is column
    nf + i; with a_j = l . K_j and c the first j with a_j != 0, its witnesses
    are K_c / a_c plus the span of K_j - (a_j/a_c) K_c, j != c.  Over GF(p)/Q
    the basis is that update of the face kernel's reduced rows G instead,
    with k the last i where l . G_i != 0: G_k holds the highest pivot, so the
    basis is in reduced form too, each pivot column lies in one vector, and
    constrain_zero updates few."""
    m, F = problem.m, problem.coeffs
    mcells = problem.box_mcells()
    ncols, gf2 = len(mcells), F.kind == "gf2"
    rows, nf = problem.cell_boundaries()
    T = FieldMatrix(F, list(rows.values()), nf + len(problem.L)).transpose()._rows
    low = (lambda r: r & -r) if gf2 else min  # a row's lowest column
    if gf2:
        dot = lambda row, v: (row & v).bit_count() & 1
    else:
        dot = lambda row, v: F.reduce(sum(x * v[j] for j, x in row.items() if j in v))
    E = _echelon(F)
    for r in sorted((r for r in reversed(T[:nf]) if r), key=low, reverse=True):
        E.add(r)
    K = _read_off(E, ncols)
    G = K if gf2 else Subspace(F, ncols, K).rows
    spaces = []
    for row in T[nf:]:
        # over GF(p)/Q only a_c is used, so the a_j are read up to c
        a = [dot(row, v) for v in K] if gf2 else (dot(row, v) for v in K)
        c, ac = next(((j, x) for j, x in enumerate(a) if x), (None, 0))
        if not ac:
            raise ValueError("class admits no witness chain in the box; check the problem setup")
        if gf2:
            spaces.append(Gf2AffineSpace(ncols, K[c], _rank_one(F, K, a, c)))
        else:
            b = [dot(row, g) for g in G]
            k = max(i for i, x in enumerate(b) if x)
            inv = F.inv(ac)
            particular = {j: F.mul(x, inv) for j, x in K[c].items()}
            spaces.append(GenericAffineSpace(F, ncols, particular, _rank_one(F, G, b, k)))
    column = {c: j for j, c in enumerate(mcells)}
    table, scale = problem.weight_table()
    a_cells = problem.A.cells_of_dim(m)
    weights = [0 if c in a_cells else table[c] for c in mcells]
    g = math.gcd(scale, *weights)  # leaves the least common denominator
    weights = [w // g for w in weights]
    a_mask = sum(1 << column[c] for c in a_cells)
    return WitnessSystem(problem, list(mcells), column, spaces, weights, scale // g, a_mask)


# ---------------------------------------------------------------------------
# branch and bound


@dataclass
class _Node:
    include: int
    exclude: int
    weight: int
    spaces: list
    bound: int
    live: list  # the loops not met by the parent's include | fixed


@dataclass
class SearchResult:
    """Outcome of `branch_and_bound`.

    `best` is (weight, allowed mask) of the lightest solution found that beats
    the incumbent, or None.  When the budget or deadline stopped the search,
    `exhausted` is set and `open_bounds` holds the bounds of the open nodes.
    """

    best: Optional[tuple[int, int]]
    nodes: int
    exhausted: bool
    open_bounds: list[int]


def branch_and_bound(
    spaces: list,
    fixed: int,
    weights: list[int],
    incumbent: Optional[int],
    *,
    loops: Sequence[int] = (),
    bound: Optional[Callable[[list, int, int, int], tuple[int, bool]]] = None,
    budget: int,
    deadline: Optional[float] = None,
) -> SearchResult:
    """Lightest column set that, together with `fixed`, carries a member of
    every witness space; only solutions strictly lighter than the incumbent
    are accepted.

    Columns in `fixed` are always allowed and cost nothing; any other column
    j costs the integer `weights[j]` (`WitnessSystem.weights`), and the
    incumbent is on the same scale.  The spaces are owned by the search, and
    nodes share them: only fresh copies are constrained.  A node branches on
    an ordered list of columns: the available faces of the shortest
    unsatisfied loop, when `loops` are given and one is left, or else one
    column of an unmet witness support.  Child i includes column i and
    excludes the columns before it; a support column also gets the child
    that excludes it, while some face of a loop must be included.  Each node
    carries its live loops, those of `loops` that `include | fixed` misses,
    in order: its parent's list, filtered once its forced cells are in
    (included cells only grow, so a met loop stays met below).
    `bound(live, include_bit, exclude, weight)` bounds a child from its
    parent's live loops and its one new column (0 if it only excludes), and
    says whether it is feasible; without it the bound is the node's weight.
    The search stops after `budget` nodes or at the `time.monotonic()`
    instant `deadline`.
    """
    node_bound = bound or (lambda live, include_bit, exclude, w: (w, True))
    best = incumbent
    best_mask: Optional[int] = None
    root_live = [g for g in loops if not g & fixed]
    root_bound, feasible = node_bound(root_live, 0, 0, 0)
    if not feasible:
        raise AssertionError("root infeasible despite existing witnesses")
    stack = [_Node(0, 0, 0, spaces, root_bound, root_live)]
    nodes = 0

    while stack:
        if nodes >= budget or (deadline is not None and time.monotonic() > deadline):
            found = None if best_mask is None else (best, best_mask)
            return SearchResult(found, nodes, True, [nd.bound for nd in stack])
        nd = stack.pop()
        nodes += 1
        if best is not None and nd.bound >= best:
            continue
        include, exclude, w, spaces = nd.include, nd.exclude, nd.weight, nd.spaces

        # forced cells: coordinates equal to one on every remaining witness
        forced = 0
        for s in spaces:
            forced |= s.forced_mask()
        forced &= ~(include | fixed)
        if forced:
            include |= forced
            for col in bit_indices(forced):
                w += weights[col]
            if best is not None and w >= best:
                continue

        # a space met here stays met in every descendant (module docstring),
        # so the children carry only the unmet ones
        allowed_now = include | fixed
        unmet = [s for s in spaces if s.member_within(allowed_now) is None]
        if not unmet:
            if best is None or w < best:
                best, best_mask = w, allowed_now
            continue
        live = [g for g in nd.live if not g & include]

        # choose the branching columns
        best_loop = None
        for g in live:
            avail = g & ~exclude
            if avail and (
                best_loop is None
                or avail.bit_count() < best_loop.bit_count()
            ):
                best_loop = avail
                if avail.bit_count() <= 2:
                    break
        if best_loop is not None:
            branch_cols = list(bit_indices(best_loop))
        else:
            pick = None
            for s in unmet:
                outside = s.support_mask() & ~allowed_now
                if outside:
                    pick = (outside & -outside).bit_length() - 1
                    break
            if pick is None:
                raise AssertionError("no branching column at an open node")
            branch_cols = [pick]

        # children in the order they are explored: a support column's
        # exclusion first, then the includes in column order
        children: list[_Node] = []
        sub_spaces, sub_exclude = unmet, exclude
        for i, col in enumerate(branch_cols):
            b, _ = node_bound(live, 1 << col, sub_exclude, w + weights[col])
            if best is None or b < best:
                children.append(
                    _Node(include | 1 << col, sub_exclude, w + weights[col],
                          sub_spaces, b, live)
                )
            if best_loop is not None and i == len(branch_cols) - 1:
                break  # some face of the loop must be included
            nxt = [s.copy() for s in sub_spaces]
            if not all(s.constrain_zero(col) for s in nxt):
                break
            sub_spaces, sub_exclude = nxt, sub_exclude | 1 << col
        else:
            b, feas = node_bound(live, 0, sub_exclude, w)
            if feas and (best is None or b < best):
                children.insert(0, _Node(include, sub_exclude, w, sub_spaces, b, live))
        stack.extend(reversed(children))

    found = None if best_mask is None else (best, best_mask)
    return SearchResult(found, nodes, False, [])
