"""Exact matrix and subspace algebra over GF(p).

Matrices are immutable, row-major, with plain-int entries in [0, p).
Spans are kept as echelon rows (pivot, vector), each vector 0 before its
pivot, 1 at it and 0 at the earlier rows' pivots.  `_reduce` tests a
vector against such rows and returns the row it adds, if any, so one call
decides membership and incremental rank.  A Subspace keeps the reduced
rows of any spanning list, so equal spans have literally equal rows.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .fields import FieldSpec


class Singular(ValueError):
    """The matrix has no inverse."""


class ContractViolation(RuntimeError):
    """An internal algebraic contract failed; this is a bug, not bad input.

    Raised explicitly rather than by `assert`, so the checks also run
    under `python -O`.
    """


Vec = Tuple[int, ...]


class Mat:
    """Immutable matrix over GF(p)."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data: Iterable[Iterable[int]], cols: int | None = None):
        p = field.p
        rows = tuple(tuple(x % p for x in row) for row in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0
        if cols is not None:
            if rows and cols != ncols:
                raise ValueError("cols mismatch")
            ncols = cols if not rows else ncols
        self.field = field
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows

    @classmethod
    def from_cols(cls, field: FieldSpec, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "Mat":
        """Build from a list of column vectors.  `nrows` disambiguates the empty case."""
        columns = [tuple(c) for c in columns]
        if columns:
            nrows = len(columns[0])
            if any(len(c) != nrows for c in columns):
                raise ValueError("ragged columns")
            return cls(field, [[c[i] for c in columns] for i in range(nrows)])
        if nrows is None:
            raise ValueError("empty column list needs nrows")
        return cls(field, [[] for _ in range(nrows)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def columns(self) -> List[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field != self.field or self.cols != other.rows:
            raise ValueError("matmul shape or field mismatch")
        p = self.field.p
        # with no rows, zip gives no columns; each is then the empty tuple
        ocols = list(zip(*other.data)) if other.rows else [()] * other.cols
        out = []
        for r in self.data:
            out.append([sum(a * b for a, b in zip(r, c)) % p for c in ocols])
        return Mat(self.field, out, cols=other.cols)

    def to_lists(self) -> List[List[int]]:
        return [list(r) for r in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.data == self.data
            and other.cols == self.cols
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({self.field!r}, {self.to_lists()})"


def row_times(v: Sequence[int], A: Mat) -> Vec:
    """Row vector times matrix."""
    if len(v) != A.rows:
        raise ValueError("length mismatch")
    if not A.rows:
        return (0,) * A.cols
    p = A.field.p
    return tuple(sum(map(mul, v, col)) % p for col in zip(*A.data))


def _rref(field: FieldSpec, rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """In-place reduced row echelon form.  Returns (rows, pivot column list)."""
    p = field.p
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        if inv != 1:
            rows[r] = [(x * inv) % p for x in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(A: Mat) -> int:
    _, pivots = _rref(A.field, [list(r) for r in A.data])
    return len(pivots)


def rank_of_vectors(field: FieldSpec, vectors: Sequence[Sequence[int]]) -> int:
    if not vectors:
        return 0
    _, pivots = _rref(field, [list(v) for v in vectors])
    return len(pivots)


def invert(A: Mat) -> Mat:
    if A.rows != A.cols:
        raise Singular(f"not square: {A.rows}x{A.cols}")
    n = A.rows
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(A.data)]
    red, pivots = _rref(A.field, aug)
    if pivots != list(range(n)):
        raise Singular("matrix is singular")
    return Mat(A.field, [r[n:] for r in red])


def solve_columns(A: Mat, B: Mat) -> Mat:
    """X with A @ X = B, for A of full column rank.  Raises if inconsistent."""
    if A.field != B.field or A.rows != B.rows:
        raise ValueError("shape or field mismatch")
    n = A.cols
    aug = [list(ra) + list(rb) for ra, rb in zip(A.data, B.data)]
    red, pivots = _rref(A.field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("coefficient matrix does not have full column rank")
    for i in range(n, len(red)):
        if any(x for x in red[i][n:]):
            raise ValueError("inconsistent system: target outside span")
    return Mat(A.field, [red[i][n:] for i in range(n)], cols=B.cols)


def _reduce(v: Sequence[int], rows: Sequence[Tuple[int, Sequence[int]]],
            p: int) -> Optional[Tuple[int, List[int]]]:
    """v, with entries in [0, p), reduced against echelon rows, as the
    echelon row it adds after them; None when v lies in their span."""
    w = list(v)
    for piv, row in rows:
        c = w[piv]
        if c:
            w = [(a - c * b) % p for a, b in zip(w, row)]
    for piv, x in enumerate(w):
        if x:
            f = pow(x, p - 2, p)
            return piv, [(f * y) % p for y in w]
    return None


class Subspace:
    """A subspace of F^n as its reduced row echelon rows (pivot, vector),
    pivots ascending.

    Every spanning list reduces to the same rows, so two Subspace values
    span the same space iff their rows are identical, and __eq__ is
    literal comparison.  `basis` is the vectors of those rows, in order.
    """

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: FieldSpec, ambient_dim: int, rows: Tuple[Tuple[int, Vec], ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_columns(cls, field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence[int]]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient_dim")
        p = field.p
        red, pivots = _rref(field, [[x % p for x in v] for v in vectors])
        return cls(field, ambient_dim, tuple(zip(pivots, map(tuple, red))))

    @classmethod
    def span_of(cls, A: Mat) -> "Subspace":
        return cls.from_columns(A.field, A.rows, A.columns())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> List[Vec]:
        return [v for _, v in self.rows]

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient_dim")
        p = self.field.p
        return _reduce([x % p for x in v], self.rows, p) is None

    def vectors(self):
        """All nonzero vectors of the subspace, deterministically ordered."""
        from itertools import product

        cols = self.basis
        p = self.field.p
        out = []
        for coeffs in product(range(p), repeat=len(cols)):
            if not any(coeffs):
                continue
            v = tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % p for i in range(self.ambient_dim))
            out.append(v)
        return sorted(set(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis})"


def _check_ambient(U: Subspace, W: Subspace) -> None:
    if U.field != W.field or U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient space mismatch")


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    _check_ambient(U, W)
    return Subspace.from_columns(U.field, U.ambient_dim, U.basis + W.basis)


def subspace_intersect(U: Subspace, W: Subspace) -> Subspace:
    """Zassenhaus: the echelon rows of [u | u] for U's basis and [w | 0]
    for W's whose pivots fall in the right half are 0 on the left, and
    their right halves span the intersection."""
    _check_ambient(U, W)
    n = U.ambient_dim
    rows = [list(u) * 2 for u in U.basis] + [list(w) + [0] * n for w in W.basis]
    red, pivots = _rref(U.field, rows)
    return Subspace.from_columns(U.field, n, [row[n:] for row, piv in zip(red, pivots) if piv >= n])


def complete_basis(V: Subspace) -> List[Vec]:
    """Vectors extending V's basis to a basis of the ambient space.

    Standard basis vectors are scanned in index order, and each one
    outside the span so far is kept, so the result is deterministic.
    """
    n = V.ambient_dim
    p = V.field.p
    rows = list(V.rows)
    added = []
    for i in range(n):
        if len(rows) == n:
            break
        e = tuple(int(j == i) for j in range(n))
        row = _reduce(e, rows, p)
        if row is not None:
            rows.append(row)
            added.append(e)
    return added
