"""Exact matrix and subspace algebra over GF(p).

Matrices are immutable, row-major, with plain-int entries in [0, p).
Subspaces are kept in a canonical reduced column echelon form so that
equality of spans is literal equality of basis entries.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

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

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Mat":
        return cls(field, [[0] * ncols for _ in range(nrows)])

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def columns(self) -> List[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        return Mat(self.field, [self.col(j) for j in range(self.cols)], cols=self.rows)

    def hstack(self, other: "Mat") -> "Mat":
        if other.rows != self.rows or other.field != self.field:
            raise ValueError("hstack shape or field mismatch")
        return Mat(self.field, [a + b for a, b in zip(self.data, other.data)])

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field != self.field or self.cols != other.rows:
            raise ValueError("matmul shape or field mismatch")
        p = self.field.p
        ocols = list(zip(*other.data)) if other.data and other.cols else []
        out = []
        for r in self.data:
            out.append([sum(a * b for a, b in zip(r, c)) % p for c in ocols])
        if other.cols == 0:
            out = [[] for _ in range(self.rows)]
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
    p = A.field.p
    return tuple(sum(vi * A.data[i][j] for i, vi in enumerate(v)) % p for j in range(A.cols))


def times_col(A: Mat, v: Sequence[int]) -> Vec:
    if len(v) != A.cols:
        raise ValueError("length mismatch")
    p = A.field.p
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in A.data)


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


def kernel_columns(A: Mat) -> List[Vec]:
    """Basis of the right null space, one vector per free column."""
    red, pivots = _rref(A.field, [list(r) for r in A.data])
    p = A.field.p
    pivot_set = set(pivots)
    free = [j for j in range(A.cols) if j not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * A.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(tuple(v))
    return basis


class Subspace:
    """A subspace of F^n in canonical reduced column echelon form.

    Two Subspace values span the same space iff their basis entries are
    identical, so __eq__ is literal comparison.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: Mat):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_columns(cls, field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence[int]]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient_dim")
        red, pivots = _rref(field, [list(v) for v in vectors]) if vectors else ([], [])
        rows = [red[i] for i in range(len(pivots))]
        basis = Mat.from_cols(field, rows, nrows=ambient_dim)
        return cls(field, ambient_dim, basis)

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls.from_columns(field, ambient_dim, [])

    @classmethod
    def span_of(cls, A: Mat) -> "Subspace":
        return cls.from_columns(A.field, A.rows, A.columns())

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient_dim")
        # The basis is column echelon with unit pivots, so one reduction
        # pass per basis column decides membership.
        p = self.field.p
        w = [x % p for x in v]
        for j in range(self.basis.cols):
            col = self.basis.col(j)
            pr = next(i for i, x in enumerate(col) if x)
            f = w[pr]
            if f:
                w = [(a - f * b) % p for a, b in zip(w, col)]
        return not any(w)

    def vectors(self):
        """All nonzero vectors of the subspace, deterministically ordered."""
        from itertools import product

        cols = self.basis.columns()
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
            and other.basis == self.basis
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis.to_lists()})"


def _check_ambient(U: Subspace, W: Subspace) -> None:
    if U.field != W.field or U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient space mismatch")


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    _check_ambient(U, W)
    return Subspace.from_columns(U.field, U.ambient_dim, U.basis.columns() + W.basis.columns())


def subspace_intersect(U: Subspace, W: Subspace) -> Subspace:
    """Kernel-of-concatenation: solve (U | -W) x = 0 and map back through U."""
    _check_ambient(U, W)
    p = U.field.p
    ucols = U.basis.columns()
    wcols = W.basis.columns()
    if not ucols or not wcols:
        return Subspace.zero(U.field, U.ambient_dim)
    concat = Mat.from_cols(U.field, list(ucols) + [tuple((-x) % p for x in c) for c in wcols])
    vectors = []
    for ker in kernel_columns(concat):
        a = ker[: len(ucols)]
        v = tuple(sum(ci * col[i] for ci, col in zip(a, ucols)) % p for i in range(U.ambient_dim))
        vectors.append(v)
    return Subspace.from_columns(U.field, U.ambient_dim, vectors)


def complete_basis(V: Subspace) -> Mat:
    """Columns extending V's basis to a full basis of the ambient space.

    Standard basis vectors are scanned in index order, so the result is
    deterministic.
    """
    field = V.field
    n = V.ambient_dim
    chosen = list(V.basis.columns())
    added = []
    r = len(chosen)
    for i in range(n):
        if r == n:
            break
        e = tuple(1 if j == i else 0 for j in range(n))
        if rank_of_vectors(field, chosen + [e]) > r:
            chosen.append(e)
            added.append(e)
            r += 1
    return Mat.from_cols(field, added, nrows=n)


def change_basis_to_targets(B_t: Mat, targets: Mat) -> Mat:
    """Square invertible D with B_t @ D = targets.

    Requires B_t to have full column rank, targets to lie in span(B_t)
    and to be as many independent vectors as rank(B_t).
    """
    if targets.cols != B_t.cols:
        raise ValueError("need as many targets as columns of B_t")
    D = solve_columns(B_t, targets)
    if rank(D) != D.cols:
        raise ValueError("targets are linearly dependent")
    return D
