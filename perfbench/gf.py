"""Plain-integer GF(p) algebra for the benchmark's generators and checks.

Deliberately independent of `srlnc.linalg`, so that the benchmark's verdict
on an output never rests on the code it measures.  Matrices are lists of
rows; vectors are tuples.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Vec = Tuple[int, ...]
Rows = List[List[int]]


def rref(p: int, rows: Sequence[Sequence[int]]) -> Tuple[Rows, List[int]]:
    """Reduced row echelon form of a copy of `rows`, with its pivot columns."""
    m = [[x % p for x in r] for r in rows]
    pivots: List[int] = []
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(p: int, vectors: Sequence[Sequence[int]]) -> int:
    return len(rref(p, vectors)[1]) if vectors else 0


def matmul(p: int, a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def columns(a: Rows) -> List[Vec]:
    return [tuple(c) for c in zip(*a)]


def from_columns(cols: Sequence[Sequence[int]], nrows: int) -> Rows:
    return [[c[i] for c in cols] for i in range(nrows)]


def unit(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def span_key(p: int, cols: Sequence[Sequence[int]]) -> Tuple[Vec, ...]:
    """Canonical form of a column span: the nonzero rows of its RREF."""
    red, piv = rref(p, cols)
    return tuple(tuple(red[i]) for i in range(len(piv)))


def block_diag(blocks: Sequence[Rows]) -> Rows:
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) if b else 0 for b in blocks)
    out = [[0] * ncols for _ in range(nrows)]
    ro = co = 0
    for b in blocks:
        w = len(b[0]) if b else 0
        for i, row in enumerate(b):
            out[ro + i][co:co + w] = row
        ro += len(b)
        co += w
    return out
