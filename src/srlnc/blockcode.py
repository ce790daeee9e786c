"""Sub-rate precoding as block-lifted decoding.

A plan spreads an exact spanner over l network uses, so that each sub-rate
sink recovers d_t of the l*r block symbols.  The single-use precoder is
the l = 1 plan whose one block is the whole spanner; when none exists, a
longer block still recovers a share.  Rates are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import List, Optional, Sequence, Tuple

from . import subrate
from .linalg import (
    ContractViolation,
    Mat,
    Subspace,
    _reduce,
    complete_basis,
    invert,
    rank_of_vectors,
    solve_columns,
)
from .subrate import (
    ConstructionFailed,
    GemSet,
    NotFullyDecodable,
    SearchSpaceTooLarge,
    build_spanner,
    fsrd_check,
    is_exact_spanner,
)

Vec = Tuple[int, ...]


class SpannerRejected(ValueError):
    """A supplied spanner is not an exact spanner of independent vectors."""


def lift_block(B_t: Mat, l: int) -> Mat:
    """Block-diagonal matrix with l copies of B_t."""
    if l < 1:
        raise ValueError("block length must be >= 1")
    return _block_diag(B_t.field, [B_t] * l)


def _block_diag(field, mats: Sequence[Mat]) -> Mat:
    if len(mats) == 1:
        return mats[0]
    cols = sum(m.cols for m in mats)
    out: List[Vec] = []
    co = 0
    for m in mats:
        out.extend((0,) * co + row + (0,) * (cols - co - m.cols) for row in m.data)
        co += m.cols
    return Mat._of(field, tuple(out), cols)


@dataclass(frozen=True)
class BlockDesign:
    spanner: Tuple[Vec, ...]
    blocks: Tuple[Tuple[int, ...], ...]   # per block: indices into spanner


@dataclass(frozen=True)
class BlockSinkPlan:
    D_hat: Mat
    R_hat: Mat
    decoded_indices: Tuple[int, ...]      # coordinates of the l*r block message
    rate: Fraction


@dataclass(frozen=True)
class BlockPlan:
    l: int
    P_hat: Mat
    sinks: Tuple[BlockSinkPlan, ...]      # parallel to GemSet.mats
    design: BlockDesign
    i_bar: Optional[Tuple[int, ...]] = None   # set on the single-use precoder


def build_block_plan(gems: GemSet, design: BlockDesign) -> BlockPlan:
    """Assemble P_hat from per-block completed bases and per-sink, per-block
    decoders; undecoded columns stay zero.  Every caller hands in one or
    more blocks of independent vectors, so any other design is a
    ContractViolation."""
    field, r, l = gems.field, gems.rate, len(design.blocks)
    if l < 1:
        raise ContractViolation("block design has no blocks")
    V = [tuple(x % field.p for x in v) for v in design.spanner]
    p_blocks: List[Mat] = []
    for blk in design.blocks:
        vecs = [V[j] for j in blk]
        span = Subspace.from_columns(field, r, vecs)
        if span.dim != len(vecs):
            raise ContractViolation(f"block {blk} is linearly dependent")
        p_blocks.append(invert(Mat._of(field, tuple(zip(*vecs, *complete_basis(span))), r)))
    holds = [gems.holds(v) for v in V]   # holds[j][i]: member span i contains V[j]
    sinks = tuple(_sink_block_plan(V, design.blocks, p_blocks, B, [row[i] for row in holds])
                  for i, B in enumerate(gems.mats))
    return BlockPlan(l=l, P_hat=_block_diag(field, p_blocks), sinks=sinks, design=design)


def _sink_block_plan(V: List[Vec], blocks: Sequence[Tuple[int, ...]],
                     p_blocks: Sequence[Mat], B: Mat, holds: Sequence[int]) -> BlockSinkPlan:
    """One sink's decoders, block by block: B @ D_b = the block's vectors
    that span(B) holds (`holds[j]`) and R_b = their unit vectors, both
    padded with zero columns to h, checked as P_b @ B @ D_b = R_b without
    lifting B to l*r rows.  The vectors of V have entries in [0, p)."""
    field, r, h = B.field, B.rows, B.cols
    parts: List[Tuple[Mat, Mat]] = []
    decoded: List[int] = []
    for bi, (blk, P_b) in enumerate(zip(blocks, p_blocks)):
        held = [pos for pos, j in enumerate(blk) if holds[j]]
        pad = (0,) * (h - len(held))
        vecs = [V[blk[pos]] for pos in held]
        D_b = solve_columns(B, Mat._of(field, tuple(tuple(v[i] for v in vecs) + pad
                                                    for i in range(r)), h))
        R_b = Mat._of(field, tuple(tuple(int(pos == i) for pos in held) + pad
                                   for i in range(r)), h)
        if P_b @ B @ D_b != R_b:
            raise ContractViolation(f"block decoding contract violated in block {bi}")
        parts.append((D_b, R_b))
        decoded.extend(bi * r + pos for pos in held)
    D_hat, R_hat = (_block_diag(field, mats) for mats in zip(*parts))
    return BlockSinkPlan(D_hat=D_hat, R_hat=R_hat, decoded_indices=tuple(decoded),
                         rate=Fraction(len(decoded), len(blocks)))


def build_precoder(gems: GemSet,
                   spanner: Optional[Sequence[Sequence[int]]] = None) -> BlockPlan:
    """The single-use precoder: the l = 1 plan whose one block is a whole
    exact spanner, so P_hat @ B_t @ D_hat = R_hat decodes h_t coordinates.

    A spanner may be supplied to fix the column order of the inverted
    basis (and hence P_hat) exactly; by default the guideline construction
    is used; if it fails, the refusal names a member that `common_basis`
    leaves short (none short is a ContractViolation).  P_hat inverts a
    completed basis, so a full-rate sink's r by r B_t keeps rank r.
    """
    field = gems.field
    if spanner is not None:
        V = [tuple(x % field.p for x in v) for v in spanner]
        if not is_exact_spanner(V, gems):
            raise SpannerRejected("supplied vectors are not an exact spanner")
        if rank_of_vectors(field, V) != len(V):
            raise SpannerRejected("supplied spanner vectors must be independent")
    i_bar = fsrd_check(gems)
    if i_bar is None:
        raise NotFullyDecodable("no degree profile satisfies the feasibility conditions")
    if spanner is None:
        try:
            V = list(build_spanner(gems, i_bar))
        except ConstructionFailed:
            held = [sum(col) for col in zip(*map(gems.holds, subrate.common_basis(gems)))]
            for i, got in enumerate(held):
                if got < gems.h(i):
                    raise NotFullyDecodable(f"the member spans have no common basis: member {i} "
                                            f"has rank {got} of {gems.h(i)} in the greedy basis")
            raise ContractViolation("the guideline spanner failed where a common basis exists")
    plan = build_block_plan(gems, BlockDesign(spanner=tuple(V), blocks=(tuple(range(len(V))),)))
    return replace(plan, i_bar=i_bar)


# most rows, l * r, of a partial plan's P_hat, which is built dense: about
# 100 MB of matrices at this side, growing as its square
MAX_SIDE = 2048


def build_partial_general(gems: GemSet) -> BlockPlan:
    """The always-applicable construction: one block per independent
    d(V)-subset of an exact spanner V.  Guarantees d_t >= h_t.  A plan
    whose P_hat would have more than MAX_SIDE rows raises
    SearchSpaceTooLarge before any matrix is built."""
    try:
        V = tuple(subrate.minimal_exact_spanner(gems))
    except SearchSpaceTooLarge:   # the union of the member bases
        V = tuple(dict.fromkeys(v for s in gems.spans for v in s.basis))
    d = rank_of_vectors(gems.field, V)
    subsets = [c for c, _ in _independent_subsets(gems, V) if len(c) == d]
    side = len(subsets) * gems.rate
    if side > MAX_SIDE:
        raise SearchSpaceTooLarge(f"{len(subsets)} blocks give P_hat side {side}, "
                                  f"above the cap {MAX_SIDE}")
    return build_block_plan(gems, BlockDesign(spanner=V, blocks=tuple(subsets)))


def _independent_subsets(gems: GemSet, V: Sequence[Vec]) -> List[Tuple[Tuple[int, ...], Vec]]:
    """The independent subsets of V, sorted by (size, indices), each with
    how many of its vectors each member span holds: one DFS over V on
    echelon rows that drops a dependent prefix with all its extensions.
    More than `subrate.SEARCH_BUDGET` subsets raise SearchSpaceTooLarge."""
    p, budget = gems.field.p, subrate.SEARCH_BUDGET
    holds = [gems.holds(v) for v in V]
    out: List[Tuple[Tuple[int, ...], Vec]] = []
    rows: List[Tuple[int, List[int]]] = []

    def grow(start: int, chosen: Tuple[int, ...], counts: Vec) -> None:
        for j in range(start, len(V)):
            row = _reduce(V[j], rows, p)
            if row is not None:
                if len(out) == budget:
                    raise SearchSpaceTooLarge(f"more than {budget} independent spanner subsets")
                out.append((chosen + (j,), tuple(map(add, counts, holds[j]))))
                rows.append(row)
                grow(j + 1, *out[-1])
                rows.pop()

    grow(0, (), (0,) * gems.k)
    return sorted(out, key=lambda e: (len(e[0]), e[0]))


def optimize_block_plan(gems: GemSet, l_max: int) -> BlockPlan:
    """Best min-rate design over multisets of independent subsets of a
    minimal exact spanner, searched for per call, by exact branch-and-bound.

    Designs are visited as non-decreasing subset-index tuples in lex order,
    l ascending.  Scores min_i(total_i) / l, total_i counting the design's
    vectors in member i's span, are compared as integer cross products, and
    only a strictly better one replaces the best, so ties keep the first
    design at the smallest l.  A prefix with `left` blocks to go ends its
    level once min_i(total_i + left * sufmax_i) cannot beat the best,
    sufmax_i being the most member i gets from one subset at or past the
    next index.  No design scores above min h_i per use, so reaching it
    stops the search.  More than `subrate.SEARCH_BUDGET` search nodes,
    prefixes and full designs alike, raise SearchSpaceTooLarge.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    V = tuple(subrate.minimal_exact_spanner(gems))
    listed = _independent_subsets(gems, V)
    sufmax = [(0,) * gems.k] * (len(listed) + 1)
    for s in reversed(range(len(listed))):
        sufmax[s] = tuple(map(max, listed[s][1], sufmax[s + 1]))
    best = (-1, 1, ())           # (min total, l, design); any design beats it
    nodes, budget = 0, subrate.SEARCH_BUDGET

    def dfs(start: int, left: int, l: int, totals: Vec, design: Tuple[int, ...]) -> None:
        nonlocal best, nodes
        for s in range(start, len(listed)):
            if min(t + left * m for t, m in zip(totals, sufmax[s])) * best[1] <= best[0] * l:
                return
            nodes += 1
            if nodes > budget:
                raise SearchSpaceTooLarge(f"more than {budget} candidate designs")
            got = tuple(map(add, totals, listed[s][1]))
            if left > 1:
                dfs(s, left - 1, l, got, design + (s,))
            elif min(got) * best[1] > best[0] * l:
                best = (min(got), l, design + (s,))

    for l in range(1, l_max + 1):
        if best[0] == min(sufmax[0]) * best[1]:
            break
        dfs(0, l, l, (0,) * gems.k, ())
    blocks = tuple(listed[s][0] for s in best[2])
    return build_block_plan(gems, BlockDesign(spanner=V, blocks=blocks))
