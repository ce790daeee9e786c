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
    rank,
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
    minimal_exact_spanner,
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


def block_decoder_for(plan: BlockPlan, index: int, B: Mat) -> BlockSinkPlan:
    """Block decoders for a matrix whose span equals member `index`.

    Lets a sink that was deduplicated away (same span, different basis)
    reuse the plan: same decoded coordinates, its own D_hat.  P_hat is
    block diagonal, so the P_b are read off its diagonal.
    """
    r = B.rows
    p_blocks = [Mat(B.field, [row[o:o + r] for row in plan.P_hat.data[o:o + r]])
                for o in range(0, plan.l * r, r)]
    V = [tuple(x % B.field.p for x in v) for v in plan.design.spanner]
    span = Subspace.span_of(B)
    got = _sink_block_plan(V, plan.design.blocks, p_blocks, B, [span.contains(v) for v in V])
    entry = plan.sinks[index]
    if got.decoded_indices != entry.decoded_indices:
        raise ContractViolation("same-span matrix decodes different block coordinates")
    return got


def build_precoder(gems: GemSet, full_rate: Sequence[Mat] = (),
                   spanner: Optional[Sequence[Sequence[int]]] = None) -> BlockPlan:
    """The single-use precoder: the l = 1 plan whose one block is a whole
    exact spanner, so P_hat @ B_t @ D_hat = R_hat decodes h_t coordinates.

    A spanner may be supplied to fix the column order of the inverted
    basis (and hence P_hat) exactly; by default the guideline construction
    is used, with the exhaustive minimal spanner as fallback.  Any supplied
    full-rate matrices are checked to stay invertible under P_hat.
    """
    r = gems.rate
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
            V = minimal_exact_spanner(gems)
            # V, of member lines, spans just the total span: independent at
            # its dimension, dependent above it.  A precoder's inverse holds
            # an independent exact spanner, so a longer V rules one out.
            dim = gems.total_span().dim
            if len(V) > dim:
                bound = (f"the rate {r}" if len(V) > r
                         else f"the dimension {dim} of the members' total span")
                exc = NotFullyDecodable(f"the minimal exact spanner has {len(V)} vectors, "
                                        f"more than {bound}")
                exc.spanner = tuple(V)
                raise exc
    plan = build_block_plan(gems, BlockDesign(spanner=tuple(V), blocks=(tuple(range(len(V))),)))
    for FB in full_rate:
        if rank(plan.P_hat @ FB) != r:
            raise ContractViolation("full-rate matrix lost rank under P")
    return replace(plan, i_bar=i_bar)


MAX_BLOCKS = 10_000   # most blocks, one per independent d(V)-subset, in a partial plan


def build_partial_general(gems: GemSet) -> BlockPlan:
    """The always-applicable construction: one block per independent
    d(V)-subset of an exact spanner V.  Guarantees d_t >= h_t."""
    try:
        V = minimal_exact_spanner(gems)
    except SearchSpaceTooLarge:   # the union of the member bases
        V = list(dict.fromkeys(v for s in gems.spans for v in s.basis))
    d = rank_of_vectors(gems.field, V)
    subsets = [c for c, _ in _independent_subsets(gems, V) if len(c) == d]
    if len(subsets) > MAX_BLOCKS:
        raise SearchSpaceTooLarge(f"{len(subsets)} blocks exceed cap {MAX_BLOCKS}")
    return build_block_plan(gems, BlockDesign(spanner=tuple(V), blocks=tuple(subsets)))


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


def optimize_block_plan(gems: GemSet, l_max: int,
                        spanner: Optional[Sequence[Vec]] = None) -> BlockPlan:
    """Best min-rate design over multisets of independent subsets of a
    minimal exact spanner (`spanner`, such as `NotFullyDecodable.spanner`,
    or a fresh search), found by exact branch-and-bound.

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
    V = list(spanner) if spanner is not None else minimal_exact_spanner(gems)
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
    return build_block_plan(gems, BlockDesign(spanner=tuple(V), blocks=blocks))
