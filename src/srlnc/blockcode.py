"""Sub-rate precoding as block-lifted decoding.

A plan spreads an exact spanner over l network uses, so that each sub-rate
sink recovers d_t of the l*r block symbols.  The single-use precoder is
the l = 1 plan whose one block is the whole spanner; when none exists, a
longer block still recovers a share.  Rates are exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import (
    ContractViolation,
    Mat,
    Subspace,
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


class InfeasibleDesign(ValueError):
    """A block of the design cannot be completed to an invertible basis."""


class SpannerRejected(ValueError):
    """A supplied spanner is not an exact spanner of independent vectors."""


def lift_block(B_t: Mat, l: int) -> Mat:
    """Block-diagonal matrix with l copies of B_t."""
    if l < 1:
        raise ValueError("block length must be >= 1")
    return _block_diag(B_t.field, [B_t] * l)


def _block_diag(field, mats: Sequence[Mat]) -> Mat:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    ro = co = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[ro + i][co + j] = m.data[i][j]
        ro += m.rows
        co += m.cols
    return Mat(field, out, cols=cols)


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
    decoders; undecoded columns stay zero."""
    field = gems.field
    r = gems.rate
    l = len(design.blocks)
    if l < 1:
        raise InfeasibleDesign("design needs at least one block")
    V = [tuple(v) for v in design.spanner]
    p_blocks: List[Mat] = []
    for blk in design.blocks:
        vecs = [V[j] for j in blk]
        if rank_of_vectors(field, vecs) != len(vecs):
            raise InfeasibleDesign(f"block {blk} is linearly dependent")
        padding = complete_basis(Subspace.from_columns(field, r, vecs))
        cols = vecs + padding.columns()
        p_blocks.append(invert(Mat.from_cols(field, cols, nrows=r)))
    P_hat = _block_diag(field, p_blocks)
    sinks = tuple(_sink_block_plan(field, V, design.blocks, P_hat, B, l)
                  for B in gems.mats)
    return BlockPlan(l=l, P_hat=P_hat, sinks=sinks, design=design)


def _sink_block_plan(field, V: List[Vec], blocks: Sequence[Tuple[int, ...]],
                     P_hat: Mat, B: Mat, l: int) -> BlockSinkPlan:
    r = B.rows
    h = B.cols
    span = Subspace.span_of(B)
    lift_eye = Mat.identity(field, l * r)
    d_blocks: List[Mat] = []
    r_cols: List[Vec] = []
    decoded: List[int] = []
    for bi, blk in enumerate(blocks):
        members = [(pos, V[j]) for pos, j in enumerate(blk) if span.contains(V[j])]
        if members:
            targets = Mat.from_cols(field, [v for _, v in members], nrows=r)
            D_part = solve_columns(B, targets)
        else:
            D_part = Mat.zeros(field, h, 0)
        d_blocks.append(D_part.hstack(Mat.zeros(field, h, h - len(members))))
        r_cols.extend(lift_eye.col(bi * r + pos) for pos, _ in members)
        r_cols.extend([(0,) * (l * r)] * (h - len(members)))
        decoded.extend(bi * r + pos for pos, _ in members)
    D_hat = _block_diag(field, d_blocks)
    R_hat = Mat.from_cols(field, r_cols, nrows=l * r)
    if P_hat @ lift_block(B, l) @ D_hat != R_hat:
        raise ContractViolation("block decoding contract violated")
    return BlockSinkPlan(D_hat=D_hat, R_hat=R_hat, decoded_indices=tuple(decoded),
                         rate=Fraction(len(decoded), l))


def block_decoder_for(plan: BlockPlan, index: int, B: Mat) -> BlockSinkPlan:
    """Block decoders for a matrix whose span equals member `index`.

    Lets a sink that was deduplicated away (same span, different basis)
    reuse the plan: same decoded coordinates, its own D_hat.
    """
    V = [tuple(v) for v in plan.design.spanner]
    got = _sink_block_plan(B.field, V, plan.design.blocks, plan.P_hat, B, plan.l)
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
    i_bar = fsrd_check(gems)
    if i_bar is None:
        raise NotFullyDecodable("no degree profile satisfies the feasibility conditions")
    r = gems.rate
    field = gems.field
    if spanner is not None:
        V = [tuple(x % field.p for x in v) for v in spanner]
        if not is_exact_spanner(V, gems):
            raise SpannerRejected("supplied vectors are not an exact spanner")
        if rank_of_vectors(field, V) != len(V):
            raise SpannerRejected("supplied spanner vectors must be independent")
    else:
        try:
            V = list(build_spanner(gems, i_bar))
        except ConstructionFailed:
            V = minimal_exact_spanner(gems)
            # The r columns of an inverse precoder would themselves be an
            # exact spanner, so a larger minimum rules a precoder out.
            if len(V) > r:
                raise NotFullyDecodable(f"the minimal exact spanner has {len(V)} vectors, "
                                        f"more than the rate {r}")
    plan = build_block_plan(gems, BlockDesign(spanner=tuple(V), blocks=(tuple(range(len(V))),)))
    for FB in full_rate:
        if rank(plan.P_hat @ FB) != r:
            raise ContractViolation("full-rate matrix lost rank under P")
    return replace(plan, i_bar=i_bar)


def build_partial_general(gems: GemSet, max_blocks: int = 10_000) -> BlockPlan:
    """The always-applicable construction: one block per independent
    d(V)-subset of an exact spanner V.  Guarantees d_t >= h_t."""
    try:
        V = minimal_exact_spanner(gems)
    except SearchSpaceTooLarge:
        V = _bases_union(gems)
    field = gems.field
    d = rank_of_vectors(field, V)
    subsets = [c for c in itertools.combinations(range(len(V)), d)
               if rank_of_vectors(field, [V[j] for j in c]) == d]
    if len(subsets) > max_blocks:
        raise SearchSpaceTooLarge(f"{len(subsets)} blocks exceed cap {max_blocks}")
    design = BlockDesign(spanner=tuple(V), blocks=tuple(subsets))
    return build_block_plan(gems, design)


def _bases_union(gems: GemSet) -> List[Vec]:
    out: List[Vec] = []
    for s in gems.spans:
        for v in s.basis.columns():
            if v not in out:
                out.append(v)
    return out


def optimize_block_plan(gems: GemSet, l_max: int, max_designs: int = 200_000) -> BlockPlan:
    """Best min-rate design over multisets of independent spanner subsets.

    Scoring needs only membership counts, so the search is cheap; the full
    plan is built once for the winner.  Ties keep the earliest design,
    which is the lexicographically smallest at the smallest block count.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    V = minimal_exact_spanner(gems)
    field = gems.field
    r = gems.rate
    subsets: List[Tuple[int, ...]] = []
    for size in range(1, min(r, len(V)) + 1):
        for c in itertools.combinations(range(len(V)), size):
            if rank_of_vectors(field, [V[j] for j in c]) == size:
                subsets.append(c)
    holds = [[span.contains(v) for span in gems.spans] for v in V]
    counts = [tuple(sum(holds[j][i] for j in c) for i in range(gems.k)) for c in subsets]
    best: Optional[Tuple[Fraction, int, Tuple[Tuple[int, ...], ...]]] = None
    examined = 0
    for l in range(1, l_max + 1):
        for design in itertools.combinations_with_replacement(range(len(subsets)), l):
            examined += 1
            if examined > max_designs:
                raise SearchSpaceTooLarge(f"more than {max_designs} candidate designs")
            totals = [0] * gems.k
            for si in design:
                for i, n in enumerate(counts[si]):
                    totals[i] += n
            score = Fraction(min(totals), l)
            if best is None or score > best[0]:
                best = (score, l, tuple(subsets[si] for si in design))
    if best is None:
        raise ContractViolation("no block design scored, though l_max >= 1")
    return build_block_plan(gems, BlockDesign(spanner=tuple(V), blocks=best[2]))
