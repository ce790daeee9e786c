"""Commonality measures, exact spanners, and full sub-rate precoding.

A GemSet is the matrix-level view of the sub-rate sinks: band together
their encoding matrices, measure how much the column spans overlap, and
when the feasibility check passes, produce a precoder P with per-sink
decoders (D_t, R_t) satisfying P @ B_t @ D_t = R_t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .linalg import (
    ContractViolation,
    Mat,
    Subspace,
    change_basis_to_targets,
    complete_basis,
    invert,
    rank,
    rank_of_vectors,
    subspace_intersect,
    subspace_sum,
)
from .fields import FieldSpec

Vec = Tuple[int, ...]


class NotFullyDecodable(ValueError):
    """The feasibility conditions fail; no full sub-rate precoder exists here."""


class ConstructionFailed(RuntimeError):
    """The guideline spanner construction did not complete for this input."""


class SearchSpaceTooLarge(RuntimeError):
    """Exhaustive enumeration would exceed the configured cap."""


def projective_rep(field: FieldSpec, v: Sequence[int]) -> Vec:
    """Scale so the first nonzero coordinate is 1."""
    p = field.p
    w = tuple(x % p for x in v)
    for x in w:
        if x:
            f = pow(x, p - 2, p)
            return tuple((f * y) % p for y in w)
    raise ValueError("zero vector has no projective representative")


def subspace_lines(S: Subspace) -> List[Vec]:
    """Projective representatives of the nonzero vectors of S, sorted."""
    return list(_lines(S))


def _lines(S: Subspace, top: Optional[int] = None) -> Iterator[Vec]:
    """The projective representatives of S's lines, in sorted order, from
    the leading basis index `top` (default: the last) down.

    The basis b_0..b_{d-1} is reduced column echelon with ascending pivot
    rows, so a line's first nonzero coordinate sits at the pivot of the
    first basis vector it uses.  Its representative is b_j plus a
    combination of b_{j+1}..b_{d-1}, whose coefficients are read off at
    those pivots.  A later leading index j therefore gives smaller
    vectors, and within one j the vectors sort as their coefficients do
    in lex order.
    """
    cols = S.basis.columns()
    p = S.field.p
    for j in range(len(cols) - 1 if top is None else top, -1, -1):
        yield from _lex_sums(cols[j], cols[j + 1:], p)


def _lex_sums(head: Vec, tail: Sequence[Vec], p: int) -> Iterator[Vec]:
    """head + sum(c_i * tail[i]) for every coefficient tuple c, in lex order."""
    if not tail:
        yield head
        return
    b, rest = tail[0], tail[1:]
    for c in range(p):
        if c:
            head = tuple((x + y) % p for x, y in zip(head, b))
        yield from _lex_sums(head, rest, p)


class GemSet:
    """Sub-rate encoding matrices with pairwise distinct column spans.

    Duplicate spans are dropped on construction; `source_map[i]` gives the
    stored index that the i-th input matrix collapsed onto.
    """

    __slots__ = ("field", "rate", "mats", "spans", "source_map", "_inter_cache")

    def __init__(self, mats: Sequence[Mat], rate: int):
        if not mats:
            raise ValueError("need at least one matrix")
        field = mats[0].field
        kept: List[Mat] = []
        spans: List[Subspace] = []
        source_map: List[int] = []
        for m in mats:
            if m.field != field:
                raise ValueError("mixed fields")
            if m.rows != rate:
                raise ValueError(f"matrix has {m.rows} rows, rate is {rate}")
            if not (0 < m.cols < rate):
                raise ValueError("sub-rate matrices need 0 < cols < rate")
            if rank(m) != m.cols:
                raise ValueError("matrix columns are dependent")
            span = Subspace.span_of(m)
            try:
                source_map.append(spans.index(span))
            except ValueError:
                source_map.append(len(kept))
                kept.append(m)
                spans.append(span)
        self.field = field
        self.rate = rate
        self.mats = tuple(kept)
        self.spans = tuple(spans)
        self.source_map = tuple(source_map)
        self._inter_cache: Dict[FrozenSet[int], Subspace] = {}

    @property
    def k(self) -> int:
        return len(self.mats)

    def h(self, i: int) -> int:
        return self.mats[i].cols

    def intersection(self, idxs: FrozenSet[int]) -> Subspace:
        idxs = frozenset(idxs)
        if not idxs:
            raise ValueError("empty index set")
        got = self._inter_cache.get(idxs)
        if got is None:
            it = iter(sorted(idxs))
            got = self.spans[next(it)]
            for i in it:
                got = subspace_intersect(got, self.spans[i])
            self._inter_cache[idxs] = got
        return got

    def total_span(self) -> Subspace:
        acc = self.spans[0]
        for s in self.spans[1:]:
            acc = subspace_sum(acc, s)
        return acc


def comd(v: Sequence[int], gems: GemSet) -> int:
    """Number of member spans containing v."""
    if not any(x % gems.field.p for x in v):
        raise ValueError("commonality degree is undefined for the zero vector")
    return sum(1 for s in gems.spans if s.contains(v))


def is_exact_spanner(V: Sequence[Sequence[int]], gems: GemSet) -> bool:
    """For every member matrix, some h_i vectors of V span its column space.

    Since any h_i vectors spanning an h_i-dimensional space must all lie
    inside it, the exhaustive subset search reduces to a rank test on the
    vectors of V that each span contains.
    """
    for i in range(gems.k):
        span = gems.spans[i]
        inside = [tuple(v) for v in V if span.contains(v)]
        if rank_of_vectors(gems.field, inside) != gems.h(i):
            return False
    return True


def comss_c(gems: GemSet, c: int) -> int:
    """Inclusion-exclusion count of level-c commonality, one clamped bracket
    per (k-c)-subset of dropped members."""
    k = gems.k
    if not 1 <= c <= k:
        raise ValueError(f"need 1 <= c <= {k}")
    idx = range(k)
    total = 0
    for removed in itertools.combinations(idx, k - c):
        comp = frozenset(i for i in idx if i not in removed)
        term = 0
        for jsz in range(len(removed) + 1):
            sign = 1 if jsz % 2 == 0 else -1
            for J in itertools.combinations(removed, jsz):
                term += sign * gems.intersection(comp | frozenset(J)).dim
        total += max(term, 0)
    return total


def compol(gems: GemSet, i_bar: Sequence[int]) -> int:
    if len(i_bar) != gems.k:
        raise ValueError("i_bar length must equal the number of members")
    return sum((c + 1) * n for c, n in enumerate(i_bar))


def fsrd_check(gems: GemSet) -> Optional[Tuple[int, ...]]:
    """First feasible degree profile, searched with high-commonality mass first.

    Feasible means compol(i_bar) >= sum of member dimensions and
    sum(i_bar) <= dim of the total span.
    """
    k = gems.k
    caps = [comss_c(gems, c) for c in range(1, k + 1)]
    need = sum(gems.h(i) for i in range(k))
    limit = gems.total_span().dim
    ranges = [range(caps[c], -1, -1) for c in range(k - 1, -1, -1)]
    for rev in itertools.product(*ranges):
        i_bar = tuple(reversed(rev))
        if compol(gems, i_bar) >= need and sum(i_bar) <= limit:
            return i_bar
    return None


def comss_exhaustive(gems: GemSet, cap: int = 10_000) -> int:
    """Exact minimum exact-spanner size by iterative-deepening search."""
    return len(minimal_exact_spanner(gems, cap=cap))


def minimal_exact_spanner(gems: GemSet, cap: int = 10_000) -> List[Vec]:
    """A minimum-cardinality exact spanner.

    Candidates are the projective lines of the member spans: a vector
    outside every span can never sit in a spanning subset, and scaling
    changes neither membership nor rank.  Membership is read once from
    those line lists, so `inside[v]` names the members whose span holds v.

    The search is iterative deepening: at each depth, a depth-first search
    branches, in sorted order, on the lines of the first deficient member
    that raise its rank, and remembers the sets that failed at this depth.
    Each member keeps a stack of echelon rows for the vectors chosen so
    far that it contains; pushing v reduces it against the stacks of the
    members in `inside[v]` only, and popping undoes that.  A member's rank
    is its stack's length, so the deficit sum(h_i - rank_i) is known at
    every node.  One more vector raises the rank of at most `maxdeg`
    deficient members, the most of them that any line lies in, and the
    deficient members only dwindle; so a node is cut when even that many
    per vector could not clear the deficit within the depth, and deepening
    starts at the larger of dim(total span) and ceil(sum(h) / maxdeg) over
    all members.  Both cuts drop only subtrees without a solution at that
    depth, so the first spanner found, and its order, is that of the plain
    search.
    """
    p = gems.field.p
    if p ** gems.rate > cap:
        raise SearchSpaceTooLarge(f"{p}^{gems.rate} candidate vectors exceed cap {cap}")
    lines = [subspace_lines(s) for s in gems.spans]
    targets = [gems.h(i) for i in range(gems.k)]
    inside: Dict[Vec, List[int]] = {}
    for i, member_lines in enumerate(lines):
        for v in member_lines:
            inside.setdefault(v, []).append(i)
    masks = {sum(1 << i for i in held) for held in inside.values()}
    degree: Dict[int, int] = {}
    need = sum(targets)
    stacks: List[List[Tuple[int, List[int]]]] = [[] for _ in targets]
    V: List[Vec] = []

    def maxdeg(short: int) -> int:
        """The most members of the bit mask `short` that one line lies in."""
        got = degree.get(short)
        if got is None:
            got = degree[short] = max((m & short).bit_count() for m in masks)
        return got

    def dfs(deficit: int, depth: int, seen: set) -> Optional[List[Vec]]:
        if not deficit:
            return list(V)
        short = sum(1 << j for j, rows in enumerate(stacks) if len(rows) < targets[j])
        if len(V) + -(-deficit // maxdeg(short)) > depth:
            return None
        key = frozenset(V)
        if key in seen:
            return None
        seen.add(key)
        i = (short & -short).bit_length() - 1
        for v in lines[i]:
            if _reduce(v, stacks[i], p) is None:
                continue
            pushed = []
            for j in inside[v]:
                row = _reduce(v, stacks[j], p)
                if row is not None:
                    stacks[j].append(row)
                    pushed.append(j)
            V.append(v)
            got = dfs(deficit - len(pushed), depth, seen)
            V.pop()
            for j in pushed:
                stacks[j].pop()
            if got is not None:
                return got
        return None

    lower = -(-need // maxdeg((1 << gems.k) - 1))
    for depth in range(max(gems.total_span().dim, lower), need + 1):
        found = dfs(need, depth, set())
        if found is not None:
            return found
    raise ContractViolation("unreachable: the union of member bases is an exact spanner")


def _reduce(v: Vec, rows: List[Tuple[int, List[int]]], p: int) -> Optional[Tuple[int, List[int]]]:
    """v reduced against echelon rows (pivot, row with a unit pivot), as a
    new such row; None when v lies in their span."""
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


@dataclass(frozen=True)
class SpannerCertificate:
    i_bar: Tuple[int, ...]
    spanner: Tuple[Vec, ...]
    comss_values: Tuple[int, ...]


def build_spanner(gems: GemSet, i_bar: Sequence[int]) -> SpannerCertificate:
    """Collect i_bar[c] independent vectors of commonality degree c, walking
    c downward, the c-member intersections in complement-ascending order
    and the lines of each in sorted order.

    The chosen vectors V are kept as echelon rows.  A line that is in
    span(V) is never taken, so the walk of an intersection starts at the
    last basis vector b_j outside span(V): every line of a later leading
    index lies in span(b_{j+1}, ...) and inside span(V).  The walk stops
    once V spans the whole intersection, and skips it if V already does.
    """
    k = gems.k
    if len(i_bar) != k:
        raise ValueError("i_bar length must equal the number of members")
    caps = tuple(comss_c(gems, c) for c in range(1, k + 1))
    for c in range(1, k + 1):
        if i_bar[c - 1] > caps[c - 1]:
            raise ValueError(f"i_bar[{c}]={i_bar[c - 1]} exceeds level size {caps[c - 1]}")
    p = gems.field.p
    V: List[Vec] = []
    rows: List[Tuple[int, List[int]]] = []
    for c in range(k, 0, -1):
        need = i_bar[c - 1]
        if need == 0:
            continue
        got = 0
        for removed in itertools.combinations(range(k), k - c):
            comp = frozenset(i for i in range(k) if i not in removed)
            inter = gems.intersection(comp)
            basis = inter.basis.columns()
            outside = [j for j, b in enumerate(basis) if _reduce(b, rows, p) is not None]
            if not outside:
                continue
            for v in _lines(inter, outside[-1]):
                row = _reduce(v, rows, p)
                if row is None or comd(v, gems) != c:
                    continue
                V.append(v)
                rows.append(row)
                got += 1
                if got == need or all(_reduce(b, rows, p) is None for b in basis):
                    break
            if got == need:
                break
        if got < need:
            raise ConstructionFailed(f"could not collect {need} degree-{c} vectors")
    if not is_exact_spanner(V, gems):
        raise ConstructionFailed("collected vectors do not form an exact spanner")
    return SpannerCertificate(i_bar=tuple(i_bar), spanner=tuple(V), comss_values=caps)


@dataclass(frozen=True)
class SinkPlan:
    D: Mat
    R: Mat
    decoded_indices: Tuple[int, ...]


@dataclass(frozen=True)
class SubRatePlan:
    P: Mat
    sinks: Tuple[SinkPlan, ...]      # parallel to GemSet.mats
    spanner: Tuple[Vec, ...]
    i_bar: Tuple[int, ...]


def build_precoder(gems: GemSet, full_rate: Sequence[Mat] = (),
                   spanner: Optional[Sequence[Sequence[int]]] = None) -> SubRatePlan:
    """Precoder P plus per-sink (D_t, R_t) with P @ B_t @ D_t = R_t.

    A spanner may be supplied to fix the column order of the inverted
    basis (and hence P) exactly; by default the guideline construction is
    used, with the exhaustive minimal spanner as fallback.  Any supplied
    full-rate matrices are checked to stay invertible under P.
    """
    i_bar = fsrd_check(gems)
    if i_bar is None:
        raise NotFullyDecodable("no degree profile satisfies the feasibility conditions")
    r = gems.rate
    field = gems.field
    if spanner is not None:
        V = [tuple(x % field.p for x in v) for v in spanner]
        if not is_exact_spanner(V, gems):
            raise ValueError("supplied vectors are not an exact spanner")
        if rank_of_vectors(field, V) != len(V):
            raise ValueError("supplied spanner vectors must be independent")
    else:
        try:
            V = list(build_spanner(gems, i_bar).spanner)
        except ConstructionFailed:
            V = minimal_exact_spanner(gems)
            # The r columns of an inverse precoder would themselves be an
            # exact spanner, so a larger minimum rules a precoder out.
            if len(V) > r:
                raise NotFullyDecodable(f"the minimal exact spanner has {len(V)} vectors, "
                                        f"more than the rate {r}")
    pad = complete_basis(Subspace.from_columns(field, r, V))
    cols = V + pad.columns()
    B_bar = Mat.from_cols(field, cols, nrows=r)
    P = invert(B_bar)
    eye = Mat.identity(field, r)
    plans: List[SinkPlan] = []
    for B in gems.mats:
        span = Subspace.span_of(B)
        positions: List[int] = []
        vecs: List[Vec] = []
        for j, v in enumerate(V):
            if len(positions) == B.cols:
                break
            if span.contains(v) and rank_of_vectors(field, vecs + [v]) > len(vecs):
                positions.append(j)
                vecs.append(v)
        if len(positions) != B.cols:
            raise ContractViolation("exact spanner must cover every member")
        targets = Mat.from_cols(field, vecs, nrows=r)
        D = change_basis_to_targets(B, targets)
        R = Mat.from_cols(field, [eye.col(j) for j in positions], nrows=r)
        if P @ B @ D != R:
            raise ContractViolation("precoding contract violated")
        plans.append(SinkPlan(D=D, R=R, decoded_indices=tuple(positions)))
    for FB in full_rate:
        if rank(P @ FB) != r:
            raise ContractViolation("full-rate matrix lost rank under P")
    return SubRatePlan(P=P, sinks=tuple(plans), spanner=tuple(V), i_bar=i_bar)


def decoder_for(plan: SubRatePlan, index: int, B: Mat) -> SinkPlan:
    """Per-sink decoders for a matrix whose span equals member `index`.

    Lets a sink that was deduplicated away (same span, different basis)
    reuse the plan: same decoded coordinates, its own D.
    """
    entry = plan.sinks[index]
    field = B.field
    Pinv = invert(plan.P)
    targets = Mat.from_cols(field, [Pinv.col(j) for j in entry.decoded_indices], nrows=B.rows)
    D = change_basis_to_targets(B, targets)
    if plan.P @ B @ D != entry.R:
        raise ContractViolation("precoding contract violated for a same-span matrix")
    return SinkPlan(D=D, R=entry.R, decoded_indices=entry.decoded_indices)
