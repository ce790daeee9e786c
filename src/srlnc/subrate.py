"""Commonality measures and exact spanners.

A GemSet is the matrix-level view of the sub-rate sinks: band together
their encoding matrices, measure how much the column spans overlap, check
whether a single-use precoder is feasible, and find the exact spanners
that `blockcode` turns into precoders and block plans.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .linalg import (
    ContractViolation,
    Mat,
    Subspace,
    _reduce,
    rank_of_vectors,
    subspace_intersect,
)

Vec = Tuple[int, ...]


class NotFullyDecodable(ValueError):
    """The feasibility conditions fail; no full sub-rate precoder exists here."""


class ConstructionFailed(RuntimeError):
    """The guideline spanner construction did not complete for this input."""


class SearchSpaceTooLarge(RuntimeError):
    """A search ran past its budget, or would have, before it found a result."""


def subspace_lines(S: Subspace) -> List[Vec]:
    """Projective representatives of the nonzero vectors of S, sorted."""
    return list(_lines(S))


def _lines(S: Subspace, top: Optional[int] = None) -> Iterator[Vec]:
    """The projective representatives of S's lines, in sorted order, from
    the leading basis index `top` (default: the last) down.

    The basis b_0..b_{d-1} is S's reduced echelon rows, pivots ascending,
    each 1 at its own pivot and 0 at the others; so a line's first nonzero
    coordinate sits at the pivot of the first basis vector it uses.  Its
    representative is b_j plus a combination of b_{j+1}..b_{d-1}, whose
    coefficients are read off at those pivots.  A later leading index j therefore gives smaller
    vectors, and within one j the vectors sort as their coefficients do
    in lex order.
    """
    cols = S.basis
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

    Duplicate spans are dropped on construction, found by hashing each
    span; `source_map[i]` gives the stored index that the i-th input
    matrix collapsed onto.  The facts about the members (their nonzero
    intersections, commonality levels, total span, which spans hold a
    vector and a minimal exact spanner) are each computed once, on first
    use, and kept for the GemSet's lifetime.
    """

    __slots__ = ("field", "rate", "mats", "spans", "source_map", "_inter_cache", "_levels",
                 "_total", "_holds", "_spanner")

    def __init__(self, mats: Sequence[Mat], rate: int):
        if not mats:
            raise ValueError("need at least one matrix")
        field = mats[0].field
        kept: List[Mat] = []
        first: Dict[Subspace, int] = {}   # each distinct span, by its index in `kept`
        source_map: List[int] = []
        for m in mats:
            if m.field != field:
                raise ValueError("mixed fields")
            if m.rows != rate:
                raise ValueError(f"matrix has {m.rows} rows, rate is {rate}")
            if not (0 < m.cols < rate):
                raise ValueError("sub-rate matrices need 0 < cols < rate")
            span = Subspace.span_of(m)
            if span.dim != m.cols:
                raise ValueError("matrix columns are dependent")
            source_map.append(first.setdefault(span, len(kept)))
            if source_map[-1] == len(kept):
                kept.append(m)
        self.field = field
        self.rate = rate
        self.mats = tuple(kept)
        self.spans = tuple(first)
        self.source_map = tuple(source_map)
        # the nonzero intersections by member bit mask, listed by `levels`
        self._inter_cache: Dict[int, Subspace] = {}
        self._levels: Optional[Tuple[int, ...]] = None
        self._total: Optional[Subspace] = None
        self._holds: Dict[Vec, Vec] = {}
        self._spanner: Optional[Tuple[Vec, ...]] = None

    @property
    def k(self) -> int:
        return len(self.mats)

    def h(self, i: int) -> int:
        return self.mats[i].cols

    def levels(self) -> Tuple[int, ...]:
        """comss_1..comss_k.  The bracket of a member set S, the signed sum
        of dim(intersection of T) over the supersets T of S, is the superset
        Moebius transform of the intersection dimensions by bit mask;
        comss_c sums the c-member brackets, each clamped at 0.

        A zero intersection and its supersets add 0, so the transform runs
        on the nonzero family alone (Bjorklund, Husfeldt, Kaski and
        Koivisto, "Trimmed Moebius inversion", STACS 2008).  A DFS lists
        it, extending T by each i > max T and stopping at a zero
        intersection; the family is downward closed, so it reaches all of
        it.  Listing T intersects it with each later member, k - 1 - max T
        intersections, counted before they are computed: the members' k(k-1)/2
        at the start, each larger T as it is reached.  A count past
        SEARCH_BUDGET raises SearchSpaceTooLarge, so no more than that many
        are computed."""
        if self._levels is None:
            k, spans, family, budget = self.k, self.spans, self._inter_cache, SEARCH_BUDGET
            made = k * (k - 1) // 2
            stack = [(1 << i, i, spans[i]) for i in range(k)]
            while stack:
                mask, top, S = stack.pop()
                family[mask] = S
                if mask & (mask - 1):
                    made += k - 1 - top
                if made > budget:
                    raise SearchSpaceTooLarge(f"commonality levels need more than {budget} "
                                              f"member intersections")
                for i in range(top + 1, k):
                    T = subspace_intersect(S, spans[i])
                    if T.dim:
                        stack.append((mask | 1 << i, i, T))
            f = {m: S.dim for m, S in family.items()}
            for bit in (1 << i for i in range(k)):
                for m in family:
                    if m & bit and m != bit:
                        f[m ^ bit] -= f[m]
            levels = [0] * k
            for m in family:
                levels[m.bit_count() - 1] += max(f[m], 0)
            self._levels = tuple(levels)
        return self._levels

    def total_span(self) -> Subspace:
        """The sum of the member spans, as one reduction of their bases."""
        if self._total is None:
            self._total = Subspace.from_columns(self.field, self.rate,
                                                [v for s in self.spans for v in s.basis])
        return self._total

    def holds(self, v: Sequence[int]) -> Vec:
        """Per member, 1 if its span contains v, else 0; tested once per vector."""
        key = tuple(x % self.field.p for x in v)
        got = self._holds.get(key)
        if got is None:
            got = self._holds[key] = tuple(int(s.contains(key)) for s in self.spans)
        return got

    def minimal_spanner(self) -> Tuple[Vec, ...]:
        """`minimal_exact_spanner` of the members, searched once and kept.  A
        search that runs past its budget keeps nothing, so the next call
        searches again under the budget then in force."""
        if self._spanner is None:
            self._spanner = tuple(minimal_exact_spanner(self))
        return self._spanner


def comd(v: Sequence[int], gems: GemSet) -> int:
    """Number of member spans containing v."""
    if not any(x % gems.field.p for x in v):
        raise ValueError("commonality degree is undefined for the zero vector")
    return sum(gems.holds(v))


def is_exact_spanner(V: Sequence[Sequence[int]], gems: GemSet) -> bool:
    """For every member matrix, some h_i vectors of V span its column space.

    Since any h_i vectors spanning an h_i-dimensional space must all lie
    inside it, the exhaustive subset search reduces to a rank test on the
    vectors of V that each span contains.
    """
    rows = [gems.holds(v) for v in V]
    for i in range(gems.k):
        inside = [tuple(v) for v, row in zip(V, rows) if row[i]]
        if rank_of_vectors(gems.field, inside) != gems.h(i):
            return False
    return True


# Work that one search may do, read at each call: the nodes of the
# exact-spanner search (summed over its depths) and of the block-design
# search in `blockcode`, and the intersections that `GemSet.levels`
# computes.  A node of the long spanner searches (p=3, r=5 or 6) costs about
# 15 us on a 2-vCPU x86_64 VM, so such a search gives up after about 3 s.
# An intersection costs 13 to 57 us there: 632 lines of GF(5)^10 make
# 199 396 in 2.6 s, and 25 members each spanned by part of one basis of
# GF(5)^10 make 166 353 in 9.4 s; 2000 lines are refused at once.
SEARCH_BUDGET = 200_000
# Member lines that one spanner search may list before its first node.  A
# line takes about 1 us and 260 bytes to list on that VM, so the listing
# stays under 0.1 s and 15 MB; four 3-dimensional members at p=31 list 3972.
LINE_BUDGET = 50_000


def comss_c(gems: GemSet, c: int) -> int:
    """Level-c commonality: the clamped brackets of the c-member sets, summed."""
    if not 1 <= c <= gems.k:
        raise ValueError(f"need 1 <= c <= {gems.k}")
    return gems.levels()[c - 1]


def compol(gems: GemSet, i_bar: Sequence[int]) -> int:
    if len(i_bar) != gems.k:
        raise ValueError("i_bar length must equal the number of members")
    return sum((c + 1) * n for c, n in enumerate(i_bar))


def fsrd_check(gems: GemSet) -> Optional[Tuple[int, ...]]:
    """The greatest feasible degree profile, compared from level k down, or None.

    Feasible means compol(i_bar) >= sum of member dimensions and
    sum(i_bar) <= dim of the total span.  Filling each level from c = k
    down with as much as fits gives that profile: it also has the largest
    compol, as a vector of degree c outweighs any of lower degree."""
    caps = gems.levels()
    room = gems.total_span().dim
    i_bar = [0] * gems.k
    for c in reversed(range(gems.k)):
        i_bar[c] = min(caps[c], room)
        room -= i_bar[c]
    return tuple(i_bar) if compol(gems, i_bar) >= sum(gems.h(i) for i in range(gems.k)) else None


def comss_exhaustive(gems: GemSet) -> int:
    """Exact minimum exact-spanner size by iterative-deepening search."""
    return len(minimal_exact_spanner(gems))


def minimal_exact_spanner(gems: GemSet) -> List[Vec]:
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
    every node.  One more line raises the rank of each deficient member
    it lies in by at most 1, and the deficient members only dwindle; so
    clearing the deficit takes at least as many distinct lines as the
    fewest whose degrees among the deficient members add up to it, and a
    node is cut when that many would overrun the depth.  Deepening starts
    at the larger of dim(total span) and that count for all members.  Both
    cuts drop only subtrees without a solution at that depth, so the first
    spanner found, and its order, is that of the plain search.

    A search whose members hold more than LINE_BUDGET lines, or that
    visits more than SEARCH_BUDGET nodes summed over its depths, raises
    SearchSpaceTooLarge.  The node count bounds the work past the listing:
    of the lines a node scans, fewer than one in p lie in the span the
    member already has, and each other line opens a counted node.
    """
    p = gems.field.p
    targets = [gems.h(i) for i in range(gems.k)]
    listed = sum((p ** h - 1) // (p - 1) for h in targets)
    if listed > LINE_BUDGET:
        raise SearchSpaceTooLarge(f"exact spanner search would list {listed} member lines, "
                                  f"more than {LINE_BUDGET}")
    lines = [subspace_lines(s) for s in gems.spans]
    inside: Dict[Vec, List[int]] = {}
    for i, member_lines in enumerate(lines):
        for v in member_lines:
            inside.setdefault(v, []).append(i)
    # how many lines lie in exactly the members of each bit mask
    held = Counter(sum(1 << i for i in members) for members in inside.values())
    degrees: Dict[int, List[Tuple[int, int]]] = {}
    need = sum(targets)
    stacks: List[List[Tuple[int, List[int]]]] = [[] for _ in targets]
    V: List[Vec] = []
    nodes, budget = 0, SEARCH_BUDGET

    def cover(short: int, deficit: int) -> int:
        """The fewest distinct lines whose degrees, the number of members
        of the bit mask `short` each lies in, add up to `deficit`."""
        counts = degrees.get(short)
        if counts is None:
            by_degree: Counter = Counter()
            for mask, n in held.items():
                by_degree[(mask & short).bit_count()] += n
            counts = degrees[short] = sorted(by_degree.items(), reverse=True)
        m = 0
        for d, n in counts:
            if deficit <= 0 or not d:
                break
            take = min(n, -(-deficit // d))
            m += take
            deficit -= take * d
        return m

    def dfs(deficit: int, depth: int, seen: set) -> Optional[List[Vec]]:
        nonlocal nodes
        if not deficit:
            return list(V)
        nodes += 1
        if nodes > budget:
            raise SearchSpaceTooLarge(f"exact spanner search stopped after {budget} nodes")
        short = sum(1 << j for j, rows in enumerate(stacks) if len(rows) < targets[j])
        if len(V) + cover(short, deficit) > depth:
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

    lower = cover((1 << gems.k) - 1, need)
    for depth in range(max(gems.total_span().dim, lower), need + 1):
        found = dfs(need, depth, set())
        if found is not None:
            return found
    raise ContractViolation("unreachable: the union of member bases is an exact spanner")


def build_spanner(gems: GemSet, i_bar: Sequence[int]) -> Tuple[Vec, ...]:
    """Collect i_bar[c] independent vectors of commonality degree c, walking
    c downward, the nonzero c-member intersections in complement-ascending
    order and the lines of each in sorted order.  A zero intersection has
    no lines, so skipping it changes nothing.

    The chosen vectors V are kept as echelon rows.  A line that is in
    span(V) is never taken, so the walk of an intersection starts at the
    last basis vector b_j outside span(V): every line of a later leading
    index lies in span(b_{j+1}, ...) and inside span(V).  The walk stops
    once V spans the whole intersection, and skips it if V already does.
    """
    k = gems.k
    if len(i_bar) != k:
        raise ValueError("i_bar length must equal the number of members")
    caps = gems.levels()
    for c in range(1, k + 1):
        if i_bar[c - 1] > caps[c - 1]:
            raise ValueError(f"i_bar[{c}]={i_bar[c - 1]} exceeds level size {caps[c - 1]}")
    family = gems._inter_cache   # every nonzero intersection, once `levels` has run
    p = gems.field.p
    V: List[Vec] = []
    rows: List[Tuple[int, List[int]]] = []
    for c in range(k, 0, -1):
        need = i_bar[c - 1]
        if need == 0:
            continue
        got = 0
        level = sorted((m for m in family if m.bit_count() == c),
                       key=lambda m: [i for i in range(k) if not m >> i & 1])
        for m in level:
            inter = family[m]
            basis = inter.basis
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
    return tuple(V)
