"""Shared fixtures and independent brute-force oracles.

The oracles deliberately use the dumbest correct method available
(path packing by exhaustion, literal subset search, a third-party
linear algebra stack) so they cannot share bugs with the library.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from sympy.polys.domains import GF as _sympy_GF
from sympy.polys.matrices import DomainMatrix

from srlnc import FieldSpec, GemSet, Mat, Network, cli, lift_block, max_flow, row_times, simulate
from srlnc.linalg import ContractViolation, Subspace, rank_of_vectors, subspace_intersect

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)

Vec = Tuple[int, ...]

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks() -> List[str]:
    """The README's ```python code blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


# ---------------------------------------------------------------- networks

def butterfly(field: FieldSpec = GF3, weak_sink: bool = False) -> Network:
    """The rate-2 butterfly; optionally with node 8 hanging off the hub.

    Node 8 has max-flow 1, below the rate, which is the whole point of it.
    """
    nodes = [1, 2, 3, 4, 5, 6, 7]
    edges = [(1, 2), (1, 3), (2, 4), (2, 6), (3, 4), (3, 7), (4, 5), (5, 6), (5, 7)]
    sinks = [6, 7]
    if weak_sink:
        nodes.append(8)
        edges.append((5, 8))
        sinks.append(8)
    return Network(nodes=nodes, edges=edges, source=1, sinks=sinks, rate=2, field=field)


def generalized_butterfly(field: FieldSpec, r: int, n_weak: int = 0) -> Network:
    """r relays a_i feed a bottleneck B->C; sink s_j hears C and every a_i
    except a_j; weak sink w_k hears C and relay a_(k mod r).

    The same family as the benchmark's generator.  The bottleneck edge has
    r predecessor edges on sink paths, so a construction that lists every
    candidate there pays p^r.  `net.sinks` holds the r full-rate sinks
    first, then the weak ones (max-flow 2).
    """
    relays = list(range(1, r + 1))
    b, c = r + 1, r + 2
    sinks = list(range(r + 3, 2 * r + 3))
    weak = list(range(2 * r + 3, 2 * r + 3 + n_weak))
    edges = [(0, a) for a in relays] + [(a, b) for a in relays] + [(b, c)]
    for j, s in enumerate(sinks):
        edges.append((c, s))
        edges += [(a, s) for i, a in enumerate(relays) if i != j]
    for k, w in enumerate(weak):
        edges += [(c, w), (relays[k % r], w)]
    return Network(nodes=list(range(2 * r + 3 + n_weak)), edges=edges, source=0,
                   sinks=sinks + weak, rate=r, field=field)


def classic_butterfly_code(net: Network):
    """The XOR relay code over GF(2): node 4 adds its two inputs.

    Written out by hand, kernel by kernel, so construction code is not
    in the loop.  Works for both butterfly variants.
    """
    from srlnc.multicast import LinearCode

    f = net.field
    weak = len(net.edges) == 10
    gek: Dict[int, Vec] = {
        -2: (0, 1), -1: (1, 0),
        0: (1, 0), 1: (0, 1), 2: (1, 0), 3: (1, 0),
        4: (0, 1), 5: (0, 1), 6: (1, 1), 7: (1, 1), 8: (1, 1),
    }
    lek = {
        1: Mat(f, [[0, 1], [1, 0]]),        # ins -2,-1 / outs 0,1
        2: Mat(f, [[1, 1]]),                # in 0 / outs 2,3
        3: Mat(f, [[1, 1]]),                # in 1 / outs 4,5
        4: Mat(f, [[1], [1]]),              # ins 2,4 / out 6: the XOR
        5: Mat(f, [[1, 1, 1]] if weak else [[1, 1]]),
        6: Mat(f, [[], []], cols=0),
        7: Mat(f, [[], []], cols=0),
    }
    if weak:
        gek[9] = (1, 1)
        lek[8] = Mat(f, [[]], cols=0)
    return LinearCode(rate=2, gek=gek, lek=lek)


def diamond(field: FieldSpec = GF3) -> Network:
    """Source, two parallel middles, one sink; rate 2, max-flow 2."""
    return Network(nodes=[0, 1, 2, 3], edges=[(0, 1), (0, 2), (1, 3), (2, 3)],
                   source=0, sinks=[3], rate=2, field=field)


# ---------------------------------------------------------------- gem sets

def mat_cols(field: FieldSpec, *cols: Sequence[int]) -> Mat:
    return Mat.from_cols(field, list(cols))


def zeros(field: FieldSpec, nrows: int, ncols: int) -> Mat:
    return Mat(field, [[0] * ncols for _ in range(nrows)], cols=ncols)


def assert_checked_form(m: Mat) -> None:
    """m is what the checked constructor `Mat(...)` makes of its rows:
    tuple rows of m.cols entries, each in [0, p), as every result that
    `Mat._of` builds without checking must be."""
    assert m == Mat(m.field, m.data, cols=m.cols)
    assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
    assert m.rows == len(m.data) and all(len(row) == m.cols for row in m.data)
    assert all(type(x) is int and 0 <= x < m.field.p for row in m.data for x in row)


def gems_three_planes() -> GemSet:
    """Three planes in GF(3)^3 whose pairwise intersections are three
    distinct lines that together span the space; fully decodable."""
    b1 = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    b2 = mat_cols(GF3, (1, 0, 0), (0, 1, 1))
    b3 = mat_cols(GF3, (1, 1, 0), (1, 0, 1))
    return GemSet([b1, b2, b3], rate=3)


def gems_shared_axis() -> GemSet:
    """Three planes in GF(3)^3 all containing e3; not fully decodable."""
    b1 = mat_cols(GF3, (1, 0, 0), (0, 0, 1))
    b2 = mat_cols(GF3, (0, 1, 0), (0, 0, 1))
    b3 = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    return GemSet([b1, b2, b3], rate=3)


def gems_four_planes() -> GemSet:
    """Four planes in GF(3)^3, pairwise intersections of dimension 1,
    triple-wise 0; the smallest impossible plane family."""
    b1 = mat_cols(GF3, (1, 0, 0), (0, 1, 0))
    b2 = mat_cols(GF3, (0, 1, 0), (0, 0, 1))
    b3 = mat_cols(GF3, (1, 0, 0), (0, 0, 1))
    b4 = mat_cols(GF3, (1, 1, 0), (0, 1, 1))
    return GemSet([b1, b2, b3, b4], rate=3)


# GF(2), rate 4: fsrd_check passes and build_spanner fails; the minimal
# exact spanner has 4 vectors, no more than the rate, but spans only 3
# dimensions, so it is dependent and no single-use precoder exists
DEPENDENT_SPANNER_MATS = ([[0], [1], [0], [1]], [[0, 0], [1, 1], [0, 0], [1, 0]],
                          [[0], [1], [0], [0]], [[0], [0], [0], [1]],
                          [[0, 1], [1, 0], [0, 1], [1, 1]])


def gems_hyperplanes(field: FieldSpec, r: int, l: int) -> GemSet:
    """l coordinate hyperplanes of F^r: member i omits e_i."""
    mats = []
    for i in range(l):
        cols = [tuple(1 if a == j else 0 for a in range(r)) for j in range(r) if j != i]
        mats.append(Mat.from_cols(field, cols))
    return GemSet(mats, rate=r)


def random_gemset(rng, field: FieldSpec, r: int, k_max: int) -> GemSet:
    mats = []
    for _ in range(rng.randint(1, k_max)):
        h = rng.randint(1, r - 1)
        cols: List[Vec] = []
        while len(cols) < h:
            v = tuple(rng.randrange(field.p) for _ in range(r))
            if rank_of_vectors(field, cols + [v]) > len(cols):
                cols.append(v)
        mats.append(Mat.from_cols(field, cols))
    return GemSet(mats, rate=r)


def feasible_gemset(rng, field: FieldSpec, r: int, k_max: int) -> GemSet:
    """Members spanned by distinct proper subsets of one random basis of
    F^r, each given in a random basis of its span; the shared basis is an
    exact spanner of r vectors, so the set is fully decodable."""
    basis: List[Vec] = []
    while len(basis) < r:
        v = tuple(rng.randrange(field.p) for _ in range(r))
        if rank_of_vectors(field, basis + [v]) > len(basis):
            basis.append(v)
    subsets = {tuple(sorted(rng.sample(range(r), rng.randint(1, r - 1))))
               for _ in range(rng.randint(1, k_max))}
    mats = []
    for sub in sorted(subsets):
        cols: List[Vec] = []
        while len(cols) < len(sub):
            mix = [rng.randrange(field.p) for _ in sub]
            v = tuple(sum(m * basis[j][i] for m, j in zip(mix, sub)) % field.p
                      for i in range(r))
            if rank_of_vectors(field, cols + [v]) > len(cols):
                cols.append(v)
        mats.append(Mat.from_cols(field, cols))
    return GemSet(mats, rate=r)


# ---------------------------------------------------------------- table of profiles

def profile_rows() -> List[dict]:
    """Concrete instances of the catalogued intersection profiles.

    Each row pins: the expected dimension of every member-subset
    intersection, the comss_c values, the dimension totals, and the
    feasibility outcome.  `i_bar` None means infeasible.
    """
    e = lambda r, j: tuple(1 if a == j else 0 for a in range(r))
    rows: List[dict] = []

    rows.append(dict(
        name="one vector",
        gems=GemSet([mat_cols(GF3, (1, 0))], rate=2),
        inter={(0,): 1},
        comss=(1,), sum_h=1, dim_sum=1, i_bar=(1,),
    ))
    rows.append(dict(
        name="two independent vectors",
        gems=GemSet([mat_cols(GF3, e(2, 0)), mat_cols(GF3, e(2, 1))], rate=2),
        inter={(0,): 1, (1,): 1, (0, 1): 0},
        comss=(2, 0), sum_h=2, dim_sum=2, i_bar=(2, 0),
    ))
    rows.append(dict(
        name="three dependent vectors",
        gems=GemSet([mat_cols(GF3, e(2, 0)), mat_cols(GF3, e(2, 1)),
                     mat_cols(GF3, (1, 1))], rate=2),
        inter={(0, 1): 0, (0, 2): 0, (1, 2): 0},
        comss=(3, 0, 0), sum_h=3, dim_sum=2, i_bar=None,
    ))
    rows.append(dict(
        name="two planes sharing a line",
        gems=GemSet([mat_cols(GF3, e(3, 0), e(3, 1)), mat_cols(GF3, e(3, 1), e(3, 2))], rate=3),
        inter={(0, 1): 1},
        comss=(2, 1), sum_h=4, dim_sum=3, i_bar=(2, 1),
    ))
    rows.append(dict(
        name="two planes and a line, r=4",
        gems=GemSet([mat_cols(GF3, e(4, 0), e(4, 1)), mat_cols(GF3, e(4, 1), e(4, 2)),
                     mat_cols(GF3, e(4, 3))], rate=4),
        inter={(0, 1): 1, (0, 2): 0, (1, 2): 0},
        comss=(3, 1, 0), sum_h=5, dim_sum=4, i_bar=(3, 1, 0),
    ))
    rows.append(dict(
        name="two planes and a line, r=3",
        gems=GemSet([mat_cols(GF3, e(3, 0), e(3, 1)), mat_cols(GF3, e(3, 1), e(3, 2)),
                     mat_cols(GF3, (1, 1, 1))], rate=3),
        inter={(0, 1): 1, (0, 2): 0, (1, 2): 0},
        comss=(3, 1, 0), sum_h=5, dim_sum=3, i_bar=None,
    ))
    rows.append(dict(
        name="four planes, r=3",
        gems=gems_four_planes(),
        inter={(i, j): 1 for i, j in itertools.combinations(range(4), 2)}
        | {c: 0 for c in itertools.combinations(range(4), 3)},
        comss=(0, 6, 0, 0), sum_h=8, dim_sum=3, i_bar=None,
    ))
    rows.append(dict(
        name="three solids sharing a line, r=4",
        gems=GemSet([mat_cols(GF3, e(4, 0), e(4, 1), e(4, 3)),
                     mat_cols(GF3, e(4, 1), e(4, 2), e(4, 3)),
                     mat_cols(GF3, e(4, 0), e(4, 2), e(4, 3))], rate=4),
        inter={(0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 1, 2): 1},
        comss=(0, 3, 1), sum_h=9, dim_sum=4, i_bar=(0, 3, 1),
    ))
    w_plus = lambda r, extra: [e(r, 2), e(r, 3), extra]
    rows.append(dict(
        name="three solids sharing a plane, r=4",
        gems=GemSet([mat_cols(GF3, *w_plus(4, e(4, 0))),
                     mat_cols(GF3, *w_plus(4, e(4, 1))),
                     mat_cols(GF3, *w_plus(4, (1, 1, 0, 0)))], rate=4),
        inter={(0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 1, 2): 2},
        comss=(3, 0, 2), sum_h=9, dim_sum=4, i_bar=None,
    ))
    rows.append(dict(
        name="three solids sharing a plane, r=5",
        gems=GemSet([mat_cols(GF3, *w_plus(5, e(5, 0))),
                     mat_cols(GF3, *w_plus(5, e(5, 1))),
                     mat_cols(GF3, e(5, 2), e(5, 3), e(5, 4))], rate=5),
        inter={(0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 1, 2): 2},
        comss=(3, 0, 2), sum_h=9, dim_sum=5, i_bar=(3, 0, 2),
    ))
    hyper4 = gems_hyperplanes(GF3, 4, 4)
    rows.append(dict(
        name="four solids, empty total intersection",
        gems=hyper4,
        inter={c: 4 - len(c) for s in range(2, 5) for c in itertools.combinations(range(4), s)},
        comss=(0, 0, 4, 0), sum_h=12, dim_sum=4, i_bar=(0, 0, 4, 0),
    ))
    cone = lambda plane: [e(4, 0)] + [(0,) + tuple(v) for v in plane]
    planes3 = [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 0, 1)],
               [(1, 0, 0), (0, 0, 1)], [(1, 1, 0), (0, 1, 1)]]
    rows.append(dict(
        name="four solids sharing a line",
        gems=GemSet([mat_cols(GF3, *cone(pl)) for pl in planes3], rate=4),
        inter={c: (2 if len(c) == 2 else 1) for s in range(2, 5)
               for c in itertools.combinations(range(4), s)},
        # the catalogue prints 4 at level 2; the inclusion-exclusion
        # count over this profile gives 6, and infeasibility holds either way
        comss=(0, 6, 0, 1), sum_h=12, dim_sum=4, i_bar=None,
    ))
    rows.append(dict(
        name="five hyperplanes, r=5",
        gems=gems_hyperplanes(GF2, 5, 5),
        inter={c: 5 - len(c) for s in range(2, 6) for c in itertools.combinations(range(5), s)},
        comss=(0, 0, 0, 5, 0), sum_h=20, dim_sum=5, i_bar=(0, 0, 0, 5, 0),
    ))
    return rows


# ---------------------------------------------------------------- oracles

def brute_max_flow(net: Network, t) -> int:
    """Maximum edge-disjoint path count by exhausting path subsets."""
    paths: List[Tuple[int, ...]] = []

    def walk(n, seen, acc):
        if n == t:
            paths.append(tuple(acc))
            return
        for e_ in net.out_edges[n]:
            h = net.edges[e_][1]
            if h in seen:
                continue
            acc.append(e_)
            walk(h, seen | {h}, acc)
            acc.pop()

    walk(net.source, {net.source}, [])
    best = 0

    def pack(i, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(paths) - i) <= best:
            return
        for j in range(i, len(paths)):
            pe = set(paths[j])
            if pe & used:
                continue
            pack(j + 1, used | pe, count + 1)

    pack(0, set(), 0)
    return best


def brute_is_exact_spanner(V: Sequence[Vec], gems: GemSet) -> bool:
    """The literal definition: each member span must be exactly spanned
    by some h_i-subset of V."""
    for i in range(gems.k):
        h = gems.h(i)
        found = any(
            Subspace.from_columns(gems.field, gems.rate, list(sub)) == gems.spans[i]
            for sub in itertools.combinations(V, h)
        )
        if not found:
            return False
    return True


def brute_min_spanner_size(gems: GemSet) -> int:
    """Smallest exact spanner by exhausting subsets of the total span's
    projective lines, smallest size first.  Tiny inputs only."""
    from srlnc.subrate import subspace_lines

    cand = subspace_lines(gems.total_span())
    lo = gems.total_span().dim
    hi = sum(gems.h(i) for i in range(gems.k))
    for size in range(lo, hi + 1):
        for sub in itertools.combinations(cand, size):
            if brute_is_exact_spanner(sub, gems):
                return size
    raise AssertionError("the union of member bases always spans exactly")


def reference_minimal_exact_spanner(gems: GemSet,
                                    max_nodes: Optional[int] = None) -> Optional[List[Vec]]:
    """The plain iterative-deepening search that `minimal_exact_spanner`
    must reproduce list for list: from dim(total span) up, a DFS branches
    on the sorted lines of the first deficient member that raise its rank,
    recomputing every membership and rank from scratch at every node, with
    a per-depth memo of failed sets.

    Its cost is exponential (over a minute on some r=4, p=5 sets), so
    `max_nodes` caps the nodes it visits, summed over all depths; past
    the cap it returns None.
    """
    from srlnc.subrate import subspace_lines

    field = gems.field
    lines = [subspace_lines(s) for s in gems.spans]
    targets = [gems.h(i) for i in range(gems.k)]
    nodes = 0

    class OutOfNodes(Exception):
        pass

    def deficiency(V: List[Vec]) -> Optional[int]:
        for i, span in enumerate(gems.spans):
            inside = [v for v in V if span.contains(v)]
            if rank_of_vectors(field, inside) < targets[i]:
                return i
        return None

    for depth in range(gems.total_span().dim, sum(targets) + 1):
        seen: set = set()

        def dfs(V: List[Vec]) -> Optional[List[Vec]]:
            nonlocal nodes
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise OutOfNodes
            i = deficiency(V)
            if i is None:
                return list(V)
            if len(V) >= depth:
                return None
            key = frozenset(V)
            if key in seen:
                return None
            seen.add(key)
            span = gems.spans[i]
            inside = [v for v in V if span.contains(v)]
            base = rank_of_vectors(field, inside)
            for v in lines[i]:
                if v in V:
                    continue
                if rank_of_vectors(field, inside + [v]) > base:
                    V.append(v)
                    got = dfs(V)
                    V.pop()
                    if got is not None:
                        return got
            return None

        try:
            found = dfs([])
        except OutOfNodes:
            return None
        if found is not None:
            return found
    raise AssertionError("the union of member bases always spans exactly")


def reference_intersection(gems: GemSet, idxs) -> Subspace:
    """The member spans of `idxs` folded by `subspace_intersect` in
    ascending order, with no cache; a zero fold stays zero."""
    first, *rest = sorted(idxs)
    S = gems.spans[first]
    for i in rest:
        if not S.dim:
            break
        S = subspace_intersect(S, gems.spans[i])
    return S


def reference_comss_c(gems: GemSet, c: int) -> int:
    """Inclusion-exclusion count of level-c commonality, one clamped bracket
    per (k-c)-subset of dropped members: 3^k - 2^k signed intersection
    dimensions over the k levels."""
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
                term += sign * reference_intersection(gems, comp | frozenset(J)).dim
        total += max(term, 0)
    return total


def reference_fsrd_check(gems: GemSet) -> Optional[Tuple[int, ...]]:
    """First feasible degree profile, searched with high-commonality mass
    first over all prod(comss_c + 1) profiles.

    Feasible means compol(i_bar) >= sum of member dimensions and
    sum(i_bar) <= dim of the total span.
    """
    from srlnc.subrate import compol

    k = gems.k
    caps = [reference_comss_c(gems, c) for c in range(1, k + 1)]
    need = sum(gems.h(i) for i in range(k))
    limit = gems.total_span().dim
    ranges = [range(caps[c], -1, -1) for c in range(k - 1, -1, -1)]
    for rev in itertools.product(*ranges):
        i_bar = tuple(reversed(rev))
        if compol(gems, i_bar) >= need and sum(i_bar) <= limit:
            return i_bar
    return None


def projective_rep(field: FieldSpec, v: Sequence[int]) -> Vec:
    """Scale so the first nonzero coordinate is 1."""
    p = field.p
    w = tuple(x % p for x in v)
    for x in w:
        if x:
            f = pow(x, p - 2, p)
            return tuple((f * y) % p for y in w)
    raise ValueError("zero vector has no projective representative")


def reference_subspace_lines(S: Subspace) -> List[Vec]:
    """Every vector of S listed, scaled to its projective representative,
    deduplicated and sorted."""
    return sorted({projective_rep(S.field, v) for v in S.vectors()})


def reference_complete_basis(V: Subspace) -> List[Vec]:
    """The standard basis vectors that `complete_basis` must return: scanned
    in index order, each kept when it raises the rank of V's basis and the
    vectors kept so far."""
    n = V.ambient_dim
    chosen = list(V.basis)
    added = []
    r = len(chosen)
    for i in range(n):
        if r == n:
            break
        e = tuple(1 if j == i else 0 for j in range(n))
        if rank_of_vectors(V.field, chosen + [e]) > r:
            chosen.append(e)
            added.append(e)
            r += 1
    return added


def reference_gem_edges(code, net: Network, t) -> Tuple[int, ...]:
    """The incoming edges of t that `extract_gem` must keep: scanned by
    ascending id, each kept when it raises the rank of the kernels kept so
    far, up to min(max-flow, rate) of them.  Fewer means the sink is
    deficient."""
    target = min(max_flow(net, t).value, code.rate)
    chosen: List[int] = []
    vecs: List[Vec] = []
    for e in net.in_edges[t]:
        if len(chosen) == target:
            break
        v = code.gek[e]
        if rank_of_vectors(net.field, vecs + [v]) > len(vecs):
            chosen.append(e)
            vecs.append(v)
    return tuple(chosen)


def reference_build_spanner(gems: GemSet, i_bar: Sequence[int]) -> List[Vec]:
    """The guideline construction that `build_spanner` must reproduce: for
    c from k down, walk the c-member intersections in complement-ascending
    order and all of their sorted lines, taking a line of degree c that
    raises the rank of the vectors taken so far.  Raises
    ConstructionFailed as `build_spanner` does."""
    from srlnc.subrate import ConstructionFailed, comd, is_exact_spanner

    k = gems.k
    V: List[Vec] = []
    for c in range(k, 0, -1):
        need = i_bar[c - 1]
        if need == 0:
            continue
        got = 0
        for removed in itertools.combinations(range(k), k - c):
            comp = frozenset(i for i in range(k) if i not in removed)
            for v in reference_subspace_lines(reference_intersection(gems, comp)):
                if got == need:
                    break
                if comd(v, gems) != c or v in V:
                    continue
                if rank_of_vectors(gems.field, V + [v]) == len(V):
                    continue
                V.append(v)
                got += 1
            if got == need:
                break
        if got < need:
            raise ConstructionFailed(f"could not collect {need} degree-{c} vectors")
    if not is_exact_spanner(V, gems):
        raise ConstructionFailed("collected vectors do not form an exact spanner")
    return V


def reference_optimize_block_plan(gems: GemSet, l_max: int, max_designs: int = 200_000):
    """The design search that `optimize_block_plan` must reproduce: score
    every multiset of independent spanner subsets, l ascending, keeping
    the first strictly best.  Past `max_designs` scored designs it raises
    SearchSpaceTooLarge."""
    from fractions import Fraction

    from srlnc.subrate import SearchSpaceTooLarge, minimal_exact_spanner
    from srlnc.blockcode import BlockDesign, build_block_plan

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


def reference_sink_block_plan(field: FieldSpec, V: Sequence[Vec],
                              blocks: Sequence[Tuple[int, ...]], P_hat: Mat, B: Mat,
                              l: int, span: Subspace):
    """One sink's block decoders built densely: D_hat from per-block
    solutions padded with zero columns, R_hat from l*r-long unit columns,
    and the whole contract checked as P_hat @ lift(B) @ D_hat = R_hat on
    the lifted l*r matrices.  `blockcode` works one block at a time and
    must give the same result."""
    from fractions import Fraction

    from srlnc import lift_block
    from srlnc.linalg import solve_columns
    from srlnc.blockcode import BlockSinkPlan, _block_diag

    r = B.rows
    h = B.cols
    holds = {j: span.contains(V[j]) for j in set().union(*blocks)}
    d_blocks: List[Mat] = []
    r_cols: List[Vec] = []
    decoded: List[int] = []
    for bi, blk in enumerate(blocks):
        members = [(pos, V[j]) for pos, j in enumerate(blk) if holds[j]]
        if members:
            targets = Mat.from_cols(field, [v for _, v in members], nrows=r)
            D_part = solve_columns(B, targets)
        else:
            D_part = zeros(field, h, 0)
        pad = (0,) * (h - len(members))
        d_blocks.append(Mat(field, [row + pad for row in D_part.data], cols=h))
        decoded.extend(bi * r + pos for pos, _ in members)
        r_cols.extend(tuple(int(x == bi * r + pos) for x in range(l * r)) for pos, _ in members)
        r_cols.extend([(0,) * (l * r)] * (h - len(members)))
    D_hat = _block_diag(field, d_blocks)
    R_hat = Mat.from_cols(field, r_cols, nrows=l * r)
    if P_hat @ lift_block(B, l) @ D_hat != R_hat:
        raise ContractViolation("block decoding contract violated")
    return BlockSinkPlan(D_hat=D_hat, R_hat=R_hat, decoded_indices=tuple(decoded),
                         rate=Fraction(len(decoded), l))


def reference_simulate(net: Network, code, v: Sequence[int]) -> Dict[int, int]:
    """One message through the network, one symbol per edge: the former
    single-message `simulate` body, without its precoder argument."""
    p = net.field.p
    r = code.rate
    if len(v) != r:
        raise ValueError("message length != rate")
    v = tuple(x % p for x in v)
    sym: Dict[int, int] = {-(j + 1): v[j] for j in range(r)}
    for node in net.order:
        ins = net.in_edges[node]
        k = code.lek[node]
        for jc, e in enumerate(net.out_edges[node]):
            sym[e] = sum(k.data[ji][jc] * sym[d] for ji, d in enumerate(ins)) % p
    return sym


def reference_simulate_failures(net: Network, code, l: int, P_hat: Mat, gems: Dict,
                                decoders: Dict, trials: int, seed: int) -> Dict:
    """The former `cli.cmd_simulate` trial loop, with the signature of
    `cli._count_failures`: every message goes through every edge, 256 per
    `simulate` batch, and each sink checks y @ D_hat = x_hat @ R_hat on the
    symbols y it received.  Besides the weak sinks of `decoders`, it decodes
    every full-rate sink of `gems`, one whose B_t has r columns, over the
    whole block: D_hat = (P_hat @ lift(B_t))^-1, inverted by sympy, and
    R_hat = I."""
    CHUNK = 256
    field = net.field
    r = net.rate
    eye = Mat.identity(field, l * r)
    decoders = {**{t: (sympy_invert(P_hat @ lift_block(g.matrix, l)), eye)
                   for t, g in gems.items() if g.matrix.cols == r}, **decoders}
    failures = {t: 0 for t in decoders}
    rng = random.Random(seed)
    for start in range(0, trials, CHUNK):
        x_hats = [tuple(rng.randrange(field.p) for _ in range(l * r))
                  for _ in range(min(CHUNK, trials - start))]
        xs = [row_times(x_hat, P_hat) for x_hat in x_hats]
        uses = [simulate(net, code, [x[bi * r:(bi + 1) * r] for x in xs]) for bi in range(l)]
        for t, (D_hat, R_hat) in decoders.items():
            for m, x_hat in enumerate(x_hats):
                y = [sym[e][m] for sym in uses for e in gems[t].used_edges]
                if row_times(y, D_hat) != row_times(x_hat, R_hat):
                    failures[t] += 1
    return failures


def reference_check_consistent(net: Network, code) -> None:
    """The former local kernel check: unit kernels on the imaginary links,
    then every node's local kernel applied to its inputs' global kernels."""
    p = net.field.p
    r = code.rate
    for j in range(r):
        if code.gek[-(j + 1)] != tuple(1 if i == j else 0 for i in range(r)):
            raise ContractViolation(f"encoding kernels inconsistent at edge {-(j + 1)}")
    for x in net.nodes:
        ins, outs = net.in_edges[x], net.out_edges[x]
        k = code.lek[x]
        for jc, e in enumerate(outs):
            want = tuple(
                sum(k.data[ji][jc] * code.gek[d][row] for ji, d in enumerate(ins)) % p
                for row in range(r)
            )
            if code.gek[e] != want:
                raise ContractViolation(f"encoding kernels inconsistent at edge {e}")


def sympy_dm(A: Mat) -> DomainMatrix:
    dom = _sympy_GF(A.field.p)
    return DomainMatrix([[dom(x) for x in row] for row in A.data], (A.rows, A.cols), dom)


def sympy_rank(A: Mat) -> int:
    return sympy_dm(A).rank()


def sympy_matmul(A: Mat, B: Mat) -> Mat:
    p = A.field.p
    prod = (sympy_dm(A) * sympy_dm(B)).to_list()
    return Mat(A.field, [[int(x) % p for x in row] for row in prod], cols=B.cols)


def sympy_invert(A: Mat) -> Mat:
    p = A.field.p
    inv = sympy_dm(A).inv().to_list()
    return Mat(A.field, [[int(x) % p for x in row] for row in inv])


# ---------------------------------------------------------------- input files

def _integer(path: str, field: str, value) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not cast."""
    if type(value) is not int:
        raise ValueError(f"{path}: {field} must be an integer, got {json.dumps(value)}")
    return value


def _node(path: str, field: str, value):
    """A node id: a JSON integer or string; a boolean, float, list or object is rejected."""
    if type(value) not in (int, str):
        raise ValueError(f"{path}: {field}: node ids must be integers or strings, "
                         f"got {json.dumps(value)}")
    return value


def _object(path: str, field: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {field} must be a JSON object")
    return value


def reference_check(path: str, field, value, kind):
    """`cli._check` as the loaders' type helpers did it, one entry at a
    time: each list is tested as a list, then each of its entries in
    order, and the first that fails raises.  Returns the leaves in order,
    a leaf kind's value itself; `field` names `value`, or is an iterable
    naming each entry of the list `value`."""
    if type(kind) is not list:
        check = {cli._INT: _integer, cli._NODE: _node, cli._OBJECT: _object}.get(kind)
        return value if check is None else check(path, field, value)
    if not isinstance(value, list):
        raise ValueError(f"{path}: {field} must be a list, got {json.dumps(value)}")
    names = itertools.repeat(field) if isinstance(field, str) else field
    leaves = []
    for name, x in zip(names, value):
        got = reference_check(path, name, x, kind[0])
        if type(kind[0]) is list:
            leaves.extend(got)
        else:
            leaves.append(got)
    return leaves
