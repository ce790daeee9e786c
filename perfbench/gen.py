"""Seeded, standard-library-only input generators for the benchmark.

Every generator takes a `random.Random` and returns plain JSON-ready
objects in the CLI's own file formats, so the program under test only ever
sees generated files.  Network generators also return each sink's max-flow,
computed here, because the output checks need h_t = min(max-flow, r) to
rebuild the sink's encoding matrix independently.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Sequence, Tuple

from gf import rank, unit

Edge = Tuple[int, int]


def max_flow_value(n_nodes: int, edges: Sequence[Edge], s: int, t: int) -> int:
    """Edge-disjoint s->t path count by unit-capacity augmenting paths."""
    cap: Dict[Tuple[int, int], int] = {}
    adj: List[set] = [set() for _ in range(n_nodes)]
    for a, b in edges:
        cap[(a, b)] = cap.get((a, b), 0) + 1
        cap.setdefault((b, a), 0)
        adj[a].add(b)
        adj[b].add(a)
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def _network(p: int, r: int, n_nodes: int, edges: List[Edge], sinks: List[int],
             weak: List[int]) -> Tuple[dict, Dict[int, int]]:
    flows = {t: max_flow_value(n_nodes, edges, 0, t) for t in sinks + weak}
    for t in sinks:
        if flows[t] < r:
            raise RuntimeError(f"generator bug: full-rate sink {t} has flow {flows[t]}")
    for t in weak:
        if not 0 < flows[t] < r:
            raise RuntimeError(f"generator bug: weak sink {t} has flow {flows[t]}")
    net = {"field": p, "rate": r, "nodes": list(range(n_nodes)),
           "edges": [list(e) for e in edges], "source": 0,
           "sinks": sinks, "subrate_sinks": weak}
    return net, flows


def generalized_butterfly(p: int, r: int, n_weak: int) -> Tuple[dict, Dict[int, int]]:
    """r relays a_i feed a bottleneck B->C; sink s_j hears C and every a_i
    except a_j; weak sink w_k hears C and relay a_(k mod r).

    Construction cost is dominated by the bottleneck edge B->C, which has r
    predecessor edges on sink paths, so `build_multicast` tries from a list
    of p^r candidate coefficient vectors there.
    """
    relays = list(range(1, r + 1))
    b, c = r + 1, r + 2
    sinks = list(range(r + 3, 2 * r + 3))
    weak = list(range(2 * r + 3, 2 * r + 3 + n_weak))
    edges: List[Edge] = [(0, a) for a in relays]
    edges += [(a, b) for a in relays]
    edges.append((b, c))
    for j, s in enumerate(sinks):
        edges.append((c, s))
        edges += [(a, s) for i, a in enumerate(relays) if i != j]
    for k, w in enumerate(weak):
        edges += [(c, w), (relays[k % r], w)]
    return _network(p, r, 2 * r + 3 + n_weak, edges, sinks, weak)


def layered_dag(rng: random.Random, p: int, r: int, width: int, layers: int,
                indeg: int, n_sinks: int, weak_indeg: Sequence[int]
                ) -> Tuple[dict, Dict[int, int]]:
    """Source, `layers` layers of `width` relays, then sinks.

    Relay j < r of each layer continues a spine from the source, so every
    last-layer spine end is reachable by r edge-disjoint paths in total.
    Every relay has exactly `indeg` in-edges (its spine edge plus distinct
    random parents from the layer above), which fixes the edge count for a
    given shape.  Each full-rate sink hears all r spine ends plus one random
    last-layer relay; weak sink i hears `weak_indeg[i]` distinct random
    relays, redrawn until its max-flow is exactly that many and below r.
    """
    if width < r or indeg > width:
        raise ValueError("need r <= width and indeg <= width")
    node = 1
    prev = [0] * width
    edges: List[Edge] = []
    grid: List[List[int]] = []
    for li in range(layers):
        cur = list(range(node, node + width))
        node += width
        for j, v in enumerate(cur):
            if li == 0:
                parents = [0] * indeg
            else:
                first = [prev[j]] if j < r else []
                rest = [u for u in prev if u not in first]
                parents = first + rng.sample(rest, indeg - len(first))
            edges += [(u, v) for u in parents]
        grid.append(cur)
        prev = cur
    last = grid[-1]
    sinks = []
    for _ in range(n_sinks):
        t = node
        node += 1
        extra = rng.choice(last[r:]) if width > r else last[0]
        edges += [(u, t) for u in last[:r] + [extra]]
        sinks.append(t)
    weak = []
    relays = [v for row in grid[1:] for v in row]
    for h in weak_indeg:
        if not 0 < h < r:
            raise ValueError("weak sinks need 0 < in-degree < r")
        t = node
        node += 1
        while True:
            feed = rng.sample(relays, h)
            if max_flow_value(node, edges + [(u, t) for u in feed], 0, t) == h:
                break
        edges += [(u, t) for u in feed]
        weak.append(t)
    return _network(p, r, node, edges, sinks, weak)


def _random_independent(rng: random.Random, p: int, r: int, n: int) -> List[Tuple[int, ...]]:
    cols: List[Tuple[int, ...]] = []
    while len(cols) < n:
        v = tuple(rng.randrange(p) for _ in range(r))
        if rank(p, cols + [v]) > len(cols):
            cols.append(v)
    return cols


def _gems_obj(p: int, r: int, members: Sequence[Sequence[Tuple[int, ...]]]) -> dict:
    """A `precode --gems` fixture; member columns become matrix columns."""
    mats = [[[col[i] for col in cols] for i in range(r)] for cols in members]
    return {"p": p, "rate": r, "mats": mats}


def coordinate_hyperplanes(p: int, r: int, omit: Sequence[int]) -> dict:
    """Members are the coordinate hyperplanes of F^r omitting e_i, i in `omit`.

    Always fully decodable; the pairwise intersection has dimension r-2 and
    `build_spanner` enumerates all p^(r-2) of its vectors, which makes
    these the slow members of the `gem-precode` mix.
    """
    members = [[unit(r, j) for j in range(r) if j != i] for i in omit]
    return _gems_obj(p, r, members)


def feasible_gemset(rng: random.Random, p: int, r: int, k: int) -> dict:
    """k members, each the span of a distinct random proper subset of one
    random basis of F^r, presented in a random basis of that span.

    The shared basis is an exact spanner of r vectors, so every set is fully
    decodable by construction.
    """
    basis = _random_independent(rng, p, r, r)
    subsets: List[Tuple[int, ...]] = []
    while len(subsets) < k:
        size = rng.randint(1, r - 1)
        sub = tuple(sorted(rng.sample(range(r), size)))
        if sub not in subsets:
            subsets.append(sub)
    members = []
    for sub in subsets:
        mix = _random_independent(rng, p, len(sub), len(sub))
        members.append([tuple(sum(m[a] * basis[j][i] for a, j in enumerate(sub)) % p
                              for i in range(r)) for m in mix])
    return _gems_obj(p, r, members)


def random_gemset(rng: random.Random, p: int, r: int, k: int) -> dict:
    """k members of random dimension 1..r-1 with uniformly random columns.

    Mostly not fully decodable, which sends `precode --block` to the block
    fallback; member spans may coincide, and the program deduplicates them.
    """
    members = [_random_independent(rng, p, r, rng.randint(1, r - 1)) for _ in range(k)]
    return _gems_obj(p, r, members)
