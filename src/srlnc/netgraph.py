"""Acyclic single-source multigraph networks and unit-capacity max-flow."""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import Dict, Hashable, List, NamedTuple, Sequence, Tuple

from .fields import FieldSpec

Node = Hashable


class CycleDetected(ValueError):
    """The edge set admits no topological order."""


class Network:
    """Directed acyclic multigraph with one source and unit-capacity edges.

    Real edges get ids 0..len(edges)-1 (their position in the edge list).
    The r imaginary links from the implicit upstream source carry the
    reserved ids -1..-r and are the only edges into `source`.  Every
    `in_edges`/`out_edges` list is in ascending id order, so the imaginary
    links come as -r..-1.  `order` is the topological order of the nodes,
    computed once here: a cyclic edge set raises `CycleDetected`.  The
    messages of the checks that a network file can reach (`cli.load_network`
    checks node names and sinks itself) start with the name of the argument
    at fault.
    """

    __slots__ = ("nodes", "edges", "source", "sinks", "rate", "field",
                 "in_edges", "out_edges", "order")

    def __init__(self, nodes: Sequence[Node], edges: Sequence[Tuple[Node, Node]],
                 source: Node, sinks: Sequence[Node], rate: int, field: FieldSpec):
        nodes = tuple(nodes)
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise ValueError("duplicate node ids")
        edges = tuple((t, h) for t, h in edges)
        if not node_set.issuperset(chain.from_iterable(edges)):
            bad = next(e for e in edges if not node_set.issuperset(e))
            raise ValueError(f"edges: edge endpoint not a node: {bad}")
        if source not in node_set:
            raise ValueError("source: source is not a node")
        for s in sinks:
            if s not in node_set:
                raise ValueError(f"sink is not a node: {s}")
        if rate < 1:
            raise ValueError("rate: rate must be >= 1")
        if any(h == source for _, h in edges):
            raise ValueError("edges: source must have no incoming real edges")
        self.nodes = nodes
        self.edges = edges
        self.source = source
        self.sinks = tuple(sinks)
        self.rate = rate
        self.field = field
        self.in_edges: Dict[Node, List[int]] = {n: [] for n in nodes}
        self.out_edges: Dict[Node, List[int]] = {n: [] for n in nodes}
        for e, (t, h) in enumerate(edges):
            self.out_edges[t].append(e)
            self.in_edges[h].append(e)
        self.in_edges[source] = list(range(-rate, 0))
        self.order: Tuple[Node, ...] = tuple(topo_order(self))


def topo_order(net: Network) -> List[Node]:
    """Kahn's algorithm over real edges; ties broken by node-list position.
    `out` doubles as the queue; the nodes that one node frees join it sorted."""
    heads = [h for _, h in net.edges]
    indeg = dict(Counter(heads))     # a plain dict indexes faster in the loop
    order_index = {n: i for i, n in enumerate(net.nodes)}
    out: List[Node] = [n for n in net.nodes if n not in indeg]
    for n in out:
        freed = []
        for e in net.out_edges[n]:
            h = heads[e]
            indeg[h] -= 1
            if not indeg[h]:
                freed.append(h)
        out.extend(sorted(freed, key=order_index.__getitem__) if len(freed) > 1 else freed)
    if len(out) != len(net.nodes):
        raise CycleDetected("edges: graph has a directed cycle")
    return out


class FlowResult(NamedTuple):
    value: int
    paths: Tuple[Tuple[int, ...], ...]


def max_flow(net: Network, t: Node) -> FlowResult:
    """Maximum number of edge-disjoint source->t paths, with the paths.

    Shortest augmenting paths over the unit-capacity residual graph; edge
    ids are scanned in ascending order so the result is deterministic.
    The search stops once the flow fills the source's out-edges or t's
    in-edges, as no cut is smaller than either.
    """
    if t == net.source:
        raise ValueError("sink must differ from the source")
    if t not in net.in_edges:
        raise ValueError(f"unknown node: {t}")
    tails = [tl for tl, _ in net.edges]
    heads = [h for _, h in net.edges]
    flow = [0] * len(net.edges)
    value = 0
    full = min(len(net.out_edges[net.source]), len(net.in_edges[t]))
    while value < full:
        # BFS for a shortest residual path
        parent: Dict[Node, Tuple[int, bool]] = {}  # node -> (edge, used forward)
        seen = {net.source}
        queue = deque([net.source])
        found = False
        while queue and not found:
            u = queue.popleft()
            for e in net.out_edges[u]:
                h = heads[e]
                if flow[e] == 0 and h not in seen:
                    seen.add(h)
                    parent[h] = (e, True)
                    if h == t:
                        found = True
                        break
                    queue.append(h)
            if found:
                break
            for e in net.in_edges[u]:
                if e < 0:
                    continue
                tl = tails[e]
                if flow[e] == 1 and tl not in seen:
                    seen.add(tl)
                    parent[tl] = (e, False)
                    queue.append(tl)
        if not found:
            break
        value += 1
        n = t
        while n != net.source:
            e, fwd = parent[n]
            if fwd:
                flow[e] = 1
                n = tails[e]
            else:
                flow[e] = 0
                n = heads[e]
    # decompose the flow into edge-disjoint paths
    used = [False] * len(net.edges)
    paths: List[Tuple[int, ...]] = []
    while True:
        path: List[int] = []
        n = net.source
        while n != t:
            nxt = None
            for e in net.out_edges[n]:
                if flow[e] == 1 and not used[e]:
                    nxt = e
                    break
            if nxt is None:
                break
            used[nxt] = True
            path.append(nxt)
            n = heads[nxt]
        if n == t and path:
            paths.append(tuple(path))
        else:
            break
    return FlowResult(value=len(paths), paths=tuple(paths))


def max_flow_value(net: Network, t: Node) -> int:
    """`max_flow(net, t).value`, without building the paths.

    Each augmenting path is searched depth-first back from t through the
    unit-capacity residual graph, in O(V + E): from v to the tail of an
    unused edge into v, or to the head of a used edge out of v, which
    cancels that edge's flow.  A path usually reaches the source in about
    as many steps as the network is deep.  The search stops at the same
    bound as `max_flow`.
    """
    if t == net.source:
        raise ValueError("sink must differ from the source")
    if t not in net.in_edges:
        raise ValueError(f"unknown node: {t}")
    source, edges, in_edges, out_edges = net.source, net.edges, net.in_edges, net.out_edges
    used = [False] * len(edges)
    value = 0
    full = min(len(out_edges[source]), len(in_edges[t]))
    while value < full:
        seen = {t}
        path: List[int] = []    # the edge each stacked node but t was reached by
        stack = [(iter(in_edges[t]), iter(out_edges[t]))]
        while stack:
            ins, outs = stack[-1]
            for e in ins:
                if not used[e] and edges[e][0] not in seen:
                    u = edges[e][0]
                    break
            else:
                for e in outs:
                    if used[e] and edges[e][1] not in seen:
                        u = edges[e][1]
                        break
                else:
                    stack.pop()
                    if path:
                        path.pop()
                    continue
            seen.add(u)
            path.append(e)
            if u == source:
                break
            stack.append((iter(in_edges[u]), iter(out_edges[u])))
        else:
            break
        value += 1
        for e in path:
            used[e] = not used[e]
    return value
