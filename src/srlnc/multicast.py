"""Linear multicast construction, per-sink encoding matrices, simulation.

The construction walks edges in topological order along precomputed
edge-disjoint path families and picks, for every coded edge, local
coefficients that keep every designated sink's frontier matrix at full
rank.  Sub-rate sinks participate with target rank h_t.  Each sink keeps
the inverse of its frontier completed to a basis, so a candidate is
tested with one product per sink rather than a rank computation (Jaggi
et al., "Polynomial time algorithms for multicast network code
construction", IEEE Trans. IT 51(6), 2005).  A built code is consistent
by construction; `simulate` alone applies local kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .linalg import Mat, _reduce, invert, row_times
from .netgraph import Network, max_flow, max_flow_value

Node = Hashable
Vec = Tuple[int, ...]


class FieldTooSmall(ValueError):
    """The field cannot support a multicast for this many sinks."""


class RateExceedsSourceDegree(ValueError):
    """More message symbols per use than outgoing source links."""


class CodeInvalidForSink(ValueError):
    """A sink does not receive enough independent symbol combinations."""


@dataclass(frozen=True)
class LinearCode:
    rate: int
    gek: Dict[int, Vec]          # edge id -> length-r column
    lek: Dict[Node, Mat]         # node -> |In| x |Out| coefficients


@dataclass(frozen=True)
class Gem:
    matrix: Mat                  # r x min(h_t, r)
    used_edges: Tuple[int, ...]
    h: int                       # max-flow to the sink


def _unit(r: int, j: int) -> Vec:
    return tuple(1 if i == j else 0 for i in range(r))


def _shuffled_vectors(rng: random.Random, p: int, k: int) -> Iterator[Vec]:
    """All p^k vectors of GF(p)^k, k >= 1, each once, in a seeded order.

    Index i of the walk is (a*i + b) mod p^k written in base p, with a
    prime to p, so the map is a bijection and the first vector (index b)
    is uniform.  Vectors are made one at a time: O(k) memory.
    """
    n = p ** k
    a = p * rng.randrange(n // p) + rng.randrange(1, p)
    b = rng.randrange(n)
    for i in range(n):
        x = (a * i + b) % n
        digits = []
        for _ in range(k):
            x, d = divmod(x, p)
            digits.append(d)
        yield tuple(digits)


def build_multicast(net: Network, sinks: Sequence[Node], seed: int = 0) -> LinearCode:
    """Greedy deterministic multicast over the designated sinks.

    Requires |F| > number of designated sinks with max-flow >= rate.  For
    every coded edge, the local coefficient vectors over its predecessor
    edges are walked in an order drawn from the seed (`_shuffled_vectors`),
    and the first one that keeps every user sink's frontier at full rank
    is taken.  The candidates that break one sink path form a proper
    subspace, so the first, uniform candidate fails with probability at
    most |users|/p and the walk almost always stops there.  The walk is
    complete, so FieldTooSmall means no candidate exists.  Results are
    reproducible for a fixed (net, sinks, seed).

    Each distinct sink t keeps Q_t, the inverse of an r x r basis whose
    first n_t = min(h_t, r) columns are t's frontier kernels in path order
    and whose other columns complete it; Q_t starts as the identity.  The
    coordinates a = Q_t f_e of a candidate show whether f_e lies in the
    span of the frontier without column i: it does exactly when a_i and
    every completion coordinate a_j, j >= n_t, are 0.  So the test "a_i or
    some a_j is nonzero" gives the rank test's verdict, at O(r) per
    full-rate user, and the walk takes the same candidate.  Taking f_e,
    Q_t pivots on i, or on the first such j and then swaps rows i and j,
    so that the old column i joins the completion.  Each f_e is the
    combination of in-edge kernels that column e of its tail's `lek`
    names, and 0 on an edge no sink path uses, so the code is consistent
    by construction and is not re-checked.
    """
    field = net.field
    p = field.p
    r = net.rate
    if r > len(net.out_edges[net.source]):
        raise RateExceedsSourceDegree(f"rate {r} > source out-degree {len(net.out_edges[net.source])}")
    flows = {t: max_flow(net, t) for t in dict.fromkeys(sinks)}
    eligible = [t for t in sinks if flows[t].value >= r]
    if p <= len(eligible):
        raise FieldTooSmall(f"|F|={p} but {len(eligible)} sinks need rate {r}")

    # per distinct sink: min(h_t, r) paths, each prefixed with a distinct imaginary link
    paths = {t: [[-(i + 1)] + list(pth) for i, pth in enumerate(flow.paths[:min(flow.value, r)])]
             for t, flow in flows.items()}

    gek: Dict[int, Vec] = {-(j + 1): _unit(r, j) for j in range(r)}
    coeffs: Dict[int, Dict[int, int]] = {}  # edge -> {pred edge -> coefficient}
    on_edge: Dict[int, List[Tuple[Node, int, int]]] = {}
    for t, t_paths in paths.items():  # each distinct sink once
        for i, pth in enumerate(t_paths):
            for pos, e in enumerate(pth):
                if e >= 0:
                    on_edge.setdefault(e, []).append((t, i, pos))
    # per sink: the inverse of [frontier kernels | completion], rows as lists
    inv: Dict[Node, List[List[int]]] = {t: [list(_unit(r, j)) for j in range(r)] for t in paths}

    rng = random.Random(seed)
    for e in [e for n in net.order for e in net.out_edges[n]]:
        users = on_edge.get(e)
        if not users:
            gek[e] = (0,) * r
            coeffs[e] = {}
            continue
        preds = sorted({paths[t][i][pos - 1] for (t, i, pos) in users})
        rows = list(zip(*[gek[d] for d in preds]))
        for cand in _shuffled_vectors(rng, p, len(preds)):
            f_e = tuple(sum(map(mul, cand, row)) % p for row in rows)
            if all(sum(map(mul, inv[t][i], f_e)) % p
                   or any(sum(map(mul, q, f_e)) % p for q in inv[t][len(paths[t]):])
                   for (t, i, _) in users):
                break
        else:
            raise FieldTooSmall(f"no valid coefficients for edge {e} over GF({p})")
        gek[e] = f_e
        coeffs[e] = dict(zip(preds, cand))
        for (t, i, _) in users:
            q = inv[t]
            a = [sum(map(mul, row, f_e)) % p for row in q]
            # f_e replaces basis column j: i, or else a completion column
            j = i if a[i] else next(j for j in range(len(paths[t]), r) if a[j])
            c = pow(a[j], p - 2, p)
            q[j] = [x * c % p for x in q[j]]
            for k, ak in enumerate(a):
                if ak and k != j:
                    q[k] = [(x - ak * y) % p for x, y in zip(q[k], q[j])]
            q[i], q[j] = q[j], q[i]

    lek: Dict[Node, Mat] = {}
    for x in net.nodes:
        ins, outs = net.in_edges[x], net.out_edges[x]
        # coefficients are digits from `_shuffled_vectors`, already in [0, p)
        k = tuple(tuple(coeffs.get(e, {}).get(d, 0) for e in outs) for d in ins)
        lek[x] = Mat._of(field, k, len(outs))

    return LinearCode(rate=r, gek=gek, lek=lek)


def extract_gem(code: LinearCode, net: Network, t: Node) -> Gem:
    """Decoding matrix of sink t: min(h_t, r) independent incoming columns.

    Scans incoming edges by ascending id and keeps each one that raises
    the rank, so the choice is deterministic.
    """
    r = code.rate
    p = net.field.p
    h = max_flow_value(net, t)
    target = min(h, r)
    chosen: List[int] = []
    rows: List[Tuple[int, List[int]]] = []
    for e in net.in_edges[t]:
        if len(chosen) == target:
            break
        row = _reduce([x % p for x in code.gek[e]], rows, p)
        if row is not None:
            chosen.append(e)
            rows.append(row)
    if len(chosen) < target:
        raise CodeInvalidForSink(f"sink {t}: {len(chosen)} independent inputs, need {target}")
    return Gem(matrix=Mat.from_cols(net.field, [code.gek[e] for e in chosen], nrows=r),
               used_edges=tuple(chosen), h=h)


def simulate(net: Network, code: LinearCode, X: Sequence[Sequence[int]]) -> Dict[int, Vec]:
    """Send a batch of network inputs, one row of r symbols per use.

    Returns each edge's symbols as a tuple with one entry per row of X: the
    imaginary links -1..-r first, then the real edges in topological order.
    When the code's kernels are consistent, as `build_multicast` builds
    them and the CLI's `load_code` checks, entry m of edge e is X[m] times f_e.
    """
    p = net.field.p
    r = code.rate
    if any(len(x) != r for x in X):
        raise ValueError("message length != rate")
    sym: Dict[int, Vec] = {-(j + 1): tuple(x[j] % p for x in X) for j in range(r)}
    zero = (0,) * len(X)
    for node in net.order:
        outs = net.out_edges[node]
        # one row of input symbols per message
        ys = list(zip(*[sym[d] for d in net.in_edges[node]]))
        k = code.lek[node].data
        # a node without inputs has no rows, so zip(*k) would give no columns
        for col, e in zip(zip(*k) if k else [()] * len(outs), outs):
            sym[e] = tuple(sum(map(mul, col, y)) % p for y in ys) if any(col) else zero
    return sym


def decode_full_rate(gem: Gem, P: Optional[Mat], received: Sequence[int]) -> Vec:
    """Invert P @ B_t on the received row; exact for full-rate sinks."""
    B = gem.matrix
    if B.rows != B.cols:
        raise ValueError("gem is not square")
    PB = (P @ B) if P is not None else B
    return row_times(received, invert(PB))
