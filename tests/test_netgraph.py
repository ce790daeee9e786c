import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import Network, max_flow
from srlnc.netgraph import CycleDetected, topo_order

from helpers import GF2, GF3, brute_max_flow, butterfly, diamond


def test_network_validation():
    with pytest.raises(ValueError):
        Network(nodes=[1, 1], edges=[], source=1, sinks=[], rate=1, field=GF3)
    with pytest.raises(ValueError):
        Network(nodes=[1, 2], edges=[(1, 3)], source=1, sinks=[], rate=1, field=GF3)
    with pytest.raises(ValueError):
        Network(nodes=[1, 2], edges=[], source=3, sinks=[], rate=1, field=GF3)
    with pytest.raises(ValueError):
        Network(nodes=[1, 2], edges=[], source=1, sinks=[9], rate=1, field=GF3)
    with pytest.raises(ValueError):
        Network(nodes=[1, 2], edges=[(1, 2)], source=1, sinks=[2], rate=0, field=GF3)
    with pytest.raises(ValueError):
        Network(nodes=[1, 2], edges=[(2, 1)], source=1, sinks=[], rate=1, field=GF3)


def test_imaginary_links():
    net = butterfly()
    assert net.in_edges[1] == [-2, -1]
    assert net.tail(0) == 1 and net.head(0) == 2


def test_topo_order_butterfly():
    assert topo_order(butterfly()) == [1, 2, 3, 4, 5, 6, 7]
    order = topo_order(butterfly(weak_sink=True))
    pos = {n: i for i, n in enumerate(order)}
    assert order[0] == 1
    for t, h in butterfly(weak_sink=True).edges:
        assert pos[t] < pos[h]


def test_network_rejects_cycle():
    with pytest.raises(CycleDetected):
        Network(nodes=[0, 1, 2], edges=[(0, 1), (1, 2), (2, 1)],
                source=0, sinks=[2], rate=1, field=GF3)


def test_max_flow_butterfly():
    net = butterfly(weak_sink=True)
    assert max_flow(net, 6).value == 2
    assert max_flow(net, 7).value == 2
    assert max_flow(net, 8).value == 1
    assert max_flow(diamond(), 3).value == 2


def test_max_flow_paths_are_valid_and_disjoint():
    net = butterfly(weak_sink=True)
    for t in (6, 7, 8):
        res = max_flow(net, t)
        seen = set()
        for path in res.paths:
            assert net.tail(path[0]) == net.source
            assert net.head(path[-1]) == t
            for a, b in zip(path, path[1:]):
                assert net.head(a) == net.tail(b)
            assert not (set(path) & seen)
            seen |= set(path)


def test_max_flow_parallel_edges():
    net = Network(nodes=[0, 1], edges=[(0, 1)] * 3, source=0, sinks=[1],
                  rate=1, field=GF3)
    res = max_flow(net, 1)
    assert res.value == 3
    assert sorted(p[0] for p in res.paths) == [0, 1, 2]


def test_max_flow_unreachable_sink():
    net = Network(nodes=[0, 1, 2], edges=[(0, 1)], source=0, sinks=[2],
                  rate=1, field=GF3)
    res = max_flow(net, 2)
    assert res.value == 0 and res.paths == ()


def test_max_flow_argument_errors():
    net = butterfly()
    with pytest.raises(ValueError):
        max_flow(net, 1)
    with pytest.raises(ValueError):
        max_flow(net, 99)


def test_max_flow_invariant_under_edge_order():
    base = butterfly(weak_sink=True)
    reordered = Network(nodes=base.nodes, edges=list(reversed(base.edges)),
                        source=1, sinks=[6, 7, 8], rate=2, field=GF3)
    for t in (6, 7, 8):
        assert max_flow(reordered, t).value == max_flow(base, t).value


@st.composite
def small_dags(draw):
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=0, max_size=8))
    return Network(nodes=list(range(n)), edges=edges, source=0, sinks=[n - 1],
                   rate=1, field=GF2)


@given(small_dags(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_order_and_edge_lists_are_what_walkers_rely_on(dag, rnd):
    nodes = list(dag.nodes)
    rnd.shuffle(nodes)
    net = Network(nodes=nodes, edges=dag.edges, source=0, sinks=dag.sinks, rate=2, field=GF2)
    assert sorted(net.order) == sorted(nodes)
    pos = {n: i for i, n in enumerate(net.order)}
    assert all(pos[t] < pos[h] for t, h in net.edges)
    for lists in (net.in_edges, net.out_edges):
        assert all(es == sorted(es) for es in lists.values())
    assert net.in_edges[0] == [-2, -1]


@given(small_dags())
@settings(max_examples=150, deadline=None)
def test_max_flow_matches_brute_force(net):
    t = net.nodes[-1]
    res = max_flow(net, t)
    assert res.value == brute_max_flow(net, t)
    assert res.value == len(res.paths)
