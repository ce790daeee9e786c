import functools
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import (
    FieldSpec,
    Mat,
    Network,
    build_multicast,
    decode_full_rate,
    extract_gem,
    rank,
    row_times,
    simulate,
)
from srlnc.linalg import ContractViolation
from srlnc.multicast import (
    CodeInvalidForSink,
    FieldTooSmall,
    LinearCode,
    RateExceedsSourceDegree,
    _shuffled_vectors,
)
from srlnc.cli import _check_consistent
from srlnc.netgraph import max_flow_value

from helpers import (
    GF2,
    GF3,
    GF5,
    butterfly,
    classic_butterfly_code,
    generalized_butterfly,
    reference_check_consistent,
    reference_simulate,
)


def recheck_consistency(net, code):
    """Recompute every global kernel from the local ones, independently of
    the library: `build_multicast` does not check its own codes, and the
    CLI's kernel check runs only on codes loaded from a file."""
    p = net.field.p
    for x in net.nodes:
        ins = sorted(net.in_edges[x])
        outs = sorted(net.out_edges[x])
        k = code.lek[x]
        assert (k.rows, k.cols) == (len(ins), len(outs))
        for jc, e in enumerate(outs):
            want = tuple(
                sum(k.data[ji][jc] * code.gek[d][row] for ji, d in enumerate(ins)) % p
                for row in range(code.rate)
            )
            assert code.gek[e] == want


def test_build_butterfly_over_gf3():
    net = butterfly()
    code = build_multicast(net, [6, 7])
    recheck_consistency(net, code)
    assert code.gek[-2] == (0, 1) and code.gek[-1] == (1, 0)
    for t in (6, 7):
        gem = extract_gem(code, net, t)
        assert rank(gem.matrix) == 2
        assert all(e in net.in_edges[t] for e in gem.used_edges)


def test_built_code_round_trips():
    net = butterfly()
    code = build_multicast(net, [6, 7])
    gems = {t: extract_gem(code, net, t) for t in (6, 7)}
    rng = random.Random(7)
    for _ in range(100):
        v = tuple(rng.randrange(3) for _ in range(2))
        sym = simulate(net, code, [v])
        for t in (6, 7):
            y = tuple(sym[e][0] for e in gems[t].used_edges)
            assert decode_full_rate(gems[t], None, y) == v


def test_construction_is_deterministic():
    net = butterfly()
    a = build_multicast(net, [6, 7], seed=0)
    b = build_multicast(net, [6, 7], seed=0)
    assert a.gek == b.gek and a.lek == b.lek
    c = build_multicast(net, [6, 7], seed=1)
    recheck_consistency(net, c)


def test_butterfly_over_gf2_builds_or_reports_small_field():
    try:
        code = build_multicast(butterfly(GF2), [6, 7])
    except FieldTooSmall:
        return
    for t in (6, 7):
        assert rank(extract_gem(code, butterfly(GF2), t).matrix) == 2


def test_weak_sink_joins_with_its_own_target_rank():
    net = butterfly(weak_sink=True)
    code = build_multicast(net, [6, 7, 8])
    recheck_consistency(net, code)
    assert rank(extract_gem(code, net, 6).matrix) == 2
    assert rank(extract_gem(code, net, 7).matrix) == 2
    weak = extract_gem(code, net, 8)
    assert weak.matrix.cols == 1
    assert weak.matrix.col(0) != (0, 0)


def test_field_bound_counts_only_full_rate_sinks():
    # two full-rate sinks exhaust GF(2); the weak sink must not count
    with pytest.raises(FieldTooSmall):
        build_multicast(butterfly(GF2, weak_sink=True), [6, 7, 8])
    build_multicast(butterfly(GF3, weak_sink=True), [6, 7, 8])


def test_single_sink_over_gf2():
    net = butterfly(GF2)
    code = build_multicast(net, [6])
    gem = extract_gem(code, net, 6)
    for v in [(0, 1), (1, 0), (1, 1)]:
        sym = simulate(net, code, [v])
        y = tuple(sym[e][0] for e in gem.used_edges)
        assert decode_full_rate(gem, None, y) == v


def test_rate_above_source_degree_rejected():
    net = Network(nodes=[1, 2, 3], edges=[(1, 2), (2, 3)], source=1,
                  sinks=[3], rate=2, field=GF3)
    with pytest.raises(RateExceedsSourceDegree):
        build_multicast(net, [3])


def test_rate_one_path_graph():
    net = Network(nodes=[0, 1, 2], edges=[(0, 1), (1, 2)], source=0,
                  sinks=[2], rate=1, field=GF2)
    code = build_multicast(net, [2])
    gem = extract_gem(code, net, 2)
    sym = simulate(net, code, [(1,)])
    assert decode_full_rate(gem, None, (sym[gem.used_edges[0]][0],)) == (1,)


@pytest.mark.parametrize("seed", range(5))
def test_any_seed_yields_a_valid_code(seed):
    net = butterfly(GF5, weak_sink=True)
    code = build_multicast(net, [6, 7, 8], seed=seed)
    recheck_consistency(net, code)
    for t in (6, 7):
        assert rank(extract_gem(code, net, t).matrix) == 2
    assert extract_gem(code, net, 8).matrix.cols == 1


@st.composite
def coded_dags(draw):
    """`test_netgraph.small_dags` over GF(2), GF(3), GF(5) or GF(7) at rate
    1-4, each drawn pair repeated one to three times so that max-flows
    reach the rate, with a drawn set of sinks: those whose max-flow is
    below the rate are weak, the others full-rate."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(1, 4))
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=10)):
        edges += [pair] * draw(st.integers(1, 3))
    sinks = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True))
    return Network(nodes=list(range(n)), edges=edges, source=0, sinks=sinks, rate=r,
                   field=FieldSpec(p))


@given(coded_dags(), st.integers())
@settings(max_examples=300, deadline=None)
def test_a_built_code_passes_the_local_reference_check(net, seed):
    try:
        code = build_multicast(net, list(net.sinks), seed=seed)
    except (FieldTooSmall, RateExceedsSourceDegree):
        return
    reference_check_consistent(net, code)
    for t in net.sinks:
        assert rank(extract_gem(code, net, t).matrix) == min(max_flow_value(net, t), net.rate)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers())
@settings(max_examples=100, deadline=None)
def test_candidate_walk_is_complete_and_seeded(p, k, seed):
    walk = list(_shuffled_vectors(random.Random(seed), p, k))
    assert len(walk) == p ** k
    assert set(walk) == set(itertools.product(range(p), repeat=k))
    assert list(_shuffled_vectors(random.Random(seed), p, k)) == walk


def test_candidate_walk_is_lazy():
    # 101^6 is about 10^12 vectors: only a lazy walk can answer at once
    t0 = time.perf_counter()
    first = next(_shuffled_vectors(random.Random(0), 101, 6))
    assert time.perf_counter() - t0 < 0.5
    assert len(first) == 6 and all(0 <= x < 101 for x in first)


@pytest.mark.parametrize("p, r", [(31, 4), (101, 3)])
def test_bottleneck_coefficients_cost_no_exponential_search(p, r):
    # listing all p^r candidates at the bottleneck peaked at about 70 MiB
    # and, traced like this, took about 6 s for each case
    net = generalized_butterfly(FieldSpec(p), r, n_weak=1)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = build_multicast(net, list(net.sinks))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    recheck_consistency(net, code)
    for t in net.sinks[:r]:
        assert rank(extract_gem(code, net, t).matrix) == r
    assert elapsed < 2.0
    assert peak < 1 << 20


# ------------------------------------------------- the hand-written code

def test_hand_code_gem_columns():
    net = butterfly(GF2, weak_sink=True)
    code = classic_butterfly_code(net)
    recheck_consistency(net, code)
    gem6 = extract_gem(code, net, 6)
    assert gem6.used_edges == (3, 7)
    assert gem6.matrix.columns() == [(1, 0), (1, 1)]
    gem7 = extract_gem(code, net, 7)
    assert gem7.used_edges == (5, 8)
    assert gem7.matrix.columns() == [(0, 1), (1, 1)]
    weak = extract_gem(code, net, 8)
    assert weak.matrix.columns() == [(1, 1)]  # the sum, useless alone


def test_hand_code_simulation():
    net = butterfly(GF2, weak_sink=True)
    code = classic_butterfly_code(net)
    gems = {t: extract_gem(code, net, t) for t in (6, 7)}
    for a in (0, 1):
        for b in (0, 1):
            sym = simulate(net, code, [(a, b)])
            assert sym[6][0] == (a + b) % 2  # the coded middle edge
            assert sym[9][0] == (a + b) % 2  # sink 8's only input
            for t in (6, 7):
                y = tuple(sym[e][0] for e in gems[t].used_edges)
                assert decode_full_rate(gems[t], None, y) == (a, b)


def test_hand_code_with_shifting_precoder():
    # P sends (a, b) to (a, a+b): the weak sink's sum edge then carries b
    net = butterfly(GF2, weak_sink=True)
    code = classic_butterfly_code(net)
    P = Mat(GF2, [[1, 1], [0, 1]])
    gems = {t: extract_gem(code, net, t) for t in (6, 7)}
    for a in (0, 1):
        for b in (0, 1):
            sym = simulate(net, code, [row_times((a, b), P)])
            assert sym[1][0] == (a + b) % 2
            assert sym[9][0] == b
            for t in (6, 7):
                y = tuple(sym[e][0] for e in gems[t].used_edges)
                assert decode_full_rate(gems[t], P, y) == (a, b)


def test_equivalent_code_gives_weak_sink_a_unit_column():
    # fold the shift into the source kernels instead of precoding
    net = butterfly(GF2, weak_sink=True)
    f = GF2
    gek = {
        -2: (0, 1), -1: (1, 0),
        0: (1, 0), 1: (1, 1), 2: (1, 0), 3: (1, 0),
        4: (1, 1), 5: (1, 1), 6: (0, 1), 7: (0, 1), 8: (0, 1), 9: (0, 1),
    }
    lek = {
        1: Mat(f, [[0, 1], [1, 1]]),
        2: Mat(f, [[1, 1]]),
        3: Mat(f, [[1, 1]]),
        4: Mat(f, [[1], [1]]),
        5: Mat(f, [[1, 1, 1]]),
        6: Mat(f, [[], []], cols=0),
        7: Mat(f, [[], []], cols=0),
        8: Mat(f, [[]], cols=0),
    }
    code = LinearCode(rate=2, gek=gek, lek=lek)
    recheck_consistency(net, code)
    assert extract_gem(code, net, 8).matrix.columns() == [(0, 1)]
    assert simulate(net, code, [(1, 0)])[9][0] == 0
    assert simulate(net, code, [(0, 1)])[9][0] == 1


def test_extract_gem_rejects_deficient_sink():
    net = butterfly(GF2)
    code = classic_butterfly_code(net)
    broken = dict(code.gek)
    broken[7] = (1, 0)  # duplicates the other input of sink 6
    with pytest.raises(CodeInvalidForSink):
        extract_gem(LinearCode(rate=2, gek=broken, lek=code.lek), net, 6)


def test_simulate_zero_message_and_length_check():
    net = butterfly()
    code = build_multicast(net, [6, 7])
    sym = simulate(net, code, [(0, 0)])
    assert all(s[0] == 0 for s in sym.values())
    with pytest.raises(ValueError):
        simulate(net, code, [(1,)])


def test_decode_requires_square_gem():
    net = butterfly(GF3, weak_sink=True)
    code = build_multicast(net, [6, 7, 8])
    weak = extract_gem(code, net, 8)
    with pytest.raises(ValueError):
        decode_full_rate(weak, None, (1,))


# ------------------------------------------- batches and the kernel check

@functools.lru_cache(maxsize=None)
def _built(kind, seed):
    if kind == "butterfly":
        net = butterfly(GF5, weak_sink=True)
    else:
        net = generalized_butterfly(FieldSpec(7), 3, n_weak=2)
    return net, build_multicast(net, list(net.sinks), seed=seed)


@given(st.sampled_from(["butterfly", "generalized"]), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_a_batch_matches_the_single_message_reference(kind, seed, data):
    net, code = _built(kind, seed)
    r, p = code.rate, net.field.p
    X = data.draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=r, max_size=r),
                           max_size=5))
    sym = simulate(net, code, X)
    refs = [reference_simulate(net, code, x) for x in X]
    assert sorted(sym) == list(range(-r, len(net.edges)))
    for e, symbols in sym.items():
        assert symbols == tuple(ref[e] for ref in refs)
    wrong = data.draw(st.integers(0, r + 2).filter(lambda n: n != r))
    with pytest.raises(ValueError):
        simulate(net, code, X + [[0] * wrong])


@given(st.sampled_from(["butterfly", "generalized"]), st.integers(0, 3),
       st.sampled_from(["gek", "lek", "swap"]), st.data())
@settings(max_examples=150, deadline=None)
def test_the_kernel_check_agrees_with_the_local_reference(kind, seed, how, data):
    net, code = _built(kind, seed)
    r, p, field = code.rate, net.field.p, net.field
    gek, lek = dict(code.gek), dict(code.lek)
    if how == "gek":
        e = data.draw(st.sampled_from(sorted(gek)))
        i = data.draw(st.integers(0, r - 1))
        vec = list(gek[e])
        vec[i] = (vec[i] + data.draw(st.integers(1, p - 1))) % p
        gek[e] = tuple(vec)
    elif how == "lek":
        node = data.draw(st.sampled_from([n for n in net.nodes if lek[n].rows and lek[n].cols]))
        rows = [list(row) for row in lek[node].data]
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        rows[i][j] = (rows[i][j] + data.draw(st.integers(1, p - 1))) % p
        lek[node] = Mat(field, rows)
    else:
        # swap two imaginary kernels and the source's rows that read them,
        # so every real edge stays locally consistent
        a, b = data.draw(st.lists(st.integers(1, r), min_size=2, max_size=2, unique=True))
        gek[-a], gek[-b] = gek[-b], gek[-a]
        ins = net.in_edges[net.source]
        rows = list(lek[net.source].data)
        ia, ib = ins.index(-a), ins.index(-b)
        rows[ia], rows[ib] = rows[ib], rows[ia]
        lek[net.source] = Mat(field, rows)
    broken = LinearCode(rate=r, gek=gek, lek=lek)
    verdicts = []
    for check in (_check_consistent, reference_check_consistent):
        try:
            check(net, broken)
            verdicts.append(None)
        except ContractViolation as exc:
            verdicts.append(str(exc))
    assert (verdicts[0] is None) == (verdicts[1] is None), verdicts
    if how != "lek":
        assert verdicts[0] is not None
    if how == "gek":
        # butterfly and generalized_butterfly list their nodes in
        # topological order, so both checks name the changed edge first
        assert verdicts[0] == verdicts[1] == f"encoding kernels inconsistent at edge {e}"
