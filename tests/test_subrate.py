import itertools
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srlnc import (
    FieldSpec,
    GemSet,
    Mat,
    NotFullyDecodable,
    build_precoder,
    comss_c,
    comss_exhaustive,
    fsrd_check,
    rank,
    row_times,
    subspace_intersect,
)
from srlnc.linalg import Subspace, rank_of_vectors
from srlnc.subrate import (
    ConstructionFailed,
    SearchSpaceTooLarge,
    build_spanner,
    comd,
    compol,
    is_exact_spanner,
    minimal_exact_spanner,
    subspace_lines,
)
from srlnc.blockcode import block_decoder_for

from srlnc import subrate
from helpers import (
    GF2,
    GF3,
    GF5,
    brute_is_exact_spanner,
    brute_min_spanner_size,
    feasible_gemset,
    gems_four_planes,
    gems_hyperplanes,
    gems_shared_axis,
    gems_three_planes,
    mat_cols,
    projective_rep,
    random_gemset,
    reference_build_spanner,
    reference_comss_c,
    reference_fsrd_check,
    reference_minimal_exact_spanner,
    reference_subspace_lines,
)


# ---------------------------------------------------------------- GemSet

def test_gemset_basic_accessors():
    g = gems_three_planes()
    assert g.k == 3
    assert [g.h(i) for i in range(3)] == [2, 2, 2]
    assert g.total_span().dim == 3
    assert g.intersection(frozenset({0, 1})).dim == 1
    assert g.intersection(frozenset({0, 1, 2})).dim == 0


def test_gemset_deduplicates_equal_spans():
    b1 = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    b1_other_basis = mat_cols(GF3, (1, 1, 1), (0, 0, 2))
    b2 = mat_cols(GF3, (1, 0, 0), (0, 1, 1))
    g = GemSet([b1, b1_other_basis, b2], rate=3)
    assert g.k == 2
    assert g.source_map == (0, 0, 1)
    assert g.mats[0] == b1  # first representative wins


def test_gemset_validation():
    with pytest.raises(ValueError):
        GemSet([], rate=3)
    with pytest.raises(ValueError):
        GemSet([mat_cols(GF3, (1, 0)), mat_cols(GF2, (1, 0))], rate=2)
    with pytest.raises(ValueError):
        GemSet([mat_cols(GF3, (1, 0, 0))], rate=2)  # wrong height
    with pytest.raises(ValueError):
        GemSet([mat_cols(GF3, (1, 0), (0, 1))], rate=2)  # not sub-rate
    with pytest.raises(ValueError):
        GemSet([mat_cols(GF3, (1, 1, 0), (2, 2, 0))], rate=3)  # dependent


# ---------------------------------------------------------------- measures

def test_projective_rep():
    assert projective_rep(GF3, (2, 1, 1)) == (1, 2, 2)
    assert projective_rep(GF3, (0, 2, 0)) == (0, 1, 0)
    assert projective_rep(GF5, (3, 1, 0)) == (1, 2, 0)
    with pytest.raises(ValueError):
        projective_rep(GF3, (0, 0, 0))


def test_subspace_lines():
    plane = Subspace.from_columns(GF3, 3, [(1, 0, 0), (0, 1, 0)])
    lines = subspace_lines(plane)
    assert len(lines) == 4  # (9 - 1) / (3 - 1)
    assert all(plane.contains(v) for v in lines)
    assert lines == sorted(lines)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(0, 6), st.integers())
@settings(max_examples=200, deadline=None)
def test_subspace_lines_match_the_sorted_listing(p, n, m, seed):
    rng = random.Random(seed)
    field = FieldSpec(p)
    S = Subspace.from_columns(field, n, [tuple(rng.randrange(p) for _ in range(n))
                                         for _ in range(m)])
    assert subspace_lines(S) == reference_subspace_lines(S)


def test_comd_examples():
    g = gems_three_planes()
    assert comd((1, 1, 1), g) == 2
    assert comd((2, 1, 1), g) == 2
    assert comd((0, 0, 1), g) == 1
    assert comd((1, 2, 0), g) == 0
    assert comd((0, 0, 1), gems_shared_axis()) == 3
    with pytest.raises(ValueError):
        comd((0, 0, 0), g)


def test_comss_c_values():
    assert tuple(comss_c(gems_three_planes(), c) for c in (1, 2, 3)) == (0, 3, 0)
    assert tuple(comss_c(gems_shared_axis(), c) for c in (1, 2, 3)) == (3, 0, 1)
    assert tuple(comss_c(gems_four_planes(), c) for c in (1, 2, 3, 4)) == (0, 6, 0, 0)
    with pytest.raises(ValueError):
        comss_c(gems_three_planes(), 0)
    with pytest.raises(ValueError):
        comss_c(gems_three_planes(), 4)


def test_compol():
    g = gems_three_planes()
    assert compol(g, (0, 3, 0)) == 6
    assert compol(g, (1, 1, 1)) == 6
    assert compol(g, (0, 0, 0)) == 0
    with pytest.raises(ValueError):
        compol(g, (1, 2))


# ---------------------------------------------------------------- spanners

def test_is_exact_spanner_examples():
    g = gems_three_planes()
    assert is_exact_spanner([(2, 1, 1), (1, 1, 0), (1, 1, 1)], g)
    assert is_exact_spanner([(1, 2, 2), (1, 1, 0), (1, 1, 1)], g)  # scaling is free
    assert not is_exact_spanner([(2, 1, 1), (1, 1, 0)], g)
    assert not is_exact_spanner([(1, 0, 0), (0, 1, 0), (0, 0, 1)], g)
    union = [v for m in g.mats for v in m.columns()]
    assert is_exact_spanner(union, g)


def test_is_exact_spanner_matches_literal_definition():
    rng = random.Random(11)
    for _ in range(40):
        g = random_gemset(rng, rng.choice([GF2, GF3]), 3, 2)
        lines = subspace_lines(g.total_span())
        size = rng.randint(0, min(5, len(lines)))
        V = rng.sample(lines, size)
        assert is_exact_spanner(V, g) == brute_is_exact_spanner(V, g)


def test_minimal_spanner_sizes():
    assert comss_exhaustive(gems_three_planes()) == 3
    assert comss_exhaustive(gems_shared_axis()) == 4
    assert comss_exhaustive(gems_four_planes()) == 4
    single = GemSet([mat_cols(GF3, (1, 1, 0), (0, 0, 1))], rate=3)
    assert comss_exhaustive(single) == 2


def test_minimal_spanner_matches_brute_force():
    rng = random.Random(23)
    for _ in range(25):
        g = random_gemset(rng, rng.choice([GF2, GF3]), 3, 2)
        V = minimal_exact_spanner(g)
        assert is_exact_spanner(V, g)
        assert len(V) == brute_min_spanner_size(g)


@given(st.sampled_from([2, 3, 5]), st.sampled_from([3, 4]), st.integers(2, 5), st.integers())
@settings(max_examples=150, deadline=None)
def test_minimal_spanner_matches_the_reference_search(p, r, k_max, seed):
    g = random_gemset(random.Random(seed), FieldSpec(p), r, k_max)
    # The reference search is exponential: a few r=4, p=5 sets take it
    # minutes.  Those past its node cap (about 0.4 s) are skipped here;
    # the pinned set below is one of them.
    want = reference_minimal_exact_spanner(g, max_nodes=3000)
    assume(want is not None)
    assert minimal_exact_spanner(g) == want


def test_minimal_spanner_is_fast_where_the_plain_search_took_a_minute():
    mats = [[[0, 2, 4], [0, 3, 3], [3, 2, 2], [1, 3, 4]],
            [[2, 4, 3], [4, 3, 3], [0, 0, 2], [1, 4, 0]],
            [[4], [0], [3], [0]],
            [[1, 1, 3], [1, 3, 1], [1, 0, 2], [4, 3, 0]]]
    g = GemSet([Mat(GF5, m) for m in mats], rate=4)
    assert [g.h(i) for i in range(g.k)] == [3, 3, 1, 3]
    assert fsrd_check(g) is None
    t0 = time.perf_counter()
    V = minimal_exact_spanner(g)
    assert time.perf_counter() - t0 < 5.0
    assert V == [(0, 1, 1, 3), (1, 0, 1, 0), (1, 0, 3, 4), (1, 0, 3, 3), (1, 0, 2, 0)]


def test_precoder_refused_when_the_minimal_spanner_exceeds_the_rate():
    mats = [[[2, 1, 2], [0, 2, 0], [2, 2, 2], [1, 1, 2]],
            [[2, 1], [0, 0], [1, 1], [0, 1]],
            [[0, 0], [2, 0], [0, 2], [1, 1]],
            [[0], [2], [2], [2]]]
    g = GemSet([Mat(GF3, m) for m in mats], rate=4)
    assert fsrd_check(g) is not None
    assert len(minimal_exact_spanner(g)) == 5
    with pytest.raises(NotFullyDecodable, match="5 vectors, more than the rate 4"):
        build_precoder(g)


def test_minimal_spanner_respects_the_node_budget(monkeypatch):
    g = gems_four_planes()   # the search visits 7 nodes
    V = minimal_exact_spanner(g)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 7)
    assert minimal_exact_spanner(g) == V
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 6)
    with pytest.raises(SearchSpaceTooLarge, match="stopped after 6 nodes"):
        minimal_exact_spanner(g)
    with pytest.raises(SearchSpaceTooLarge, match="stopped after 6 nodes"):
        comss_exhaustive(g)
    # the budget counts nodes, not the 5^6 vectors of the ambient space:
    # one node per vector that a lone plane still lacks
    wide = GemSet([mat_cols(GF5, *[tuple(1 if i == j else 0 for i in range(6))
                                   for j in range(2)])], rate=6)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 2)
    assert len(minimal_exact_spanner(wide)) == 2


def _unlisted(S):
    raise AssertionError("a refused search listed member lines")


def test_minimal_spanner_refuses_more_member_lines_than_its_budget(monkeypatch):
    g = gems_four_planes()   # four planes over GF(3), 4 lines each
    V = minimal_exact_spanner(g)
    monkeypatch.setattr(subrate, "LINE_BUDGET", 16)
    assert minimal_exact_spanner(g) == V
    monkeypatch.setattr(subrate, "LINE_BUDGET", 15)
    monkeypatch.setattr(subrate, "subspace_lines", _unlisted)
    with pytest.raises(SearchSpaceTooLarge, match="would list 16 member lines, more than 15"):
        minimal_exact_spanner(g)
    monkeypatch.undo()
    # a plane over a large field holds p + 1 lines: refused at once
    big = FieldSpec(1_000_003)
    plane = GemSet([mat_cols(big, (1, 0, 0), (0, 1, 0))], rate=3)
    monkeypatch.setattr(subrate, "subspace_lines", _unlisted)
    with pytest.raises(SearchSpaceTooLarge, match="would list 1000004 member lines"):
        minimal_exact_spanner(plane)


def coordinate_gemset(k: int) -> GemSet:
    """k distinct coordinate subspaces of GF(2)^5, of dimension 1 to 4."""
    subsets = [c for d in range(1, 5) for c in itertools.combinations(range(5), d)][:k]
    unit = lambda i: tuple(int(j == i) for j in range(5))
    return GemSet([mat_cols(GF2, *map(unit, c)) for c in subsets], rate=5)


def _no_intersections(U, W):
    raise AssertionError("a refused commonality table computed an intersection")


def test_commonality_levels_refuse_more_member_sets_than_the_budget(monkeypatch):
    g = coordinate_gemset(18)   # 2^18 - 1 = 262 143 member sets
    assert g.k == 18
    monkeypatch.setattr(subrate, "subspace_intersect", _no_intersections)
    for levels in (fsrd_check, lambda g: comss_c(g, 1), lambda g: build_spanner(g, [0] * 18)):
        with pytest.raises(SearchSpaceTooLarge,
                           match="need 262143 member intersections, more than 200000"):
            levels(g)
    monkeypatch.undo()
    three = gems_three_planes()   # 2^3 - 1 = 7 member sets
    want = fsrd_check(three)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 7)
    assert fsrd_check(gems_three_planes()) == want
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 6)
    with pytest.raises(SearchSpaceTooLarge, match="need 7 member intersections, more than 6"):
        fsrd_check(gems_three_planes())


def test_build_spanner_collects_intersection_lines():
    g = gems_three_planes()
    V = build_spanner(g, (0, 3, 0))
    assert V == ((1, 2, 2), (1, 1, 0), (1, 1, 1))
    assert is_exact_spanner(V, g)
    assert all(comd(v, g) == 2 for v in V)


def test_build_spanner_two_members():
    g = gems_hyperplanes(GF3, 3, 2)
    V = build_spanner(g, (2, 1))
    assert is_exact_spanner(V, g)
    assert rank_of_vectors(GF3, V) == 3
    assert comd(V[0], g) == 2


def test_build_spanner_rejects_oversized_levels():
    with pytest.raises(ValueError):
        build_spanner(gems_three_planes(), (0, 4, 0))
    with pytest.raises(ValueError):
        build_spanner(gems_three_planes(), (0, 3))


def test_build_spanner_reports_impossible_collection():
    # caps allow (3, 0, 1) but only two independent degree-1 lines exist
    with pytest.raises(ConstructionFailed):
        build_spanner(gems_shared_axis(), (3, 0, 1))


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 5), st.integers(1, 5),
       st.booleans(), st.integers())
@settings(max_examples=200, deadline=None)
def test_build_spanner_matches_the_reference_construction(p, r, k_max, feasible, seed):
    rng = random.Random(seed)
    make = feasible_gemset if feasible else random_gemset
    g = make(rng, FieldSpec(p), min(r, 4) if p > 3 else r, k_max)
    caps = [comss_c(g, c) for c in range(1, g.k + 1)]
    # the feasible profile, if any, and a random one within the level sizes
    for i_bar in (fsrd_check(g), tuple(rng.randint(0, cap) for cap in caps)):
        if i_bar is None:
            continue
        try:
            want = reference_build_spanner(g, i_bar)
        except ConstructionFailed as exc:
            with pytest.raises(ConstructionFailed, match=f"^{re.escape(str(exc))}$"):
                build_spanner(g, i_bar)
        else:
            assert list(build_spanner(g, i_bar)) == want


# ---------------------------------------------------------------- feasibility

def test_fsrd_check_results():
    assert fsrd_check(gems_three_planes()) == (0, 3, 0)
    assert fsrd_check(gems_shared_axis()) is None
    assert fsrd_check(gems_four_planes()) is None
    single = GemSet([mat_cols(GF3, (1, 1, 0), (0, 0, 1))], rate=3)
    assert fsrd_check(single) == (2,)


@given(st.sampled_from([2, 3, 5]), st.integers(2, 5), st.integers(1, 6),
       st.booleans(), st.integers())
@settings(max_examples=200, deadline=None)
def test_levels_and_profile_match_the_brute_force_references(p, r, k_max, feasible, seed):
    make = feasible_gemset if feasible else random_gemset
    g = make(random.Random(seed), FieldSpec(p), r, k_max)
    for size in range(1, g.k + 1):
        for S in itertools.combinations(range(g.k), size):
            want = g.spans[S[0]]
            for i in S[1:]:
                want = subspace_intersect(want, g.spans[i])
            assert g.intersection(frozenset(S)) == want
    assert ([comss_c(g, c) for c in range(1, g.k + 1)]
            == [reference_comss_c(g, c) for c in range(1, g.k + 1)])
    assert fsrd_check(g) == reference_fsrd_check(g)


def test_many_weak_sinks_are_fast():
    # twelve members of GF(5)^8, each spanned by a distinct subset of one
    # random basis; the brute-force levels take about 4 s here
    basis = [(1, 4, 4, 1, 2, 4, 3, 4), (0, 4, 0, 3, 2, 4, 1, 1), (3, 4, 4, 3, 3, 1, 1, 1),
             (4, 3, 0, 0, 1, 4, 0, 2), (0, 2, 3, 4, 3, 3, 3, 4), (3, 1, 2, 0, 0, 1, 3, 1),
             (2, 3, 2, 3, 4, 3, 4, 2), (4, 4, 3, 4, 1, 2, 0, 2)]
    subsets = [(0, 2, 4, 5, 7), (0, 2, 3, 4, 5, 6), (7,), (0, 2, 3, 4, 5, 6, 7), (3, 6, 7),
               (0, 1, 2, 4, 5, 6, 7), (0, 1, 2, 4, 7), (1,), (0,), (2, 6), (0, 1, 2, 4, 5),
               (1, 3, 5)]
    g = GemSet([mat_cols(GF5, *[basis[j] for j in sub]) for sub in subsets], rate=8)
    t0 = time.perf_counter()
    plan = build_precoder(g)
    assert time.perf_counter() - t0 < 2.0
    # the profile reference_fsrd_check gives for this set
    assert plan.i_bar == (0, 0, 0, 1, 2, 3, 2, 0, 0, 0, 0, 0)
    check_plan_contract(g, plan)


@pytest.mark.parametrize("field", [GF2, GF3])
@pytest.mark.parametrize("r,l", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                 (4, 2), (4, 3), (4, 4), (5, 5)])
def test_fsrd_profile_of_hyperplane_families(field, r, l):
    g = gems_hyperplanes(field, r, l)
    if l == 1:
        want = (r - 1,)
    else:
        want = (0,) * (l - 2) + (l, r - l)
    assert fsrd_check(g) == want
    plan = build_precoder(g)
    assert plan.i_bar == want


# ---------------------------------------------------------------- precoding

def check_plan_contract(g, plan):
    r = g.rate
    eye = Mat.identity(g.field, r)
    assert rank(plan.P_hat) == r
    assert is_exact_spanner(plan.design.spanner, g)
    for i, sp in enumerate(plan.sinks):
        B = g.mats[i]
        assert plan.P_hat @ B @ sp.D_hat == sp.R_hat
        assert rank(sp.D_hat) == B.cols
        assert len(sp.decoded_indices) == g.h(i)
        assert sp.R_hat.columns() == [eye.col(j) for j in sp.decoded_indices]


def test_build_precoder_with_pinned_spanner():
    g = gems_three_planes()
    plan = build_precoder(g, spanner=[(2, 1, 1), (1, 1, 0), (1, 1, 1)])
    assert plan.P_hat.to_lists() == [[1, 2, 0], [0, 1, 2], [2, 1, 1]]
    assert plan.i_bar == (0, 3, 0)
    assert plan.design.spanner == ((2, 1, 1), (1, 1, 0), (1, 1, 1))
    assert [sp.D_hat.to_lists() for sp in plan.sinks] == [
        [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 1], [1, 0]]]
    assert [sp.decoded_indices for sp in plan.sinks] == [(1, 2), (0, 2), (0, 1)]
    check_plan_contract(g, plan)


def test_build_precoder_default_spanner():
    g = gems_three_planes()
    plan = build_precoder(g)
    assert plan.i_bar == (0, 3, 0)
    check_plan_contract(g, plan)
    # default spanner picks canonical line representatives
    assert plan.design.spanner == ((1, 2, 2), (1, 1, 0), (1, 1, 1))


def test_precoded_messages_round_trip():
    g = gems_three_planes()
    for plan in (build_precoder(g),
                 build_precoder(g, spanner=[(2, 1, 1), (1, 1, 0), (1, 1, 1)])):
        for v in itertools.product(range(3), repeat=3):
            x = row_times(v, plan.P_hat)
            for i, sp in enumerate(plan.sinks):
                received = row_times(x, g.mats[i])
                got = row_times(received, sp.D_hat)
                assert got == tuple(v[j] for j in sp.decoded_indices)


def test_build_precoder_checks_supplied_spanner():
    g = gems_three_planes()
    with pytest.raises(ValueError):
        build_precoder(g, spanner=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        # exact but linearly dependent
        build_precoder(g, spanner=[(1, 2, 2), (1, 1, 0), (1, 1, 1), (0, 0, 1)])


def test_build_precoder_keeps_full_rate_gems_invertible():
    g = gems_three_planes()
    fb = Mat(GF3, [[1, 0, 2], [0, 1, 0], [1, 1, 1]])
    assert rank(fb) == 3
    plan = build_precoder(g, full_rate=[fb])
    assert rank(plan.P_hat @ fb) == 3


def test_build_precoder_refuses_infeasible_sets():
    with pytest.raises(NotFullyDecodable):
        build_precoder(gems_shared_axis())
    with pytest.raises(NotFullyDecodable):
        build_precoder(gems_four_planes())


def test_decoder_for_other_basis_of_same_span():
    g = gems_three_planes()
    plan = build_precoder(g)
    twist = Mat(GF3, [[1, 1], [1, 2]])
    assert rank(twist) == 2
    b_alt = g.mats[0] @ twist
    sp = block_decoder_for(plan, 0, b_alt)
    assert sp.decoded_indices == plan.sinks[0].decoded_indices
    assert plan.P_hat @ b_alt @ sp.D_hat == sp.R_hat
    for v in itertools.product(range(3), repeat=3):
        x = row_times(v, plan.P_hat)
        received = row_times(x, b_alt)
        assert row_times(received, sp.D_hat) == tuple(v[j] for j in sp.decoded_indices)
