import itertools
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srlnc import (
    ConstructionFailed,
    FieldSpec,
    GemSet,
    Mat,
    NotFullyDecodable,
    SearchSpaceTooLarge,
    Subspace,
    build_precoder,
    build_spanner,
    comd,
    compol,
    comss_c,
    comss_exhaustive,
    decoder_for,
    fsrd_check,
    is_exact_spanner,
    minimal_exact_spanner,
    projective_rep,
    rank,
    rank_of_vectors,
    row_times,
    subspace_lines,
)

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
    random_gemset,
    reference_build_spanner,
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


def test_minimal_spanner_respects_cap():
    g = GemSet([mat_cols(GF5, *[tuple(1 if i == j else 0 for i in range(6))
                                for j in range(2)])], rate=6)
    with pytest.raises(SearchSpaceTooLarge):
        minimal_exact_spanner(g)  # 5^6 candidates > default cap
    assert len(minimal_exact_spanner(g, cap=5 ** 6)) == 2


def test_build_spanner_collects_intersection_lines():
    g = gems_three_planes()
    cert = build_spanner(g, (0, 3, 0))
    assert cert.i_bar == (0, 3, 0)
    assert cert.comss_values == (0, 3, 0)
    assert cert.spanner == ((1, 2, 2), (1, 1, 0), (1, 1, 1))
    assert is_exact_spanner(cert.spanner, g)
    assert all(comd(v, g) == 2 for v in cert.spanner)


def test_build_spanner_two_members():
    g = gems_hyperplanes(GF3, 3, 2)
    cert = build_spanner(g, (2, 1))
    assert is_exact_spanner(cert.spanner, g)
    assert rank_of_vectors(GF3, cert.spanner) == 3
    assert comd(cert.spanner[0], g) == 2


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
            assert list(build_spanner(g, i_bar).spanner) == want


# ---------------------------------------------------------------- feasibility

def test_fsrd_check_results():
    assert fsrd_check(gems_three_planes()) == (0, 3, 0)
    assert fsrd_check(gems_shared_axis()) is None
    assert fsrd_check(gems_four_planes()) is None
    single = GemSet([mat_cols(GF3, (1, 1, 0), (0, 0, 1))], rate=3)
    assert fsrd_check(single) == (2,)


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
    assert rank(plan.P) == r
    assert is_exact_spanner(plan.spanner, g)
    for i, sp in enumerate(plan.sinks):
        B = g.mats[i]
        assert plan.P @ B @ sp.D == sp.R
        assert rank(sp.D) == B.cols
        assert len(sp.decoded_indices) == g.h(i)
        assert sp.R.columns() == [eye.col(j) for j in sp.decoded_indices]


def test_build_precoder_with_pinned_spanner():
    g = gems_three_planes()
    plan = build_precoder(g, spanner=[(2, 1, 1), (1, 1, 0), (1, 1, 1)])
    assert plan.P.to_lists() == [[1, 2, 0], [0, 1, 2], [2, 1, 1]]
    assert plan.i_bar == (0, 3, 0)
    assert plan.spanner == ((2, 1, 1), (1, 1, 0), (1, 1, 1))
    assert [sp.D.to_lists() for sp in plan.sinks] == [
        [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 1], [1, 0]]]
    assert [sp.decoded_indices for sp in plan.sinks] == [(1, 2), (0, 2), (0, 1)]
    check_plan_contract(g, plan)


def test_build_precoder_default_spanner():
    g = gems_three_planes()
    plan = build_precoder(g)
    assert plan.i_bar == (0, 3, 0)
    check_plan_contract(g, plan)
    # default spanner picks canonical line representatives
    assert plan.spanner == ((1, 2, 2), (1, 1, 0), (1, 1, 1))


def test_precoded_messages_round_trip():
    g = gems_three_planes()
    for plan in (build_precoder(g),
                 build_precoder(g, spanner=[(2, 1, 1), (1, 1, 0), (1, 1, 1)])):
        for v in itertools.product(range(3), repeat=3):
            x = row_times(v, plan.P)
            for i, sp in enumerate(plan.sinks):
                received = row_times(x, g.mats[i])
                got = row_times(received, sp.D)
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
    assert rank(plan.P @ fb) == 3


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
    sp = decoder_for(plan, 0, b_alt)
    assert sp.decoded_indices == plan.sinks[0].decoded_indices
    assert plan.P @ b_alt @ sp.D == sp.R
    for v in itertools.product(range(3), repeat=3):
        x = row_times(v, plan.P)
        received = row_times(x, b_alt)
        assert row_times(received, sp.D) == tuple(v[j] for j in sp.decoded_indices)
