import hashlib
import importlib.util
import itertools
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
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
from srlnc.blockcode import build_block_plan

from srlnc import cli, subrate
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
    reference_degree_spans,
    reference_fsrd_check,
    reference_minimal_exact_spanner,
    reference_sink_block_plan,
    reference_subspace_lines,
)

TOOLS = Path(__file__).resolve().parents[1] / "tools"


# ---------------------------------------------------------------- GemSet

def test_gemset_basic_accessors():
    g = gems_three_planes()
    assert g.k == 3
    assert [g.h(i) for i in range(3)] == [2, 2, 2]
    assert g.total_span().dim == 3
    assert g.levels() == (0, 3, 0)
    # the planes meet pairwise in lines and all three in zero
    assert {m: S.dim for m, S in g._inter_cache.items()} == {1: 2, 2: 2, 4: 2, 3: 1, 5: 1, 6: 1}


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
    # no common basis: the greedy one holds only two vectors of member 0
    with pytest.raises(NotFullyDecodable, match="^the member spans have no common basis: "
                       "member 0 has rank 2 of 3 in the greedy basis$"):
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


def _coordinate_facts(k: int):
    """The levels of `coordinate_gemset(k)`, its nonzero member
    intersections by bit mask, and how many intersections `GemSet.levels`
    computes, by counting coordinates: members meet in the coordinate
    subspace of the coordinates they share, so a member set's bracket is
    the number of coordinates held by exactly its members, and its
    intersection is nonzero when all of them hold some coordinate.  The DFS
    intersects each nonzero T with every member after max T."""
    subsets = [c for d in range(1, 5) for c in itertools.combinations(range(5), d)][:k]
    holders = [sorted(i for i, c in enumerate(subsets) if j in c) for j in range(5)]
    levels = [0] * k
    for held in filter(None, holders):
        levels[len(held) - 1] += 1
    family = {sum(1 << i for i in T) for held in holders
              for size in range(1, len(held) + 1) for T in itertools.combinations(held, size)}
    return tuple(levels), family, sum(k - m.bit_length() for m in family)


def _count_intersections(monkeypatch) -> list:
    calls = []
    meet = subrate.subspace_intersect
    monkeypatch.setattr(subrate, "subspace_intersect", lambda U, W: calls.append(1) or meet(U, W))
    return calls


def test_commonality_levels_refuse_more_member_sets_than_the_budget(monkeypatch):
    # 2^18 - 1 = 262 143 member sets, of which 666 meet in a nonzero subspace;
    # listing them takes 1251 intersections
    levels, family, made = _coordinate_facts(18)
    assert (len(family), made) == (666, 1251)
    calls = _count_intersections(monkeypatch)
    g = coordinate_gemset(18)
    assert g.k == 18
    assert tuple(comss_c(g, c) for c in range(1, 19)) == levels
    assert fsrd_check(g) == levels
    assert len(calls) == made
    assert list(build_spanner(g, levels)) == reference_build_spanner(coordinate_gemset(18), levels)
    # the cache holds the nonzero family, not its zero boundary
    assert set(g._inter_cache) == family
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", made)
    assert fsrd_check(coordinate_gemset(18)) == levels
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", made - 1)
    for check in (fsrd_check, lambda g: comss_c(g, 1), lambda g: build_spanner(g, [0] * 18)):
        calls.clear()
        with pytest.raises(SearchSpaceTooLarge,
                           match=f"need more than {made - 1} member intersections$"):
            check(coordinate_gemset(18))
        assert len(calls) <= made - 1
    # three planes of GF(3)^3 meet pairwise in lines and all three in zero:
    # 3 pairwise intersections and one of all three
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 4)
    assert fsrd_check(gems_three_planes()) == (0, 3, 0)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 3)
    with pytest.raises(SearchSpaceTooLarge, match="need more than 3 member intersections$"):
        fsrd_check(gems_three_planes())


def all_lines_gemset(field: FieldSpec, r: int) -> GemSet:
    """Every line of GF(p)^r as a member; any two meet in zero."""
    space = Subspace.from_columns(field, r, [tuple(int(i == j) for i in range(r))
                                             for j in range(r)])
    return GemSet([mat_cols(field, v) for v in subspace_lines(space)], rate=r)


def test_commonality_levels_refuse_many_lines_before_intersecting(monkeypatch):
    """Distinct lines meet pairwise in zero, so the family is the k lines,
    but the levels still take the k(k-1)/2 pairwise intersections; those
    are counted before the first one is computed."""
    g = all_lines_gemset(GF3, 4)
    assert g.k == 40
    calls = _count_intersections(monkeypatch)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 780)
    assert g.levels() == (40,) + (0,) * 39
    assert len(calls) == 780 and len(g._inter_cache) == 40
    calls.clear()
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 779)
    with pytest.raises(SearchSpaceTooLarge, match="need more than 779 member intersections$"):
        all_lines_gemset(GF3, 4).levels()
    assert calls == []


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
            want = reference_build_spanner(GemSet(g.mats, g.rate), i_bar)
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
    assert ([comss_c(g, c) for c in range(1, g.k + 1)]
            == [reference_comss_c(g, c) for c in range(1, g.k + 1)])
    # the levels' DFS kept every nonzero intersection, and only those
    for size in range(1, g.k + 1):
        for S in itertools.combinations(range(g.k), size):
            want = g.spans[S[0]]
            for i in S[1:]:
                want = subspace_intersect(want, g.spans[i])
            assert g._inter_cache.get(sum(1 << i for i in S)) == (want if want.dim else None)
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


def probe_gemset(k: int) -> GemSet:
    """`probe_gems(k)` of tools/pool_digests.py as a GemSet, so that the
    pinned plan and the digest entries describe the same sets: k members
    of GF(5)^10, each spanned by a distinct random proper subset of one
    random basis; at k = 18 only 3657 of the 2^18 - 1 member intersections
    are nonzero."""
    spec = importlib.util.spec_from_file_location("pool_digests", TOOLS / "pool_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    gems = tool.probe_gems(k)
    field = FieldSpec(gems["p"])
    return GemSet([Mat(field, rows) for rows in gems["mats"]], rate=gems["rate"])


def test_eighteen_weak_sinks_get_a_precoder():
    g = probe_gemset(18)
    t0 = time.perf_counter()
    plan = build_precoder(g)
    assert time.perf_counter() - t0 < 3.0
    assert len(g._inter_cache) == 3657
    # the i_bar and plan bytes of the 2^k table, run with its budget lifted
    assert plan.i_bar == (0, 0, 0, 0, 1, 2, 4, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    text = cli.canonical_json(cli.plan_to_obj(plan))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "278f90117e5c82c3d6934000200c163032a588ae6c69d7e56680fe324edeb8ee")
    check_plan_contract(g, plan)


def sparse_gemset(rng, field: FieldSpec, r: int, k_max: int) -> GemSet:
    """Coordinate subspaces of 1 to 3 coordinates and random lines and
    planes, mixed, so that most member sets meet in zero."""
    mats = []
    for _ in range(rng.randint(1, k_max)):
        if rng.random() < 0.5:
            cols = [tuple(int(i == j) for i in range(r))
                    for j in sorted(rng.sample(range(r), rng.randint(1, 3)))]
        else:
            cols = []
            while len(cols) < rng.randint(1, 2):
                v = tuple(rng.randrange(field.p) for _ in range(r))
                if rank_of_vectors(field, cols + [v]) > len(cols):
                    cols.append(v)
        mats.append(mat_cols(field, *cols))
    return GemSet(mats, rate=r)


@given(st.sampled_from([2, 3]), st.integers(5, 6), st.integers(1, 6), st.integers())
@settings(max_examples=100, deadline=None)
def test_levels_and_spanner_over_mostly_zero_intersections_match_the_references(p, r, k_max,
                                                                               seed):
    rng = random.Random(seed)
    g = sparse_gemset(rng, FieldSpec(p), r, k_max)
    fresh = GemSet(g.mats, g.rate)   # the references share no cached fact with g
    caps = [comss_c(g, c) for c in range(1, g.k + 1)]
    assert caps == [reference_comss_c(fresh, c) for c in range(1, g.k + 1)]
    assert fsrd_check(g) == reference_fsrd_check(fresh)
    for i_bar in (fsrd_check(g), tuple(rng.randint(0, cap) for cap in caps)):
        if i_bar is None:
            continue
        try:
            want = reference_build_spanner(fresh, i_bar)
        except ConstructionFailed as exc:
            with pytest.raises(ConstructionFailed, match=f"^{re.escape(str(exc))}$"):
                build_spanner(g, i_bar)
        else:
            assert list(build_spanner(g, i_bar)) == want


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


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 5), st.integers(1, 5), st.integers())
@settings(max_examples=100, deadline=None)
def test_build_precoder_keeps_full_rate_gems_invertible(p, r, k_max, seed):
    # P_hat inverts a completed basis, so every invertible r by r matrix,
    # such as a full-rate sink's B_t, keeps rank r under it
    rng = random.Random(seed)
    field = FieldSpec(p)
    g = feasible_gemset(rng, field, r, k_max)
    plan = build_precoder(g)
    while True:
        B = Mat(field, [[rng.randrange(p) for _ in range(r)] for _ in range(r)])
        if rank(B) == r:
            break
    assert rank(plan.P_hat @ B) == r


def test_build_precoder_refuses_infeasible_sets():
    with pytest.raises(NotFullyDecodable):
        build_precoder(gems_shared_axis())
    with pytest.raises(NotFullyDecodable):
        build_precoder(gems_four_planes())


def pool_gemset(rng, field: FieldSpec, r: int, k_max: int) -> GemSet:
    """Members spanned by random subsets of one pool of r to r + 2 random
    nonzero vectors, so that they overlap in many ways; a subset that spans
    all of F^r is drawn again."""
    pool = []
    while len(pool) < rng.randint(r, r + 2):
        v = tuple(rng.randrange(field.p) for _ in range(r))
        if any(v):
            pool.append(v)
    k, mats = rng.randint(1, k_max), []
    while len(mats) < k:
        cols = []
        for v in rng.sample(pool, rng.randint(1, len(pool))):
            if rank_of_vectors(field, cols + [v]) > len(cols):
                cols.append(v)
        if len(cols) < r:
            mats.append(mat_cols(field, *cols))
    return GemSet(mats, rate=r)


@settings(max_examples=300, deadline=None)
@example(make="pool", p=2, r=4, k_max=5, seed=229)
@example(make="pool", p=3, r=4, k_max=5, seed=195)
@example(make="pool", p=5, r=4, k_max=5, seed=44)
@example(make="random", p=2, r=4, k_max=5, seed=175)
@example(make="random", p=3, r=4, k_max=5, seed=44)
@given(make=st.sampled_from(["random", "feasible", "pool"]), p=st.sampled_from([2, 3, 5]),
       r=st.integers(3, 5), k_max=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_the_precoder_exists_exactly_when_the_minimal_spanner_is_a_basis(make, p, r, k_max,
                                                                         seed):
    """A single-use precoder inverts a basis that is an exact spanner, so
    one exists exactly when the minimal exact spanner is as long as the
    total span is wide.  `build_precoder` decides it without that search.
    The greedy common basis lists its vectors by degree, descending, those
    of degree c or more spanning every intersection of c or more members;
    it leaves a member short exactly when no precoder exists, and a refusal
    past the feasibility check names the first such member.  The examples
    are such refusals, the first of their kind and field among the seeds."""
    make_gemset = {"random": random_gemset, "feasible": feasible_gemset, "pool": pool_gemset}
    g = make_gemset[make](random.Random(seed), FieldSpec(p), r, k_max)
    fresh = GemSet(g.mats, g.rate)   # the checks share no cached fact with g
    want = reference_minimal_exact_spanner(fresh, max_nodes=3000)
    assume(want is not None)
    searched = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subrate, "SEARCH_BUDGET", 20_000)
        mp.setattr(subrate, "minimal_exact_spanner", searched.append)
        try:
            plan = build_precoder(g)
        except SearchSpaceTooLarge:
            assume(False)
        except NotFullyDecodable as exc:
            plan, refusal = None, str(exc)
    assert searched == []
    V = subrate.common_basis(g)
    degrees = [sum(S.contains(v) for S in fresh.spans) for v in V]
    assert degrees == sorted(degrees, reverse=True)
    assert rank_of_vectors(fresh.field, V) == len(V)
    for c, W in enumerate(reference_degree_spans(fresh), 1):
        assert Subspace.from_columns(fresh.field, fresh.rate,
                                     [v for v, d in zip(V, degrees) if d >= c]) == W
    held = [sum(S.contains(v) for v in V) for S in fresh.spans]
    short = [i for i in range(fresh.k) if held[i] < fresh.h(i)]
    assert (plan is None) == bool(short) == (len(want) > fresh.total_span().dim)
    if plan is not None:
        check_plan_contract(g, plan)
    elif fsrd_check(fresh) is not None:
        i = short[0]
        assert refusal == (f"the member spans have no common basis: member {i} has rank "
                           f"{held[i]} of {fresh.h(i)} in the greedy basis")


def test_decoder_for_other_basis_of_same_span():
    g = gems_three_planes()
    plan = build_precoder(g)
    twist = Mat(GF3, [[1, 1], [1, 2]])
    assert rank(twist) == 2
    b_alt = g.mats[0] @ twist
    one = build_block_plan(GemSet([b_alt], rate=3), plan.design)
    assert one.P_hat == plan.P_hat
    sp = one.sinks[0]
    assert sp == reference_sink_block_plan(GF3, plan.design.spanner, plan.design.blocks,
                                           plan.P_hat, b_alt, 1, g.spans[0])
    assert sp.decoded_indices == plan.sinks[0].decoded_indices
    assert plan.P_hat @ b_alt @ sp.D_hat == sp.R_hat
    for v in itertools.product(range(3), repeat=3):
        x = row_times(v, plan.P_hat)
        received = row_times(x, b_alt)
        assert row_times(received, sp.D_hat) == tuple(v[j] for j in sp.decoded_indices)
