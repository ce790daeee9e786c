import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srlnc import blockcode, subrate
from srlnc import (
    FieldSpec,
    GemSet,
    Mat,
    build_partial_general,
    build_precoder,
    lift_block,
    optimize_block_plan,
    rank,
    row_times,
)
from srlnc.linalg import ContractViolation, Subspace, complete_basis, rank_of_vectors
from srlnc.subrate import NotFullyDecodable, SearchSpaceTooLarge
from srlnc.blockcode import BlockDesign, build_block_plan

from helpers import (
    GF2,
    GF3,
    DEPENDENT_SPANNER_MATS,
    assert_checked_form,
    brute_min_spanner_size,
    gems_four_planes,
    gems_shared_axis,
    gems_three_planes,
    mat_cols,
    random_gemset,
    reference_optimize_block_plan,
    reference_sink_block_plan,
)

AXIS_DESIGN = BlockDesign(
    spanner=((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
    blocks=((0, 1, 3), (0, 2, 3), (1, 2, 3)),
)


def test_lift_block_structure():
    b = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    lifted = lift_block(b, 3)
    assert (lifted.rows, lifted.cols) == (9, 6)
    for bi in range(3):
        for i in range(3):
            for j in range(2):
                assert lifted.data[bi * 3 + i][bi * 2 + j] == b.data[i][j]
    assert sum(x != 0 for row in lifted.data for x in row) == 3 * 3
    assert rank(lifted) == 6
    assert lift_block(b, 1) == b
    with pytest.raises(ValueError):
        lift_block(b, 0)


def test_three_block_plan_for_the_shared_axis_set():
    g = gems_shared_axis()
    plan = build_block_plan(g, AXIS_DESIGN)
    assert plan.l == 3
    assert [sp.rate for sp in plan.sinks] == [Fraction(5, 3)] * 3
    assert plan.sinks[0].decoded_indices == (0, 2, 3, 5, 8)
    assert plan.sinks[1].decoded_indices == (1, 2, 5, 6, 8)
    assert plan.sinks[2].decoded_indices == (2, 4, 5, 7, 8)
    assert rank(plan.P_hat) == 9
    for i, sp in enumerate(plan.sinks):
        assert plan.P_hat @ lift_block(g.mats[i], 3) @ sp.D_hat == sp.R_hat


def test_block_plan_round_trips_messages():
    g = gems_shared_axis()
    plan = build_block_plan(g, AXIS_DESIGN)
    rng = random.Random(5)
    lr = plan.l * g.rate
    for _ in range(50):
        v = tuple(rng.randrange(3) for _ in range(lr))
        x = row_times(v, plan.P_hat)
        for i, sp in enumerate(plan.sinks):
            received = row_times(x, lift_block(g.mats[i], plan.l))
            got = row_times(received, sp.D_hat)
            assert got == row_times(v, sp.R_hat)
            # each use yields h symbols: its decoded messages, then padding
            h = g.h(i)
            expected = []
            for bi in range(plan.l):
                members = [j for j in sp.decoded_indices if j // g.rate == bi]
                expected.extend(v[j] for j in members)
                expected.extend([0] * (h - len(members)))
            assert got == tuple(expected)


def test_single_block_of_an_exact_spanner_reduces_to_the_precoder():
    g = gems_three_planes()
    sub = build_precoder(g)
    plan = build_block_plan(g, BlockDesign(spanner=sub.design.spanner, blocks=((0, 1, 2),)))
    assert plan.l == 1
    assert plan.P_hat == sub.P_hat
    for i, sp in enumerate(plan.sinks):
        assert sp.D_hat == sub.sinks[i].D_hat
        assert sp.R_hat == sub.sinks[i].R_hat
        assert sp.decoded_indices == sub.sinks[i].decoded_indices
        assert sp.rate == Fraction(g.h(i), 1)


def test_build_block_plan_rejects_bad_designs():
    # every caller hands in independent blocks, so a dependent or empty
    # design is a broken contract, not an infeasible input
    g = gems_shared_axis()
    with pytest.raises(ContractViolation, match=r"block \(0, 1\) is linearly dependent"):
        build_block_plan(g, BlockDesign(spanner=((1, 0, 0), (2, 0, 0)), blocks=((0, 1),)))
    with pytest.raises(ContractViolation, match="block design has no blocks"):
        build_block_plan(g, BlockDesign(spanner=AXIS_DESIGN.spanner, blocks=()))


def test_block_decoder_for_other_basis():
    # another basis of member 0's span gets its decoders from the one-member
    # plan of the same design, whose P_hat depends on the design alone
    g = gems_shared_axis()
    plan = build_block_plan(g, AXIS_DESIGN)
    twist = Mat(GF3, [[2, 1], [1, 1]])
    b_alt = g.mats[0] @ twist
    one = build_block_plan(GemSet([b_alt], rate=3), AXIS_DESIGN)
    assert one.P_hat == plan.P_hat
    sp = one.sinks[0]
    assert sp.decoded_indices == plan.sinks[0].decoded_indices
    assert sp.D_hat != plan.sinks[0].D_hat
    assert plan.P_hat @ lift_block(b_alt, plan.l) @ sp.D_hat == sp.R_hat
    assert sp == reference_sink_block_plan(GF3, AXIS_DESIGN.spanner, AXIS_DESIGN.blocks,
                                           plan.P_hat, b_alt, plan.l, g.spans[0])


def test_build_partial_general_guarantees():
    for g in (gems_shared_axis(), gems_four_planes(), gems_three_planes()):
        plan = build_partial_general(g)
        for i, sp in enumerate(plan.sinks):
            assert len(sp.decoded_indices) >= g.h(i)
            assert sp.rate == Fraction(len(sp.decoded_indices), plan.l)
            assert plan.P_hat @ lift_block(g.mats[i], plan.l) @ sp.D_hat == sp.R_hat


def test_build_partial_general_falls_back_to_the_member_bases(monkeypatch):
    g = gems_shared_axis()

    def give_up(gems):
        raise SearchSpaceTooLarge("no spanner search here")

    monkeypatch.setattr(subrate, "minimal_exact_spanner", give_up)
    plan = build_partial_general(g)
    bases = [v for s in g.spans for v in s.basis]
    assert plan.design.spanner == tuple(dict.fromkeys(bases))
    for i, sp in enumerate(plan.sinks):
        assert len(sp.decoded_indices) >= g.h(i)


def test_build_partial_general_single_member_is_full_rate():
    g = GemSet([mat_cols(GF3, (1, 1, 0), (0, 0, 1))], rate=3)
    plan = build_partial_general(g)
    assert plan.l == 1
    assert plan.sinks[0].rate == Fraction(2, 1)


def test_optimizer_on_the_shared_axis_set():
    g = gems_shared_axis()
    assert [sp.rate for sp in optimize_block_plan(g, l_max=3).sinks] == [Fraction(5, 3)] * 3
    got = [min(sp.rate for sp in optimize_block_plan(g, l_max=l).sinks) for l in (1, 2, 3)]
    assert got == [Fraction(1), Fraction(3, 2), Fraction(5, 3)]


def test_optimizer_on_the_four_plane_set():
    plan = optimize_block_plan(gems_four_planes(), l_max=4)
    assert min(sp.rate for sp in plan.sinks) == Fraction(3, 2)
    assert plan.l == 2  # the bound is already reached with two uses


def test_optimizer_prefers_single_use_when_fully_decodable():
    g = gems_three_planes()
    plan = optimize_block_plan(g, l_max=2)
    assert plan.l == 1
    assert [sp.rate for sp in plan.sinks] == [Fraction(2, 1)] * 3


def test_optimizer_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        optimize_block_plan(gems_shared_axis(), l_max=0)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 10)
    with pytest.raises(SearchSpaceTooLarge):
        optimize_block_plan(gems_shared_axis(), l_max=3)


def test_optimizer_node_budget_boundary(monkeypatch):
    g = gems_shared_axis()   # the best, 5/3 per use, needs l = 3
    want = optimize_block_plan(g, l_max=3)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 97)
    assert optimize_block_plan(g, l_max=3) == want
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", 96)
    with pytest.raises(SearchSpaceTooLarge, match="more than 96 candidate designs"):
        optimize_block_plan(g, l_max=3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]),
       r=st.sampled_from([3, 4]), k_max=st.integers(1, 5), l_max=st.integers(1, 3))
def test_optimizer_matches_the_exhaustive_reference(seed, p, r, k_max, l_max):
    g = random_gemset(random.Random(seed), FieldSpec(p), r, k_max)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subrate, "SEARCH_BUDGET", 20_000)
            subrate.minimal_exact_spanner(g)
        want = reference_optimize_block_plan(g, l_max)
    except SearchSpaceTooLarge:
        assume(False)
    assert optimize_block_plan(g, l_max) == want


def test_build_partial_general_blocks_are_the_independent_d_subsets():
    for g in (gems_shared_axis(), gems_four_planes(), gems_three_planes()):
        plan = build_partial_general(g)
        V = plan.design.spanner
        d = rank(Mat.from_cols(g.field, V))
        want = tuple(c for c in itertools.combinations(range(len(V)), d)
                     if rank(Mat.from_cols(g.field, [V[j] for j in c])) == d)
        assert plan.design.blocks == want


def test_block_rates_never_exceed_member_dimension():
    rng = random.Random(17)
    for _ in range(15):
        g = random_gemset(rng, GF3, 3, 2)
        plan = build_partial_general(g)
        for i, sp in enumerate(plan.sinks):
            assert sp.rate <= g.h(i)
            rank_idx = len(set(sp.decoded_indices))
            assert rank_idx == len(sp.decoded_indices)


def _distinct_nonzero(rng, field, r, n):
    """The first n distinct nonzero vectors that rng draws."""
    out = []
    while len(out) < n:
        v = tuple(rng.randrange(field.p) for _ in range(r))
        if any(v) and v not in out:
            out.append(v)
    return out


def _random_invertible(rng, field, n):
    while True:
        M = Mat(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        if rank(M) == n:
            return M


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5, 7]),
       r=st.integers(3, 5), l=st.integers(1, 4))
def test_block_plans_match_the_dense_reference(seed, p, r, l):
    """Every sink's decoders, built and checked block by block, equal the
    dense l*r construction, for the member bases and for other bases of
    the same spans through one-member plans of the same design, which
    share its P_hat.  Every matrix of the plan, built with the trusted
    `Mat._of`, is in the checked constructor's form."""
    rng = random.Random(seed)
    field = FieldSpec(p)
    g = random_gemset(rng, field, r, 4)
    # the member bases, a vector outside member 0's span, and two random
    # vectors, which mostly lie in no member span
    V = list(dict.fromkeys([v for s in g.spans for v in s.basis]
                           + complete_basis(g.spans[0])[:1]
                           + _distinct_nonzero(rng, field, r, 2)))
    outside = [j for j, v in enumerate(V) if not g.spans[0].contains(v)]
    blocks = [(rng.choice(outside),)]      # a block that member 0 holds none of
    while len(blocks) < l:
        picked = []
        for j in rng.sample(range(len(V)), len(V)):
            if len(picked) < rng.randint(1, r) and \
                    rank(Mat.from_cols(field, [V[i] for i in picked + [j]])) > len(picked):
                picked.append(j)
        blocks.append(tuple(picked))
    plan = build_block_plan(g, BlockDesign(spanner=tuple(V), blocks=tuple(blocks)))
    assert all(j >= r for j in plan.sinks[0].decoded_indices)
    assert_checked_form(plan.P_hat)
    for i, (B, span) in enumerate(zip(g.mats, g.spans)):
        assert plan.sinks[i] == reference_sink_block_plan(field, V, blocks, plan.P_hat, B, l, span)
        other = B @ _random_invertible(rng, field, B.cols)
        one = build_block_plan(GemSet([other], rate=r), plan.design)
        assert one.P_hat == plan.P_hat
        got = one.sinks[0]
        assert got == reference_sink_block_plan(field, V, blocks, plan.P_hat, other, l, span)
        for sp in (plan.sinks[i], got):
            assert_checked_form(sp.D_hat)
            assert_checked_form(sp.R_hat)


def test_build_partial_general_on_194_blocks_finishes_quickly():
    # eleven one-column members over GF(2) at r = 6: each independent
    # 6-subset of the eleven vectors is a block
    vs = _distinct_nonzero(random.Random(611), GF2, 6, 11)
    g = GemSet([Mat.from_cols(GF2, [v]) for v in vs], rate=6)
    start = time.perf_counter()
    plan = build_partial_general(g)
    assert time.perf_counter() - start < 5
    assert plan.l == 194
    assert all(len(sp.decoded_indices) >= 1 for sp in plan.sinks)


def test_build_partial_general_refuses_a_precoder_side_above_the_cap(monkeypatch):
    # the 194-block members extended to fourteen: 1308 blocks, so P_hat
    # would be 7848 by 7848; the cap refuses it before any matrix is built
    def never(*args):
        raise AssertionError("built a plan above the cap")

    vs = _distinct_nonzero(random.Random(611), GF2, 6, 14)
    g = GemSet([Mat.from_cols(GF2, [v]) for v in vs], rate=6)
    monkeypatch.setattr(blockcode, "build_block_plan", never)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge,
                       match="^1308 blocks give P_hat side 7848, above the cap 2048$"):
        build_partial_general(g)
    assert time.perf_counter() - start < 1
    monkeypatch.undo()
    # the cap is on the side l * r: 194 blocks at r = 6 is side 1164
    small = GemSet(g.mats[:11], rate=6)
    monkeypatch.setattr(blockcode, "MAX_SIDE", 1164)
    assert build_partial_general(small).P_hat.rows == 1164
    monkeypatch.setattr(blockcode, "MAX_SIDE", 1163)
    with pytest.raises(SearchSpaceTooLarge, match="side 1164, above the cap 1163"):
        build_partial_general(small)


def test_independent_subset_listing_budget_boundary(monkeypatch):
    g = gems_shared_axis()
    V = subrate.minimal_exact_spanner(g)
    listed = blockcode._independent_subsets(g, V)
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", len(listed))
    assert blockcode._independent_subsets(g, V) == listed
    monkeypatch.setattr(subrate, "SEARCH_BUDGET", len(listed) - 1)
    with pytest.raises(SearchSpaceTooLarge,
                       match=f"more than {len(listed) - 1} independent spanner subsets"):
        blockcode._independent_subsets(g, V)


# fsrd_check passes and build_spanner fails; the minimal exact spanner has
# 5 vectors at rate 4, so `precode --block` falls back to a block plan
FIVE_VECTOR_ROWS = ([[2, 1, 2], [0, 2, 0], [2, 2, 2], [1, 1, 2]], [[2, 1], [0, 0], [1, 1], [0, 1]],
                    [[0, 0], [2, 0], [0, 2], [1, 1]], [[0], [2], [2], [2]])


def _precode_block_2(g):
    """What `precode --block 2` does with one GemSet."""
    try:
        return build_precoder(g)
    except NotFullyDecodable:
        return optimize_block_plan(g, 2)


def test_a_dependent_minimal_spanner_rules_the_precoder_out():
    g = GemSet([Mat(GF2, rows) for rows in DEPENDENT_SPANNER_MATS], rate=4)
    assert subrate.fsrd_check(g) == (0, 2, 1, 0, 0)
    with pytest.raises(subrate.ConstructionFailed):
        subrate.build_spanner(g, (0, 2, 1, 0, 0))
    # no exact spanner of 3 or fewer vectors, so none is independent
    assert brute_min_spanner_size(g) == 4
    V = subrate.minimal_exact_spanner(g)
    assert len(V) == 4 and rank_of_vectors(GF2, V) == 3
    # the greedy common basis holds none of member 2's line, e_1
    assert subrate.common_basis(g) == ((0, 1, 0, 1), (0, 0, 0, 1), (1, 0, 1, 1))
    with pytest.raises(NotFullyDecodable, match="^the member spans have no common basis: "
                       "member 2 has rank 0 of 1 in the greedy basis$"):
        build_precoder(g)
    plan = _precode_block_2(g)
    assert plan.i_bar is None
    for B, sp in zip(g.mats, plan.sinks):
        assert plan.P_hat @ lift_block(B, plan.l) @ sp.D_hat == sp.R_hat


def test_a_guideline_failure_beside_a_common_basis_breaks_the_contract(monkeypatch):
    # the three planes have a common basis, so a guideline construction
    # that fails on them is a bug, not a refusal
    def fail(gems, i_bar):
        raise subrate.ConstructionFailed("could not collect 3 degree-2 vectors")

    monkeypatch.setattr(blockcode, "build_spanner", fail)
    with pytest.raises(ContractViolation, match="failed where a common basis exists"):
        build_precoder(gems_three_planes())


@pytest.mark.parametrize("p, rows", [(3, FIVE_VECTOR_ROWS), (2, DEPENDENT_SPANNER_MATS)],
                         ids=["five-vector", "dependent"])
def test_only_the_block_plan_searches_for_the_minimal_spanner(monkeypatch, p, rows):
    """Both sets pass the feasibility check and fail the guideline
    construction, so `build_precoder` refuses by the common-basis test,
    without the minimal exact spanner; `optimize_block_plan` then
    searches for it once."""
    g = GemSet([Mat(FieldSpec(p), m) for m in rows], rate=4)
    calls = []
    search = subrate.minimal_exact_spanner
    monkeypatch.setattr(subrate, "minimal_exact_spanner",
                        lambda gems: calls.append(gems) or search(gems))
    with pytest.raises(NotFullyDecodable, match="no common basis"):
        build_precoder(g)
    assert calls == []
    plan = optimize_block_plan(g, 2)
    assert calls == [g]
    assert plan.design.spanner == tuple(search(g))


@settings(max_examples=150, deadline=None)
@example(seed=4108, p=2, r=4, k_max=5)
@example(seed=7482, p=2, r=5, k_max=5)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([2, 3, 5]), r=st.integers(3, 5),
       k_max=st.integers(1, 5))
def test_precode_block_2_plans_every_set_its_searches_finish(seed, p, r, k_max):
    """A minimal exact spanner is independent exactly when it is as long as
    the members' total span is wide, so `precode --block 2` never hands
    `build_block_plan` a dependent block.  The examples are two of the rare
    sets whose minimal spanner is dependent and no longer than the rate
    (3 of the first 7057 seeds at p = 2, r = 4, k_max = 5)."""
    g = random_gemset(random.Random(seed), FieldSpec(p), r, k_max)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subrate, "SEARCH_BUDGET", 20_000)
            V = subrate.minimal_exact_spanner(g)
            plan = _precode_block_2(g)
    except SearchSpaceTooLarge:
        assume(False)
    assert (rank_of_vectors(g.field, V) == len(V)) == (len(V) == g.total_span().dim)
    for B, sp in zip(g.mats, plan.sinks):
        assert plan.P_hat @ lift_block(B, plan.l) @ sp.D_hat == sp.R_hat


@pytest.mark.parametrize("build", ["optimize", "partial", "precoder", "supplied", "fallback"])
def test_each_spanner_membership_is_tested_once_per_plan(monkeypatch, build):
    """Each (vector, member span) pair is tested once per GemSet, across
    build_spanner, is_exact_spanner, the subset listing and the decoders."""
    g, run = {
        "optimize": (gems_shared_axis(), lambda g: optimize_block_plan(g, 2)),
        "partial": (gems_shared_axis(), build_partial_general),
        "precoder": (gems_three_planes(), build_precoder),
        "supplied": (gems_three_planes(),
                     lambda g: build_precoder(g, spanner=[(2, 1, 1), (1, 1, 0), (1, 1, 1)])),
        "fallback": (GemSet([Mat(GF3, rows) for rows in FIVE_VECTOR_ROWS], rate=4),
                     _precode_block_2),
    }[build]
    tested = []
    contains = Subspace.contains
    monkeypatch.setattr(Subspace, "contains",
                        lambda span, v: tested.append((span, tuple(v))) or contains(span, v))
    plan = run(g)
    monkeypatch.undo()
    assert len(tested) == len(set(tested))
    assert {(span, v) for v in plan.design.spanner for span in g.spans} <= set(tested)
    # the single-use precoder carries its i_bar; a block plan does not
    assert (plan.i_bar is None) == (build in ("optimize", "partial", "fallback"))
    assert plan._replace(i_bar=None) == build_block_plan(g, plan.design)


def test_optimizer_stops_listing_subsets_at_the_budget():
    # twelve planes of GF(2)^10: a 23-vector minimal spanner with 1 689 167
    # independent subsets, more than the budget, so the listing gives up
    # before any design is scored
    rng = random.Random(4)
    mats, spans = [], []
    while len(mats) < 12:
        m = Mat.from_cols(GF2, [tuple(rng.randrange(2) for _ in range(10)) for _ in range(2)])
        try:
            span = GemSet([m], rate=10).spans[0]
        except ValueError:
            continue
        if span not in spans:
            mats.append(m)
            spans.append(span)
    g = GemSet(mats, rate=10)
    assert len(subrate.minimal_exact_spanner(g)) == 23
    with pytest.raises(SearchSpaceTooLarge,
                       match=f"more than {subrate.SEARCH_BUDGET} independent spanner subsets"):
        optimize_block_plan(g, 2)
