import random
from fractions import Fraction

import pytest

from srlnc import (
    BlockDesign,
    GemSet,
    InfeasibleDesign,
    Mat,
    SearchSpaceTooLarge,
    block_decoder_for,
    build_block_plan,
    build_partial_general,
    build_precoder,
    lift_block,
    optimize_block_plan,
    rank,
    row_times,
)

from helpers import (
    GF3,
    gems_four_planes,
    gems_shared_axis,
    gems_three_planes,
    mat_cols,
    random_gemset,
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
    plan = build_block_plan(g, BlockDesign(spanner=sub.spanner, blocks=((0, 1, 2),)))
    assert plan.l == 1
    assert plan.P_hat == sub.P
    for i, sp in enumerate(plan.sinks):
        assert sp.D_hat == sub.sinks[i].D
        assert sp.R_hat == sub.sinks[i].R
        assert sp.decoded_indices == sub.sinks[i].decoded_indices
        assert sp.rate == Fraction(g.h(i), 1)


def test_build_block_plan_rejects_bad_designs():
    g = gems_shared_axis()
    with pytest.raises(InfeasibleDesign):
        build_block_plan(g, BlockDesign(spanner=((1, 0, 0), (2, 0, 0)), blocks=((0, 1),)))
    with pytest.raises(InfeasibleDesign):
        build_block_plan(g, BlockDesign(spanner=AXIS_DESIGN.spanner, blocks=()))


def test_block_decoder_for_other_basis():
    g = gems_shared_axis()
    plan = build_block_plan(g, AXIS_DESIGN)
    twist = Mat(GF3, [[2, 1], [1, 1]])
    b_alt = g.mats[0] @ twist
    sp = block_decoder_for(plan, 0, b_alt)
    assert sp.decoded_indices == plan.sinks[0].decoded_indices
    assert plan.P_hat @ lift_block(b_alt, plan.l) @ sp.D_hat == sp.R_hat


def test_build_partial_general_guarantees():
    for g in (gems_shared_axis(), gems_four_planes(), gems_three_planes()):
        plan = build_partial_general(g)
        for i, sp in enumerate(plan.sinks):
            assert len(sp.decoded_indices) >= g.h(i)
            assert sp.rate == Fraction(len(sp.decoded_indices), plan.l)
            assert plan.P_hat @ lift_block(g.mats[i], plan.l) @ sp.D_hat == sp.R_hat


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


def test_optimizer_argument_validation():
    with pytest.raises(ValueError):
        optimize_block_plan(gems_shared_axis(), l_max=0)
    with pytest.raises(SearchSpaceTooLarge):
        optimize_block_plan(gems_shared_axis(), l_max=3, max_designs=10)


def test_block_rates_never_exceed_member_dimension():
    rng = random.Random(17)
    for _ in range(15):
        g = random_gemset(rng, GF3, 3, 2)
        plan = build_partial_general(g)
        for i, sp in enumerate(plan.sinks):
            assert sp.rate <= g.h(i)
            rank_idx = len(set(sp.decoded_indices))
            assert rank_idx == len(sp.decoded_indices)
