"""One test per release gate; each prints a PASS line with the numbers.

Run with -s to see the lines, or -v for the per-gate verdicts.
"""

import itertools
import random
import time
from fractions import Fraction

from srlnc import (
    GemSet,
    Mat,
    build_multicast,
    build_precoder,
    comss_c,
    comss_exhaustive,
    decode_full_rate,
    extract_gem,
    fsrd_check,
    lift_block,
    max_flow,
    optimize_block_plan,
    rank,
    rate_ratio_curve,
    rate_ratio_verdict,
    row_times,
    simulate,
    subspace_intersect,
    subspace_sum,
)

from helpers import (
    GF2,
    GF3,
    butterfly,
    gems_four_planes,
    gems_hyperplanes,
    gems_shared_axis,
    gems_three_planes,
    profile_rows,
    random_gemset,
)


def test_acceptance_1_butterfly_end_to_end():
    t0 = time.monotonic()
    net = butterfly(weak_sink=True)
    flows = {t: max_flow(net, t).value for t in (6, 7, 8)}
    assert flows == {6: 2, 7: 2, 8: 1}

    code = build_multicast(net, [6, 7, 8], seed=0)
    gem6 = extract_gem(code, net, 6)
    gem7 = extract_gem(code, net, 7)
    gem8 = extract_gem(code, net, 8)
    gems = GemSet([gem8.matrix], rate=2)
    plan = build_precoder(gems)
    sp = plan.sinks[0]
    assert len(sp.decoded_indices) == 1

    rng = random.Random(1)
    for _ in range(100):
        v = tuple(rng.randrange(3) for _ in range(2))
        sym = simulate(net, code, [row_times(v, plan.P_hat)])
        for gem in (gem6, gem7):
            y = tuple(sym[e][0] for e in gem.used_edges)
            assert decode_full_rate(gem, plan.P_hat, y) == v
        y8 = tuple(sym[e][0] for e in gem8.used_edges)
        assert row_times(y8, sp.D_hat) == tuple(v[j] for j in sp.decoded_indices)

    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"ACCEPTANCE 1 PASS: flows 2/2/1, sinks decode 2/2/1 symbols "
          f"over 100 messages, {dt:.2f}s")


def test_acceptance_2_worked_three_plane_example():
    t0 = time.monotonic()
    g = gems_three_planes()
    assert tuple(comss_c(g, c) for c in (1, 2, 3)) == (0, 3, 0)
    assert fsrd_check(g) == (0, 3, 0)

    spanner = ((2, 1, 1), (1, 1, 0), (1, 1, 1))
    plan = build_precoder(g, spanner=spanner)
    assert plan.P_hat.to_lists() == [[1, 2, 0], [0, 1, 2], [2, 1, 1]]
    ds = [sp.D_hat.to_lists() for sp in plan.sinks]
    assert ds == [[[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 1], [1, 0]]]

    # the P.B.D = R contract holds regardless of spanner or member order
    for pl, gg in ((plan, g),
                   (build_precoder(g), g),
                   (build_precoder(GemSet(list(reversed(g.mats)), 3)),
                    GemSet(list(reversed(g.mats)), 3))):
        for i, sp in enumerate(pl.sinks):
            assert pl.P_hat @ gg.mats[i] @ sp.D_hat == sp.R_hat

    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"ACCEPTANCE 2 PASS: comss (0,3,0), exact P and decoders, {dt:.2f}s")


def test_acceptance_3_shared_axis_impossibility():
    t0 = time.monotonic()
    g = gems_shared_axis()
    assert fsrd_check(g) is None
    n = comss_exhaustive(g)
    d = g.total_span().dim
    assert n == 4 and d == 3 and n > d

    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 3 PASS: no feasible profile, comss {n} > dim {d}, {dt:.2f}s")


def test_acceptance_4_block_plan_rates():
    t0 = time.monotonic()
    g1 = gems_shared_axis()
    plan1 = optimize_block_plan(g1, l_max=3)
    assert min(sp.rate for sp in plan1.sinks) == Fraction(5, 3)

    g2 = gems_four_planes()
    for a, b in itertools.combinations(g2.spans, 2):
        assert subspace_intersect(a, b).dim == 1
    for a, b, c in itertools.combinations(g2.spans, 3):
        assert subspace_intersect(subspace_intersect(a, b), c).dim == 0
    plan2 = optimize_block_plan(g2, l_max=4)
    assert min(sp.rate for sp in plan2.sinks) == Fraction(3, 2)

    rng = random.Random(4)
    for g, plan in ((g1, plan1), (g2, plan2)):
        lifted = [lift_block(g.mats[i], plan.l) for i in range(g.k)]
        for _ in range(50):
            v = tuple(rng.randrange(3) for _ in range(plan.l * g.rate))
            x = row_times(v, plan.P_hat)
            for i, sp in enumerate(plan.sinks):
                got = row_times(row_times(x, lifted[i]), sp.D_hat)
                assert got == row_times(v, sp.R_hat)

    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"ACCEPTANCE 4 PASS: min rates 5/3 (l={plan1.l}) and 3/2 (l={plan2.l}), "
          f"100 block round-trips, {dt:.2f}s")


def test_acceptance_5_profile_catalogue():
    t0 = time.monotonic()
    rows = profile_rows()
    for row in rows:
        g = row["gems"]
        for subset, want in row["inter"].items():
            spans = [g.spans[i] for i in subset]
            cur = spans[0]
            for s in spans[1:]:
                cur = subspace_intersect(cur, s)
            assert cur.dim == want, row["name"]
        got_comss = tuple(comss_c(g, c) for c in range(1, g.k + 1))
        assert got_comss == row["comss"], row["name"]
        assert sum(g.h(i) for i in range(g.k)) == row["sum_h"], row["name"]
        assert g.total_span().dim == row["dim_sum"], row["name"]
        assert fsrd_check(g) == row["i_bar"], row["name"]

    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"ACCEPTANCE 5 PASS: {len(rows)} catalogued profiles reproduced, {dt:.2f}s")


def test_acceptance_6_randomized_property_suite():
    t0 = time.monotonic()
    rng = random.Random(2026)
    feasible = 0
    for _ in range(500):
        field = rng.choice([GF2, GF3])
        r = rng.randrange(2, 5)
        g = random_gemset(rng, field, r, 3)

        for i, j in itertools.combinations(range(g.k), 2):
            a, b = g.spans[i], g.spans[j]
            assert a.dim + b.dim == \
                subspace_sum(a, b).dim + subspace_intersect(a, b).dim

        assert comss_exhaustive(g) >= g.total_span().dim

        i_bar = fsrd_check(g)
        if i_bar is None:
            continue
        feasible += 1
        while True:
            m = Mat(field, [[rng.randrange(field.p) for _ in range(r)]
                            for _ in range(r)])
            if rank(m) == r:
                break
        plan = build_precoder(g)
        assert rank(plan.P_hat @ m) == r
        for _ in range(3):
            v = tuple(rng.randrange(field.p) for _ in range(r))
            x = row_times(v, plan.P_hat)
            for i, sp in enumerate(plan.sinks):
                y = row_times(x, g.mats[i])
                assert row_times(y, sp.D_hat) == tuple(v[j] for j in sp.decoded_indices)

    # single-member sets and hyperplane families are always decodable
    for field in (GF2, GF3):
        for r in range(2, 5):
            single = random_gemset(rng, field, r, 1)
            assert fsrd_check(single) is not None
            build_precoder(single)
            for l in range(1, r + 1):
                fam = gems_hyperplanes(field, r, l)
                assert fsrd_check(fam) is not None
                build_precoder(fam)

    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"ACCEPTANCE 6 PASS: 500 random GemSets ({feasible} decodable, "
          f"all round-trips exact), families always decodable, {dt:.2f}s")


def test_acceptance_7_rate_ratio_curve():
    t0 = time.monotonic()
    curve = rate_ratio_curve(50)
    assert len(curve) == 50
    assert all(isinstance(b, Fraction) and 0 < b <= 1 for _, b in curve)
    assert curve[1] == (2, Fraction(2, 3))
    for n, bound in curve:
        for h in range(1, 7):
            for r in range(0, h + 1):
                want = "prefer-sub-rate" if Fraction(r, h) >= bound else "prefer-sink"
                assert rate_ratio_verdict(h, r, num_sinks=n) == want

    dt = time.monotonic() - t0
    print(f"ACCEPTANCE 7 PASS: 50 exact curve entries, verdicts flip at the "
          f"threshold, {dt:.2f}s")
