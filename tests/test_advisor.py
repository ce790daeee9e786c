from fractions import Fraction

import pytest

from srlnc import rate_ratio_curve, rate_ratio_verdict
from srlnc.advisor import PREFER_SINK, PREFER_SUB_RATE, field_bits


def test_field_bits():
    assert [field_bits(p) for p in (2, 3, 5, 7, 11, 13)] == [1, 2, 3, 3, 4, 4]


def test_rate_ratio_verdict():
    # two sinks work over GF(3), 2 bits; a third needs GF(5), 3 bits
    assert rate_ratio_verdict(3, 2, num_sinks=2) == PREFER_SUB_RATE  # 2*3 == 3*2, a tie
    assert rate_ratio_verdict(3, 1, num_sinks=2) == PREFER_SINK
    assert rate_ratio_verdict(4, 4, num_sinks=9) == PREFER_SUB_RATE
    assert rate_ratio_verdict(1, 0, num_sinks=2) == PREFER_SINK
    assert rate_ratio_verdict(0, 0, num_sinks=2) == PREFER_SUB_RATE  # no division by h_t
    with pytest.raises(ValueError):
        rate_ratio_verdict(2, 3, num_sinks=2)
    with pytest.raises(ValueError):
        rate_ratio_verdict(2, 1, num_sinks=0)


def test_rate_ratio_curve_values():
    curve = rate_ratio_curve(7)
    assert curve[0] == (1, Fraction(1, 2))
    assert curve[1] == (2, Fraction(2, 3))
    assert curve[2] == (3, Fraction(1))
    assert curve[4] == (5, Fraction(1))  # next prime past 6 is 7 again
    assert curve[5] == (6, Fraction(3, 4))
    assert all(0 < bound <= 1 for _, bound in curve)
    assert all(isinstance(bound, Fraction) for _, bound in curve)
    with pytest.raises(ValueError):
        rate_ratio_curve(0)


def test_verdict_matches_the_curve_threshold():
    curve = dict(rate_ratio_curve(10))
    for n in range(1, 11):
        for h in range(1, 5):
            for r in range(0, h + 1):
                want = PREFER_SUB_RATE if Fraction(r, h) >= curve[n] else PREFER_SINK
                assert rate_ratio_verdict(h, r, num_sinks=n) == want
