"""Should a weak node be a designated sink, or settle for sub-rate symbols?

Designating one more sink pushes the working field past one more prime,
which costs bits per symbol everywhere.  The verdict compares the node's
consequential rate against that cost, exactly, with no floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .fields import smallest_prime_greater_than

PREFER_SUB_RATE = "prefer-sub-rate"
PREFER_SINK = "prefer-sink"


def field_bits(p: int) -> int:
    """ceil(log2 p); exact for primes since 2 is the only prime power of two."""
    return (p - 1).bit_length()


def _bits(num_sinks: int) -> Tuple[int, int]:
    """bits(F) and bits(F'): the fields for num_sinks and num_sinks + 1 sinks."""
    return (field_bits(smallest_prime_greater_than(num_sinks)),
            field_bits(smallest_prime_greater_than(num_sinks + 1)))


def rate_ratio_verdict(h_t: int, r_t: int, num_sinks: int) -> str:
    """PREFER_SUB_RATE when r_t/h_t >= bits(F)/bits(F'), compared
    cross-multiplied so that h_t = 0 needs no division."""
    if r_t > h_t:
        raise ValueError("consequential max-flow cannot exceed max-flow")
    if num_sinks < 1:
        raise ValueError("need at least one sink")
    fb, fpb = _bits(num_sinks)
    return PREFER_SUB_RATE if r_t * fpb >= h_t * fb else PREFER_SINK


def rate_ratio_curve(max_sinks: int) -> List[Tuple[int, Fraction]]:
    """Threshold on r_t/h_t above which staying sub-rate wins, per sink count."""
    if max_sinks < 1:
        raise ValueError("need max_sinks >= 1")
    return [(n, Fraction(*_bits(n))) for n in range(1, max_sinks + 1)]
