"""Should a weak node be a designated sink, or settle for sub-rate symbols?

Designating one more sink pushes the working field past one more prime,
which costs bits per symbol everywhere.  The verdict compares the node's
consequential rate against that cost, exactly, with no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, List, Optional, Tuple

from .fields import smallest_prime_greater_than

PREFER_SUB_RATE = "prefer-sub-rate"
PREFER_SINK = "prefer-sink"


@dataclass(frozen=True)
class SinkAdvice:
    node: Optional[Hashable]
    h_t: int
    r_t: int
    F_bits: int
    F_prime_bits: int
    verdict: str


def field_bits(p: int) -> int:
    """ceil(log2 p); exact for primes since 2 is the only prime power of two."""
    return (p - 1).bit_length()


def rate_ratio_verdict(h_t: int, r_t: int, num_sinks: int, node=None) -> SinkAdvice:
    """Exact cross-multiplied comparison r_t/F_bits >= h_t/F'_bits."""
    if r_t > h_t:
        raise ValueError("consequential max-flow cannot exceed max-flow")
    if num_sinks < 1:
        raise ValueError("need at least one sink")
    F = smallest_prime_greater_than(num_sinks)
    F_prime = smallest_prime_greater_than(num_sinks + 1)
    fb = field_bits(F)
    fpb = field_bits(F_prime)
    verdict = PREFER_SUB_RATE if r_t * fpb >= h_t * fb else PREFER_SINK
    return SinkAdvice(node=node, h_t=h_t, r_t=r_t, F_bits=fb, F_prime_bits=fpb, verdict=verdict)


def rate_ratio_curve(max_sinks: int) -> List[Tuple[int, Fraction]]:
    """Threshold on r_t/h_t above which staying sub-rate wins, per sink count."""
    if max_sinks < 1:
        raise ValueError("need max_sinks >= 1")
    out = []
    for n in range(1, max_sinks + 1):
        fb = field_bits(smallest_prime_greater_than(n))
        fpb = field_bits(smallest_prime_greater_than(n + 1))
        out.append((n, Fraction(fb, fpb)))
    return out
