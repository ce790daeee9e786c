"""Linear multicast network codes over GF(p) with sub-rate precoding.

Build a code on an acyclic single-source network, then either a precoder
that lets every sub-rate sink decode a fixed share of the messages, or a
block plan that trades latency for decoding rate when no precoder can.
The package exports what the README's Library section uses; every other
name lives in its module.
"""

from .fields import FieldSpec
from .linalg import Mat, rank, row_times, subspace_intersect, subspace_sum
from .netgraph import Network, max_flow
from .multicast import build_multicast, decode_full_rate, extract_gem, simulate
from .subrate import GemSet, NotFullyDecodable, comss_c, comss_exhaustive, fsrd_check
from .blockcode import build_partial_general, build_precoder, lift_block, optimize_block_plan
from .advisor import rate_ratio_curve, rate_ratio_verdict

__all__ = [
    "FieldSpec",
    "Mat", "rank", "row_times", "subspace_intersect", "subspace_sum",
    "Network", "max_flow",
    "build_multicast", "decode_full_rate", "extract_gem", "simulate",
    "GemSet", "NotFullyDecodable", "comss_c", "comss_exhaustive", "fsrd_check",
    "build_partial_general", "build_precoder", "lift_block", "optimize_block_plan",
    "rate_ratio_curve", "rate_ratio_verdict",
]

__version__ = "0.2.0"
