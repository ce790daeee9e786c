"""Linear multicast network codes over GF(p) with sub-rate precoding.

Build a code on an acyclic single-source network, then either a precoder
that lets every sub-rate sink decode a fixed share of the messages, or a
block plan that trades latency for decoding rate when no precoder can.
"""

from .fields import FieldSpec, is_prime, smallest_prime_greater_than
from .linalg import (
    ContractViolation,
    Mat,
    Singular,
    Subspace,
    change_basis_to_targets,
    complete_basis,
    invert,
    kernel_columns,
    rank,
    rank_of_vectors,
    row_times,
    solve_columns,
    subspace_intersect,
    subspace_sum,
    times_col,
)
from .netgraph import CycleDetected, FlowResult, Network, max_flow, topo_order
from .multicast import (
    CodeInvalidForSink,
    FieldTooSmall,
    Gem,
    LinearCode,
    RateExceedsSourceDegree,
    SimTrace,
    build_multicast,
    decode_full_rate,
    extract_gem,
    simulate,
)
from .subrate import (
    ConstructionFailed,
    GemSet,
    NotFullyDecodable,
    SearchSpaceTooLarge,
    SinkPlan,
    SpannerCertificate,
    SubRatePlan,
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
    subspace_lines,
)
from .blockcode import (
    BlockDesign,
    BlockPlan,
    BlockSinkPlan,
    InfeasibleDesign,
    block_decoder_for,
    build_block_plan,
    build_partial_general,
    lift_block,
    optimize_block_plan,
)
from .advisor import (
    PREFER_SINK,
    PREFER_SUB_RATE,
    SinkAdvice,
    consequential_maxflow,
    field_bits,
    rate_ratio_curve,
    rate_ratio_verdict,
)

__all__ = [
    "FieldSpec", "is_prime", "smallest_prime_greater_than",
    "ContractViolation", "Mat", "Singular", "Subspace",
    "change_basis_to_targets", "complete_basis", "invert", "kernel_columns",
    "rank", "rank_of_vectors", "row_times", "solve_columns",
    "subspace_intersect", "subspace_sum", "times_col",
    "CycleDetected", "FlowResult", "Network", "max_flow", "topo_order",
    "CodeInvalidForSink", "FieldTooSmall", "Gem", "LinearCode",
    "RateExceedsSourceDegree", "SimTrace", "build_multicast",
    "decode_full_rate", "extract_gem", "simulate",
    "ConstructionFailed", "GemSet", "NotFullyDecodable", "SearchSpaceTooLarge",
    "SinkPlan", "SpannerCertificate", "SubRatePlan", "build_precoder",
    "build_spanner", "comd", "compol", "comss_c",
    "comss_exhaustive", "decoder_for", "fsrd_check", "is_exact_spanner",
    "minimal_exact_spanner", "projective_rep", "subspace_lines",
    "BlockDesign", "BlockPlan", "BlockSinkPlan", "InfeasibleDesign",
    "block_decoder_for", "build_block_plan", "build_partial_general",
    "lift_block", "optimize_block_plan",
    "PREFER_SINK", "PREFER_SUB_RATE", "SinkAdvice", "consequential_maxflow",
    "field_bits", "rate_ratio_curve", "rate_ratio_verdict",
]

__version__ = "0.2.0"
