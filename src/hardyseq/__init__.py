"""Discrete iterated Hardy-type operators on weighted sequence windows.

Evaluation of the iterated supremal/summation operators, closed-form
optimal-constant estimates in all four (p, q) regimes, exact step-function
bridges between discrete and continuous forms, block partitions, and a
brute-force oracle that certifies lower bounds on the true constants.
"""

from .blocks import (
    BlockPartition,
    DoublingQuantities,
    PartitionReport,
    block_partition,
    doubling_lemma_check,
    verify_partition_invariants,
)
from .bridge import (
    BridgeCheckResult,
    PiecewiseLinear,
    StepFunction,
    bridge_check,
    cumulative,
    embed_sequence,
    sup_weighted_tail,
)
from .charformulas import (
    CharacterizationResult,
    char_antigop,
    char_gop,
    char_linft_exact,
)
from .envelopes import EnvelopeKind, envelope, reduce_weight_monotone
from .hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    DUAL_ANTIGOP,
    DUAL_GOP,
    GOP,
    GOP_SUP,
    OperatorForm,
    RatioProblem,
    antigop_psum,
    apply_iterated,
    dual_problem,
    elementary_chain_check,
    gop_psum,
    lhs,
    ratio,
    rhs,
)
from .oracle import (
    ChainEquivalenceReport,
    EquivalenceRatio,
    OracleConfig,
    OracleResult,
    brute_force_constant,
    brute_force_constants,
    chain_equivalence_sweep,
    chain_equivalence_sweeps,
    equivalence_ratio,
    equivalence_ratios,
    spike_oracle,
)
from .seqcore import (
    INF,
    Regime,
    RegimeCase,
    Window,
    classify_regime,
    ext_div,
    ext_mul,
    ext_pow,
)
from .verification import SweepSpec, run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "INF",
    "Window",
    "Regime",
    "RegimeCase",
    "classify_regime",
    "ext_pow",
    "ext_mul",
    "ext_div",
    "EnvelopeKind",
    "envelope",
    "reduce_weight_monotone",
    "OperatorForm",
    "RatioProblem",
    "GOP",
    "ANTIGOP",
    "DUAL_GOP",
    "DUAL_ANTIGOP",
    "GOP_SUP",
    "ANTIGOP_SUP",
    "gop_psum",
    "antigop_psum",
    "apply_iterated",
    "lhs",
    "rhs",
    "ratio",
    "elementary_chain_check",
    "dual_problem",
    "BlockPartition",
    "PartitionReport",
    "DoublingQuantities",
    "block_partition",
    "verify_partition_invariants",
    "doubling_lemma_check",
    "CharacterizationResult",
    "char_gop",
    "char_antigop",
    "char_linft_exact",
    "OracleConfig",
    "OracleResult",
    "EquivalenceRatio",
    "ChainEquivalenceReport",
    "spike_oracle",
    "brute_force_constant",
    "brute_force_constants",
    "equivalence_ratio",
    "equivalence_ratios",
    "chain_equivalence_sweep",
    "chain_equivalence_sweeps",
    "StepFunction",
    "PiecewiseLinear",
    "BridgeCheckResult",
    "embed_sequence",
    "cumulative",
    "sup_weighted_tail",
    "bridge_check",
    "SweepSpec",
    "run_verification",
]
