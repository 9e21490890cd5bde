"""The paper's spanner algorithms and parameter formulas.

Entry points
------------
:func:`baswana_sen`
    The classic (2k-1)-spanner baseline (``t = k-1`` extreme).
:func:`cluster_merging`
    Section 4: ``O(log k)`` iterations, stretch ``O(k^{log 3})``.
:func:`two_phase_contraction`
    Section 3: ``O(sqrt(k))`` iterations, stretch ``O(k)``.
:func:`general_tradeoff`
    Section 5 / Theorem 1.1: any ``t``; ``t = log k`` gives stretch
    ``k^{1+o(1)}`` in ``O(log^2 k / log log k)`` iterations.
:func:`unweighted_spanner`
    Appendix B / Theorem 1.3: unweighted ``O(k)`` stretch in ``O(log k)``
    rounds.
"""

from . import membudget
from .baswana_sen import baswana_sen
from .cluster_merging import cluster_merging
from .contraction import two_phase_contraction
from .forest import ClusterForest, ClusterTreeStats, forest_stats, reroot
from .engine import (
    EdgeSet,
    GrowthOutcome,
    contract_clusters,
    phase2_edges,
    run_growth_iterations,
)
from .general_tradeoff import default_t, general_tradeoff
from .params import (
    TradeoffPoint,
    apsp_parameters,
    bs_size_bound,
    bs_stretch_bound,
    cluster_count_bound,
    coerce_rng,
    mpc_rounds_bound,
    num_epochs,
    sampling_probability,
    size_bound,
    stretch_bound,
    stretch_exponent,
    total_iterations,
    tradeoff_table,
)
from .results import IterationStats, MPCRunStats, RoundStats, SpannerResult, StreamStats
from .unweighted import unweighted_spanner

__all__ = [
    "membudget",
    "baswana_sen",
    "cluster_merging",
    "two_phase_contraction",
    "general_tradeoff",
    "default_t",
    "unweighted_spanner",
    "EdgeSet",
    "ClusterForest",
    "ClusterTreeStats",
    "forest_stats",
    "reroot",
    "GrowthOutcome",
    "run_growth_iterations",
    "contract_clusters",
    "phase2_edges",
    "IterationStats",
    "MPCRunStats",
    "RoundStats",
    "StreamStats",
    "SpannerResult",
    "TradeoffPoint",
    "apsp_parameters",
    "bs_size_bound",
    "bs_stretch_bound",
    "cluster_count_bound",
    "coerce_rng",
    "mpc_rounds_bound",
    "num_epochs",
    "sampling_probability",
    "size_bound",
    "stretch_bound",
    "stretch_exponent",
    "total_iterations",
    "tradeoff_table",
]
