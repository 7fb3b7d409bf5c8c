"""Exact inference over binary hierarchical clusterings of small datasets.

The dense trellis memoizes one cell per cluster (subset of leaves) and
computes the partition function, the maximum-potential hierarchy, cluster
and sub-hierarchy marginals, and exact posterior samples without touching
the (2n-3)!! individual trees.  A sparse trellis, seeded from generator or
beam-search trees, runs the same recursions approximately at larger n.
"""

from .core import (
    BITSET_MAX_LEAVES,
    DENSE_MAX_LEAVES,
    LOG_ZERO,
    GroundSet,
    Hierarchy,
    full_mask,
    leaf_indices,
    log_sum_exp,
    lowest_leaf,
    mask_of,
    num_hierarchies,
    pivot_splits,
    popcount,
    relabel_hierarchy,
    split_term_count,
)
from .models import (
    ConstantModel,
    CorrelationModel,
    DasguptaModel,
    FourVector,
    GinkgoModel,
    ModelParams,
    PairwiseWeights,
    PotentialModel,
    log_hierarchy_potential,
    log_splitting_density,
)
from .trellis import DenseTrellis
from .oracle import enumerate_hierarchies, oracle_summary
from .baselines import beam_search_cluster, beam_search_forest, greedy_cluster
from .sparse import (
    LeafOrdering,
    SparseTrellis,
    build_beam_search_trellis,
    build_from_trees,
    build_simulator_trellis,
)
from .jetgen import GeneratedJet, JetConfig, generate_jet

__version__ = "0.1.0"

__all__ = [
    "BITSET_MAX_LEAVES",
    "ConstantModel",
    "CorrelationModel",
    "DasguptaModel",
    "DenseTrellis",
    "DENSE_MAX_LEAVES",
    "FourVector",
    "GeneratedJet",
    "GinkgoModel",
    "GroundSet",
    "Hierarchy",
    "JetConfig",
    "LeafOrdering",
    "LOG_ZERO",
    "ModelParams",
    "PairwiseWeights",
    "PotentialModel",
    "SparseTrellis",
    "beam_search_cluster",
    "beam_search_forest",
    "build_beam_search_trellis",
    "build_from_trees",
    "build_simulator_trellis",
    "enumerate_hierarchies",
    "full_mask",
    "generate_jet",
    "greedy_cluster",
    "leaf_indices",
    "log_hierarchy_potential",
    "log_splitting_density",
    "log_sum_exp",
    "lowest_leaf",
    "mask_of",
    "num_hierarchies",
    "oracle_summary",
    "pivot_splits",
    "popcount",
    "relabel_hierarchy",
    "split_term_count",
]
