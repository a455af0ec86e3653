"""Core CDAG data structures and graph analyses.

The :mod:`repro.core` package contains the computational-DAG model of the
paper (Section 2.1), the structural properties used by the lower-bound
machinery (dominators, In/Out sets, convex cuts, wavefronts), the
S-partition objects of the Hong-Kung and RBW games, schedule generation
and structured CDAG builders.
"""

from .cdag import CDAG, CDAGError, CycleError, Vertex
from .compiled import CompiledCDAG
from .builders import (
    broadcast_tree_cdag,
    butterfly_cdag,
    chain_cdag,
    dense_layer_cdag,
    diamond_cdag,
    grid_stencil_cdag,
    independent_chains_cdag,
    outer_product_cdag,
    pyramid_cdag,
    reduction_tree_cdag,
)
from .ordering import (
    dfs_schedule,
    dfs_schedule_ids,
    min_liveset_schedule,
    min_liveset_schedule_ids,
    priority_schedule,
    topological_schedule,
    validate_schedule,
)
from .partition import (
    SPartition,
    check_hong_kung_partition,
    check_rbw_partition,
    greedy_rbw_partition,
    largest_admissible_subset,
    partition_from_game,
    partition_from_schedule,
)
from .properties import (
    WavefrontSolver,
    convex_cut_for_vertex,
    has_circuit_between,
    in_set,
    is_convex_cut,
    is_dominator,
    max_min_wavefront,
    max_schedule_wavefront,
    min_wavefront,
    minimal_dominator_size,
    minimum_set,
    out_set,
    schedule_wavefronts,
    wavefront_of_cut,
)

__all__ = [
    "CDAG",
    "CDAGError",
    "CompiledCDAG",
    "CycleError",
    "Vertex",
    # builders
    "broadcast_tree_cdag",
    "butterfly_cdag",
    "chain_cdag",
    "dense_layer_cdag",
    "diamond_cdag",
    "grid_stencil_cdag",
    "independent_chains_cdag",
    "outer_product_cdag",
    "pyramid_cdag",
    "reduction_tree_cdag",
    # ordering
    "dfs_schedule",
    "dfs_schedule_ids",
    "min_liveset_schedule",
    "min_liveset_schedule_ids",
    "priority_schedule",
    "topological_schedule",
    "validate_schedule",
    # partitions
    "SPartition",
    "check_hong_kung_partition",
    "check_rbw_partition",
    "greedy_rbw_partition",
    "largest_admissible_subset",
    "partition_from_game",
    "partition_from_schedule",
    # properties
    "WavefrontSolver",
    "convex_cut_for_vertex",
    "has_circuit_between",
    "in_set",
    "is_convex_cut",
    "is_dominator",
    "max_min_wavefront",
    "max_schedule_wavefront",
    "min_wavefront",
    "minimal_dominator_size",
    "minimum_set",
    "out_set",
    "schedule_wavefronts",
    "wavefront_of_cut",
]
