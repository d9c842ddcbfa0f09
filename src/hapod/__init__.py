"""Hierarchical approximate POD: compose many small PODs over a rooted tree
to compress a large snapshot set with certified error and mode-count bounds."""

from .datagen import BurgersConfig, GenerationError, burgers_snapshots, synthetic_decay
from .hierarchy import (
    HapodResult,
    IncrementalSession,
    LeafAssignment,
    NodeReport,
    SessionError,
    ToleranceAssignment,
    actual_mean_error,
    assign_tolerances,
    certified_squared_error,
    distribute_columns,
    error_bound,
    run_hapod,
)
from .parallel import ExecStats, critical_path_time, run_parallel
from .pod import (
    InnerProductSpace,
    ModeSet,
    PodBackend,
    SnapshotBlock,
    block_gramian_pod,
    gramian,
    pod,
    truncation_rank,
)
from .tree import (
    RootedTree,
    TreeMaps,
    build_balanced,
    build_chain,
    build_star,
    derive_maps,
    format_tree_text,
    parse_tree_text,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BurgersConfig",
    "ExecStats",
    "GenerationError",
    "HapodResult",
    "IncrementalSession",
    "InnerProductSpace",
    "LeafAssignment",
    "ModeSet",
    "NodeReport",
    "PodBackend",
    "RootedTree",
    "SessionError",
    "SnapshotBlock",
    "ToleranceAssignment",
    "TreeMaps",
    "actual_mean_error",
    "assign_tolerances",
    "block_gramian_pod",
    "build_balanced",
    "build_chain",
    "build_star",
    "burgers_snapshots",
    "certified_squared_error",
    "critical_path_time",
    "derive_maps",
    "distribute_columns",
    "error_bound",
    "format_tree_text",
    "gramian",
    "parse_tree_text",
    "pod",
    "run_hapod",
    "run_parallel",
    "synthetic_decay",
    "truncation_rank",
    "validate",
]
