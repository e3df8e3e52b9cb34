"""gallaikit: construct, verify and certify rainbow-subgraph-free edge
colourings of complete graphs with prescribed colour distributions."""

from .core import (
    Colouring,
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    colour_counts,
    degeneracy,
    is_n_good,
)
from .constructor import (
    SplitCertificate,
    SplitState,
    StageConstants,
    construct,
    construct_greedy,
    construct_mindeg3,
    construct_staged,
    realize_certificate,
)
from .verifier import (
    Embedding,
    GallaiPartition,
    find_gallai_partition,
    find_rainbow_subgraph,
    find_rainbow_triangle,
    verify_certificate,
)
from .bounds import (
    InfeasibilityCertificate,
    clash_bound_check,
    peel_splitting_process,
    tree_forced_check,
    tree_threshold,
    triangle_hard_sequence,
    triangle_infeasibility_check,
)

__all__ = [
    "Colouring", "DistributionSequence", "TargetGraph",
    "balanced_sequence", "colour_counts", "degeneracy", "is_n_good",
    "SplitCertificate", "SplitState", "StageConstants",
    "construct", "construct_greedy", "construct_mindeg3", "construct_staged",
    "realize_certificate",
    "Embedding", "GallaiPartition",
    "find_gallai_partition", "find_rainbow_subgraph", "find_rainbow_triangle",
    "verify_certificate",
    "InfeasibilityCertificate", "clash_bound_check", "peel_splitting_process",
    "tree_forced_check", "tree_threshold",
    "triangle_hard_sequence", "triangle_infeasibility_check",
]

__version__ = "0.1.0"
