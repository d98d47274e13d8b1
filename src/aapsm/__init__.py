"""Bright-field AAPSM phase-conflict detection and correction.

Pipeline: rectangle layout -> shifters and overlap pairs -> phase conflict
graph -> geometric planarization -> dual-graph T-join by shortest paths ->
minimal conflict set -> end-to-end space insertion chosen by weighted set
cover.
"""

from .bipartize import (
    Conflict,
    ConflictSet,
    bipartize_greedy,
    bipartize_optimal,
    finalize_conflicts,
)
from .conflict_graph import (
    PhaseConflictGraph,
    PcgEdge,
    PcgNode,
    build_conflict_graph,
    dump_graph,
    is_bipartite,
    phase_assign,
)
from .errors import (
    AapsmError,
    GeometryError,
    InternalInvariantError,
    LayoutParseError,
    LayoutValidationError,
    MatchingInfeasibleError,
    UncorrectableConflictError,
)
from .generator import generate_layout
from .layout import (
    DesignRules,
    Layout,
    Rect,
    Shifter,
    ShifterSet,
    find_critical_features,
    find_overlapping_pairs,
    generate_shifters,
    parse_layout,
    serialize_layout,
)
from .matching import min_weight_perfect_matching
from .pipeline import CorrectionResult, DetectionResult, correct, detect
from .planar import (
    DualGraph,
    PlanarEmbedding,
    build_dual,
    embed,
    find_crossings,
    planarize,
    remove_crossings,
)
from .spacing import apply_spaces, compute_intervals, plan_spaces
from .tjoin import (
    EdgeAssignment,
    TJoinInstance,
    assign_edges,
    build_generalized_gadget_graph,
    build_optimized_gadget_graph,
    solve_tjoin,
    tjoin_from_graph,
)

__version__ = "0.1.0"
