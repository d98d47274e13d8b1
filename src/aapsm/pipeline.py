"""End-to-end orchestration: detection, correction, and report assembly.

Reports are ordered (key, value) lists so their text form is stable; nothing
non-deterministic (timing, paths) enters a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bipartize import (
    ConflictSet,
    bipartize_greedy,
    bipartize_optimal,
    finalize_conflicts,
)
from .conflict_graph import (
    PhaseConflictGraph,
    build_conflict_graph,
    is_bipartite,
    phase_assign,
    WEIGHT_UNIFORM,
)
from .errors import InternalInvariantError, UncorrectableConflictError
from .layout import (
    Layout,
    Shifter,
    find_critical_features,
    find_overlapping_pairs,
    generate_shifters,
)
from .planar import DualGraph, PlanarEmbedding, build_dual, planarize
from .spacing import (
    AreaReport,
    SpacePlan,
    apply_spaces,
    compute_intervals,
    plan_spaces,
)
from .tjoin import MODE_GENERALIZED


@dataclass
class DetectionResult:
    layout: Layout
    shifters: tuple[Shifter, ...]
    overlap_pairs: tuple
    graph: PhaseConflictGraph
    embedding: PlanarEmbedding
    dual: DualGraph
    optimal_edge_ids: tuple[int, ...]  # bipartization on the embedded graph (NP)
    optimal_weight: int
    conflicts: ConflictSet  # final set including planarization casualties (PCG)
    phases: dict[int, int]
    greedy: tuple[tuple[int, ...], int, int] | None = None
    report: list[tuple[str, str]] = field(default_factory=list)
    weight_mode: str = WEIGHT_UNIFORM


@dataclass
class CorrectionResult:
    detection: DetectionResult
    plan: SpacePlan
    new_layout: Layout
    area: AreaReport
    uncovered: tuple
    residual_conflicts: int
    report: list[tuple[str, str]] = field(default_factory=list)


def detect(
    layout: Layout,
    design_name: str = "design",
    weight_mode: str = WEIGHT_UNIFORM,
    run_greedy_baseline: bool = False,
) -> DetectionResult:
    """Run the conflict detection flow and assemble the per-design report."""
    shifters = generate_shifters(layout)
    pairs = find_overlapping_pairs(shifters, layout.rules)
    graph = build_conflict_graph(shifters, pairs, layout.rules, weight_mode)
    balanced_before = is_bipartite(graph).ok

    embedding = planarize(graph)
    dual = build_dual(embedding)

    optimal_edge_ids, optimal_weight, _ = bipartize_optimal(embedding, dual)

    conflicts = finalize_conflicts(
        graph, embedding.removed_edge_ids, optimal_edge_ids
    )
    phases = phase_assign(graph, frozenset(conflicts.edge_ids))
    # Balanced means T is empty and no casualty contradicts, so no conflicts;
    # no conflicts means phase_assign verified every edge, so balanced.
    if balanced_before == bool(conflicts.conflicts):
        raise InternalInvariantError(
            "structural two-coloring and signed conflict selection disagree "
            f"(balanced_before={balanced_before}, conflicts={len(conflicts)})"
        )

    greedy = bipartize_greedy(graph) if run_greedy_baseline else None

    report: list[tuple[str, str]] = [
        ("design", design_name),
        ("polygons", str(len(layout.features))),
        ("critical_features", str(len(find_critical_features(layout)))),
        ("shifters", str(len(shifters))),
        ("shifter_overlaps", str(len(pairs))),
        ("graph_nodes", str(len(graph.nodes))),
        ("graph_edges", str(len(graph.edges))),
        ("perturbed_overlap_nodes", str(len(graph.perturbed_nodes))),
        ("balanced_before", "1" if balanced_before else "0"),
        ("crossings_removed", str(len(embedding.removed_edge_ids))),
        # a constant the golden reports and perfbench's replay both pin
        ("gadget_mode", MODE_GENERALIZED),
        ("weight_mode", weight_mode),
        ("conflicts_np", str(len(optimal_edge_ids))),
        ("weight_np", str(optimal_weight)),
        ("conflicts_pcg", str(len(conflicts))),
        ("weight_pcg", str(conflicts.total_weight)),
    ]
    if greedy is not None:
        deleted, literal, g_weight = greedy
        report.append(("conflicts_gb", str(len(deleted))))
        report.append(("conflicts_gb_literal", str(literal)))
        report.append(("weight_gb", str(g_weight)))
    # phase_assign above raised unless the graph minus the conflicts is balanced
    report.append(("residual_balanced", "1"))

    return DetectionResult(
        layout,
        shifters,
        pairs,
        graph,
        embedding,
        dual,
        optimal_edge_ids,
        optimal_weight,
        conflicts,
        phases,
        greedy,
        report,
        weight_mode,
    )


def correct(
    detection: DetectionResult,
    exact_cover_limit: int = 20,
    allow_uncovered: bool = False,
) -> CorrectionResult:
    """Plan and apply spaces for the detected conflicts, then re-detect.

    Without a cut the layout is unchanged and the residual count is the
    input detection's own conflict count.

    Raises UncorrectableConflictError when some conflict admits no cut, unless
    allow_uncovered is set (the remaining conflicts are then reported and the
    coverable ones still corrected).
    """
    layout = detection.layout
    intervals, uncoverable = compute_intervals(
        layout, detection.shifters, detection.conflicts
    )
    critical = find_critical_features(layout)
    plan = plan_spaces(intervals, critical, exact_cover_limit)

    uncovered_keys = {c.shifter_pair for c in uncoverable} | set(plan.uncovered)
    if uncovered_keys and not allow_uncovered:
        listing = ", ".join(f"{a}-{b}" for a, b in sorted(uncovered_keys))
        raise UncorrectableConflictError(
            f"{len(uncovered_keys)} conflict(s) cannot be corrected by "
            f"end-to-end spaces: {listing}",
            sorted(uncovered_keys),
        )

    new_layout, area = apply_spaces(layout, detection.shifters, plan)
    if plan.cuts:
        residual = detect(
            new_layout, design_name="residual", weight_mode=detection.weight_mode
        )
        residual_count = len(residual.conflicts)
    else:
        # no space inserted: detect is deterministic, so re-detecting the
        # unchanged layout would reproduce the input detection
        if new_layout.rects != layout.rects or new_layout.bbox != layout.bbox:
            raise InternalInvariantError("a plan without cuts changed the layout")
        residual_count = len(detection.conflicts)

    report = list(detection.report)
    area_um2 = area.old_area_nm2 / 1e6
    report.extend(
        [
            ("area_um2", f"{area_um2:.4f}"),
            ("cuts", str(len(plan.cuts))),
            ("cuts_greedy", str(plan.greedy_cut_count)),
            (
                "cuts_exact",
                "na" if plan.exact_cut_count is None else str(plan.exact_cut_count),
            ),
            (
                "max_conflicts_per_cut",
                str(max((len(c.covered) for c in plan.cuts), default=0)),
            ),
            ("inserted_width_x_nm", str(area.inserted_x_nm)),
            ("inserted_width_y_nm", str(area.inserted_y_nm)),
            ("pct_area_increase", f"{area.pct_increase:.4f}"),
            ("uncovered", str(len(uncovered_keys))),
            ("residual_conflicts", str(residual_count)),
        ]
    )
    return CorrectionResult(
        detection,
        plan,
        new_layout,
        area,
        tuple(sorted(uncovered_keys)),
        residual_count,
        report,
    )


def render_report(report: list[tuple[str, str]]) -> str:
    return "\n".join(f"{k}={v}" for k, v in report) + "\n"
