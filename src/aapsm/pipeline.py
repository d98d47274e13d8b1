"""End-to-end orchestration: detection, correction, and report assembly.

Reports are ordered (key, value) lists so their text form is stable; nothing
non-deterministic (timing, paths) enters a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .bipartize import (
    ConflictSet,
    bipartize_greedy,
    bipartize_optimal,
    finalize_conflicts,
)
from .conflict_graph import (
    BipartiteResult,
    PhaseConflictGraph,
    build_conflict_graph,
    is_bipartite,
    phase_assign,
    WEIGHT_UNIFORM,
)
from .errors import InternalInvariantError, UncorrectableConflictError
from .layout import (
    Layout,
    ShifterSet,
    find_critical_features,
    find_overlapping_pairs,
    generate_shifters,
)
from .planar import PlanarEmbedding, embed, remove_crossings
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
    """What `detect` found on one layout.

    `embedding` (the crossing-free survivors of `removed_edge_ids`, embedded)
    is built on first access when `detect` did not need it: a layout whose
    conflict graph two-colors has no conflict, so `detect` embeds it only
    when asked.  An embedding `detect` built is kept.  The T-join reads the
    embedding's darts, so no dual is built (`build_dual` makes one).
    """

    layout: Layout
    shifters: ShifterSet
    overlap_pairs: tuple
    graph: PhaseConflictGraph
    removed_edge_ids: tuple[int, ...]  # deleted by planarization (the set P)
    optimal_edge_ids: tuple[int, ...]  # bipartization on the embedded graph (NP)
    optimal_weight: int
    conflicts: ConflictSet  # final set including planarization casualties (PCG)
    phases: dict[int, int]
    greedy: tuple[tuple[int, ...], int, int] | None = None
    report: list[tuple[str, str]] = field(default_factory=list)
    weight_mode: str = WEIGHT_UNIFORM
    _embedding: PlanarEmbedding | None = field(default=None, repr=False, compare=False)

    @property
    def embedding(self) -> PlanarEmbedding:
        if self._embedding is None:
            self._embedding = embed(self.graph, self.removed_edge_ids)
        return self._embedding


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
    return _detect_back(
        layout, _detect_front(layout, weight_mode), design_name, weight_mode,
        run_greedy_baseline,
    )


class _Front(NamedTuple):
    """What detection builds before removing crossings: enough to tell
    whether the layout has any conflict at all.  Its graph keeps every node
    at its built position; the back half's crossing search and embedding
    decide the drawing's ties by symbolic perturbation."""

    shifters: ShifterSet
    pairs: tuple
    graph: PhaseConflictGraph
    balance: BipartiteResult  # ok when the PCG two-colors, with its colors


def _detect_front(layout: Layout, weight_mode: str) -> _Front:
    shifters = generate_shifters(layout)
    pairs = find_overlapping_pairs(shifters, layout.rules)
    graph = build_conflict_graph(shifters, pairs, layout.rules, weight_mode)
    return _Front(shifters, pairs, graph, is_bipartite(graph))


def _detect_back(
    layout: Layout,
    front: _Front,
    design_name: str,
    weight_mode: str,
    run_greedy_baseline: bool = False,
) -> DetectionResult:
    """Crossing removal, then conflict set, phases and report, on what
    `_detect_front` built.  A PCG that does not two-color is also embedded,
    and a T-join over the faces of its darts picks the conflicts."""
    shifters, pairs, graph, balance = front
    balanced_before = balance.ok
    removed = remove_crossings(graph)
    if balanced_before:
        # Nothing to delete: phase_assign's loop checks every constraint
        # against the front's colors, so zero conflicts is optimal.
        embedding = None
        optimal_edge_ids, optimal_weight = (), 0
        conflicts = ConflictSet((), 0)
        try:
            phases = phase_assign(graph, colors=balance.colors)
        except InternalInvariantError as err:
            raise InternalInvariantError(
                f"two-coloring and its phase certificate disagree: {err}"
            ) from err
    else:
        # the T-join reads the embedding's darts; the dual is built on access
        embedding = embed(graph, removed)
        optimal_edge_ids, optimal_weight, _ = bipartize_optimal(embedding)
        conflicts = finalize_conflicts(graph, removed, optimal_edge_ids)
        phases = phase_assign(graph, frozenset(conflicts.edge_ids), conflicts.colors)
        # no conflicts would mean phase_assign verified every edge, so the
        # graph is balanced after all
        if not conflicts.conflicts:
            raise InternalInvariantError(
                "two-coloring and union-find conflict selection disagree "
                "(balanced_before=False, conflicts=0)"
            )

    greedy = bipartize_greedy(graph) if run_greedy_baseline else None

    report: list[tuple[str, str]] = [
        ("design", design_name),
        ("polygons", str(len(layout.features))),
        # generate_shifters makes two shifters per critical feature
        ("critical_features", str(len(shifters) // 2)),
        ("shifters", str(len(shifters))),
        ("shifter_overlaps", str(len(pairs))),
        ("graph_nodes", str(len(graph.positions))),
        ("graph_edges", str(len(graph.weights))),
        ("perturbed_overlap_nodes", str(len(graph.perturbed_nodes))),
        ("balanced_before", "1" if balanced_before else "0"),
        ("crossings_removed", str(len(removed))),
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
        removed,
        optimal_edge_ids,
        optimal_weight,
        conflicts,
        phases,
        greedy,
        report,
        weight_mode,
        embedding,
    )


def correct(
    detection: DetectionResult, allow_uncovered: bool = False
) -> CorrectionResult:
    """Plan and apply spaces for the detected conflicts, then count what is left.

    The residual count is what `detect` of the corrected layout would report.
    Its PCG is built and two-colored first, as `detect` does: when the
    two-coloring succeeds the count is 0, and crossing removal, the
    embedding and the T-join run only when it fails.
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
    # the planner reads the critical features only to drop candidate cuts
    critical = find_critical_features(layout) if intervals else ()
    plan = plan_spaces(intervals, critical)

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
        front = _detect_front(new_layout, detection.weight_mode)
        if front.balance.ok:
            # detect reports no conflict for a PCG that two-colors
            residual_count = 0
        else:
            residual = _detect_back(new_layout, front, "residual", detection.weight_mode)
            residual_count = len(residual.conflicts)
    else:
        # no space inserted: apply_spaces returns its input, and detect is
        # deterministic, so re-detecting it would reproduce the input detection
        if new_layout is not layout:
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
