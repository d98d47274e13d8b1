"""Traced replay of ``detect``/``correct`` through the public stage functions.

The replay calls the same functions in the same order as ``aapsm.pipeline``
and wraps each call in a span, so per-layer times come from outside the
program.  It rebuilds the report as well; the benchmark compares it with the
report of the real ``detect``/``correct`` on every design.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from aapsm import (
    apply_spaces,
    bipartize_optimal,
    build_conflict_graph,
    build_dual,
    compute_intervals,
    finalize_conflicts,
    find_critical_features,
    find_overlapping_pairs,
    generate_shifters,
    is_bipartite,
    phase_assign,
    plan_spaces,
    planarize,
)
from aapsm.conflict_graph import WEIGHT_UNIFORM
from aapsm.tjoin import MODE_GENERALIZED


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span


class Tracer:
    """In-memory span recorder; one instance per design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        total = 0.0
        for idx, s in enumerate(self.spans):
            if s.name != name:
                continue
            children = sum(c.end - c.start for c in self.spans if c.parent == idx)
            total += s.end - s.start - children
        return total


@dataclass
class ReplayDetection:
    layout: object
    shifters: tuple
    pairs: tuple
    graph: object
    embedding: object
    dual: object
    optimal_edge_ids: tuple
    optimal_weight: int
    match_seconds: float
    conflicts: object
    phases: dict
    report: list[tuple[str, str]]


def traced_detect(tr: Tracer, layout, design_name: str = "design") -> ReplayDetection:
    """``detect`` with default options, one span per stage."""
    # detect()'s defaults
    gadget_mode = MODE_GENERALIZED
    weight_mode = WEIGHT_UNIFORM
    with tr.span("pipeline.detect"):
        with tr.span("layout.shifters"):
            shifters = generate_shifters(layout)
        with tr.span("layout.overlap_pairs"):
            pairs = find_overlapping_pairs(shifters, layout.rules)
        with tr.span("conflict_graph.build"):
            graph = build_conflict_graph(shifters, pairs, layout.rules, weight_mode)
        with tr.span("conflict_graph.is_bipartite"):
            balanced_before = is_bipartite(graph).ok
        with tr.span("planar.planarize"):
            embedding = planarize(graph)
        with tr.span("planar.build_dual"):
            dual = build_dual(embedding)
        with tr.span("tjoin.solve"):
            m_ids, m_weight, m_secs = bipartize_optimal(embedding, dual, gadget_mode)
        with tr.span("bipartize.finalize"):
            conflicts = finalize_conflicts(graph, embedding.removed_edge_ids, m_ids)
        with tr.span("conflict_graph.phase_assign"):
            phases = phase_assign(graph, frozenset(conflicts.edge_ids))
        report = [
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
            ("gadget_mode", gadget_mode),
            ("weight_mode", weight_mode),
            ("conflicts_np", str(len(m_ids))),
            ("weight_np", str(m_weight)),
            ("conflicts_pcg", str(len(conflicts))),
            ("weight_pcg", str(conflicts.total_weight)),
            ("residual_balanced", "1"),
        ]
    return ReplayDetection(
        layout, shifters, pairs, graph, embedding, dual, m_ids, m_weight,
        m_secs, conflicts, phases, report,
    )


@dataclass
class ReplayCorrection:
    intervals: tuple
    uncoverable: tuple
    plan: object
    new_layout: object
    area: object
    uncovered_keys: tuple
    residual: ReplayDetection
    report: list[tuple[str, str]]


def traced_correct(tr: Tracer, det: ReplayDetection) -> ReplayCorrection:
    """``correct(..., allow_uncovered=True)``, one span per stage."""
    exact_cover_limit = 20  # correct()'s default
    layout = det.layout
    with tr.span("pipeline.correct"):
        with tr.span("spacing.intervals"):
            intervals, uncoverable = compute_intervals(
                layout, det.shifters, det.conflicts
            )
        critical = find_critical_features(layout)
        with tr.span("spacing.plan"):
            plan = plan_spaces(intervals, critical, exact_cover_limit)
        uncovered = {c.shifter_pair for c in uncoverable} | set(plan.uncovered)
        with tr.span("spacing.apply"):
            new_layout, area = apply_spaces(layout, det.shifters, plan)
        with tr.span("pipeline.residual_detect"):
            residual = traced_detect(tr, new_layout, "residual")
        residual_count = len(residual.conflicts)
        report = list(det.report) + [
            ("area_um2", f"{area.old_area_nm2 / 1e6:.4f}"),
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
            ("uncovered", str(len(uncovered))),
            ("residual_conflicts", str(residual_count)),
        ]
    return ReplayCorrection(
        intervals, uncoverable, plan, new_layout, area,
        tuple(sorted(uncovered)), residual, report,
    )
