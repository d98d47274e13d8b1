"""Deterministic guards on the work `detect` does, counted rather than timed.

Geometry: row layouts keep every shifter and PCG edge within a bounded
neighbourhood, so an indexed search makes a number of exact-predicate calls
proportional to the feature count; an all-pairs scan makes a number
proportional to its square (4x the features, about 16x the calls).

T-join: primal series chains (overlap nodes, shifter chains) put many
parallel edges between one pair of faces; the instance handed to the T-join
solve keeps at most two of them.  Every dual component is solved by
shortest paths between its odd faces, and no gadget graph is built.  The
paths are paired in closed form for at most four odd faces, so the comb
designs (|T| <= 4 in every component) never call blossom; on a larger
component blossom sees only the complete graph over its odd faces.

Balance: one `detect` checks balance once, on its output, so it builds a
fixed handful of parity union-finds and runs one two-coloring, whatever
the design.

Correction: `correct` re-detects only a layout it changed, so a plan without
cuts costs no `detect` at all.  `apply_spaces` moves each rect once for all
cuts together, so it builds at most one rect per rect whatever the cut
count, and none for a plan without cuts.
"""

from collections import Counter

import pytest

import aapsm.bipartize
import aapsm.pipeline
import aapsm.tjoin
from aapsm import conflict_graph, geometry, layout
from aapsm.generator import generate_layout
from aapsm.layout import Rect
from aapsm.pipeline import correct, detect
from aapsm.spacing import AXIS_HORIZONTAL, AXIS_VERTICAL, Cut, SpacePlan, apply_spaces
from aapsm.unionfind import ParityUnionFind

from conftest import gadget_route_tjoin, manhattan_layout, spy_blossom

PREDICATES = (
    (layout, "rect_separation"),
    (geometry, "segments_intersect"),
    (geometry, "collinear_overlap"),
)


def predicate_calls(monkeypatch, design) -> int:
    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        return wrapper

    with monkeypatch.context() as m:
        for module, name in PREDICATES:
            m.setattr(module, name, counted(getattr(module, name)))
        detect(design)
    return calls


def test_predicate_calls_grow_linearly(monkeypatch):
    few = predicate_calls(monkeypatch, generate_layout(1, 150, 0.0))
    many = predicate_calls(monkeypatch, generate_layout(1, 600, 0.0))
    assert few > 0
    assert many / few < 8, (few, many)


def matched_instance(monkeypatch, design, **detect_options):
    """(the T-join instance detect solves, the non-loop dual edge count)."""
    seen = []
    solve = aapsm.bipartize.solve_tjoin

    def spy(inst):
        seen.append(inst)
        return solve(inst)

    with monkeypatch.context() as m:
        m.setattr(aapsm.bipartize, "solve_tjoin", spy)
        result = detect(design, **detect_options)
    (inst,) = seen
    return inst, sum(not e.is_self_loop for e in result.dual.edges)


def test_tjoin_instance_collapses_parallel_dual_edges(monkeypatch):
    for features in (40, 400):
        inst, dual_edges = matched_instance(monkeypatch, generate_layout(1, features, 0.7))
        per_pair = Counter(frozenset((e.u, e.v)) for e in inst.edges)
        assert max(per_pair.values()) <= 2
        assert len(inst.edges) <= 0.6 * dual_edges, (len(inst.edges), dual_edges)


@pytest.mark.parametrize("mode", aapsm.tjoin.GADGET_MODES)
def test_blossom_sees_one_closure_graph_per_large_component(monkeypatch, mode):
    """`bipartize_optimal` builds no gadget graph, whichever gadget shape it
    is named: blossom sees one complete graph over T, of |T| nodes, per dual
    component with six or more T nodes, and the join weighs what that
    shape's gadget reduction gives."""
    builds = 0
    build = aapsm.tjoin._build_gadget_graph
    bipartize = aapsm.pipeline.bipartize_optimal

    def spy_build(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    def named_mode(emb, dual):
        return bipartize(emb, dual, mode)

    with monkeypatch.context() as m:
        m.setattr(aapsm.tjoin, "_build_gadget_graph", spy_build)
        m.setattr(aapsm.pipeline, "bipartize_optimal", named_mode)
        blossom_nodes = spy_blossom(m)
        # a random wire layout whose dual has a component with |T| = 8
        inst, _ = matched_instance(monkeypatch, manhattan_layout(1004))
    forest = aapsm.tjoin._SpanningForest.of(inst)
    t_sizes = [len(inst.t_nodes.intersection(comp)) for comp in forest.components]
    large = sorted(k for k in t_sizes if k >= 6)
    assert builds == 0
    assert large and sorted(blossom_nodes) == large, (blossom_nodes, large)
    weight = aapsm.tjoin.solve_tjoin(inst)[1]
    assert weight == gadget_route_tjoin(inst, mode)[1]


def test_comb_design_never_calls_blossom(monkeypatch):
    with monkeypatch.context() as m:
        blossom_nodes = spy_blossom(m)
        result = detect(generate_layout(1, 40, 0.7))
    assert result.optimal_edge_ids and blossom_nodes == []


def balance_checks(monkeypatch, design, greedy):
    """(ParityUnionFind constructions, two-colorings) in one `detect`."""
    counts = Counter()
    init, odd_cycle = ParityUnionFind.__init__, conflict_graph._odd_cycle

    def counted_init(self):
        counts["forests"] += 1
        init(self)

    def counted_odd_cycle(g, kept):
        counts["colorings"] += 1
        return odd_cycle(g, kept)

    with monkeypatch.context() as m:
        m.setattr(ParityUnionFind, "__init__", counted_init)
        m.setattr(conflict_graph, "_odd_cycle", counted_odd_cycle)
        detect(design, run_greedy_baseline=greedy)
    return counts["forests"], counts["colorings"]


@pytest.mark.parametrize("greedy, max_forests", [(False, 3), (True, 5)])
def test_detect_checks_balance_once(monkeypatch, greedy, max_forests):
    for design in (generate_layout(1, 150, 0.0), generate_layout(1, 40, 0.7)):
        forests, colorings = balance_checks(monkeypatch, design, greedy)
        assert forests <= max_forests and colorings == 1, (forests, colorings)


@pytest.mark.parametrize(
    "density, features, detects", [(0.0, 150, 0), (0.7, 40, 1)], ids=["rows", "comb"]
)
def test_correct_redetects_only_changed_layouts(monkeypatch, density, features, detects):
    det = detect(generate_layout(1, features, density))
    calls = []
    redetect = aapsm.pipeline.detect

    def spy(*args, **kwargs):
        calls.append(args)
        return redetect(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(aapsm.pipeline, "detect", spy)
        cor = correct(det, allow_uncovered=True)
    assert bool(cor.plan.cuts) == bool(detects)
    assert len(calls) == detects


def rects_built(monkeypatch, design, cuts) -> int:
    built = 0
    post_init = Rect.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    with monkeypatch.context() as m:
        m.setattr(Rect, "__post_init__", counted)
        apply_spaces(design, (), SpacePlan(cuts, (), len(cuts), None, False))
    return built


def test_apply_spaces_builds_each_rect_at_most_once(monkeypatch):
    design = generate_layout(1, 150, 0.0)
    x_lo, y_lo, _, _ = design.bbox
    # every cut lies left of (below) every rect, so every cut moves every rect
    cuts = tuple(
        Cut(axis, lo - 1 - k, 10, ())
        for axis, lo in ((AXIS_VERTICAL, x_lo), (AXIS_HORIZONTAL, y_lo))
        for k in range(5)
    )
    assert rects_built(monkeypatch, design, cuts) <= len(design.rects)
    assert rects_built(monkeypatch, design, ()) == 0
