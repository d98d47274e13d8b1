"""Deterministic guards on the work `detect` does, counted rather than timed.

Geometry: row layouts keep every shifter and PCG edge within a bounded
neighbourhood, so an indexed search makes a number of exact-predicate calls
proportional to the feature count; an all-pairs scan makes a number
proportional to its square (4x the features, about 16x the calls).  The PCG
build finds degenerate overlap nodes in one hashed pass by position and by
line, with no box sweep and no segment predicate: two edges overlap when
their spans on one line do, and the nudge test applies the same span rule.
A node the pass does not flag is never tested again, so a design with none
makes no degeneracy test at all.

T-join: the solve reads the embedding's own darts, with no dual edge
record, instance or spanning forest built: dual edge k is kept primal edge
k, every one but the self-loops, in id order.  Primal series chains
(overlap nodes, shifter chains) put many parallel edges between one pair of
faces, and all of them stay: the shortest paths take only the cheapest.
Every dual component is solved by shortest paths between its odd faces,
and no gadget graph is built.  The paths are paired in closed form for at
most four odd faces, so the comb designs (|T| <= 4 in every component)
never call blossom; on a larger component blossom sees only the complete
graph over its odd faces.

Balance: a parity union-find is built only where the order edges are
inserted in decides the answer (the casualty re-check, over survivor
components, and the greedy baseline when it runs).  Every static balance
question is one signed two-coloring: the `balanced_before` verdict, and
the survivors' coloring, which serves both the casualty re-check and the
phases, plus the greedy baseline's phases.  A design whose graph two-colors
takes its phases from the verdict's coloring.

Detection: every conflict graph `detect` builds is checked for general
position once, before the two-coloring, and no later stage checks it again.
A design whose conflict graph two-colors has no conflict, so `detect` runs
only the crossing search of its back half (the report counts the crossing
edges).  It builds no embedding, dual, T-join or conflict selection; the
result embeds the graph when its embedding is first asked for.  A design
that does not two-color keeps the embedding `detect` built, and builds its
dual only when asked for it.

Correction: `correct` re-detects only a layout it changed, so a plan without
cuts builds no conflict graph at all.  A changed layout's conflict graph is
built and checked once; crossings are searched and the graph embedded only
when it does not two-color, since only then can the residual count be
above 0.
`apply_spaces` moves each rect once for all cuts together, so it builds at
most one rect per rect whatever the cut count, and none for a plan without
cuts.  A design without conflicts builds no layout and scans no critical
features in `correct`: it gets the detected layout back.  A design with cuts
scans the critical features once, for the planner, and validates one new
layout before its residual is counted.
"""

import dataclasses
from collections import Counter, defaultdict

import pytest

import aapsm.bipartize
import aapsm.pipeline
import aapsm.planar
import aapsm.spacing
import aapsm.tjoin
from aapsm import conflict_graph, geometry, layout
from aapsm.generator import generate_layout
from aapsm.layout import Layout, Rect
from aapsm.pipeline import correct, detect
from aapsm.planar import build_dual, planarize
from aapsm.spacing import AXIS_HORIZONTAL, AXIS_VERTICAL, Cut, SpacePlan, apply_spaces
from aapsm.unionfind import ParityUnionFind

from conftest import (
    component_instances,
    darts_instance,
    gadget_route_tjoin,
    manhattan_layout,
    spy_blossom,
    spy_darts_solve,
)

PREDICATES = (
    (layout, "box_separation"),
    (geometry, "orient_sos"),
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


def predicates_in_pcg_build(monkeypatch, design) -> list[str]:
    """The geometric predicates and box sweeps one PCG build calls, by name."""
    shifters = layout.generate_shifters(design)
    pairs = layout.find_overlapping_pairs(shifters, design.rules)
    called = []

    def spy(name):
        fn = getattr(geometry, name)
        return lambda *args: called.append(name) or fn(*args)

    with monkeypatch.context() as m:
        for name in ("orient_sos", "segments_cross", "box_pairs"):
            m.setattr(geometry, name, spy(name))
        g = conflict_graph.build_conflict_graph(shifters, pairs, design.rules)
    assert g.perturbed_nodes == ()
    return called


@pytest.mark.parametrize("density", [0.0, 0.7])
def test_pcg_build_without_degeneracy_tests_nothing(monkeypatch, density):
    """Ties in the drawing are left to the crossing search and the
    embedding, so building the graph reads no predicate at all."""
    assert predicates_in_pcg_build(monkeypatch, generate_layout(1, 600, density)) == []


def matched_darts(monkeypatch, design, **detect_options):
    """(the darts detect's T-join solve reads, as (face_of, weights), and
    the detection)."""
    with monkeypatch.context() as m:
        calls = spy_darts_solve(m)
        result = detect(design, **detect_options)
    ((*darts, _),) = calls
    return darts, result


def matched_instance(monkeypatch, design, **detect_options):
    """The T-join instance the darts detect solves describe."""
    darts, _ = matched_darts(monkeypatch, design, **detect_options)
    return darts_instance(*darts)


def test_tjoin_instance_holds_the_dual_edges(monkeypatch):
    for features in (40, 400):
        darts, det = matched_darts(monkeypatch, generate_layout(1, features, 0.7))
        face_of, weights = darts
        assert face_of is det.embedding.face_of  # no copy
        assert weights is det.graph.weights  # the column itself
        assert list(weights) == [e.weight for e in det.graph.edges]
        inst = darts_instance(*darts)
        dual = build_dual(det.embedding)
        expect = [e for e in dual.edges if not e.is_self_loop]
        assert inst.nodes == tuple(range(dual.n_faces))
        assert [(e.id, e.u, e.v, e.weight) for e in inst.edges] == [
            (e.primal_edge_id, e.u, e.v, e.weight) for e in expect
        ]
        per_pair = Counter(frozenset((e.u, e.v)) for e in inst.edges)
        assert max(per_pair.values()) > 2  # parallel classes stay whole


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

    def named_mode(emb):
        return bipartize(emb, None, mode)

    with monkeypatch.context() as m:
        m.setattr(aapsm.tjoin, "_build_gadget_graph", spy_build)
        m.setattr(aapsm.pipeline, "bipartize_optimal", named_mode)
        blossom_nodes = spy_blossom(m)
        # a random wire layout whose dual has a component with |T| = 8
        inst = matched_instance(monkeypatch, manhattan_layout(1004))
    t_sizes = [len(part.t_nodes) for part in component_instances(inst)]
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
    init, two_color = ParityUnionFind.__init__, conflict_graph.signed_components

    def counted_init(self):
        counts["forests"] += 1
        init(self)

    def counted_two_color(g, removed):
        counts["colorings"] += 1
        return two_color(g, removed)

    with monkeypatch.context() as m:
        m.setattr(ParityUnionFind, "__init__", counted_init)
        # the conflict selection imports the coloring by name
        for module in (conflict_graph, aapsm.bipartize):
            m.setattr(module, "signed_components", counted_two_color)
        detect(design, run_greedy_baseline=greedy)
    return counts["forests"], counts["colorings"]


@pytest.mark.parametrize(
    "greedy, max_forests, unbalanced_colorings", [(False, 1, 2), (True, 2, 3)]
)
def test_detect_checks_balance_once(monkeypatch, greedy, max_forests, unbalanced_colorings):
    # rows designs two-color, and their phases reuse the verdict's coloring
    for density, balanced in ((0.0, True), (0.7, False)):
        design = generate_layout(1, 150 if balanced else 40, density)
        forests, colorings = balance_checks(monkeypatch, design, greedy)
        expect_colorings = unbalanced_colorings - balanced
        assert forests <= max_forests and colorings == expect_colorings, (forests, colorings)


BACK_HALF = ("remove_crossings", "embed", "bipartize_optimal", "finalize_conflicts")


def back_half_stages(monkeypatch, design):
    """(`detect(design)`, each back-half stage's return values by name)."""
    returned = defaultdict(list)

    def spy(name):
        stage = getattr(aapsm.pipeline, name)

        def wrapper(*args):
            returned[name].append(stage(*args))
            return returned[name][-1]

        return wrapper

    with monkeypatch.context() as m:
        for name in BACK_HALF:
            m.setattr(aapsm.pipeline, name, spy(name))
        det = detect(design)
    return det, returned


def test_balanced_detect_embeds_on_first_access(monkeypatch):
    det, returned = back_half_stages(monkeypatch, generate_layout(1, 150, 0.0))
    assert ("balanced_before", "1") in det.report
    assert set(returned) == {"remove_crossings"}
    assert det.removed_edge_ids == returned["remove_crossings"][0]
    emb = planarize(det.graph)
    assert det.embedding == emb
    assert det.embedding is det.embedding


def test_unbalanced_detect_keeps_what_it_built(monkeypatch):
    det, returned = back_half_stages(monkeypatch, manhattan_layout(1000))
    assert ("balanced_before", "0") in det.report and det.removed_edge_ids
    # the T-join reads the embedding's darts: no dual is built
    built = dict.fromkeys(BACK_HALF, 1)
    assert {name: len(values) for name, values in returned.items()} == built
    (embedding,) = returned["embed"]
    assert det.embedding is embedding
    # built on first access, the embedding leaves out the crossing edges too
    rebuilt = dataclasses.replace(det, _embedding=None)
    assert rebuilt.embedding == embedding


@pytest.mark.parametrize(
    "make, graphs, embedded",
    [
        (lambda: generate_layout(1, 150, 0.0), 0, 0),
        # every residual two-colors: the PCG is built, never searched for
        # crossings nor embedded
        (lambda: generate_layout(1, 40, 0.7), 1, 0),
        # 3 cuts, residual 10: the back half reuses the PCG the front half built
        (lambda: manhattan_layout(1000), 1, 1),
    ],
    ids=["rows", "comb", "manhattan"],
)
def test_correct_redetects_only_changed_layouts(monkeypatch, make, graphs, embedded):
    det = detect(make())
    calls = Counter()

    def counted(name):
        stage = getattr(aapsm.pipeline, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        return spy

    with monkeypatch.context() as m:
        for name in ("build_conflict_graph", "remove_crossings", "embed"):
            m.setattr(aapsm.pipeline, name, counted(name))
        cor = correct(det, allow_uncovered=True)
    assert bool(cor.plan.cuts) == bool(graphs)
    assert calls["build_conflict_graph"] == graphs
    assert calls["remove_crossings"] == calls["embed"] == embedded
    assert (cor.residual_conflicts > 0) == bool(embedded)


def rects_built(monkeypatch, design, cuts) -> int:
    built = 0
    post_init = Rect.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    with monkeypatch.context() as m:
        m.setattr(Rect, "__post_init__", counted)
        apply_spaces(design, (), SpacePlan(cuts, (), len(cuts), None))
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


def correction_work(monkeypatch, design):
    """(`detect(design)`, `correct` of it, and the `Layout` validations and
    `find_critical_features` scans `correct` ran before its residual
    `_detect_front`, or in all when it ran none)."""
    det = detect(design)
    counts, before_residual = Counter(), []
    post_init, critical = Layout.__post_init__, layout.find_critical_features
    front = aapsm.pipeline._detect_front

    def counted_post_init(self):
        counts["layouts"] += 1
        post_init(self)

    def counted_critical(lay):
        counts["critical_scans"] += 1
        return critical(lay)

    def spy_front(*args):
        before_residual.append(dict(counts))
        return front(*args)

    with monkeypatch.context() as m:
        m.setattr(Layout, "__post_init__", counted_post_init)
        # every module that holds the name, whether it imports it or not
        for module in (layout, aapsm.pipeline, aapsm.spacing):
            m.setattr(module, "find_critical_features", counted_critical, raising=False)
        m.setattr(aapsm.pipeline, "_detect_front", spy_front)
        cor = correct(det)
    return det, cor, before_residual[0] if before_residual else dict(counts)


def test_correct_without_conflicts_does_no_spacing_work(monkeypatch):
    det, cor, counts = correction_work(monkeypatch, generate_layout(1, 150, 0.0))
    assert not det.conflicts.conflicts and not cor.plan.cuts
    assert counts == {}
    assert cor.new_layout is det.layout


def test_correct_with_cuts_scans_and_validates_once(monkeypatch):
    det, cor, counts = correction_work(monkeypatch, generate_layout(1, 40, 0.7))
    assert cor.plan.cuts and cor.new_layout is not det.layout
    assert counts == {"layouts": 1, "critical_scans": 1}
