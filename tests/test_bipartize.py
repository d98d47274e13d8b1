"""Bipartization: optimality on embedded graphs, finalize re-check, greedy."""

import random

from aapsm.bipartize import (
    ORIGIN_MATCHING,
    ORIGIN_PLANARIZATION,
    bipartize_greedy,
    bipartize_optimal,
    finalize_conflicts,
)
from aapsm.conflict_graph import build_conflict_graph, is_bipartite
from aapsm.planar import build_dual, planarize

from conftest import sample_micro_pcgs
from oracles import min_bipartization_weight


def signed_edges(g):
    return [(e.u, e.v, e.weight, e.is_equal_constraint) for e in g.edges]


def bfs_connected(edges, a, b):
    adj = {}
    for e in edges:
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    seen = {a}
    queue = [a]
    while queue:
        u = queue.pop(0)
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return b in seen


def kept_signed_edges(g, kept_ids):
    kept = set(kept_ids)
    return [
        (e.u, e.v, e.weight, e.is_equal_constraint) for e in g.edges if e.id in kept
    ]


class TestOptimal:
    def test_balanced_graph_yields_empty(self, comb_layout):
        from aapsm.layout import find_overlapping_pairs, generate_shifters

        # row layout: two chained features, balanced
        from aapsm.layout import DesignRules, Layout, Rect

        rules = DesignRules(150, 200, 0, 100)
        layout = Layout(
            (Rect(0, 0, 100, 1000, id=0), Rect(550, 0, 650, 1000, id=1)), rules
        )
        shifters = generate_shifters(layout)
        pairs = find_overlapping_pairs(shifters, rules)
        g = build_conflict_graph(shifters, pairs, rules)
        emb = planarize(g)
        m, weight, _ = bipartize_optimal(emb, build_dual(emb))
        assert m == () and weight == 0

    def test_odd_ring_costs_one_overlap_half(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        emb = planarize(g)
        assert emb.removed_edge_ids == ()
        m, weight, _ = bipartize_optimal(emb, build_dual(emb))
        assert weight == 1
        assert len(m) == 1
        assert g.edge(m[0]).is_equal_constraint  # never a feature edge
        assert is_bipartite(g, frozenset(m)).ok

    def test_matches_subset_oracle_on_embedded_instances(self):
        instances = sample_micro_pcgs(
            424, 40, max_features=4, require_planar=True, max_edges=14
        )
        for layout, shifters, pairs, g in instances:
            emb = planarize(g)
            assert emb.removed_edge_ids == ()
            m, weight, _ = bipartize_optimal(emb, build_dual(emb))
            expect = min_bipartization_weight(len(g.nodes), signed_edges(g))
            assert weight == expect


class TestFinalize:
    def test_no_planarization_casualties(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        emb = planarize(g)
        m, _, _ = bipartize_optimal(emb, build_dual(emb))
        conflicts = finalize_conflicts(g, (), m)
        assert conflicts.edge_ids == m
        assert all(c.origin == ORIGIN_MATCHING for c in conflicts.conflicts)

    def test_consistent_removed_edge_survives(self):
        """An edge deleted for crossings whose constraint the surviving
        coloring already satisfies must not be charged as a conflict."""
        from aapsm.layout import DesignRules, Layout, Rect, find_overlapping_pairs, generate_shifters

        rules = DesignRules(150, 200, 0, 100)
        layout = Layout(
            (Rect(0, 0, 100, 1000, id=0), Rect(550, 0, 650, 1000, id=1)), rules
        )
        shifters = generate_shifters(layout)
        pairs = find_overlapping_pairs(shifters, rules)
        g = build_conflict_graph(shifters, pairs, rules)
        overlap_half = next(e.id for e in g.edges if e.is_equal_constraint)
        conflicts = finalize_conflicts(g, (overlap_half,), ())
        assert conflicts.edge_ids == ()  # the edge rejoins the graph

    def test_finalize_keeps_balance_on_random_instances(self):
        instances = sample_micro_pcgs(77, 40, max_features=4)
        for layout, shifters, pairs, g in instances:
            try:
                emb = planarize(g)
            except Exception:
                continue
            dual = build_dual(emb)
            m, _, _ = bipartize_optimal(emb, dual)
            conflicts = finalize_conflicts(g, emb.removed_edge_ids, m)
            assert is_bipartite(g, frozenset(conflicts.edge_ids)).ok
            assert set(conflicts.edge_ids) >= set(m)

    def test_forced_planarization_conflict(self, odd_ring_fixture):
        """With M empty and the ring edge removed as a crossing casualty, the
        odd cycle must be charged during finalize."""
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        victim = next(e.id for e in g.edges if e.is_equal_constraint)
        conflicts = finalize_conflicts(g, (victim,), ())
        assert conflicts.edge_ids == (victim,)
        assert conflicts.conflicts[0].origin == ORIGIN_PLANARIZATION
        assert is_bipartite(g, frozenset({victim})).ok


class TestGreedy:
    def test_tree_input_empty(self):
        from aapsm.layout import DesignRules, Layout, Rect, find_overlapping_pairs, generate_shifters

        rules = DesignRules(150, 200, 0, 100)
        layout = Layout((Rect(0, 0, 100, 1000, id=0),), rules)
        shifters = generate_shifters(layout)
        g = build_conflict_graph(shifters, (), rules)
        deleted, literal, weight = bipartize_greedy(g)
        assert deleted == () and literal == 0 and weight == 0

    def test_odd_ring_deletes_exactly_one(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        deleted, literal, weight = bipartize_greedy(g)
        assert len(deleted) == 1
        assert literal >= 1
        assert is_bipartite(g, frozenset(deleted)).ok

    def test_greedy_never_below_optimum(self):
        instances = sample_micro_pcgs(
            31, 40, max_features=4, require_planar=True, max_edges=14
        )
        for layout, shifters, pairs, g in instances:
            emb = planarize(g)
            m, opt_weight, _ = bipartize_optimal(emb, build_dual(emb))
            deleted, literal, greedy_weight = bipartize_greedy(g)
            assert opt_weight <= greedy_weight
            assert len(deleted) <= literal

    def test_literal_counts_every_non_forest_edge(self):
        """Naive count: in (-weight, id) order, an edge is non-forest when a
        BFS over the edges before it already joins its endpoints."""
        for layout, shifters, pairs, g in sample_micro_pcgs(53, 40, max_features=5):
            ordered = sorted(g.edges, key=lambda e: (-e.weight, e.id))
            expect = sum(
                1
                for i, e in enumerate(ordered)
                if bfs_connected(ordered[:i], e.u, e.v)
            )
            _, literal, _ = bipartize_greedy(g)
            assert literal == expect

    def test_feature_edges_preferred_in_tree(self, odd_ring_fixture):
        # heavy feature edges enter the spanning forest first, so greedy only
        # ever deletes overlap halves here
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        deleted, _, _ = bipartize_greedy(g)
        assert all(g.edge(eid).is_equal_constraint for eid in deleted)
