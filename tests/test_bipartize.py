"""Bipartization: optimality on embedded graphs, the parallel dual edge
collapse, finalize re-check, greedy."""

import random
from collections import Counter

import pytest

from aapsm.bipartize import (
    ORIGIN_MATCHING,
    ORIGIN_PLANARIZATION,
    bipartize_greedy,
    bipartize_optimal,
    collapse_parallel,
    finalize_conflicts,
)
from aapsm.conflict_graph import build_conflict_graph, is_bipartite
from aapsm.generator import generate_layout
from aapsm.layout import find_overlapping_pairs, generate_shifters
from aapsm.planar import DualEdge, DualGraph, build_dual, planarize
from aapsm.tjoin import MODE_GENERALIZED, MODE_OPTIMIZED, solve_tjoin, tjoin_from_graph

from conftest import manhattan_layout, sample_micro_pcgs
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

    def test_mode_is_checked_and_selects_nothing(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        emb = planarize(build_conflict_graph(shifters, pairs, rules))
        dual = build_dual(emb)
        with pytest.raises(ValueError, match="unknown gadget mode 'blossom'"):
            bipartize_optimal(emb, dual, "blossom")
        expect = bipartize_optimal(emb, dual)[:2]
        for mode in (MODE_GENERALIZED, MODE_OPTIMIZED):
            assert bipartize_optimal(emb, dual, mode)[:2] == expect

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


def random_dual(rng: random.Random) -> DualGraph:
    """Dual multigraph over two face groups (so often several components):
    parallel classes of 1-5 edges with equal, zero or mixed weights, plus
    self-loops; primal ids are a shuffled range offset from the dual ids."""
    n_faces = rng.randint(2, 8)
    split = rng.randint(1, n_faces)
    groups = [g for g in (range(split), range(split, n_faces)) if len(g) >= 2]
    raw = []
    for _ in range(rng.randint(1, 5) if groups else 0):
        u, v = rng.sample(groups[rng.randrange(len(groups))], 2)
        style = rng.choice(("equal", "zero", "mixed"))
        base = rng.randint(0, 9)
        for _ in range(rng.randint(1, 5)):
            w = {"equal": base, "zero": 0, "mixed": rng.randint(0, 9)}[style]
            raw.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    for _ in range(rng.randint(0, 2)):
        f = rng.randrange(n_faces)
        raw.append((f, f, rng.randint(0, 9)))
    rng.shuffle(raw)
    primal = rng.sample(range(100, 100 + len(raw)), len(raw))
    return DualGraph(
        n_faces,
        tuple(DualEdge(i, u, v, w, primal[i]) for i, (u, v, w) in enumerate(raw)),
    )


def instance(dual, edges):
    return tjoin_from_graph(range(dual.n_faces), [(e.u, e.v, e.weight) for e in edges])


def odd_faces(edges):
    odd = set()
    for e in edges:
        odd ^= {e.u, e.v}
    return odd


class TestCollapseParallel:
    def test_keeps_cheapest_one_or_two_per_face_pair(self):
        dual = DualGraph(
            3,
            (
                DualEdge(0, 0, 1, 5, 10),
                DualEdge(1, 1, 0, 2, 11),
                DualEdge(2, 0, 1, 2, 12),
                DualEdge(3, 1, 2, 4, 13),
                DualEdge(4, 2, 2, 0, 14),
                DualEdge(5, 0, 1, 1, 15),
                DualEdge(6, 2, 1, 3, 16),
            ),
        )
        # (0, 1): four edges, keep weights 1 and 2 (the lower id of the 2s);
        # (1, 2): two edges, keep both; the self-loop goes
        assert [e.id for e in collapse_parallel(dual)] == [1, 3, 5, 6]
        dual_odd = DualGraph(2, dual.edges[:3])
        assert [e.id for e in collapse_parallel(dual_odd)] == [1]

    def test_reduced_instance_is_exact_on_random_duals(self):
        rng = random.Random(6061)
        for _ in range(150):
            dual = random_dual(rng)
            full = [e for e in dual.edges if not e.is_self_loop]
            reduced = collapse_parallel(dual)
            assert [e.id for e in reduced] == sorted(e.id for e in reduced)
            assert set(reduced) <= set(full)
            per_pair = Counter(frozenset((e.u, e.v)) for e in reduced)
            assert max(per_pair.values(), default=0) <= 2
            full_inst, red_inst = instance(dual, full), instance(dual, reduced)
            assert red_inst.t_nodes == full_inst.t_nodes
            join, weight, _ = solve_tjoin(red_inst)
            assert weight == solve_tjoin(full_inst)[1]
            picked = {reduced[j].primal_edge_id for j in join}
            in_full = [e for e in full if e.primal_edge_id in picked]
            assert len(in_full) == len(join)
            assert odd_faces(in_full) == set(full_inst.t_nodes)
            assert sum(e.weight for e in in_full) == weight

    def test_designs_match_unreduced_solve(self):
        designs = [generate_layout(seed, 40, 0.7) for seed in (1, 2, 3)]
        designs += [manhattan_layout(seed) for seed in (1000, 1001, 1002, 1003)]
        for layout in designs:
            shifters = generate_shifters(layout)
            pairs = find_overlapping_pairs(shifters, layout.rules)
            emb = planarize(build_conflict_graph(shifters, pairs, layout.rules))
            dual = build_dual(emb)
            full = [e for e in dual.edges if not e.is_self_loop]
            _, weight, _ = bipartize_optimal(emb, dual)
            assert weight == solve_tjoin(instance(dual, full))[1]
