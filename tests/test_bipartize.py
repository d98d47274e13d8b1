"""Bipartization: optimality on embedded graphs and on random duals with
parallel edges, finalize re-check, greedy."""

import random

import pytest

from aapsm.bipartize import (
    ORIGIN_MATCHING,
    ORIGIN_PLANARIZATION,
    bipartize_greedy,
    bipartize_optimal,
    finalize_conflicts,
)
from aapsm.conflict_graph import build_conflict_graph, is_bipartite
from aapsm.generator import generate_layout
from aapsm.layout import find_overlapping_pairs, generate_shifters
from aapsm.planar import DualEdge, DualGraph, build_dual, planarize
from aapsm.pipeline import detect
from aapsm.tjoin import MODE_GENERALIZED, MODE_OPTIMIZED, solve_on_darts

from conftest import manhattan_layout, sample_micro_pcgs
from oracles import exact_bipartization, min_bipartization_weight, min_tjoin_weight


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


def odd_faces(edges):
    odd = set()
    for e in edges:
        odd ^= {e.u, e.v}
    return odd


def solve_dual_darts(dual):
    """`bipartize_optimal`'s solve on a dual given as records: dual edge k
    becomes darts 2k and 2k+1 on its two faces, and the join's edges map
    back to their primal ids."""
    face_of = [f for e in dual.edges for f in (e.u, e.v)]
    join, weight, seconds = solve_on_darts(
        face_of, [e.weight for e in dual.edges], dual.degrees()
    )
    return tuple(sorted(dual.edges[k].primal_edge_id for k in join)), weight, seconds


class TestDualInstance:
    def test_random_duals_reach_exhaustive_optimum(self):
        """The darts solve takes every non-loop dual edge, parallel classes
        with equal, zero and mixed weights included, and its primal ids map
        back to a minimum T-join of those edges."""
        rng = random.Random(6061)
        checked = 0
        for _ in range(150):
            dual = random_dual(rng)
            full = [e for e in dual.edges if not e.is_self_loop]
            if len(full) > 12:
                continue
            t = odd_faces(full)
            m_ids, weight, _ = solve_dual_darts(dual)
            triples = [(e.u, e.v, e.weight) for e in full]
            assert weight == min_tjoin_weight(range(dual.n_faces), triples, t)
            assert list(m_ids) == sorted(set(m_ids))
            picked = [e for e in full if e.primal_edge_id in set(m_ids)]
            assert len(picked) == len(m_ids)
            assert odd_faces(picked) == t
            assert sum(e.weight for e in picked) == weight
            checked += 1
        assert checked >= 100, checked


class TestExactOptimum:
    """`detect` against the minimum-weight balancing set of the whole PCG.

    The T-join is exact on the embedded graph, so a crossing-free design
    reaches the optimum; a crossing's casualties can only cost more.
    """

    @staticmethod
    def check(layout):
        det = detect(layout)
        g = det.graph
        deleted, optimum = exact_bipartization(g)
        for ids in (det.conflicts.edge_ids, deleted):
            assert all(g.edge(eid).is_equal_constraint for eid in ids)  # no feature edge
        return det, det.conflicts.total_weight - optimum

    def test_crossing_free_designs_reach_the_optimum(self):
        for seed in range(1, 11):
            det, gap = self.check(generate_layout(seed, 20, 0.7))
            assert det.removed_edge_ids == ()
            assert gap == 0, seed

    def test_never_below_the_optimum(self):
        crossed = 0
        for seed in range(5000, 5010):
            det, gap = self.check(manhattan_layout(seed))
            assert gap >= 0, seed  # today 5001, 5003, 5005, 5007 sit 4, 1, 1, 2 above
            crossed += bool(det.removed_edge_ids)
        assert crossed >= 5, crossed
