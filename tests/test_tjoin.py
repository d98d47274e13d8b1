"""Edge assignment, gadget construction, and the T-join solve."""

import random
from collections import Counter

import networkx as nx
import pytest

import aapsm.tjoin
from aapsm.errors import InternalInvariantError
from aapsm.tjoin import (
    BOTH,
    GADGET_MODES,
    KIND_DIVIDE,
    KIND_DUMMY,
    KIND_GHOST,
    KIND_TRUE,
    MODE_GENERALIZED,
    MODE_OPTIMIZED,
    TJoinEdge,
    TJoinInstance,
    assign_edges,
    build_generalized_gadget_graph,
    build_optimized_gadget_graph,
    solve_on_darts,
    solve_tjoin,
    tjoin_from_graph,
)

from conftest import gadget_route_tjoin, random_multigraph
from oracles import min_tjoin_weight, unsplit_tjoin_weight


def path_abc(w1=5, w2=7):
    return tjoin_from_graph([0, 1, 2], [(0, 1, w1), (1, 2, w2)])


class TestInstance:
    def test_t_is_odd_degree_nodes(self):
        inst = path_abc()
        assert inst.t_nodes == {0, 2}

    def test_self_loops_dropped(self):
        inst = tjoin_from_graph([0, 1], [(0, 0, 3), (0, 1, 2)])
        assert len(inst.edges) == 1

    def test_t_derived_from_parallel_edges(self):
        # degrees 3, 4 and 1: three parallel edges between 0 and 1, one to 2
        edges = (
            TJoinEdge(0, 0, 1, 2),
            TJoinEdge(1, 1, 0, 2),
            TJoinEdge(2, 0, 1, 0),
            TJoinEdge(3, 1, 2, 5),
        )
        inst = TJoinInstance((0, 1, 2), edges)
        assert inst.t_nodes == {0, 2}
        with pytest.raises(TypeError):
            TJoinInstance((0, 1), (), frozenset({0}))  # T is not an argument


class TestAssignEdges:
    def test_single_edge_forced_to_both(self):
        inst = tjoin_from_graph([0, 1], [(0, 1, 4)])
        assign = assign_edges(inst)
        assert assign.owner[0] == BOTH

    def test_path_hand_checkable(self):
        inst = path_abc()
        assign = assign_edges(inst)
        assign.validate(inst)
        # a and c own one edge each, b owns none (all parities even/odd ok)
        owners = sorted(assign.owner.values())
        assert BOTH not in owners

    def test_triangle_needs_one_both(self):
        inst = tjoin_from_graph([0, 1, 2], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assign = assign_edges(inst)
        assign.validate(inst)
        assert sum(1 for o in assign.owner.values() if o == BOTH) == 1

    def test_exhaustive_triangle_has_valid_assignment(self):
        # independent confirmation that some owner choice satisfies parity
        inst = tjoin_from_graph([0, 1, 2], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        found = False
        for o0 in (0, 1, BOTH):
            for o1 in (1, 2, BOTH):
                for o2 in (2, 0, BOTH):
                    count = {0: 0, 1: 0, 2: 0}
                    for eid, owner in ((0, o0), (1, o1), (2, o2)):
                        ends = [(0, 1), (1, 2), (2, 0)][eid]
                        targets = ends if owner == BOTH else (owner,)
                        for t in targets:
                            count[t] += 1
                    if all(c % 2 == 0 for c in count.values()):
                        found = True
        assert found

    def test_random_instances_validate(self):
        rng = random.Random(12)
        for _ in range(80):
            n, edges = random_multigraph(rng)
            inst = tjoin_from_graph(range(n), edges)
            assign = assign_edges(inst)
            assign.validate(inst)
            per_component_both = sum(
                1 for o in assign.owner.values() if o == BOTH
            )
            # never more boths than components (each component needs <= 1)
            assert per_component_both <= n


class TestGadgetConstruction:
    def test_path_fig_counts(self):
        inst = path_abc()
        assign = assign_edges(inst)
        gg = build_generalized_gadget_graph(inst, assign)
        kinds = sorted(n.kind for n in gg.nodes)
        assert kinds.count(KIND_TRUE) == 2
        assert kinds.count(KIND_GHOST) == 2
        assert kinds.count(KIND_DUMMY) == 2
        assert len(gg.nodes) == 6
        # middle gadget: ghost-ghost edge costs w1 + w2
        ghost_edge = [
            w
            for u, v, w in gg.edges
            if gg.nodes[u].kind == KIND_GHOST and gg.nodes[v].kind == KIND_GHOST
        ]
        assert ghost_edge == [12]

    def test_isolated_even_node_has_empty_gadget(self):
        inst = tjoin_from_graph([0, 1, 2], [(0, 1, 3)])
        assign = assign_edges(inst)
        gg = build_generalized_gadget_graph(inst, assign)
        assert all(n.orig_node != 2 for n in gg.nodes if n.orig_node is not None)

    def test_even_node_count_always(self):
        rng = random.Random(913)
        for _ in range(60):
            n, edges = random_multigraph(rng)
            inst = tjoin_from_graph(range(n), edges)
            assign = assign_edges(inst)
            for build in (build_generalized_gadget_graph, build_optimized_gadget_graph):
                gg = build(inst, assign)
                assert len(gg.nodes) % 2 == 0
                assert all(
                    any(nid in (u, v) for u, v, _ in gg.edges)
                    for nid in range(len(gg.nodes))
                )

    def test_optimized_small_gadgets_identical(self):
        # all degrees <= 3: optimized build == generalized build
        inst = path_abc()
        assign = assign_edges(inst)
        gen = build_generalized_gadget_graph(inst, assign)
        opt = build_optimized_gadget_graph(inst, assign)
        assert [n.kind for n in gen.nodes] == [n.kind for n in opt.nodes]
        assert sorted(gen.edges) == sorted(opt.edges)

    def test_optimized_decomposes_high_degree(self):
        # star with 8 edges: center degree 8
        edges = [(0, i, i) for i in range(1, 9)]
        inst = tjoin_from_graph(range(9), edges)
        assign = assign_edges(inst)
        opt = build_optimized_gadget_graph(inst, assign)
        divides = [n for n in opt.nodes if n.kind == KIND_DIVIDE]
        assert divides and len(divides) % 2 == 0
        gen = build_generalized_gadget_graph(inst, assign)
        assert not any(n.kind == KIND_DIVIDE for n in gen.nodes)
        # decomposition trades extra (divide) nodes for far fewer clique edges
        assert len(opt.nodes) > len(gen.nodes)
        assert len(opt.edges) < len(gen.edges)
        _, w_gen = gadget_route_tjoin(inst, MODE_GENERALIZED)
        _, w_opt = gadget_route_tjoin(inst, MODE_OPTIMIZED)
        assert w_gen == w_opt == solve_tjoin(inst)[1]

    def test_four_node_graph_matches_rule_replay(self):
        """Replay the construction rules independently on a 4-node graph and
        compare node count, edge count, and the weight multiset."""
        edges = [(0, 1, 3), (1, 2, 5), (2, 3, 7), (3, 0, 11), (0, 2, 13)]
        inst = tjoin_from_graph(range(4), edges)
        assign = assign_edges(inst)
        gg = build_generalized_gadget_graph(inst, assign)

        # independent replay: slots per node, ghost weights, clique weights
        slots: dict[int, list[int]] = {v: [] for v in range(4)}
        n_dummies = 0
        n_both = 0
        connector_weights = []
        for e in inst.edges:
            owner = assign.owner[e.id]
            if owner == BOTH:
                n_both += 1
                slots[e.u].append(0)
                slots[e.v].append(0)
                connector_weights.append(e.weight)
            else:
                other = e.v if owner == e.u else e.u
                slots[owner].append(0)
                slots[other].append(e.weight)
                n_dummies += 1
                connector_weights.extend((0, 0))
        expect_nodes = sum(len(s) for s in slots.values()) + n_dummies
        expect_weights = list(connector_weights)
        for gws in slots.values():
            for i in range(len(gws)):
                for j in range(i + 1, len(gws)):
                    expect_weights.append(gws[i] + gws[j])

        assert len(gg.nodes) == expect_nodes
        assert sorted(w for _u, _v, w in gg.edges) == sorted(expect_weights)


class TestSolve:
    def test_path_unique_join(self):
        inst = path_abc()
        join, weight, _ = solve_tjoin(inst)
        assert join == [0, 1]
        assert weight == 12

    def test_empty_t_returns_empty(self):
        inst = tjoin_from_graph([0, 1, 2], [(0, 1, 3), (1, 2, 4), (2, 0, 5)])
        assert inst.t_nodes == frozenset()
        join, weight, _ = solve_tjoin(inst)
        assert join == [] and weight == 0

    def test_single_both_edge_component(self):
        inst = tjoin_from_graph([0, 1], [(0, 1, 9)])
        join, weight, _ = solve_tjoin(inst)
        assert join == [0] and weight == 9

    def test_parallel_edges_cheapest_used(self):
        inst = tjoin_from_graph([0, 1], [(0, 1, 9), (0, 1, 2), (0, 1, 5)])
        # degrees are 3: T = {0, 1}; optimum joins via the weight-2 edge
        join, weight, _ = solve_tjoin(inst)
        assert weight == 2

    @pytest.mark.parametrize("seed", [515, 616])
    def test_matches_subset_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n, edges = random_multigraph(rng)
            inst = tjoin_from_graph(range(n), edges)
            expect = min_tjoin_weight(
                range(n), [(e.u, e.v, e.weight) for e in inst.edges], inst.t_nodes
            )
            join, weight, _ = solve_tjoin(inst)
            assert expect is not None
            assert weight == expect

    def test_planar_dual_instances_match_oracle(self):
        """T-join instances taken from real embedded-layout duals."""
        from aapsm.planar import build_dual, planarize
        from conftest import sample_micro_pcgs

        instances = sample_micro_pcgs(
            808, 25, max_features=4, require_planar=True, max_edges=14
        )
        nontrivial = 0
        for _layout, _shifters, _pairs, g in instances:
            emb = planarize(g)
            dual = build_dual(emb)
            usable = [(e.u, e.v, e.weight) for e in dual.edges if not e.is_self_loop]
            if len(usable) > 10:
                continue
            inst = tjoin_from_graph(range(dual.n_faces), usable)
            expect = min_tjoin_weight(
                range(dual.n_faces), usable, inst.t_nodes
            )
            join, weight, _ = solve_tjoin(inst)
            assert weight == expect
            if inst.t_nodes:
                nontrivial += 1
        assert nontrivial >= 5

    def test_modes_agree(self):
        """Both gadget shapes give the shortest-path solve's weight."""
        rng = random.Random(2718)
        for _ in range(80):
            n, edges = random_multigraph(rng)
            inst = tjoin_from_graph(range(n), edges)
            _, weight, _ = solve_tjoin(inst)
            assert weight == gadget_route_tjoin(inst, MODE_GENERALIZED)[1]
            assert weight == gadget_route_tjoin(inst, MODE_OPTIMIZED)[1]

    def test_weight_scaling(self):
        rng = random.Random(31415)
        for _ in range(20):
            n, edges = random_multigraph(rng)
            inst = tjoin_from_graph(range(n), edges)
            _, w, _ = solve_tjoin(inst)
            scaled = tjoin_from_graph(
                range(n), [(u, v, 7 * w_) for u, v, w_ in edges]
            )
            _, w7, _ = solve_tjoin(scaled)
            assert w7 == 7 * w


def disjoint_union(rng: random.Random):
    """(n, edges) of 2-4 disjoint parts: random multigraphs, a T-free cycle,
    a single edge (its component's edge is owned by BOTH ends), parallel
    edges, and an all-zero-weight part; 12 edges at most."""
    parts = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(5)
        if kind == 0:
            parts.append(random_multigraph(rng, max_nodes=4, max_edges=4))
        elif kind == 1:
            k = rng.randint(2, 4)
            parts.append((k, [(i, (i + 1) % k, rng.randint(0, 9)) for i in range(k)]))
        elif kind == 2:
            parts.append((2, [(0, 1, rng.randint(0, 9))]))
        elif kind == 3:
            parts.append((2, [(0, 1, rng.randint(0, 9)) for _ in range(rng.randint(2, 3))]))
        else:
            n, edges = random_multigraph(rng, max_nodes=3, max_edges=3)
            parts.append((n, [(u, v, 0) for u, v, _ in edges]))
    n, edges = 0, []
    for k, part_edges in parts:
        if len(edges) + len(part_edges) > 12:
            break
        edges += [(u + n, v + n, w) for u, v, w in part_edges]
        n += k
    rng.shuffle(edges)
    return n, edges


def join_odd_nodes(inst, join) -> set[int]:
    """Nodes of odd degree in the join (T, for a valid T-join)."""
    odd = Counter()
    for eid in join:
        e = inst.edges[eid]
        odd[e.u] ^= 1
        odd[e.v] ^= 1
    return {x for x, bit in odd.items() if bit}


class TestComponentSplit:
    @pytest.mark.parametrize("seed", [4242, 2424])
    def test_split_matches_oracles(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n, edges = disjoint_union(rng)
            inst = tjoin_from_graph(range(n), edges)
            join, weight, _ = solve_tjoin(inst)
            assert weight == min_tjoin_weight(range(n), edges, inst.t_nodes)
            assert weight == unsplit_tjoin_weight(inst, MODE_GENERALIZED)
            assert weight == unsplit_tjoin_weight(inst, MODE_OPTIMIZED)
            assert join_odd_nodes(inst, join) == inst.t_nodes
            assert weight == sum(inst.edges[eid].weight for eid in join)

    @pytest.mark.parametrize("seed", [77, 78])
    def test_one_matching_per_component_with_t(self, seed, monkeypatch):
        """One matching call per component with more than four T nodes, over
        the complete graph on its T nodes, none for the smaller ones: every
        other instance gets a star with 6 or 7 leaves (|T| = 6 or 8) beside
        its small parts."""
        seen = []
        real = aapsm.tjoin.min_weight_perfect_matching

        def recording(node_ids, weighted_edges):
            seen.append(len(node_ids))
            return real(node_ids, weighted_edges)

        monkeypatch.setattr(aapsm.tjoin, "min_weight_perfect_matching", recording)
        rng = random.Random(seed)
        matched = 0
        for k in range(60):
            n, edges = disjoint_union(rng)
            if k % 2:
                leaves = rng.randint(6, 7)
                edges += [(n, n + i, rng.randint(0, 9)) for i in range(1, leaves + 1)]
                n += leaves + 1
            inst = tjoin_from_graph(range(n), edges)
            graph = nx.MultiGraph()
            graph.add_nodes_from(range(n))
            graph.add_weighted_edges_from(edges)
            expect = []
            for comp in nx.connected_components(graph):
                if len(comp & inst.t_nodes) > 4:
                    expect.append(len(comp & inst.t_nodes))
            seen.clear()
            solve_tjoin(inst)
            assert sorted(seen) == sorted(expect)
            matched += len(expect)
        assert matched >= 30


def connected_multigraph(rng: random.Random, t_sizes, max_nodes: int, max_edges: int):
    """(n, edges) of a connected multigraph with |T| in t_sizes: a random
    spanning tree plus extra edges, some of them parallel, about a third of
    the weights zero; max_edges edges at most."""
    while True:
        n = rng.randint(min(t_sizes), max_nodes)
        ends = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(rng.randint(0, max_edges - len(ends))):
            ends.append(rng.choice(ends) if rng.random() < 0.3 else tuple(rng.sample(range(n), 2)))
        rng.shuffle(ends)
        degree = Counter(x for pair in ends for x in pair)
        if sum(d % 2 for d in degree.values()) in t_sizes:
            return n, [(u, v, 0 if rng.random() < 1 / 3 else rng.randint(1, 9)) for u, v in ends]


def no_matching(*_args):
    raise AssertionError("a component with |T| <= 4 reached the matcher")


class TestPathRoute:
    """Components with at most four T nodes are solved by shortest paths."""

    def check(self, monkeypatch, inst, edges):
        with monkeypatch.context() as m:
            m.setattr(aapsm.tjoin, "min_weight_perfect_matching", no_matching)
            join, weight, seconds = solve_tjoin(inst)
            repeats = [solve_tjoin(inst)[0], solve_tjoin(inst)[0]]
        assert seconds == 0.0
        assert repeats == [join, join]
        assert weight == min_tjoin_weight(range(len(inst.nodes)), edges, inst.t_nodes)
        assert weight == gadget_route_tjoin(inst, MODE_GENERALIZED)[1]
        assert weight == gadget_route_tjoin(inst, MODE_OPTIMIZED)[1]
        assert weight == sum(inst.edges[eid].weight for eid in join)
        assert join_odd_nodes(inst, join) == inst.t_nodes

    def test_random_connected_instances(self, monkeypatch):
        rng = random.Random(4711)
        sizes = Counter()
        for _ in range(120):
            n, edges = connected_multigraph(rng, (2, 4), 6, 11)
            inst = tjoin_from_graph(range(n), edges)
            self.check(monkeypatch, inst, edges)
            sizes[len(inst.t_nodes)] += 1
        assert sizes[2] >= 20 and sizes[4] >= 20, sizes

    def test_planar_dual_instances(self, monkeypatch):
        from aapsm.planar import build_dual, planarize
        from conftest import sample_micro_pcgs

        checked = 0
        for _layout, _shifters, _pairs, g in sample_micro_pcgs(
            909, 30, max_features=4, require_planar=True, max_edges=14
        ):
            dual = build_dual(planarize(g))
            usable = [(e.u, e.v, e.weight) for e in dual.edges if not e.is_self_loop]
            inst = tjoin_from_graph(range(dual.n_faces), usable)
            if len(usable) > 12 or not 0 < len(inst.t_nodes) <= 4:
                continue
            self.check(monkeypatch, inst, usable)
            checked += 1
        assert checked >= 5

    def test_via_takes_cheapest_then_lowest_id_parallel_edge(self):
        """Every edge Dijkstra records is the (weight, id)-least of the edges
        between its two ends, so the costlier edges of a parallel class never
        enter a join."""
        rng = random.Random(2323)
        tied = 0  # via edges with an equally cheap parallel rival
        for _ in range(200):
            n = rng.randint(2, 7)
            raw = []
            for _ in range(rng.randint(1, 8)):
                u, v = rng.sample(range(n), 2)
                style = rng.choice(("equal", "zero", "mixed"))
                base = rng.randint(0, 9)
                for _ in range(rng.randint(1, 4)):
                    w = {"equal": base, "zero": 0, "mixed": rng.randint(0, 9)}[style]
                    raw.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
            rng.shuffle(raw)
            inst = tjoin_from_graph(range(n), raw)
            best = {}
            for e in inst.edges:  # in id order, so a weight tie keeps the first
                pair = frozenset((e.u, e.v))
                if pair not in best or e.weight < best[pair].weight:
                    best[pair] = e
            rivals = Counter(
                frozenset((e.u, e.v)) for e in inst.edges
                if e.weight == best[frozenset((e.u, e.v))].weight
            )
            face_of = [n for e in inst.edges for n in (e.u, e.v)]
            incident, _ = aapsm.tjoin._dart_incidence(
                face_of, [e.weight for e in inst.edges], n
            )
            forest = aapsm.tjoin._SpanningForest.of(inst)
            for comp in forest.components:
                for source in comp:
                    _, via = aapsm.tjoin._shortest_paths(incident, source, comp)
                    for node, (prev, eid, _) in via.items():
                        e = inst.edges[eid]
                        pair = frozenset((e.u, e.v))
                        assert pair == {prev, node}
                        assert e is best[pair], (e, best[pair])
                        tied += rivals[pair] > 1
        assert tied >= 300, tied

    def test_tie_takes_first_pairing(self):
        # a unit 4-cycle 0-1-3-2-0 with a hub joined to all four: T = {0..3};
        # pairings {01, 23} and {02, 13} both cost 2, the first one listed wins
        edges = [(0, 1, 1), (1, 3, 1), (3, 2, 1), (2, 0, 1)]
        edges += [(4, x, 5) for x in range(4)]
        inst = tjoin_from_graph(range(5), edges)
        assert inst.t_nodes == {0, 1, 2, 3}
        join, weight, _ = solve_tjoin(inst)
        assert (join, weight) == ([0, 2], 2)

    def test_bad_distance_is_internal_fault(self, monkeypatch):
        real = aapsm.tjoin._shortest_paths

        def off_by_one(incident, source, targets):
            dist, via = real(incident, source, targets)
            return {n: d + (n != source) for n, d in dist.items()}, via

        monkeypatch.setattr(aapsm.tjoin, "_shortest_paths", off_by_one)
        with pytest.raises(InternalInvariantError, match="pairing cost"):
            solve_tjoin(path_abc())

    def test_bad_path_is_internal_fault(self, monkeypatch):
        real = aapsm.tjoin._tree_path
        monkeypatch.setattr(
            aapsm.tjoin, "_tree_path", lambda via, s, t: real(via, s, t)[1:]
        )
        with pytest.raises(InternalInvariantError, match="pairing cost"):
            solve_tjoin(path_abc())


class TestDarts:
    """`solve_on_darts` reads edge k off darts 2k and 2k+1, and checks what
    the dual records it replaced checked."""

    def test_loops_and_unembedded_edges_stay_out(self):
        # faces 0-1-2 in a path (edges 1 and 3), a bridge's self-loop on face
        # 1 (edge 2) and an unembedded edge 0
        face_of = [-1, -1, 0, 1, 1, 1, 1, 2]
        join, weight, seconds = solve_on_darts(face_of, [9, 5, 1, 7], [1, 4, 1])
        assert (join, weight, seconds) == ([1, 3], 12, 0.0)

    def test_dart_count_off_the_face_size_is_internal_fault(self):
        with pytest.raises(InternalInvariantError, match="face boundary lengths"):
            solve_on_darts([0, 1, 1, 2], [5, 7], [1, 1, 1])

    def test_negative_weight_is_internal_fault(self):
        with pytest.raises(InternalInvariantError, match="edge 1 has negative weight"):
            solve_on_darts([0, 1, 1, 2], [5, -7], [1, 2, 1])

    def test_join_off_t_is_internal_fault(self, monkeypatch):
        real = aapsm.tjoin._solve_by_paths

        def one_edge_short(incident, t_nodes):
            join, weight, seconds = real(incident, t_nodes)
            weight -= join.pop(min(join))[0]  # the weight still adds up
            return join, weight, seconds

        monkeypatch.setattr(aapsm.tjoin, "_solve_by_paths", one_edge_short)
        with pytest.raises(InternalInvariantError, match="not a T-join"):
            solve_tjoin(path_abc())


class TestClosureRoute:
    """Components with six or more T nodes are solved by shortest paths,
    paired up by a matching over the complete graph on T."""

    def test_random_connected_instances(self, monkeypatch):
        seen = []
        real = aapsm.tjoin.min_weight_perfect_matching

        def recording(node_ids, weighted_edges):
            seen.append(len(node_ids))
            return real(node_ids, weighted_edges)

        rng = random.Random(1312)
        sizes = Counter()
        for _ in range(60):
            n, edges = connected_multigraph(rng, range(6, 17, 2), 20, 30)
            inst = tjoin_from_graph(range(n), edges)
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(aapsm.tjoin, "min_weight_perfect_matching", recording)
                join, weight, _ = solve_tjoin(inst)
                repeats = [solve_tjoin(inst)[0], solve_tjoin(inst)[0]]
            assert seen == [len(inst.t_nodes)] * 3
            assert repeats == [join, join]
            for mode in GADGET_MODES:
                assert weight == gadget_route_tjoin(inst, mode)[1]
                assert weight == unsplit_tjoin_weight(inst, mode)
            assert weight == sum(inst.edges[eid].weight for eid in join)
            assert join_odd_nodes(inst, join) == inst.t_nodes
            sizes[len(inst.t_nodes)] += 1
        assert min(sizes) == 6 and max(sizes) >= 12, sizes

    def star(self):
        """Six leaves around a hub: T is the leaves, the join every edge."""
        return tjoin_from_graph(range(7), [(0, leaf, leaf) for leaf in range(1, 7)])

    def test_bad_distance_is_internal_fault(self, monkeypatch):
        real = aapsm.tjoin._shortest_paths

        def off_by_one(incident, source, targets):
            dist, via = real(incident, source, targets)
            return {n: d + (n != source) for n, d in dist.items()}, via

        monkeypatch.setattr(aapsm.tjoin, "_shortest_paths", off_by_one)
        with pytest.raises(InternalInvariantError, match="pairing cost"):
            solve_tjoin(self.star())

    def test_bad_matched_cost_is_internal_fault(self, monkeypatch):
        real = aapsm.tjoin.min_weight_perfect_matching

        def one_more(node_ids, weighted_edges):
            pairs, cost = real(node_ids, weighted_edges)
            return pairs, cost + 1

        monkeypatch.setattr(aapsm.tjoin, "min_weight_perfect_matching", one_more)
        with pytest.raises(InternalInvariantError, match="pairing cost"):
            solve_tjoin(self.star())
