"""Conflict graph construction, bipartiteness detectors, phase assignment."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from aapsm.cli import main
from aapsm.conflict_graph import (
    EDGE_FEATURE,
    EDGE_OVERLAP_HALF,
    FEATURE_EDGE_WEIGHT,
    NODE_EDGE_SHIFTER,
    NODE_OVERLAP,
    PHASE_A,
    PHASE_B,
    WEIGHT_SEPARATION,
    WEIGHT_UNIFORM,
    PcgEdge,
    PcgNode,
    build_conflict_graph,
    dump_graph,
    is_bipartite,
    phase_assign,
    signed_components,
    signed_forest,
)
from aapsm.errors import GeometryError, InternalInvariantError, LayoutValidationError
from aapsm.generator import generate_layout
from aapsm.layout import (
    FEATURE_LAYER,
    DesignRules,
    Layout,
    Rect,
    find_overlapping_pairs,
    generate_shifters,
    parse_layout,
)
from aapsm.pipeline import correct, detect
from aapsm.planar import find_crossings, planarize

from conftest import (
    assert_perturbed_plane_embedding,
    built_positions,
    make_shifter,
    manhattan_layout,
    micro_layout,
    sample_micro_pcgs,
)
from oracles import (
    adjacent_collinear_pairs_oracle,
    build_conflict_graph_oracle,
    find_crossings_oracle,
    graph_from_records,
    phase_assign_oracle,
    phase_feasible,
    shifters_from_records,
)


def graph_from(layout):
    shifters = generate_shifters(layout)
    pairs = find_overlapping_pairs(shifters, layout.rules)
    return build_conflict_graph(shifters, pairs, layout.rules)


def skip_overlap_row():
    """Three tight wires in a row where outer shifters also overlap across
    the middle wire: the long overlaps' segments run along the middle
    feature edge and one overlap midpoint lands on a shifter node."""
    rules = DesignRules(150, 100, 0, 501)
    shifters = shifters_from_records(
        make_shifter(i, i // 2, "low" if i % 2 == 0 else "high", x, 0, w=100, h=800)
        for i, x in enumerate((-150, 50, 250, 450, 650, 850))
    )
    return shifters, find_overlapping_pairs(shifters, rules), rules


def has_ties(g) -> bool:
    """Two nodes share a position or two edges at a node run along one line."""
    return len(set(g.positions)) < len(g.positions) or bool(adjacent_collinear_pairs_oracle(g))


CONCENTRIC_LAYOUT = (
    "rules 150 200 50 200\n"
    "bbox 0 -1000 4000 2500\n"
    "rect poly 1000 0 2000 100\n"
    "rect poly 1100 400 1900 500\n"
)


def coarse_grid_layout(rng):
    """Ten critical wires on a 50 nm grid over a 1.5 um square: shifter
    centers and overlap midpoints line up far more often than on the 10 nm
    grid of the benchmark's random wires."""
    rects = []
    while len(rects) < 10:
        length = rng.randrange(400, 1000, 50)
        x, y = rng.randrange(0, 1500, 50), rng.randrange(0, 1500, 50)
        w, h = (100, length) if rng.random() < 0.5 else (length, 100)
        rect = Rect(x, y, x + w, y + h, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(other) for other in rects):
            rects.append(rect)
    return Layout(tuple(rects))


class TestBuild:
    def test_single_feature(self, comb_layout):
        rules = DesignRules(150, 200, 0, 100)
        from aapsm.layout import Layout, Rect

        layout = Layout((Rect(0, 0, 100, 1000, id=0),), rules)
        g = graph_from(layout)
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        e = g.edges[0]
        assert e.kind == EDGE_FEATURE and e.weight == FEATURE_EDGE_WEIGHT
        assert is_bipartite(g).ok

    def test_two_features_with_overlap_path(self):
        from aapsm.layout import Layout, Rect

        rules = DesignRules(150, 200, 0, 100)
        layout = Layout(
            (Rect(0, 0, 100, 1000, id=0), Rect(550, 0, 650, 1000, id=1)), rules
        )
        g = graph_from(layout)
        es = [n for n in g.nodes if n.kind == NODE_EDGE_SHIFTER]
        ov = [n for n in g.nodes if n.kind == NODE_OVERLAP]
        assert (len(es), len(ov)) == (4, 1)
        kinds = sorted(e.kind for e in g.edges)
        assert kinds == [EDGE_FEATURE, EDGE_FEATURE, EDGE_OVERLAP_HALF, EDGE_OVERLAP_HALF]
        assert is_bipartite(g).ok

    def test_overlap_node_degree_two_and_midpoint(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        for n in g.nodes:
            if n.kind != NODE_OVERLAP:
                continue
            incident = [e for e in g.edges if n.id in (e.u, e.v)]
            assert len(incident) == 2
            u, v = (g.nodes[e.v if e.u == n.id else e.u] for e in incident)
            assert n.pos == ((u.x + v.x) // 2, (u.y + v.y) // 2)
            assert (u.x + v.x) % 2 == 0 and (u.y + v.y) % 2 == 0

    def test_required_separation(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        for e in g.edges:
            if e.kind == EDGE_OVERLAP_HALF:
                assert e.required_separation == rules.min_shifter_spacing - 300

    def test_separation_weight_mode(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules, weight_mode="separation")
        for e in g.edges:
            if e.kind == EDGE_OVERLAP_HALF:
                assert e.weight == e.required_separation

    def test_unknown_weight_mode_rejected(self, odd_ring_fixture):
        with pytest.raises(ValueError, match="unknown weight mode 'bogus'"):
            build_conflict_graph(*odd_ring_fixture, weight_mode="bogus")

    def test_ring_is_odd(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        res = is_bipartite(g)
        assert not res.ok
        assert len(res.witness) == 9

    def test_deterministic_rebuild(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        a = build_conflict_graph(shifters, pairs, rules)
        b = build_conflict_graph(shifters, pairs, rules)
        assert dump_graph(a) == dump_graph(b)

    def test_dump_format(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        lines = dump_graph(g).splitlines()
        node_lines = [l for l in lines if l.startswith("node ")]
        edge_lines = [l for l in lines if l.startswith("edge ")]
        assert len(node_lines) == len(g.nodes)
        assert len(edge_lines) == len(g.edges)
        assert node_lines[0].split()[2] == NODE_EDGE_SHIFTER

    @pytest.mark.parametrize(
        "layout",
        [generate_layout(seed, 40, 0.7) for seed in range(1, 6)]
        + [manhattan_layout(seed) for seed in range(5000, 5010)],
        ids=[f"comb{seed}" for seed in range(1, 6)]
        + [f"manhattan{seed}" for seed in range(5000, 5010)],
    )
    def test_shifter_order_is_ignored(self, layout):
        shifters = generate_shifters(layout)
        pairs = find_overlapping_pairs(shifters, layout.rules)
        g = build_conflict_graph(shifters, pairs, layout.rules)
        rng = random.Random(len(shifters))
        for _ in range(3):
            shuffled = list(shifters)
            rng.shuffle(shuffled)
            h = build_conflict_graph(shifters_from_records(shuffled), pairs, layout.rules)
            assert dump_graph(h) == dump_graph(g)

    @pytest.mark.parametrize("count", [1, 3])
    def test_feature_without_two_shifters_rejected(self, count):
        """Feature 1 gets `count` shifters; the check names it whatever
        order the shifters come in."""
        shifters = [make_shifter(0, 0, "low", 0, 0), make_shifter(1, 0, "high", 200, 0)]
        shifters += [make_shifter(2 + k, 1, "low", 400 + 200 * k, 0) for k in range(count)]
        for order in (shifters, shifters[::-1]):
            with pytest.raises(LayoutValidationError) as err:
                build_conflict_graph(
                    shifters_from_records(order), (), DesignRules(150, 200, 0, 100)
                )
            assert str(err.value) == f"feature 1 has {count} shifters, expected 2"


class TestRecords:
    def test_node_is_an_immutable_hashable_record(self):
        node = PcgNode(3, NODE_OVERLAP, 8, -4)
        assert node.pos == (8, -4)
        assert node == PcgNode(id=3, kind=NODE_OVERLAP, x=8, y=-4)
        assert hash(node) == hash(PcgNode(3, NODE_OVERLAP, 8, -4))
        with pytest.raises(AttributeError):
            node.x = 9
        moved = node._replace(x=9)
        assert moved is not node and moved.pos == (9, -4)
        assert node.pos == (8, -4)


class TestColumns:
    """The graph is built as columns; its records are built on access."""

    @staticmethod
    def builder_cases():
        designs = [manhattan_layout(s) for s in range(5000, 5050)]
        rng = random.Random(2028)
        designs += [coarse_grid_layout(rng) for _ in range(50)]
        designs += [generate_layout(s, 40, 0.7) for s in range(1, 11)]
        for design in designs:
            shifters = generate_shifters(design)
            yield shifters, find_overlapping_pairs(shifters, design.rules), design.rules

    @pytest.mark.parametrize("weight_mode", [WEIGHT_UNIFORM, WEIGHT_SEPARATION])
    def test_builder_matches_record_oracle(self, weight_mode):
        """The column builder gives what the record-based builder gave:
        the same dump, every node at its built position, and an equal graph."""
        for case in self.builder_cases():
            g = build_conflict_graph(*case, weight_mode)
            slow = build_conflict_graph_oracle(*case, weight_mode)
            assert dump_graph(g) == dump_graph(slow)
            assert g.positions == built_positions(*case[:2])
            assert g == slow

    def test_from_records_round_trip(self):
        """A graph the builder made comes back equal from its own records,
        which are built once and read off the columns."""
        for case in itertools.islice(self.builder_cases(), 0, None, 5):
            g = build_conflict_graph(*case)
            assert g.nodes is g.nodes and g.edges is g.edges
            back = graph_from_records(g.nodes, g.edges)
            assert back == g
            assert back.nodes == g.nodes and back.edges == g.edges

    def test_cached_records_leave_equality_and_hash(self):
        """Reading the records changes neither equality nor the hash, and a
        copy with new positions builds its records there, not from the
        cache of the graph it was copied from."""
        for case in itertools.islice(self.builder_cases(), 0, None, 10):
            g = build_conflict_graph(*case)
            unread = hash(g)
            nodes, edges = g.nodes, g.edges
            back = graph_from_records(nodes, edges)
            assert g == back and hash(g) == hash(back) == unread
            shifted = tuple((x + 4, y - 4) for x, y in g.positions)
            moved = dataclasses.replace(g, positions=shifted)
            assert moved != g and moved.nodes is not nodes
            assert tuple(n.pos for n in moved.nodes) == shifted
            assert [n._replace(x=x, y=y) for n, (x, y) in zip(moved.nodes, g.positions)] == list(nodes)
            assert g.nodes is nodes and moved.edges == edges

    def test_detect_and_correct_build_no_records(self, monkeypatch):
        built = Counter()
        node_new, edge_init = PcgNode.__new__, PcgEdge.__init__

        def counted_node(cls, *args, **kwargs):
            built["PcgNode"] += 1
            return node_new(cls, *args, **kwargs)

        def counted_edge(self, *args, **kwargs):
            built["PcgEdge"] += 1
            edge_init(self, *args, **kwargs)

        designs = [generate_layout(1, 150, 0.0), generate_layout(1, 40, 0.7), manhattan_layout(1000)]
        with monkeypatch.context() as m:
            m.setattr(PcgNode, "__new__", counted_node)
            m.setattr(PcgEdge, "__init__", counted_edge)
            balanced = []
            for design in designs:
                det = detect(design)
                cor = correct(det, allow_uncovered=True)
                balanced.append(dict(det.report)["balanced_before"])
            assert balanced == ["1", "0", "0"]
            assert cor.plan.cuts and cor.residual_conflicts > 0  # residual back half ran
            assert built == Counter()
            g = det.graph
            assert len(g.nodes) == len(g.positions) and len(g.edges) == len(g.weights)
            assert built == {"PcgNode": len(g.positions), "PcgEdge": len(g.weights)}


class TestPerturbation:
    """No node is moved: the drawing's ties stay where the layout put them
    and are decided by the symbolic perturbation (`geometry.orient_sos`)
    that the crossing search and the embedding share."""

    def test_skip_overlap_row_gets_perturbed(self):
        shifters, pairs, rules = skip_overlap_row()
        assert (1, 4) in {(a, b) for a, b, _ in pairs}  # the skip overlap
        g = build_conflict_graph(shifters, pairs, rules)
        assert g.positions == built_positions(shifters, pairs)
        # an overlap midpoint lands on a shifter node, and the long overlaps
        # run along the middle feature edge: ties the perturbation decides
        assert len(set(g.positions)) < len(g.positions)
        assert adjacent_collinear_pairs_oracle(g)
        assert_perturbed_plane_embedding(planarize(g))
        # detector still matches the exhaustive oracle on this tangle
        constraints = [(2 * f, 2 * f + 1, False) for f in range(3)]
        constraints += [(a, b, True) for a, b, _ in pairs]
        assert is_bipartite(g).ok == phase_feasible(6, constraints)

    def test_benign_layouts_not_perturbed(self, comb_layout):
        shifters = generate_shifters(comb_layout)
        pairs = find_overlapping_pairs(shifters, comb_layout.rules)
        g = build_conflict_graph(shifters, pairs, comb_layout.rules)
        assert g.positions == built_positions(shifters, pairs)
        assert g.perturbed_nodes == ()

    def test_concentric_shifters_separated(self, tmp_path, capsys):
        """The upper shifter of one bar and the lower shifter of a shorter
        bar above it share a center; their nodes stay there, and the
        perturbation separates them."""
        path = tmp_path / "concentric.lay"
        path.write_text(CONCENTRIC_LAYOUT)
        assert main(["detect", str(path)]) == 0
        assert "conflicts_pcg=0" in capsys.readouterr().out

        layout = parse_layout(CONCENTRIC_LAYOUT)
        shifters = generate_shifters(layout)
        pairs = find_overlapping_pairs(shifters, layout.rules)
        g = build_conflict_graph(shifters, pairs, layout.rules)
        assert g.positions == built_positions(shifters, pairs)
        assert len({n.pos for n in g.nodes if n.kind == NODE_EDGE_SHIFTER}) < len(shifters)
        assert_perturbed_plane_embedding(planarize(g))
        by_feature = {}
        for s in shifters:
            by_feature.setdefault(s.feature_id, []).append(s.id)
        constraints = [(a, b, False) for a, b in by_feature.values()]
        constraints += [(a, b, True) for a, b, _ in pairs]
        assert is_bipartite(g).ok == phase_feasible(len(shifters), constraints)

    @pytest.mark.parametrize(
        "spots, ends",
        [
            # nested: (40, 50) overlaps (0, 100) but not (20, 30) sorted before it
            ("s0,0 s100,0 s20,0 s40,0 o30,0 o50,0", [(0, 1), (2, 4), (3, 5)]),
            # equal: one segment twice, the one tie no perturbation separates
            ("s0,0 o0,70", [(0, 1), (0, 1)]),
            # touching end to end, along an axis and along a diagonal
            ("s0,0 o100,0 s120,0 s0,10 o30,20 s60,30", [(0, 1), (1, 2), (3, 4), (4, 5)]),
            # opposite directions and negative coordinates, on one line
            ("s-30,-10 o30,10 s60,20 o0,0", [(0, 1), (2, 3)]),
            ("s0,-5 o0,-50 s0,-10 o0,-40", [(0, 1), (2, 3)]),
            ("s-90,-30 o-60,-20 s0,0 o-30,-10", [(0, 1), (2, 3)]),
            # parallel, one quarter-nm apart
            ("s0,0 o30,10 s0,1 o30,11", [(0, 1), (2, 3)]),
            # partial overlaps along x and along y, and an offset parallel on x
            ("s0,0 o30,0 s20,0 o40,0", [(0, 1), (2, 3)]),
            ("s0,0 o0,30 s0,20 o0,90", [(0, 1), (2, 3)]),
            ("s0,0 o30,0 s10,10 o20,10", [(0, 1), (2, 3)]),
        ],
        ids=[
            "nested", "equal", "touching", "diagonal", "vertical", "gap", "parallel",
            "partial-x", "partial-y", "offset-x",
        ],
    )
    def test_one_pass_on_hand_built_lines(self, spots, ends):
        """One crossing search on segments along shared lines finds what the
        all-pairs oracle finds, and the survivors embed as a plane drawing;
        two edges with the same ends are rejected instead."""
        nodes = [
            PcgNode(k, NODE_OVERLAP if spot[0] == "o" else NODE_EDGE_SHIFTER,
                    *map(int, spot[1:].split(",")))
            for k, spot in enumerate(spots.split())
        ]
        edges = [PcgEdge(k, u, v, 1, EDGE_OVERLAP_HALF, (0, 1)) for k, (u, v) in enumerate(ends)]
        g = graph_from_records(nodes, edges)
        assert find_crossings(g) == find_crossings_oracle(g)
        if len(set(ends)) < len(ends):
            with pytest.raises(GeometryError, match="both join"):
                planarize(g)
        else:
            assert_perturbed_plane_embedding(planarize(g))

    def test_coarse_grid_designs_general_position(self):
        """Random wires on a coarse grid line up nodes and edges all the
        time; each graph keeps its built positions and is a plane drawing
        once perturbed."""
        rng = random.Random(50)
        tied = 0
        for _ in range(200):
            layout = coarse_grid_layout(rng)
            shifters = generate_shifters(layout)
            pairs = find_overlapping_pairs(shifters, layout.rules)
            g = build_conflict_graph(shifters, pairs, layout.rules)
            assert g.positions == built_positions(shifters, pairs)
            assert_perturbed_plane_embedding(planarize(g))
            tied += has_ties(g)
        assert tied >= 50, tied


class TestGeneralPosition:
    """Every graph the builder makes is in general position once perturbed:
    planarize embeds it as built, with no raise and no Euler failure."""

    def test_micro_and_degenerate_layouts(self):
        graphs = [g for *_, g in sample_micro_pcgs(31337, 200, max_features=8)]
        graphs.append(build_conflict_graph(*skip_overlap_row()))
        assert sum(has_ties(g) for g in graphs) >= 3
        for g in graphs:
            assert_perturbed_plane_embedding(planarize(g))

    @pytest.mark.parametrize("density", [0.0, 0.7])
    def test_generated_layouts(self, density):
        for seed in (1, 2, 3):
            g = graph_from(generate_layout(seed, features=40, motif_density=density))
            assert_perturbed_plane_embedding(planarize(g))

    def test_builder_output_passes_the_planar_check(self):
        """`detect` checks nothing of the drawing before the crossing search
        and the embedding: every builder output passes planarize, whose
        Euler check certifies the embedding, ties included."""
        rng = random.Random(1)
        grid = [graph_from(coarse_grid_layout(rng)) for _ in range(1000)]
        assert sum(has_ties(g) for g in grid) >= 300
        rng = random.Random(6)
        micro = []
        while len(micro) < 2000:
            layout = micro_layout(rng, 6)
            if layout is not None:
                micro.append(graph_from(layout))
        generated = [
            graph_from(generate_layout(seed, features=60, motif_density=density))
            for seed in range(1, 11)
            for density in (0.0, 0.3, 0.7, 1.0)
        ]
        manhattan = [graph_from(manhattan_layout(seed)) for seed in range(5000, 5200)]
        for g in grid + micro + generated + manhattan:
            planarize(g)


class TestIsBipartite:
    def test_empty(self):
        g = build_conflict_graph(shifters_from_records(()), (), DesignRules(150, 200, 0, 100))
        assert is_bipartite(g).ok

    def test_witness_is_unbalanced_cycle(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        witness = is_bipartite(g).witness
        unequal = sum(1 for eid in witness if not g.edges[eid].is_equal_constraint)
        assert unequal % 2 == 1
        # every witness node is visited exactly twice (it is a cycle)
        from collections import Counter

        ends = Counter()
        for eid in witness:
            e = g.edges[eid]
            ends[e.u] += 1
            ends[e.v] += 1
        assert all(c == 2 for c in ends.values())

    def test_deleting_witness_edge_restores_balance(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        witness = is_bipartite(g).witness
        assert signed_components(g, frozenset({witness[0]}))[2] is None

    def test_matches_phase_feasibility_oracle(self):
        checked = 0
        for layout, shifters, pairs, g in sample_micro_pcgs(101, 60, max_features=4):
            constraints = []
            by_feature = {}
            for s in shifters:
                by_feature.setdefault(s.feature_id, []).append(s.id)
            for a, b in by_feature.values():
                constraints.append((a, b, False))
            for a, b, _sep in pairs:
                constraints.append((a, b, True))
            expect = phase_feasible(len(shifters), constraints)
            assert is_bipartite(g).ok == expect
            checked += 1
        assert checked == 60

    def test_two_coloring_agrees_with_signed_forest(self):
        """The two-coloring and the signed union-find agree on every conflict
        graph minus any edge subset; `detect` relies on it without
        re-checking."""
        rng = random.Random(4242)
        verdicts = set()
        for _layout, _shifters, _pairs, g in sample_micro_pcgs(303, 60, max_features=5):
            for _ in range(5):
                removed = frozenset(e.id for e in g.edges if rng.random() < 0.3)
                kept = [e.id for e in g.edges if e.id not in removed]
                ok = signed_components(g, removed)[2] is None
                assert ok == (not signed_forest(g, kept)[1])
                verdicts.add(ok)
        assert verdicts == {True, False}


class TestPhaseAssign:
    def test_single_feature_polarity(self):
        from aapsm.layout import Layout, Rect

        rules = DesignRules(150, 200, 0, 100)
        layout = Layout((Rect(0, 0, 100, 1000, id=0),), rules)
        g = graph_from(layout)
        phases = phase_assign(g)
        assert phases[0] == PHASE_A  # lowest node id anchors at 0 degrees
        assert phases[1] == PHASE_B

    def test_overlap_shares_phase(self):
        from aapsm.layout import Layout, Rect

        rules = DesignRules(150, 200, 0, 100)
        layout = Layout(
            (Rect(0, 0, 100, 1000, id=0), Rect(650, 0, 750, 1000, id=1)), rules
        )
        g = graph_from(layout)
        phases = phase_assign(g)
        for e in g.edges:
            if e.kind == EDGE_OVERLAP_HALF:
                assert phases[e.u] == phases[e.v]
            else:
                assert phases[e.u] != phases[e.v]

    def test_residual_cycle_raises(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        with pytest.raises(InternalInvariantError):
            phase_assign(g)

    def test_ring_with_one_deletion_assignable(self, odd_ring_fixture):
        shifters, pairs, rules = odd_ring_fixture
        g = build_conflict_graph(shifters, pairs, rules)
        overlap_half = next(e.id for e in g.edges if e.kind == EDGE_OVERLAP_HALF)
        phases = phase_assign(g, frozenset({overlap_half}))
        for e in g.edges:
            if e.id == overlap_half:
                continue
            same = phases[e.u] == phases[e.v]
            assert same == e.is_equal_constraint

    def test_matches_union_find_oracle_on_micro_graphs(self):
        rng = random.Random(5151)
        compared = raised = 0
        for *_, g in sample_micro_pcgs(505, 60, max_features=5):
            for _ in range(5):
                removed = frozenset(e.id for e in g.edges if rng.random() < 0.3)
                expect = phase_assign_oracle(g, removed)
                if expect is None:
                    with pytest.raises(InternalInvariantError, match="residual unbalanced"):
                        phase_assign(g, removed)
                    raised += 1
                else:
                    assert phase_assign(g, removed) == expect
                    compared += 1
        assert compared >= 100 and raised > 0, (compared, raised)

    @pytest.mark.parametrize("source", ["rows", "comb", "manhattan"])
    def test_matches_union_find_oracle_minus_conflicts(self, source):
        for seed in (1, 2, 3):
            if source == "manhattan":
                layout = manhattan_layout(1000 + seed)
            else:
                layout = generate_layout(seed, 40, 0.0 if source == "rows" else 0.7)
            det = detect(layout)
            removed = frozenset(det.conflicts.edge_ids)
            expect = phase_assign_oracle(det.graph, removed)
            assert expect is not None
            assert phase_assign(det.graph, removed) == expect
