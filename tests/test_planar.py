"""Planarization, rotation/face tracing, and the dual graph."""

import math
import random
from collections import Counter

import pytest

from aapsm.conflict_graph import (
    EDGE_FEATURE,
    EDGE_OVERLAP_HALF,
    PcgEdge,
    PcgNode,
    build_conflict_graph,
)
from aapsm.errors import GeometryError, InternalInvariantError
from aapsm.generator import generate_layout
from aapsm.layout import find_overlapping_pairs, generate_shifters
from aapsm.planar import (
    _euler_check,
    _trace_faces,
    build_dual,
    dump_embedding,
    embed,
    find_crossings,
    planarize,
    remove_crossings,
)

from conftest import (
    assert_perturbed_plane_embedding,
    big_manhattan_layout,
    manhattan_layout,
    sample_micro_pcgs,
)
from oracles import (
    adjacent_collinear_pairs_oracle,
    crossings_oracle,
    cyclic_form,
    embed_oracle,
    find_crossings_oracle,
    graph_from_records,
    min_crossing_removal_weight,
    remove_crossings_oracle,
)


def raw_graph(points, edges_spec):
    """Arbitrary geometric test graph; edges_spec: (u, v, weight)."""
    nodes = tuple(
        PcgNode(i, "edge_shifter", x, y)
        for i, (x, y) in enumerate(points)
    )
    edges = tuple(
        PcgEdge(k, u, v, w, EDGE_OVERLAP_HALF, (u, v), 1)
        for k, (u, v, w) in enumerate(edges_spec)
    )
    return graph_from_records(nodes, edges)


def crossings_among(g, edge_ids):
    """The crossings of g between two of these edges."""
    kept = set(edge_ids)
    return [c for c in find_crossings(g) if kept.issuperset(c)]


def assert_rotation_holds_survivors(emb):
    """The rotation lists exactly the kept edges, each once at both its
    ends; no removed edge appears and no node is left with an empty one."""
    listed = Counter(eid for rot in emb.rotation.values() for eid in rot)
    assert set(listed) == set(emb.kept_edge_ids)
    assert not set(listed) & set(emb.removed_edge_ids)
    assert all(emb.rotation.values())
    for eid in emb.kept_edge_ids:
        e = emb.graph.edges[eid]
        assert eid in emb.rotation[e.u] and eid in emb.rotation[e.v]
        assert listed[eid] == 2


def face_component(emb, face):
    """The lowest node id of the face's connected component."""
    seen, stack = set(), [face[0][0]]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            for eid in emb.rotation[u]:
                e = emb.graph.edges[eid]
                stack.append(e.v if e.u == u else e.u)
    return min(seen)


def design_graph(layout):
    shifters = generate_shifters(layout)
    pairs = find_overlapping_pairs(shifters, layout.rules)
    return build_conflict_graph(shifters, pairs, layout.rules)


def manhattan_embeddings(seeds):
    for seed in seeds:
        yield planarize(design_graph(manhattan_layout(seed)))


class TestFindCrossings:
    def test_x_shape(self):
        g = raw_graph(
            [(0, 0), (2, 2), (0, 2), (2, 0)],
            [(0, 1, 1), (2, 3, 1)],
        )
        assert find_crossings(g) == ((0, 1),)

    def test_shared_endpoint_excluded(self):
        g = raw_graph([(0, 0), (2, 2), (4, 0)], [(0, 1, 1), (1, 2, 1)])
        assert find_crossings(g) == ()

    def test_matches_oracle_on_random_graph(self):
        rng = random.Random(5150)
        points = []
        seen = set()
        while len(points) < 60:
            p = (rng.randint(0, 400), rng.randint(0, 400))
            if p not in seen:
                seen.add(p)
                points.append(p)
        edges = []
        used = set()
        while len(edges) < 500:
            u, v = rng.randrange(60), rng.randrange(60)
            if u == v or (min(u, v), max(u, v)) in used:
                continue
            used.add((min(u, v), max(u, v)))
            edges.append((u, v, 1))
        g = raw_graph(points, edges)
        got = set(find_crossings(g))

        segments = {
            e.id: (points[e.u], points[e.v]) for e in g.edges
        }
        exclusions = set()
        for e in g.edges:
            for f in g.edges:
                if e.id < f.id and {e.u, e.v} & {f.u, f.v}:
                    exclusions.add((e.id, f.id))
        assert got == crossings_oracle(segments, exclusions)

    def test_random_drawings_match_all_pairs_oracle(self):
        """Long edges among short ones, negative coordinates, and
        axis-parallel edges that touch or run collinear."""
        rng = random.Random(8080)
        for _ in range(60):
            points = list({(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(25)})
            points += [(-1000, rng.randint(-5, 5)), (1000, rng.randint(-5, 5))]
            n = len(points)
            spec = [(n - 2, n - 1, 1)]  # one long edge across everything
            for _ in range(rng.randint(1, 60)):
                u = rng.randrange(n - 2)
                if rng.random() < 0.3:  # axis-parallel to some other point
                    same = [v for v in range(n - 2) if v != u and (
                        points[v][0] == points[u][0] or points[v][1] == points[u][1])]
                    v = rng.choice(same) if same else (u + 1) % (n - 2)
                else:
                    v = rng.randrange(n - 2)
                if u != v:
                    spec.append((u, v, 1))
            g = raw_graph(points, spec)
            assert find_crossings(g) == find_crossings_oracle(g)


class TestPlanarize:
    def test_already_planar(self):
        g = raw_graph([(0, 0), (10, 0), (5, 8)], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        emb = planarize(g)
        assert emb.removed_edge_ids == ()
        assert len(emb.faces) == 2

    def test_min_weight_edge_removed(self):
        g = raw_graph(
            [(0, 0), (2, 2), (0, 2), (2, 0)],
            [(0, 1, 1), (2, 3, 3)],
        )
        emb = planarize(g)
        assert emb.removed_edge_ids == (0,)

    def test_survivors_crossing_free(self):
        rng = random.Random(99)
        points = []
        seen = set()
        while len(points) < 20:
            p = (rng.randint(0, 60), rng.randint(0, 60))
            if p not in seen:
                seen.add(p)
                points.append(p)
        edges = []
        used = set()
        while len(edges) < 40:
            u, v = rng.randrange(20), rng.randrange(20)
            if u == v or (min(u, v), max(u, v)) in used:
                continue
            used.add((min(u, v), max(u, v)))
            edges.append((u, v, rng.randint(1, 5)))
        g = raw_graph(points, edges)
        emb = planarize(g)
        assert crossings_among(g, emb.kept_edge_ids) == []
        assert emb.removed_edge_ids
        assert_rotation_holds_survivors(emb)

    def test_k5_removal_matches_optimum(self):
        # K5 on convex positions: the five diagonals cross in a pentagram
        pts = [(0, 0), (100, 10), (160, 80), (50, 150), (-60, 80)]
        edges = [(u, v, 1) for u in range(5) for v in range(u + 1, 5)]
        g = raw_graph(pts, edges)
        crossings = find_crossings(g)
        weights = {e.id: e.weight for e in g.edges}
        optimum = min_crossing_removal_weight(weights, crossings)
        emb = planarize(g)
        assert len(emb.removed_edge_ids) == optimum == 3

    def test_greedy_never_beats_optimum(self):
        # two edges leaving a node on one ray are ordered by the perturbation,
        # so every graph embeds and the optimality bound holds on all of them
        rng = random.Random(4242)
        same_ray = 0
        for _ in range(40):
            n = rng.randint(4, 7)
            points = []
            seen = set()
            while len(points) < n:
                p = (rng.randint(0, 40), rng.randint(0, 40))
                if p not in seen:
                    seen.add(p)
                    points.append(p)
            edges = []
            used = set()
            m = rng.randint(3, min(10, n * (n - 1) // 2))
            while len(edges) < m:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (min(u, v), max(u, v)) in used:
                    continue
                used.add((min(u, v), max(u, v)))
                edges.append((u, v, rng.randint(1, 6)))
            g = raw_graph(points, edges)
            same_ray += bool(adjacent_collinear_pairs_oracle(g))
            crossings = find_crossings(g)
            weights = {e.id: e.weight for e in g.edges}
            optimum = min_crossing_removal_weight(weights, crossings)
            emb = planarize(g)
            removed_weight = sum(weights[e] for e in emb.removed_edge_ids)
            assert removed_weight >= optimum
            assert crossings_among(g, emb.kept_edge_ids) == []
            assert_rotation_holds_survivors(emb)
        assert same_ray == 4

    def test_rotation_holds_survivors_on_designs_with_crossings(self):
        with_crossings = 0
        for emb in manhattan_embeddings(range(5000, 5040)):
            assert_rotation_holds_survivors(emb)
            with_crossings += bool(emb.removed_edge_ids)
        assert with_crossings >= 20, with_crossings


def random_grid_graph(rng: random.Random):
    """Raw graph on a 5x5 grid: dense with collinear runs and parallel edges."""
    n = rng.randint(3, 8)
    points = rng.sample([(x, y) for x in range(5) for y in range(5)], n)
    edges = [
        (*rng.sample(range(n), 2), rng.randint(1, 4)) for _ in range(rng.randint(1, 12))
    ]
    return raw_graph(points, edges)


def parallel_pairs(g):
    """Pairs (a, b), a < b, of edges with the same two ends."""
    return [
        (e.id, f.id) for e in g.edges for f in g.edges
        if e.id < f.id and {e.u, e.v} == {f.u, f.v}
    ]


class TestAdjacentOverlaps:
    """Two edges leaving a node on the same ray are ordered by the
    perturbation of their far ends; only two edges with the same two ends
    draw one segment, and planarize rejects them."""

    def test_three_edges_on_one_ray_and_parallel_edges(self):
        points = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 5)]
        spec = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 0, 1), (0, 4, 1)]
        g = raw_graph(points, spec)
        assert adjacent_collinear_pairs_oracle(g) == {(0, 1), (0, 2), (1, 2), (3, 4)}
        with pytest.raises(GeometryError, match=r"^edges 3 and 4 both join nodes 0 and 4$"):
            planarize(g)
        # without the parallel edge: node 0 moves up, so the nearer far end
        # is seen at the lower angle; the three edges are one path of faces
        emb = planarize(raw_graph(points, spec[:4]))
        assert emb.rotation[0] == (0, 1, 2, 3)
        assert_perturbed_plane_embedding(emb)
        assert len(emb.faces) == 1

    def test_direction_ties_match_all_pairs_oracle(self):
        rng = random.Random(2718)
        rejected = ties = long_runs = 0
        for _ in range(300):
            g = random_grid_graph(rng)
            parallel = parallel_pairs(g)
            if parallel:
                with pytest.raises(GeometryError) as info:
                    planarize(g)
                a, b = min(parallel, key=lambda pair: pair[::-1])
                assert str(info.value).startswith(f"edges {a} and {b} both join")
                rejected += 1
                # the graph without the later edge of each parallel pair embeds
                later = {b for _, b in parallel}
                g = raw_graph(
                    g.positions, [(e.u, e.v, e.weight) for e in g.edges if e.id not in later]
                )
            emb = planarize(g)
            assert_rotation_holds_survivors(emb)
            assert_perturbed_plane_embedding(emb)
            pairs = adjacent_collinear_pairs_oracle(g)
            ties += bool(pairs)
            # an edge in two pairs: three edges along one line at a node
            long_runs += bool(pairs) and max(Counter(e for p in pairs for e in p).values()) >= 2
        assert rejected > 50 and ties > 50 and long_runs > 10, (rejected, ties, long_runs)


def random_simple_drawing(rng: random.Random):
    """A simple graph drawn on a 3x3 grid: several nodes at most points,
    so coincident nodes, zero-length edges, collinear overlaps and
    T-touches are the rule; no two edges join the same two nodes."""
    n = rng.randint(3, 14)
    points = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.sample(pairs, rng.randint(1, min(len(pairs), 2 * n)))
    return raw_graph(points, [(u, v, rng.randint(1, 4)) for u, v in chosen])


class TestSimulationOfSimplicity:
    """Every tie of a simple drawing is decided by one symbolic perturbation,
    so the crossings and the rotation system describe one plane drawing."""

    def test_fuzz_simple_drawings_on_a_3x3_grid(self):
        rng = random.Random(31415)
        seen = Counter()
        for _ in range(1500):
            g = random_simple_drawing(rng)
            emb = planarize(g)  # the Euler check passes on every component
            assert_rotation_holds_survivors(emb)
            assert_perturbed_plane_embedding(emb)
            pos = g.positions
            seen["coincident"] += len(set(pos)) < len(pos)
            seen["zero-length"] += any(pos[e.u] == pos[e.v] for e in g.edges)
            seen["collinear"] += bool(adjacent_collinear_pairs_oracle(g))
            seen["removed"] += bool(emb.removed_edge_ids)
        assert min(seen.values()) > 300, seen

    def test_crossings_match_oracle_on_ties(self):
        rng = random.Random(2790)
        for _ in range(300):
            g = random_simple_drawing(rng)
            assert find_crossings(g) == find_crossings_oracle(g)

    def test_self_loop_rejected(self):
        g = raw_graph([(0, 0), (4, 0)], [(0, 1, 1), (1, 1, 1)])
        with pytest.raises(GeometryError, match=r"^edge 1 joins node 1 to itself$"):
            planarize(g)


class TestRequireGeneralPosition:
    """What planarize requires of a drawing: no two edges with the same two
    ends.  Every other tie is put in general position by the perturbation."""

    def test_same_ray_names_lowest_node_and_pair(self):
        # edges 1 and 4 join nodes 1 and 4 and so leave node 1 on one ray;
        # edges 2 and 3 of different lengths do too, but are two segments
        g = raw_graph(
            [(10, 10), (0, 0), (2, 2), (6, 6), (3, 0), (7, 0)],
            [(0, 5, 1), (1, 4, 1), (2, 1, 1), (1, 3, 1), (4, 1, 1), (1, 5, 1), (3, 1, 2)],
        )
        with pytest.raises(GeometryError, match=r"^edges 1 and 4 both join nodes 1 and 4$"):
            planarize(g)
        emb = planarize(raw_graph(
            [(10, 10), (0, 0), (2, 2), (6, 6), (3, 0), (7, 0)],
            [(0, 5, 1), (1, 4, 1), (2, 1, 1), (1, 3, 1), (1, 5, 1)],
        ))
        assert_perturbed_plane_embedding(emb)

    def test_opposite_rays_pass(self):
        g = raw_graph(
            [(0, 0), (3, 0), (-5, 0), (0, 4), (0, -2), (6, 9), (-2, -3)],
            [(0, 1, 1), (2, 0, 1), (0, 3, 1), (4, 0, 1), (0, 5, 1), (6, 0, 1)],
        )
        emb = planarize(g)
        assert emb.rotation[0] == (0, 4, 2, 1, 5, 3)
        assert_perturbed_plane_embedding(emb)


class TestFacesAndDual:
    def test_interior_faces_clockwise(self):
        """Each component has one face of signed area >= 0, its outer face
        (0 for a tree); every other face is walked clockwise."""
        for emb in manhattan_embeddings(range(5000, 5020)):
            g = emb.graph
            outer = Counter()
            for face in emb.faces:
                twice_area = 0
                for tail, eid in face:
                    e = g.edges[eid]
                    head = e.v if e.u == tail else e.u
                    (x1, y1), (x2, y2) = g.nodes[tail].pos, g.nodes[head].pos
                    twice_area += x1 * y2 - x2 * y1
                if twice_area >= 0:
                    outer[face_component(emb, face)] += 1
            assert set(outer.values()) == {1}
            assert len(outer) == len({face_component(emb, f) for f in emb.faces})

    def test_triangle_faces_and_dual(self):
        g = raw_graph([(0, 0), (10, 0), (5, 8)], [(0, 1, 2), (1, 2, 3), (2, 0, 4)])
        emb = planarize(g)
        assert len(emb.faces) == 2
        dual = build_dual(emb)
        assert dual.n_faces == 2
        assert len(dual.edges) == 3
        assert all(not e.is_self_loop for e in dual.edges)
        assert sorted(e.weight for e in dual.edges) == [2, 3, 4]
        # triple multi-edge between inner and outer face
        assert all({e.u, e.v} == {0, 1} for e in dual.edges)

    def test_single_edge_bridge(self):
        g = raw_graph([(0, 0), (10, 0)], [(0, 1, 7)])
        emb = planarize(g)
        assert len(emb.faces) == 1
        assert len(emb.faces[0]) == 2  # both half-edges, bridge walked twice
        dual = build_dual(emb)
        assert len(dual.edges) == 1 and dual.edges[0].is_self_loop

    def test_nested_squares_with_bridge(self):
        outer = [(0, 0), (40, 0), (40, 40), (0, 40)]
        inner = [(10, 10), (30, 10), (30, 30), (10, 30)]
        points = outer + inner
        edges = [(i, (i + 1) % 4, 1) for i in range(4)]
        edges += [(4 + i, 4 + (i + 1) % 4, 1) for i in range(4)]
        edges += [(0, 4, 1)]  # bridge joining the rings
        g = raw_graph(points, edges)
        emb = planarize(g)
        # faces: inside inner square, ring between squares (bridge twice), outside
        assert len(emb.faces) == 3
        assert sorted(len(f) for f in emb.faces) == [4, 4, 10]
        dual = build_dual(emb)
        assert sorted(dual.degrees()) == [4, 4, 10]
        assert sum(dual.degrees()) == 2 * len(dual.edges)
        # Euler: V=8, E=9, F=3 -> 8-9+3 == 2
        assert len(emb.kept_edge_ids) == 9

    def test_two_components_independent(self):
        g = raw_graph(
            [(0, 0), (10, 0), (5, 8), (100, 0), (110, 0), (105, 8)],
            [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)],
        )
        emb = planarize(g)
        # each triangle: inner + outer face
        assert len(emb.faces) == 4
        dual = build_dual(emb)
        assert len(dual.edges) == 6

    def test_dual_degree_equals_boundary_length(self):
        for layout, shifters, pairs, g in sample_micro_pcgs(77, 25, max_features=4):
            emb = planarize(g)
            dual = build_dual(emb)
            assert dual.degrees() == [len(f) for f in emb.faces]
            assert len(dual.edges) == len(emb.kept_edge_ids)

    def test_euler_formula_per_component_independent_check(self):
        # recompute V - E + F = 2 per component with plain dict traversal
        for layout, shifters, pairs, g in sample_micro_pcgs(555, 25, max_features=4):
            emb = planarize(g)
            adj: dict[int, set[int]] = {}
            for eid in emb.kept_edge_ids:
                e = g.edges[eid]
                adj.setdefault(e.u, set()).add(e.v)
                adj.setdefault(e.v, set()).add(e.u)
            comp_of: dict[int, int] = {}
            for start in sorted(adj):
                if start in comp_of:
                    continue
                label = start
                stack = [start]
                while stack:
                    u = stack.pop()
                    if u in comp_of:
                        continue
                    comp_of[u] = label
                    stack.extend(adj[u])
            for label in set(comp_of.values()):
                v = sum(1 for n in comp_of if comp_of[n] == label)
                e_count = sum(
                    1
                    for eid in emb.kept_edge_ids
                    if comp_of[g.edges[eid].u] == label
                )
                f_count = sum(
                    1
                    for face in emb.faces
                    if comp_of[face[0][0]] == label
                )
                assert v - e_count + f_count == 2

    @pytest.mark.parametrize(
        "triangle_first, component", [(False, 0), (True, 3)], ids=["k4", "triangle+k4"]
    )
    def test_euler_check_names_the_failing_component(self, triangle_first, component):
        # every node's rotation in edge-id order: a valid rotation system for
        # the triangle, but one that traces K4 with 2 faces instead of 4
        triangle = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
        k4 = [(u, v, 1) for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
        points = [(0, 0), (10, 0), (0, 10), (10, 10)]
        if triangle_first:
            k4 = [(u + 3, v + 3, w) for u, v, w in k4]
            points = [(100, 0), (110, 0), (105, 8)] + points
            g = raw_graph(points, triangle + k4)
        else:
            g = raw_graph(points, k4)
        rotation = {
            n.id: tuple(e.id for e in g.edges if n.id in (e.u, e.v)) for n in g.nodes
        }
        faces, _ = _trace_faces(g, rotation)
        message = f"^Euler check failed on component {component}: V=4 E=6 F=2$"
        with pytest.raises(InternalInvariantError, match=message):
            _euler_check(g, rotation, faces)

    def test_dump_embedding_lines(self):
        g = raw_graph([(0, 0), (10, 0), (5, 8)], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        emb = planarize(g)
        text = dump_embedding(emb)
        assert text.count("face ") == 2
        assert "removed" in text


def random_general_position_graph(rng: random.Random):
    """Raw graph on a 9x9 grid with no two edges leaving a node on one ray:
    axis-parallel, diagonal and skew edges, crossings, and nodes of degree
    three and more."""
    n = rng.randint(6, 14)
    points = rng.sample([(x, y) for x in range(9) for y in range(9)], n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rays, edges = set(), []
    for u, v in pairs[: rng.randint(n, 3 * n)]:
        (ux, uy), (vx, vy) = points[u], points[v]
        step = math.gcd(vx - ux, vy - uy)
        dx, dy = (vx - ux) // step, (vy - uy) // step
        if (u, dx, dy) in rays or (v, -dx, -dy) in rays:
            continue
        rays |= {(u, dx, dy), (v, -dx, -dy)}
        edges.append((u, v, rng.randint(1, 4)))
    return raw_graph(points, edges)


def assert_embedding_matches_oracle(g, removed):
    """`embed` gives the oracle's rotation (in node order, each node's as a
    cyclic order), its faces in order, and its dual edges."""
    emb = embed(g, removed)
    rotation, faces, dual_edges = embed_oracle(g, removed)
    assert list(emb.rotation) == list(rotation)
    assert all(cyclic_form(rot) == cyclic_form(rotation[v]) for v, rot in emb.rotation.items())
    assert emb.faces == faces
    dual = [(d.id, d.u, d.v, d.weight, d.primal_edge_id) for d in build_dual(emb).edges]
    assert dual == dual_edges
    return emb


class TestEmbeddingMatchesOracle:
    def test_manhattan_designs_with_crossings(self):
        with_crossings = 0
        for seed in range(5000, 5050):
            g = design_graph(manhattan_layout(seed))
            removed = remove_crossings(g)
            assert_embedding_matches_oracle(g, removed)
            with_crossings += bool(removed)
        assert with_crossings >= 40, with_crossings

    def test_generated_designs(self):
        designs = [(seed, 40) for seed in range(1, 11)] + [(1, 400)]
        for seed, features in designs:
            g = design_graph(generate_layout(seed, features, 0.7))
            emb = assert_embedding_matches_oracle(g, remove_crossings(g))
            assert len(emb.faces) > 1

    def test_random_general_position_drawings(self):
        rng = random.Random(9091)
        seen = set()
        for _ in range(120):
            g = random_general_position_graph(rng)
            emb = assert_embedding_matches_oracle(g, remove_crossings(g))
            for node_id, rot in emb.rotation.items():
                x, y = g.nodes[node_id].pos
                if len(rot) >= 3:
                    seen.add("degree 3+")
                for eid in rot:
                    e = g.edges[eid]
                    ox, oy = g.nodes[e.v if e.u == node_id else e.u].pos
                    dx, dy = ox - x, oy - y
                    if dx == 0 or dy == 0:
                        seen.add("axis")
                    elif abs(dx) == abs(dy):
                        seen.add("diagonal")
                    else:
                        seen.add((dx > 0, dy > 0))
        quadrants = {(sx, sy) for sx in (True, False) for sy in (True, False)}
        assert seen == {"degree 3+", "axis", "diagonal"} | quadrants


class TestRemoveCrossingsMatchesOracle:
    """The heap-driven crossing removal deletes what recounting every
    crossing each round deletes (`remove_crossings_oracle`)."""

    def test_manhattan_designs(self):
        victims = 0
        for seed in range(5000, 5100):
            g = design_graph(manhattan_layout(seed))
            removed = remove_crossings(g)
            assert removed == remove_crossings_oracle(g), seed
            victims += len(removed)
        assert victims >= 300, victims

    def test_random_general_position_drawings(self):
        rng = random.Random(4477)
        ties = 0
        for _ in range(200):
            g = random_general_position_graph(rng)
            removed = remove_crossings(g)
            assert removed == remove_crossings_oracle(g)
            weights = Counter(g.edges[eid].weight for eid in removed)
            ties += any(c > 1 for c in weights.values())
        assert ties >= 20, ties  # equal weights: the counts and ids break ties

    def test_dense_design(self):
        g = design_graph(big_manhattan_layout(250))
        removed = remove_crossings(g)
        assert len(removed) > 200
        assert removed == remove_crossings_oracle(g)


class TestIsolatedNodes:
    def test_isolated_nodes_dropped_from_faces(self):
        g = raw_graph([(0, 0), (10, 0), (99, 99)], [(0, 1, 1)])
        emb = planarize(g)
        walked = {tail for face in emb.faces for tail, _ in face}
        assert walked == {0, 1}
