"""Minimum-weight perfect matching against exhaustive enumeration, and the
package's blossom port against networkx's blossom."""

import random

import networkx as nx
import pytest

import aapsm.tjoin
from aapsm.errors import MatchingInfeasibleError
from aapsm.matching import _max_weight_matching, min_weight_perfect_matching
from aapsm.pipeline import detect

from conftest import big_manhattan_layout, manhattan_layout, spy_blossom
from oracles import min_perfect_matching_weight


def test_two_nodes_one_edge():
    pairs, total = min_weight_perfect_matching([0, 1], [(0, 1, 4)])
    assert pairs == [(0, 1)]
    assert total == 4


def test_four_cycle_picks_light_edges():
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)]
    pairs, total = min_weight_perfect_matching(range(4), edges)
    assert total == 2
    assert pairs == [(0, 1), (2, 3)]


def test_empty_graph():
    assert min_weight_perfect_matching([], []) == ([], 0)


def test_odd_count_infeasible():
    with pytest.raises(MatchingInfeasibleError):
        min_weight_perfect_matching([0, 1, 2], [(0, 1, 1)])


def test_no_perfect_matching_infeasible():
    # star: center can match only one leaf
    with pytest.raises(MatchingInfeasibleError):
        min_weight_perfect_matching(range(4), [(0, 1, 1), (0, 2, 1), (0, 3, 1)])


def test_zero_weights_allowed():
    pairs, total = min_weight_perfect_matching(range(4), [(0, 1, 0), (2, 3, 0), (0, 2, 5)])
    assert total == 0


def test_parallel_edges_collapse_to_cheapest():
    pairs, total = min_weight_perfect_matching([0, 1], [(0, 1, 9), (1, 0, 2)])
    assert total == 2


def check_against_oracle(nodes, edges):
    """The matcher agrees with enumeration, and its pairs are input edges that
    cover every node exactly once."""
    nodes = list(nodes)
    expect = min_perfect_matching_weight(nodes, edges)
    if expect is None:
        with pytest.raises(MatchingInfeasibleError):
            min_weight_perfect_matching(nodes, edges)
        return False
    pairs, total = min_weight_perfect_matching(nodes, edges)
    cheapest = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        cheapest[key] = min(w, cheapest.get(key, w))
    assert total == expect
    assert set(pairs) <= set(cheapest)
    assert sum(cheapest[p] for p in pairs) == total
    assert sorted(n for p in pairs for n in p) == sorted(nodes)
    return True


def random_dense(rng):
    n = rng.choice((4, 6, 8, 10, 12))
    density = rng.uniform(0.3, 0.9)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(0, 50)))
    return range(n), edges


def _relabel(rng, n, edges):
    """Scatter node ids, so id order is not the order the graph was built in."""
    ids = rng.sample(range(3 * n + 5), n)
    return ids, [(ids[u], ids[v], w) for u, v, w in edges]


def _chain(rng, edges, start, end, inner, next_node):
    """Join start to end through `inner` fresh degree-2 nodes; returns the next
    free node.  end None leaves a pendant path."""
    prev = start
    for _ in range(inner):
        edges.append((prev, next_node, rng.randint(0, 9)))
        prev, next_node = next_node, next_node + 1
    if end is not None:
        edges.append((prev, end, rng.randint(0, 9)))
    return next_node


def paths_and_cycles(rng):
    """One or two disjoint paths or cycles: two odd pieces have an even node
    count but no perfect matching."""
    edges, n = [], 0
    for _ in range(rng.choice((1, 2))):
        size = rng.randint(2, 7)
        start = n
        n = _chain(rng, edges, start, None, size - 1, n + 1)
        if size >= 3 and rng.random() < 0.5:
            edges.append((n - 1, start, rng.randint(0, 9)))  # close the cycle
    return _relabel(rng, n, edges)


def connectors(rng):
    """Complete gadgets over slots, slots of different gadgets tied by
    true -- dummy -- ghost paths of weight 0, as in the T-join reduction."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    slots, edges, n = [], [], 0
    for size in sizes:
        group = list(range(n, n + size))
        n += size
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                edges.append((u, v, rng.randint(0, 20)))
        slots.append(group)
    free = [s for group in slots for s in group]
    rng.shuffle(free)
    while len(free) >= 2 and n < 14:
        true, ghost = free.pop(), free.pop()
        edges += [(true, n, 0), (n, ghost, 0)]
        n += 1
    return _relabel(rng, n, edges)


def nested_chains(rng):
    """A small core whose edges are subdivided into chains of degree-2 nodes
    and which carries pendant paths."""
    core = rng.randint(2, 4)
    edges, n = [], core
    for u in range(core):
        for v in range(u + 1, core):
            if rng.random() < 0.6:
                n = _chain(rng, edges, u, v, rng.randint(0, 3), n)
    for u in range(core):
        if rng.random() < 0.5:
            n = _chain(rng, edges, u, None, rng.randint(1, 4), n)
    return _relabel(rng, n, edges)


def triangles(rng):
    """Triangles, alone, joined by an edge or by a chain, or with pendant
    paths: a triangle's degree-2 corner has adjacent neighbours."""
    edges, n = [], 0
    corners = []
    for _ in range(rng.randint(1, 3)):
        a, b, c = n, n + 1, n + 2
        edges += [(a, b, rng.randint(0, 9)), (b, c, rng.randint(0, 9)), (a, c, rng.randint(0, 9))]
        n += 3
        corners.append(a)
        if rng.random() < 0.4:
            n = _chain(rng, edges, c, None, rng.randint(1, 3), n)
    for u, v in zip(corners, corners[1:]):
        if rng.random() < 0.7:
            n = _chain(rng, edges, u, v, rng.randint(0, 2), n)
    return _relabel(rng, n, edges)


def test_matches_enumeration_oracle():
    for family in (random_dense, paths_and_cycles, connectors, nested_chains, triangles):
        rng = random.Random(3111)
        outcomes = set()
        for _ in range(150):
            nodes, edges = family(rng)
            feasible = check_against_oracle(nodes, edges)
            outcomes.add((feasible, len(nodes) % 2 == 0))
        # every family has feasible and even-but-infeasible instances
        assert {(True, True), (False, True)} <= outcomes, (family.__name__, outcomes)


def test_edge_to_unknown_node_rejected():
    with pytest.raises(MatchingInfeasibleError, match=r"edge \(0, 2\)"):
        min_weight_perfect_matching([0, 1], [(0, 2, 1), (1, 3, 1)])


def test_large_weights_stay_exact():
    w = 10**6
    edges = [(0, 1, w), (2, 3, w), (0, 2, 1)]
    pairs, total = min_weight_perfect_matching(range(4), edges)
    assert pairs == [(0, 1), (2, 3)]
    assert total == 2 * w


def networkx_matching(node_ids, weighted_edges):
    """networkx's blossom on the negated cheapest weights, max-cardinality,
    nodes and edges inserted in sorted order: (sorted pairs, matched node
    count)."""
    best = {}
    for u, v, w in weighted_edges:
        key = (min(u, v), max(u, v))
        best[key] = min(w, best.get(key, w))
    graph = nx.Graph()
    graph.add_nodes_from(sorted(node_ids))
    for (u, v), w in sorted(best.items()):
        graph.add_edge(u, v, weight=-w)
    mate = nx.max_weight_matching(graph, maxcardinality=True, weight="weight")
    return sorted(tuple(sorted(p)) for p in mate), 2 * len(mate)


def check_same_pairs(nodes, edges) -> bool:
    """The package matches exactly the pairs networkx's blossom matches, or
    raises the same no-perfect-matching error; returns feasibility."""
    nodes = list(nodes)
    expect, matched = networkx_matching(nodes, edges)
    if len(nodes) % 2 or matched != len(nodes):
        message = (
            f"odd node count {len(nodes)}: no perfect matching exists"
            if len(nodes) % 2
            else f"no perfect matching: matched {matched} of {len(nodes)} nodes"
        )
        with pytest.raises(MatchingInfeasibleError) as err:
            min_weight_perfect_matching(nodes, edges)
        assert str(err.value) == message
        return False
    assert min_weight_perfect_matching(nodes, edges)[0] == expect
    return True


def test_same_pairs_as_networkx_on_tie_heavy_graphs():
    """Weights in {0, 1, 2} make most optima tie, so any change in the order
    the blossom search scans edges or picks deltas would show up as other
    pairs."""
    rng = random.Random(2111)
    outcomes = set()
    for _ in range(500):
        n = rng.randint(2, 22)
        density = rng.choice((1.0, 1.0, 0.5, 0.25))
        edges = [
            (u, v, rng.randint(0, 2))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        if rng.random() < 0.2:
            u, v, _ = rng.choice(edges or [(0, 1, 0)])
            edges.append((v, u, rng.randint(0, 2)))  # a parallel edge, reversed
        nodes = range(n)
        if rng.random() < 0.3:
            nodes, edges = _relabel(rng, n, edges)
        outcomes.add((check_same_pairs(nodes, edges), density == 1.0))
    # complete and sparse graphs, feasible and not
    assert {(True, True), (True, False), (False, True), (False, False)} <= outcomes


def test_same_pairs_as_networkx_on_detect_closures(monkeypatch):
    """The closure graphs `detect` hands the matcher on fifty benchmark
    designs."""
    closures = []
    matcher = aapsm.tjoin.min_weight_perfect_matching

    def record(node_ids, weighted_edges):
        closures.append((list(node_ids), list(weighted_edges)))
        return matcher(node_ids, weighted_edges)

    with monkeypatch.context() as m:
        m.setattr(aapsm.tjoin, "min_weight_perfect_matching", record)
        blossom_nodes = spy_blossom(m)
        for seed in range(1000, 1050):
            detect(manhattan_layout(seed))
    assert len(closures) >= 50
    assert blossom_nodes == [len(nodes) for nodes, _ in closures]
    for nodes, edges in closures:
        assert check_same_pairs(nodes, edges)


# the conflict ids of `detect(big_manhattan_layout(125))`, uniform weights
BIG_MANHATTAN_125_CONFLICTS = (
    134, 140, 143, 147, 152, 156, 161, 165, 169, 177, 181, 186, 190, 195, 197, 199,
    205, 208, 209, 216, 223, 229, 231, 241, 245, 251, 255, 264, 269, 271, 280, 285,
    297, 301, 308, 317, 329, 331, 333, 335, 341, 349, 351, 355, 357, 359, 364, 367,
    377, 384, 388, 390, 391, 399, 407, 421, 435, 437, 439, 443, 447, 449, 455, 463,
    467, 471, 473, 479, 482, 485, 487, 494, 498, 501, 503, 517, 520, 521, 527, 532,
    535, 537, 539, 542, 547, 555, 559, 563, 569, 574, 577, 581, 585, 600, 601, 604,
    607, 615, 622, 623, 631, 639, 641, 643, 653, 655, 661, 673, 677, 681, 683, 689,
    695, 701, 709, 716, 719, 721, 725, 727, 741, 753, 759, 761, 765, 769, 775, 779,
    789, 796, 803, 813, 819, 823, 825, 829, 833, 835, 839, 844, 850, 853, 859, 863,
    871, 873, 877, 883, 887, 890, 899, 903, 908, 913, 923, 929, 937, 941, 950, 959,
    963, 967, 971, 975, 983, 987, 995, 999, 1003, 1015, 1027, 1037, 1041, 1047, 1057,
)


def test_dense_design_pins_one_large_blossom_call(monkeypatch):
    """A dense design hands the matcher one closure over 152 odd faces, far
    above the benchmark designs' 20 at most; its conflicts stay pinned."""
    with monkeypatch.context() as m:
        blossom_nodes = spy_blossom(m)
        det = detect(big_manhattan_layout(125))
    assert blossom_nodes == [152]
    report = dict(det.report)
    assert (report["conflicts_np"], report["weight_np"]) == ("106", "106")
    assert report["conflicts_pcg"] == "175"
    assert det.conflicts.edge_ids == BIG_MANHATTAN_125_CONFLICTS


def test_port_follows_networkx_on_signed_weights():
    """The blossom port itself, fed weights of either sign (costs reach it
    only negated), matches what networkx matches on the same graph: mixed
    signs take the search through T-blossom relabelling and expansion, which
    non-positive weights rarely reach.  The larger graphs reach expansion of
    T-blossoms nested in T-blossoms, which the small ones seldom do."""
    rng = random.Random(2)
    for trial in range(1060):
        n = rng.randint(2, 16) if trial < 1000 else (30, 45, 60)[trial % 3]
        density = rng.choice((0.2, 0.35, 0.5, 0.8, 1.0))
        lo, hi = rng.choice(((1, 10), (-10, 10), (0, 2), (1, 100), (-100, 0)))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        nbrs = [[] for _ in range(n)]
        weight = [[None] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    w = rng.randint(lo, hi)
                    graph.add_edge(u, v, weight=w)
                    nbrs[u].append(v)
                    nbrs[v].append(u)
                    weight[u][v] = weight[v][u] = w
        expect = sorted(tuple(sorted(p)) for p in nx.max_weight_matching(graph, True))
        mate = _max_weight_matching(nbrs, weight)
        assert [(i, j) for i, j in enumerate(mate) if i < j] == expect


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([0, 1, 2], [(0, 1, 1), (1, 2, 1)], "odd node count 3: no perfect matching exists"),
        ([0, 1], [(1, 1, 1)], "self-loops cannot be matched"),
        ([0, 1], [(0, 5, 1)], "edge (0, 5) has an endpoint not in node_ids"),
        ([0, 1], [(0, 1, -1)], "weight -1 is not a non-negative integer"),
        ([0, 1], [(0, 1, 1.5)], "weight 1.5 is not a non-negative integer"),
        (range(4), [(0, 1, 1), (0, 2, 1), (0, 3, 1)], "no perfect matching: matched 2 of 4 nodes"),
        (range(4), [], "no perfect matching: matched 0 of 4 nodes"),
        (range(6), [(0, 1, 0), (1, 2, 0), (0, 2, 0), (3, 4, 0), (4, 5, 0), (3, 5, 0)],
         "no perfect matching: matched 4 of 6 nodes"),
    ],
)
def test_infeasible_inputs_raise(nodes, edges, message):
    with pytest.raises(MatchingInfeasibleError) as err:
        min_weight_perfect_matching(nodes, edges)
    assert str(err.value) == message
