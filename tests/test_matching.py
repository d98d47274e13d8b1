"""Minimum-weight perfect matching against exhaustive enumeration."""

import random

import pytest

from aapsm.errors import MatchingInfeasibleError
from aapsm.matching import min_weight_perfect_matching

from conftest import spy_blossom
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
    """Scatter node ids, so fold order is not the order the graph was built in."""
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
    """A small core whose edges are subdivided and which carries pendant
    paths: folding a chain node makes a fold product that is itself the
    neighbour of the next chain node."""
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


def test_matches_enumeration_oracle(monkeypatch):
    spy_blossom(monkeypatch)
    for family in (random_dense, paths_and_cycles, connectors, nested_chains, triangles):
        rng = random.Random(3111)
        outcomes = set()
        for _ in range(150):
            nodes, edges = family(rng)
            feasible = check_against_oracle(nodes, edges)
            outcomes.add((feasible, len(nodes) % 2 == 0))
        # every family has feasible and even-but-infeasible instances
        assert {(True, True), (False, True)} <= outcomes, (family.__name__, outcomes)


def blossom_sizes(monkeypatch, nodes, edges):
    sizes = spy_blossom(monkeypatch)
    min_weight_perfect_matching(nodes, edges)
    return sizes


def test_path_folds_before_blossom(monkeypatch):
    # 1 folds {0, 1, 2} into a node adjacent to 3, 3 folds that product with
    # 4, and 5 folds the next one with 6: blossom sees that product and 7
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5), (5, 6, 6), (6, 7, 7)]
    assert blossom_sizes(monkeypatch, range(8), edges) == [2]
    assert min_weight_perfect_matching(range(8), edges) == (
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        16,
    )


def test_triangle_does_not_fold(monkeypatch):
    # corners 0 and 1 have degree 2, but their neighbours are adjacent
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]
    assert blossom_sizes(monkeypatch, range(4), edges) == [4]
    assert min_weight_perfect_matching(range(4), edges) == ([(0, 1), (2, 3)], 2)


def test_fold_requeues_neighbours_of_the_product(monkeypatch):
    # 0 has degree 3 when it is first seen; folding {2, 1, 3} merges two of
    # its neighbours, so 0 drops to degree 2 and must be looked at again.
    # The triangle 4-5-6 keeps every later node from folding on its own.
    edges = [
        (0, 2, 1), (0, 3, 2), (0, 4, 3), (1, 2, 4), (1, 3, 6),
        (4, 5, 1), (4, 6, 2), (5, 6, 3), (6, 7, 1),
    ]  # fmt: skip
    assert blossom_sizes(monkeypatch, range(8), edges) == [4]
    assert min_weight_perfect_matching(range(8), edges) == (
        [(0, 3), (1, 2), (4, 5), (6, 7)],
        8,
    )


def test_edge_to_unknown_node_rejected():
    with pytest.raises(MatchingInfeasibleError, match=r"edge \(0, 2\)"):
        min_weight_perfect_matching([0, 1], [(0, 2, 1), (1, 3, 1)])


def test_large_weights_stay_exact():
    w = 10**6
    edges = [(0, 1, w), (2, 3, w), (0, 2, 1)]
    pairs, total = min_weight_perfect_matching(range(4), edges)
    assert pairs == [(0, 1), (2, 3)]
    assert total == 2 * w
