"""Exact minimum-weight perfect matching for small dense graphs.

Backed by the blossom (primal-dual with shrinking) implementation in
networkx, which is exact for integer weights in O(V^3).  Minimization is the
max-cardinality maximum-weight matching of the negated weights: all perfect
matchings share the same cardinality, so maximizing sum(-w) minimizes sum(w).
The T-join solver calls this once per connected component of the dual with
more than four odd faces (smaller ones pair up in closed form), so each call
sees one closure graph: the complete graph over that component's odd faces,
weighted by their shortest-path distances in the dual.  The tests also call
it on the paper's gadget graphs, to cross-check the T-join solve.

Before blossom runs, degree-2 nodes are folded away.  A node d whose only
neighbours are a and b, with a and b not adjacent, is replaced together with
them by one node z adjacent to N(a) | N(b) - {d}, at
w(z, x) = min(w(a, x) + w(d, b), w(b, x) + w(d, a)).  The fold is exact: a
perfect matching pairs d with a or with b, so it is an a-x edge plus d-b, or
a b-x edge plus d-a, and the cheaper of the two is the z-x edge; conversely
every matching of the folded graph unfolds into one of the original graph
at the same weight.  Hence the folded graph has a perfect matching exactly
when the original does, with the same optimum.  Each fold removes two nodes
and at least two edges; every gadget connector true -- dummy -- ghost is such
a node, while a complete graph on four or more nodes has none.  Folds run in
node-id order (fold products get fresh ids past the largest input id) and
break cost ties toward a, so the result is deterministic; the mate is unfolded in reverse fold order, since a fold may
absorb an earlier fold product.
"""

from __future__ import annotations

import heapq

import networkx as nx

from .errors import MatchingInfeasibleError

# (z, a, d, b, N(a) - {d} with weights, N(b) - {d} with weights, w(d,a), w(d,b))
_Fold = tuple[int, int, int, int, dict[int, int], dict[int, int], int, int]


def min_weight_perfect_matching(
    node_ids, weighted_edges
) -> tuple[list[tuple[int, int]], int]:
    """Return (sorted matched pairs, total weight), both exact.

    weighted_edges are (u, v, w) with integer w >= 0 between listed nodes;
    parallel edges collapse to the cheapest, self-loops are rejected.  Raises
    MatchingInfeasibleError when the node count is odd, an edge is malformed,
    or no perfect matching exists.
    """
    nodes = sorted(node_ids)
    if len(nodes) % 2 != 0:
        raise MatchingInfeasibleError(
            f"odd node count {len(nodes)}: no perfect matching exists"
        )
    if not nodes:
        return [], 0

    best: dict[tuple[int, int], int] = {}
    adj: dict[int, dict[int, int]] = {n: {} for n in nodes}
    for u, v, w in weighted_edges:
        if u == v:
            raise MatchingInfeasibleError("self-loops cannot be matched")
        if u not in adj or v not in adj:
            raise MatchingInfeasibleError(f"edge ({u}, {v}) has an endpoint not in node_ids")
        if int(w) != w or w < 0:
            raise MatchingInfeasibleError(f"weight {w!r} is not a non-negative integer")
        key = (u, v) if u < v else (v, u)
        if key not in best or w < best[key]:
            best[key] = int(w)
    for (u, v), w in best.items():
        adj[u][v] = adj[v][u] = w

    folds = _fold_degree_two(adj, nodes[-1] + 1)
    graph = nx.Graph()
    graph.add_nodes_from(sorted(adj))
    for u in sorted(adj):
        for v, w in sorted(adj[u].items()):
            if u < v:
                graph.add_edge(u, v, weight=-w)

    mate: dict[int, int] = {}
    for u, v in nx.max_weight_matching(graph, maxcardinality=True, weight="weight"):
        mate[u], mate[v] = v, u
    if len(mate) != len(adj):
        raise MatchingInfeasibleError(
            f"no perfect matching: matched {len(mate)} of {len(adj)} nodes "
            f"after {len(folds)} degree-2 folds"
        )
    _unfold(mate, folds)

    pairs = sorted((u, v) for u, v in mate.items() if u < v)
    seen: set[int] = set()
    for u, v in pairs:
        seen.update((u, v))
    if seen != set(nodes):
        raise MatchingInfeasibleError("matching does not cover every node")
    total = sum(best[p] for p in pairs)
    return pairs, total


def _fold_degree_two(adj: dict[int, dict[int, int]], next_id: int) -> list[_Fold]:
    """Fold every degree-2 node with non-adjacent neighbours, in place.

    Candidates are taken smallest id first; a fold can change the degree or
    the neighbour adjacency only of the new node and its neighbours, so those
    are the ones queued again.  On return no node qualifies.
    """
    folds: list[_Fold] = []
    heap = sorted(adj)  # a sorted list is a valid heap
    queued = set(heap)
    while heap:
        d = heapq.heappop(heap)
        queued.discard(d)
        if len(adj.get(d, ())) != 2:
            continue
        a, b = sorted(adj[d])
        if b in adj[a]:
            continue  # a triangle: d may not fold
        w_da, w_db = adj[d][a], adj[d][b]
        del adj[d]
        via_a, via_b = adj.pop(a), adj.pop(b)
        del via_a[d], via_b[d]
        z = next_id
        next_id += 1
        z_adj = {x: w + w_db for x, w in via_a.items()}
        for x, w in via_b.items():
            if x not in z_adj or w + w_da < z_adj[x]:
                z_adj[x] = w + w_da
        for x, w in z_adj.items():
            x_adj = adj[x]
            x_adj.pop(a, None)
            x_adj.pop(b, None)
            x_adj[z] = w
        adj[z] = z_adj
        folds.append((z, a, d, b, via_a, via_b, w_da, w_db))
        for n in (z, *z_adj):
            if n not in queued:
                queued.add(n)
                heapq.heappush(heap, n)
    return folds


def _unfold(mate: dict[int, int], folds: list[_Fold]) -> None:
    """Replace each fold product in `mate` by its a/d/b pairs, in place."""
    for z, a, d, b, via_a, via_b, w_da, w_db in reversed(folds):
        x = mate.pop(z)
        if x not in via_b or (x in via_a and via_a[x] + w_db <= via_b[x] + w_da):
            mate[x], mate[a], mate[d], mate[b] = a, x, b, d
        else:
            mate[x], mate[b], mate[d], mate[a] = b, x, a, d
