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
"""

from __future__ import annotations

import networkx as nx

from .errors import MatchingInfeasibleError


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

    node_set = set(nodes)
    best: dict[tuple[int, int], int] = {}
    for u, v, w in weighted_edges:
        if u == v:
            raise MatchingInfeasibleError("self-loops cannot be matched")
        if u not in node_set or v not in node_set:
            raise MatchingInfeasibleError(f"edge ({u}, {v}) has an endpoint not in node_ids")
        if int(w) != w or w < 0:
            raise MatchingInfeasibleError(f"weight {w!r} is not a non-negative integer")
        key = (u, v) if u < v else (v, u)
        if key not in best or w < best[key]:
            best[key] = int(w)

    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for (u, v), w in sorted(best.items()):
        graph.add_edge(u, v, weight=-w)

    mate = nx.max_weight_matching(graph, maxcardinality=True, weight="weight")
    if 2 * len(mate) != len(nodes):
        raise MatchingInfeasibleError(
            f"no perfect matching: matched {2 * len(mate)} of {len(nodes)} nodes"
        )
    pairs = sorted(tuple(sorted(p)) for p in mate)
    seen: set[int] = set()
    for u, v in pairs:
        seen.update((u, v))
    if seen != node_set:
        raise MatchingInfeasibleError("matching does not cover every node")
    total = sum(best[p] for p in pairs)
    return pairs, total
