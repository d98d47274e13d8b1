"""Exact minimum-weight perfect matching for small dense graphs.

Backed by the blossom (primal-dual with shrinking) implementation in
networkx, which is exact for integer weights in O(V^3).  Minimization is the
max-cardinality maximum-weight matching of the negated weights: all perfect
matchings share the same cardinality, so maximizing sum(-w) minimizes sum(w).
The T-join solver calls this once per connected component of the dual that
holds an odd face, so each call sees one component's gadget graph, built over
at most two dual edges per face pair (`bipartize.collapse_parallel`).
"""

from __future__ import annotations

import networkx as nx

from .errors import MatchingInfeasibleError


def min_weight_perfect_matching(
    node_ids, weighted_edges
) -> tuple[list[tuple[int, int]], int]:
    """Return (sorted matched pairs, total weight), both exact.

    weighted_edges are (u, v, w) with integer w >= 0; parallel edges collapse
    to the cheapest, self-loops are rejected.  Raises MatchingInfeasibleError
    when the node count is odd or no perfect matching exists.
    """
    nodes = sorted(node_ids)
    if len(nodes) % 2 != 0:
        raise MatchingInfeasibleError(
            f"odd node count {len(nodes)}: no perfect matching exists"
        )
    if not nodes:
        return [], 0

    best: dict[tuple[int, int], int] = {}
    for u, v, w in weighted_edges:
        if u == v:
            raise MatchingInfeasibleError("self-loops cannot be matched")
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
    if seen != set(nodes):
        raise MatchingInfeasibleError("matching does not cover every node")
    total = sum(best[p] for p in pairs)
    return pairs, total
