"""Conflict selection: optimal bipartization on the embedded graph, the
odd-cycle re-check of planarization casualties, and a greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conflict_graph import PhaseConflictGraph, phase_assign, signed_components, signed_forest
from .errors import InternalInvariantError
from .planar import DualGraph, PlanarEmbedding
from .tjoin import GADGET_MODES, MODE_GENERALIZED, solve_on_darts
from .unionfind import ParityUnionFind

ORIGIN_MATCHING = "matching"
ORIGIN_PLANARIZATION = "planarization-oddcheck"


@dataclass(frozen=True)
class Conflict:
    edge_id: int
    shifter_pair: tuple[int, int]
    required_separation: int | None  # None for feature edges
    origin: str
    weight: int


@dataclass(frozen=True)
class ConflictSet:
    """The conflicts, and from `finalize_conflicts` the signed two-coloring
    of the graph without them (each component's lowest node at 0), which
    `phase_assign` certifies instead of coloring again."""

    conflicts: tuple[Conflict, ...]
    total_weight: int
    colors: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(c.edge_id for c in self.conflicts)

    def __len__(self) -> int:
        return len(self.conflicts)


def bipartize_optimal(
    emb: PlanarEmbedding, dual: DualGraph | None = None, mode: str = MODE_GENERALIZED
) -> tuple[tuple[int, ...], int, float]:
    """Minimum-weight edge set M with the embedded graph minus M balanced.

    A T-join on the dual with T = odd-degree faces, read off the embedding's
    darts (`solve_on_darts`): dual edge k is kept primal edge k, between
    faces face_of[2k] and face_of[2k+1], at the PCG weight.  Bridges are
    dual self-loops and lie on no cycle.  Parallel edges stay: the paths
    between odd faces take only the cheapest of a parallel class.  Returns
    (edge ids, weight, matching seconds); `finalize_conflicts` checks the
    balance.

    `dual` and `mode` are kept only for the perfbench callers, which pass
    them positionally: `dual` is not read, and `mode` must name a gadget
    shape (ValueError otherwise) but selects nothing, since no gadget is
    built.
    """
    if mode not in GADGET_MODES:
        raise ValueError(f"unknown gadget mode {mode!r}")
    join, weight, seconds = solve_on_darts(emb.face_of, emb.graph.weights)
    return tuple(join), weight, seconds


def finalize_conflicts(
    g: PhaseConflictGraph,
    planarization_removed: tuple[int, ...],
    bipartization_set: tuple[int, ...],
) -> ConflictSet:
    """Fold the planarization casualties back in.

    Edges dropped for crossings never saw the matching.  The survivors (the
    edges outside P and M) are two-colored once; a contradicting survivor
    means M left the embedded graph unbalanced, and raises.  Each casualty
    is then re-tested in edge-id order with a parity union-find over the
    survivor components it touches: a consistent edge rejoins the graph
    (an edge bridging two components merges them instead of being charged
    as a conflict), a contradicting one becomes a conflict.  The graph
    without the conflicts is then two-colored again, which both certifies
    its balance and gives the returned set its canonical coloring.
    """
    m_set = set(bipartization_set)
    p_set = set(planarization_removed)
    if m_set & p_set:
        raise InternalInvariantError("bipartization set intersects removed set")

    colors, component, witness = signed_components(g, m_set | p_set)
    if witness is not None:
        raise InternalInvariantError(
            "surviving embedded graph is not balanced before re-check"
        )

    contradicted = []
    if p_set:
        # a node's parity is its survivor color plus its component's parity
        ends, flips = g.ends, g.flips
        uf = ParityUnionFind()
        for eid in sorted(p_set):
            u, v = ends[2 * eid], ends[2 * eid + 1]
            relation = flips[eid] ^ colors[u] ^ colors[v]
            if not uf.union(component[u], component[v], relation):
                contradicted.append(eid)
        colors, _, witness = signed_components(g, m_set.union(contradicted))
        if witness is not None:
            raise InternalInvariantError(
                f"graph without the conflicts is not balanced after re-check: "
                f"unbalanced cycle {witness}"
            )

    origin = dict.fromkeys(m_set, ORIGIN_MATCHING)
    origin.update(dict.fromkeys(contradicted, ORIGIN_PLANARIZATION))
    pairs, required, weights = g.shifter_pairs, g.required, g.weights
    conflicts = [
        Conflict(eid, pairs[eid], required[eid], origin[eid], weights[eid])
        for eid in sorted(origin)
    ]
    return ConflictSet(tuple(conflicts), sum(c.weight for c in conflicts), tuple(colors))


def bipartize_greedy(
    g: PhaseConflictGraph,
) -> tuple[tuple[int, ...], int, int]:
    """Greedy maximum-weight spanning forest baseline.

    Returns (deleted edge ids, literal leftover count, deleted weight).  The
    forest is grown heaviest-edge-first; leftover (non-forest) edges that close
    an unbalanced cycle are deleted.  The literal count additionally counts
    leftover edges whose cycle was already balanced, i.e. every non-forest
    edge: E - V + (component count).
    """
    weights = g.weights
    n_nodes, n_edges = len(g.positions), len(weights)
    uf, contradicted = signed_forest(g, sorted(range(n_edges), key=lambda e: (-weights[e], e)))
    components = len({uf.find(nid)[0] for nid in range(n_nodes)})
    leftover = n_edges - n_nodes + components
    deleted = tuple(sorted(contradicted))
    weight = sum(weights[eid] for eid in deleted)
    phase_assign(g, frozenset(deleted))  # certifies the rest is balanced
    return deleted, leftover, weight
