"""Conflict selection: optimal bipartization on the embedded graph, the
odd-cycle re-check of planarization casualties, and a greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflict_graph import PhaseConflictGraph, phase_assign, signed_forest
from .errors import InternalInvariantError
from .planar import DualGraph, PlanarEmbedding
from .tjoin import GADGET_MODES, MODE_GENERALIZED, TJoinInstance, solve_tjoin

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
    conflicts: tuple[Conflict, ...]
    total_weight: int

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(c.edge_id for c in self.conflicts)

    def __len__(self) -> int:
        return len(self.conflicts)


def bipartize_optimal(
    emb: PlanarEmbedding, dual: DualGraph, mode: str = MODE_GENERALIZED
) -> tuple[tuple[int, ...], int, float]:
    """Minimum-weight edge set M with the embedded graph minus M balanced.

    A T-join on the dual with T = odd-degree faces, over the dual's own
    edges but the self-loops (bridges lie on no cycle).  Parallel edges stay:
    the paths between odd faces take only the cheapest of a parallel class.
    Returns (edge ids, weight, matching seconds); `finalize_conflicts`
    checks the balance.

    `emb` and `mode` are kept only for the perfbench callers, which pass them
    positionally: `emb` is ignored, and `mode` must name a gadget shape
    (ValueError otherwise) but selects nothing, since no gadget is built.
    """
    if mode not in GADGET_MODES:
        raise ValueError(f"unknown gadget mode {mode!r}")
    edges = tuple(e for e in dual.edges if not e.is_self_loop)
    join, weight, seconds = solve_tjoin(TJoinInstance(tuple(range(dual.n_faces)), edges))
    m_ids = tuple(sorted(dual.edges[j].primal_edge_id for j in join))
    return m_ids, weight, seconds


def finalize_conflicts(
    g: PhaseConflictGraph,
    planarization_removed: tuple[int, ...],
    bipartization_set: tuple[int, ...],
) -> ConflictSet:
    """Fold the planarization casualties back in.

    Edges dropped for crossings never saw the matching, so each is re-tested
    against the signed forest of the surviving graph: consistent edges rejoin
    the graph, contradicting ones become conflicts.  Casualties go in edge-id
    order after every survivor, so an edge bridging two color components
    merges them instead of being charged as a conflict; a contradicting
    survivor means M left the embedded graph unbalanced, and raises.
    """
    m_set = set(bipartization_set)
    p_set = set(planarization_removed)
    if m_set & p_set:
        raise InternalInvariantError("bipartization set intersects removed set")

    survivors = [e for e in g.edges if e.id not in m_set and e.id not in p_set]
    casualties = [g.edge(eid) for eid in sorted(p_set)]
    _, contradicted = signed_forest(g, survivors + casualties)
    if not p_set.issuperset(contradicted):
        raise InternalInvariantError(
            "surviving embedded graph is not balanced before re-check"
        )

    origin = dict.fromkeys(m_set, ORIGIN_MATCHING)
    origin.update(dict.fromkeys(contradicted, ORIGIN_PLANARIZATION))
    conflicts = []
    for eid in sorted(origin):
        e = g.edge(eid)
        conflicts.append(
            Conflict(eid, e.shifter_pair, e.required_separation, origin[eid], e.weight)
        )
    return ConflictSet(tuple(conflicts), sum(c.weight for c in conflicts))


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
    uf, contradicted = signed_forest(g, sorted(g.edges, key=lambda e: (-e.weight, e.id)))
    components = len({uf.find(n.id)[0] for n in g.nodes})
    leftover = len(g.edges) - len(g.nodes) + components
    deleted = tuple(sorted(contradicted))
    weight = sum(g.edge(eid).weight for eid in deleted)
    phase_assign(g, frozenset(deleted))  # certifies the rest is balanced
    return deleted, leftover, weight
