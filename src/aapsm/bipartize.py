"""Conflict selection: optimal bipartization on the embedded graph, the
odd-cycle re-check of planarization casualties, and a greedy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflict_graph import PhaseConflictGraph, phase_assign, signed_forest
from .errors import InternalInvariantError
from .planar import DualEdge, DualGraph, PlanarEmbedding
from .tjoin import MODE_GENERALIZED, solve_tjoin, tjoin_from_graph

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


def collapse_parallel(dual: DualGraph) -> list[DualEdge]:
    """The dual edges a minimum T-join needs, in id order.

    Self-loops (bridges) go: a bridge lies on no cycle.  Parallel dual edges
    (one face pair; a primal series chain such as an overlap node's two
    halves) keep their cheapest one if the class is odd, cheapest two if
    even, by (weight, id).  Dropping an even number per class keeps every
    face's degree parity, so T is unchanged; some minimum T-join uses at most
    one edge per class, the cheapest, so its weight is unchanged too.
    """
    classes: dict[tuple[int, int], list[DualEdge]] = {}
    for e in dual.edges:
        if not e.is_self_loop:
            classes.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(e)
    kept = []
    for cls in classes.values():
        cls.sort(key=lambda e: (e.weight, e.id))
        kept += cls[: 2 - len(cls) % 2]
    return sorted(kept, key=lambda e: e.id)


def bipartize_optimal(
    emb: PlanarEmbedding, dual: DualGraph, mode: str = MODE_GENERALIZED
) -> tuple[tuple[int, ...], int, float]:
    """Minimum-weight edge set M with the embedded graph minus M balanced.

    T-join on the dual with T = odd-degree faces, over `collapse_parallel`'s
    edges: at most two per face pair and no self-loops, so the shortest-path
    searches between odd faces grow with the face pairs, not the primal
    series chains.  `mode` names a gadget shape; both give the same optimal
    join and neither is built (see `tjoin`), so it only has to be valid.
    Returns (edge ids, weight, matching seconds); `finalize_conflicts`
    checks the balance.
    """
    usable = collapse_parallel(dual)
    inst = tjoin_from_graph(range(dual.n_faces), [(e.u, e.v, e.weight) for e in usable])
    join, weight, seconds = solve_tjoin(inst, mode)
    m_ids = tuple(sorted(usable[j].primal_edge_id for j in join))
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
