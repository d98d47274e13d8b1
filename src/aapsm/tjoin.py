"""Optimal T-join by shortest paths between the T nodes.

One solver, `solve_on_darts`, reads the planar dual straight off an
embedding's darts: dual edge k is primal edge k, between the faces of its
two darts, so `detect` builds no dual edge records for it.  `solve_tjoin`
is a thin adapter that hands it a `TJoinInstance`.  The instance is solved
one connected component at a time: a minimum T-join of a disjoint union is
the union of the components' minimum T-joins, and a component with no T
node is skipped (all weights are non-negative, so its empty join is
optimal).

Every other component takes one route (Edmonds & Johnson, "Matching, Euler
tours and the Chinese postman", 1973).  With non-negative weights a minimum
T-join is the symmetric difference of shortest paths that pair up T at
minimum total length.  Dijkstra from the T nodes over the component's
incidence lists gives the metric closure over T; the cheapest pairing is one
path for |T| = 2, the cheapest of the three pairings for |T| = 4, and a
minimum-weight perfect matching of the complete graph over T (see `matching`)
for |T| >= 6.

The paper's reduction to matching expands every node into a gadget over
per-(node, edge) slots instead.  It is kept here, and cross-checked against
the path route in the tests, but no solve builds it.  The slot is a *true*
node where the edge was assigned, a *ghost* node at the other endpoint.
Gadget-internal edges cost the sum of the ghost weights of their two
endpoints (true nodes are free), so an edge's weight is paid exactly when
its ghost is consumed inside a gadget.  A connector path
true -- dummy -- ghost (both halves weight 0) ties the two slots of each edge
together, and in a perfect matching the dummy picks a side: matched to the
true node means the ghost was absorbed in its gadget and the edge is in the
join.

Two gadget shapes are supported:
  generalized -- one complete graph per node over all its slots;
  optimized   -- the complete graph split into a chain of cliques of at most
                 three nodes, consecutive cliques bridged by a pair of
                 zero-weight divide nodes (parity relays).
Both yield the same optimal join weight; the chained shape trades extra nodes
for far fewer edges.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

from .errors import InternalInvariantError
from .matching import min_weight_perfect_matching

MODE_GENERALIZED = "generalized"
MODE_OPTIMIZED = "optimized"
GADGET_MODES = (MODE_GENERALIZED, MODE_OPTIMIZED)

BOTH = -1  # sentinel owner: edge assigned to both endpoints


@dataclass(frozen=True)
class TJoinEdge:
    id: int
    u: int
    v: int
    weight: int


@dataclass(frozen=True)
class TJoinInstance:
    """Multigraph whose demand set T is its odd-degree nodes.

    Parallel edges are allowed; self-loops are not (they never belong to an
    optimal join, strip them before building the instance).  The edges may
    be any `TJoinEdge`s with distinct ids, such as the dual's own edges.  T
    (`t_nodes`) is derived from the edges, never given.
    """

    nodes: tuple[int, ...]
    edges: tuple[TJoinEdge, ...]
    t_nodes: frozenset[int] = field(init=False)

    def __post_init__(self):
        node_set = set(self.nodes)
        for e in self.edges:
            if e.u == e.v:
                raise InternalInvariantError(f"self-loop on node {e.u} in T-join instance")
            if e.u not in node_set or e.v not in node_set:
                raise InternalInvariantError(f"edge {e.id} references unknown node")
            if e.weight < 0:
                raise InternalInvariantError(f"edge {e.id} has negative weight")
        object.__setattr__(self, "t_nodes", _odd(n for e in self.edges for n in (e.u, e.v)))


def _odd(ends) -> frozenset[int]:
    """Nodes that occur an odd number of times among the given edge ends."""
    odd: set[int] = set()
    for n in ends:
        if n in odd:
            odd.discard(n)
        else:
            odd.add(n)
    return frozenset(odd)


def tjoin_from_graph(nodes, weighted_edges) -> TJoinInstance:
    """Build an instance from (u, v, weight) triples, dropping self-loops;
    the kept edges are numbered 0, 1, ... in the order given."""
    edges = []
    for u, v, w in weighted_edges:
        if u == v:
            continue
        edges.append(TJoinEdge(len(edges), u, v, int(w)))
    return TJoinInstance(tuple(sorted(nodes)), tuple(edges))


@dataclass(frozen=True)
class EdgeAssignment:
    """owner[edge id] is one endpoint, or BOTH for the parity escape hatch."""

    owner: dict[int, int]

    def validate(self, inst: TJoinInstance) -> None:
        owned: list[int] = []
        for e in inst.edges:
            owner = self.owner[e.id]
            if owner == BOTH:
                owned += (e.u, e.v)
            elif owner in (e.u, e.v):
                owned.append(owner)
            else:
                raise InternalInvariantError(
                    f"edge {e.id} assigned to non-endpoint {owner}"
                )
        broken = _odd(owned) ^ inst.t_nodes  # T is the odd-degree set
        if broken:
            raise InternalInvariantError(
                f"assignment parity broken at node {min(broken)}: "
                "assigned-edge parity differs from degree parity"
            )


def _incidence(inst: TJoinInstance) -> dict[int, list[TJoinEdge]]:
    """Incident edges of every node, in edge-id order."""
    incident: dict[int, list[TJoinEdge]] = {n: [] for n in inst.nodes}
    for e in sorted(inst.edges, key=lambda e: e.id):
        incident[e.u].append(e)
        incident[e.v].append(e)
    return incident


@dataclass(frozen=True)
class _SpanningForest:
    """BFS forest in node-id order, neighbors in edge-id order."""

    incident: dict[int, list[TJoinEdge]]
    parent: dict[int, tuple[int, TJoinEdge] | None]
    depth: dict[int, int]
    components: list[list[int]]  # nodes of each tree, in BFS order

    @classmethod
    def of(cls, inst: TJoinInstance) -> "_SpanningForest":
        incident = _incidence(inst)
        parent: dict[int, tuple[int, TJoinEdge] | None] = {}
        depth: dict[int, int] = {}
        components: list[list[int]] = []
        for start in inst.nodes:
            if start in parent:
                continue
            parent[start] = None
            depth[start] = 0
            comp = [start]
            for u in comp:  # comp doubles as the BFS queue
                for e in incident[u]:
                    v = e.u if e.v == u else e.v
                    if v not in parent:
                        parent[v] = (u, e)
                        depth[v] = depth[u] + 1
                        comp.append(v)
            components.append(comp)
        return cls(incident, parent, depth, components)

    def path(self, a: int, b: int) -> list[TJoinEdge]:
        """Tree edges on the path between a and b (same tree)."""
        edges = []
        while a != b:
            if self.depth[a] < self.depth[b]:
                a, b = b, a
            a, e = self.parent[a]
            edges.append(e)
        return edges


def assign_edges(inst: TJoinInstance) -> EdgeAssignment:
    """Pick an owner per edge so each node owns edges matching its degree parity.

    Start with the lower endpoint, then repair parity defects pairwise by
    flipping owners along spanning-tree paths (a flip toggles both endpoint
    parities).  A component with an odd edge count keeps one defect, resolved
    by assigning one of its incident edges to both endpoints.
    """
    owner = {e.id: min(e.u, e.v) for e in inst.edges}
    forest = _SpanningForest.of(inst)
    incident = forest.incident

    for comp in forest.components:
        bad = sorted(
            n
            for n in comp
            if sum(1 for e in incident[n] if owner[e.id] == n) % 2
            != len(incident[n]) % 2
        )
        # a path flip toggles the parity of its two end nodes only, so the
        # sorted defects pair off in order
        for a, b in zip(bad[0::2], bad[1::2]):
            for e in forest.path(a, b):
                owner[e.id] = e.v if owner[e.id] == e.u else e.u
        if len(bad) % 2:
            d = bad[-1]
            candidates = [e for e in incident[d] if owner[e.id] != d]
            if not candidates:
                raise InternalInvariantError(
                    f"defect node {d} owns all its incident edges"
                )
            owner[candidates[0].id] = BOTH

    assignment = EdgeAssignment(owner)
    assignment.validate(inst)
    return assignment


KIND_TRUE = "true"
KIND_GHOST = "ghost"
KIND_DUMMY = "dummy"
KIND_DIVIDE = "divide"


@dataclass(frozen=True)
class GadgetNode:
    id: int
    kind: str
    orig_node: int | None = None
    orig_edge: int | None = None


@dataclass
class GadgetGraph:
    nodes: list[GadgetNode] = field(default_factory=list)
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    # edge id -> ("dummy", dummy, true, ghost) or ("direct", t1, t2)
    connectors: dict[int, tuple] = field(default_factory=dict)

    def new_node(self, kind, orig_node=None, orig_edge=None) -> int:
        node = GadgetNode(len(self.nodes), kind, orig_node, orig_edge)
        self.nodes.append(node)
        return node.id

    def extract_join(self, mate: dict[int, int]) -> list[int]:
        """Edge ids in the join: dummy matched to the true slot (its ghost was
        absorbed in a gadget), or a direct both-endpoint connector matched."""
        join = []
        for eid in sorted(self.connectors):
            info = self.connectors[eid]
            if info[0] == "dummy":
                _, dummy, true_id, _ghost = info
                if mate[dummy] == true_id:
                    join.append(eid)
            else:
                _, t1, t2 = info
                if mate[t1] == t2:
                    join.append(eid)
        return join


def build_generalized_gadget_graph(
    inst: TJoinInstance, assign: EdgeAssignment
) -> GadgetGraph:
    """One complete gadget per node; connectors join the two slots of each edge.

    An edge owned by both endpoints has true slots on both sides and no ghost;
    its connector is a single direct edge carrying the edge's weight (matched
    exactly when the edge enters the join).  A dummy there would leave the
    gadget graph with an odd node count and never pay the edge's weight.
    """
    return _build_gadget_graph(inst, assign, _one_group)


def build_optimized_gadget_graph(
    inst: TJoinInstance, assign: EdgeAssignment
) -> GadgetGraph:
    """Gadgets split into cliques of at most 3 nodes linked by divide pairs."""
    return _build_gadget_graph(inst, assign, _chain_groups)


def _one_group(n: int) -> list[int]:
    """The complete gadget: a clique chain of one group."""
    return [n]


def _chain_groups(n: int) -> list[int]:
    """Original-slot group sizes for the clique chain: 2, 1, 1, ..., 1, 2.

    With the two divide nodes each junction adds, every clique has at most
    three nodes, matching the shape used by the classic optimized reduction.
    """
    if n <= 3:
        return [n]
    if n == 4:
        return [2, 2]
    return [2] + [1] * (n - 4) + [2]


def _build_gadget_graph(inst, assign, group_plan):
    gg = GadgetGraph()
    slot_id: dict[tuple[int, int], int] = {}  # (orig node, edge id) -> gadget node
    incident = _incidence(inst)

    for v in inst.nodes:
        if not incident[v]:
            continue
        ids = []  # (slot, ghost weight); a true slot is free
        for e in incident[v]:
            is_true = assign.owner[e.id] in (v, BOTH)
            nid = gg.new_node(KIND_TRUE if is_true else KIND_GHOST, v, e.id)
            slot_id[(v, e.id)] = nid
            ids.append((nid, 0 if is_true else e.weight))
        _add_clique_chain(gg, ids, group_plan(len(ids)))

    for e in inst.edges:
        if assign.owner[e.id] == BOTH:
            t1 = slot_id[(e.u, e.id)]
            t2 = slot_id[(e.v, e.id)]
            gg.edges.append((t1, t2, e.weight))
            gg.connectors[e.id] = ("direct", t1, t2)
        else:
            own = assign.owner[e.id]
            other = e.v if own == e.u else e.u
            true_id = slot_id[(own, e.id)]
            ghost_id = slot_id[(other, e.id)]
            dummy = gg.new_node(KIND_DUMMY, orig_edge=e.id)
            gg.edges.append((true_id, dummy, 0))
            gg.edges.append((dummy, ghost_id, 0))
            gg.connectors[e.id] = ("dummy", dummy, true_id, ghost_id)

    if len(gg.nodes) % 2 != 0:
        raise InternalInvariantError("gadget graph has an odd node count")
    return gg


def _add_clique(gg: GadgetGraph, ids: list[tuple[int, int]]) -> None:
    for i, (a, wa) in enumerate(ids):
        for b, wb in ids[i + 1 :]:
            gg.edges.append((a, b, wa + wb))


def _add_clique_chain(gg: GadgetGraph, ids, groups: list[int]) -> None:
    """Cliques over consecutive slot groups; consecutive cliques are bridged by
    a pair of zero-weight divide nodes joined to each other.

    The pair keeps parity intact: a single shared divide node would force each
    junction to absorb one slot, flipping the even-subset semantics of the
    complete gadget.
    """
    chunks: list[list[tuple[int, int]]] = []
    at = 0
    for size in groups:
        chunks.append(ids[at : at + size])
        at += size
    carry: int | None = None
    for idx, chunk in enumerate(chunks):
        clique = list(chunk)
        if carry is not None:
            clique.append((carry, 0))
        if idx < len(chunks) - 1:
            d_out = gg.new_node(KIND_DIVIDE)
            d_in = gg.new_node(KIND_DIVIDE)
            gg.edges.append((d_out, d_in, 0))
            clique.append((d_out, 0))
            carry = d_in
        else:
            carry = None
        _add_clique(gg, clique)


# pairings of the sorted T nodes by index, in the order ties are broken
_PAIRINGS = {
    2: (((0, 1),),),
    4: (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
}


def solve_tjoin(inst: TJoinInstance) -> tuple[list[int], int, float]:
    """Minimum-weight T-join: (sorted edge ids, weight, matching seconds).

    An adapter onto `solve_on_darts`, the one solver: the instance's edges,
    in id order, become its edges 0, 1, ..., and its nodes, in id order,
    its faces, so the incidence order and every tie break are the
    instance's own.
    """
    if not inst.t_nodes:
        return [], 0, 0.0
    rank = {n: i for i, n in enumerate(sorted(inst.nodes))}
    edges = sorted(inst.edges, key=lambda e: e.id)
    ends = [rank[n] for e in edges for n in (e.u, e.v)]
    sizes = [0] * len(rank)
    for f in ends:
        sizes[f] += 1
    join, weight, seconds = solve_on_darts(ends, [e.weight for e in edges], sizes)
    return [edges[k].id for k in join], weight, seconds


def solve_on_darts(
    face_of: list[int], weights: list[int], face_sizes: list[int]
) -> tuple[list[int], int, float]:
    """Minimum-weight T-join of a planar dual read off an embedding's darts:
    (sorted edge ids, weight, matching seconds).

    Darts 2k and 2k+1 are the two directions of edge k, so dual edge k joins
    faces face_of[2k] and face_of[2k+1] (both -1 when edge k is not
    embedded) at weights[k], which must be non-negative.  Face f must carry
    face_sizes[f] darts, its boundary length; T is the faces with an odd
    count.  A bridge's self-loop lies on no cycle and never joins.

    Each component of the dual is found by BFS from a T face and solved on
    its own by shortest paths between its T faces (`_solve_by_paths`), over
    incidence lists in edge-id order: the union of the components' minimum
    T-joins is minimum, and a component without T contributes nothing.  The
    seconds are the blossom time.  The join is re-validated: odd incidence
    exactly on T.
    """
    n = len(face_sizes)
    incident, darts = _dart_incidence(face_of, weights, n)
    if darts != face_sizes:
        raise InternalInvariantError("dual degrees do not match face boundary lengths")
    t = [f for f in range(n) if darts[f] & 1]
    if not t:
        return [], 0, 0.0

    seen = bytearray(n)
    join: dict[int, tuple[int, int, int]] = {}
    total = 0
    elapsed = 0.0
    for start in t:
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        for u in comp:  # comp doubles as the BFS queue
            for v, _, _ in incident[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
        part, weight, seconds = _solve_by_paths(incident, [f for f in comp if darts[f] & 1])
        join.update(part)
        total += weight
        elapsed += seconds
    _validate_join(join, t)
    return sorted(join), total, elapsed


def _dart_incidence(face_of: list[int], weights: list[int], n_faces: int):
    """(incident, darts): each face's (other face, weight, edge id) per
    non-loop edge, in edge-id order, and each face's dart count (a
    self-loop puts both its darts on one face)."""
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n_faces)]
    darts = [0] * n_faces
    for k, (a, b, w) in enumerate(zip(face_of[0::2], face_of[1::2], weights)):
        if a < 0:
            continue
        if w < 0:
            raise InternalInvariantError(f"edge {k} has negative weight")
        darts[a] += 1
        darts[b] += 1
        if a != b:
            incident[a].append((b, w, k))
            incident[b].append((a, w, k))
    return incident, darts


def _solve_by_paths(incident, t_nodes) -> tuple[dict, int, float]:
    """Minimum T-join of one connected component: ({edge id: (weight, end,
    end)}, weight, matching seconds).

    Dijkstra from every T node but the largest gives the shortest distances
    between all T pairs (the metric closure over T).  The cheapest pairing
    of T on those distances is the closed form of `_PAIRINGS` for |T| <= 4
    (the first one listed wins a tie), otherwise a minimum-weight perfect
    matching of the complete graph over T.  The join is the symmetric
    difference of the paired shortest paths: a T-join no heavier than the
    pairing cost, which is the minimum T-join weight, so the two must be
    equal; anything else is a fault.
    """
    t = sorted(t_nodes)
    trees = [_shortest_paths(incident, s, t[i + 1 :]) for i, s in enumerate(t[:-1])]
    seconds = 0.0
    if len(t) in _PAIRINGS:
        pairings = _PAIRINGS[len(t)]
        costs = [sum(trees[i][0][t[j]] for i, j in p) for p in pairings]
        cost = min(costs)
        pairs = pairings[costs.index(cost)]
    else:
        closure = [
            (i, j, trees[i][0][t[j]]) for i, j in itertools.combinations(range(len(t)), 2)
        ]
        start = time.perf_counter()
        pairs, cost = min_weight_perfect_matching(range(len(t)), closure)
        seconds = time.perf_counter() - start
    join: dict[int, tuple[int, int, int]] = {}
    for i, j in pairs:
        for k, step in _tree_path(trees[i][1], t[i], t[j]):
            if join.pop(k, None) is None:
                join[k] = step
    weight = sum(w for w, _, _ in join.values())
    if weight != cost:
        raise InternalInvariantError(f"path join weight {weight} != pairing cost {cost}")
    return join, weight, seconds


def _shortest_paths(incident, source: int, targets) -> tuple[dict, dict]:
    """Dijkstra from source until every target is settled: (dist, via), with
    via[n] = (previous node, edge id, weight) the last step of the shortest
    path to n.

    The heap key is (dist, node id), edges are relaxed in edge-id order and
    only on a strict improvement, so the paths depend on the instance alone.
    So a via entry is always the cheapest of the parallel edges between its
    two ends (the lowest id among equal weights): a costlier parallel edge
    never enters a path.
    """
    dist = {source: 0}
    via: dict[int, tuple[int, int, int]] = {}
    heap = [(0, source)]
    left = set(targets)
    while left:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        left.discard(u)
        for v, w, k in incident[u]:
            dv = d + w
            if v not in dist or dv < dist[v]:
                dist[v] = dv
                via[v] = (u, k, w)
                heapq.heappush(heap, (dv, v))
    return dist, via


def _tree_path(via, source: int, target: int) -> list[tuple[int, tuple[int, int, int]]]:
    """The steps (edge id, (weight, end, end)) of the shortest path from
    source to target, read off `via`."""
    steps = []
    while target != source:
        prev, k, w = via[target]
        steps.append((k, (w, prev, target)))
        target = prev
    return steps


def _validate_join(join: dict[int, tuple[int, int, int]], t_nodes: list[int]) -> None:
    odd = _odd(n for _, a, b in join.values() for n in (a, b))
    t = set(t_nodes)
    wrong = odd ^ t
    if wrong:
        n = min(wrong)
        raise InternalInvariantError(
            f"extracted edge set is not a T-join: node {n} has odd join degree "
            f"{n in odd} but T membership {n in t}"
        )
