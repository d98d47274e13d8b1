"""Geometric planarization of the conflict graph, faces, and the dual graph.

The drawing is fixed by the layout (node positions are data, not layout
freedom), so planarization means deleting a cheap set of edges until no two
surviving edges cross, then reading the rotation system off the geometry and
tracing faces.  Both predicates that read the drawing, the crossing test and
the angular order, decide ties under one symbolic perturbation of the node
positions (`geometry.orient_sos`), so they describe one real drawing.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import geometry
from .conflict_graph import PhaseConflictGraph
from .errors import GeometryError, InternalInvariantError
from .tjoin import TJoinEdge

HalfEdge = tuple[int, int]  # (tail node id, edge id)


@dataclass(frozen=True)
class PlanarEmbedding:
    """The kept edges' rotation system and faces.  A dart is one direction
    of an edge: dart 2e leaves edge e's end u and dart 2e+1 its end v.
    `face_of` lists the face of each dart, -1 for the darts of removed
    edges."""

    graph: PhaseConflictGraph
    kept_edge_ids: tuple[int, ...]
    removed_edge_ids: tuple[int, ...]  # the potential-conflict set P
    rotation: dict[int, tuple[int, ...]]  # node -> incident edge ids, CCW
    faces: tuple[tuple[HalfEdge, ...], ...]
    face_of: list[int]  # dart -> face


@dataclass(frozen=True)
class DualEdge(TJoinEdge):
    """A T-join edge between faces u and v, across edge `primal_edge_id`."""

    primal_edge_id: int

    @property
    def is_self_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class DualGraph:
    n_faces: int
    edges: tuple[DualEdge, ...]

    def degrees(self) -> list[int]:
        deg = [0] * self.n_faces
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1  # self-loops count twice
        return deg


def find_crossings(g: PhaseConflictGraph) -> tuple[tuple[int, int], ...]:
    """All pairs of non-adjacent edges that cross, each as (lower edge id,
    higher), sorted as `geometry.box_pairs` yields them.

    Edges sharing an endpoint are never reported; adjacency is four integer
    comparisons of edge ends.  Ties (a node on another edge, two edges along
    one line, nodes at one position) are decided by the symbolic
    perturbation of `geometry.segments_cross`, so the crossings are those of
    one real drawing, the one `_rotation` reads.
    """
    ends, pos = g.ends, g.positions
    us, vs = ends[::2], ends[1::2]
    boxes = [geometry.segment_box(pos[u], pos[v]) for u, v in zip(us, vs)]
    out = []
    for i, j in geometry.box_pairs(boxes):
        u1, v1, u2, v2 = us[i], vs[i], us[j], vs[j]
        if u1 == u2 or u1 == v2 or v1 == u2 or v1 == v2:
            continue
        if geometry.segments_cross(pos, u1, v1, u2, v2):
            out.append((i, j))
    return tuple(out)


def planarize(g: PhaseConflictGraph) -> PlanarEmbedding:
    """Reject parallel edges, delete crossing edges greedily, then embed
    the survivors."""
    _reject_parallel_edges(g)
    return embed(g, remove_crossings(g))


def _reject_parallel_edges(g: PhaseConflictGraph) -> None:
    """Raise GeometryError at the first edge whose two ends an earlier edge
    joins too, naming both: the two draw one segment, which no perturbation
    separates.  An edge from a node to itself is rejected too.  A PCG has
    neither, so `detect` does not check."""
    first: dict[tuple[int, int], int] = {}
    it = iter(g.ends)
    for eid, (u, v) in enumerate(zip(it, it)):
        if u == v:
            raise GeometryError(f"edge {eid} joins node {u} to itself")
        key = (u, v) if u < v else (v, u)
        earlier = first.setdefault(key, eid)
        if earlier != eid:
            raise GeometryError(f"edges {earlier} and {eid} both join nodes {key[0]} and {key[1]}")


def remove_crossings(g: PhaseConflictGraph) -> tuple[int, ...]:
    """The sorted ids of the edges deleted to leave no crossing.

    Iterated greedy: while any crossing remains, delete the minimum-weight
    edge participating in one (ties: most crossings, then lowest edge id).
    Each edge keeps the edges it crosses and its count of live crossings;
    a heap holds (weight, -count, id) entries, and an edge is pushed again
    whenever its count drops, so an entry whose count is no longer the
    edge's is stale and skipped.
    """
    crossed: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in find_crossings(g):
        crossed[a].append(b)
        crossed[b].append(a)
    weights = g.weights
    count = {eid: len(others) for eid, others in crossed.items()}
    heap = [(weights[eid], -c, eid) for eid, c in count.items()]
    heapq.heapify(heap)
    removed: list[int] = []
    while heap:
        _, negative, victim = heapq.heappop(heap)
        if count[victim] != -negative:
            continue  # stale, or the edge is gone
        removed.append(victim)
        count[victim] = 0
        for other in crossed[victim]:
            c = count[other]
            if c:
                count[other] = c - 1
                if c > 1:
                    heapq.heappush(heap, (weights[other], 1 - c, other))
    return tuple(sorted(removed))


def embed(g: PhaseConflictGraph, removed_edge_ids: tuple[int, ...]) -> PlanarEmbedding:
    """Embed the edges `remove_crossings` left: one direction sort of each
    node's surviving edges gives the rotation system, the faces are traced
    from it, and the Euler check runs on each component, which certifies
    that the rotation system and the crossings describe one plane drawing."""
    removed_set = set(removed_edge_ids)
    kept = tuple(eid for eid in range(len(g.weights)) if eid not in removed_set)
    rotation = _rotation(g, removed_set)
    faces, face_of = _trace_faces(g, rotation)
    _euler_check(g, rotation, faces)
    return PlanarEmbedding(g, kept, tuple(removed_edge_ids), rotation, faces, face_of)


def _compare_darts(pos, node: int, a, b) -> int:
    """Order two edges leaving `node`, each as (edge id, direction, far
    end), counterclockwise from +x; edges on one ray in the order the
    perturbation gives them: a first when b is counterclockwise of a."""
    return geometry.compare_directions(a[1], b[1]) or -geometry.orient_sos(pos, node, a[2], b[2])


def _rotation(g: PhaseConflictGraph, removed: set[int]) -> dict[int, tuple[int, ...]]:
    """Each node's surviving edges counterclockwise from +x, for the nodes
    that keep an edge.  A zero-length edge leaves along (1, 0) when its far
    end has the lower id and along (-1, 0) otherwise: the perturbation moves
    the lower id farther, and first along +x.  Ties on one ray are broken by
    `_compare_darts`."""
    pos = g.positions
    incident: list[list[tuple[int, tuple[int, int], int]]] = [[] for _ in pos]
    it = iter(g.ends)
    for eid, (u, v) in enumerate(zip(it, it)):
        if eid not in removed:
            (ux, uy), (vx, vy) = pos[u], pos[v]
            dx, dy = vx - ux, vy - uy
            if not (dx or dy):
                dx = 1 if v < u else -1
            incident[u].append((eid, (dx, dy), v))
            incident[v].append((eid, (-dx, -dy), u))
    rotation: dict[int, tuple[int, ...]] = {}
    for node_id, items in enumerate(incident):
        if len(items) == 1:
            rotation[node_id] = (items[0][0],)
        elif len(items) == 2:  # one comparison instead of a sort
            a, b = items
            swap = _compare_darts(pos, node_id, a, b) > 0
            rotation[node_id] = (b[0], a[0]) if swap else (a[0], b[0])
        elif items:
            items.sort(key=functools.cmp_to_key(functools.partial(_compare_darts, pos, node_id)))
            rotation[node_id] = tuple([item[0] for item in items])
    return rotation


def _trace_faces(g: PhaseConflictGraph, rotation: dict[int, tuple[int, ...]]):
    """Walk darts: dart 2e leaves edge e's end u and dart 2e+1 its end v.
    Arriving at a node along e, the walk leaves on the CCW successor of e in
    the node's rotation.  Start darts are visited in (tail, edge id) order:
    node by node as `rotation` lists them (in id order), edge ids sorted.
    Interior faces come out clockwise, and the outer face of each component
    counterclockwise.  Returns the faces as (tail, edge id) tuples and the
    face of each dart (-1 for the darts of edges not in the rotation)."""
    tail = g.ends
    successor = [-1] * len(tail)  # dart -> the dart the walk leaves on next
    starts: list[int] = []
    for v, rot in rotation.items():
        darts = [2 * eid if tail[2 * eid] == v else 2 * eid + 1 for eid in rot]
        arrive = darts[-1] ^ 1
        for d in darts:
            successor[arrive] = d
            arrive = d ^ 1
        starts += sorted(darts)
    faces: list[tuple[HalfEdge, ...]] = []
    face_of = [-1] * len(tail)
    for start in starts:
        if face_of[start] >= 0:
            continue
        walk: list[HalfEdge] = []
        d = start
        while True:
            if face_of[d] >= 0:
                raise InternalInvariantError("face walk re-entered a closed face")
            face_of[d] = len(faces)
            walk.append((tail[d], d >> 1))
            d = successor[d]
            if d == start:
                break
        faces.append(tuple(walk))
    return tuple(faces), face_of


def _euler_check(g, rotation, faces):
    """V - E + F = 2 on each connected component, named by its lowest node."""
    ends = g.ends
    component = [-1] * len(g.positions)
    for start in sorted(rotation):
        if component[start] >= 0:
            continue
        component[start] = start
        queue = [start]
        for u in queue:
            for eid in rotation[u]:
                a, b = ends[2 * eid], ends[2 * eid + 1]
                v = b if a == u else a
                if component[v] < 0:
                    component[v] = start
                    queue.append(v)
    v_count = Counter(component[u] for u in rotation)
    half_edges: Counter[int] = Counter()
    for u, rot in rotation.items():
        half_edges[component[u]] += len(rot)
    f_count = Counter(component[face[0][0]] for face in faces)
    for comp in v_count:
        v, e, f = v_count[comp], half_edges[comp] // 2, f_count[comp]
        if v - e + f != 2:
            raise InternalInvariantError(
                f"Euler check failed on component {comp}: V={v} E={e} F={f}"
            )


def build_dual(emb: PlanarEmbedding) -> DualGraph:
    """One dual node per face, one dual edge per surviving primal edge.

    Bridges produce dual self-loops (flagged via is_self_loop); weights are
    copied from the primal edges.
    """
    weights, face_of = emb.graph.weights, emb.face_of
    dual = DualGraph(len(emb.faces), tuple([
        DualEdge(k, face_of[2 * eid], face_of[2 * eid + 1], weights[eid], eid)
        for k, eid in enumerate(emb.kept_edge_ids)
    ]))
    boundary_len = [len(f) for f in emb.faces]
    if dual.degrees() != boundary_len:
        raise InternalInvariantError(
            "dual degrees do not match face boundary lengths"
        )
    return dual


def dump_embedding(emb: PlanarEmbedding) -> str:
    """One face per line as the cycle of tail node ids."""
    lines = []
    for face in emb.faces:
        lines.append("face " + " ".join(str(tail) for tail, _ in face))
    lines.append("removed " + " ".join(str(e) for e in emb.removed_edge_ids))
    return "\n".join(lines) + "\n"
