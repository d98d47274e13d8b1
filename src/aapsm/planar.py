"""Geometric planarization of the conflict graph, faces, and the dual graph.

The drawing is fixed by the layout (node positions are data, not layout
freedom), so planarization means deleting a cheap set of edges until no two
surviving closed segments intersect, then reading the rotation system off the
geometry and tracing faces.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

from . import geometry
from .conflict_graph import PhaseConflictGraph
from .errors import GeometryError, InternalInvariantError
from .tjoin import TJoinEdge

HalfEdge = tuple[int, int]  # (tail node id, edge id)


@dataclass(frozen=True)
class PlanarEmbedding:
    graph: PhaseConflictGraph
    kept_edge_ids: tuple[int, ...]
    removed_edge_ids: tuple[int, ...]  # the potential-conflict set P
    rotation: dict[int, tuple[int, ...]]  # node -> incident edge ids, CCW
    faces: tuple[tuple[HalfEdge, ...], ...]
    face_of: dict[HalfEdge, int]


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


def require_general_position(g: PhaseConflictGraph) -> None:
    """Reject a drawing that is not in general position, in O(V + E).

    Raises GeometryError at the lowest node that shares its position with an
    earlier one; then at the lowest node where two edges leave on the same
    ray (they overlap along a collinear stretch, so no rotation system
    orders them), naming the lowest such pair.  build_conflict_graph
    establishes general position; `detect` calls this once on each graph
    it builds, and `planarize` on a graph handed to it.
    """
    seen: dict[tuple[int, int], int] = {}
    for n in g.nodes:
        if n.pos in seen:
            raise GeometryError(
                f"nodes {seen[n.pos]} and {n.id} share position {n.pos}"
            )
        seen[n.pos] = n.id
    # (node, primitive direction) -> the lowest edge leaving the node on it
    first_on_ray: dict[tuple[int, int, int], int] = {}
    ties = []
    pos = [n.pos for n in g.nodes]
    for e in g.edges:
        (ux, uy), (vx, vy) = pos[e.u], pos[e.v]
        step = math.gcd(vx - ux, vy - uy)
        dx, dy = (vx - ux) // step, (vy - uy) // step
        for ray in ((e.u, dx, dy), (e.v, -dx, -dy)):
            first = first_on_ray.setdefault(ray, e.id)
            if first != e.id:
                ties.append((ray[0], first, e.id))
    if ties:
        node_id, a, b = min(ties)
        raise GeometryError(f"edges {a} and {b} leave node {node_id} on the same ray")


def find_crossings(
    g: PhaseConflictGraph, edge_ids: tuple[int, ...] | None = None
) -> tuple[tuple[int, int], ...]:
    """All pairs of non-adjacent edges whose closed segments intersect.

    Edges sharing an endpoint are never reported.  The drawing must be in
    general position (`require_general_position`), as build_conflict_graph
    makes it.
    """
    edges = [g.edge(eid) for eid in (edge_ids if edge_ids is not None else range(len(g.edges)))]
    segs = [(g.node(e.u).pos, g.node(e.v).pos) for e in edges]
    out = []
    for i, j in geometry.box_pairs([geometry.segment_box(*seg) for seg in segs]):
        e1, e2 = edges[i], edges[j]
        if {e1.u, e1.v} & {e2.u, e2.v}:
            continue
        if geometry.segments_intersect(*segs[i], *segs[j]):
            out.append((e1.id, e2.id))
    return tuple(sorted(out))


def planarize(g: PhaseConflictGraph) -> PlanarEmbedding:
    """Check general position, delete crossing edges greedily, then embed
    the survivors."""
    require_general_position(g)
    return embed(g, remove_crossings(g))


def remove_crossings(g: PhaseConflictGraph) -> tuple[int, ...]:
    """The sorted ids of the edges deleted to leave no crossing.

    Iterated greedy: while any crossing remains, delete the minimum-weight
    edge participating in one (ties: most crossings, then lowest edge id).
    The drawing must be in general position (`require_general_position`),
    as build_conflict_graph makes it.
    """
    crossings = list(find_crossings(g))
    removed: list[int] = []
    while crossings:
        count: Counter[int] = Counter()
        for a, b in crossings:
            count[a] += 1
            count[b] += 1
        victim = min(count, key=lambda eid: (g.edge(eid).weight, -count[eid], eid))
        removed.append(victim)
        crossings = [c for c in crossings if victim not in c]
    return tuple(sorted(removed))


def embed(g: PhaseConflictGraph, removed_edge_ids: tuple[int, ...]) -> PlanarEmbedding:
    """Embed the edges `remove_crossings` left: one direction sort of each
    node's surviving edges gives the rotation system, the faces are traced
    from it, and the Euler check runs on each component.  The drawing must
    be in general position (`require_general_position`)."""
    removed_set = set(removed_edge_ids)
    kept = tuple(eid for eid in range(len(g.edges)) if eid not in removed_set)
    rotation = _rotation(g, removed_set)
    faces, face_of = _trace_faces(g, rotation)
    _euler_check(g, rotation, faces)
    return PlanarEmbedding(g, kept, tuple(removed_edge_ids), rotation, faces, face_of)


def _rotation(g: PhaseConflictGraph, removed: set[int]) -> dict[int, tuple[int, ...]]:
    """Each node's surviving edges counterclockwise from +x, for the nodes
    that keep an edge; in general position no two of them leave on one ray."""
    incident: dict[int, list[int]] = {}
    for e in g.edges:
        if e.id not in removed:
            incident.setdefault(e.u, []).append(e.id)
            incident.setdefault(e.v, []).append(e.id)

    rotation: dict[int, tuple[int, ...]] = {}
    for node_id in sorted(incident):
        x, y = g.node(node_id).pos
        direction = {}
        for eid in incident[node_id]:
            ox, oy = g.node(g.edge(eid).other(node_id)).pos
            direction[eid] = (ox - x, oy - y)

        def cmp(e1: int, e2: int) -> int:
            return geometry.compare_directions(direction[e1], direction[e2])

        rotation[node_id] = tuple(sorted(incident[node_id], key=functools.cmp_to_key(cmp)))
    return rotation


def _trace_faces(g: PhaseConflictGraph, rotation: dict[int, tuple[int, ...]]):
    """Walk half-edges: arriving at v along e, leave on the CCW successor of e
    in v's rotation.  Interior faces come out clockwise, and the outer face
    of each component counterclockwise."""
    successor: dict[HalfEdge, int] = {
        (v, eid): nxt for v, rot in rotation.items() for eid, nxt in zip(rot, rot[1:] + rot[:1])
    }
    faces: list[tuple[HalfEdge, ...]] = []
    face_of: dict[HalfEdge, int] = {}
    for start in sorted(successor):
        if start in face_of:
            continue
        walk: list[HalfEdge] = []
        cur = start
        while True:
            if cur in face_of:
                raise InternalInvariantError("face walk re-entered a closed face")
            face_of[cur] = len(faces)
            walk.append(cur)
            tail, eid = cur
            head = g.edge(eid).other(tail)
            cur = (head, successor[(head, eid)])
            if cur == start:
                break
        faces.append(tuple(walk))
    return tuple(faces), face_of


def _euler_check(g, rotation, faces):
    """V - E + F = 2 on each connected component, named by its lowest node."""
    component: dict[int, int] = {}
    for start in sorted(rotation):
        if start in component:
            continue
        component[start] = start
        queue = [start]
        for u in queue:
            for eid in rotation[u]:
                v = g.edge(eid).other(u)
                if v not in component:
                    component[v] = start
                    queue.append(v)
    v_count = Counter(component.values())
    half_edges = Counter(component[u] for u, rot in rotation.items() for _ in rot)
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
    g = emb.graph
    edges: list[DualEdge] = []
    for k, eid in enumerate(emb.kept_edge_ids):
        e = g.edge(eid)
        f1 = emb.face_of[(e.u, eid)]
        f2 = emb.face_of[(e.v, eid)]
        edges.append(DualEdge(k, f1, f2, e.weight, eid))
    dual = DualGraph(len(emb.faces), tuple(edges))
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
