"""Phase conflict graph over shifters and their overlap pairs.

Nodes are edge-shifter nodes (one per shifter, at the shifter rect center) and
overlap nodes (one per overlapping pair, at the midpoint between the two
shifter centers).  Edges either join the two shifters of one feature
(opposite-phase constraint) or join a shifter to an overlap node (same-phase
constraint, two halves per overlap pair).

Positions are stored in quarter-nm units (nm * 4) so that both rect centers
and overlap midpoints are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import geometry
from .errors import InternalInvariantError, LayoutValidationError
from .layout import DesignRules, Shifter
from .unionfind import ParityUnionFind

POS_SCALE = 4  # quarter-nm units per nm

NODE_EDGE_SHIFTER = "edge_shifter"
NODE_OVERLAP = "overlap"

EDGE_FEATURE = "feature"
EDGE_OVERLAP_HALF = "overlap_half"

# Deleting a feature edge would require widening the feature, which this flow
# never does; a large finite weight steers bipartization toward overlap edges
# while keeping matching weights bounded.
FEATURE_EDGE_WEIGHT = 10**6

WEIGHT_UNIFORM = "uniform"
WEIGHT_SEPARATION = "separation"

PHASE_A = 0
PHASE_B = 180

_PERTURB_LIMIT = 16
_PERTURB_SWEEPS = 3


@dataclass(frozen=True)
class PcgNode:
    id: int
    kind: str
    x: int  # quarter-nm
    y: int
    perturb: tuple[int, int] = (0, 0)

    @property
    def pos(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class PcgEdge:
    id: int
    u: int
    v: int
    weight: int
    kind: str
    shifter_pair: tuple[int, int]
    required_separation: int | None = None

    def other(self, node_id: int) -> int:
        return self.v if node_id == self.u else self.u

    @property
    def is_equal_constraint(self) -> bool:
        """Overlap halves demand equal phase; feature edges demand opposite."""
        return self.kind == EDGE_OVERLAP_HALF


@dataclass(frozen=True)
class PhaseConflictGraph:
    nodes: tuple[PcgNode, ...]
    edges: tuple[PcgEdge, ...]
    perturbed_nodes: tuple[int, ...] = ()

    def node(self, node_id: int) -> PcgNode:
        return self.nodes[node_id]

    def edge(self, edge_id: int) -> PcgEdge:
        return self.edges[edge_id]


@dataclass(frozen=True)
class BipartiteResult:
    ok: bool
    witness: tuple[int, ...] | None = None  # unbalanced cycle edge ids when not


def build_conflict_graph(
    shifters: tuple[Shifter, ...],
    overlap_pairs: tuple[tuple[int, int, int], ...],
    rules: DesignRules,
    weight_mode: str = WEIGHT_UNIFORM,
) -> PhaseConflictGraph:
    """Assemble the phase conflict graph from shifters and overlap pairs."""
    if weight_mode not in (WEIGHT_UNIFORM, WEIGHT_SEPARATION):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    ordered = sorted(shifters, key=lambda s: s.id)
    node_of_shifter: dict[int, int] = {}
    nodes: list[PcgNode] = []
    for s in ordered:
        nid = len(nodes)
        node_of_shifter[s.id] = nid
        x = 2 * (s.rect.x_lo + s.rect.x_hi)  # center * POS_SCALE, exact
        y = 2 * (s.rect.y_lo + s.rect.y_hi)
        nodes.append(PcgNode(nid, NODE_EDGE_SHIFTER, x, y))

    by_feature: dict[int, list[Shifter]] = {}
    for s in ordered:
        by_feature.setdefault(s.feature_id, []).append(s)

    edges: list[PcgEdge] = []
    for fid in sorted(by_feature):
        pair = by_feature[fid]
        if len(pair) != 2:
            raise LayoutValidationError(
                f"feature {fid} has {len(pair)} shifters, expected 2"
            )
        a, b = sorted(pair, key=lambda s: s.id)
        edges.append(
            PcgEdge(
                len(edges),
                node_of_shifter[a.id],
                node_of_shifter[b.id],
                FEATURE_EDGE_WEIGHT,
                EDGE_FEATURE,
                (a.id, b.id),
            )
        )

    spacing = rules.min_shifter_spacing
    for s1, s2, sep in sorted(overlap_pairs):
        required = spacing - sep
        if required <= 0:
            raise LayoutValidationError(
                f"overlap pair ({s1},{s2}) separation {sep} is not below "
                f"the minimum spacing {spacing}"
            )
        u = node_of_shifter[s1]
        v = node_of_shifter[s2]
        onid = len(nodes)
        ox = (nodes[u].x + nodes[v].x) // 2  # node coords are even: exact
        oy = (nodes[u].y + nodes[v].y) // 2
        nodes.append(PcgNode(onid, NODE_OVERLAP, ox, oy))
        weight = 1 if weight_mode == WEIGHT_UNIFORM else required
        edges.append(
            PcgEdge(len(edges), u, onid, weight, EDGE_OVERLAP_HALF, (s1, s2), required)
        )
        edges.append(
            PcgEdge(len(edges), onid, v, weight, EDGE_OVERLAP_HALF, (s1, s2), required)
        )

    nodes, perturbed = _perturb_degenerate_overlaps(nodes, edges)
    return PhaseConflictGraph(tuple(nodes), tuple(edges), tuple(perturbed))


def _perturb_degenerate_overlaps(
    nodes: list[PcgNode], edges: list[PcgEdge]
) -> tuple[list[PcgNode], list[int]]:
    """Nudge overlap nodes off degenerate positions.

    An overlap node's placement is a modeling convenience, so it may be moved
    by a few quarter-nm when it coincides with another node or when one of its
    incident segments overlaps another segment along a collinear stretch of
    positive length (either situation breaks the rotation system or fabricates
    crossings).  Edge-shifter positions are fixed by the layout; the one
    exception is two shifters with the same center, where the later node is
    nudged off the position the earlier one holds (moving overlap nodes alone
    could never separate them).  Only overlap nodes are listed as perturbed.

    This is the one place general position is established:
    planar.require_general_position demands distinct node positions and no
    two edges leaving a node on the same ray, and rejects a drawing without
    them (GeometryError, exit 2).
    """
    held: set[tuple[int, int]] = set()
    for node in nodes:
        if node.kind != NODE_EDGE_SHIFTER:
            continue
        if node.pos in held:
            free = (
                d for d in _perturb_deltas() if (node.x + d[0], node.y + d[1]) not in held
            )
            dx, dy = next(free, (None, None))
            if dx is None:
                raise InternalInvariantError(
                    f"cannot separate concentric shifter node {node.id} "
                    f"within {_PERTURB_LIMIT} quarter-nm"
                )
            node = replace(node, x=node.x + dx, y=node.y + dy, perturb=(dx, dy))
            nodes[node.id] = node
        held.add(node.pos)

    # From here on only overlap nodes move, each by a delta in [0, _PERTURB_LIMIT]
    # per axis from where it sits now, so two edges whose boxes, grown by the
    # limit on their high sides, miss each other can never meet.
    incident: dict[int, list[int]] = {n.id: [] for n in nodes}
    for e in edges:
        incident[e.u].append(e.id)
        incident[e.v].append(e.id)
    grown = []
    for e in edges:
        x_lo, y_lo, x_hi, y_hi = geometry.segment_box(nodes[e.u].pos, nodes[e.v].pos)
        grown.append((x_lo, y_lo, x_hi + _PERTURB_LIMIT, y_hi + _PERTURB_LIMIT))
    near: list[list[int]] = [[] for _ in edges]
    for i, j in geometry.box_pairs(grown):
        near[i].append(j)
        near[j].append(i)

    perturbed: list[int] = []
    for sweep in range(_PERTURB_SWEEPS + 1):  # the last sweep only verifies
        changed = False
        for node in nodes:
            if node.kind != NODE_OVERLAP or not _is_degenerate(
                node.id, nodes, edges, incident, near
            ):
                continue
            if sweep == _PERTURB_SWEEPS:
                raise InternalInvariantError(
                    f"overlap node {node.id} still degenerate after perturbation sweeps"
                )
            base_x = node.x - node.perturb[0]
            base_y = node.y - node.perturb[1]
            for dx, dy in _perturb_deltas():
                nodes[node.id] = replace(node, x=base_x + dx, y=base_y + dy, perturb=(dx, dy))
                if not _is_degenerate(node.id, nodes, edges, incident, near):
                    break
            else:
                raise InternalInvariantError(
                    f"cannot resolve degenerate overlap node {node.id} "
                    f"within {_PERTURB_LIMIT} quarter-nm"
                )
            if node.id not in perturbed:
                perturbed.append(node.id)
            changed = True
        if not changed:
            break
    return nodes, perturbed


def _perturb_deltas():
    for k in range(1, _PERTURB_LIMIT + 1):
        yield (0, k)
    for k in range(1, _PERTURB_LIMIT + 1):
        yield (k, _PERTURB_LIMIT)


def _is_degenerate(
    node_id: int,
    nodes: list[PcgNode],
    edges: list[PcgEdge],
    incident: dict[int, list[int]],
    near: list[list[int]],
) -> bool:
    """The node shares its position with another node, or one of its edges
    overlaps another edge along a collinear stretch.

    Only the edges `near` the node's own edges are read.  The node is an
    overlap node, and every other node has an edge that is not one of its
    two halves (a feature edge, or the halves of another overlap node), so a
    node at the same position is an endpoint of a near edge.
    """
    pos = nodes[node_id].pos
    for eid in incident[node_id]:
        e = edges[eid]
        a, b = nodes[e.u].pos, nodes[e.v].pos
        for fid in near[eid]:
            f = edges[fid]
            c, d = nodes[f.u].pos, nodes[f.v].pos
            if (c == pos and f.u != node_id) or (d == pos and f.v != node_id):
                return True
            if geometry.collinear_overlap(a, b, c, d):
                return True
    return False


def signed_forest(
    g: PhaseConflictGraph, edges: list[PcgEdge]
) -> tuple[ParityUnionFind, list[int]]:
    """Union each edge's parity constraint, in the order given, over all nodes.

    Overlap halves demand equal phase (parity 0), feature edges opposite
    (parity 1).  Returns the union-find and the ids of the edges that
    contradicted the edges before them; each closes an unbalanced cycle and
    stays out of the forest.  Used only where that order decides the answer.
    """
    uf = ParityUnionFind()
    for n in g.nodes:
        uf.add(n.id)
    contradicted = [
        e.id for e in edges if not uf.union(e.u, e.v, 0 if e.is_equal_constraint else 1)
    ]
    return uf, contradicted


def is_bipartite(
    g: PhaseConflictGraph, removed_edge_ids: tuple[int, ...] | frozenset = ()
) -> BipartiteResult:
    """Decide whether the graph minus the removed edges is phase-assignable.

    The witness is the first unbalanced cycle the signed two-coloring closes.
    `detect` compares the verdict with its conflict set once.
    """
    removed = set(removed_edge_ids)
    _, witness = _two_color(g, [e for e in g.edges if e.id not in removed])
    return BipartiteResult(witness is None, witness)


def _two_color(g: PhaseConflictGraph, kept: list[PcgEdge]) -> tuple[list[int], tuple | None]:
    """Signed two-coloring of the kept edges, from each component's lowest
    node id at color 0: a feature edge flips the color, an overlap half keeps
    it.  Also returns the edge ids of the first unbalanced cycle it closes,
    where it stops, or None."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in g.nodes]
    for e in kept:
        flip = 0 if e.is_equal_constraint else 1
        adj[e.u].append((e.v, e.id, flip))
        adj[e.v].append((e.u, e.id, flip))
    color = [-1] * len(g.nodes)
    parent: dict[int, tuple[int, int] | None] = {}  # node -> (parent node, edge id)
    for start in range(len(g.nodes)):
        if color[start] >= 0:
            continue
        color[start] = 0
        parent[start] = None
        stack = [start]
        while stack:
            u = stack.pop()
            for v, eid, flip in adj[u]:
                if color[v] < 0:
                    color[v] = color[u] ^ flip
                    parent[v] = (u, eid)
                    stack.append(v)
                elif color[v] != color[u] ^ flip:
                    # the tree path u..v has parity color[u] ^ color[v], so
                    # this edge closes an unbalanced cycle
                    path = _path_to_root(u, parent) ^ _path_to_root(v, parent)
                    return color, tuple(sorted(path | {eid}))
    return color, None


def _path_to_root(x: int, parent: dict[int, tuple[int, int] | None]) -> set[int]:
    path = set()
    while parent[x] is not None:
        x, eid = parent[x]
        path.add(eid)
    return path


def phase_assign(
    g: PhaseConflictGraph, deleted_edge_ids: tuple[int, ...] | frozenset = ()
) -> dict[int, int]:
    """Assign 0/180 phases to every node so all surviving constraints hold.

    The phases are the signed two-coloring's colors: overlap nodes carry the
    phase shared by their pair, and the lowest node id of each connected
    component gets phase 0 (canonical polarity).  Raises when a surviving
    unbalanced cycle makes assignment impossible.  The final loop, which
    checks every kept constraint against the phases, is the balance
    certificate `detect` relies on.
    """
    deleted = set(deleted_edge_ids)
    kept = [e for e in g.edges if e.id not in deleted]
    color, witness = _two_color(g, kept)
    if witness is not None:
        raise InternalInvariantError(
            f"residual unbalanced cycle through edges {list(witness)}; "
            "cannot assign phases"
        )
    phases = {n.id: PHASE_B if color[n.id] else PHASE_A for n in g.nodes}
    for e in kept:
        same = phases[e.u] == phases[e.v]
        if e.is_equal_constraint != same:
            raise InternalInvariantError(f"edge {e.id} constraint violated")
    return phases


def dump_graph(g: PhaseConflictGraph) -> str:
    """Line format: `node <id> <kind> <x> <y>` / `edge <id> <u> <v> <weight>
    <kind> <s1> <s2> [required_separation]`."""
    lines = []
    for n in g.nodes:
        lines.append(f"node {n.id} {n.kind} {n.x} {n.y}")
    for e in g.edges:
        s1, s2 = e.shifter_pair
        line = f"edge {e.id} {e.u} {e.v} {e.weight} {e.kind} {s1} {s2}"
        if e.required_separation is not None:
            line += f" {e.required_separation}"
        lines.append(line)
    return "\n".join(lines) + "\n"
