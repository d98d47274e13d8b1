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

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import NamedTuple

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

Line = tuple[int, int, int]  # primitive direction (dx, dy), offset: see _line_span
LineIndex = dict[Line, dict[int, tuple[int, int]]]  # line -> {edge id: (lo, hi)}


class PcgNode(NamedTuple):
    """A node at (x, y); a NamedTuple, so derive moved copies with `_replace`."""

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
    colors: tuple[int, ...] | None = None  # the signed two-coloring when ok


def build_conflict_graph(
    shifters: tuple[Shifter, ...],
    overlap_pairs: tuple[tuple[int, int, int], ...],
    rules: DesignRules,
    weight_mode: str = WEIGHT_UNIFORM,
) -> PhaseConflictGraph:
    """Assemble the phase conflict graph from shifters and overlap pairs."""
    if weight_mode not in (WEIGHT_UNIFORM, WEIGHT_SEPARATION):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    # one pass over the shifters in id order: node ids follow shifter ids, so
    # each feature's node list is in id order already
    ordered = sorted(shifters, key=lambda s: s.id)
    node_of_shifter: dict[int, int] = {}
    nodes: list[PcgNode] = []
    by_feature: dict[int, list[int]] = {}
    for nid, s in enumerate(ordered):
        r = s.rect
        node_of_shifter[s.id] = nid
        x = 2 * (r.x_lo + r.x_hi)  # center * POS_SCALE, exact
        y = 2 * (r.y_lo + r.y_hi)
        nodes.append(PcgNode(nid, NODE_EDGE_SHIFTER, x, y))
        by_feature.setdefault(s.feature_id, []).append(nid)

    edges: list[PcgEdge] = []
    for fid in sorted(by_feature):
        pair = by_feature[fid]
        if len(pair) != 2:
            raise LayoutValidationError(
                f"feature {fid} has {len(pair)} shifters, expected 2"
            )
        u, v = pair
        edges.append(
            PcgEdge(
                len(edges), u, v, FEATURE_EDGE_WEIGHT, EDGE_FEATURE, (ordered[u].id, ordered[v].id)
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
        u, v = nodes[node_of_shifter[s1]], nodes[node_of_shifter[s2]]
        onid = len(nodes)
        # node coords are even: the midpoint is exact
        nodes.append(PcgNode(onid, NODE_OVERLAP, (u.x + v.x) // 2, (u.y + v.y) // 2))
        weight = 1 if weight_mode == WEIGHT_UNIFORM else required
        edges.append(
            PcgEdge(len(edges), u.id, onid, weight, EDGE_OVERLAP_HALF, (s1, s2), required)
        )
        edges.append(
            PcgEdge(len(edges), onid, v.id, weight, EDGE_OVERLAP_HALF, (s1, s2), required)
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

    One hashed pass over the drawing (_degenerate_overlap_nodes) flags the
    degenerate overlap nodes; when it flags none, as on most designs, nothing
    else runs.  Otherwise the flagged nodes are visited in id order, each
    re-checked and, while still degenerate, moved to the first delta where it
    is not, against a position index and an index of edge spans by line
    (_line_index) kept current as it moves; the re-check applies the flag
    pass's rules.

    This is the one place general position is established.
    planar.require_general_position certifies it: distinct node positions
    and no two edges leaving a node on the same ray, or GeometryError
    (exit 2).  `detect` runs that check once on every graph it builds, and
    the crossing search, crossing removal and embedding assume it.
    """
    held: set[tuple[int, int]] = set()
    for node in nodes:
        if node.kind != NODE_EDGE_SHIFTER:
            continue
        if (node.x, node.y) in held:
            free = (
                d for d in _perturb_deltas() if (node.x + d[0], node.y + d[1]) not in held
            )
            dx, dy = next(free, (None, None))
            if dx is None:
                raise InternalInvariantError(
                    f"cannot separate concentric shifter node {node.id} "
                    f"within {_PERTURB_LIMIT} quarter-nm"
                )
            node = node._replace(x=node.x + dx, y=node.y + dy, perturb=(dx, dy))
            nodes[node.id] = node
        held.add((node.x, node.y))

    flagged = _degenerate_overlap_nodes(nodes, edges)
    if not flagged:
        return nodes, []

    incident: dict[int, list[int]] = {nid: [] for nid in flagged}
    for e in edges:
        for end in (e.u, e.v):
            if end in incident:
                incident[end].append(e.id)
    at = Counter(n.pos for n in nodes)
    lines = _line_index(nodes, edges)

    def move(nid: int, dx: int, dy: int) -> None:
        """Put the node at its built position plus (dx, dy), keeping the
        indexes current."""
        node = nodes[nid]
        for eid in incident[nid]:
            _file_edge(lines, nodes, edges[eid], filed=False)
        at[node.pos] -= 1
        base_x, base_y = node.x - node.perturb[0], node.y - node.perturb[1]
        nodes[nid] = node = node._replace(x=base_x + dx, y=base_y + dy, perturb=(dx, dy))
        at[node.pos] += 1
        for eid in incident[nid]:
            _file_edge(lines, nodes, edges[eid], filed=True)

    # The re-check applies the flag pass's two symmetric rules (a shared
    # position, an overlapping pair of spans) and a node stops only where it
    # is not degenerate, so a move never makes another node degenerate: the
    # flagged nodes are the only ones that can need a nudge, and one visit
    # each settles them.
    perturbed: list[int] = []
    for nid in flagged:
        if not _is_degenerate(nid, nodes, edges, incident, at, lines):
            continue
        for dx, dy in _perturb_deltas():
            move(nid, dx, dy)
            if not _is_degenerate(nid, nodes, edges, incident, at, lines):
                break
        else:
            raise InternalInvariantError(
                f"cannot resolve degenerate overlap node {nid} "
                f"within {_PERTURB_LIMIT} quarter-nm"
            )
        perturbed.append(nid)
    left = _degenerate_overlap_nodes(nodes, edges)
    if left:
        raise InternalInvariantError(
            f"overlap node {left[0]} still degenerate after perturbation"
        )
    return nodes, perturbed


def _perturb_deltas():
    for k in range(1, _PERTURB_LIMIT + 1):
        yield (0, k)
    for k in range(1, _PERTURB_LIMIT + 1):
        yield (k, _PERTURB_LIMIT)


def _line_span(a: geometry.Point, b: geometry.Point) -> tuple[Line, int, int] | None:
    """The line through a and b, and the interval lo < hi the segment covers
    on it; None when a == b, since a point has no line and overlaps nothing.

    The line is keyed by its primitive direction (dx, dy), signed so that
    dx > 0 or dx == 0 < dy, and by the offset dx*y - dy*x that every point of
    it shares; lo and hi project a and b onto (dx, dy).  Exact integers.
    Axis-parallel segments, the common case, skip the gcd.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    if not dy:
        return ((1, 0, a[1]), min(a[0], b[0]), max(a[0], b[0])) if dx else None
    if not dx:
        return (0, 1, -a[0]), min(a[1], b[1]), max(a[1], b[1])
    step = math.gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        step = -step
    dx, dy = dx // step, dy // step
    ta, tb = dx * a[0] + dy * a[1], dx * b[0] + dy * b[1]
    return (dx, dy, dx * a[1] - dy * a[0]), min(ta, tb), max(ta, tb)


def _line_index(nodes: list[PcgNode], edges: list[PcgEdge]) -> LineIndex:
    """The span of every edge of positive length, filed under its line."""
    lines: LineIndex = defaultdict(dict)
    for e in edges:
        _file_edge(lines, nodes, e, filed=True)
    return lines


def _file_edge(lines: LineIndex, nodes: list[PcgNode], e: PcgEdge, filed: bool) -> None:
    """File the edge's span under its line, or take it out (filed=False)."""
    span = _line_span(nodes[e.u].pos, nodes[e.v].pos)
    if span is None:
        return
    key, lo, hi = span
    if filed:
        lines[key][e.id] = (lo, hi)
    else:
        del lines[key][e.id]


def _degenerate_overlap_nodes(nodes: list[PcgNode], edges: list[PcgEdge]) -> list[int]:
    """The overlap nodes _is_degenerate holds for, in id order, in one pass.

    A node is flagged when a Counter of positions holds its position twice,
    or when one of its edges overlaps another along a stretch of positive
    length.  Edges are grouped by line; sorted by lo, an edge overlaps one
    before it exactly when its lo is below the running maximum hi before
    it, and one after it exactly when the next edge's lo is below its hi.
    """
    pos = [n.pos for n in nodes]
    is_overlap = [n.kind == NODE_OVERLAP for n in nodes]
    count = Counter(pos)
    flagged = {n.id for n in nodes if is_overlap[n.id] and count[pos[n.id]] > 1}
    lines: dict[Line, list[tuple[int, int, int]]] = defaultdict(list)
    for e in edges:
        span = _line_span(pos[e.u], pos[e.v])
        if span is not None:
            key, lo, hi = span
            lines[key].append((lo, hi, e.id))
    for group in lines.values():
        if len(group) < 2:
            continue
        group.sort()
        reach = group[0][0]
        for k, (lo, hi, eid) in enumerate(group):
            if lo < reach or (k + 1 < len(group) and group[k + 1][0] < hi):
                e = edges[eid]
                flagged.update(end for end in (e.u, e.v) if is_overlap[end])
            reach = max(reach, hi)
    return sorted(flagged)


def _is_degenerate(
    node_id: int,
    nodes: list[PcgNode],
    edges: list[PcgEdge],
    incident: dict[int, list[int]],
    at: Counter,
    lines: LineIndex,
) -> bool:
    """The node shares its position with another node, or one of its edges
    overlaps another edge along a stretch of positive length.

    `at` counts the nodes at each position and `lines` holds each edge's
    span under its line (_line_index), both for the drawing as it stands.
    Two edges overlap exactly when their spans on one line overlap by a
    positive length, the rule _degenerate_overlap_nodes sweeps; only the
    spans on the lines of the node's own edges are read.
    """
    if at[nodes[node_id].pos] > 1:
        return True
    for eid in incident[node_id]:
        e = edges[eid]
        span = _line_span(nodes[e.u].pos, nodes[e.v].pos)
        if span is None:
            continue
        key, lo, hi = span
        for fid, (f_lo, f_hi) in lines[key].items():
            if fid != eid and max(lo, f_lo) < min(hi, f_hi):
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

    The witness is the first unbalanced cycle the signed two-coloring closes;
    when there is none, the colors are that coloring, which `phase_assign`
    can certify instead of coloring again.
    """
    removed = set(removed_edge_ids)
    color, witness = _two_color(g, [e for e in g.edges if e.id not in removed])
    if witness is not None:
        return BipartiteResult(False, witness)
    return BipartiteResult(True, None, tuple(color))


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
    g: PhaseConflictGraph,
    deleted_edge_ids: tuple[int, ...] | frozenset = (),
    colors: tuple[int, ...] | None = None,
) -> dict[int, int]:
    """Assign 0/180 phases to every node so all surviving constraints hold.

    The phases are the signed two-coloring's colors: overlap nodes carry the
    phase shared by their pair, and the lowest node id of each connected
    component gets phase 0 (canonical polarity).  `colors`, when given, is
    that coloring of the graph minus the deleted edges as `is_bipartite`
    returned it, and is not computed again.  Raises when a surviving
    unbalanced cycle makes assignment impossible.  The final loop, which
    checks every kept constraint against the phases, is the balance
    certificate `detect` relies on.
    """
    deleted = set(deleted_edge_ids)
    kept = [e for e in g.edges if e.id not in deleted]
    if colors is None:
        colors, witness = _two_color(g, kept)
        if witness is not None:
            raise InternalInvariantError(
                f"residual unbalanced cycle through edges {list(witness)}; "
                "cannot assign phases"
            )
    phases = {n.id: PHASE_B if colors[n.id] else PHASE_A for n in g.nodes}
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
