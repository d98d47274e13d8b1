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
from functools import cached_property
from typing import Iterable, NamedTuple

from . import geometry
from .errors import InternalInvariantError, LayoutValidationError
from .layout import DesignRules, Shifter
from .unionfind import ParityUnionFind

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

    @property
    def is_equal_constraint(self) -> bool:
        """Overlap halves demand equal phase; feature edges demand opposite."""
        return self.kind == EDGE_OVERLAP_HALF


@dataclass(frozen=True)
class PhaseConflictGraph:
    """The graph as flat columns, indexed by node id and by edge id.

    Node k sits at positions[k], is of kinds[k], and was moved by
    perturbs[k] off the position the layout gave it.  Edge e joins
    ends[2e] (its end u, the tail of dart 2e) and ends[2e+1] (its end v,
    the tail of dart 2e+1) at weights[e]; flips[e] is 1 for a feature edge
    (opposite phases) and 0 for an overlap half (equal phases); the edge
    stands for the shifters shifter_pairs[e], which must move required[e]
    apart (None for a feature edge).

    `nodes` and `edges` give the same graph as PcgNode/PcgEdge records,
    built once, on first access; the pipeline reads the columns.
    """

    positions: tuple[tuple[int, int], ...]
    kinds: tuple[str, ...]
    perturbs: tuple[tuple[int, int], ...]
    ends: tuple[int, ...]
    weights: tuple[int, ...]
    flips: tuple[int, ...]
    shifter_pairs: tuple[tuple[int, int], ...]
    required: tuple[int | None, ...]
    perturbed_nodes: tuple[int, ...] = ()

    @cached_property
    def nodes(self) -> tuple[PcgNode, ...]:
        return tuple(
            PcgNode(k, kind, x, y, perturb)
            for k, (kind, (x, y), perturb) in enumerate(
                zip(self.kinds, self.positions, self.perturbs)
            )
        )

    @cached_property
    def edges(self) -> tuple[PcgEdge, ...]:
        it = iter(self.ends)
        return tuple(
            PcgEdge(k, u, v, weight, EDGE_FEATURE if flip else EDGE_OVERLAP_HALF, pair, need)
            for k, (u, v, weight, flip, pair, need) in enumerate(
                zip(it, it, self.weights, self.flips, self.shifter_pairs, self.required)
            )
        )


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
    positions: list[tuple[int, int]] = []
    by_feature: dict[int, list[int]] = {}
    for nid, s in enumerate(ordered):
        r = s.rect
        node_of_shifter[s.id] = nid
        # center in quarter-nm, exact
        positions.append((2 * (r.x_lo + r.x_hi), 2 * (r.y_lo + r.y_hi)))
        by_feature.setdefault(s.feature_id, []).append(nid)

    ends: list[int] = []
    shifter_pairs: list[tuple[int, int]] = []
    for fid in sorted(by_feature):
        pair = by_feature[fid]
        if len(pair) != 2:
            raise LayoutValidationError(
                f"feature {fid} has {len(pair)} shifters, expected 2"
            )
        u, v = pair
        ends += pair
        shifter_pairs.append((ordered[u].id, ordered[v].id))
    features = len(shifter_pairs)
    weights: list[int] = [FEATURE_EDGE_WEIGHT] * features
    required: list[int | None] = [None] * features

    spacing = rules.min_shifter_spacing
    uniform = weight_mode == WEIGHT_UNIFORM
    for s1, s2, sep in sorted(overlap_pairs):
        need = spacing - sep
        if need <= 0:
            raise LayoutValidationError(
                f"overlap pair ({s1},{s2}) separation {sep} is not below "
                f"the minimum spacing {spacing}"
            )
        u, v = node_of_shifter[s1], node_of_shifter[s2]
        (ux, uy), (vx, vy) = positions[u], positions[v]
        onid = len(positions)
        # node coords are even: the midpoint is exact
        positions.append(((ux + vx) // 2, (uy + vy) // 2))
        ends += (u, onid, onid, v)  # the two halves u-o and o-v
        weight = 1 if uniform else need
        weights += (weight, weight)
        shifter_pairs += ((s1, s2), (s1, s2))
        required += (need, need)

    kinds = [NODE_EDGE_SHIFTER] * len(ordered)
    kinds += [NODE_OVERLAP] * (len(positions) - len(ordered))
    flips = [1] * features + [0] * (len(weights) - features)
    perturbs, perturbed = _perturb_degenerate_overlaps(positions, kinds, ends)
    return PhaseConflictGraph(
        tuple(positions), tuple(kinds), tuple(perturbs), tuple(ends), tuple(weights),
        tuple(flips), tuple(shifter_pairs), tuple(required), tuple(perturbed),
    )


def _perturb_degenerate_overlaps(
    pos: list[tuple[int, int]], kinds: list[str], ends: list[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Nudge overlap nodes off degenerate positions, moving entries of
    `pos` in place; returns each node's nudge (dx, dy) and the nudged
    overlap nodes.

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
    perturbs = [(0, 0)] * len(pos)
    if len(set(pos)) < len(pos):  # two shifter nodes may share a position
        _separate_concentric_shifters(pos, kinds, perturbs)

    flagged = _degenerate_overlap_nodes(pos, kinds, ends)
    if not flagged:
        return perturbs, []

    incident: dict[int, list[int]] = {nid: [] for nid in flagged}
    for dart, end in enumerate(ends):
        if end in incident:
            incident[end].append(dart >> 1)
    at = Counter(pos)
    lines = _line_index(pos, ends)

    def move(nid: int, dx: int, dy: int) -> None:
        """Put the node at its built position plus (dx, dy), keeping the
        indexes current."""
        for eid in incident[nid]:
            _file_edge(lines, pos, ends, eid, filed=False)
        at[pos[nid]] -= 1
        (x, y), (px, py) = pos[nid], perturbs[nid]
        pos[nid] = (x - px + dx, y - py + dy)
        perturbs[nid] = (dx, dy)
        at[pos[nid]] += 1
        for eid in incident[nid]:
            _file_edge(lines, pos, ends, eid, filed=True)

    # The re-check applies the flag pass's two symmetric rules (a shared
    # position, an overlapping pair of spans) and a node stops only where it
    # is not degenerate, so a move never makes another node degenerate: the
    # flagged nodes are the only ones that can need a nudge, and one visit
    # each settles them.
    perturbed: list[int] = []
    for nid in flagged:
        if not _is_degenerate(nid, pos, ends, incident, at, lines):
            continue
        for dx, dy in _perturb_deltas():
            move(nid, dx, dy)
            if not _is_degenerate(nid, pos, ends, incident, at, lines):
                break
        else:
            raise InternalInvariantError(
                f"cannot resolve degenerate overlap node {nid} "
                f"within {_PERTURB_LIMIT} quarter-nm"
            )
        perturbed.append(nid)
    left = _degenerate_overlap_nodes(pos, kinds, ends)
    if left:
        raise InternalInvariantError(
            f"overlap node {left[0]} still degenerate after perturbation"
        )
    return perturbs, perturbed


def _separate_concentric_shifters(
    pos: list[tuple[int, int]], kinds: list[str], perturbs: list[tuple[int, int]]
) -> None:
    """Move each edge-shifter node whose position an earlier one holds to
    the first free delta, recording the nudge in `perturbs`."""
    held: set[tuple[int, int]] = set()
    for nid, kind in enumerate(kinds):
        if kind != NODE_EDGE_SHIFTER:
            continue
        x, y = pos[nid]
        if (x, y) in held:
            free = (d for d in _perturb_deltas() if (x + d[0], y + d[1]) not in held)
            dx, dy = next(free, (None, None))
            if dx is None:
                raise InternalInvariantError(
                    f"cannot separate concentric shifter node {nid} "
                    f"within {_PERTURB_LIMIT} quarter-nm"
                )
            x, y = pos[nid] = (x + dx, y + dy)
            perturbs[nid] = (dx, dy)
        held.add((x, y))


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


def _line_index(pos: list[tuple[int, int]], ends: list[int]) -> LineIndex:
    """The span of every edge of positive length, filed under its line."""
    lines: LineIndex = defaultdict(dict)
    for eid in range(len(ends) // 2):
        _file_edge(lines, pos, ends, eid, filed=True)
    return lines


def _file_edge(
    lines: LineIndex, pos: list[tuple[int, int]], ends: list[int], eid: int, filed: bool
) -> None:
    """File the edge's span under its line, or take it out (filed=False)."""
    span = _line_span(pos[ends[2 * eid]], pos[ends[2 * eid + 1]])
    if span is None:
        return
    key, lo, hi = span
    if filed:
        lines[key][eid] = (lo, hi)
    else:
        del lines[key][eid]


def _degenerate_overlap_nodes(
    pos: list[tuple[int, int]], kinds: list[str], ends: list[int]
) -> list[int]:
    """The overlap nodes _is_degenerate holds for, in id order, in one pass.

    A node is flagged when a Counter of positions holds its position twice,
    or when one of its edges overlaps another along a stretch of positive
    length.  Edges are grouped by line; sorted by lo, an edge overlaps one
    before it exactly when its lo is below the running maximum hi before
    it, and one after it exactly when the next edge's lo is below its hi.
    """
    is_overlap = [kind == NODE_OVERLAP for kind in kinds]
    count = Counter(pos)
    flagged = set()
    if len(count) < len(pos):
        flagged.update(nid for nid, p in enumerate(pos) if is_overlap[nid] and count[p] > 1)
    lines: dict[Line, list[tuple[int, int, int]]] = defaultdict(list)
    it = iter(ends)
    for eid, (u, v) in enumerate(zip(it, it)):
        span = _line_span(pos[u], pos[v])
        if span is not None:
            key, lo, hi = span
            lines[key].append((lo, hi, eid))
    for group in lines.values():
        if len(group) < 2:
            continue
        group.sort()
        reach = group[0][0]
        last = len(group) - 1
        for k, (lo, hi, eid) in enumerate(group):
            if lo < reach or (k < last and group[k + 1][0] < hi):
                flagged.update(end for end in ends[2 * eid:2 * eid + 2] if is_overlap[end])
            if hi > reach:
                reach = hi
    return sorted(flagged)


def _is_degenerate(
    node_id: int,
    pos: list[tuple[int, int]],
    ends: list[int],
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
    if at[pos[node_id]] > 1:
        return True
    for eid in incident[node_id]:
        span = _line_span(pos[ends[2 * eid]], pos[ends[2 * eid + 1]])
        if span is None:
            continue
        key, lo, hi = span
        for fid, (f_lo, f_hi) in lines[key].items():
            if fid != eid and max(lo, f_lo) < min(hi, f_hi):
                return True
    return False


def signed_forest(
    g: PhaseConflictGraph, edge_ids: Iterable[int]
) -> tuple[ParityUnionFind, list[int]]:
    """Union each edge's parity constraint, in the order given, over all nodes.

    Overlap halves demand equal phase (parity 0), feature edges opposite
    (parity 1).  Returns the union-find and the ids of the edges that
    contradicted the edges before them; each closes an unbalanced cycle and
    stays out of the forest.  Used only where that order decides the answer:
    the greedy baseline.
    """
    uf = ParityUnionFind()
    for nid in range(len(g.positions)):
        uf.add(nid)
    ends, flips = g.ends, g.flips
    contradicted = [
        eid for eid in edge_ids if not uf.union(ends[2 * eid], ends[2 * eid + 1], flips[eid])
    ]
    return uf, contradicted


def is_bipartite(g: PhaseConflictGraph) -> BipartiteResult:
    """Decide whether the graph is phase-assignable.

    The witness is the first unbalanced cycle the signed two-coloring closes;
    when there is none, the colors are that coloring, which `phase_assign`
    can certify instead of coloring again.
    """
    color, _, witness = signed_components(g, frozenset())
    if witness is not None:
        return BipartiteResult(False, witness)
    return BipartiteResult(True, None, tuple(color))


def signed_components(
    g: PhaseConflictGraph, removed: set[int] | frozenset[int]
) -> tuple[list[int], list[int], tuple | None]:
    """Signed two-coloring of the edges not in `removed`, from each
    component's lowest node id at color 0: a feature edge flips the color,
    an overlap half keeps it.  Returns the colors, each node's component
    label (the component's lowest node id), and the edge ids of the first
    unbalanced cycle the coloring closes, where it stops, or None."""
    n = len(g.positions)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    it = iter(g.ends)
    for eid, (u, v, flip) in enumerate(zip(it, it, g.flips)):
        if eid not in removed:
            adj[u].append((v, eid, flip))
            adj[v].append((u, eid, flip))
    color = [0] * n
    component = [-1] * n
    via = [-1] * n  # node -> the edge to its parent in the search
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            cu = color[u]
            for v, eid, flip in adj[u]:
                if component[v] < 0:
                    component[v] = start
                    color[v] = cu ^ flip
                    via[v] = eid
                    stack.append(v)
                elif color[v] != cu ^ flip:
                    # the tree path u..v has parity color[u] ^ color[v], so
                    # this edge closes an unbalanced cycle
                    path = _path_to_root(g, u, via) ^ _path_to_root(g, v, via)
                    return color, component, tuple(sorted(path | {eid}))
    return color, component, None


def _path_to_root(g: PhaseConflictGraph, x: int, via: list[int]) -> set[int]:
    ends = g.ends
    path = set()
    while via[x] >= 0:
        eid = via[x]
        path.add(eid)
        u, v = ends[2 * eid], ends[2 * eid + 1]
        x = v if x == u else u
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
    that coloring of the graph minus the deleted edges, as `is_bipartite`
    or `finalize_conflicts` returned it, and is not computed again.  Raises
    when a surviving unbalanced cycle makes assignment impossible.  The
    final loop, which checks every kept constraint against the phases, is
    the balance certificate `detect` relies on.
    """
    deleted = frozenset(deleted_edge_ids)
    if colors is None:
        colors, _, witness = signed_components(g, deleted)
        if witness is not None:
            raise InternalInvariantError(
                f"residual unbalanced cycle through edges {list(witness)}; "
                "cannot assign phases"
            )
    phases = {nid: PHASE_B if c else PHASE_A for nid, c in enumerate(colors)}
    it = iter(g.ends)
    for eid, (u, v, flip) in enumerate(zip(it, it, g.flips)):
        # a feature edge (flip 1) wants the phases apart, an overlap half together
        if (phases[u] != phases[v]) != flip and eid not in deleted:
            raise InternalInvariantError(f"edge {eid} constraint violated")
    return phases


def dump_graph(g: PhaseConflictGraph) -> str:
    """Line format: `node <id> <kind> <x> <y>` / `edge <id> <u> <v> <weight>
    <kind> <s1> <s2> [required_separation]`."""
    lines = [
        f"node {nid} {kind} {x} {y}"
        for nid, (kind, (x, y)) in enumerate(zip(g.kinds, g.positions))
    ]
    it = iter(g.ends)
    for eid, (u, v, weight, flip, (s1, s2), required) in enumerate(
        zip(it, it, g.weights, g.flips, g.shifter_pairs, g.required)
    ):
        kind = EDGE_FEATURE if flip else EDGE_OVERLAP_HALF
        line = f"edge {eid} {u} {v} {weight} {kind} {s1} {s2}"
        if required is not None:
            line += f" {required}"
        lines.append(line)
    return "\n".join(lines) + "\n"
