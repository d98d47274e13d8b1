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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

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


class PcgNode(NamedTuple):
    """A node at (x, y); a NamedTuple, so derive moved copies with `_replace`."""

    id: int
    kind: str
    x: int  # quarter-nm
    y: int

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

    Node k sits at positions[k], the position the layout gave it, and is
    of kinds[k].  Edge e joins ends[2e] (its end u, the tail of dart 2e)
    and ends[2e+1] (its end v, the tail of dart 2e+1) at weights[e];
    flips[e] is 1 for a feature edge (opposite phases) and 0 for an overlap
    half (equal phases); the edge stands for the shifters shifter_pairs[e],
    which must move required[e] apart (None for a feature edge).

    `nodes` and `edges` give the same graph as PcgNode/PcgEdge records,
    built once, on first access; the pipeline reads the columns.
    """

    positions: tuple[tuple[int, int], ...]
    kinds: tuple[str, ...]
    ends: tuple[int, ...]
    weights: tuple[int, ...]
    flips: tuple[int, ...]
    shifter_pairs: tuple[tuple[int, int], ...]
    required: tuple[int | None, ...]

    # No node is ever moved; kept for the benchmark's per-layer metric and
    # the report key `perturbed_overlap_nodes`, which both read it.
    perturbed_nodes = ()

    @cached_property
    def nodes(self) -> tuple[PcgNode, ...]:
        return tuple(
            PcgNode(k, kind, x, y)
            for k, (kind, (x, y)) in enumerate(zip(self.kinds, self.positions))
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
    return PhaseConflictGraph(
        tuple(positions), tuple(kinds), tuple(ends), tuple(weights), tuple(flips),
        tuple(shifter_pairs), tuple(required),
    )


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
