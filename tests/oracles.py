"""Independent brute-force oracles the implementation is checked against.

Everything here recomputes results from first principles: rational-arithmetic
segment intersection, exhaustive coloring / subset / matching enumeration.
None of it shares a code path with the package under test, except the
routines a faster one replaced, kept as its references: the gadget
matchings of the T-join solve (`gadget_tjoin` on one connected instance,
reading the join off the connectors with `extract_join`, and
`unsplit_tjoin_weight` over a whole instance without splitting it into
components), the parity union-find phases of the signed two-coloring
(`phase_assign_oracle`), the casualty re-check as one parity union-find
over every node (`finalize_oracle`, through the package's `signed_forest`),
the embedding traced over half-edge keys (`embed_oracle`, which sorts
by the package's exact `compare_directions`), the record-based conflict
graph builder (`build_conflict_graph_oracle`, with the package's
`_line_span`; its `graph_from_records` also builds the hand-made graphs),
and crossing removal by recounting every round
(`remove_crossings_oracle`, over the package's `find_crossings`).  The one
solver-backed oracle, `exact_bipartization`, certifies its answer with the
package's `phase_assign`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from aapsm.bipartize import ORIGIN_MATCHING, ORIGIN_PLANARIZATION
from aapsm.conflict_graph import (
    EDGE_FEATURE,
    EDGE_OVERLAP_HALF,
    FEATURE_EDGE_WEIGHT,
    NODE_EDGE_SHIFTER,
    NODE_OVERLAP,
    PHASE_A,
    PHASE_B,
    WEIGHT_SEPARATION,
    WEIGHT_UNIFORM,
    PcgEdge,
    PcgNode,
    PhaseConflictGraph,
    _line_span,
    _perturb_deltas,
    phase_assign,
    signed_forest,
)
from aapsm.errors import InternalInvariantError, LayoutValidationError
from aapsm.geometry import compare_directions
from aapsm.matching import min_weight_perfect_matching
from aapsm.planar import find_crossings
from aapsm.tjoin import (
    MODE_GENERALIZED,
    assign_edges,
    build_generalized_gadget_graph,
    build_optimized_gadget_graph,
)
from aapsm.unionfind import ParityUnionFind


# ---------------------------------------------------------------------------
# segment intersection (parametric, exact rationals)
# ---------------------------------------------------------------------------


def segments_intersect_oracle(p, q, r, s) -> bool:
    """Closed segments pq and rs intersect; solved parametrically."""
    dx1, dy1 = q[0] - p[0], q[1] - p[1]
    dx2, dy2 = s[0] - r[0], s[1] - r[1]
    denom = dx1 * dy2 - dy1 * dx2
    ex, ey = r[0] - p[0], r[1] - p[1]
    if denom != 0:
        t = Fraction(ex * dy2 - ey * dx2, denom)
        u = Fraction(ex * dy1 - ey * dx1, denom)
        return 0 <= t <= 1 and 0 <= u <= 1
    # parallel: intersect only if collinear and 1-D ranges touch
    if ex * dy1 - ey * dx1 != 0:
        return False
    if dx1 == 0 and dy1 == 0:  # pq degenerates to a point
        if dx2 == 0 and dy2 == 0:
            return p == r
        return _point_on(p, r, s)
    axis = 0 if abs(dx1) >= abs(dy1) else 1
    a_lo, a_hi = sorted((p[axis], q[axis]))
    b_lo, b_hi = sorted((r[axis], s[axis]))
    return max(a_lo, b_lo) <= min(a_hi, b_hi)


def _point_on(pt, a, b) -> bool:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if (pt[0] - a[0]) * dy - (pt[1] - a[1]) * dx != 0:
        return False
    return (
        min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])
    )


def crossings_oracle(segments: dict[int, tuple], adjacency_exclusions) -> set:
    """All pairs (i, j), i < j, of intersecting non-excluded segments."""
    out = set()
    ids = sorted(segments)
    for i_pos, i in enumerate(ids):
        for j in ids[i_pos + 1 :]:
            if (i, j) in adjacency_exclusions:
                continue
            p, q = segments[i]
            r, s = segments[j]
            if segments_intersect_oracle(p, q, r, s):
                out.add((i, j))
    return out


def collinear_overlap_oracle(p, q, r, s) -> bool:
    """Segments pq and rs lie on one line and share a stretch of positive
    length; measured by projecting rs onto pq (pq must not be a point)."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    for pt in (r, s):
        if (pt[0] - p[0]) * dy - (pt[1] - p[1]) * dx != 0:
            return False
    t_r = (r[0] - p[0]) * dx + (r[1] - p[1]) * dy
    t_s = (s[0] - p[0]) * dx + (s[1] - p[1]) * dy
    # pq spans [0, |pq|^2] along its own direction
    return max(0, min(t_r, t_s)) < min(dx * dx + dy * dy, max(t_r, t_s))


def adjacent_collinear_pairs_oracle(g) -> set:
    """All pairs (i, j), i < j, of edges that share a node and overlap along a
    collinear stretch of positive length; all-pairs scan."""
    out = set()
    for e in g.edges:
        for f in g.edges:
            if e.id < f.id and {e.u, e.v} & {f.u, f.v}:
                p, q = g.nodes[e.u].pos, g.nodes[e.v].pos
                r, s = g.nodes[f.u].pos, g.nodes[f.v].pos
                if collinear_overlap_oracle(p, q, r, s):
                    out.add((e.id, f.id))
    return out


# ---------------------------------------------------------------------------
# all-pairs geometry scans (the box index's references)
# ---------------------------------------------------------------------------


def box_pairs_oracle(boxes) -> list:
    """All index pairs (i, j), i < j, of closed boxes that share a point."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(boxes)), 2)
        if max(boxes[i][0], boxes[j][0]) <= min(boxes[i][2], boxes[j][2])
        and max(boxes[i][1], boxes[j][1]) <= min(boxes[i][3], boxes[j][3])
    ]


def interior_overlap_pairs_oracle(rects) -> list:
    """All index pairs (i, j), i < j, of rects whose interiors intersect."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(rects)), 2)
        if max(rects[i].x_lo, rects[j].x_lo) < min(rects[i].x_hi, rects[j].x_hi)
        and max(rects[i].y_lo, rects[j].y_lo) < min(rects[i].y_hi, rects[j].y_hi)
    ]


def overlapping_pairs_oracle(shifters, spacing: int) -> tuple:
    """All pairs of shifters of different features closer than the spacing,
    as (id_lo, id_hi, separation); the separation is the floor of the
    Euclidean distance between the rects."""
    out = []
    ordered = sorted(shifters, key=lambda s: s.id)
    for a, b in itertools.combinations(ordered, 2):
        if a.feature_id == b.feature_id:
            continue
        ra, rb = a.rect, b.rect
        gx = max(0, ra.x_lo - rb.x_hi, rb.x_lo - ra.x_hi)
        gy = max(0, ra.y_lo - rb.y_hi, rb.y_lo - ra.y_hi)
        sep = math.isqrt(gx * gx + gy * gy)
        if sep < spacing:
            out.append((a.id, b.id, sep))
    return tuple(out)


def find_crossings_oracle(g) -> tuple:
    """Sorted pairs (i, j), i < j, of edges sharing no node whose closed
    segments intersect."""
    out = []
    for i, j in itertools.combinations(range(len(g.edges)), 2):
        e, f = g.edges[i], g.edges[j]
        if {e.u, e.v} & {f.u, f.v}:
            continue
        p, q = g.nodes[e.u].pos, g.nodes[e.v].pos
        r, s = g.nodes[f.u].pos, g.nodes[f.v].pos
        if segments_intersect_oracle(p, q, r, s):
            out.append((i, j))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the embedding's reference
# ---------------------------------------------------------------------------


def embed_oracle(g, removed) -> tuple:
    """(rotation, faces, dual edges) of the edges not in `removed`, traced
    over (tail node, edge id) half-edge keys.  Each node's surviving edges
    are sorted by a per-node direction comparison; the faces are walked from
    the sorted keys of a successor map; each kept edge k, in id order, gives
    the dual edge (k, face at e.u, face at e.v, weight, edge id)."""
    removed = set(removed)
    incident: dict[int, list[int]] = {}
    for e in g.edges:
        if e.id not in removed:
            incident.setdefault(e.u, []).append(e.id)
            incident.setdefault(e.v, []).append(e.id)
    rotation = {}
    for node_id in sorted(incident):
        x, y = g.nodes[node_id].pos
        direction = {}
        for eid in incident[node_id]:
            e = g.edges[eid]
            ox, oy = g.nodes[e.v if e.u == node_id else e.u].pos
            direction[eid] = (ox - x, oy - y)

        def cmp(e1, e2):
            return compare_directions(direction[e1], direction[e2])

        rotation[node_id] = tuple(sorted(incident[node_id], key=functools.cmp_to_key(cmp)))
    successor = {
        (v, eid): nxt for v, rot in rotation.items() for eid, nxt in zip(rot, rot[1:] + rot[:1])
    }
    faces: list[tuple] = []
    face_of: dict[tuple[int, int], int] = {}
    for start in sorted(successor):
        if start in face_of:
            continue
        walk = []
        cur = start
        while True:
            assert cur not in face_of, "face walk re-entered a closed face"
            face_of[cur] = len(faces)
            walk.append(cur)
            tail, eid = cur
            e = g.edges[eid]
            head = e.v if e.u == tail else e.u
            cur = (head, successor[(head, eid)])
            if cur == start:
                break
        faces.append(tuple(walk))
    kept = [e for e in g.edges if e.id not in removed]
    dual = [
        (k, face_of[(e.u, e.id)], face_of[(e.v, e.id)], e.weight, e.id)
        for k, e in enumerate(kept)
    ]
    return rotation, tuple(faces), dual


def line_span_oracle(a, b):
    """The gcd form of conflict_graph._line_span: the line through a and b
    keyed by its primitive direction and offset, and the span a and b cover
    on it; None when a == b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if not (dx or dy):
        return None
    step = math.gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        step = -step
    dx, dy = dx // step, dy // step
    ta, tb = dx * a[0] + dy * a[1], dx * b[0] + dy * b[1]
    return (dx, dy, dx * a[1] - dy * a[0]), min(ta, tb), max(ta, tb)


def is_degenerate_oracle(node_id, pos, ends) -> bool:
    """The node shares its position with any other node, or one of its edges
    overlaps any other edge along a collinear stretch; whole-graph scan of
    the drawing's node positions and edge ends (edge e joins ends[2e] and
    ends[2e+1])."""
    if any(other != node_id and p == pos[node_id] for other, p in enumerate(pos)):
        return True
    segments = [(pos[u], pos[v]) for u, v in zip(ends[::2], ends[1::2])]
    for eid, (p, q) in enumerate(segments):
        if node_id not in ends[2 * eid:2 * eid + 2]:
            continue
        for fid, (r, s) in enumerate(segments):
            if fid != eid and collinear_overlap_oracle(p, q, r, s):
                return True
    return False


# ---------------------------------------------------------------------------
# the record-based conflict graph builder and crossing removal
# ---------------------------------------------------------------------------


def graph_from_records(nodes, edges, perturbed_nodes=()):
    """The column graph of these PcgNode and PcgEdge records, record k
    carrying id k: how tests build a graph by hand."""
    assert all(r.id == k for records in (nodes, edges) for k, r in enumerate(records))
    return PhaseConflictGraph(
        tuple(n.pos for n in nodes),
        tuple(n.kind for n in nodes),
        tuple(n.perturb for n in nodes),
        tuple(end for e in edges for end in (e.u, e.v)),
        tuple(e.weight for e in edges),
        tuple(0 if e.is_equal_constraint else 1 for e in edges),
        tuple(e.shifter_pair for e in edges),
        tuple(e.required_separation for e in edges),
        tuple(perturbed_nodes),
    )


def build_conflict_graph_oracle(shifters, overlap_pairs, rules, weight_mode=WEIGHT_UNIFORM):
    """The builder the column graph replaced: one PcgNode and PcgEdge record
    per node and edge, nudged with `_replace` by `_perturb_records`, handed
    to `graph_from_records`.  It shares only `_line_span` and
    `_perturb_deltas` with the package."""
    if weight_mode not in (WEIGHT_UNIFORM, WEIGHT_SEPARATION):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    ordered = sorted(shifters, key=lambda s: s.id)
    node_of_shifter = {}
    nodes, by_feature = [], {}
    for nid, s in enumerate(ordered):
        r = s.rect
        node_of_shifter[s.id] = nid
        nodes.append(PcgNode(nid, NODE_EDGE_SHIFTER, 2 * (r.x_lo + r.x_hi), 2 * (r.y_lo + r.y_hi)))
        by_feature.setdefault(s.feature_id, []).append(nid)
    edges = []
    for fid in sorted(by_feature):
        pair = by_feature[fid]
        if len(pair) != 2:
            raise LayoutValidationError(f"feature {fid} has {len(pair)} shifters, expected 2")
        u, v = pair
        shifter_pair = (ordered[u].id, ordered[v].id)
        edges.append(PcgEdge(len(edges), u, v, FEATURE_EDGE_WEIGHT, EDGE_FEATURE, shifter_pair))
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
        nodes.append(PcgNode(onid, NODE_OVERLAP, (u.x + v.x) // 2, (u.y + v.y) // 2))
        weight = 1 if weight_mode == WEIGHT_UNIFORM else required
        for a, b in ((u.id, onid), (onid, v.id)):
            edges.append(PcgEdge(len(edges), a, b, weight, EDGE_OVERLAP_HALF, (s1, s2), required))
    nodes, perturbed = _perturb_records(nodes, edges)
    return graph_from_records(nodes, edges, perturbed)


def _perturb_records(nodes, edges):
    """(nodes, perturbed ids): concentric shifter nodes separated, then the
    flagged overlap nodes nudged in id order to the first delta where they
    are not degenerate, against a position Counter and a line index kept
    current as they move."""
    held = set()
    for node in nodes:
        if node.kind != NODE_EDGE_SHIFTER:
            continue
        if node.pos in held:
            dx, dy = next(
                (d for d in _perturb_deltas() if (node.x + d[0], node.y + d[1]) not in held),
                (None, None),
            )
            if dx is None:
                raise InternalInvariantError(f"cannot separate concentric shifter node {node.id}")
            node = nodes[node.id] = node._replace(x=node.x + dx, y=node.y + dy, perturb=(dx, dy))
        held.add(node.pos)

    flagged = _degenerate_records(nodes, edges)
    if not flagged:
        return nodes, []
    incident = {nid: [] for nid in flagged}
    for e in edges:
        for end in (e.u, e.v):
            if end in incident:
                incident[end].append(e.id)
    at = Counter(n.pos for n in nodes)
    lines = defaultdict(dict)
    for e in edges:
        _file_edge_record(lines, nodes, e, filed=True)

    def move(nid, dx, dy):
        node = nodes[nid]
        for eid in incident[nid]:
            _file_edge_record(lines, nodes, edges[eid], filed=False)
        at[node.pos] -= 1
        base_x, base_y = node.x - node.perturb[0], node.y - node.perturb[1]
        nodes[nid] = node = node._replace(x=base_x + dx, y=base_y + dy, perturb=(dx, dy))
        at[node.pos] += 1
        for eid in incident[nid]:
            _file_edge_record(lines, nodes, edges[eid], filed=True)

    def degenerate(nid):
        if at[nodes[nid].pos] > 1:
            return True
        for eid in incident[nid]:
            e = edges[eid]
            span = _line_span(nodes[e.u].pos, nodes[e.v].pos)
            if span is None:
                continue
            key, lo, hi = span
            for fid, (f_lo, f_hi) in lines[key].items():
                if fid != eid and max(lo, f_lo) < min(hi, f_hi):
                    return True
        return False

    perturbed = []
    for nid in flagged:
        if not degenerate(nid):
            continue
        for dx, dy in _perturb_deltas():
            move(nid, dx, dy)
            if not degenerate(nid):
                break
        else:
            raise InternalInvariantError(f"cannot resolve degenerate overlap node {nid}")
        perturbed.append(nid)
    if _degenerate_records(nodes, edges):
        raise InternalInvariantError("overlap node still degenerate after perturbation")
    return nodes, perturbed


def _file_edge_record(lines, nodes, e, filed):
    span = _line_span(nodes[e.u].pos, nodes[e.v].pos)
    if span is None:
        return
    key, lo, hi = span
    if filed:
        lines[key][e.id] = (lo, hi)
    else:
        del lines[key][e.id]


def _degenerate_records(nodes, edges):
    """The overlap nodes at a shared position or on an edge that overlaps
    another along its line, in id order, by one sweep per line."""
    count = Counter(n.pos for n in nodes)
    is_overlap = [n.kind == NODE_OVERLAP for n in nodes]
    flagged = {n.id for n in nodes if is_overlap[n.id] and count[n.pos] > 1}
    lines = defaultdict(list)
    for e in edges:
        span = _line_span(nodes[e.u].pos, nodes[e.v].pos)
        if span is not None:
            key, lo, hi = span
            lines[key].append((lo, hi, e.id))
    for group in lines.values():
        group.sort()
        reach = group[0][0]
        for k, (lo, hi, eid) in enumerate(group):
            if lo < reach or (k + 1 < len(group) and group[k + 1][0] < hi):
                e = edges[eid]
                flagged.update(end for end in (e.u, e.v) if is_overlap[end])
            reach = max(reach, hi)
    return sorted(flagged)


def remove_crossings_oracle(g) -> tuple[int, ...]:
    """The crossing removal the incremental one replaced: while a crossing
    remains, recount every edge's crossings and delete the minimum of
    (weight, -count, id); returns the sorted deleted ids."""
    crossings = list(find_crossings(g))
    removed = []
    while crossings:
        count = Counter()
        for a, b in crossings:
            count[a] += 1
            count[b] += 1
        victim = min(count, key=lambda eid: (g.edges[eid].weight, -count[eid], eid))
        removed.append(victim)
        crossings = [c for c in crossings if victim not in c]
    return tuple(sorted(removed))


# ---------------------------------------------------------------------------
# correction planning
# ---------------------------------------------------------------------------


def widening_cut_blocked_oracle(axis: str, coord: int, critical) -> bool:
    """Scan every critical feature: a cut at x = coord (axis "v") or
    y = coord (axis "h") is blocked when it runs along a feature's long axis
    (squares count as vertical) strictly inside its short axis."""
    for feat in critical:
        vertical = feat.y_hi - feat.y_lo >= feat.x_hi - feat.x_lo
        if axis == "v" and vertical and feat.x_lo < coord < feat.x_hi:
            return True
        if axis == "h" and not vertical and feat.y_lo < coord < feat.y_hi:
            return True
    return False


def candidate_coverage_oracle(intervals, keys) -> dict:
    """Scan every interval per (axis, coord) key: the conflict keys of the
    intervals on that axis with lo <= coord <= hi, and the widest
    width_needed among them (0 when none)."""
    out = {}
    for key in sorted(keys):
        axis, coord = key
        covered = set()
        weight = 0
        for iv in intervals:
            if iv.axis == axis and iv.lo <= coord <= iv.hi:
                covered.add(iv.conflict_key)
                weight = max(weight, iv.width_needed)
        out[key] = (frozenset(covered), weight)
    return out


def apply_spaces_oracle(layout, cuts) -> list:
    """Insert the cuts one at a time, per axis in descending coordinate
    order, visiting every rect for each: a rect with lo >= c shifts by the
    width, one with lo < c < hi stretches.  Returns the new boxes
    (x_lo, y_lo, x_hi, y_hi) in rect order; raises ValueError when a cut
    changes the orientation (squares count as vertical) or the short
    dimension of a critical feature (a "poly" rect whose short dimension is
    below the critical width)."""

    def short_axis(box):
        width, height = box[2] - box[0], box[3] - box[1]
        return height >= width, min(width, height)

    boxes = [[r.x_lo, r.y_lo, r.x_hi, r.y_hi] for r in layout.rects]
    critical = [
        r.layer == "poly" and min(r.x_hi - r.x_lo, r.y_hi - r.y_lo) < layout.rules.critical_width
        for r in layout.rects
    ]
    for cut in sorted(cuts, key=lambda c: (c.axis, -c.coord)):
        lo_i, hi_i = (0, 2) if cut.axis == "v" else (1, 3)
        for box, is_critical in zip(boxes, critical):
            before = short_axis(box)
            if box[lo_i] >= cut.coord:
                box[lo_i] += cut.width
                box[hi_i] += cut.width
            elif box[hi_i] > cut.coord:
                box[hi_i] += cut.width
            if is_critical and short_axis(box) != before:
                raise ValueError(f"cut {cut.axis}@{cut.coord} widens a critical feature")
    return [tuple(box) for box in boxes]


# ---------------------------------------------------------------------------
# phase assignment by parity union-find
# ---------------------------------------------------------------------------


def phase_assign_oracle(g, deleted_edge_ids=()) -> dict[int, int] | None:
    """Phases of the graph minus the deleted edges, read off a parity
    union-find over the kept edges, with the lowest node id of each component
    at PHASE_A; None when a kept edge contradicts the ones before it."""
    deleted = set(deleted_edge_ids)
    uf = ParityUnionFind()
    for n in g.nodes:
        uf.add(n.id)
    for e in g.edges:
        relation = 0 if e.is_equal_constraint else 1
        if e.id not in deleted and not uf.union(e.u, e.v, relation):
            return None
    anchor_parity: dict[int, int] = {}
    phases = {}
    for n in sorted(g.nodes, key=lambda n: n.id):
        root, parity = uf.find(n.id)
        anchor_parity.setdefault(root, parity)  # first (lowest) node of the component
        phases[n.id] = PHASE_A if parity == anchor_parity[root] else PHASE_B
    return phases


def finalize_oracle(g, planarization_removed, bipartization_set):
    """The casualty re-check `finalize_conflicts` replaced: one parity
    union-find over every node, fed every survivor (the edges outside P and
    M) and then the casualties in edge-id order; the casualties that
    contradict the edges before them are conflicts.  Returns ({edge id:
    origin} in id order, the phases of the graph without the conflicts);
    raises ValueError when a survivor contradicts."""
    m_set, p_set = set(bipartization_set), set(planarization_removed)
    survivors = [e.id for e in g.edges if e.id not in m_set and e.id not in p_set]
    _, contradicted = signed_forest(g, survivors + sorted(p_set))
    if not p_set.issuperset(contradicted):
        raise ValueError("surviving embedded graph is not balanced")
    origin = dict.fromkeys(m_set, ORIGIN_MATCHING)
    origin.update(dict.fromkeys(contradicted, ORIGIN_PLANARIZATION))
    return dict(sorted(origin.items())), phase_assign_oracle(g, origin)


# ---------------------------------------------------------------------------
# graph enumeration oracles
# ---------------------------------------------------------------------------


def min_bipartization_weight(n_nodes: int, edges) -> int:
    """Exact minimum weight of edges to delete so the rest is balanced.

    edges: (u, v, weight, want_equal).  Enumerates all 2^n colorings with
    vectorized bit tricks: deleting exactly the edges a coloring violates is
    optimal for that coloring, so the global optimum is the cheapest coloring.
    """
    if n_nodes == 0 or not edges:
        return 0
    assert n_nodes <= 22, "oracle limited to 2^22 colorings"
    colorings = np.arange(1 << n_nodes, dtype=np.int64)
    total = np.zeros(1 << n_nodes, dtype=np.int64)
    for u, v, w, want_equal in edges:
        differ = ((colorings >> u) ^ (colorings >> v)) & 1
        violated = differ == (1 if want_equal else 0)
        total += violated * int(w)
    return int(total.min())


def exact_bipartization(g) -> tuple[tuple[int, ...], int]:
    """(sorted edge ids, weight) of a minimum-weight edge set whose deletion
    balances the whole conflict graph, crossings and all.

    A 0/1 MILP solved by scipy's HiGHS with no optimality gap: a phase x per
    node and a deletion y per edge.  An equal-phase edge needs
    y >= x_u - x_v and y >= x_v - x_u; an opposite-phase edge needs
    y >= 1 - x_u - x_v and y >= x_u + x_v - 1; the objective is sum w * y.
    The set is the edges the optimal phases violate, certified balanced by
    `phase_assign`.
    """
    n, m = len(g.nodes), len(g.edges)
    if m == 0:
        return (), 0
    rows, cols, vals, lower = [], [], [], []
    for e in g.edges:
        signs = ((-1, 1, 0), (1, -1, 0)) if e.is_equal_constraint else ((1, 1, 1), (-1, -1, -1))
        for su, sv, lo in signs:  # y + su * x_u + sv * x_v >= lo
            r = len(lower)
            rows += [r, r, r]
            cols += [n + e.id, e.u, e.v]
            vals += [1, su, sv]
            lower.append(lo)
    cost = np.concatenate([np.zeros(n), [e.weight for e in g.edges]])
    rows_matrix = csr_array((vals, (rows, cols)), shape=(len(lower), n + m))
    res = milp(
        cost,
        constraints=LinearConstraint(rows_matrix, lower, np.inf),
        integrality=np.ones(n + m),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    phase = [round(x) for x in res.x[:n]]
    deleted = tuple(
        e.id for e in g.edges if (phase[e.u] == phase[e.v]) != e.is_equal_constraint
    )
    weight = sum(g.edges[eid].weight for eid in deleted)
    assert weight == round(res.fun), (weight, res.fun)
    phase_assign(g, frozenset(deleted))  # raises unless the rest is balanced
    return deleted, weight


def phase_feasible(n_shifters: int, constraints) -> bool:
    """Exhaustive 0/180 assignment check.

    constraints: (shifter_a, shifter_b, want_equal).
    """
    if n_shifters == 0:
        return True
    assert n_shifters <= 22
    masks = np.arange(1 << n_shifters, dtype=np.int64)
    ok = np.ones(1 << n_shifters, dtype=bool)
    for a, b, want_equal in constraints:
        differ = (((masks >> a) ^ (masks >> b)) & 1).astype(bool)
        ok &= ~differ if want_equal else differ
    return bool(ok.any())


def min_perfect_matching_weight(nodes, edges) -> int | None:
    """Exhaustive minimum-weight perfect matching; None when none exists.

    edges: (u, v, w); parallel edges fine.
    """
    nodes = sorted(nodes)
    if len(nodes) % 2:
        return None
    best_w = {}
    for u, v, w in edges:
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in best_w or w < best_w[key]:
            best_w[key] = w

    best = None

    def rec(remaining: tuple, acc: int):
        nonlocal best
        if best is not None and acc >= best:
            return
        if not remaining:
            best = acc if best is None else min(best, acc)
            return
        first = remaining[0]
        rest = remaining[1:]
        for idx, partner in enumerate(rest):
            key = (first, partner)
            if key in best_w:
                rec(rest[:idx] + rest[idx + 1 :], acc + best_w[key])

    rec(tuple(nodes), 0)
    return best


def min_tjoin_weight(nodes, edges, t_set) -> int | None:
    """Exhaustive minimum-weight T-join; edges (u, v, w), parallel fine."""
    nodes = sorted(nodes)
    index = {n: i for i, n in enumerate(nodes)}
    m = len(edges)
    best = None
    for mask in range(1 << m):
        deg = [0] * len(nodes)
        weight = 0
        for k in range(m):
            if mask >> k & 1:
                u, v, w = edges[k]
                deg[index[u]] ^= 1
                deg[index[v]] ^= 1
                weight += w
        if best is not None and weight >= best:
            continue
        if all((deg[index[n]] == 1) == (n in t_set) for n in nodes):
            best = weight
    return best


def gadget_tjoin(inst, build) -> tuple[list[int], int]:
    """(join, weight) of one connected instance from gadget matching: the
    gadget graph `build` makes from `assign_edges`, matched by the package's
    matcher, and the join read off the matched connectors."""
    gg = build(inst, assign_edges(inst))
    pairs, match_weight = min_weight_perfect_matching(
        [n.id for n in gg.nodes], gg.edges
    )
    mate: dict[int, int] = {}
    for a, b in pairs:
        mate[a] = b
        mate[b] = a
    join = extract_join(gg, mate)

    weight_by_id = {e.id: e.weight for e in inst.edges}
    total = sum(weight_by_id[eid] for eid in join)
    if total != match_weight:
        raise InternalInvariantError(
            f"join weight {total} != matching weight {match_weight}"
        )
    return join, total


def extract_join(gg, mate: dict[int, int]) -> list[int]:
    """Edge ids in the join: dummy matched to the true slot (its ghost was
    absorbed in a gadget), or a direct both-endpoint connector matched."""
    join = []
    for eid in sorted(gg.connectors):
        info = gg.connectors[eid]
        if info[0] == "dummy":
            _, dummy, true_id, _ghost = info
            if mate[dummy] == true_id:
                join.append(eid)
        else:
            _, t1, t2 = info
            if mate[t1] == t2:
                join.append(eid)
    return join


def unsplit_tjoin_weight(inst, mode) -> int:
    """Minimum T-join weight from one gadget matching over the whole instance.

    Gadgets come from the package's builders; the matching is networkx blossom
    on the negated weights, without splitting the instance into components.
    """
    if not inst.t_nodes:
        return 0
    build = (
        build_generalized_gadget_graph
        if mode == MODE_GENERALIZED
        else build_optimized_gadget_graph
    )
    gg = build(inst, assign_edges(inst))
    cheapest: dict[tuple[int, int], int] = {}
    for u, v, w in gg.edges:
        key = (min(u, v), max(u, v))
        cheapest[key] = min(w, cheapest.get(key, w))
    graph = nx.Graph()
    graph.add_nodes_from(range(len(gg.nodes)))
    for (u, v), w in cheapest.items():
        graph.add_edge(u, v, weight=-w)
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    assert 2 * len(mate) == len(gg.nodes), "gadget graph has no perfect matching"
    return sum(cheapest[(min(u, v), max(u, v))] for u, v in mate)


def min_set_cover_weight(universe, candidate_sets) -> int | None:
    """Exhaustive weighted set cover; candidate_sets: (elements, weight)."""
    universe = frozenset(universe)
    if not universe:
        return 0
    best = None
    m = len(candidate_sets)
    for mask in range(1 << m):
        covered = set()
        weight = 0
        for k in range(m):
            if mask >> k & 1:
                covered |= candidate_sets[k][0]
                weight += candidate_sets[k][1]
        if covered >= universe and (best is None or weight < best):
            best = weight
    return best


def min_crossing_removal_weight(edge_weights: dict, crossing_pairs) -> int:
    """Minimum-weight edge subset meeting every crossing pair (vertex cover on
    the crossing graph), by exhaustive subsets of the involved edges."""
    involved = sorted({e for pair in crossing_pairs for e in pair})
    best = None
    for r in range(len(involved) + 1):
        for combo in itertools.combinations(involved, r):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in crossing_pairs):
                w = sum(edge_weights[e] for e in chosen)
                if best is None or w < best:
                    best = w
        # subsets are tried smallest-first; with unit weights we could stop
        # early, but weights vary so the full sweep stays.
    return 0 if best is None else best


def two_coloring_feasible(n_nodes: int, edges) -> bool:
    """Plain structural bipartiteness via coloring enumeration."""
    if n_nodes == 0:
        return True
    for mask in range(1 << n_nodes):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in edges):
            return True
    return False
