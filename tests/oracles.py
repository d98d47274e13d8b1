"""Independent brute-force oracles the implementation is checked against.

Everything here recomputes results from first principles: rational-arithmetic
segment intersection, the symbolically perturbed orientation expanded as a
polynomial (`orient_sos_oracle`), exhaustive coloring / subset / matching
enumeration.  None of it shares a code path with the package under test, except the
routines a faster one replaced, kept as its references: the gadget
matchings of the T-join solve (`gadget_tjoin` on one connected instance,
reading the join off the connectors with `extract_join`, and
`unsplit_tjoin_weight` over a whole instance without splitting it into
components), the parity union-find phases of the signed two-coloring
(`phase_assign_oracle`), the casualty re-check as one parity union-find
over every node (`finalize_oracle`, through the package's `signed_forest`),
the embedding traced over half-edge keys (`embed_oracle`), the
record-based conflict graph builder (`build_conflict_graph_oracle`; its
`graph_from_records` also builds the hand-made graphs), and crossing
removal by recounting every round (`remove_crossings_oracle`, over the
package's `find_crossings`).  The one
solver-backed oracle, `exact_bipartization`, certifies its answer with the
package's `phase_assign`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
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
    phase_assign,
    signed_forest,
)
from aapsm.errors import InternalInvariantError, LayoutValidationError
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
# simulation of simplicity (polynomials in the perturbation's epsilon)
# ---------------------------------------------------------------------------


def _poly_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) - c
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, c in p.items():
        for b, d in q.items():
            out[a + b] = out.get(a + b, 0) + c * d
    return out


def _poly_sign(p: dict) -> int:
    """The sign of a polynomial in e, {exponent: coefficient}, as e -> 0+:
    that of its lowest-order non-zero coefficient."""
    for k in sorted(p):
        if p[k]:
            return 1 if p[k] > 0 else -1
    return 0


def perturbed_point(pos, m) -> tuple[dict, dict]:
    """Node m at (x_m + e^(2^(2m+1)), y_m + e^(2^(2m+2))), as polynomials."""
    x, y = pos[m]
    return {0: x, 2 ** (2 * m + 1): 1}, {0: y, 2 ** (2 * m + 2): 1}


def _perturbed_cross(pos, i, j, k) -> dict:
    """(p_j - p_i) x (p_k - p_i) of the perturbed points, as a polynomial."""
    (ax, ay), (bx, by), (cx, cy) = (perturbed_point(pos, m) for m in (i, j, k))
    return _poly_sub(
        _poly_mul(_poly_sub(bx, ax), _poly_sub(cy, ay)),
        _poly_mul(_poly_sub(by, ay), _poly_sub(cx, ax)),
    )


def orient_sos_oracle(pos, i, j, k) -> int:
    """The sign of the perturbed orientation determinant, expanded in full
    as a polynomial in e; shares nothing with `geometry.orient_sos`."""
    return _poly_sign(_perturbed_cross(pos, i, j, k))


def segments_cross_oracle(pos, a, b, c, d) -> bool:
    """The perturbed segments ab and cd (four distinct ids) cross: each
    separates the other's ends."""
    return (
        orient_sos_oracle(pos, a, b, c) != orient_sos_oracle(pos, a, b, d)
        and orient_sos_oracle(pos, c, d, a) != orient_sos_oracle(pos, c, d, b)
    )


def perturbed_angular_order(pos, node, far_ends) -> list:
    """The ids in `far_ends` sorted by the angle, counterclockwise from +x,
    at which the perturbed `node` sees them: the half-plane of each
    direction polynomial, then the sign of the cross product."""
    x0, y0 = perturbed_point(pos, node)

    def half(m):
        x1, y1 = perturbed_point(pos, m)
        dx, dy = _poly_sign(_poly_sub(x1, x0)), _poly_sign(_poly_sub(y1, y0))
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(a, b):
        if half(a) != half(b):
            return -1 if half(a) < half(b) else 1
        return -_poly_sign(_perturbed_cross(pos, node, a, b))

    return sorted(far_ends, key=functools.cmp_to_key(cmp))


def cyclic_form(order) -> tuple:
    """A cyclic order written from its lowest element."""
    k = order.index(min(order))
    return tuple(order[k:]) + tuple(order[:k])


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
    """Sorted pairs (i, j), i < j, of edges sharing no node that cross once
    the nodes are perturbed (`segments_cross_oracle`); segments whose closed
    bounding boxes are apart cannot, so only the others are tested."""
    pos = g.positions
    boxes = []
    for e in g.edges:
        (ax, ay), (bx, by) = pos[e.u], pos[e.v]
        boxes.append((min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)))
    out = []
    for i, j in itertools.combinations(range(len(g.edges)), 2):
        e, f = g.edges[i], g.edges[j]
        a, b = boxes[i], boxes[j]
        if a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]:
            continue
        if {e.u, e.v} & {f.u, f.v}:
            continue
        if segments_cross_oracle(pos, e.u, e.v, f.u, f.v):
            out.append((i, j))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the embedding's reference
# ---------------------------------------------------------------------------


def embed_oracle(g, removed) -> tuple:
    """(rotation, faces, dual edges) of the edges not in `removed`, traced
    over (tail node, edge id) half-edge keys.  Each node's surviving edges
    are sorted by the angle of their far ends at the node in the perturbed
    drawing (`perturbed_angular_order`), so a graph with two edges between
    one pair of nodes is out of its scope; the faces are walked from
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
        far = {}
        for eid in incident[node_id]:
            e = g.edges[eid]
            far[e.v if e.u == node_id else e.u] = eid
        order = perturbed_angular_order(g.positions, node_id, list(far))
        rotation[node_id] = tuple(far[m] for m in order)
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


# ---------------------------------------------------------------------------
# the record-based conflict graph builder and crossing removal
# ---------------------------------------------------------------------------


def graph_from_records(nodes, edges):
    """The column graph of these PcgNode and PcgEdge records, record k
    carrying id k: how tests build a graph by hand."""
    assert all(r.id == k for records in (nodes, edges) for k, r in enumerate(records))
    return PhaseConflictGraph(
        tuple(n.pos for n in nodes),
        tuple(n.kind for n in nodes),
        tuple(end for e in edges for end in (e.u, e.v)),
        tuple(e.weight for e in edges),
        tuple(0 if e.is_equal_constraint else 1 for e in edges),
        tuple(e.shifter_pair for e in edges),
        tuple(e.required_separation for e in edges),
    )


def build_conflict_graph_oracle(shifters, overlap_pairs, rules, weight_mode=WEIGHT_UNIFORM):
    """The builder the column graph replaced: one PcgNode and PcgEdge record
    per node and edge, handed to `graph_from_records`."""
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
    return graph_from_records(nodes, edges)


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
