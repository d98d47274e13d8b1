"""Layout correction: choose end-to-end spaces via weighted set cover and
apply the geometry surgery.

A vertical space is a full-height band inserted at a vertical cut line x = c
with some width B: every rect entirely right of the line shifts by B, every
rect straddling it stretches by B.  Horizontal spaces are symmetric in y.
Feature widths never change because a cut that would widen a critical feature
is rejected at planning time and a hard error at apply time.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace

from .bipartize import Conflict, ConflictSet
from .errors import InternalInvariantError, LayoutValidationError
from .layout import (
    Layout,
    Rect,
    SIDE_LOW,
    Shifter,
    axis_gaps,
    find_critical_features,
)
from .setcover import CoverCandidate, exact_cover, greedy_cover

AXIS_VERTICAL = "v"  # vertical space: cut line x = c, widens the layout in x
AXIS_HORIZONTAL = "h"  # horizontal space: cut line y = c, widens in y


@dataclass(frozen=True)
class CorrectionInterval:
    """One way to correct one conflict: any cut with coordinate in the closed
    range [lo, hi] on this axis, widened by width_needed, separates the pair."""

    conflict_key: tuple[int, int]  # shifter id pair
    axis: str
    lo: int
    hi: int
    width_needed: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InternalInvariantError("empty correction interval")
        if self.width_needed <= 0:
            raise InternalInvariantError("non-positive width_needed")


@dataclass(frozen=True)
class Cut:
    axis: str
    coord: int
    width: int
    covered: tuple[tuple[int, int], ...]  # conflict keys


@dataclass(frozen=True)
class SpacePlan:
    cuts: tuple[Cut, ...]
    uncovered: tuple[tuple[int, int], ...]
    greedy_cut_count: int
    exact_cut_count: int | None  # None when the exact solver did not run
    used_exact: bool
    greedy_total_width: int = 0
    exact_total_width: int | None = None

    @property
    def total_width(self) -> int:
        return sum(c.width for c in self.cuts)


def _ceil_sqrt(value: int) -> int:
    if value <= 0:
        return 0
    r = math.isqrt(value - 1)
    return r + 1


def _width_for_axis(gap_this: int, gap_other: int, spacing: int) -> int:
    """Widening of this axis' gap so the pair separation reaches spacing.

    With the other axis closed (gap 0) this is simply spacing - gap; diagonal
    pairs need the full hypotenuse to clear, so the deficit is computed against
    sqrt(spacing^2 - gap_other^2) exactly.
    """
    if gap_other >= spacing:
        return 0
    return max(0, _ceil_sqrt(spacing * spacing - gap_other * gap_other) - gap_this)


def _edge_anchors(shifter: Shifter, feature: Rect | None, axis: str):
    """Feature edges generating the shifter's lo/hi edges on the cut axis.

    Shifters are regenerated from features after surgery, so a shifter edge
    moves exactly when its generating feature edge does: an x_lo/y_lo anchor
    at t moves under a cut at c iff c <= t, an x_hi/y_hi anchor iff c < t.
    Without a known feature (free-standing test rects) the shifter's own
    edges are their own anchors.
    """
    r = shifter.rect
    if feature is None:
        if axis == AXIS_VERTICAL:
            return ("lo", r.x_lo), ("hi", r.x_hi)
        return ("lo", r.y_lo), ("hi", r.y_hi)
    if axis == AXIS_VERTICAL:
        if feature.is_vertical:
            a = ("lo", feature.x_lo) if shifter.side == SIDE_LOW else ("hi", feature.x_hi)
            return a, a
        return ("lo", feature.x_lo), ("hi", feature.x_hi)
    if feature.is_vertical:
        return ("lo", feature.y_lo), ("hi", feature.y_hi)
    a = ("lo", feature.y_lo) if shifter.side == SIDE_LOW else ("hi", feature.y_hi)
    return a, a


def _anchored_interval(sl, sr, feat_l, feat_r, axis, gap_lo, gap_hi):
    """Clip the open shifter gap to cut coordinates that actually separate
    the pair once shifters are regenerated: the left party's gap edge must
    stay put and the right party's must move."""
    _, left_hi_anchor = _edge_anchors(sl, feat_l, axis)
    right_lo_anchor, _ = _edge_anchors(sr, feat_r, axis)
    kind, t = left_hi_anchor
    lo_bound = t + 1 if kind == "lo" else t  # NOT-move condition
    kind, t = right_lo_anchor
    hi_bound = t if kind == "lo" else t - 1  # move condition
    return max(gap_lo, lo_bound), min(gap_hi, hi_bound)


def compute_intervals(
    layout: Layout, shifters: tuple[Shifter, ...], conflicts: ConflictSet
) -> tuple[tuple[CorrectionInterval, ...], tuple[Conflict, ...]]:
    """Correction intervals per conflict, plus the conflicts no space can fix.

    Feature-edge conflicts would need feature widening and are always routed
    to the uncovered list.  Overlap conflicts are deduplicated per shifter
    pair (both halves of one overlap name the same pair).  A vertical interval
    needs a non-empty open x-gap between the two rects AND cut coordinates
    under which the two generating features part ways (shifters regenerate
    from features, so a pair whose features sit on one side of every gap
    coordinate would ride along unseparated); horizontal likewise for y.
    """
    by_id = {s.id: s for s in shifters}
    features = {f.id: f for f in layout.features}
    spacing = layout.rules.min_shifter_spacing
    intervals: list[CorrectionInterval] = []
    uncovered: list[Conflict] = []
    seen: set[tuple[int, int]] = set()
    for c in conflicts.conflicts:
        if c.required_separation is None:
            uncovered.append(c)  # feature edge: needs widening, out of scope
            continue
        key = c.shifter_pair
        if key in seen:
            continue
        seen.add(key)
        s1 = by_id[key[0]]
        s2 = by_id[key[1]]
        r1, r2 = s1.rect, s2.rect
        gx, gy = axis_gaps(r1, r2)
        found = False

        gap_lo, gap_hi = min(r1.x_hi, r2.x_hi), max(r1.x_lo, r2.x_lo)
        if gap_lo < gap_hi:
            sl, sr = (s1, s2) if r1.x_hi <= r2.x_hi else (s2, s1)
            lo, hi = _anchored_interval(
                sl, sr,
                features.get(sl.feature_id), features.get(sr.feature_id),
                AXIS_VERTICAL, gap_lo, gap_hi,
            )
            width = _width_for_axis(gx, gy, spacing)
            if lo <= hi and width > 0:
                intervals.append(CorrectionInterval(key, AXIS_VERTICAL, lo, hi, width))
                found = True

        gap_lo, gap_hi = min(r1.y_hi, r2.y_hi), max(r1.y_lo, r2.y_lo)
        if gap_lo < gap_hi:
            sl, sr = (s1, s2) if r1.y_hi <= r2.y_hi else (s2, s1)
            lo, hi = _anchored_interval(
                sl, sr,
                features.get(sl.feature_id), features.get(sr.feature_id),
                AXIS_HORIZONTAL, gap_lo, gap_hi,
            )
            width = _width_for_axis(gy, gx, spacing)
            if lo <= hi and width > 0:
                intervals.append(CorrectionInterval(key, AXIS_HORIZONTAL, lo, hi, width))
                found = True

        if not found:
            uncovered.append(c)
    return tuple(intervals), tuple(uncovered)


def _widening_blocker(critical: tuple[Rect, ...]):
    """Return blocked(axis, coord): does a cut line there widen a critical
    feature?  It does when it is parallel to the feature's long axis and
    passes through its interior, lo < coord < hi across the short axis.

    Per axis the spans are sorted by lo with a running max of hi, so a query
    bisects to the spans with lo < coord and compares their largest hi.
    """
    spans: dict[str, list[tuple[int, int]]] = {AXIS_VERTICAL: [], AXIS_HORIZONTAL: []}
    for feat in critical:
        if feat.is_vertical:
            spans[AXIS_VERTICAL].append((feat.x_lo, feat.x_hi))
        else:
            spans[AXIS_HORIZONTAL].append((feat.y_lo, feat.y_hi))
    index = {}
    for axis, axis_spans in spans.items():
        axis_spans.sort()
        index[axis] = (
            [lo for lo, _ in axis_spans],
            list(itertools.accumulate((hi for _, hi in axis_spans), max)),
        )

    def blocked(axis: str, coord: int) -> bool:
        los, reach = index[axis]
        k = bisect.bisect_left(los, coord)
        return k > 0 and reach[k - 1] > coord

    return blocked


def _cover_candidates(
    intervals: tuple[CorrectionInterval, ...], keys
) -> dict[tuple[str, int], CoverCandidate]:
    """The conflicts each (axis, coord) key covers, weighted by the widest
    width_needed among the intervals containing coord, keyed in sorted order.

    Per axis, a sweep over the coordinates in ascending order keeps the
    active intervals (lo <= coord <= hi): intervals enter in lo order and
    leave once hi < coord, so the work is bounded by the sorts plus the
    covered elements.
    """
    by_key: dict[tuple[str, int], CoverCandidate] = {}
    for axis in sorted({axis for axis, _ in keys}):
        pending = sorted((iv for iv in intervals if iv.axis == axis), key=lambda iv: iv.lo)
        active: list[CorrectionInterval] = []
        entered = 0
        for coord in sorted(coord for a, coord in keys if a == axis):
            while entered < len(pending) and pending[entered].lo <= coord:
                active.append(pending[entered])
                entered += 1
            active = [iv for iv in active if iv.hi >= coord]
            by_key[axis, coord] = CoverCandidate(
                (axis, coord),
                frozenset(iv.conflict_key for iv in active),
                max((iv.width_needed for iv in active), default=0),
            )
    return by_key


def plan_spaces(
    intervals: tuple[CorrectionInterval, ...],
    critical_features: tuple[Rect, ...] = (),
    exact_limit: int = 20,
) -> SpacePlan:
    """Pick cut lines covering every conflict, minimizing inserted width.

    Candidate coordinates are the interval endpoints plus midpoints (endpoints
    sit on rect boundaries; the midpoint lands strictly inside the gap), minus
    any coordinate that would widen a critical feature.  Greedy weighted set
    cover runs always; with at most exact_limit candidates a branch-and-bound
    exact cover runs too and its plan is used when strictly better.
    """
    conflict_keys = sorted({iv.conflict_key for iv in intervals})
    blocked = _widening_blocker(critical_features)
    keys = {
        (iv.axis, coord)
        for iv in intervals
        for coord in (iv.lo, iv.hi, (iv.lo + iv.hi) // 2)
        if not blocked(iv.axis, coord)
    }

    # a candidate lies inside the interval that produced it, so it covers at
    # least that conflict
    by_key = _cover_candidates(intervals, keys)
    candidates = list(by_key.values())

    coverable = frozenset().union(*(c.elements for c in candidates))
    planned_universe = frozenset(k for k in conflict_keys if k in coverable)
    plan_uncovered = tuple(k for k in conflict_keys if k not in coverable)

    greedy_keys = greedy_cover(planned_universe, candidates) if planned_universe else []
    greedy_width = sum(by_key[k].weight for k in greedy_keys)
    chosen = greedy_keys
    exact_count = None
    exact_width = None
    used_exact = False
    if len(candidates) <= exact_limit and planned_universe:
        exact_keys = exact_cover(planned_universe, candidates)
        if exact_keys is not None:
            exact_count = len(exact_keys)
            exact_width = sum(by_key[k].weight for k in exact_keys)
            if exact_width < greedy_width or (
                exact_width == greedy_width and len(exact_keys) < len(greedy_keys)
            ):
                chosen = exact_keys
                used_exact = True

    cuts = tuple(
        Cut(*key, by_key[key].weight, tuple(sorted(by_key[key].elements)))
        for key in sorted(chosen)
    )
    return SpacePlan(
        cuts,
        plan_uncovered,
        len(greedy_keys),
        exact_count,
        used_exact,
        greedy_width,
        exact_width,
    )


@dataclass(frozen=True)
class AreaReport:
    old_area_nm2: int
    new_area_nm2: int
    inserted_x_nm: int
    inserted_y_nm: int

    @property
    def pct_increase(self) -> float:
        if self.old_area_nm2 == 0:
            return 0.0
        return 100.0 * (self.new_area_nm2 - self.old_area_nm2) / self.old_area_nm2


def _cut_rect(r: Rect, axis: str, coord: int, width: int) -> Rect:
    if axis == AXIS_VERTICAL:
        if r.x_lo >= coord:
            return replace(r, x_lo=r.x_lo + width, x_hi=r.x_hi + width)
        if r.x_hi > coord:
            return replace(r, x_hi=r.x_hi + width)
        return r
    if r.y_lo >= coord:
        return replace(r, y_lo=r.y_lo + width, y_hi=r.y_hi + width)
    if r.y_hi > coord:
        return replace(r, y_hi=r.y_hi + width)
    return r


def apply_spaces(
    layout: Layout, shifters: tuple[Shifter, ...], plan: SpacePlan
) -> tuple[Layout, AreaReport]:
    """Insert the planned spaces, returning the new layout and area report.

    Cuts are applied per axis in descending coordinate order so earlier
    insertions never move later cut lines.  A cut that would stretch a
    critical feature across its short axis is a hard error: the planner must
    have avoided it.
    """
    critical_ids = {f.id for f in find_critical_features(layout)}
    rects = list(layout.rects)
    ordered = sorted(plan.cuts, key=lambda c: (c.axis, -c.coord))
    for cut in ordered:
        for i, r in enumerate(rects):
            stretched = _cut_rect(r, cut.axis, cut.coord, cut.width)
            if (
                r.id in critical_ids
                and stretched is not r
                and stretched.short_dim != r.short_dim
            ):
                raise LayoutValidationError(
                    f"cut {cut.axis}@{cut.coord} would widen critical feature {r.id}"
                )
            rects[i] = stretched

    inserted_x = sum(c.width for c in plan.cuts if c.axis == AXIS_VERTICAL)
    inserted_y = sum(c.width for c in plan.cuts if c.axis == AXIS_HORIZONTAL)

    if layout.bbox is not None:
        # the declared outline is a container: it grows by the inserted
        # widths, so the area identity (W+Wx)*(H+Wy) holds by construction
        x1, y1, x2, y2 = layout.bbox
        old_area = (x2 - x1) * (y2 - y1)
        new_bbox = (x1, y1, x2 + inserted_x, y2 + inserted_y)
        new_area = (x2 - x1 + inserted_x) * (y2 - y1 + inserted_y)
        new_layout = Layout(tuple(rects), layout.rules, new_bbox)
        for r in new_layout.rects:
            if not (x1 <= r.x_lo and r.x_hi <= new_bbox[2] and y1 <= r.y_lo and r.y_hi <= new_bbox[3]):
                raise InternalInvariantError(
                    f"rect {r.id} escaped the grown bounding box"
                )
    else:
        # no declared outline: report tight boxes (cuts outside the hull move
        # everything and change nothing, so no arithmetic identity applies)
        def tight_area(lay: Layout) -> int:
            box = lay.bounding_box()
            if box is None:
                return 0
            bx1, by1, bx2, by2 = box
            return (bx2 - bx1) * (by2 - by1)

        old_area = tight_area(layout)
        new_layout = Layout(tuple(rects), layout.rules, None)
        new_area = tight_area(new_layout)
    return new_layout, AreaReport(old_area, new_area, inserted_x, inserted_y)


def dump_plan(plan: SpacePlan) -> str:
    lines = []
    for cut in plan.cuts:
        ids = ",".join(f"{a}-{b}" for a, b in cut.covered)
        lines.append(f"cut {cut.axis} {cut.coord} {cut.width} conflicts={ids}")
    for key in plan.uncovered:
        lines.append(f"uncovered {key[0]}-{key[1]}")
    return "\n".join(lines) + "\n"
