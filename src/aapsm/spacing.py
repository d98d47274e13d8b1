"""Layout correction: choose end-to-end spaces via weighted set cover and
apply the geometry surgery.

A vertical space is a full-height band inserted at a vertical cut line x = c
with some width B: every rect entirely right of the line shifts by B, every
rect straddling it stretches by B.  Horizontal spaces are symmetric in y.
Feature widths never change because a cut that would widen a critical feature
is rejected at planning time and a hard error at apply time.

Each step has one code path for both axes, written against a rect's span
across the cut line.  Planning sweeps each axis once, listing the conflicts
every candidate coordinate covers and dropping the coordinates inside a
critical feature; applying moves every rect in one pass.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .bipartize import Conflict, ConflictSet
from .errors import InternalInvariantError
from .layout import FEATURE_LAYER, Layout, Rect, SIDE_LOW, ShifterSet, box_gaps
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
    greedy_total_width: int = 0
    exact_total_width: int | None = None

    @property
    def used_exact(self) -> bool:
        """The exact solver found a strictly lighter plan than greedy."""
        exact = self.exact_total_width
        return exact is not None and exact < self.greedy_total_width


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


def _span(rect: Rect, axis: str) -> tuple[int, int]:
    """The rect's extent across a cut line on this axis: x for a vertical
    cut, y for a horizontal one."""
    if axis == AXIS_VERTICAL:
        return rect.x_lo, rect.x_hi
    return rect.y_lo, rect.y_hi


def _move_limits(side: str, feature: Rect, axis: str) -> tuple[int, int]:
    """Move limits of the lo and hi edges, on the cut axis, of the shifter on
    this side of the feature: a cut at c moves an edge iff c <= its limit.

    The limits come from the shifter's generating feature: shifters are
    regenerated from features after surgery, so a shifter edge moves exactly
    when its generating feature edge does: a low feature edge at t moves
    under a cut at c iff c <= t, a high one iff c < t.
    """
    lo, hi = _span(feature, axis)
    if feature.is_vertical == (axis == AXIS_VERTICAL):
        # the feature is parallel to the cut line: both shifter edges follow
        # the feature edge the shifter flanks
        flank = lo if side == SIDE_LOW else hi - 1
        return flank, flank
    return lo, hi - 1


def compute_intervals(
    layout: Layout, shifters: ShifterSet, conflicts: ConflictSet
) -> tuple[tuple[CorrectionInterval, ...], tuple[Conflict, ...]]:
    """Correction intervals per conflict, plus the conflicts no space can fix.

    Feature-edge conflicts would need feature widening and are always routed
    to the uncovered list.  Overlap conflicts are deduplicated per shifter
    pair (both halves of one overlap name the same pair).  An interval on an
    axis needs a non-empty open gap between the two boxes across the cut line
    AND cut coordinates under which the two generating features part ways
    (shifters regenerate from features, so a pair whose features sit on one
    side of every gap coordinate would ride along unseparated): the move
    limits come from each shifter's generating feature in the layout, and a
    conflict shifter whose feature the layout lacks is a ValueError.
    Reads the shifter columns; without conflicts it returns at once and
    builds no lookup.
    """
    if not conflicts.conflicts:
        return (), ()
    boxes, feature_ids, sides = shifters.boxes, shifters.feature_ids, shifters.sides
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
        for s in key:
            if feature_ids[s] not in features:
                raise ValueError(f"shifter {s} names feature {feature_ids[s]}, not in the layout")
        s1, s2 = key
        b1, b2 = boxes[s1], boxes[s2]
        gx, gy = box_gaps(b1, b2)
        found = False
        # a box's span across the cut line is (box[k], box[k + 2])
        for axis, k, gap_this, gap_other in (
            (AXIS_VERTICAL, 0, gx, gy), (AXIS_HORIZONTAL, 1, gy, gx)
        ):
            hi1, hi2 = b1[k + 2], b2[k + 2]
            gap_lo, gap_hi = min(hi1, hi2), max(b1[k], b2[k])
            if gap_lo >= gap_hi:
                continue
            sl, sr = (s1, s2) if hi1 <= hi2 else (s2, s1)
            # the left party's gap edge must stay put and the right party's
            # must move
            lo = max(gap_lo, _move_limits(sides[sl], features[feature_ids[sl]], axis)[1] + 1)
            hi = min(gap_hi, _move_limits(sides[sr], features[feature_ids[sr]], axis)[0])
            width = _width_for_axis(gap_this, gap_other, spacing)
            if lo <= hi and width > 0:
                intervals.append(CorrectionInterval(key, axis, lo, hi, width))
                found = True

        if not found:
            uncovered.append(c)
    return tuple(intervals), tuple(uncovered)


def _cover_candidates(
    intervals: tuple[CorrectionInterval, ...], keys, critical: tuple[Rect, ...]
) -> dict[tuple[str, int], CoverCandidate]:
    """The conflicts each (axis, coord) key covers, weighted by the widest
    width_needed among the intervals containing coord, keyed in sorted order.

    A key whose cut line would widen a critical feature gets no candidate:
    the line runs along the feature's long axis strictly inside its short
    axis (squares count as vertical).

    Per axis, one sweep over the coordinates in ascending order keeps the
    active intervals (lo <= coord <= hi): intervals enter in lo order and
    leave once hi < coord.  The critical spans on that axis enter in lo order
    too once lo < coord, and the largest hi among them tells whether one
    still contains coord.  The work is bounded by the sorts plus the covered
    elements.
    """
    by_key: dict[tuple[str, int], CoverCandidate] = {}
    for axis in sorted({axis for axis, _ in keys}):
        pending = sorted((iv for iv in intervals if iv.axis == axis), key=lambda iv: iv.lo)
        spans = sorted(
            _span(f, axis) for f in critical if f.is_vertical == (axis == AXIS_VERTICAL)
        )
        active: list[CorrectionInterval] = []
        entered = opened = 0
        reach = -math.inf  # largest hi among the critical spans with lo < coord
        for coord in sorted(coord for a, coord in keys if a == axis):
            while entered < len(pending) and pending[entered].lo <= coord:
                active.append(pending[entered])
                entered += 1
            active = [iv for iv in active if iv.hi >= coord]
            while opened < len(spans) and spans[opened][0] < coord:
                reach = max(reach, spans[opened][1])
                opened += 1
            if reach > coord:
                continue
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
    cover runs once, always; with at most exact_limit candidates a
    branch-and-bound exact cover starts from the greedy plan and replaces it
    only by a strictly lighter one.
    """
    conflict_keys = sorted({iv.conflict_key for iv in intervals})
    keys = {
        (iv.axis, coord)
        for iv in intervals
        for coord in (iv.lo, iv.hi, (iv.lo + iv.hi) // 2)
    }

    # a candidate lies inside the interval that produced it, so it covers at
    # least that conflict
    by_key = _cover_candidates(intervals, keys, critical_features)
    candidates = list(by_key.values())

    coverable = frozenset().union(*(c.elements for c in candidates))
    planned_universe = frozenset(k for k in conflict_keys if k in coverable)
    plan_uncovered = tuple(k for k in conflict_keys if k not in coverable)

    greedy_keys = greedy_cover(planned_universe, candidates)
    greedy_width = sum(by_key[k].weight for k in greedy_keys)
    chosen = greedy_keys
    exact_count = exact_width = None
    if len(candidates) <= exact_limit and planned_universe:
        chosen = exact_cover(planned_universe, candidates, greedy_keys)
        exact_count = len(chosen)
        exact_width = sum(by_key[k].weight for k in chosen)

    cuts = tuple(
        Cut(*key, by_key[key].weight, tuple(sorted(by_key[key].elements)))
        for key in sorted(chosen)
    )
    return SpacePlan(
        cuts, plan_uncovered, len(greedy_keys), exact_count, greedy_width, exact_width
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


def _box_area(layout: Layout) -> int:
    """Area of the declared bbox when there is one, else of the tight box
    (cuts outside the hull move everything and change nothing, so no
    identity applies); 0 for an empty layout without a bbox."""
    box = layout.bounding_box()
    if box is None:
        return 0
    x1, y1, x2, y2 = box
    return (x2 - x1) * (y2 - y1)


def apply_spaces(
    layout: Layout, shifters: ShifterSet, plan: SpacePlan
) -> tuple[Layout, AreaReport]:
    """Insert the planned spaces, returning the new layout and area report.

    A plan without cuts returns the input layout itself: a Layout is frozen
    and was validated when it was built.  Otherwise one pass over the rects:
    per axis, the cut coordinates are sorted once with prefix sums of their
    widths, so an edge moves by the widths of the cuts that reach it -- a
    low edge at t by the cuts with c <= t, a high edge by those with c < t --
    exactly as if the cuts were inserted one by one in descending order.  A
    rect no cut reaches is kept as is.  Cuts only grow a rect, so a cut
    stretched a critical feature across its short axis exactly when its
    orientation (squares count as vertical) or its short dimension changed;
    that is an internal fault (exit 4), since the planner drops every such
    cut.  Only a moved rect is asked whether it is critical, by
    `find_critical_features`' own test.
    """
    if not plan.cuts:
        area = _box_area(layout)
        return layout, AreaReport(area, area, 0, 0)

    shifts = {}
    for axis in (AXIS_VERTICAL, AXIS_HORIZONTAL):
        cuts = sorted((c.coord, c.width) for c in plan.cuts if c.axis == axis)
        shifts[axis] = [c for c, _ in cuts], [0, *itertools.accumulate(w for _, w in cuts)]
    cw = layout.rules.critical_width

    def moved(r: Rect, axis: str) -> tuple[int, int]:
        coords, prefix = shifts[axis]
        lo, hi = _span(r, axis)
        return (
            lo + prefix[bisect.bisect_right(coords, lo)],
            hi + prefix[bisect.bisect_left(coords, hi)],
        )

    def move(r: Rect) -> Rect:
        (x_lo, x_hi), (y_lo, y_hi) = moved(r, AXIS_VERTICAL), moved(r, AXIS_HORIZONTAL)
        if (x_lo, y_lo, x_hi, y_hi) == (r.x_lo, r.y_lo, r.x_hi, r.y_hi):
            return r
        short = r.short_dim
        if r.layer == FEATURE_LAYER and short < cw:
            w, h = x_hi - x_lo, y_hi - y_lo
            if (h >= w, min(w, h)) != (r.is_vertical, short):
                raise InternalInvariantError(f"a cut would widen critical feature {r.id}")
        return Rect(x_lo, y_lo, x_hi, y_hi, r.layer, r.id)

    rects = tuple(move(r) for r in layout.rects)

    inserted_x = sum(c.width for c in plan.cuts if c.axis == AXIS_VERTICAL)
    inserted_y = sum(c.width for c in plan.cuts if c.axis == AXIS_HORIZONTAL)

    new_bbox = None
    if layout.bbox is not None:
        # the declared outline is a container: it grows by the inserted
        # widths, so the area identity (W+Wx)*(H+Wy) holds by construction
        x1, y1, x2, y2 = layout.bbox
        new_bbox = (x1, y1, x2 + inserted_x, y2 + inserted_y)
        # checked before the new Layout rejects it as invalid input: a rect
        # that escapes the grown box is a fault of the surgery, not the input
        for r in rects:
            if not (x1 <= r.x_lo and r.x_hi <= new_bbox[2] and y1 <= r.y_lo and r.y_hi <= new_bbox[3]):
                raise InternalInvariantError(
                    f"rect {r.id} escaped the grown bounding box"
                )
    new_layout = Layout(rects, layout.rules, new_bbox)
    return new_layout, AreaReport(
        _box_area(layout), _box_area(new_layout), inserted_x, inserted_y
    )


def dump_plan(plan: SpacePlan) -> str:
    lines = []
    for cut in plan.cuts:
        ids = ",".join(f"{a}-{b}" for a, b in cut.covered)
        lines.append(f"cut {cut.axis} {cut.coord} {cut.width} conflicts={ids}")
    for key in plan.uncovered:
        lines.append(f"uncovered {key[0]}-{key[1]}")
    return "\n".join(lines) + "\n"
