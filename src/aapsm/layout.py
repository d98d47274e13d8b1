"""Axis-aligned rectangle layout model with AAPSM design rules.

All coordinates are integers in database units (nm) and every geometric
predicate is exact; no floating point enters the model.  Drawn wires live on
the feature layer ("poly"); phase shifters are derived per critical feature
and kept outside the Layout proper so that regeneration is always a pure
function of the layout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import geometry
from .errors import LayoutParseError, LayoutValidationError
from .geometry import Box

log = logging.getLogger(__name__)

FEATURE_LAYER = "poly"
SHIFTER_LAYER = "shifter"

SIDE_LOW = "low"
SIDE_HIGH = "high"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box [x_lo, x_hi] x [y_lo, y_hi], closed on all sides."""

    x_lo: int
    y_lo: int
    x_hi: int
    y_hi: int
    layer: str = FEATURE_LAYER
    id: int = 0

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise LayoutValidationError(
                f"degenerate rect id={self.id} on layer {self.layer}: "
                f"({self.x_lo},{self.y_lo})-({self.x_hi},{self.y_hi})"
            )

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def short_dim(self) -> int:
        return min(self.width, self.height)

    @property
    def is_vertical(self) -> bool:
        """Long axis is y; squares count as vertical (deterministic tie-break)."""
        return self.height >= self.width

    def interior_overlaps(self, other: "Rect") -> bool:
        return (
            self.x_lo < other.x_hi
            and other.x_lo < self.x_hi
            and self.y_lo < other.y_hi
            and other.y_lo < self.y_hi
        )


def box_separation(a: Box, b: Box) -> int:
    """Separation between two boxes (x_lo, y_lo, x_hi, y_hi) in nm.

    Per-axis gaps gx, gy (0 where the projections overlap or touch); the
    separation is the nonzero gap when only one axis is open, and
    floor(sqrt(gx^2 + gy^2)) when the boxes are diagonal to each other.
    Intersecting boxes have separation 0.
    """
    gx, gy = max(0, a[0] - b[2], b[0] - a[2]), max(0, a[1] - b[3], b[1] - a[3])
    if gx == 0 or gy == 0:
        return max(gx, gy)
    return math.isqrt(gx * gx + gy * gy)


@dataclass(frozen=True)
class DesignRules:
    """Numeric design rules driving shifter generation and spacing checks."""

    critical_width: int
    shifter_width: int
    shifter_gap: int
    min_shifter_spacing: int

    def __post_init__(self):
        if self.critical_width <= 0:
            raise LayoutValidationError("critical_width must be > 0")
        if self.shifter_width <= 0:
            raise LayoutValidationError("shifter_width must be > 0")
        if self.shifter_gap < 0:
            raise LayoutValidationError("shifter_gap must be >= 0")
        if self.min_shifter_spacing <= 0:
            raise LayoutValidationError("min_shifter_spacing must be > 0")


DEFAULT_RULES = DesignRules(
    critical_width=150,
    shifter_width=200,
    shifter_gap=50,
    min_shifter_spacing=200,
)


def _check_bbox(bbox: tuple[int, int, int, int]) -> None:
    """Reject a bbox without interior."""
    x_lo, y_lo, x_hi, y_hi = bbox
    if not (x_lo < x_hi and y_lo < y_hi):
        raise LayoutValidationError("degenerate bbox")


@dataclass(frozen=True)
class Layout:
    """A bag of rectangles plus the rules that govern them.

    Feature-layer rects must be pairwise interior-disjoint; other layers are
    carried through untouched.  A declared bbox must contain every rect
    (closed containment).
    """

    rects: tuple[Rect, ...]
    rules: DesignRules = DEFAULT_RULES
    bbox: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "rects", tuple(self.rects))
        ids = [r.id for r in self.rects]
        if len(ids) != len(set(ids)):
            raise LayoutValidationError("duplicate rect ids in layout")
        if self.bbox is not None:
            _check_bbox(self.bbox)
            x_lo, y_lo, x_hi, y_hi = self.bbox
            for r in self.rects:
                if not (x_lo <= r.x_lo and r.x_hi <= x_hi and y_lo <= r.y_lo and r.y_hi <= y_hi):
                    raise LayoutValidationError(
                        f"rect {r.id} on layer {r.layer} lies outside the bbox"
                    )
        feats = self.features
        boxes = [(r.x_lo, r.y_lo, r.x_hi, r.y_hi) for r in feats]
        for i, j in geometry.box_pairs(boxes):
            if feats[i].interior_overlaps(feats[j]):
                raise LayoutValidationError(
                    f"feature rects {feats[i].id} and {feats[j].id} overlap"
                )

    @property
    def features(self) -> tuple[Rect, ...]:
        return tuple(r for r in self.rects if r.layer == FEATURE_LAYER)

    def bounding_box(self) -> tuple[int, int, int, int] | None:
        """Declared bbox, else the tight box over all rects."""
        if self.bbox is not None:
            return self.bbox
        if not self.rects:
            return None
        return (
            min(r.x_lo for r in self.rects),
            min(r.y_lo for r in self.rects),
            max(r.x_hi for r in self.rects),
            max(r.y_hi for r in self.rects),
        )


class Shifter(NamedTuple):
    """One phase shifter flanking a critical feature.

    `side` is low/high along the feature's short axis: left/right for vertical
    features, below/above for horizontal ones.  A NamedTuple: immutable;
    derive a changed copy with `_replace`.  `ShifterSet.records` builds them.
    """

    rect: Rect
    feature_id: int
    side: str
    id: int
    clipped: bool = False


@dataclass(frozen=True)
class ShifterSet:
    """The shifters as flat columns, indexed by shifter id.

    Shifter k is the box boxes[k] on side sides[k] of feature
    feature_ids[k]; clipped[k] tells whether the layout bbox clipped it.

    `records` gives the same shifters as Shifter records on shifter-layer
    Rects (each validates itself), built once, on first access; iterating
    and indexing read them.  The pipeline reads the columns.
    """

    boxes: tuple[Box, ...]
    feature_ids: tuple[int, ...]
    sides: tuple[str, ...]
    clipped: tuple[bool, ...]

    @cached_property
    def records(self) -> tuple[Shifter, ...]:
        return tuple(
            Shifter(Rect(*box, SHIFTER_LAYER, sid), fid, side, sid, clip)
            for sid, (box, fid, side, clip) in enumerate(
                zip(self.boxes, self.feature_ids, self.sides, self.clipped)
            )
        )

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, k):
        return self.records[k]


def parse_layout(text: str) -> Layout:
    """Parse the line-oriented layout format.

    Records: ``rect <layer> <x_lo> <y_lo> <x_hi> <y_hi>``,
    ``rules <critical_width> <shifter_width> <shifter_gap> <min_spacing>``,
    ``bbox <x_lo> <y_lo> <x_hi> <y_hi>``; ``#`` starts a comment that runs
    to the end of its line.  A ``rules`` or ``bbox`` record may appear at
    most once.
    """
    rects: list[Rect] = []
    rules = DEFAULT_RULES
    bbox = None
    next_id = 0
    first_line: dict[str, int] = {}  # line of each rules/bbox record
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        if kind in first_line:
            raise LayoutParseError(
                f"repeated {kind} record (first on line {first_line[kind]})", line_no
            )
        if kind in ("rules", "bbox"):
            first_line[kind] = line_no
        try:
            if kind == "rect":
                if len(parts) != 6:
                    raise ValueError("expected: rect <layer> <x1> <y1> <x2> <y2>")
                layer = parts[1]
                x1, y1, x2, y2 = (int(p) for p in parts[2:])
                rects.append(Rect(x1, y1, x2, y2, layer, next_id))
                next_id += 1
            elif kind == "rules":
                if len(parts) != 5:
                    raise ValueError("expected: rules <cw> <sw> <gap> <min_spacing>")
                cw, sw, gap, ms = (int(p) for p in parts[1:])
                rules = DesignRules(cw, sw, gap, ms)
            elif kind == "bbox":
                if len(parts) != 5:
                    raise ValueError("expected: bbox <x1> <y1> <x2> <y2>")
                bbox = tuple(int(p) for p in parts[1:])
                _check_bbox(bbox)
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (LayoutValidationError, ValueError) as exc:
            raise LayoutParseError(str(exc), line_no) from exc
    return Layout(tuple(rects), rules, bbox)


def serialize_layout(layout: Layout) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    lines = []
    r = layout.rules
    lines.append(
        f"rules {r.critical_width} {r.shifter_width} "
        f"{r.shifter_gap} {r.min_shifter_spacing}"
    )
    if layout.bbox is not None:
        lines.append("bbox {} {} {} {}".format(*layout.bbox))
    for rect in layout.rects:
        lines.append(
            f"rect {rect.layer} {rect.x_lo} {rect.y_lo} {rect.x_hi} {rect.y_hi}"
        )
    return "\n".join(lines) + "\n"


def find_critical_features(layout: Layout) -> tuple[Rect, ...]:
    """Feature-layer rects whose short-axis dimension is strictly below the
    critical width threshold."""
    cw = layout.rules.critical_width
    return tuple(r for r in layout.features if r.short_dim < cw)


def generate_shifters(layout: Layout) -> ShifterSet:
    """Two flanking shifters per critical feature, filled into the columns
    of a ShifterSet; no Shifter or Rect is built.

    Shifters span the feature's full length at distance shifter_gap from its
    long sides, with zero line-end overhang.  Shifters falling outside a
    declared bbox are clipped (flagged and logged), never silently dropped.
    One pass over the features: the critical and orientation tests of
    `find_critical_features` and `Rect.is_vertical` are inline, and the clip
    runs only for a box not inside the bbox.
    """
    rules = layout.rules
    cw, gap, sw = rules.critical_width, rules.shifter_gap, rules.shifter_width
    bbox = layout.bbox
    bx1, by1, bx2, by2 = bbox if bbox is not None else (None,) * 4
    boxes: list[Box] = []
    feature_ids: list[int] = []
    clipped: list[bool] = []
    for feat in layout.features:
        x1, y1, x2, y2 = feat.x_lo, feat.y_lo, feat.x_hi, feat.y_hi
        if y2 - y1 >= x2 - x1:  # vertical; squares count as vertical
            if x2 - x1 >= cw:
                continue
            pair = ((x1 - gap - sw, y1, x1 - gap, y2), (x2 + gap, y1, x2 + gap + sw, y2))
        else:
            if y2 - y1 >= cw:
                continue
            pair = ((x1, y1 - gap - sw, x2, y1 - gap), (x1, y2 + gap, x2, y2 + gap + sw))
        for box in pair:
            lx, ly, hx, hy = box
            clip = bbox is not None and not (bx1 <= lx and hx <= bx2 and by1 <= ly and hy <= by2)
            if clip:
                box = _clip_to_bbox(box, bbox, len(boxes), feat.id)
            boxes.append(box)
            clipped.append(clip)
        feature_ids += (feat.id, feat.id)
    sides = (SIDE_LOW, SIDE_HIGH) * (len(boxes) // 2)
    return ShifterSet(tuple(boxes), tuple(feature_ids), sides, tuple(clipped))


def _clip_to_bbox(box: Box, bbox: Box, sid: int, feature_id: int) -> Box:
    """The part of a box not inside the bbox that lies in it, logged as a
    clip; an error when no part of positive area is left."""
    x1, y1, x2, y2 = box
    bx1, by1, bx2, by2 = bbox
    cx1, cy1, cx2, cy2 = max(x1, bx1), max(y1, by1), min(x2, bx2), min(y2, by2)
    if cx1 >= cx2 or cy1 >= cy2:
        raise LayoutValidationError(
            f"shifter {sid} of feature {feature_id} lies entirely "
            "outside the layout bbox"
        )
    log.warning("shifter %d of feature %d clipped to layout bbox", sid, feature_id)
    return cx1, cy1, cx2, cy2


def find_overlapping_pairs(
    shifters: ShifterSet, rules: DesignRules
) -> tuple[tuple[int, int, int], ...]:
    """All unordered pairs of shifters from different features closer than the
    minimum shifter spacing, as (id_lo, id_hi, separation_nm).

    Pairs from the same feature are never reported: those two shifters are
    already bound to opposite phases.  Reads the `boxes` and `feature_ids`
    columns.  Candidates come from the box index over the boxes grown by the
    spacing on their high sides: two grown boxes meet exactly when both axis
    gaps are at most the spacing, which every pair closer than the spacing
    satisfies.
    """
    spacing = rules.min_shifter_spacing
    boxes, feature_ids = shifters.boxes, shifters.feature_ids
    grown = [(x1, y1, x2 + spacing, y2 + spacing) for x1, y1, x2, y2 in boxes]
    out = []
    for i, j in geometry.box_pairs(grown):
        if feature_ids[i] != feature_ids[j]:
            sep = box_separation(boxes[i], boxes[j])
            if sep < spacing:
                out.append((i, j, sep))
    return tuple(out)
