"""Exact integer predicates for 2-D segments and directions, and a box index
that feeds them.

Everything operates on integer points; there is no epsilon anywhere.  Whether
two conflict-graph edges overlap along a line is not decided here:
conflict_graph compares their spans on a shared line (_line_span).
"""

from __future__ import annotations

from collections.abc import Sequence

Point = tuple[int, int]
Box = tuple[int, int, int, int]  # x_lo, y_lo, x_hi, y_hi, closed


def segment_box(a: Point, b: Point) -> Box:
    """The bounding box of the closed segment ab."""
    (ax, ay), (bx, by) = a, b
    return (
        ax if ax < bx else bx, ay if ay < by else by, bx if ax < bx else ax, by if ay < by else ay
    )


def box_pairs(boxes: Sequence[Box]) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of closed boxes that intersect.

    A forward scan along x: with the boxes sorted by x_lo, each box is tested
    for y overlap against the later ones until one starts right of its x_hi.
    Touching boxes intersect.
    """
    ranked = sorted(enumerate(boxes), key=lambda item: item[1][0])
    out: list[tuple[int, int]] = []
    for a, (i, (_, y_lo, x_hi, y_hi)) in enumerate(ranked):
        for b in range(a + 1, len(ranked)):
            j, (x_lo, other_y_lo, _, other_y_hi) = ranked[b]
            if x_lo > x_hi:
                break
            if other_y_lo <= y_hi and y_lo <= other_y_hi:
                out.append((i, j) if i < j else (j, i))
    out.sort()
    return out


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): >0 left turn, <0 right, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment ab (p assumed collinear with a, b)."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Closed segments ab and cd share at least one point."""
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(c, a, b):
        return True
    if o2 == 0 and on_segment(d, a, b):
        return True
    if o3 == 0 and on_segment(a, c, d):
        return True
    if o4 == 0 and on_segment(b, c, d):
        return True
    return False


def _half_plane(dx: int, dy: int) -> int:
    """0 for directions in [0, pi), 1 for [pi, 2pi); angle 0 is +x."""
    if dy > 0 or (dy == 0 and dx > 0):
        return 0
    return 1


def compare_directions(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Order two nonzero direction vectors by angle counterclockwise from +x.

    Returns -1/0/+1; 0 means the directions coincide exactly.
    """
    hu, hv = _half_plane(*u), _half_plane(*v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0
