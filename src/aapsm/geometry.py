"""Exact integer predicates for 2-D points and segments, and a box index
that feeds them.

Everything operates on integer points; there is no epsilon anywhere.  Ties
in a drawing (nodes at one position, edges along one line, a node on another
edge) are decided by simulation of simplicity (Edelsbrunner and Muecke, ACM
TOG 9(1), 1990): `orient_sos` reads the points as symbolically perturbed by
their node ids, so it never reports three distinct nodes collinear.
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


def orient_sos(pos: Sequence[Point], i: int, j: int, k: int) -> int:
    """The sign of the cross product (pos[j]-pos[i]) x (pos[k]-pos[i]), >0
    for a left turn and <0 for a right one, with node m symbolically moved
    to (x_m + e^(2^(2m+1)), y_m + e^(2^(2m+2))) for an infinitesimal e > 0;
    never 0 for three distinct ids.

    When the exact determinant is 0, the ids are sorted ascending (each swap
    flips the sign) and the sign is that of the first non-zero term of
    y_j - y_k, x_k - x_j, y_k - y_i, the coefficients of the moves of x_i,
    y_i and x_j; when all three are 0 the coefficient of the product of the
    moves of y_i and x_j, -1, decides.
    """
    (ax, ay), (bx, by), (cx, cy) = pos[i], pos[j], pos[k]
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v:
        return 1 if v > 0 else -1
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if j > k:
        j, k, sign = k, j, -sign
    if i > j:
        i, j, sign = j, i, -sign
    (_, yi), (xj, yj), (xk, yk) = pos[i], pos[j], pos[k]
    for term in (yj - yk, xk - xj, yk - yi):
        if term:
            return sign if term > 0 else -sign
    return -sign


def segments_cross(pos: Sequence[Point], a: int, b: int, c: int, d: int) -> bool:
    """Segments ab and cd, of four distinct node ids, cross once their ends
    are perturbed as `orient_sos` perturbs them."""
    return (
        orient_sos(pos, a, b, c) != orient_sos(pos, a, b, d)
        and orient_sos(pos, c, d, a) != orient_sos(pos, c, d, b)
    )

