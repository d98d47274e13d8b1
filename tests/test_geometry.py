"""Exact segment predicates under the symbolic perturbation, against
oracles that expand the perturbed determinant as a polynomial and, on
drawings without ties, intersect the segments in rational arithmetic."""

import itertools
import random

from hypothesis import given, strategies as st

from aapsm.conflict_graph import build_conflict_graph
from aapsm.generator import generate_layout
from aapsm.geometry import (
    box_pairs,
    compare_directions,
    orient_sos,
    segment_box,
    segments_cross,
)
from aapsm.layout import find_overlapping_pairs, generate_shifters

from conftest import manhattan_layout
from oracles import (
    box_pairs_oracle,
    orient_sos_oracle,
    segments_cross_oracle,
    segments_intersect_oracle,
)


def test_x_crossing():
    assert segments_cross([(0, 0), (2, 2), (0, 2), (2, 0)], 0, 1, 2, 3)


def test_disjoint():
    assert not segments_cross([(0, 0), (1, 0), (0, 1), (1, 1)], 0, 1, 2, 3)


def crossings_under_every_labeling(points):
    """segments_cross of segments 01 and 23 of `points` under every
    assignment of node ids to the four ends, each checked against the
    oracle; returns the set of answers."""
    seen = set()
    for ids in itertools.permutations(range(4)):
        pos = [None] * 4
        for point, nid in zip(points, ids):
            pos[nid] = point
        got = segments_cross(pos, *ids)
        assert got == segments_cross_oracle(pos, *ids), ids
        seen.add(got)
    return seen


def test_collinear_touching_vs_overlap():
    """Collinear segments, touching end to end or overlapping, cross or
    not as the perturbation of their ends' ids decides."""
    assert crossings_under_every_labeling([(0, 0), (2, 0), (2, 0), (4, 0)]) == {False, True}
    assert crossings_under_every_labeling([(0, 0), (3, 0), (1, 0), (4, 0)]) == {False, True}
    # apart on one line: no labeling makes them meet
    assert crossings_under_every_labeling([(0, 0), (1, 0), (2, 0), (4, 0)]) == {False}


def test_endpoint_on_interior():
    """A T-touch crosses or not as the perturbation decides; a lower id
    moves farther.  Node 0's upward move tilts segment 0-1 over node 2, so
    2-3 crosses it; touching segment 1-2, node 0 moves along it and then
    up, to the side of node 3, so 0-3 does not cross."""
    assert segments_cross([(0, 0), (4, 0), (2, 0), (2, 3)], 0, 1, 2, 3)
    assert not segments_cross([(2, 0), (0, 0), (4, 0), (2, 3)], 1, 2, 0, 3)
    assert crossings_under_every_labeling([(0, 0), (4, 0), (2, 0), (2, 3)]) == {False, True}


def test_random_against_oracle():
    """On a 3x3 grid, where ties are the rule, segments_cross is the
    polynomial oracle's answer; with no three ends collinear it is also
    the rational intersection of the closed segments."""
    rng = random.Random(20240)
    general = 0
    for _ in range(4000):
        pos = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(6)]
        a, b, c, d = rng.sample(range(6), 4)
        got = segments_cross(pos, a, b, c, d)
        assert got == segments_cross_oracle(pos, a, b, c, d)
        exact = [
            (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
            for p, q, r in itertools.combinations([pos[a], pos[b], pos[c], pos[d]], 3)
        ]
        if all(exact):
            general += 1
            assert got == segments_intersect_oracle(pos[a], pos[b], pos[c], pos[d])
    assert general > 200, general


def test_orient_sos_matches_polynomial_oracle():
    """Random triples of distinct ids on a 3x3 grid, most of them
    collinear or coincident: the closed form is the sign of the fully
    expanded perturbed determinant, never 0, and flips with each swap."""
    rng = random.Random(1990)
    for _ in range(20000):
        pos = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(3, 12))]
        i, j, k = rng.sample(range(len(pos)), 3)
        sign = orient_sos(pos, i, j, k)
        assert sign == orient_sos_oracle(pos, i, j, k) != 0, (pos, i, j, k)
        assert orient_sos(pos, j, i, k) == orient_sos(pos, i, k, j) == -sign
        assert orient_sos(pos, j, k, i) == sign


def test_direction_ordering_is_ccw_from_positive_x():
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for i, u in enumerate(dirs):
        for j, v in enumerate(dirs):
            expect = 0 if i == j else (-1 if i < j else 1)
            assert compare_directions(u, v) == expect


def test_direction_equal_for_parallel_same_direction():
    assert compare_directions((2, 4), (1, 2)) == 0
    assert compare_directions((2, 4), (-1, -2)) != 0


def _box(x, y, w, h):
    return (x, y, x + w, y + h)


class TestBoxPairs:
    def test_no_box_and_one_box(self):
        assert box_pairs([]) == []
        assert box_pairs([(0, 0, 5, 5)]) == []

    def test_closed_boundary_touching(self):
        # corner, edge and point contact all count; a gap of 1 does not
        boxes = [(0, 0, 10, 10), (10, 10, 20, 20), (0, 10, 3, 12), (3, 3, 3, 3), (11, 0, 12, 9)]
        assert box_pairs(boxes) == [(0, 1), (0, 2), (0, 3)]

    def test_equal_x_lo_and_zero_extent(self):
        boxes = [(0, 0, 0, 9), (0, 5, 4, 5), (0, 10, 0, 10), (0, 9, 0, 9)]
        assert box_pairs(boxes) == box_pairs_oracle(boxes) == [(0, 1), (0, 3)]

    def test_one_huge_box_among_small_ones(self):
        rng = random.Random(77)
        boxes = [_box(rng.randint(-50, 50), rng.randint(-50, 50), 2, 2) for _ in range(60)]
        boxes.insert(17, (-10, -1000, 10, 1000))
        assert box_pairs(boxes) == box_pairs_oracle(boxes)

    @given(
        st.lists(
            st.tuples(
                st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 4), st.integers(0, 4)
            ),
            max_size=25,
        )
    )
    def test_matches_all_pairs_oracle(self, raw):
        boxes = [_box(*r) for r in raw]
        assert box_pairs(boxes) == box_pairs_oracle(boxes)

    def test_long_thin_boxes_match_oracle(self):
        rng = random.Random(4242)
        for _ in range(40):
            boxes = []
            for _ in range(rng.randint(0, 40)):
                long, thin = rng.randint(0, 400), rng.randint(0, 2)
                w, h = (long, thin) if rng.random() < 0.5 else (thin, long)
                boxes.append(_box(rng.randint(-200, 200), rng.randint(-200, 200), w, h))
            assert box_pairs(boxes) == box_pairs_oracle(boxes)

    def test_conflict_graph_segment_boxes_match_oracle(self):
        # axis-parallel edges give zero-width and zero-height boxes, and
        # edges sharing a node give shared x_lo values and corner contacts
        layouts = [manhattan_layout(seed) for seed in range(5000, 5020)]
        layouts += [generate_layout(seed, 40, 0.7) for seed in range(1, 6)]
        flat = shared_x_lo = 0
        for layout in layouts:
            shifters = generate_shifters(layout)
            g = build_conflict_graph(
                shifters, find_overlapping_pairs(shifters, layout.rules), layout.rules
            )
            boxes = [segment_box(g.nodes[e.u].pos, g.nodes[e.v].pos) for e in g.edges]
            assert box_pairs(boxes) == box_pairs_oracle(boxes)
            flat += sum(b[0] == b[2] or b[1] == b[3] for b in boxes)
            shared_x_lo += len(boxes) - len({b[0] for b in boxes})
        assert flat and shared_x_lo
