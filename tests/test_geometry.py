"""Exact segment predicates against the rational-arithmetic oracle."""

import random

from hypothesis import given, strategies as st

from aapsm.conflict_graph import build_conflict_graph
from aapsm.generator import generate_layout
from aapsm.geometry import (
    box_pairs,
    compare_directions,
    segment_box,
    segments_intersect,
)
from aapsm.layout import find_overlapping_pairs, generate_shifters

from conftest import manhattan_layout
from oracles import box_pairs_oracle, segments_intersect_oracle


def test_x_crossing():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))


def test_shared_endpoint_counts_as_intersecting():
    # adjacency filtering happens at the graph level, not here
    assert segments_intersect((0, 0), (2, 2), (2, 2), (5, 0))


def test_disjoint():
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))


def test_collinear_touching_vs_overlap():
    assert segments_intersect((0, 0), (2, 0), (2, 0), (4, 0))


def test_endpoint_on_interior():
    assert segments_intersect((0, 0), (4, 0), (2, 0), (2, 3))


def test_random_against_oracle():
    rng = random.Random(20240)
    for _ in range(4000):
        pts = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(4)]
        a, b, c, d = pts
        if a == b or c == d:
            continue
        assert segments_intersect(a, b, c, d) == segments_intersect_oracle(a, b, c, d)


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
