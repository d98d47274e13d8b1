"""Correction intervals, space planning, and the geometry surgery."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aapsm.bipartize import Conflict, ConflictSet, ORIGIN_MATCHING
from aapsm.errors import InternalInvariantError
from aapsm.layout import (
    DesignRules,
    FEATURE_LAYER,
    Layout,
    Rect,
    box_separation,
    find_critical_features,
    find_overlapping_pairs,
    generate_shifters,
    parse_layout,
)
from aapsm.pipeline import correct as correct_pipeline, detect
from aapsm.generator import generate_layout
from aapsm.spacing import (
    AreaReport,
    AXIS_HORIZONTAL,
    AXIS_VERTICAL,
    CorrectionInterval,
    Cut,
    SpacePlan,
    _cover_candidates,
    apply_spaces,
    compute_intervals,
    dump_plan,
    plan_spaces,
)
from aapsm.setcover import greedy_cover

from conftest import feature_layout, make_shifter, manhattan_layout, tool_module
from oracles import (
    apply_spaces_oracle,
    candidate_coverage_oracle,
    min_set_cover_weight,
    shifters_from_records,
    widening_cut_blocked_oracle,
)

broken_promises = tool_module("fuzz_correct").broken_promises


def conflict(pair, sep_needed=50, weight=1, edge_id=0):
    return Conflict(edge_id, pair, sep_needed, ORIGIN_MATCHING, weight)


def conflict_set(*conflicts):
    return ConflictSet(tuple(conflicts), sum(c.weight for c in conflicts))


RULES = DesignRules(150, 200, 0, 100)


def hand_intervals(records, conflicts, layout=None):
    """`compute_intervals` over hand-made shifter records, on the layout of
    the features they flank unless one is given."""
    layout = feature_layout(records, RULES) if layout is None else layout
    return compute_intervals(layout, shifters_from_records(records), conflicts)


@st.composite
def layouts_with_cuts(draw):
    """A few interior-disjoint poly rects under small random rules, a
    position for a cut inside each interval, and up to three cuts on either
    axis, most of them on rect edges."""
    rects = []
    for x, y, w, h in draw(
        st.lists(
            st.tuples(
                st.integers(0, 30), st.integers(0, 30), st.integers(1, 12), st.integers(1, 12)
            ),
            min_size=2,
            max_size=5,
        )
    ):
        rect = Rect(x, y, x + w, y + h, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(r) for r in rects):
            rects.append(rect)
    rules = DesignRules(
        draw(st.integers(2, 16)), draw(st.integers(1, 30)), draw(st.integers(0, 20)),
        draw(st.integers(2, 60)),
    )
    edges = {
        AXIS_VERTICAL: [c for r in rects for c in (r.x_lo, r.x_hi)],
        AXIS_HORIZONTAL: [c for r in rects for c in (r.y_lo, r.y_hi)],
    }
    extra = []
    for axis, on_edge, coord, width in draw(
        st.lists(
            st.tuples(
                st.sampled_from((AXIS_VERTICAL, AXIS_HORIZONTAL)),
                st.integers(0, 15),
                st.integers(-5, 60),
                st.integers(1, 20),
            ),
            max_size=3,
        )
    ):
        if on_edge < 12:
            coord = edges[axis][on_edge % len(edges[axis])]
        extra.append((axis, coord, width))
    return Layout(tuple(rects), rules), draw(st.integers(0, 10**6)), extra


class TestComputeIntervals:
    def test_vertical_gap(self):
        s1 = make_shifter(0, 0, "high", 0, 0, w=200, h=1000)
        s2 = make_shifter(1, 1, "low", 250, 0, w=200, h=1000)
        intervals, uncovered = hand_intervals((s1, s2), conflict_set(conflict((0, 1))))
        assert uncovered == ()
        assert len(intervals) == 1
        iv = intervals[0]
        assert (iv.axis, iv.lo, iv.hi) == (AXIS_VERTICAL, 200, 250)
        assert iv.width_needed == 50  # 100 - 50 current gap

    def test_diagonal_pair_gets_both_axes_with_closed_gap_widths(self):
        s1 = make_shifter(0, 0, "high", 0, 0, w=100, h=100)
        s2 = make_shifter(1, 1, "low", 130, 140, w=100, h=100)
        # gaps 30, 40 -> separation 50
        assert box_separation((0, 0, 100, 100), (130, 140, 230, 240)) == 50
        intervals, uncovered = hand_intervals((s1, s2), conflict_set(conflict((0, 1))))
        assert uncovered == ()
        # each width is spacing minus the gap on its own axis: another cut of
        # the plan may close the other axis' gap, so it counts as closed
        widths = {iv.axis: iv.width_needed for iv in intervals}
        assert widths == {AXIS_VERTICAL: 70, AXIS_HORIZONTAL: 60}
        # the widened gap alone reaches the spacing, the other one closed
        assert box_separation((0, 0, 100, 100), (200, 100, 300, 200)) == 100
        assert box_separation((0, 0, 100, 100), (100, 200, 200, 300)) == 100

    @settings(max_examples=200)
    @given(layouts_with_cuts())
    def test_a_cut_in_the_interval_separates_the_pair_whatever_else_is_cut(self, case):
        """A cut anywhere in an interval, as wide as it needs, brings the pair
        to the spacing next to any other cuts that widen no critical
        feature: they may close the gap on the other axis, never this one."""
        layout, pick, extra = case
        shifters = generate_shifters(layout)
        conflicts = conflict_set(*(
            conflict((a, b), sep, edge_id=i)
            for i, (a, b, sep) in enumerate(find_overlapping_pairs(shifters, layout.rules))
        ))
        intervals, _ = compute_intervals(layout, shifters, conflicts)
        critical = find_critical_features(layout)
        others = [Cut(axis, c, w, ()) for axis, c, w in extra
                  if not widening_cut_blocked_oracle(axis, c, critical)]
        spacing = layout.rules.min_shifter_spacing
        for iv in intervals:
            coord = iv.lo + pick % (iv.hi - iv.lo + 1)
            if widening_cut_blocked_oracle(iv.axis, coord, critical):
                continue  # the planner never cuts there
            cut = Cut(iv.axis, coord, iv.width_needed, (iv.conflict_key,))
            plan = SpacePlan((cut, *others), (), len(others) + 1, None)
            after = generate_shifters(apply_spaces(layout, shifters, plan)[0]).boxes
            a, b = iv.conflict_key
            assert box_separation(after[a], after[b]) >= spacing, (iv, others)

    def test_intersecting_both_axes_uncovered(self):
        s1 = make_shifter(0, 0, "high", 0, 0, w=200, h=1000)
        s2 = make_shifter(1, 1, "low", 100, 100, w=200, h=1000)
        cs = conflict_set(conflict((0, 1), sep_needed=100))
        intervals, uncovered = hand_intervals((s1, s2), cs)
        assert intervals == ()
        assert len(uncovered) == 1

    def test_feature_edge_conflict_uncovered(self):
        s1 = make_shifter(0, 0, "low", 0, 0)
        s2 = make_shifter(1, 0, "high", 500, 0)
        fc = Conflict(3, (0, 1), None, ORIGIN_MATCHING, 10**6)
        intervals, uncovered = hand_intervals((s1, s2), conflict_set(fc))
        assert intervals == ()
        assert uncovered == (fc,)

    def test_both_halves_deduplicated(self):
        s1 = make_shifter(0, 0, "high", 0, 0, w=200, h=1000)
        s2 = make_shifter(1, 1, "low", 250, 0, w=200, h=1000)
        cs = conflict_set(conflict((0, 1), edge_id=4), conflict((0, 1), edge_id=5))
        intervals, uncovered = hand_intervals((s1, s2), cs)
        assert len(intervals) == 1

    def test_shifter_of_a_missing_feature_rejected(self):
        s1 = make_shifter(0, 0, "high", 0, 0, w=200, h=1000)
        s2 = make_shifter(1, 1, "low", 250, 0, w=200, h=1000)
        layout = feature_layout((s1,), RULES)
        with pytest.raises(ValueError, match="shifter 1 names feature 1, not in the layout"):
            hand_intervals((s1, s2), conflict_set(conflict((0, 1))), layout)

    def test_limits_come_from_the_features_not_the_shifters(self):
        # the low shifters 0 ([100, 300]) and 2 ([320, 520]) of two diagonal
        # wires sit 53 nm apart: the shifters' own edges would admit a cut at
        # x=300, but it reaches feature 0's low edge, and feature 0 carries
        # shifter 0 as far as shifter 2 moves
        layout = parse_layout(
            "rules 150 200 0 100\nrect poly 300 0 400 1000\nrect poly 520 1050 620 2050\n"
        )
        shifters = generate_shifters(layout)
        intervals, uncovered = compute_intervals(
            layout, shifters, conflict_set(conflict((0, 2)))
        )
        assert uncovered == ()
        assert {iv.axis: (iv.lo, iv.hi, iv.width_needed) for iv in intervals} == {
            AXIS_VERTICAL: (301, 320, 80),
            AXIS_HORIZONTAL: (1000, 1050, 50),
        }
        plan = SpacePlan((Cut(AXIS_VERTICAL, 300, 80, ()),), (), 1, None)
        moved = generate_shifters(apply_spaces(layout, shifters, plan)[0])
        assert box_separation(shifters.boxes[0], shifters.boxes[2]) == 53
        assert box_separation(moved.boxes[0], moved.boxes[2]) == 53


class TestPlanSpaces:
    def test_single_conflict_single_cut(self):
        s1 = make_shifter(0, 0, "high", 0, 0, w=200, h=1000)
        s2 = make_shifter(1, 1, "low", 250, 0, w=200, h=1000)
        intervals, _ = hand_intervals((s1, s2), conflict_set(conflict((0, 1))))
        plan = plan_spaces(intervals)
        assert len(plan.cuts) == 1
        cut = plan.cuts[0]
        assert cut.axis == AXIS_VERTICAL and 200 <= cut.coord <= 250
        assert cut.width == 50
        assert plan.uncovered == ()

    def test_common_stab_takes_max_width(self):
        # gaps 90/80/70 with 100 nm spacing: widths needed 10/20/30
        shifters = []
        confs = []
        for i, gap in enumerate((90, 80, 70)):
            y = i * 3000
            shifters.append(make_shifter(2 * i, 2 * i, "high", 0, y, w=200, h=1000))
            shifters.append(
                make_shifter(2 * i + 1, 2 * i + 1, "low", 200 + gap, y, w=200, h=1000)
            )
            confs.append(conflict((2 * i, 2 * i + 1), edge_id=i))
        intervals, _ = hand_intervals(shifters, conflict_set(*confs))
        assert sorted(iv.width_needed for iv in intervals) == [10, 20, 30]
        # every interval starts at x=200, so one cut stabs all three
        plan = plan_spaces(intervals)
        assert len(plan.cuts) == 1
        assert plan.cuts[0].width == 30
        assert len(plan.cuts[0].covered) == 3

    def test_greedy_vs_exact_on_random_instances(self):
        rng = random.Random(8080)
        for _ in range(40):
            n_conf = rng.randint(1, 4)
            shifters = []
            confs = []
            for i in range(n_conf):
                # a pair's two rects share one y span, so the offset moves no
                # interval; rows 6000 nm apart keep two pairs' features apart
                y = i * 6000 + rng.choice((400, 800, 5000))
                gap = rng.choice((20, 40, 60, 80))
                shifters.append(
                    make_shifter(2 * i, 2 * i, "high", 0, y, w=200, h=1000)
                )
                shifters.append(
                    make_shifter(2 * i + 1, 2 * i + 1, "low", 200 + gap, y, w=200, h=1000)
                )
                confs.append(conflict((2 * i, 2 * i + 1), edge_id=i))
            intervals, _ = hand_intervals(shifters, conflict_set(*confs))
            plan = plan_spaces(intervals, exact_limit=30)
            # exact ran: its width is the enumeration optimum over candidates
            dedup: dict[frozenset, int] = {}
            for iv in intervals:
                for coord in (iv.lo, iv.hi, (iv.lo + iv.hi) // 2):
                    covered = frozenset(
                        jv.conflict_key
                        for jv in intervals
                        if jv.axis == iv.axis and jv.lo <= coord <= jv.hi
                    )
                    width = max(
                        jv.width_needed
                        for jv in intervals
                        if jv.axis == iv.axis and jv.lo <= coord <= jv.hi
                    )
                    if covered not in dedup or width < dedup[covered]:
                        dedup[covered] = width
            expect = min_set_cover_weight(
                frozenset(iv.conflict_key for iv in intervals), list(dedup.items())
            )
            assert sum(c.width for c in plan.cuts) == expect

    # greedy takes the ratio-1 cut at x=10 for (2, 3), then pays 3 more at
    # x=30 for (0, 1); the one cut at x=30 covers both for 3
    TRAP = (
        CorrectionInterval((0, 1), AXIS_VERTICAL, 30, 30, 3),
        CorrectionInterval((2, 3), AXIS_VERTICAL, 10, 30, 1),
    )

    @pytest.mark.parametrize(
        "intervals, exact_limit, exact_ran",
        [(TRAP, 30, True), (TRAP, 0, False), ((), 30, False)],
        ids=["exact", "greedy-only", "empty"],
    )
    def test_greedy_runs_once_per_plan(self, monkeypatch, intervals, exact_limit, exact_ran):
        calls = []

        def counting_greedy(universe, candidates):
            calls.append(universe)
            return greedy_cover(universe, candidates)

        # both module references, so a greedy pass inside exact_cover counts too
        monkeypatch.setattr("aapsm.spacing.greedy_cover", counting_greedy)
        monkeypatch.setattr("aapsm.setcover.greedy_cover", counting_greedy)
        plan = plan_spaces(intervals, exact_limit=exact_limit)
        assert len(calls) == 1
        assert (plan.exact_cut_count is not None) == exact_ran

    def test_exact_escapes_greedy_trap(self):
        expect = min_set_cover_weight(
            frozenset(iv.conflict_key for iv in self.TRAP),
            list(candidate_coverage_oracle(self.TRAP, endpoint_keys(self.TRAP)).values()),
        )
        plan = plan_spaces(self.TRAP, exact_limit=30)
        assert plan.used_exact
        assert sum(c.width for c in plan.cuts) == plan.exact_total_width == expect == 3
        assert plan.greedy_total_width == 4

    def test_tied_optimum_keeps_greedy_plan(self):
        # greedy covers (0, 1) and (2, 3) with two vertical cuts of width 1;
        # the one horizontal cut at y=0 covers both for the same total 2
        intervals = (
            CorrectionInterval((0, 1), AXIS_VERTICAL, 0, 0, 1),
            CorrectionInterval((2, 3), AXIS_VERTICAL, 10, 10, 1),
            CorrectionInterval((0, 1), AXIS_HORIZONTAL, 0, 0, 2),
            CorrectionInterval((2, 3), AXIS_HORIZONTAL, 0, 0, 2),
        )
        greedy = plan_spaces(intervals, exact_limit=0)
        plan = plan_spaces(intervals, exact_limit=30)
        assert [(c.axis, c.coord) for c in plan.cuts] == [(AXIS_VERTICAL, 0), (AXIS_VERTICAL, 10)]
        assert plan.cuts == greedy.cuts
        assert not plan.used_exact
        assert plan.exact_total_width == plan.greedy_total_width == 2

    def test_widening_cut_rejected(self):
        # a vertical critical feature sits inside the gap: vertical cuts
        # through it are blocked, horizontal interval must be used
        s1 = make_shifter(0, 0, "high", 0, 0, w=200, h=1000)
        s2 = make_shifter(1, 1, "low", 250, 300, w=200, h=1000)
        blocker = Rect(200, -2000, 250, 2000, FEATURE_LAYER, 7)
        intervals, _ = hand_intervals((s1, s2), conflict_set(conflict((0, 1))))
        plan = plan_spaces(intervals, critical_features=(blocker,))
        assert all(
            not (c.axis == AXIS_VERTICAL and 200 < c.coord < 250) for c in plan.cuts
        )
        assert plan.uncovered == ()


def assert_coverage_matches_oracle(intervals, keys, critical=()):
    """The sweep lists the oracle's coverage for every key, minus exactly the
    keys whose cut line would widen a critical feature."""
    swept = _cover_candidates(intervals, keys, critical)
    kept = sorted(key for key in keys if not widening_cut_blocked_oracle(*key, critical))
    assert list(swept) == kept
    assert all(c.key == key for key, c in swept.items())
    assert {
        key: (c.elements, c.weight) for key, c in swept.items()
    } == candidate_coverage_oracle(intervals, kept)
    return swept


# intervals across the whole coordinate range below, one per axis, so every
# kept key covers a conflict
SPANNING = (
    CorrectionInterval((0, 1), AXIS_VERTICAL, -12, 17, 3),
    CorrectionInterval((2, 3), AXIS_HORIZONTAL, -12, 17, 5),
)
EVERY_KEY = {
    (axis, coord) for axis in (AXIS_VERTICAL, AXIS_HORIZONTAL) for coord in range(-12, 18)
}


def blocked_keys(critical):
    return EVERY_KEY - set(assert_coverage_matches_oracle(SPANNING, EVERY_KEY, critical))


class TestWideningBlocker:
    """`_cover_candidates` drops the keys whose cut line runs along a
    critical feature's long axis strictly inside its short axis."""

    def test_empty_blocks_nothing(self):
        assert blocked_keys(()) == set()

    def test_touching_spans_block_only_interiors(self):
        # vertical features x in [0, 3] and [3, 5] share the line x = 3, which
        # lies inside neither; a square counts as vertical
        critical = (
            Rect(0, 0, 3, 10, FEATURE_LAYER, 0),
            Rect(3, -5, 5, 10, FEATURE_LAYER, 1),
            Rect(-8, -8, -4, -4, FEATURE_LAYER, 2),
            Rect(-10, 2, 10, 4, FEATURE_LAYER, 3),
        )
        blocked = blocked_keys(critical)
        assert sorted(c for a, c in blocked if a == AXIS_VERTICAL) == [-7, -6, -5, 1, 2, 4]
        assert sorted(c for a, c in blocked if a == AXIS_HORIZONTAL) == [3]

    @given(
        st.lists(
            st.tuples(
                st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 6), st.integers(1, 6)
            ),
            max_size=12,
        )
    )
    def test_matches_scan_oracle(self, raw):
        blocked_keys(
            tuple(
                Rect(x, y, x + w, y + h, FEATURE_LAYER, i)
                for i, (x, y, w, h) in enumerate(raw)
            )
        )


def endpoint_keys(intervals):
    return {
        (iv.axis, coord)
        for iv in intervals
        for coord in (iv.lo, iv.hi, (iv.lo + iv.hi) // 2)
    }


class TestCoverCandidates:
    def test_hand_instance(self):
        intervals = (
            CorrectionInterval((0, 1), AXIS_VERTICAL, -6, -2, 5),
            CorrectionInterval((2, 3), AXIS_VERTICAL, -2, -2, 7),  # lo == hi
            CorrectionInterval((4, 5), AXIS_VERTICAL, -1, 4, 3),
            CorrectionInterval((0, 1), AXIS_HORIZONTAL, -2, 3, 2),
            CorrectionInterval((4, 5), AXIS_HORIZONTAL, 3, 3, 9),
        )
        # -3 lies inside one interval, 5 past every vertical interval
        keys = endpoint_keys(intervals) | {(AXIS_VERTICAL, -3), (AXIS_VERTICAL, 5)}
        swept = _cover_candidates(intervals, keys, ())
        v, h = AXIS_VERTICAL, AXIS_HORIZONTAL
        assert {key: (set(c.elements), c.weight) for key, c in swept.items()} == {
            (h, -2): ({(0, 1)}, 2),
            (h, 0): ({(0, 1)}, 2),
            (h, 3): ({(0, 1), (4, 5)}, 9),
            (v, -6): ({(0, 1)}, 5),
            (v, -4): ({(0, 1)}, 5),
            (v, -3): ({(0, 1)}, 5),
            (v, -2): ({(0, 1), (2, 3)}, 7),
            (v, -1): ({(4, 5)}, 3),
            (v, 1): ({(4, 5)}, 3),
            (v, 4): ({(4, 5)}, 3),
            (v, 5): (set(), 0),
        }
        assert_coverage_matches_oracle(intervals, keys)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((AXIS_VERTICAL, AXIS_HORIZONTAL)),
                st.integers(-10, 10),
                st.integers(0, 6),
                st.integers(1, 9),
                st.integers(0, 4),
            ),
            max_size=14,
        ),
        st.lists(
            st.tuples(
                st.sampled_from((AXIS_VERTICAL, AXIS_HORIZONTAL)), st.integers(-14, 18)
            ),
            max_size=6,
        ),
        st.lists(
            st.tuples(
                st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 6), st.integers(1, 6)
            ),
            max_size=4,
        ),
    )
    def test_matches_scan_oracle(self, raw, extra, raw_critical):
        intervals = tuple(
            CorrectionInterval((k, k + 1), axis, lo, lo + length, width)
            for axis, lo, length, width, k in raw
        )
        critical = tuple(
            Rect(x, y, x + w, y + h, FEATURE_LAYER, i)
            for i, (x, y, w, h) in enumerate(raw_critical)
        )
        assert_coverage_matches_oracle(
            intervals, endpoint_keys(intervals) | set(extra), critical
        )

    def test_generated_design_matches_scan_oracle(self):
        layout = generate_layout(1, 120, 0.7)
        detection = detect(layout)
        intervals, _ = compute_intervals(layout, detection.shifters, detection.conflicts)
        assert len(intervals) > 20
        keys = endpoint_keys(intervals)
        swept = assert_coverage_matches_oracle(intervals, keys, find_critical_features(layout))
        assert len(swept) < len(keys)  # the critical features block some keys


class TestSameSideShifterPairs:
    """Shifters regenerate from features, so a cut only separates a pair when
    the two features part ways; intervals must be clipped to such coordinates."""

    RULES = DesignRules(150, 200, 0, 200)

    def test_low_low_pair_interval_excludes_feature_anchor(self):
        layout = Layout(
            (
                Rect(0, 0, 100, 800, FEATURE_LAYER, 0),
                Rect(300, 950, 400, 1750, FEATURE_LAYER, 1),
            ),
            self.RULES,
        )
        detection = detect(layout)
        assert len(detection.conflicts) > 0
        intervals, uncovered = compute_intervals(
            layout, detection.shifters, detection.conflicts
        )
        assert uncovered == ()
        for iv in intervals:
            if iv.axis == AXIS_VERTICAL and iv.conflict_key == (0, 2):
                # the two low (left) shifters: a cut at x=0 would shift both
                # features together, so the interval starts past F0's left edge
                assert iv.lo >= 1

    def test_low_low_pair_end_to_end(self):
        layout = Layout(
            (
                Rect(0, 0, 100, 800, FEATURE_LAYER, 0),
                Rect(300, 950, 400, 1750, FEATURE_LAYER, 1),
            ),
            self.RULES,
            bbox=(-1000, -1000, 2000, 3000),
        )
        detection = detect(layout)
        correction = correct_pipeline(detection)
        assert correction.residual_conflicts == 0
        assert correction.uncovered == ()

    def test_no_separating_coordinate_is_uncovered(self):
        # F1's low shifter overlaps F0's body; vertical candidates either move
        # both features together or would widen critical F0.  Correction must
        # succeed on another axis or report the pair, never fake a fix.
        layout = Layout(
            (
                Rect(0, 0, 100, 800, FEATURE_LAYER, 0),
                Rect(220, 950, 320, 1750, FEATURE_LAYER, 1),
            ),
            self.RULES,
            bbox=(-1000, -1000, 2000, 3000),
        )
        detection = detect(layout)
        if not detection.conflicts:
            pytest.skip("fixture no longer produces a conflict")
        correction = correct_pipeline(detection, allow_uncovered=True)
        assert correction.residual_conflicts == 0 or correction.uncovered


@st.composite
def layouts_and_cuts(draw):
    """Small layouts of poly rects (kept interior-disjoint) and other-layer
    rects, optionally inside a bbox, with cuts on both axes, many of them on
    rect edges."""
    rects = []
    for i, (x, y, w, h, poly) in enumerate(
        draw(
            st.lists(
                st.tuples(
                    st.integers(-10, 10),
                    st.integers(-10, 10),
                    st.integers(1, 8),
                    st.integers(1, 8),
                    st.booleans(),
                ),
                max_size=8,
            )
        )
    ):
        rect = Rect(x, y, x + w, y + h, "metal", i)
        if poly and not any(
            r.layer == FEATURE_LAYER and r.interior_overlaps(rect) for r in rects
        ):
            rect = Rect(x, y, x + w, y + h, FEATURE_LAYER, i)
        rects.append(rect)
    rules = DesignRules(draw(st.integers(1, 9)), 200, 0, 100)
    bbox = None
    if rects and draw(st.booleans()):
        bbox = Layout(tuple(rects)).bounding_box()
    edges = {
        AXIS_VERTICAL: [c for r in rects for c in (r.x_lo, r.x_hi)],
        AXIS_HORIZONTAL: [c for r in rects for c in (r.y_lo, r.y_hi)],
    }
    cuts = {}
    for axis, on_edge, coord, width in draw(
        st.lists(
            st.tuples(
                st.sampled_from((AXIS_VERTICAL, AXIS_HORIZONTAL)),
                st.integers(0, 15),
                st.integers(-12, 20),
                st.integers(1, 5),
            ),
            max_size=5,
        )
    ):
        if on_edge < 8 and edges[axis]:
            coord = edges[axis][on_edge % len(edges[axis])]
        cuts[axis, coord] = Cut(axis, coord, width, ())
    return Layout(tuple(rects), rules, bbox), tuple(cuts.values())


class TestApplySpaces:
    def test_straddle_stretch(self):
        layout = Layout((Rect(0, 0, 10, 2, FEATURE_LAYER, 0),), RULES)
        plan = SpacePlan((Cut(AXIS_VERTICAL, 5, 3, ()),), (), 1, None)
        new_layout, area = apply_spaces(layout, (), plan)
        r = new_layout.rects[0]
        assert (r.x_lo, r.y_lo, r.x_hi, r.y_hi) == (0, 0, 13, 2)

    def test_pure_shift(self):
        layout = Layout((Rect(6, 0, 10, 2, FEATURE_LAYER, 0),), RULES)
        plan = SpacePlan((Cut(AXIS_VERTICAL, 5, 3, ()),), (), 1, None)
        new_layout, _ = apply_spaces(layout, (), plan)
        r = new_layout.rects[0]
        assert (r.x_lo, r.x_hi) == (9, 13)

    def test_cut_at_boundary_no_stretch(self):
        layout = Layout((Rect(0, 0, 10, 2, FEATURE_LAYER, 0),), RULES)
        plan = SpacePlan((Cut(AXIS_VERTICAL, 10, 3, ()),), (), 1, None)
        new_layout, _ = apply_spaces(layout, (), plan)
        assert new_layout.rects[0] == layout.rects[0]

    def test_widening_critical_feature_is_hard_error(self):
        # vertical critical feature, vertical cut through its interior
        layout = Layout((Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),), RULES)
        plan = SpacePlan((Cut(AXIS_VERTICAL, 50, 10, ()),), (), 1, None)
        # the planner never plans such a cut: a fault (exit 4), not bad input
        with pytest.raises(InternalInvariantError, match="widen critical feature"):
            apply_spaces(layout, (), plan)

    @pytest.mark.parametrize(
        "rect",
        [
            Rect(0, 0, 100, 1000, "metal", 0),  # thin, but not a feature
            Rect(0, 0, 150, 1000, FEATURE_LAYER, 0),  # short_dim == critical_width
        ],
        ids=["thin-metal", "wide-poly"],
    )
    def test_non_critical_rect_may_stretch_across_short_axis(self, rect):
        layout = Layout((rect,), RULES)
        assert find_critical_features(layout) == ()
        plan = SpacePlan((Cut(AXIS_VERTICAL, 50, 10, ()),), (), 1, None)
        new_layout, _ = apply_spaces(layout, (), plan)
        r = new_layout.rects[0]
        assert (r.width, r.height, r.layer, r.id) == (rect.width + 10, 1000, rect.layer, 0)

    @pytest.mark.parametrize(
        "w, h, axes",
        [
            (1000, 100, (AXIS_HORIZONTAL,)),
            # a square's short dimension changes once both sides grow
            (100, 100, (AXIS_VERTICAL, AXIS_HORIZONTAL)),
            # stretched along x alone, the 110x100 square keeps its short
            # dimension but turns horizontal: its vertical shifters no
            # longer flank its long sides
            (100, 100, (AXIS_VERTICAL,)),
        ],
        ids=["horizontal", "square", "square-one-axis"],
    )
    def test_critical_rect_widening_is_hard_error(self, w, h, axes):
        layout = Layout((Rect(0, 0, w, h, FEATURE_LAYER, 0),), RULES)
        assert find_critical_features(layout) == layout.rects
        plan = SpacePlan(tuple(Cut(axis, 50, 10, ()) for axis in axes), (), len(axes), None)
        with pytest.raises(InternalInvariantError, match="widen critical feature 0"):
            apply_spaces(layout, (), plan)

    WIRE = Rect(0, 0, 100, 1000, FEATURE_LAYER, 0)

    @pytest.mark.parametrize(
        "layout, area",
        [
            (Layout((WIRE,), RULES, (-50, -50, 150, 1050)), 200 * 1100),
            (Layout((WIRE, Rect(300, 0, 400, 50, "metal", 1)), RULES), 400 * 1000),
            (Layout((), RULES), 0),
        ],
        ids=["bbox", "tight-box", "empty"],
    )
    def test_plan_without_cuts_returns_the_input_layout(self, layout, area):
        new_layout, report = apply_spaces(layout, (), SpacePlan((), (), 0, None))
        assert new_layout is layout
        assert report == AreaReport(area, area, 0, 0)
        assert report.pct_increase == 0.0

    def test_escaped_rect_is_internal_fault(self):
        # plans come from the planner, never from input: a rect leaving the
        # grown bbox (here through a negative width) is a fault (exit 4), not
        # an invalid layout (exit 2)
        layout = Layout((Rect(0, 0, 10, 50, "metal", 0),), RULES, bbox=(0, 0, 100, 100))
        plan = SpacePlan((Cut(AXIS_VERTICAL, 0, -5, ()),), (), 1, None)
        with pytest.raises(InternalInvariantError, match="invalid layout: rect 0 .* bbox"):
            apply_spaces(layout, (), plan)

    def test_inverted_rect_is_internal_fault(self):
        # a negative width through the rect's interior turns it inside out:
        # the surgery's fault (exit 4), not a degenerate input rect (exit 2)
        layout = Layout((Rect(0, 0, 10, 50, "metal", 0),), RULES)
        plan = SpacePlan((Cut(AXIS_VERTICAL, 5, -20, ()),), (), 1, None)
        with pytest.raises(InternalInvariantError, match="invalid layout: degenerate rect id=0"):
            apply_spaces(layout, (), plan)

    def test_lengthwise_stretch_of_critical_feature_allowed(self):
        layout = Layout((Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),), RULES)
        plan = SpacePlan((Cut(AXIS_HORIZONTAL, 500, 10, ()),), (), 1, None)
        new_layout, _ = apply_spaces(layout, (), plan)
        r = new_layout.rects[0]
        assert (r.width, r.height) == (100, 1010)

    def test_bbox_growth_identity(self):
        layout = Layout(
            (
                Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),
                Rect(500, 0, 600, 1000, FEATURE_LAYER, 1),
            ),
            RULES,
            bbox=(-100, -100, 700, 1100),
        )
        plan = SpacePlan(
            (
                Cut(AXIS_VERTICAL, 300, 40, ()),
                Cut(AXIS_HORIZONTAL, 500, 60, ()),
            ),
            (),
            2,
            None,
        )
        new_layout, area = apply_spaces(layout, (), plan)
        w, h = 800, 1200
        assert area.old_area_nm2 == w * h
        assert area.new_area_nm2 == (w + 40) * (h + 60)
        expect_pct = 100.0 * ((w + 40) * (h + 60) - w * h) / (w * h)
        assert area.pct_increase == expect_pct

    def test_descending_order_keeps_cuts_independent(self):
        layout = Layout(
            (
                Rect(0, 0, 10, 10, FEATURE_LAYER, 0),
                Rect(20, 0, 30, 10, FEATURE_LAYER, 1),
                Rect(40, 0, 50, 10, FEATURE_LAYER, 2),
            ),
            RULES,
        )
        plan = SpacePlan(
            (Cut(AXIS_VERTICAL, 15, 5, ()), Cut(AXIS_VERTICAL, 35, 7, ())),
            (),
            2,
            None,
        )
        new_layout, _ = apply_spaces(layout, (), plan)
        xs = [(r.x_lo, r.x_hi) for r in new_layout.rects]
        assert xs == [(0, 10), (25, 35), (52, 62)]

    def test_pairwise_separation_never_decreases(self):
        rng = random.Random(2024)
        for _ in range(25):
            rects = []
            taken = []
            i = 0
            while len(rects) < 5:
                x = rng.randrange(0, 900, 10)
                y = rng.randrange(0, 900, 10)
                w = rng.choice((30, 60, 90))
                h = rng.choice((30, 60, 90))
                cand = Rect(x, y, x + w, y + h, FEATURE_LAYER, i)
                if any(cand.interior_overlaps(t) for t in taken):
                    continue
                taken.append(cand)
                rects.append(cand)
                i += 1
            layout = Layout(tuple(rects), RULES)
            cuts = (
                Cut(AXIS_VERTICAL, rng.randrange(5, 895), rng.randint(1, 50), ()),
                Cut(AXIS_HORIZONTAL, rng.randrange(5, 895), rng.randint(1, 50), ()),
            )
            try:
                new_layout, _ = apply_spaces(
                    layout, (), SpacePlan(cuts, (), 2, None)
                )
            except InternalInvariantError as exc:
                assert "widen critical feature" in str(exc)
                continue  # the random cut would widen a critical feature
            before, after = (
                [(r.x_lo, r.y_lo, r.x_hi, r.y_hi) for r in lay.rects]
                for lay in (layout, new_layout)
            )
            for a, b in itertools.combinations(range(5), 2):
                assert box_separation(after[a], after[b]) >= box_separation(before[a], before[b])

    @given(layouts_and_cuts())
    def test_matches_cut_by_cut_surgery(self, case):
        layout, cuts = case
        try:
            expect = apply_spaces_oracle(layout, cuts)
        except ValueError:
            expect = None
        plan = SpacePlan(cuts, (), len(cuts), None)
        if expect is None:
            with pytest.raises(InternalInvariantError, match="widen critical feature"):
                apply_spaces(layout, (), plan)
            return
        new_layout, area = apply_spaces(layout, (), plan)
        assert [(r.x_lo, r.y_lo, r.x_hi, r.y_hi) for r in new_layout.rects] == expect
        assert [(r.id, r.layer) for r in new_layout.rects] == [
            (r.id, r.layer) for r in layout.rects
        ]
        for old, new in zip(layout.rects, new_layout.rects):
            if (old.x_lo, old.y_lo, old.x_hi, old.y_hi) == (new.x_lo, new.y_lo, new.x_hi, new.y_hi):
                assert new is old
        assert (area.inserted_x_nm, area.inserted_y_nm) == (
            sum(c.width for c in cuts if c.axis == AXIS_VERTICAL),
            sum(c.width for c in cuts if c.axis == AXIS_HORIZONTAL),
        )


class TestEndToEnd:
    def test_comb_correction_recheck(self, comb_layout):
        detection = detect(comb_layout)
        assert len(detection.conflicts) == 2
        intervals, uncovered = compute_intervals(
            comb_layout, detection.shifters, detection.conflicts
        )
        assert uncovered == ()
        plan = plan_spaces(intervals, find_critical_features(comb_layout))
        new_layout, area = apply_spaces(comb_layout, detection.shifters, plan)
        assert area.pct_increase > 0
        re_detection = detect(new_layout)
        assert len(re_detection.conflicts) == 0

    def test_idempotent_on_clean_layout(self):
        layout = Layout((Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),), RULES)
        detection = detect(layout)
        intervals, uncovered = compute_intervals(layout, detection.shifters, detection.conflicts)
        assert intervals == () and uncovered == ()
        plan = plan_spaces(intervals)
        new_layout, area = apply_spaces(layout, detection.shifters, plan)
        assert new_layout == layout
        assert area.pct_increase == 0.0

    def test_dump_plan_format(self):
        plan = SpacePlan(
            (Cut(AXIS_VERTICAL, 100, 25, ((0, 1), (2, 3))),),
            ((4, 5),),
            1,
            1,
        )
        text = dump_plan(plan)
        assert "cut v 100 25 conflicts=0-1,2-3" in text
        assert "uncovered 4-5" in text

    def test_compliant_shifter_pairs_stay_compliant(self):
        """No shifter pair at or beyond the spacing rule before `correct`
        ends below it, and no pair a planned cut covers does: shifters are
        regenerated from the moved features (matched by id), and a cut may
        bring a pair closer, never under."""
        designs = [(f"manhattan{seed}", manhattan_layout(seed)) for seed in range(5000, 5200)]
        designs += [(f"comb{seed}", generate_layout(seed, 40, 0.7)) for seed in range(1000, 1040)]
        corrected = 0
        for name, layout in designs:
            detection = detect(layout)
            correction = correct_pipeline(detection, allow_uncovered=True)
            if not correction.plan.cuts:
                continue
            corrected += 1
            assert broken_promises(detection, correction) == {}, name
        assert corrected >= 200
