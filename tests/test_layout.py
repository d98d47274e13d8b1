"""Layout model: parsing, critical features, shifters, overlap pairs."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from aapsm.cli import main
from aapsm.errors import LayoutParseError, LayoutValidationError
from aapsm.generator import generate_layout
from aapsm.layout import (
    DEFAULT_RULES,
    DesignRules,
    FEATURE_LAYER,
    Layout,
    Rect,
    SHIFTER_LAYER,
    SIDE_HIGH,
    SIDE_LOW,
    Shifter,
    box_separation,
    find_critical_features,
    find_overlapping_pairs,
    generate_shifters,
    parse_layout,
    serialize_layout,
)
from aapsm.pipeline import correct, detect

from conftest import manhattan_layout, shifter_columns_against_oracle
from oracles import interior_overlap_pairs_oracle, overlapping_pairs_oracle, shifters_from_records


class TestParse:
    def test_single_rect(self):
        layout = parse_layout("rect poly 0 0 100 1000\n")
        assert len(layout.rects) == 1
        r = layout.rects[0]
        assert (r.x_lo, r.y_lo, r.x_hi, r.y_hi) == (0, 0, 100, 1000)
        assert r.width * r.height == 100 * 1000  # 0.1um x 1um

    def test_empty_is_valid(self):
        layout = parse_layout("# nothing here\n\n")
        assert layout.rects == ()
        assert layout.rules == DEFAULT_RULES

    def test_overlapping_features_rejected(self):
        text = "rect poly 0 0 100 1000\nrect poly 50 10 150 900\n"
        with pytest.raises(LayoutValidationError):
            parse_layout(text)

    def test_touching_features_allowed(self):
        parse_layout("rect poly 0 0 100 1000\nrect poly 100 0 200 1000\n")

    def test_first_overlapping_pair_named(self):
        """The error names the lowest (i, j) pair of overlapping features, in
        feature order; rects on other layers never count."""
        rng = random.Random(909)
        raised = 0
        for _ in range(300):
            rects = []
            ids = rng.sample(range(100), 12)
            for k in range(rng.randint(0, 12)):
                x, y = rng.randint(-40, 40), rng.randint(-40, 40)
                w, h = rng.randint(1, 30), rng.randint(1, 30)
                layer = FEATURE_LAYER if rng.random() < 0.8 else SHIFTER_LAYER
                rects.append(Rect(x, y, x + w, y + h, layer, ids[k]))
            feats = [r for r in rects if r.layer == FEATURE_LAYER]
            pairs = interior_overlap_pairs_oracle(feats)
            if not pairs:
                Layout(tuple(rects))
                continue
            i, j = pairs[0]
            with pytest.raises(LayoutValidationError) as err:
                Layout(tuple(rects))
            assert str(err.value) == f"feature rects {feats[i].id} and {feats[j].id} overlap"
            raised += 1
        assert 50 < raised < 300

    def test_malformed_line_reports_number(self):
        with pytest.raises(LayoutParseError) as err:
            parse_layout("rect poly 0 0 100 1000\nrect poly nope 0 1 1\n")
        assert "line 2" in str(err.value)

    def test_unknown_record(self):
        with pytest.raises(LayoutParseError) as err:
            parse_layout("polygon 0 0 1 1\n")
        assert str(err.value) == "line 1: unknown record 'polygon'"

    @pytest.mark.parametrize(
        "record, message",
        [
            ("rules 150 200 50", "expected: rules <cw> <sw> <gap> <min_spacing>"),
            ("bbox 0 0 10", "expected: bbox <x1> <y1> <x2> <y2>"),
        ],
    )
    def test_record_of_wrong_length_named_at_its_line(self, record, message):
        with pytest.raises(LayoutParseError) as err:
            parse_layout(f"rect poly 0 0 5 5\n{record}\n")
        assert str(err.value) == f"line 2: {message}"
        assert err.value.line_no == 2

    def test_duplicate_rect_ids_rejected(self):
        rects = (Rect(0, 0, 100, 1000, FEATURE_LAYER, 0), Rect(500, 0, 600, 1000, "metal", 0))
        with pytest.raises(LayoutValidationError, match="^duplicate rect ids in layout$"):
            Layout(rects)

    @pytest.mark.parametrize(
        "first, again",
        [
            ("rules 150 200 50 200", "rules 300 200 50 200"),
            ("bbox 0 0 10 10", "bbox 0 0 20 20"),
        ],
    )
    def test_repeated_record_rejected_at_its_line(self, first, again):
        # a second record would silently replace the first
        kind = first.split()[0]
        with pytest.raises(LayoutParseError) as err:
            parse_layout(f"{first}\nrect poly 0 0 5 5\n{again}\n")
        assert str(err.value) == f"line 3: repeated {kind} record (first on line 1)"
        assert err.value.line_no == 3

    def test_trailing_comments_are_ignored(self, tmp_path, capsys):
        plain = (
            "rules 150 200 50 200\n"
            "bbox -1000 -1000 3000 3000\n"
            "rect poly 0 0 100 1000\n"
            "rect poly 400 0 500 1000\n"
        )
        commented = (
            "rules 150 200 50 200 # cw sw gap spacing\n"
            "bbox -1000 -1000 3000 3000   #frame\n"
            "rect poly 0 0 100 1000 # wire\n"
            "rect poly 400 0 500 1000#wire\n"
        )
        assert parse_layout(commented) == parse_layout(plain)
        path = tmp_path / "commented.lay"
        path.write_text(commented)
        assert main(["detect", str(path)]) == 0
        assert "error=" not in capsys.readouterr().out

    def test_comment_lines_keep_line_numbers(self):
        assert parse_layout("   # indented comment\n#\n") == parse_layout("")
        with pytest.raises(LayoutParseError) as err:
            parse_layout("# header\nrect poly 0 0 100 1000 # ok\n  # note\nrect poly 1 2 # x 3\n")
        assert str(err.value) == "line 4: expected: rect <layer> <x1> <y1> <x2> <y2>"
        assert err.value.line_no == 4

    def test_round_trip_is_identity(self):
        text = (
            "# comment\n"
            "rules 120 180 40 160\n"
            "bbox -500 -500 5000 5000\n"
            "rect poly 0 0 100 1000\n"
            "rect metal 0 0 3000 3000\n"
        )
        first = parse_layout(text)
        again = parse_layout(serialize_layout(first))
        assert again == first
        assert serialize_layout(again) == serialize_layout(first)


class TestBboxContainment:
    """A declared bbox is the layout's outline: every rect on every layer lies
    inside it, edges included."""

    BBOX = (0, 0, 1000, 1000)

    def test_rect_on_bbox_edges_allowed(self):
        layout = Layout(
            (Rect(0, 0, 100, 1000, FEATURE_LAYER, 0), Rect(900, 0, 1000, 10, "metal", 1)),
            bbox=self.BBOX,
        )
        assert len(layout.rects) == 2

    @pytest.mark.parametrize(
        "rect",
        [
            Rect(2000, 100, 3000, 300, FEATURE_LAYER, 1),  # wide poly, outside
            Rect(900, 500, 1100, 600, "metal", 1),  # straddles the right edge
            Rect(300, -1, 400, 900, FEATURE_LAYER, 1),  # one unit below
        ],
        ids=["poly-outside", "metal-straddling", "poly-below"],
    )
    def test_rect_outside_bbox_rejected(self, rect):
        with pytest.raises(LayoutValidationError, match=f"rect 1 on layer {rect.layer}"):
            Layout((Rect(300, 100, 400, 900, FEATURE_LAYER, 0), rect), bbox=self.BBOX)

    @pytest.mark.parametrize("bbox", [(0, 0, 0, 10), (0, 10, 10, 10), (5, 0, 0, 10)])
    def test_degenerate_bbox_rejected(self, bbox):
        with pytest.raises(LayoutValidationError, match="^degenerate bbox$"):
            Layout((), bbox=bbox)
        with pytest.raises(LayoutParseError, match="^line 1: degenerate bbox$"):
            parse_layout("bbox {} {} {} {}\n".format(*bbox))

    def test_parse_rejects_rect_outside_bbox(self):
        with pytest.raises(LayoutValidationError, match="outside the bbox"):
            parse_layout("bbox 0 0 1000 1000\nrect metal 900 500 1100 600\n")


class TestCriticalFeatures:
    def test_strictly_below_threshold(self):
        rules = DesignRules(150, 200, 0, 100)
        narrow = Rect(0, 0, 100, 1000, FEATURE_LAYER, 0)
        exact = Rect(500, 0, 650, 1000, FEATURE_LAYER, 1)
        layout = Layout((narrow, exact), rules)
        assert find_critical_features(layout) == (narrow,)

    def test_square_counts_both_axes(self):
        rules = DesignRules(150, 200, 0, 100)
        square = Rect(0, 0, 100, 100, FEATURE_LAYER, 0)
        layout = Layout((square,), rules)
        assert find_critical_features(layout) == (square,)
        # tie-break: squares are treated as vertical, shifters left/right
        shifters = generate_shifters(layout)
        assert shifters[0].rect.x_hi <= square.x_lo
        assert shifters[1].rect.x_lo >= square.x_hi

    def test_non_feature_layers_ignored(self):
        rules = DesignRules(150, 200, 0, 100)
        layout = Layout((Rect(0, 0, 100, 1000, "metal", 0),), rules)
        assert find_critical_features(layout) == ()


class TestShifters:
    def test_vertical_feature_construction(self):
        rules = DesignRules(150, 200, 0, 100)
        layout = Layout((Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),), rules)
        lo, hi = generate_shifters(layout)
        assert (lo.rect.x_lo, lo.rect.y_lo, lo.rect.x_hi, lo.rect.y_hi) == (-200, 0, 0, 1000)
        assert (hi.rect.x_lo, hi.rect.y_lo, hi.rect.x_hi, hi.rect.y_hi) == (100, 0, 300, 1000)
        assert (lo.side, hi.side) == (SIDE_LOW, SIDE_HIGH)
        assert lo.feature_id == hi.feature_id == 0

    def test_horizontal_feature_construction(self):
        rules = DesignRules(150, 200, 30, 100)
        layout = Layout((Rect(0, 0, 1000, 100, FEATURE_LAYER, 0),), rules)
        lo, hi = generate_shifters(layout)
        assert (lo.rect.y_lo, lo.rect.y_hi) == (-230, -30)
        assert (hi.rect.y_lo, hi.rect.y_hi) == (130, 330)
        assert lo.rect.x_lo == 0 and lo.rect.x_hi == 1000

    def test_no_critical_features_no_shifters(self):
        rules = DesignRules(100, 200, 0, 100)
        layout = Layout((Rect(0, 0, 500, 1000, FEATURE_LAYER, 0),), rules)
        assert generate_shifters(layout).records == ()

    def test_close_parallel_features_both_emitted(self):
        # inner shifters geometrically overlap; both still exist
        rules = DesignRules(150, 200, 0, 100)
        layout = Layout(
            (
                Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),
                Rect(200, 0, 300, 1000, FEATURE_LAYER, 1),
            ),
            rules,
        )
        shifters = generate_shifters(layout)
        assert len(shifters) == 4
        inner = [s for s in shifters if s.id in (1, 2)]
        assert inner[0].rect.interior_overlaps(inner[1].rect)

    def test_clipping_to_bbox(self):
        rules = DesignRules(150, 200, 0, 100)
        layout = Layout(
            (Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),),
            rules,
            bbox=(-100, 0, 400, 1000),
        )
        lo, hi = generate_shifters(layout)
        assert lo.clipped and lo.rect.x_lo == -100
        assert not hi.clipped

    # A vertical and a horizontal feature with shifters 200 wide at gap 0:
    # the bbox that holds both shifters exactly, and one that cuts 50 off
    # the shifter named by its index (0 = low, 1 = high).
    CLIP_CASES = {
        "vertical": (Rect(0, 0, 100, 1000, FEATURE_LAYER, 0), (-200, 0, 300, 1000),
                     (-200, 0, 250, 1000), 1),
        "horizontal": (Rect(0, 0, 1000, 100, FEATURE_LAYER, 0), (0, -200, 1000, 300),
                       (0, -150, 1000, 300), 0),
    }

    @pytest.mark.parametrize("case", sorted(CLIP_CASES))
    def test_shifter_on_bbox_edge_is_not_clipped(self, case, caplog):
        feature, exact, _, _ = self.CLIP_CASES[case]
        layout = Layout((feature,), DesignRules(150, 200, 0, 100), bbox=exact)
        with caplog.at_level("WARNING", logger="aapsm.layout"):
            shifters = generate_shifters(layout)
        assert not any(s.clipped for s in shifters)
        bounds = [(s.rect.x_lo, s.rect.y_lo, s.rect.x_hi, s.rect.y_hi) for s in shifters]
        hull = (min(b[0] for b in bounds), min(b[1] for b in bounds),
                max(b[2] for b in bounds), max(b[3] for b in bounds))
        assert hull == exact
        assert caplog.records == []

    @pytest.mark.parametrize("case", sorted(CLIP_CASES))
    def test_shifter_crossing_bbox_is_clipped_and_logged_once(self, case, caplog):
        feature, _, cut, k = self.CLIP_CASES[case]
        layout = Layout((feature,), DesignRules(150, 200, 0, 100), bbox=cut)
        with caplog.at_level("WARNING", logger="aapsm.layout"):
            shifters = generate_shifters(layout)
        clipped, partner = shifters[k], shifters[1 - k]
        assert clipped.clipped and not partner.clipped
        r = clipped.rect
        assert (r.width, r.height) in ((150, 1000), (1000, 150))
        assert cut[0] <= r.x_lo and r.x_hi <= cut[2] and cut[1] <= r.y_lo and r.y_hi <= cut[3]
        p = partner.rect
        assert (p.width, p.height) in ((200, 1000), (1000, 200))
        assert [rec.getMessage() for rec in caplog.records] == [
            f"shifter {clipped.id} of feature 0 clipped to layout bbox"
        ]

    def test_fully_outside_bbox_is_error(self):
        rules = DesignRules(150, 300, 0, 100)
        layout = Layout(
            (Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),),
            rules,
            bbox=(0, 0, 100, 1000),
        )
        with pytest.raises(
            LayoutValidationError,
            match=r"^shifter 0 of feature 0 lies entirely outside the layout bbox$",
        ):
            generate_shifters(layout)

    def test_deterministic(self):
        rules = DesignRules(150, 200, 10, 100)
        layout = Layout(
            (
                Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),
                Rect(700, -200, 1700, -100, FEATURE_LAYER, 1),
            ),
            rules,
        )
        assert generate_shifters(layout) == generate_shifters(layout)

    def test_shifter_is_an_immutable_hashable_record(self):
        rect = Rect(0, 0, 100, 200, SHIFTER_LAYER, 4)
        s = Shifter(rect, 2, SIDE_HIGH, 4)
        assert s.clipped is False
        assert s == Shifter(rect=rect, feature_id=2, side=SIDE_HIGH, id=4, clipped=False)
        assert hash(s) == hash(Shifter(rect, 2, SIDE_HIGH, 4))
        with pytest.raises(AttributeError):
            s.clipped = True
        flagged = s._replace(clipped=True)
        assert flagged is not s and flagged.clipped and not s.clipped
        assert flagged[:4] == s[:4]


class TestColumns:
    """The shifters are built as columns; their records are built on access."""

    def test_columns_match_record_oracle(self, caplog):
        designs = [generate_layout(seed, 40, 0.7) for seed in range(1, 11)]
        designs += [manhattan_layout(seed) for seed in range(5000, 5050)]
        for design in designs:
            assert shifter_columns_against_oracle(design, caplog) == "plain"

    def test_detect_and_correct_build_no_records(self, monkeypatch):
        built = Counter()
        shifter_new, rect_check = Shifter.__new__, Rect.__post_init__

        def counted_shifter(cls, *args, **kwargs):
            built["Shifter"] += 1
            return shifter_new(cls, *args, **kwargs)

        def counted_rect(self):
            built["Rect"] += self.layer == SHIFTER_LAYER
            rect_check(self)

        designs = [generate_layout(1, 150, 0.0), generate_layout(1, 40, 0.7), manhattan_layout(1000)]
        with monkeypatch.context() as m:
            m.setattr(Shifter, "__new__", counted_shifter)
            m.setattr(Rect, "__post_init__", counted_rect)
            cuts = []
            for design in designs:
                det = detect(design)
                cor = correct(det, allow_uncovered=True)
                cuts.append(len(cor.plan.cuts))
            assert cuts[0] == 0 and cuts[1] > 0 and cuts[2] > 0, cuts
            assert cor.residual_conflicts > 0  # the residual back half ran
            assert +built == Counter()
            shifters = det.shifters
            assert shifters == generate_shifters(design)
            assert +built == Counter()
            assert list(shifters) == list(shifters) and shifters[0] is shifters.records[0]
            count = len(shifters.boxes)
            assert count and len(shifters) == count
            assert built == {"Shifter": count, "Rect": count}


class TestSeparation:
    def test_aligned_gap(self):
        assert box_separation((0, 0, 100, 1000), (150, 0, 250, 1000)) == 50

    def test_intersecting_is_zero(self):
        assert box_separation((0, 0, 100, 100), (50, 50, 150, 150)) == 0

    def test_diagonal_euclidean_floor(self):
        a = (0, 0, 100, 100)
        # gaps 30, 40 -> hypotenuse 50
        assert box_separation(a, (130, 140, 200, 200)) == 50
        assert box_separation(a, (131, 140, 200, 200)) == math.isqrt(31 * 31 + 40 * 40)

    @given(
        st.tuples(*[st.integers(-300, 300) for _ in range(4)]),
        st.tuples(*[st.integers(-300, 300) for _ in range(4)]),
    )
    def test_symmetric_and_nonnegative(self, raw_a, raw_b):
        ax, ay, aw, ah = raw_a
        bx, by, bw, bh = raw_b
        a = (ax, ay, ax + abs(aw) + 1, ay + abs(ah) + 1)
        b = (bx, by, bx + abs(bw) + 1, by + abs(bh) + 1)
        assert box_separation(a, b) == box_separation(b, a) >= 0


class TestOverlappingPairs:
    def _two_shifter_layout(self, gap: int, spacing: int):
        rules = DesignRules(150, 200, 0, spacing)
        pitch = 400 + gap  # inner shifter gap equals `gap`
        layout = Layout(
            (
                Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),
                Rect(pitch + 100, 0, pitch + 200, 1000, FEATURE_LAYER, 1),
            ),
            rules,
        )
        shifters = generate_shifters(layout)
        return shifters, rules

    def test_pair_reported_with_separation(self):
        shifters, rules = self._two_shifter_layout(gap=50, spacing=100)
        pairs = find_overlapping_pairs(shifters, rules)
        assert pairs == ((1, 2, 50),)

    def test_boundary_is_strict(self):
        shifters, rules = self._two_shifter_layout(gap=100, spacing=100)
        assert find_overlapping_pairs(shifters, rules) == ()

    def test_same_feature_never_reported(self):
        rules = DesignRules(150, 200, 0, 10_000)
        layout = Layout((Rect(0, 0, 100, 1000, FEATURE_LAYER, 0),), rules)
        shifters = generate_shifters(layout)
        assert find_overlapping_pairs(shifters, rules) == ()

    def test_symmetric_sorted_deterministic(self):
        rng = random.Random(7)
        rules = DesignRules(150, 200, 10, 400)
        rects = []
        x = 0
        for i in range(5):
            rects.append(Rect(x, 0, x + 100, 800, FEATURE_LAYER, i))
            x += rng.choice((550, 600, 700))
        layout = Layout(tuple(rects), rules)
        shifters = generate_shifters(layout)
        pairs = find_overlapping_pairs(shifters, rules)
        assert pairs == tuple(sorted(pairs))
        assert all(a < b for a, b, _ in pairs)
        assert pairs == find_overlapping_pairs(shifters, rules)

    def test_boundary_separations_match_oracle(self):
        """Axis gaps of 0, spacing - 1 and spacing, and diagonal gaps whose
        floored distance lands just below or at the spacing."""
        spacing = 50
        rules = DesignRules(150, 200, 0, spacing)
        offsets = [(0, 0), (0, 49), (0, 50), (49, 0), (50, 0), (30, 39), (30, 40), (35, 35), (36, 36)]
        shifters = [Shifter(Rect(0, 0, 100, 100, SHIFTER_LAYER, 0), 0, SIDE_LOW, 0)]
        for k, (gx, gy) in enumerate(offsets, start=1):
            x, y = 100 + gx, -gy  # right of and below shifter 0
            rect = Rect(x, y - 100, x + 100, y, SHIFTER_LAYER, k)
            shifters.append(Shifter(rect, k, SIDE_LOW, k))
        pairs = find_overlapping_pairs(shifters_from_records(shifters), rules)
        assert pairs == overlapping_pairs_oracle(shifters, spacing)
        assert {b: sep for a, b, sep in pairs if a == 0} == {
            1: 0, 2: 49, 4: 49, 6: 49, 8: 49,
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_all_pairs_oracle(self, seed):
        """Long thin, touching and tiny shifters at negative and positive
        coordinates, with one huge shifter among them."""
        rng = random.Random(seed)
        spacing = rng.choice((1, 7, 50, 200))
        rules = DesignRules(150, 200, 0, spacing)
        shifters = []
        for sid in range(rng.randint(0, 80)):
            if rng.random() < 0.4:  # long thin
                long, thin = rng.randint(1, 2000), rng.randint(1, 3)
                w, h = (long, thin) if rng.random() < 0.5 else (thin, long)
            else:
                w, h = rng.randint(1, 60), rng.randint(1, 60)
            if sid and rng.random() < 0.3:  # touch or nearly touch an earlier one
                other = rng.choice(shifters).rect
                x = other.x_hi + rng.choice((0, spacing - 1, spacing))
                y = other.y_lo + rng.randint(-w, w)
            else:
                x, y = rng.randint(-1500, 1500), rng.randint(-1500, 1500)
            rect = Rect(x, y, x + w, y + h, SHIFTER_LAYER, sid)
            shifters.append(Shifter(rect, sid // 2, SIDE_LOW, sid))
        if shifters:
            huge = Rect(-5000, -20, 5000, 20, SHIFTER_LAYER, len(shifters))
            shifters.append(Shifter(huge, -1, SIDE_HIGH, len(shifters)))
        rng.shuffle(shifters)
        assert find_overlapping_pairs(
            shifters_from_records(shifters), rules
        ) == overlapping_pairs_oracle(shifters, spacing)
