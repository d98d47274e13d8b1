"""Layout families outside the generator's row and comb motifs, as a gate on
`detect` and `correct`.

Five seeded families of random wire layouts, 40 designs each:

- mixed widths: 80, 150, 200 and 300 nm wires, so cuts move and stretch
  non-critical features too;
- coarse grid: 50 and 100 nm wires on a 50 nm grid;
- zero margin: the bbox is the wires' own hull, so shifters are clipped to
  it or left wholly outside it;
- random rules: critical width, shifter width and gap, and spacing drawn
  per design;
- butted wires: each wire after the first shares part of an edge with an
  earlier one.

Every design either ends in a report or is rejected as invalid input
(`LayoutValidationError`, exit 2).  A report passes the benchmark's own
output checker (`perfbench/check.py`); when every conflict was covered no
conflict remains; and no shifter pair at or beyond the spacing rule before
`correct` ends below it.
"""

import itertools
import random
from collections import Counter

import pytest

from aapsm.errors import LayoutValidationError
from aapsm.layout import (
    DEFAULT_RULES,
    DesignRules,
    FEATURE_LAYER,
    Layout,
    Rect,
    find_critical_features,
    generate_shifters,
    rect_separation,
)
from aapsm.pipeline import correct, detect

from conftest import built_positions, manhattan_layout, perfbench_module

DESIGNS = 40
SPAN = 3000  # nm square the wires start in
LENGTH = (400, 2000)
MARGIN = 600  # bbox margin past the wires: no default-rule shifter is clipped


def wire(rng, x, y, width, length, rid) -> Rect:
    if rng.random() < 0.5:
        return Rect(x, y, x + width, y + length, FEATURE_LAYER, rid)
    return Rect(x, y, x + length, y + width, FEATURE_LAYER, rid)


def scattered(rng, widths, count=12, grid=10) -> list[Rect]:
    """`count` interior-disjoint wires of either orientation on the grid."""
    rects: list[Rect] = []
    while len(rects) < count:
        x, y = rng.randrange(0, SPAN, grid), rng.randrange(0, SPAN, grid)
        rect = wire(rng, x, y, rng.choice(widths), rng.randrange(*LENGTH, grid), len(rects))
        if not any(rect.interior_overlaps(r) for r in rects):
            rects.append(rect)
    return rects


def butted(rng, widths, count=12) -> list[Rect]:
    """Wires each placed against a side of an earlier one, sharing at least
    10 nm of that side's edge."""
    rects = scattered(rng, widths, count=1)
    while len(rects) < count:
        base = rng.choice(rects)
        probe = wire(rng, 0, 0, rng.choice(widths), rng.randrange(*LENGTH, 10), len(rects))
        w, h = probe.width, probe.height
        side = rng.randrange(4)
        if side < 2:  # right or left of the base
            x = base.x_hi if side == 0 else base.x_lo - w
            y = rng.randrange(base.y_lo - h + 10, base.y_hi, 10)
        else:  # above or below
            y = base.y_hi if side == 2 else base.y_lo - h
            x = rng.randrange(base.x_lo - w + 10, base.x_hi, 10)
        rect = Rect(x, y, x + w, y + h, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(r) for r in rects):
            rects.append(rect)
    return rects


def hull(rects, margin: int) -> tuple[int, int, int, int]:
    return (
        min(r.x_lo for r in rects) - margin,
        min(r.y_lo for r in rects) - margin,
        max(r.x_hi for r in rects) + margin,
        max(r.y_hi for r in rects) + margin,
    )


def boxed(rects, margin: int = MARGIN, rules: DesignRules = DEFAULT_RULES) -> Layout:
    return Layout(tuple(rects), rules, hull(rects, margin))


def random_rules(rng) -> Layout:
    rules = DesignRules(
        rng.randrange(60, 260, 10),
        rng.randrange(50, 310, 10),
        rng.randrange(0, 160, 10),
        rng.randrange(50, 410, 10),
    )
    rects = scattered(rng, tuple(range(40, 300, 20)))
    return boxed(rects, rules.shifter_gap + rules.shifter_width, rules)


FAMILIES = {
    "mixed-widths": lambda rng: boxed(scattered(rng, (80, 150, 200, 300), count=16)),
    "coarse-grid": lambda rng: boxed(scattered(rng, (50, 100), grid=50)),
    "zero-margin": lambda rng: boxed(scattered(rng, (100, 200, 300)), margin=0),
    "random-rules": random_rules,
    "butted": lambda rng: boxed(butted(rng, (80, 100, 120))),
}


def run_design(layout: Layout, check_design) -> Counter:
    """Run one design and assert the gate; count what the run exercised."""
    seen = Counter()
    try:
        det = detect(layout)
        cor = correct(det, allow_uncovered=True)
    except LayoutValidationError:
        seen["invalid"] += 1
        return seen
    assert check_design(det, cor) == []
    if not cor.uncovered:
        assert cor.residual_conflicts == 0
    seen["clipped"] += any(s.clipped for s in det.shifters)
    if not cor.plan.cuts:
        return seen
    seen["cuts"] += 1
    cw = layout.rules.critical_width
    moved = {r.id: r for r in cor.new_layout.rects}
    seen["wide_stretched"] += any(
        r.short_dim >= cw and moved[r.id].short_dim != r.short_dim for r in layout.features
    )
    spacing = layout.rules.min_shifter_spacing
    after = {s.id: s.rect for s in generate_shifters(cor.new_layout)}
    for a, b in itertools.combinations(det.shifters, 2):
        if rect_separation(a.rect, b.rect) >= spacing:
            assert rect_separation(after[a.id], after[b.id]) >= spacing, (a.id, b.id)
    return seen


@pytest.mark.parametrize("family", FAMILIES)
def test_family_ends_clean(family):
    check_design = perfbench_module("check").check_design
    seen = Counter()
    for seed in range(DESIGNS):
        layout = FAMILIES[family](random.Random(f"{family}-{seed}"))
        seen += run_design(layout, check_design)
    # every family reaches the surgery; each of the others its own way
    assert seen["cuts"] > 0, seen
    if family == "mixed-widths":
        assert seen["wide_stretched"] > 0, seen
    if family == "zero-margin":
        assert seen["clipped"] > 0 and seen["invalid"] > 0, seen


@pytest.mark.parametrize("family", FAMILIES)
def test_report_counts_critical_features_by_shifter_pairs(family):
    """`detect` reports half its shifter count as `critical_features`:
    `generate_shifters` makes two shifters per feature that passes the
    critical test, or raises.  That equals a separate scan, clipped
    zero-margin designs included."""
    clipped = 0
    for seed in range(DESIGNS):
        layout = FAMILIES[family](random.Random(f"{family}-{seed}"))
        try:
            det = detect(layout)
        except LayoutValidationError:
            continue
        critical = len(find_critical_features(layout))
        assert len(det.shifters) == 2 * critical
        assert dict(det.report)["critical_features"] == str(critical)
        clipped += any(s.clipped for s in det.shifters)
    if family == "zero-margin":
        assert clipped > 0


def test_detect_keeps_built_positions():
    """Every PCG node stays where the layout puts it, the shifter center or
    the midpoint of the pair's two centers, on the coarse-grid family and on
    manhattan_batch design 107135, whose concentric shifters once ended in
    exit 4; each design finishes `correct`."""
    coarse = FAMILIES["coarse-grid"]
    layouts = [coarse(random.Random(f"coarse-grid-{seed}")) for seed in range(DESIGNS)]
    layouts.append(manhattan_layout(107135))
    concentric = 0
    for layout in layouts:
        det = detect(layout)
        correct(det, allow_uncovered=True)
        assert det.graph.positions == built_positions(det.shifters, det.overlap_pairs)
        centers = det.graph.positions[:len(det.shifters)]
        concentric += len(set(centers)) < len(centers)
    assert concentric >= 1
