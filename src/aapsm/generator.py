"""Synthetic layout generator for desk-scale experiments.

Real AAPSM benchmarks are proprietary, so experiments run on generated
layouts built from two block types:

  row   -- parallel vertical wires; tight pitches chain their inner shifters
           into overlap paths, which stay phase-assignable;
  comb  -- a horizontal bar under a row of vertical teeth, placed so both
           shifters of each tooth overlap the bar's upper shifter.  Each
           tooth closes a 5-edge dependency cycle with one feature edge, so
           every comb is unassignable until one overlap per tooth is cut.

All gaps are kept strictly positive so every generated conflict has a
feasible correction interval.  Generation is a pure function of the seed.
"""

from __future__ import annotations

import random

from .conflict_graph import build_conflict_graph, is_bipartite
from .errors import InternalInvariantError
from .layout import (
    DesignRules,
    FEATURE_LAYER,
    Layout,
    Rect,
    find_overlapping_pairs,
    generate_shifters,
)

GEN_RULES = DesignRules(
    critical_width=150,
    shifter_width=200,
    shifter_gap=50,
    min_shifter_spacing=200,
)

_WIRE_W = 100
_MARGIN = 2500
# shifter reach past a feature edge: gap + width
_REACH = GEN_RULES.shifter_gap + GEN_RULES.shifter_width

# wire pitches whose inner-shifter gaps are 50..150 nm (chained, conflict-free)
_CHAIN_PITCHES = (650, 700, 750)
# pitches leaving 200+ nm between shifters (no overlap at all)
_SPARSE_PITCHES = (900, 1100, 1400)
# random extra pitch (nm) added to every wire and comb tooth
_JITTER = 40


def generate_layout(
    seed: int,
    features: int = 20,
    motif_density: float = 0.5,
) -> Layout:
    """Deterministic synthetic layout with the requested feature budget.

    motif_density is the fraction of the feature budget spent on combs (the
    conflict-inducing motif); 0 yields a phase-assignable layout.  The result
    is self-checked: it validates, its conflict graph builds, and it is
    unassignable exactly when at least one comb was placed.
    """
    if features < 1:
        raise ValueError("features must be >= 1")
    if not 0.0 <= motif_density <= 1.0:
        raise ValueError("motif_density must be within [0, 1]")
    rng = random.Random(seed)

    rects: list[Rect] = []
    next_id = 0
    cursor_x = 0
    combs_placed = 0

    budget = features
    want_comb_features = round(features * motif_density)
    while budget > 0:
        place_comb = want_comb_features > 0 and budget >= 3
        if place_comb:
            teeth = min(budget - 1, rng.choice((2, 3, 3, 4)))
            block, consumed = _comb_block(rng, cursor_x, next_id, teeth)
            want_comb_features -= consumed
            combs_placed += 1
        else:
            wires = min(budget, rng.choice((2, 3, 4, 5)))
            block, consumed = _row_block(rng, cursor_x, next_id, wires)
        rects.extend(block)
        next_id += consumed
        budget -= consumed
        cursor_x = max(r.x_hi for r in block) + _MARGIN  # blocks start at cursor_x

    x_lo = min(r.x_lo for r in rects) - _MARGIN
    y_lo = min(r.y_lo for r in rects) - _MARGIN
    x_hi = max(r.x_hi for r in rects) + _MARGIN
    y_hi = max(r.y_hi for r in rects) + _MARGIN
    layout = Layout(tuple(rects), GEN_RULES, (x_lo, y_lo, x_hi, y_hi))
    _self_check(layout, expect_conflict=combs_placed > 0)
    return layout


def _row_block(rng, x0: int, id0: int, wires: int):
    """Vertical wires at mixed pitches; never creates an odd cycle."""
    height = rng.choice((800, 1000, 1200, 1600))
    y0 = rng.randrange(0, 400)
    rects = []
    x = x0
    for i in range(wires):
        rects.append(
            Rect(x, y0, x + _WIRE_W, y0 + height, FEATURE_LAYER, id0 + i)
        )
        pitch = rng.choice(_CHAIN_PITCHES if rng.random() < 0.6 else _SPARSE_PITCHES)
        x += pitch + rng.randrange(0, _JITTER + 1)
    return rects, wires


def _comb_block(rng, x0: int, id0: int, teeth: int):
    """A bar plus teeth; both shifters of every tooth overlap the bar's upper
    shifter, closing one odd dependency cycle per tooth.

    Fused variant: tight tooth pitch chains neighbouring tooth shifters and
    the bar stops at the last tooth, so odd cycles share edges.  There the
    optimal flow can beat the greedy spanning-forest baseline strictly.
    """
    bar_h = _WIRE_W
    tooth_h = rng.choice((800, 1000, 1200))
    # tooth bottom sits 350..430 above the bar top: the bar's upper shifter
    # tops out at bar_top + _REACH (=250), leaving a 100..180 nm open gap,
    # strictly below the 200 nm minimum spacing
    lift = 350 + rng.randrange(0, 81)
    fused = teeth >= 2 and rng.random() < 0.4
    pitch = (700 if fused else 900) + rng.randrange(0, _JITTER + 1)

    bar_y = rng.randrange(0, 300)
    first_tooth_x = x0 + 400
    bar_x_lo = x0
    last_tooth_x = first_tooth_x + (teeth - 1) * pitch
    bar_x_hi = last_tooth_x if fused else last_tooth_x + _WIRE_W + 400

    rects = [Rect(bar_x_lo, bar_y, bar_x_hi, bar_y + bar_h, FEATURE_LAYER, id0)]
    ty = bar_y + bar_h + lift
    for i in range(teeth):
        tx = first_tooth_x + i * pitch
        rects.append(
            Rect(tx, ty, tx + _WIRE_W, ty + tooth_h, FEATURE_LAYER, id0 + 1 + i)
        )
    return rects, teeth + 1


def _self_check(layout: Layout, expect_conflict: bool) -> None:
    shifters = generate_shifters(layout)
    pairs = find_overlapping_pairs(shifters, layout.rules)
    verdict = is_bipartite(build_conflict_graph(shifters, pairs, layout.rules))
    if expect_conflict and verdict.ok:
        raise InternalInvariantError(
            "generator expected at least one odd cycle but the layout is balanced"
        )
    if not expect_conflict and not verdict.ok:
        raise InternalInvariantError(
            "generator produced an odd cycle in a motif-free layout"
        )
