"""Output checker, independent of the asserts inside the program.

Each property is recomputed here from the returned data, with plain loops
rather than the program's own helpers; only the final parse round trip goes
through the program, since "still validates" means its parser accepts it.
"""

from __future__ import annotations

from aapsm import parse_layout, serialize_layout
from aapsm.errors import LayoutParseError, LayoutValidationError
from aapsm.layout import FEATURE_LAYER


def _short_axis(rect) -> tuple[bool, int]:
    width, height = rect.x_hi - rect.x_lo, rect.y_hi - rect.y_lo
    return height >= width, min(width, height)


def check_design(det, cor) -> list[str]:
    """Problems found in one design's ``detect``/``correct`` outputs."""
    problems: list[str] = []

    removed = set(det.conflicts.edge_ids)
    for e in det.graph.edges:
        if e.id in removed:
            continue
        same = det.phases[e.u] == det.phases[e.v]
        if same != (e.kind == "overlap_half"):
            problems.append(f"phases violate PCG edge {e.id}")
            break

    if not cor.uncovered and cor.residual_conflicts:
        problems.append(f"all conflicts covered but {cor.residual_conflicts} residual")

    cw = det.layout.rules.critical_width
    new_by_id = {r.id: r for r in cor.new_layout.rects}
    for feat in det.layout.rects:
        if feat.layer != FEATURE_LAYER or _short_axis(feat)[1] >= cw:
            continue
        moved = new_by_id.get(feat.id)
        if moved is None:
            problems.append(f"critical feature {feat.id} lost by correct")
        elif _short_axis(moved) != _short_axis(feat):
            problems.append(f"critical feature {feat.id} short dimension changed")

    feats = [r for r in cor.new_layout.rects if r.layer == FEATURE_LAYER]
    for i, a in enumerate(feats):
        for b in feats[i + 1 :]:
            if (
                a.x_lo < b.x_hi and b.x_lo < a.x_hi
                and a.y_lo < b.y_hi and b.y_lo < a.y_hi
            ):
                problems.append(f"corrected features {a.id} and {b.id} overlap")
                break
    try:
        reparsed = parse_layout(serialize_layout(cor.new_layout))
    except (LayoutParseError, LayoutValidationError) as exc:
        problems.append(f"corrected layout does not validate: {exc}")
    else:
        if len(reparsed.rects) != len(cor.new_layout.rects):
            problems.append("corrected layout does not round-trip")
    return problems
