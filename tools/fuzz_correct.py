#!/usr/bin/env python3
"""Fuzz `correct` on small random layouts and count where it breaks its own
promises.

    python3 tools/fuzz_correct.py LO HI    # seeds LO <= seed < HI

Seed s draws one design from `random.Random(s)`: a 300, 1000 or 3000 nm
square; rules drawn per design (critical width 1-300, shifter width 1-300,
shifter gap 0-150, spacing 1-400); 1 to 14 interior-disjoint poly rects of
1-400 nm by 1-1500 nm, either way up, at integer positions in the square (a
draw that overlaps an earlier rect is dropped, and drawing stops after 100
draws per rect); a bbox 0, 10, 100 or 600 nm past their hull; and a weight
mode.  `detect` (greedy baseline on)
and `correct(..., allow_uncovered=True)` run on it, and `broken_promises`
finds the pairs behind the two faults below.  One `key=value` line per
count:

- designs: seeds that ended in a report;
- rejected: seeds rejected as invalid input (exit 2);
- fault1: designs where a pair that a planned cut covers ends below the
  spacing;
- fault2: designs where a pair at or beyond the spacing before `correct`
  ends below it;
- covered_residual: designs that cover every conflict yet keep a residual
  conflict;
- exit4: seeds that ended in an internal fault (exit 4);
- tracebacks: seeds that ended in any other exception, each traceback
  printed to stderr.

Then, for each nonzero count after `rejected`, a `<count>_seeds=` line with
its first seeds.  The exit status is 1 when fault1, exit4 or tracebacks is
nonzero, else 0.  Clip warnings are not shown.
"""

import logging
import random
import sys
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aapsm import correct, detect  # noqa: E402
from aapsm.conflict_graph import WEIGHT_SEPARATION, WEIGHT_UNIFORM  # noqa: E402
from aapsm.errors import AapsmError, EXIT_INPUT_ERROR, EXIT_INTERNAL  # noqa: E402
from aapsm.layout import (  # noqa: E402
    DesignRules,
    FEATURE_LAYER,
    Layout,
    Rect,
    find_overlapping_pairs,
    generate_shifters,
)

COUNTS = ("designs", "rejected", "fault1", "fault2", "covered_residual", "exit4", "tracebacks")
GATED = ("fault1", "exit4", "tracebacks")
SHOWN_SEEDS = 10


def design(seed: int) -> tuple[Layout, str]:
    """The layout and weight mode of one seed; LayoutValidationError when
    the drawn layout is invalid input."""
    rng = random.Random(seed)
    span = rng.choice((300, 1000, 3000))
    rules = DesignRules(
        rng.randint(1, 300), rng.randint(1, 300), rng.randint(0, 150), rng.randint(1, 400)
    )
    rects: list[Rect] = []
    count = rng.randint(1, 14)
    for _ in range(100 * count):  # 100 draws a rect on average
        if len(rects) == count:
            break
        w, h = rng.randint(1, 400), rng.randint(1, 1500)
        if rng.random() < 0.5:
            w, h = h, w
        x, y = rng.randrange(span), rng.randrange(span)
        rect = Rect(x, y, x + w, y + h, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(r) for r in rects):
            rects.append(rect)
    margin = rng.choice((0, 10, 100, 600))
    bbox = (
        min(r.x_lo for r in rects) - margin,
        min(r.y_lo for r in rects) - margin,
        max(r.x_hi for r in rects) + margin,
        max(r.y_hi for r in rects) + margin,
    )
    mode = rng.choice((WEIGHT_UNIFORM, WEIGHT_SEPARATION))
    return Layout(tuple(rects), rules, bbox), mode


def broken_promises(det, cor) -> dict[str, list[tuple[int, int]]]:
    """The shifter pairs below the spacing after `correct` that it promised
    to keep apart, by fault: "fault1" for a pair a planned cut covers,
    "fault2" for a pair at or beyond the spacing before; a fault without
    pairs has no key, so a kept promise is {}.

    Shifters are regenerated from the corrected layout and matched to
    `det.shifters` by id, and the pairs below the spacing on either side
    are `detect`'s overlap search.  That search skips only pairs of one
    feature, which a cut never brings closer: it never narrows a feature's
    short side.
    """
    close_before = {(a, b) for a, b, _ in det.overlap_pairs}
    covered = {key for cut in cor.plan.cuts for key in cut.covered}
    after = generate_shifters(cor.new_layout)
    broken: dict[str, list[tuple[int, int]]] = {}
    for a, b, _ in find_overlapping_pairs(after, cor.new_layout.rules):
        if (a, b) in covered:
            broken.setdefault("fault1", []).append((a, b))
        elif (a, b) not in close_before:
            broken.setdefault("fault2", []).append((a, b))
    return broken


def run_seed(seed: int) -> set[str]:
    """The counts one seed adds to."""
    try:
        layout, mode = design(seed)
        det = detect(layout, weight_mode=mode, run_greedy_baseline=True)
        cor = correct(det, allow_uncovered=True)
        broken = broken_promises(det, cor)
    except AapsmError as err:
        if err.exit_code == EXIT_INPUT_ERROR:
            return {"rejected"}
        if err.exit_code == EXIT_INTERNAL:
            return {"exit4"}
        return {"tracebacks"}
    except Exception:
        print(f"seed {seed}:", file=sys.stderr)
        traceback.print_exc()
        return {"tracebacks"}
    seen = {"designs", *broken}
    if not cor.uncovered and cor.residual_conflicts:
        seen.add("covered_residual")
    return seen


def fuzz(seeds) -> tuple[Counter, dict[str, list[int]]]:
    """Every count over the seeds, and the seeds behind each count."""
    counts: Counter = Counter({name: 0 for name in COUNTS})
    seeds_of: dict[str, list[int]] = {name: [] for name in COUNTS}
    for seed in seeds:
        for name in run_seed(seed):
            counts[name] += 1
            seeds_of[name].append(seed)
    return counts, seeds_of


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: fuzz_correct.py LO HI", file=sys.stderr)
        return 2
    lo, hi = (int(a) for a in argv)
    logging.getLogger("aapsm").setLevel(logging.ERROR)  # no clip warnings
    counts, seeds_of = fuzz(range(lo, hi))
    for name in COUNTS:
        print(f"{name}={counts[name]}")
    for name in COUNTS[2:]:
        if seeds_of[name]:
            print(f"{name}_seeds={','.join(map(str, seeds_of[name][:SHOWN_SEEDS]))}")
    return int(any(counts[name] for name in GATED))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
