"""Seeded inputs for the benchmark workloads.

Each run derives its design seeds from the run seed (``design_seeds``), so one
seed always yields the same designs, and any single design can be rebuilt from
its own seed when a failure is reported.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from aapsm import Layout, Rect, generate_layout, serialize_layout
from aapsm.layout import FEATURE_LAYER

# Manhattan batch geometry (nm).  Twelve narrow wires dropped onto a 3 um
# square leave about six PCG crossings and a dozen phase conflicts per design,
# two thirds of them uncoverable by end-to-end spaces.
MANHATTAN_WIRES = 12
MANHATTAN_SPAN = 3000
MANHATTAN_GRID = 10
MANHATTAN_WIDTHS = (80, 100, 120)  # all below the default 150 nm critical width
MANHATTAN_LENGTH = (400, 2000)
MANHATTAN_MARGIN = 600  # bbox margin past the wires: shifters reach 250 nm


def manhattan_layout(design_seed: int) -> Layout:
    """Random single-layer layout of critical wires with disjoint interiors,
    mixed orientation, on a 10 nm grid, with a bbox that clips no shifter."""
    rng = random.Random(design_seed)
    rects: list[Rect] = []
    while len(rects) < MANHATTAN_WIRES:
        width = rng.choice(MANHATTAN_WIDTHS)
        length = rng.randrange(*MANHATTAN_LENGTH, MANHATTAN_GRID)
        x = rng.randrange(0, MANHATTAN_SPAN, MANHATTAN_GRID)
        y = rng.randrange(0, MANHATTAN_SPAN, MANHATTAN_GRID)
        if rng.random() < 0.5:
            rect = Rect(x, y, x + width, y + length, FEATURE_LAYER, len(rects))
        else:
            rect = Rect(x, y, x + length, y + width, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(other) for other in rects):
            rects.append(rect)
    m = MANHATTAN_MARGIN
    bbox = (
        min(r.x_lo for r in rects) - m,
        min(r.y_lo for r in rects) - m,
        max(r.x_hi for r in rects) + m,
        max(r.y_hi for r in rects) + m,
    )
    return Layout(tuple(rects), bbox=bbox)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    designs: int  # designs per run
    make: Callable[[int], Layout]  # design seed -> layout
    parse: bool  # serialize in setup, parse_layout inside the timed loop


@dataclass(frozen=True)
class Design:
    seed: int
    layout: Layout
    text: str | None  # serialized layout when the workload parses


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "comb_40",
            "comb motifs give ~25 odd faces per design; T-join matching is ~70% "
            "of detect",
            48,
            functools.partial(generate_layout, features=40, motif_density=0.7),
            False,
        ),
        Workload(
            "rows_150",
            "no odd cycles, so matching is skipped; quadratic geometry scans "
            "and PCG build dominate",
            20,
            functools.partial(generate_layout, features=150, motif_density=0.0),
            False,
        ),
        Workload(
            "manhattan_batch",
            "many small random designs: per-call costs, crossings, and "
            "uncoverable conflicts",
            200,
            manhattan_layout,
            True,
        ),
    )
}


def design_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + i for i in range(count)]


def make_design(workload: Workload, design_seed: int) -> Design:
    layout = workload.make(design_seed)
    text = serialize_layout(layout) if workload.parse else None
    return Design(design_seed, layout, text)
