#!/usr/bin/env python3
"""One digest over everything detect and correct put out on the perfbench
workloads, to check that a change leaves the outputs byte-identical.

    python3 tools/output_digest.py [SEED ...]    # default seeds: 1 2

Every design of the three workloads of each seed is run in both weight
modes with the greedy baseline on.  The digest covers the rendered
`correct(..., allow_uncovered=True)` report, the corrected layout
(`serialize_layout`), the space plan (`dump_plan`), the conflict ids, the
phases, `dump_embedding`, `dump_graph` (every node's position included),
and every shifter's id, feature, side, rect bounds and clip flag.  The
extended digest also covers the T-join's `optimal_edge_ids` and
`optimal_weight`, and the (id, u, v, weight, primal edge) of every edge of
the dual `build_dual(det.embedding)`.  Run it in two checkouts and compare
the last line.
The package is imported from this checkout's `src`, and the designs come
from `perfbench/workloads.py`, which this script only reads.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files beside perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from aapsm import correct, detect, parse_layout, serialize_layout  # noqa: E402
from aapsm.conflict_graph import WEIGHT_SEPARATION, WEIGHT_UNIFORM, dump_graph  # noqa: E402
from aapsm.errors import AapsmError  # noqa: E402
from aapsm.pipeline import render_report  # noqa: E402
from aapsm.planar import build_dual, dump_embedding  # noqa: E402
from aapsm.spacing import dump_plan  # noqa: E402
import workloads  # noqa: E402


def design_output(layout, weight_mode: str) -> tuple[str, str]:
    """(what the plain digest covers, what the extended one adds)."""
    try:
        det = detect(layout, weight_mode=weight_mode, run_greedy_baseline=True)
        cor = correct(det, allow_uncovered=True)
    except AapsmError as err:
        return f"error {type(err).__name__}: {err}\n", ""
    shifters = "".join(
        f"shifter {s.id} {s.feature_id} {s.side} {s.rect.x_lo} {s.rect.y_lo} "
        f"{s.rect.x_hi} {s.rect.y_hi} {s.clipped}\n" for s in det.shifters
    )
    plain = (
        render_report(cor.report)
        + serialize_layout(cor.new_layout) + dump_plan(cor.plan)
        + f"conflicts {det.conflicts.edge_ids}\nphases {sorted(det.phases.items())}\n"
        + dump_embedding(det.embedding)
        + dump_graph(det.graph) + shifters
    )
    extended = (
        f"optimal {det.optimal_edge_ids} {det.optimal_weight}\n"
        + "".join(
            f"dual {e.id} {e.u} {e.v} {e.weight} {e.primal_edge_id}\n"
            for e in build_dual(det.embedding).edges
        )
    )
    return plain, extended


def main(argv: list[str]) -> int:
    digest, extended, runs = hashlib.sha256(), hashlib.sha256(), 0
    for seed in [int(a) for a in argv] or [1, 2]:
        for w in workloads.WORKLOADS.values():
            for design_seed in workloads.design_seeds(seed, w.designs):
                d = workloads.make_design(w, design_seed)
                layout = parse_layout(d.text) if d.text is not None else d.layout
                for mode in (WEIGHT_UNIFORM, WEIGHT_SEPARATION):
                    header = f"## {w.name} {design_seed} {mode}\n".encode()
                    plain, extra = design_output(layout, mode)
                    digest.update(header + plain.encode())
                    extended.update(header + plain.encode() + extra.encode())
                    runs += 1
    print(f"runs={runs} digest={digest.hexdigest()} extended={extended.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
