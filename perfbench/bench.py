"""Benchmark runner: set-up, the untraced timing loop, and the traced run.

``run.py`` puts the checkout's ``src`` on the path and calls ``main``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from aapsm import (
    assign_edges,
    bipartize_optimal,
    build_generalized_gadget_graph,
    build_optimized_gadget_graph,
    correct,
    detect,
    parse_layout,
    serialize_layout,
    tjoin_from_graph,
)
from aapsm.bipartize import ORIGIN_MATCHING, ORIGIN_PLANARIZATION
from aapsm.errors import AapsmError, EXIT_INTERNAL
from aapsm.pipeline import render_report
from aapsm.tjoin import MODE_OPTIMIZED
from aapsm.unionfind import ParityUnionFind

from check import check_design
from replay import Tracer, traced_correct, traced_detect
from workloads import WORKLOADS, Design, Workload, design_seeds, make_design

RUN_PY = Path(__file__).resolve().parent / "run.py"
# set-up runs at least SETUP_REPS times and until the timed builds add up to
# SETUP_MIN_S, so that a workload that builds in milliseconds still gets a
# steady median
SETUP_REPS = 3
SETUP_MIN_S = 0.5
# host_probe() seconds on the reference host (2-core 2.0 GHz Xeon VM, Python
# 3.11.7, no other load); every reported time is in seconds of that host
PROBE_REF_S = 1.2e-3

# Reported with --trace 0.  The quality block is phrased so that no metric is
# ever 0: each is 1.0 when a workload gives it nothing to do.
END_TO_END = {
    "setup_s": "s",
    "detect_p50_s": "s",
    "detect_p90_s": "s",
    "correct_p50_s": "s",
    "correct_p90_s": "s",
    "features_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "kept_weight_ratio": "ratio",
    "covered_ratio": "ratio",
    "resolved_ratio": "ratio",
    "area_ratio": "ratio",
}

# Reported with --trace 1.  Times are per-design medians summed over every
# call in the design (the residual re-detect included); counts are
# per-design means over the first detect; *_ratio values are ratios of sums.
PER_LAYER = {
    "generator.generate_s": "s",
    "layout.parse_s": "s",
    "layout.shifters_s": "s",
    "layout.overlap_pairs_s": "s",
    "layout.shifters": "count",
    "layout.overlap_pairs": "count",
    "conflict_graph.build_s": "s",
    "conflict_graph.nodes": "count",
    "conflict_graph.edges": "count",
    "conflict_graph.perturbed_nodes": "count",
    "conflict_graph.is_bipartite_s": "s",
    "conflict_graph.phase_assign_s": "s",
    "planar.planarize_s": "s",
    "planar.crossings_removed": "count",
    "planar.build_dual_s": "s",
    "planar.faces": "count",
    "planar.odd_faces": "count",
    "planar.dual_components": "count",
    "planar.largest_component_faces": "count",
    "tjoin.solve_s": "s",
    "tjoin.match_s": "s",
    "tjoin.gadget_nodes": "count",
    "tjoin.gadget_edges": "count",
    "tjoin.optimized.solve_s": "s",
    "tjoin.optimized.gadget_nodes": "count",
    "tjoin.optimized_ratio": "ratio",
    "bipartize.finalize_s": "s",
    "bipartize.conflicts_matching": "count",
    "bipartize.conflicts_planarization": "count",
    "bipartize.readmitted_ratio": "ratio",
    "spacing.intervals_s": "s",
    "spacing.plan_s": "s",
    "spacing.apply_s": "s",
    "spacing.intervals": "count",
    "spacing.cuts": "count",
    "spacing.uncoverable": "count",
    "setcover.exact_used": "count",
    "pipeline.detect_self_s": "s",
    "pipeline.residual_detect_s": "s",
    "trace.overhead_s": "s",
}

@dataclass
class Failure:
    design_seed: int
    stage: str
    kind: str  # "exit4", "error" (other AapsmError), "crash", or "check"
    message: str


@dataclass
class Run:
    """Outcome of one benchmark run on one workload."""

    attempted: int
    failures: list[Failure] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    @property
    def failed_seeds(self) -> set[int]:
        return {f.design_seed for f in self.failures}

    @property
    def correct(self) -> bool:
        return not any(f.kind == "check" for f in self.failures)


def _classify(exc: BaseException) -> str:
    if isinstance(exc, AapsmError):
        return "exit4" if exc.exit_code == EXIT_INTERNAL else "error"
    return "crash"


def _fail(run: Run, seed: int, stage: str, exc: Exception) -> None:
    kind = _classify(exc)
    if kind == "crash":
        traceback.print_exc(file=sys.stderr)
    run.failures.append(Failure(seed, stage, kind, f"{type(exc).__name__}: {exc}"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_probe() -> float:
    """Seconds for a fixed integer loop that runs no aapsm code."""
    start = time.perf_counter()
    acc = 0
    for k in range(20_000):
        acc += k * k
    return time.perf_counter() - start


def host_scale() -> float:
    """Factor that converts seconds measured now into reference-host seconds.

    Other load on a shared host slows all Python code for tens of seconds at
    a time, by up to ~40%.  Scaling each timed call by PROBE_REF_S over a
    probe run just before it cancels most of that drift: in six same-seed
    runs of comb_40 on a 2-core shared host the spread of detect_p50_s fell
    from 12% to 3%.
    """
    return PROBE_REF_S / host_probe()


def setup(workload: Workload, seed: int, run: Run):
    """Build the run's designs repeatedly (SETUP_REPS, SETUP_MIN_S); returns
    (designs, median set-up seconds, per-design median build seconds), in
    reference-host seconds."""
    totals: list[float] = []
    per_design: dict[int, list[float]] = defaultdict(list)
    designs: list[Design] = []
    rep = 0
    while rep < SETUP_REPS or (designs and sum(totals) < SETUP_MIN_S):
        designs = []
        total = 0.0
        for ds in design_seeds(seed, workload.designs):
            scale = host_scale()
            t = time.perf_counter()
            try:
                designs.append(make_design(workload, ds))
            except Exception as exc:  # a generator failure is a program failure
                if rep == 0:
                    _fail(run, ds, "generate", exc)
                continue
            elapsed = (time.perf_counter() - t) * scale
            per_design[ds].append(elapsed)
            total += elapsed
        totals.append(total)
        rep += 1
    build_s = {ds: statistics.median(v) for ds, v in per_design.items()}
    return designs, statistics.median(totals), build_s


def _run_design(workload: Workload, design: Design, run: Run):
    """One untraced parse/detect/correct: (detect result, correct result,
    host scale, [parse, detect, correct] reference-host seconds), or None
    when the program raised."""
    stage = "parse"
    scale = host_scale()
    try:
        t0 = time.perf_counter()
        layout = parse_layout(design.text) if workload.parse else design.layout
        t1 = time.perf_counter()
        stage = "detect"
        det = detect(layout)
        t2 = time.perf_counter()
        stage = "correct"
        cor = correct(det, allow_uncovered=True)
        t3 = time.perf_counter()
    except Exception as exc:  # every design must be accounted, whatever it raises
        _fail(run, design.seed, stage, exc)
        return None
    return det, cor, scale, [(t1 - t0) * scale, (t2 - t1) * scale, (t3 - t2) * scale]


def measure(workload: Workload, seed: int, seconds: float) -> Run:
    """Untraced run: the designs are cycled until ``seconds`` have elapsed
    and each has run at least once.

    A design's time for each call is the median of its repeats, in
    reference-host seconds (``host_scale``); percentiles are taken over
    designs.
    """
    run = Run(attempted=workload.designs)
    designs, setup_s, _ = setup(workload, seed, run)
    gc.collect()

    repeats: dict[int, list[list[float]]] = defaultdict(list)  # [parse, detect, correct]
    features: dict[int, int] = {}
    reports: dict[int, str] = {}
    q = defaultdict(float)
    scales: list[float] = []
    start = time.perf_counter()
    i = 0
    while designs:
        if i >= len(designs) and (not repeats or time.perf_counter() - start >= seconds):
            break
        design = designs[i % len(designs)]
        i += 1
        if design.seed in run.failed_seeds:
            continue
        out = _run_design(workload, design, run)
        if out is None:
            continue
        det, cor, scale, times = out
        scales.append(scale)
        report = render_report(cor.report)
        if design.seed in repeats:
            problems = [] if report == reports[design.seed] else ["report changed between repeats"]
        else:
            features[design.seed] = len(det.layout.features)
            reports[design.seed] = report
            problems = check_design(det, cor)
            q["conflict_weight"] += det.conflicts.total_weight
            q["overlap_weight"] += sum(
                e.weight for e in det.graph.edges if e.is_equal_constraint
            )
            q["conflicts"] += len(det.conflicts)
            q["uncovered"] += len(cor.uncovered)
            q["residual"] += cor.residual_conflicts
            q["area_old"] += cor.area.old_area_nm2
            q["area_new"] += cor.area.new_area_nm2
            q["area_pct"] += cor.area.pct_increase
        repeats[design.seed].append(times)
        for p in problems:
            run.failures.append(Failure(design.seed, "check", "check", p))
    ok = [ds for ds in repeats if ds not in run.failed_seeds]
    if not ok:
        return run

    typical = {ds: [statistics.median(t) for t in zip(*repeats[ds])] for ds in ok}
    detect_s = [typical[ds][1] for ds in ok]
    correct_s = [typical[ds][2] for ds in ok]
    failed = len(run.failed_seeds)
    conflicts = q["conflicts"]
    run.metrics = {
        "setup_s": setup_s,
        "detect_p50_s": statistics.median(detect_s),
        "detect_p90_s": percentile(detect_s, 0.9),
        "correct_p50_s": statistics.median(correct_s),
        "correct_p90_s": percentile(correct_s, 0.9),
        "features_per_s": sum(features[ds] for ds in ok) / sum(sum(typical[ds]) for ds in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / run.attempted,
        "kept_weight_ratio": 1 - q["conflict_weight"] / q["overlap_weight"]
        if q["overlap_weight"] else 1.0,
        "covered_ratio": 1 - q["uncovered"] / conflicts if conflicts else 1.0,
        "resolved_ratio": 1 - q["residual"] / conflicts if conflicts else 1.0,
        "area_ratio": q["area_new"] / q["area_old"],
    }
    run.info = {
        "designs_timed": len(ok),
        "repeats_per_design": round(i / len(designs), 2),
        "host_scale": statistics.median(scales),
        "failed_ratio": failed / run.attempted,
        "conflict_weight": int(q["conflict_weight"]),
        "conflicts": int(conflicts),
        "uncovered_ratio": q["uncovered"] / conflicts if conflicts else 0.0,
        "residual_conflicts": int(q["residual"]),
        "area_increase_pct": q["area_pct"] / len(repeats),
    }
    return run


def _dual_components(dual) -> tuple[int, int]:
    """(component count, faces in the largest component) of the dual graph."""
    uf = ParityUnionFind()
    for f in range(dual.n_faces):
        uf.add(f)
    for e in dual.edges:
        uf.union(e.u, e.v, 0)
    sizes: dict[int, int] = defaultdict(int)
    for f in range(dual.n_faces):
        sizes[uf.find(f)[0]] += 1
    return len(sizes), max(sizes.values(), default=0)


def _gadget_size(dual, build_gadgets) -> tuple[int, int]:
    """(nodes, edges) of the gadget graph bipartize_optimal matches over;
    (0, 0) when T is empty and matching is skipped."""
    usable = [(e.u, e.v, e.weight) for e in dual.edges if not e.is_self_loop]
    inst = tjoin_from_graph(range(dual.n_faces), usable)
    if not inst.t_nodes:
        return 0, 0
    gg = build_gadgets(inst, assign_edges(inst))
    return len(gg.nodes), len(gg.edges)


def _layer_sample(tr: Tracer, rd, rc, scale: float) -> dict:
    """Per-layer values of one design's traced replay; span times are scaled
    to reference-host seconds by ``scale``."""
    # a time metric "<span>_s" is the summed duration of the spans of that
    # name; the ones no span carries are filled in below
    sample = {m: tr.total(m[:-2]) * scale for m, u in PER_LAYER.items() if u == "s"}
    traced_s = scale * sum(
        s.end - s.start
        for s in tr.spans
        if s.parent is None and s.name in ("pipeline.detect", "pipeline.correct")
    )
    components, largest = _dual_components(rd.dual)
    gadget_nodes, gadget_edges = _gadget_size(rd.dual, build_generalized_gadget_graph)
    opt_nodes, _ = _gadget_size(rd.dual, build_optimized_gadget_graph)
    origins = [c.origin for c in rd.conflicts.conflicts]
    sample.update(
        {
            "layout.shifters": len(rd.shifters),
            "layout.overlap_pairs": len(rd.pairs),
            "conflict_graph.nodes": len(rd.graph.nodes),
            "conflict_graph.edges": len(rd.graph.edges),
            "conflict_graph.perturbed_nodes": len(rd.graph.perturbed_nodes),
            "planar.crossings_removed": len(rd.embedding.removed_edge_ids),
            "planar.faces": rd.dual.n_faces,
            "planar.odd_faces": sum(d % 2 for d in rd.dual.degrees()),
            "planar.dual_components": components,
            "planar.largest_component_faces": largest,
            "tjoin.match_s": (rd.match_seconds + rc.residual.match_seconds) * scale,
            "tjoin.gadget_nodes": gadget_nodes,
            "tjoin.gadget_edges": gadget_edges,
            "tjoin.optimized.gadget_nodes": opt_nodes,
            "bipartize.conflicts_matching": origins.count(ORIGIN_MATCHING),
            "bipartize.conflicts_planarization": origins.count(ORIGIN_PLANARIZATION),
            "spacing.intervals": len(rc.intervals),
            "spacing.cuts": len(rc.plan.cuts),
            "spacing.uncoverable": len(rc.uncoverable),
            "setcover.exact_used": int(rc.plan.used_exact),
            "pipeline.detect_self_s": tr.self_time("pipeline.detect") * scale,
            "traced_s": traced_s,
            # ratio parts, summed over designs
            "first_solve_s": scale
            * next(s.end - s.start for s in tr.spans if s.name == "tjoin.solve"),
            "removed": len(rd.embedding.removed_edge_ids),
        }
    )
    return sample


def measure_traced(workload: Workload, seed: int) -> Run:
    """Traced run: one pass; per design an untraced reference, the traced
    replay (checked against it), and the T-join in optimized gadget mode."""
    run = Run(attempted=workload.designs)
    designs, _, build_s = setup(workload, seed, run)
    gc.collect()
    samples: list[dict] = []
    for design in designs:
        out = _run_design(workload, design, run)
        if out is None:
            continue
        det, cor, _, (_, td, tc) = out
        text = design.text or serialize_layout(design.layout)
        tr = Tracer()
        stage = "replay"
        scale = host_scale()
        try:
            with tr.span("layout.parse"):
                layout = parse_layout(text)
            rd = traced_detect(tr, layout)
            rc = traced_correct(tr, rd)
            stage = "optimized"
            with tr.span("tjoin.optimized.solve"):
                _, opt_weight, _ = bipartize_optimal(rd.embedding, rd.dual, MODE_OPTIMIZED)
        except Exception as exc:  # the replay runs what detect/correct just ran
            _fail(run, design.seed, stage, exc)
            continue
        problems = check_design(det, cor)
        if render_report(rd.report) != render_report(det.report):
            problems.append("traced replay report differs from detect()")
        if render_report(rc.report) != render_report(cor.report):
            problems.append("traced replay report differs from correct()")
        if opt_weight != rd.optimal_weight:
            problems.append(
                f"gadget modes disagree: generalized={rd.optimal_weight} "
                f"optimized={opt_weight}"
            )
        for p in problems:
            run.failures.append(Failure(design.seed, "check", "check", p))
        sample = _layer_sample(tr, rd, rc, scale)
        sample["generator.generate_s"] = build_s[design.seed]
        sample["trace.overhead_s"] = sample["traced_s"] - (td + tc)
        samples.append(sample)
    if not samples:
        return run

    def total(key):
        return sum(s[key] for s in samples)

    for name, unit in PER_LAYER.items():
        if name.endswith("_ratio"):
            continue
        values = [s[name] for s in samples]
        run.metrics[name] = (
            statistics.median(values) if unit == "s" else sum(values) / len(values)
        )
    removed = total("removed")
    readmitted = removed - total("bipartize.conflicts_planarization")
    run.metrics["bipartize.readmitted_ratio"] = readmitted / removed if removed else 0.0
    run.metrics["tjoin.optimized_ratio"] = total("tjoin.optimized.solve_s") / total(
        "first_solve_s"
    )
    run.metrics = {name: run.metrics[name] for name in PER_LAYER}
    run.info = {"designs": len(samples)}
    return run


def result_json(run: Run, units: dict[str, str]) -> dict:
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failed_seeds),
        "metrics": {
            name: {"value": run.metrics[name], "unit": units[name]} for name in units
        },
    }


def print_run(name: str, run: Run, units: dict[str, str]) -> None:
    for f in run.failures:
        print(
            f"failure workload={name} design_seed={f.design_seed} "
            f"stage={f.stage} kind={f.kind} {f.message}"
        )
    for key, value in run.info.items():
        print(f"info workload={name} {key}={value}")
    for metric, unit in units.items():
        print(f"metric workload={name} {metric}={run.metrics[metric]:.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own child process, so that each one's
    peak_rss_mb is its own peak and not the running peak of those before it.
    The children's lines are passed through; the last line is one JSON object
    of their results by workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, str(RUN_PY), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        *lines, last = child.stdout.splitlines() or [""]
        for line in lines:
            print(line)
        try:
            results[name] = json.loads(last)
        except json.JSONDecodeError:
            print(last)
            print(f"workload {name}: no result (exit {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        status = status or child.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    workload = WORKLOADS[name]
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        run = measure_traced(workload, args.seed)
    else:
        run = measure(workload, args.seed, args.seconds)
    if not run.metrics:
        print_run(name, run, {})
        print(f"workload {name}: no design completed", file=sys.stderr)
        return 1
    print_run(name, run, units)
    result = result_json(run, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
