"""Self-tests of the benchmark: inputs, metric names, and the traced replay."""

import dataclasses
import functools
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

from aapsm import (  # noqa: E402
    Layout,
    correct,
    detect,
    generate_layout,
    parse_layout,
    serialize_layout,
)
from aapsm.pipeline import render_report  # noqa: E402

import bench  # noqa: E402
from replay import Tracer, traced_correct, traced_detect  # noqa: E402
from workloads import WORKLOADS, design_seeds, make_design  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_and_valid(name):
    workload = WORKLOADS[name]
    seeds = design_seeds(7, 2)
    first = [make_design(workload, s) for s in seeds]
    again = [make_design(workload, s) for s in seeds]
    assert first == again
    assert first[0].layout != first[1].layout
    for design in first:
        layout = design.layout
        Layout(layout.rects, layout.rules, layout.bbox)  # validates
        text = design.text or serialize_layout(layout)
        assert parse_layout(text) == layout
        assert (design.text is not None) == workload.parse


def test_metric_names_are_legal_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*e2e, *layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize(
    "layout",
    [generate_layout(3, 20, 0.6), WORKLOADS["manhattan_batch"].make(5)],
    ids=["comb", "manhattan"],
)
def test_traced_replay_equals_detect_and_correct(layout):
    det = detect(layout)
    cor = correct(det, allow_uncovered=True)
    tr = Tracer()
    rd = traced_detect(tr, layout)
    rc = traced_correct(tr, rd)
    assert render_report(rd.report) == render_report(det.report)
    assert render_report(rc.report) == render_report(cor.report)
    top = [s.name for s in tr.spans if s.parent is None]
    assert top == ["pipeline.detect", "pipeline.correct"]
    assert all(s.end >= s.start for s in tr.spans)


def test_runs_report_every_metric_on_a_small_workload():
    tiny = dataclasses.replace(
        WORKLOADS["comb_40"],
        designs=2,
        make=functools.partial(generate_layout, features=12, motif_density=0.5),
    )
    run = bench.measure(tiny, seed=1, seconds=0)
    assert run.correct and not run.failures
    assert set(run.metrics) == set(bench.END_TO_END)
    assert all(v != 0 for v in run.metrics.values())
    traced = bench.measure_traced(tiny, seed=1)
    assert traced.correct and not traced.failures
    assert list(traced.metrics) == list(bench.PER_LAYER)
