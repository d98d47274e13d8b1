"""`tools/output_digest.py`, the byte-identity check over the benchmark
designs, runs against the package API it reads (`dump_graph`, and
`build_dual` on the detection's embedding)."""

import importlib.util
import sys
from pathlib import Path

import pytest

from aapsm import correct, detect, parse_layout
from aapsm.conflict_graph import WEIGHT_SEPARATION, WEIGHT_UNIFORM
from aapsm.pipeline import render_report
from aapsm.planar import build_dual

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def tool():
    """The tool loaded from its path.  Loading puts `src` and `perfbench`
    on sys.path and turns bytecode writing off; both are restored."""
    path, no_bytecode = list(sys.path), sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, no_bytecode
    return module


def first_design(tool, workload: str):
    w = tool.workloads.WORKLOADS[workload]
    d = tool.workloads.make_design(w, tool.workloads.design_seeds(1, w.designs)[0])
    return parse_layout(d.text) if d.text is not None else d.layout


def line_kinds(text: str) -> set[str]:
    return {line.split()[0] for line in text.splitlines() if line}


@pytest.mark.parametrize("weight_mode", [WEIGHT_UNIFORM, WEIGHT_SEPARATION])
@pytest.mark.parametrize("workload", ["comb_40", "rows_150", "manhattan_batch"])
def test_design_output_covers_every_part(tool, workload, weight_mode):
    layout = first_design(tool, workload)
    plain, extended = tool.design_output(layout, weight_mode)
    det = detect(layout, weight_mode=weight_mode, run_greedy_baseline=True)
    report = render_report(correct(det, allow_uncovered=True).report)
    assert plain.startswith(report)
    assert {"conflicts", "phases", "face", "node"} <= line_kinds(plain[len(report):])
    extra = extended.splitlines()
    assert extra[0] == f"optimal {det.optimal_edge_ids} {det.optimal_weight}"
    nodes = [line for line in plain.splitlines() if line.startswith("node ")]
    assert len(nodes) == len(det.graph.positions)
    if workload == "comb_40":
        assert ("balanced_before", "0") in det.report
        duals = [line for line in extra if line.startswith("dual ")]
        assert len(duals) == len(build_dual(det.embedding).edges) > 0
