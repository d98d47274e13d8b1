"""`tools/output_digest.py`, the byte-identity check over the benchmark
designs, runs against the package API it reads (`dump_graph`, and
`build_dual` on the detection's embedding)."""

import pytest

from aapsm import correct, detect, parse_layout
from aapsm.conflict_graph import WEIGHT_SEPARATION, WEIGHT_UNIFORM
from aapsm.pipeline import render_report
from aapsm.planar import build_dual

from conftest import tool_module


@pytest.fixture(scope="module")
def tool():
    """The tool loaded from its path, with `src` and `perfbench` off
    sys.path again and bytecode writing restored."""
    return tool_module("output_digest")


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


def test_outputs_match_the_pinned_digest(tool, capsys):
    """Every output of seeds 1 and 2, and of seed 3 on its own, pinned.  A
    change meant to alter the outputs updates these digests and gives its
    reason in CHANGES.md."""
    assert tool.main(["1", "2"]) == 0
    assert capsys.readouterr().out == (
        "runs=1072 digest=47e01147cd43ad880026aee3baae35456ca920cc30e5c69da449311a2822ff95"
        " extended=f5df8a82706d9df3f2943c63b86f4c372ec2c340efd1d8f210ee4d1c7694008b\n"
    )
    assert tool.main(["3"]) == 0
    assert capsys.readouterr().out == (
        "runs=536 digest=3f17741604f7b6c470620791beaa614e9353903e29783dc63617d767a5812994"
        " extended=dd5bf258fa8dbfa466eabe7f7894efdf243426558a47d8cabab96bb5c78838db\n"
    )
