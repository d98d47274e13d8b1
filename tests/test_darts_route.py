"""The back half of an unbalanced `detect` against the routes it replaced.

The T-join is read off the embedding's darts (`solve_on_darts` through
`bipartize_optimal`); it must pick what `solve_tjoin` picks over the dual's
own edge records, with the same blossom calls.  The conflict selection
two-colors the survivors once and re-tests the casualties over their
components; it must charge what one parity union-find over every node
charged (`finalize_oracle`), with the same phases.
"""

import pytest

import aapsm.tjoin
from aapsm import planar
from aapsm.bipartize import ORIGIN_PLANARIZATION, bipartize_optimal
from aapsm.conflict_graph import PHASE_B, WEIGHT_SEPARATION, WEIGHT_UNIFORM
from aapsm.generator import generate_layout
from aapsm.pipeline import correct, detect
from aapsm.planar import build_dual
from aapsm.tjoin import TJoinInstance, solve_tjoin

from conftest import manhattan_layout, spy_blossom
from oracles import finalize_oracle

DESIGNS = (
    [(f"manhattan{s}", lambda s=s: manhattan_layout(s)) for s in range(5000, 5050)]
    + [(f"comb{s}", lambda s=s: generate_layout(s, 40, 0.7)) for s in range(1, 11)]
    + [("comb400", lambda: generate_layout(1, 400, 0.7))]
)
WEIGHT_MODES = [WEIGHT_UNIFORM, WEIGHT_SEPARATION]


@pytest.fixture(scope="module", params=WEIGHT_MODES)
def detections(request):
    """Every design's detection in one weight mode."""
    return [(name, detect(make(), weight_mode=request.param)) for name, make in DESIGNS]


def record_route(monkeypatch, solve):
    with monkeypatch.context() as m:
        blossom_nodes = spy_blossom(m)
        ids, weight, _ = solve()
    return tuple(ids), weight, blossom_nodes


def test_darts_route_matches_dual_records(monkeypatch, detections):
    matched = 0
    for name, det in detections:
        emb = det.embedding
        dual = build_dual(emb)
        darts = record_route(monkeypatch, lambda: bipartize_optimal(emb))
        inst = TJoinInstance(
            tuple(range(dual.n_faces)), tuple(e for e in dual.edges if not e.is_self_loop)
        )
        join, weight, blossom_nodes = record_route(monkeypatch, lambda: solve_tjoin(inst))
        primal = tuple(sorted(dual.edges[k].primal_edge_id for k in join))
        records = (primal, weight, blossom_nodes)
        assert darts == records, name
        assert darts[:2] == (det.optimal_edge_ids, det.optimal_weight), name
        matched += bool(blossom_nodes)
    assert matched > 0  # some design reaches blossom


def test_finalize_matches_signed_forest_oracle(detections):
    readmitted = charged = 0
    for name, det in detections:
        origin, phases = finalize_oracle(det.graph, det.removed_edge_ids, det.optimal_edge_ids)
        assert {c.edge_id: c.origin for c in det.conflicts.conflicts} == origin, name
        assert det.phases == phases, name
        assert det.conflicts.colors == tuple(
            int(phases[n.id] == PHASE_B) for n in det.graph.nodes
        ), name
        casualties = set(det.removed_edge_ids)
        charged_here = {e for e, o in origin.items() if o == ORIGIN_PLANARIZATION}
        charged += bool(charged_here)
        readmitted += bool(casualties - charged_here)
    # casualties both rejoin the graph and get charged
    assert charged > 0 and readmitted > 0, (charged, readmitted)


def test_unbalanced_detect_and_correct_build_no_dual_records(monkeypatch):
    built = {"DualEdge": 0, "TJoinInstance": 0, "_SpanningForest": 0}
    classes = {
        "DualEdge": planar.DualEdge,
        "TJoinInstance": aapsm.tjoin.TJoinInstance,
        "_SpanningForest": aapsm.tjoin._SpanningForest,
    }

    def counted(name, init):
        def spy(self, *args, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        return spy

    with monkeypatch.context() as m:
        for name, cls in classes.items():
            m.setattr(cls, "__init__", counted(name, cls.__init__))
        det = detect(manhattan_layout(1000))
        cor = correct(det, allow_uncovered=True)
        assert ("balanced_before", "0") in det.report and det.removed_edge_ids
        assert cor.plan.cuts and cor.residual_conflicts > 0  # residual back half ran
        assert built == dict.fromkeys(built, 0)
        det.dual  # built on access, which the spies see
        assert built["DualEdge"] == len(det.embedding.kept_edge_ids)
