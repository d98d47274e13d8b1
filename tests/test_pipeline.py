"""Whole-pipeline integration, including the crossing-heavy path."""

import dataclasses
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import aapsm.bipartize
import aapsm.pipeline
from aapsm import conflict_graph
from aapsm.bipartize import ORIGIN_PLANARIZATION, bipartize_optimal, finalize_conflicts
from aapsm.conflict_graph import (
    WEIGHT_SEPARATION,
    WEIGHT_UNIFORM,
    BipartiteResult,
    phase_assign,
    signed_components,
)
from aapsm.errors import (
    EXIT_INPUT_ERROR,
    AapsmError,
    InternalInvariantError,
    LayoutValidationError,
    UncorrectableConflictError,
)
from aapsm.generator import generate_layout
from aapsm.layout import FEATURE_LAYER, DesignRules, Layout, Rect, parse_layout, serialize_layout
from aapsm.pipeline import correct, detect, render_report
from aapsm.planar import build_dual, planarize
from aapsm.tjoin import GADGET_MODES
from aapsm.unionfind import ParityUnionFind

from conftest import (
    cli_env,
    darts_instance,
    gadget_route_tjoin,
    manhattan_layout,
    spy_blossom,
    spy_darts_solve,
    tool_module,
)

broken_promises = tool_module("fuzz_correct").broken_promises

TANGLED_ROW = """rules 150 100 0 501
bbox -1500 -1500 2500 2500
rect poly 0 0 100 800
rect poly 350 0 450 800
rect poly 700 0 800 800
"""


class TestCrossingHeavyPath:
    """Every shifter center sits on one horizontal line and outer shifters
    overlap across the middle wire, so coincident nodes and collinear edges
    (decided by the symbolic perturbation), crossing removal, and the
    post-planarization odd-cycle re-check all engage."""

    def test_detect_via_planarization_recheck(self):
        layout = parse_layout(TANGLED_ROW)
        res = detect(layout, run_greedy_baseline=True)
        assert len(set(res.graph.positions)) < len(res.graph.positions)
        assert res.embedding.removed_edge_ids
        assert len(res.conflicts) > 0
        assert any(
            c.origin == ORIGIN_PLANARIZATION for c in res.conflicts.conflicts
        )
        assert signed_components(res.graph, frozenset(res.conflicts.edge_ids))[2] is None
        assert len(res.conflicts) >= len(res.optimal_edge_ids)

    def test_correction_still_converges(self):
        layout = parse_layout(TANGLED_ROW)
        res = detect(layout)
        cor = correct(res)
        assert cor.residual_conflicts == 0
        assert cor.uncovered == ()
        assert cor.area.pct_increase > 0


class TestReports:
    def test_report_keys_ordered_and_stable(self):
        layout = generate_layout(21, features=9, motif_density=0.6)
        a = render_report(detect(layout, run_greedy_baseline=True).report)
        b = render_report(detect(layout, run_greedy_baseline=True).report)
        assert a == b
        keys = [line.split("=", 1)[0] for line in a.strip().splitlines()]
        assert keys.index("polygons") < keys.index("conflicts_np") < keys.index(
            "conflicts_pcg"
        )

    def test_timing_lines_absent_by_default(self):
        layout = generate_layout(23, features=6, motif_density=0.5)
        report = dict(detect(layout).report)
        assert not any(k.startswith("match_time") for k in report)


class TestRandomTangles:
    def test_correction_never_lies(self):
        """On arbitrary random tangles every run must end in one of: fully
        corrected (residual 0) or an honest uncovered listing; never a
        silent residual, and never a geometry rejection, since the symbolic
        perturbation decides every tie of the drawing."""
        import random

        from conftest import micro_layout

        rng = random.Random(246810)
        checked = 0
        while checked < 60:
            layout = micro_layout(rng, max_features=6)
            if layout is None:
                continue
            detection = detect(layout)
            correction = correct(detection, allow_uncovered=True)
            if not correction.uncovered:
                assert correction.residual_conflicts == 0
            checked += 1


@st.composite
def arbitrary_layouts(draw):
    """(rects, rules, bbox, whether the bbox contains every rect): poly wires
    of either orientation on a 10 nm grid, kept interior-disjoint, plus a few
    rects on another layer; no bbox, a containing one, or one whose edge is
    pulled in past some rect."""
    grid = st.integers(0, 150).map(lambda v: 10 * v)
    rects: list[Rect] = []
    for x, y, short, long, vertical in draw(
        st.lists(
            st.tuples(grid, grid, st.integers(10, 200), st.integers(10, 1500), st.booleans()),
            min_size=2,
            max_size=8,
        )
    ):
        w, h = (short, long) if vertical else (long, short)
        rect = Rect(x, y, x + w, y + h, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(r) for r in rects):
            rects.append(rect)
    for x, y, w, h in draw(
        st.lists(st.tuples(grid, grid, st.integers(1, 3000), st.integers(1, 3000)), max_size=2)
    ):
        rects.append(Rect(x, y, x + w, y + h, "metal", len(rects)))
    rules = DesignRules(
        draw(st.integers(50, 250)),
        draw(st.integers(10, 300)),
        draw(st.integers(0, 150)),
        draw(st.integers(1, 400)),
    )
    x_lo, y_lo, x_hi, y_hi = Layout(tuple(rects)).bounding_box()
    kind = draw(st.sampled_from(("none", "containing", "pulled-in")))
    if kind == "none":
        return rects, rules, None, True
    if kind == "containing":
        grow = draw(st.tuples(*[st.integers(0, 800)] * 4))
        return rects, rules, (x_lo - grow[0], y_lo - grow[1], x_hi + grow[2], y_hi + grow[3]), True
    side = draw(st.integers(0, 3))
    pull = draw(st.integers(1, 9))  # the first wire keeps the box 10 nm wide or more
    box = [x_lo, y_lo, x_hi, y_hi]
    box[side] += pull if side < 2 else -pull
    return rects, rules, tuple(box), False


class TestFuzzGate:
    """Any layout ends in a report or an input error (exit 2) in either
    weight mode, never in an internal failure (exit 4) or a Python exception;
    when every conflict was covered, none remains; and no pair a planned cut
    covers ends below the spacing (`broken_promises`' fault 1)."""

    @given(arbitrary_layouts())
    def test_only_input_errors_and_covered_means_clean(self, case):
        rects, rules, bbox, contained = case
        try:
            layout = Layout(tuple(rects), rules, bbox)
        except LayoutValidationError:
            assert not contained
            return
        assert contained
        for weight_mode in (WEIGHT_UNIFORM, WEIGHT_SEPARATION):
            try:
                det = detect(layout, weight_mode=weight_mode)
                cor = correct(det, allow_uncovered=True)
            except AapsmError as exc:
                assert exc.exit_code == EXIT_INPUT_ERROR, repr(exc)
                continue
            if not cor.uncovered:
                assert cor.residual_conflicts == 0
            broken = broken_promises(det, cor)
            assert "fault1" not in broken, broken


class TestResidualCount:
    """`correct` re-detects only when it inserted a space, and planarizes the
    corrected layout only when its conflict graph does not two-color; without
    a cut the residual count is the input detection's.  Either way it must
    equal a fresh `detect` of the corrected layout in the same weight mode,
    on both sides of the two-coloring, and every T-join solved on the way
    must weigh what the paper's gadget reduction in the given shape gives."""

    DESIGNS = {
        "comb": lambda: generate_layout(1, 40, 0.7),
        "rows": lambda: generate_layout(1, 150, 0.0),
        "tangled": lambda: parse_layout(TANGLED_ROW),
        # every conflict uncoverable in both weight modes: no cut, residual > 0
        "manhattan1029": lambda: manhattan_layout(1029),
        "manhattan1094": lambda: manhattan_layout(1094),
        # cuts under separation weights only
        "manhattan1035": lambda: manhattan_layout(1035),
        # cuts, and a residual that does not two-color: 10 conflicts remain
        "manhattan1000": lambda: manhattan_layout(1000),
    }

    @pytest.mark.parametrize("weight_mode", [WEIGHT_UNIFORM, WEIGHT_SEPARATION])
    @pytest.mark.parametrize("gadget_mode", GADGET_MODES)
    def test_matches_fresh_detect(self, gadget_mode, weight_mode, monkeypatch):
        calls = spy_darts_solve(monkeypatch)
        reused = 0
        cut_residual_left = set()  # a corrected layout with/without conflicts
        for name, make in self.DESIGNS.items():
            det = detect(make(), weight_mode=weight_mode)
            cor = correct(det, allow_uncovered=True)
            fresh = detect(cor.new_layout, weight_mode=weight_mode)
            assert cor.residual_conflicts == len(fresh.conflicts), name
            if not cor.plan.cuts and cor.residual_conflicts > 0:
                reused += 1
            if cor.plan.cuts:
                cut_residual_left.add(cor.residual_conflicts > 0)
        assert reused >= 2
        assert cut_residual_left == {False, True}
        solved = [(darts_instance(*darts), weight) for *darts, weight in calls]
        assert any(inst.t_nodes for inst, _ in solved)
        for inst, weight in solved:
            assert weight == gadget_route_tjoin(inst, gadget_mode)[1]

    @pytest.mark.parametrize("drift", ["rects", "bbox"])
    def test_layout_changed_without_cut_raises(self, monkeypatch, drift):
        det = detect(generate_layout(1, 150, 0.0))
        assert det.layout.bbox is not None
        apply = aapsm.pipeline.apply_spaces

        def drifting(layout, shifters, plan):
            new_layout, area = apply(layout, shifters, plan)
            if drift == "rects":
                changed = dataclasses.replace(new_layout, rects=new_layout.rects[1:])
            else:
                x1, y1, x2, y2 = new_layout.bbox
                changed = dataclasses.replace(new_layout, bbox=(x1, y1, x2 + 1, y2))
            return changed, area

        monkeypatch.setattr(aapsm.pipeline, "apply_spaces", drifting)
        with pytest.raises(InternalInvariantError, match="without cuts changed"):
            correct(det)


class TestCorrectErrors:
    def test_uncoverable_raises_with_listing(self):
        text = (
            "rules 150 200 0 500\n"
            "bbox -2000 -2000 4000 4000\n"
            "rect poly 0 0 100 800\n"
            "rect poly 250 0 350 800\n"
            "rect poly 500 0 600 800\n"
        )
        layout = parse_layout(text)
        res = detect(layout)
        with pytest.raises(UncorrectableConflictError) as err:
            correct(res)
        assert err.value.conflict_ids

    def test_allow_uncovered_mode_reports_rest(self):
        text = (
            "rules 150 200 0 500\n"
            "bbox -2000 -2000 4000 4000\n"
            "rect poly 0 0 100 800\n"
            "rect poly 250 0 350 800\n"
            "rect poly 500 0 600 800\n"
        )
        layout = parse_layout(text)
        res = detect(layout)
        cor = correct(res, allow_uncovered=True)
        assert cor.uncovered


class TestBalancedShortcut:
    """`detect` settles a design whose conflict graph two-colors with the
    empty conflict set, and runs no embedding, dual, T-join or conflict
    selection on it.  Run anyway, that back half must find no odd face and
    no conflict, and give the shortcut's crossing count, phases and report."""

    @staticmethod
    def balanced_layouts(weight_mode):
        for seed in range(1, 7):
            for features in (30, 150):
                yield generate_layout(seed, features, 0.0)
            comb = detect(generate_layout(seed, 40, 0.7), weight_mode=weight_mode)
            yield correct(comb).new_layout

    @pytest.mark.parametrize("weight_mode", [WEIGHT_UNIFORM, WEIGHT_SEPARATION])
    def test_full_back_half_agrees(self, weight_mode):
        for layout in self.balanced_layouts(weight_mode):
            det = detect(layout, weight_mode=weight_mode, run_greedy_baseline=True)
            assert ("balanced_before", "1") in det.report
            emb = planarize(det.graph)
            dual = build_dual(emb)
            assert all(d % 2 == 0 for d in dual.degrees())  # T is empty
            optimal_edge_ids, optimal_weight, _ = bipartize_optimal(emb, dual)
            conflicts = finalize_conflicts(det.graph, emb.removed_edge_ids, optimal_edge_ids)
            assert (optimal_edge_ids, optimal_weight) == ((), 0)
            assert (conflicts.conflicts, conflicts.total_weight) == ((), 0)
            assert emb.removed_edge_ids == det.removed_edge_ids
            assert phase_assign(det.graph, frozenset(conflicts.edge_ids)) == det.phases
            full = {
                "crossings_removed": len(emb.removed_edge_ids),
                "conflicts_np": len(optimal_edge_ids),
                "weight_np": optimal_weight,
                "conflicts_pcg": len(conflicts),
                "weight_pcg": conflicts.total_weight,
            }
            expected = [(k, str(full[k]) if k in full else v) for k, v in det.report]
            assert render_report(expected) == render_report(det.report)


class TestFaultsStillCaught:
    """`detect` checks balance once, on its output; each fault below breaks
    an invariant whose own re-check was dropped as implied by a kept one,
    and must still end in InternalInvariantError."""

    def test_short_tjoin_unbalances_survivors(self, monkeypatch):
        layout = generate_layout(1, 40, 0.7)
        solve = aapsm.bipartize.solve_on_darts

        def short_join(face_of, weights):
            join, weight, seconds = solve(face_of, weights)
            return join[1:], weight, seconds

        monkeypatch.setattr(aapsm.bipartize, "solve_on_darts", short_join)
        with pytest.raises(InternalInvariantError, match="surviving embedded graph"):
            detect(layout)

    def test_dart_on_its_twins_face_unbalances_survivors(self, monkeypatch):
        """The T-join reads each face's dart count off `face_of` alone.  A
        kept dart moved onto its twin's face flips the parity of both
        faces, so the join solves for the wrong T."""
        layout = generate_layout(1, 40, 0.7)
        embed = aapsm.pipeline.embed

        def dart_2_moved(g, removed):
            emb = embed(g, removed)
            face_of = list(emb.face_of)
            assert face_of[2] != face_of[3]  # edge 1 is kept and not a bridge
            face_of[2] = face_of[3]
            return dataclasses.replace(emb, face_of=face_of)

        monkeypatch.setattr(aapsm.pipeline, "embed", dart_2_moved)
        with pytest.raises(
            InternalInvariantError, match="surviving embedded graph is not balanced"
        ) as caught:
            detect(layout)
        assert caught.value.exit_code == 4

    @pytest.mark.parametrize(
        "density, witness", [(0.7, None), (0.0, (0, 1, 2))], ids=["comb", "rows"]
    )
    def test_two_coloring_disagreeing_with_conflicts(self, monkeypatch, density, witness):
        layout = generate_layout(1, 40, density)
        verdict = BipartiteResult(witness is None, witness)
        monkeypatch.setattr(aapsm.pipeline, "is_bipartite", lambda g: verdict)
        with pytest.raises(InternalInvariantError, match="disagree"):
            detect(layout)

    @pytest.mark.parametrize(
        "design, message",
        [
            # casualty 4 contradicts the survivors; readmitted, it leaves
            # the final two-coloring of finalize an unbalanced cycle
            (
                "tangled",
                r"^graph without the conflicts is not balanced after re-check: "
                r"unbalanced cycle \(1, 15, 16, 19, 20\)$",
            ),
            # no casualty: the greedy baseline's phases find the cycle
            ("comb", "residual unbalanced cycle"),
        ],
        ids=["tangled", "comb"],
    )
    def test_union_find_missing_contradictions(self, monkeypatch, design, message):
        if design == "tangled":
            layout = parse_layout(TANGLED_ROW)
        else:
            layout = generate_layout(1, 40, 0.7)
        union = ParityUnionFind.union

        def never_contradicts(self, x, y, relation):
            union(self, x, y, relation)
            return True

        monkeypatch.setattr(ParityUnionFind, "union", never_contradicts)
        with pytest.raises(InternalInvariantError, match=message) as caught:
            detect(layout, run_greedy_baseline=True)
        assert caught.value.exit_code == 4

    @pytest.mark.parametrize("density", [0.0, 0.7], ids=["rows", "comb"])
    def test_phases_violating_a_kept_constraint(self, monkeypatch, density):
        layout = generate_layout(1, 40, density)

        def all_zero(g, removed):
            return [0] * len(g.nodes), list(range(len(g.nodes))), None

        monkeypatch.setattr(conflict_graph, "signed_components", all_zero)
        with pytest.raises(InternalInvariantError, match=r"edge \d+ constraint violated"):
            detect(layout)


NO_NETWORKX = """
import sys
for oracle_dep in ("networkx", "numpy", "scipy"):
    sys.modules[oracle_dep] = None  # any import of it now fails
from aapsm.layout import parse_layout
from aapsm.pipeline import correct, detect, render_report
det = detect(parse_layout(sys.stdin.read()))
print(render_report(det.report))
print(render_report(correct(det, allow_uncovered=True).report))
"""


def test_detect_and_correct_import_no_networkx(monkeypatch):
    """networkx, numpy and scipy serve the test oracles only: `detect` and
    `correct` run, blossom included, in a process where importing any of
    them fails, and report what they report here."""
    layout = manhattan_layout(1004)
    with monkeypatch.context() as m:
        blossom_nodes = spy_blossom(m)
        det = detect(layout)
    assert blossom_nodes  # this design reaches the matcher
    expect = render_report(det.report) + "\n" + render_report(
        correct(det, allow_uncovered=True).report
    )
    run = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX],
        input=serialize_layout(layout),
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == expect + "\n"
