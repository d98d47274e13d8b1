"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import subprocess
import sys
import time

import pytest

from aapsm.bipartize import bipartize_optimal, finalize_conflicts
from aapsm.conflict_graph import is_bipartite
from aapsm.errors import MatchingInfeasibleError
from aapsm.generator import generate_layout
from aapsm.matching import min_weight_perfect_matching
from aapsm.pipeline import correct, detect
from aapsm.planar import build_dual, planarize
from aapsm.tjoin import MODE_GENERALIZED, MODE_OPTIMIZED, solve_tjoin, tjoin_from_graph

from conftest import (
    cli_env,
    gadget_route_tjoin,
    micro_pcg,
    random_multigraph,
    sample_micro_pcgs,
)
from oracles import (
    min_bipartization_weight,
    min_perfect_matching_weight,
    min_tjoin_weight,
    phase_feasible,
)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


# ---------------------------------------------------------------------------
# shared correction suite (criteria 6, 7, 8)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def correction_suite():
    runs = []
    rng = random.Random(600)
    for i in range(100):
        seed = 10_000 + i
        features = rng.randint(8, 16)
        density = rng.choice((0.5, 0.7, 1.0))
        layout = generate_layout(seed, features=features, motif_density=density)
        detection = detect(layout, design_name=f"synt{i}")
        correction = correct(detection)
        runs.append((seed, layout, detection, correction))
    return runs


class TestAcceptance:
    def test_criterion_1_bipartization_oracle_optimality(self):
        with criterion(1, "optimal bipartization matches subset oracle (200 instances)"):
            start = time.perf_counter()
            instances = sample_micro_pcgs(
                9001, 200, max_features=4, require_planar=True, max_edges=14
            )
            for _layout, _shifters, _pairs, g in instances:
                emb = planarize(g)
                assert emb.removed_edge_ids == ()
                m_ids, weight, _ = bipartize_optimal(emb, build_dual(emb))
                expect = min_bipartization_weight(
                    len(g.nodes),
                    [(e.u, e.v, e.weight, e.is_equal_constraint) for e in g.edges],
                )
                assert weight == expect, f"got {weight}, oracle {expect}"
                conflicts = finalize_conflicts(g, (), m_ids)
                assert conflicts.total_weight == expect
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"

    def test_criterion_2_tjoin_and_matching_oracle_optimality(self):
        with criterion(2, "T-join and matching match enumeration oracles (200 each)"):
            rng = random.Random(9002)
            for _ in range(200):
                n, edges = random_multigraph(rng, max_nodes=6, max_edges=8)
                inst = tjoin_from_graph(range(n), edges)
                expect = min_tjoin_weight(
                    range(n), [(e.u, e.v, e.weight) for e in inst.edges], inst.t_nodes
                )
                _, weight, _ = solve_tjoin(inst)
                assert weight == expect
                assert gadget_route_tjoin(inst, MODE_GENERALIZED)[1] == expect

            rng = random.Random(9003)
            for _ in range(200):
                n = rng.choice((4, 6, 8, 10, 12))
                edges = []
                for u in range(n):
                    for v in range(u + 1, n):
                        if rng.random() < rng.uniform(0.3, 0.9):
                            edges.append((u, v, rng.randint(0, 40)))
                expect = min_perfect_matching_weight(range(n), edges)
                if expect is None:
                    with pytest.raises(MatchingInfeasibleError):
                        min_weight_perfect_matching(range(n), edges)
                else:
                    _, total = min_weight_perfect_matching(range(n), edges)
                    assert total == expect

    def test_criterion_3_gadget_mode_equivalence(self):
        with criterion(3, "generalized and optimized gadgets agree (500 instances)"):
            rng = random.Random(9004)
            for _ in range(500):
                n, edges = random_multigraph(rng, max_nodes=6, max_edges=8)
                inst = tjoin_from_graph(range(n), edges)
                # the gadgets on every component that holds T, since
                # solve_tjoin matches only components with |T| > 4
                _, w_gen = gadget_route_tjoin(inst, MODE_GENERALIZED)
                _, w_opt = gadget_route_tjoin(inst, MODE_OPTIMIZED)
                assert w_gen == w_opt
                assert solve_tjoin(inst)[1] == w_gen

    def test_criterion_4_detector_matches_exhaustive_assignment(self):
        with criterion(4, "balance verdict equals exhaustive phase assignment (500 layouts)"):
            rng = random.Random(9005)
            checked = 0
            while checked < 500:
                inst = micro_pcg(rng, max_features=rng.randint(2, 8))
                if inst is None:
                    continue
                _layout, shifters, pairs, g = inst
                if len(shifters) > 16:
                    continue
                constraints = []
                by_feature: dict[int, list[int]] = {}
                for s in shifters:
                    by_feature.setdefault(s.feature_id, []).append(s.id)
                for a, b in by_feature.values():
                    constraints.append((a, b, False))
                for a, b, _sep in pairs:
                    constraints.append((a, b, True))
                assert is_bipartite(g).ok == phase_feasible(len(shifters), constraints)
                checked += 1

    def test_criterion_5_conflict_count_trends(self):
        with criterion(5, "PCG >= NP on every design; mean GB >= mean PCG (24 designs)"):
            rng = random.Random(9006)
            pcg_counts, np_counts, gb_counts = [], [], []
            for seed in range(1, 25):
                layout = generate_layout(
                    seed,
                    features=rng.randint(12, 26),
                    motif_density=rng.choice((0.3, 0.5, 0.8, 1.0)),
                )
                detection = detect(layout, run_greedy_baseline=True)
                n_np = len(detection.optimal_edge_ids)
                n_pcg = len(detection.conflicts)
                n_gb = len(detection.greedy[0])
                assert n_pcg >= n_np
                np_counts.append(n_np)
                pcg_counts.append(n_pcg)
                gb_counts.append(n_gb)
            mean_gb = statistics.mean(gb_counts)
            mean_pcg = statistics.mean(pcg_counts)
            assert mean_gb >= mean_pcg, f"GB mean {mean_gb} < PCG mean {mean_pcg}"
            assert sum(pcg_counts) > 0

    def test_criterion_6_end_to_end_correction(self, correction_suite):
        with criterion(6, "correction removes every conflict; area identity exact (100 layouts)"):
            for seed, layout, detection, correction_r in correction_suite:
                assert len(detection.conflicts) > 0, f"seed {seed} produced no conflicts"
                assert correction_r.uncovered == ()
                assert correction_r.residual_conflicts == 0, f"seed {seed} has residuals"
                area = correction_r.area
                assert area.new_area_nm2 > area.old_area_nm2
                x1, y1, x2, y2 = layout.bbox
                w, h = x2 - x1, y2 - y1
                expect = (w + area.inserted_x_nm) * (h + area.inserted_y_nm)
                assert area.new_area_nm2 == expect  # exact arithmetic identity

    def test_criterion_7_area_band_and_shared_cut(self, correction_suite):
        with criterion(7, "median area increase in band; some cut fixes >= 3 conflicts"):
            pcts = [c.area.pct_increase for _, _, _, c in correction_suite]
            median = statistics.median(pcts)
            print(f"  median area increase: {median:.3f}% over {len(pcts)} seeds")
            assert 0.0 < median < 20.0
            best_shared = max(
                max((len(cut.covered) for cut in c.plan.cuts), default=0)
                for _, _, _, c in correction_suite
            )
            print(f"  best single-cut conflict coverage: {best_shared}")
            assert best_shared >= 3

    def test_criterion_8_greedy_cover_quality(self, correction_suite):
        with criterion(8, "greedy cover width <= 2x exact optimum (instances <= 20 cuts)"):
            compared = 0
            for _seed, _layout, _detection, c in correction_suite:
                plan = c.plan
                if plan.exact_total_width is None or plan.exact_total_width == 0:
                    continue
                compared += 1
                assert plan.greedy_total_width <= 2 * plan.exact_total_width, (
                    f"greedy {plan.greedy_total_width} vs exact {plan.exact_total_width}"
                )
            assert compared >= 50  # the suite must actually exercise the gate

    def test_criterion_9_byte_reproducibility(self, tmp_path):
        with criterion(9, "generate/detect/correct are byte-reproducible"):
            lay = tmp_path / "r.lay"
            fixed_a = tmp_path / "a.fixed"
            fixed_b = tmp_path / "b.fixed"

            def run(args):
                proc = subprocess.run(
                    [sys.executable, "-m", "aapsm.cli", *args],
                    capture_output=True,
                    text=True,
                    env=cli_env(),
                )
                assert proc.returncode == 0, proc.stderr
                return proc.stdout

            gen_cmd = ["generate", "--seed", "77", "--features", "12", "--density", "0.8"]
            out_a = run(gen_cmd + ["--out", str(lay)])
            bytes_a = lay.read_text()
            out_b = run(gen_cmd + ["--out", str(lay)])
            assert bytes_a == lay.read_text() and out_a == out_b

            det_cmd = ["detect", str(lay), "--baseline-gb"]
            assert run(det_cmd) == run(det_cmd)

            cor_a = run(["correct", str(lay), "--out", str(fixed_a)])
            cor_b = run(["correct", str(lay), "--out", str(fixed_b)])
            assert cor_a == cor_b
            assert fixed_a.read_text() == fixed_b.read_text()
