"""Shared fixtures: hand-built conflict fixtures and random instance samplers."""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import pathlib
import random
import sys

import pytest
from hypothesis import settings

import aapsm
from aapsm.conflict_graph import build_conflict_graph
from aapsm.errors import LayoutValidationError
from aapsm.layout import (
    DesignRules,
    FEATURE_LAYER,
    Layout,
    Rect,
    SHIFTER_LAYER,
    SIDE_HIGH,
    SIDE_LOW,
    Shifter,
    find_overlapping_pairs,
    generate_shifters,
)
from aapsm.planar import find_crossings
from aapsm.tjoin import (
    MODE_GENERALIZED,
    MODE_OPTIMIZED,
    TJoinEdge,
    TJoinInstance,
    _SpanningForest,
    build_generalized_gadget_graph,
    build_optimized_gadget_graph,
)

from oracles import cyclic_form, find_crossings_oracle, gadget_tjoin, perturbed_angular_order

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def cli_env() -> dict[str, str]:
    """Environment for `python -m aapsm.cli` subprocesses: the package under
    test leads PYTHONPATH, so the child imports the same code as the tests."""
    src = str(pathlib.Path(aapsm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@functools.cache
def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path (read only): the benchmark
    directory is not an importable package."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def manhattan_layout(design_seed: int):
    """The benchmark's manhattan_batch design for this seed."""
    return perfbench_module("workloads").manhattan_layout(design_seed)


def built_positions(shifters, pairs):
    """Each node's position as the layout gives it, in quarter-nm: shifter
    centers in shifter id order, then the midpoint of each overlap pair's
    two centers in pair order."""
    center = {
        s.id: (2 * (s.rect.x_lo + s.rect.x_hi), 2 * (s.rect.y_lo + s.rect.y_hi))
        for s in shifters
    }
    out = [center[sid] for sid in sorted(center)]
    for a, b, _ in sorted(pairs):
        (ax, ay), (bx, by) = center[a], center[b]
        out.append(((ax + bx) // 2, (ay + by) // 2))
    return tuple(out)


def assert_perturbed_plane_embedding(emb):
    """Each node's rotation is, as a cyclic order, the angular order of its
    kept edges' far ends in the perturbed drawing, and no two kept edges
    cross there, both by the oracles; the graph must be simple."""
    g = emb.graph
    for node_id, rot in emb.rotation.items():
        far = {}
        for eid in rot:
            e = g.edges[eid]
            far[e.v if e.u == node_id else e.u] = eid
        order = perturbed_angular_order(g.positions, node_id, list(far))
        assert cyclic_form(rot) == cyclic_form([far[m] for m in order]), node_id
    kept = set(emb.kept_edge_ids)
    assert not [c for c in find_crossings_oracle(g) if kept.issuperset(c)]


def big_manhattan_layout(wires: int):
    """A dense design: manhattan_batch's wire mix (widths, lengths, 10 nm
    grid, half of the wires horizontal, rejection-sampled to disjoint
    interiors, bbox margin) at its density, on a square of side
    3000 * sqrt(wires / 12) nm rounded down to the grid, drawn with
    random.Random(1)."""
    w = perfbench_module("workloads")
    rng = random.Random(1)
    side = int(w.MANHATTAN_SPAN * math.sqrt(wires / w.MANHATTAN_WIRES))
    side -= side % w.MANHATTAN_GRID
    rects: list[Rect] = []
    while len(rects) < wires:
        width = rng.choice(w.MANHATTAN_WIDTHS)
        length = rng.randrange(*w.MANHATTAN_LENGTH, w.MANHATTAN_GRID)
        x = rng.randrange(0, side, w.MANHATTAN_GRID)
        y = rng.randrange(0, side, w.MANHATTAN_GRID)
        if rng.random() < 0.5:
            rect = Rect(x, y, x + width, y + length, FEATURE_LAYER, len(rects))
        else:
            rect = Rect(x, y, x + length, y + width, FEATURE_LAYER, len(rects))
        if not any(rect.interior_overlaps(other) for other in rects):
            rects.append(rect)
    m = w.MANHATTAN_MARGIN
    bbox = (
        min(r.x_lo for r in rects) - m,
        min(r.y_lo for r in rects) - m,
        max(r.x_hi for r in rects) + m,
        max(r.y_hi for r in rects) + m,
    )
    return Layout(tuple(rects), bbox=bbox)


def make_shifter(sid: int, feature_id: int, side: str, x: int, y: int, w=100, h=100):
    return Shifter(Rect(x, y, x + w, y + h, SHIFTER_LAYER, sid), feature_id, side, sid)


def feature_layout(shifters, rules: DesignRules) -> Layout:
    """The features these shifters flank, one per feature id, placed from
    its first shifter: a wire 100 nm wide along the shifter's long axis
    (squares count as vertical), `rules.shifter_gap` past its inner edge
    (right of or above a low shifter)."""
    features: dict[int, Rect] = {}
    gap, width = rules.shifter_gap, 100
    for s in shifters:
        r = s.rect
        if r.is_vertical:
            x = r.x_hi + gap if s.side == SIDE_LOW else r.x_lo - gap - width
            box = (x, r.y_lo, x + width, r.y_hi)
        else:
            y = r.y_hi + gap if s.side == SIDE_LOW else r.y_lo - gap - width
            box = (r.x_lo, y, r.x_hi, y + width)
        features.setdefault(s.feature_id, Rect(*box, FEATURE_LAYER, s.feature_id))
    return Layout(tuple(features.values()), rules)


RING_RULES = DesignRules(
    critical_width=150, shifter_width=200, shifter_gap=50, min_shifter_spacing=350
)


@pytest.fixture
def odd_ring_fixture():
    """Three features whose six shifters form a ring: consecutive ring
    neighbours overlap, producing a 9-edge unbalanced cycle (3 feature edges
    plus 3 two-edge overlap chains)."""
    anchors = [
        (0, 0),
        (400, -50),
        (800, 0),
        (800, 400),
        (400, 450),
        (0, 400),
    ]
    shifters = tuple(
        make_shifter(i, i // 2, SIDE_LOW if i % 2 == 0 else SIDE_HIGH, x, y)
        for i, (x, y) in enumerate(anchors)
    )
    pairs = find_overlapping_pairs(shifters, RING_RULES)
    assert {(a, b) for a, b, _ in pairs} == {(1, 2), (3, 4), (0, 5)}
    return shifters, pairs, RING_RULES


@pytest.fixture
def comb_layout():
    """Bar under two teeth: the bar's upper shifter overlaps both shifters of
    each tooth, one odd cycle per tooth."""
    rules = DesignRules(150, 200, 50, 200)
    rects = (
        Rect(0, 0, 2300, 100, FEATURE_LAYER, 0),  # bar
        Rect(400, 500, 500, 1300, FEATURE_LAYER, 1),  # tooth
        Rect(1300, 500, 1400, 1300, FEATURE_LAYER, 2),  # tooth
    )
    return Layout(rects, rules, (-600, -600, 2900, 1900))


def micro_layout(rng: random.Random, max_features=4):
    """Small random layout of vertical wires and horizontal bars; may be
    unassignable; rejects geometry the model cannot host."""
    rules = DesignRules(150, 200, 50, 200)
    n = rng.randint(2, max_features)
    rects = []
    for i in range(n):
        for _attempt in range(40):
            if rng.random() < 0.6:
                w, h = 100, rng.choice((600, 800, 1000))
            else:
                w, h = rng.choice((900, 1200, 1500)), 100
            x = rng.randrange(0, 2200, 25) + rng.choice((0, 3, 7, 11))
            y = rng.randrange(0, 2200, 25) + rng.choice((0, 1, 5, 13))
            cand = Rect(x, y, x + w, y + h, FEATURE_LAYER, i)
            if all(not cand.interior_overlaps(r) for r in rects):
                rects.append(cand)
                break
        else:
            return None
    try:
        return Layout(tuple(rects), rules)
    except LayoutValidationError:
        return None


def micro_pcg(rng: random.Random, max_features=4, require_planar=False, max_edges=None):
    """Random micro layout turned into a conflict graph; None when rejected."""
    layout = micro_layout(rng, max_features)
    if layout is None:
        return None
    shifters = generate_shifters(layout)
    pairs = find_overlapping_pairs(shifters, layout.rules)
    graph = build_conflict_graph(shifters, pairs, layout.rules)
    if max_edges is not None and len(graph.edges) > max_edges:
        return None
    if require_planar and find_crossings(graph):
        return None
    return layout, shifters, pairs, graph


def sample_micro_pcgs(seed: int, count: int, **kwargs):
    """Deterministic stream of accepted micro conflict-graph instances."""
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        assert guard < count * 300, "micro instance sampler rejecting too much"
        inst = micro_pcg(rng, **kwargs)
        if inst is not None:
            out.append(inst)
    return out


def random_multigraph(rng: random.Random, max_nodes=6, max_edges=8, max_weight=12):
    """Random connected-ish multigraph for T-join and matching tests."""
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((u, v, rng.randint(0, max_weight)))
    return n, edges


GADGET_BUILDERS = {
    MODE_GENERALIZED: build_generalized_gadget_graph,
    MODE_OPTIMIZED: build_optimized_gadget_graph,
}


def gadget_route_tjoin(inst, mode) -> tuple[list[int], int]:
    """(sorted join, weight) from gadget matching in the given mode on every
    component that holds a T node: the paper's reduction, which `solve_tjoin`
    replaces by shortest paths between the T nodes."""
    forest = _SpanningForest.of(inst)
    join, weight = [], 0
    for comp in forest.components:
        t_comp = inst.t_nodes.intersection(comp)
        if t_comp:
            edges = {e.id: e for n in comp for e in forest.incident[n]}
            part = TJoinInstance(tuple(sorted(comp)), tuple(edges[i] for i in sorted(edges)))
            part_join, part_weight = gadget_tjoin(part, GADGET_BUILDERS[mode])
            join += part_join
            weight += part_weight
    return sorted(join), weight


def darts_instance(face_of, weights, face_sizes) -> TJoinInstance:
    """The T-join instance `solve_on_darts` solves on these darts: edge k
    between the faces of darts 2k and 2k+1, keeping its id k, with the
    unembedded edges and the self-loops left out."""
    edges = tuple(
        TJoinEdge(k, a, b, w)
        for k, (a, b, w) in enumerate(zip(face_of[0::2], face_of[1::2], weights))
        if a >= 0 and a != b
    )
    return TJoinInstance(tuple(range(len(face_sizes))), edges)


def spy_darts_solve(monkeypatch) -> list[tuple]:
    """Patch `bipartize_optimal`'s T-join solve to record the arguments
    (face_of, weights, face_sizes) and the weight of every call."""
    calls: list[tuple] = []
    solve = aapsm.bipartize.solve_on_darts

    def spy(face_of, weights, face_sizes):
        join, weight, seconds = solve(face_of, weights, face_sizes)
        calls.append((face_of, weights, face_sizes, weight))
        return join, weight, seconds

    monkeypatch.setattr(aapsm.bipartize, "solve_on_darts", spy)
    return calls


def spy_blossom(monkeypatch) -> list[int]:
    """Patch the package's blossom matcher to record the node count of every
    graph it is handed."""
    sizes: list[int] = []
    blossom = aapsm.matching._max_weight_matching

    def spy(nbrs, weight):
        sizes.append(len(nbrs))
        return blossom(nbrs, weight)

    monkeypatch.setattr(aapsm.matching, "_max_weight_matching", spy)
    return sizes
