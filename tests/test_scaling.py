"""Guard against all-pairs geometry scans returning to `detect`.

Counts the exact-predicate calls detect makes rather than timing it, so the
check is deterministic.  Row layouts keep every shifter and PCG edge within
a bounded neighbourhood, so an indexed search makes a number of predicate
calls proportional to the feature count; an all-pairs scan makes a number
proportional to its square (4x the features, about 16x the calls).
"""

from aapsm import geometry, layout
from aapsm.generator import generate_layout
from aapsm.pipeline import detect

PREDICATES = (
    (layout, "rect_separation"),
    (geometry, "segments_intersect"),
    (geometry, "collinear_overlap"),
)


def predicate_calls(monkeypatch, design) -> int:
    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        return wrapper

    with monkeypatch.context() as m:
        for module, name in PREDICATES:
            m.setattr(module, name, counted(getattr(module, name)))
        detect(design)
    return calls


def test_predicate_calls_grow_linearly(monkeypatch):
    few = predicate_calls(monkeypatch, generate_layout(1, 150, 0.0))
    many = predicate_calls(monkeypatch, generate_layout(1, 600, 0.0))
    assert few > 0
    assert many / few < 8, (few, many)
