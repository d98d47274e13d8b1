"""Weighted set cover: greedy validity and exact solver optimality.

The exact solver starts from a given cover; these tests hand it the greedy
cover, as the planner does."""

import random

import pytest
from hypothesis import given, strategies as st

from aapsm import setcover
from aapsm.errors import InternalInvariantError
from aapsm.setcover import CoverCandidate, exact_cover, greedy_cover

from oracles import min_set_cover_weight


def cands(*specs):
    return [CoverCandidate(("c", i), frozenset(els), w) for i, (els, w) in enumerate(specs)]


def weight_of(chosen, candidates):
    by_key = {c.key: c for c in candidates}
    return sum(by_key[k].weight for k in chosen)


def test_single_set():
    universe = frozenset({1, 2})
    cs = cands(({1, 2}, 5))
    assert greedy_cover(universe, cs) == [("c", 0)]
    assert exact_cover(universe, cs, greedy_cover(universe, cs)) == [("c", 0)]


def test_empty_universe():
    assert greedy_cover(frozenset(), cands(({1}, 1))) == []
    assert exact_cover(frozenset(), cands(({1}, 1)), []) == []


def test_uncoverable_raises():
    with pytest.raises(ValueError):
        greedy_cover(frozenset({1, 9}), cands(({1}, 1)))


def test_exact_keeps_incumbent_on_equal_weight():
    # one set of weight 4 and two sets of weight 2 each cover {1, 2}: both
    # covers weigh 4, so whichever one is the incumbent comes back unchanged
    universe = frozenset({1, 2})
    cs = cands(({1, 2}, 4), ({1}, 2), ({2}, 2))
    assert greedy_cover(universe, cs) == [("c", 1), ("c", 2)]
    assert exact_cover(universe, cs, [("c", 1), ("c", 2)]) == [("c", 1), ("c", 2)]
    assert exact_cover(universe, cs, [("c", 0)]) == [("c", 0)]


def test_exact_rejects_incumbent_that_misses_an_element():
    cs = cands(({1, 2}, 4), ({1}, 2), ({2}, 2))
    with pytest.raises(InternalInvariantError, match="misses elements \\[2\\]"):
        exact_cover(frozenset({1, 2}), cs, [("c", 1)])


class LyingElements(frozenset):
    """Lists its elements but never intersects anything."""

    def __and__(self, other):
        return frozenset()


def test_greedy_without_progress_raises_invariant_error():
    # passes the coverability check, then no pick covers anything; the error
    # is raised, not asserted, so it survives python -O
    cs = [CoverCandidate(("c", 0), LyingElements({1}), 1)]
    with pytest.raises(InternalInvariantError, match="remaining elements"):
        greedy_cover(frozenset({1}), cs)


def test_greedy_classic_trap_exact_escapes():
    # greedy takes the big cheap set then pays for the rest; exact takes two
    universe = frozenset(range(6))
    cs = cands(
        ({0, 1, 2, 3}, 4),
        ({0, 1, 2}, 3),
        ({3, 4, 5}, 3),
        ({4, 5}, 3),
    )
    greedy = greedy_cover(universe, cs)
    exact = exact_cover(universe, cs, greedy)
    assert weight_of(exact, cs) <= weight_of(greedy, cs)
    assert weight_of(exact, cs) == 6


def test_exact_matches_enumeration():
    rng = random.Random(60601)
    for _ in range(120):
        n_el = rng.randint(1, 7)
        n_sets = rng.randint(1, 9)
        universe = frozenset(range(n_el))
        specs = []
        for _k in range(n_sets):
            size = rng.randint(1, n_el)
            els = frozenset(rng.sample(range(n_el), size))
            specs.append((els, rng.randint(1, 30)))
        cs = cands(*specs)
        expect = min_set_cover_weight(universe, [(c.elements, c.weight) for c in cs])
        if expect is None:
            with pytest.raises(ValueError):
                greedy_cover(universe, cs)
            continue
        got = exact_cover(universe, cs, greedy_cover(universe, cs))
        assert weight_of(got, cs) == expect
        covered = frozenset().union(*(c.elements for c in cs if c.key in set(got)))
        assert covered >= universe


def test_bound_reads_the_cheapest_cover_of_each_element(monkeypatch):
    """The search's lower bound reads each element's first covering
    candidate; on random instances, weights repeating, it equals the
    maximum over the remaining elements of a min over every candidate
    covering the element."""
    bound = setcover._min_cover_bound
    checked = 0

    def spy(remaining, covering):
        nonlocal checked
        got = bound(remaining, covering)
        assert got == max(min(c.weight for c in covering[el]) for el in remaining)
        checked += 1
        return got

    monkeypatch.setattr(setcover, "_min_cover_bound", spy)
    rng = random.Random(7331)
    for _ in range(200):
        n_el = rng.randint(1, 8)
        universe = frozenset(range(n_el))
        specs = [({el}, rng.randint(1, 9)) for el in range(n_el)]
        specs += [
            (frozenset(rng.sample(range(n_el), rng.randint(1, n_el))), rng.randint(1, 9))
            for _k in range(rng.randint(0, 8))
        ]
        rng.shuffle(specs)
        cs = cands(*specs)
        exact_cover(universe, cs, greedy_cover(universe, cs))
    assert checked >= 200, checked


@given(
    st.lists(
        st.tuples(
            st.frozensets(st.integers(0, 8), min_size=1, max_size=5),
            st.integers(1, 20),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_greedy_always_covers_and_exact_never_worse(specs):
    cs = [CoverCandidate(("c", i), els, w) for i, (els, w) in enumerate(specs)]
    universe = frozenset().union(*(c.elements for c in cs))
    greedy = greedy_cover(universe, cs)
    covered = frozenset().union(*(c.elements for c in cs if c.key in set(greedy)))
    assert covered >= universe
    exact = exact_cover(universe, cs, greedy)
    assert weight_of(exact, cs) <= weight_of(greedy, cs)


def test_deterministic_tie_breaks():
    universe = frozenset({1, 2})
    cs = cands(({1, 2}, 4), ({1, 2}, 4))
    assert greedy_cover(universe, cs) == greedy_cover(universe, cs) == [("c", 0)]
