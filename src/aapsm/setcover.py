"""Weighted set cover: scalable greedy plus an exact branch-and-bound for
small instances.

A candidate is (key, elements, weight).  Both solvers return the chosen keys.
The exact solver starts from a given cover (in the pipeline, the greedy plan),
replaces it only by a strictly lighter one, and is intended for instances with
a few dozen candidates at most.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError


@dataclass(frozen=True)
class CoverCandidate:
    key: tuple
    elements: frozenset
    weight: int


def greedy_cover(universe: frozenset, candidates: list[CoverCandidate]) -> list[tuple]:
    """Classic ratio greedy: maximize newly-covered / weight.

    Ties break toward the smaller weight, then the smaller key.  Elements no
    candidate covers make the instance infeasible (ValueError); filter them
    out beforehand.
    """
    coverable = frozenset().union(*(c.elements for c in candidates)) if candidates else frozenset()
    if not universe <= coverable:
        raise ValueError(f"uncoverable elements: {sorted(universe - coverable)}")
    chosen: list[tuple] = []
    remaining = set(universe)
    pool = sorted(candidates, key=lambda c: c.key)
    while remaining:
        best = None
        best_new = 0
        for c in pool:
            new = len(c.elements & remaining)
            if new == 0:
                continue
            if best is None:
                best, best_new = c, new
                continue
            # compare new/weight as cross products to stay in integers
            lhs = new * best.weight
            rhs = best_new * c.weight
            if lhs > rhs or (lhs == rhs and (c.weight, c.key) < (best.weight, best.key)):
                best, best_new = c, new
        if best is None:
            raise InternalInvariantError(
                f"no candidate covers the remaining elements {sorted(remaining)}"
            )
        chosen.append(best.key)
        remaining -= best.elements
    return chosen


def exact_cover(
    universe: frozenset, candidates: list[CoverCandidate], incumbent: list[tuple]
) -> list[tuple]:
    """Minimum-total-weight cover by branch and bound from a starting cover.

    Branches on the uncovered element with the fewest covering candidates and
    prunes against the best cover so far, starting with the incumbent.  A
    cover replaces it only at strictly lower weight, so on a tie the
    incumbent comes back unchanged.
    """
    by_key = {c.key: c for c in candidates}
    missed = universe - frozenset().union(*(by_key[k].elements for k in incumbent))
    if missed:
        raise InternalInvariantError(f"the incumbent misses elements {sorted(missed)}")
    best_cost = sum(by_key[k].weight for k in incumbent)
    best_keys = list(incumbent)

    ordered = sorted(candidates, key=lambda c: (c.weight, c.key))
    covering: dict = {
        el: [c for c in ordered if el in c.elements] for el in universe
    }

    def search(remaining: frozenset, cost: int, picked: list[tuple]) -> None:
        nonlocal best_cost, best_keys
        if not remaining:
            if cost < best_cost:
                best_cost = cost
                best_keys = list(picked)
            return
        if cost + _min_cover_bound(remaining, covering) >= best_cost:
            return
        pivot = min(remaining, key=lambda el: (len(covering[el]), el))
        for c in covering[pivot]:
            if cost + c.weight >= best_cost:
                continue
            picked.append(c.key)
            search(remaining - c.elements, cost + c.weight, picked)
            picked.pop()

    search(universe, 0, [])
    return best_keys


def _min_cover_bound(remaining: frozenset, covering: dict) -> int:
    """Lower bound: the most expensive min-cost cover among remaining elements.

    Each covering list is in (weight, key) order, so its first candidate is
    the cheapest one covering that element.
    """
    return max(covering[el][0].weight for el in remaining)
