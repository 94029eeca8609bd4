"""Exact counts of rational Dyck paths under the stability filters.

A path is built one run pair (up run, right run) at a time, and every
filter is decided pair by pair: the diagonal caps the right run, cond1
tests each new run against the one before it, and cond2's inequalities
for a pair y are settled once the next up run is placed, through the
running min of f(x) = O_{x-1} + O_x - r*E_{x-1}.  So a prefix matters
only through its state (O, E, last right run, running min f), where O
and E are the up and right steps placed so far; the parts a filter level
does not test are held fixed, so the Dyck level keys on (O, E) alone.

One transition rule, _successors, serves two walks over these states: a
layered dynamic program that counts (bound1, bound2, bound_report), and
a depth-first lister that hands each path to a visitor (enumerate_dyck).
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator, Optional

from .core_lattice import Rank2Cartan, RootClass, Weight, classify, dyck_count
from .stability_filters import FilterLevel, cond1_pair, cond2_low, cond2_step

Visitor = Callable[[tuple[int, ...]], None]
State = tuple[int, int, int, int]


@dataclass
class BoundReport:
    weight: Weight
    r: int
    dyck_total: int
    count_thm1: int
    count_thm2: int
    elapsed: float


def _check_endpoint(weight) -> tuple[int, int]:
    n, m = weight
    if n < 1 or m < 1:
        raise ValueError("enumeration needs both coordinates positive")
    return n, m


def _start(m: int) -> State:
    # no right run before the first pair, and m as the min of f makes
    # the first cond2 step hold
    return (0, 0, 0, m)


def _successors(
    state: State, n: int, m: int, cartan: Rank2Cartan, level: FilterLevel
) -> Iterator[tuple[int, int, Optional[State]]]:
    """Yield (u, v, next state) for each run pair that may follow the prefix.

    The next state is None when the pair ends the path at (n, m).
    """
    O, E, last, low = state
    r = cartan.r
    use1 = level is not FilterLevel.DYCK
    use2 = level is FilterLevel.COND2
    for u in range(1, m - O + 1):
        # a failing ratio or cond2 step fails for every larger u too
        if use1 and last and not cond1_pair(last, u, cartan):
            break
        if use2 and not cond2_step(O, E, low, u, n, m, r):
            break
        y = O + u
        if y == m:
            v = n - E  # the final right run is forced
            if not use1 or cond1_pair(u, v, cartan):
                yield u, v, None
            break
        # stay weakly above the diagonal, and leave a right step for later
        vmax = min(y * n // m - E, n - E - 1)
        next_low = cond2_low(low, O, E, u, r) if use2 else low
        for v in range(1, vmax + 1):
            if use1 and not cond1_pair(u, v, cartan):
                break  # and for every larger v
            yield u, v, (y, E + v, v if use1 else 0, next_low)


def _count(n: int, m: int, cartan: Rank2Cartan, level: FilterLevel) -> int:
    """Number of paths to (n, m) passing the filter, one layer per run pair."""
    layer = {_start(m): 1}
    total = 0
    while layer:
        following: defaultdict[State, int] = defaultdict(int)
        for state, ways in layer.items():
            for _, _, succ in _successors(state, n, m, cartan, level):
                if succ is None:
                    total += ways
                else:
                    following[succ] += ways
        layer = following
    return total


def enumerate_dyck(
    weight,
    cartan: Rank2Cartan,
    level: FilterLevel = FilterLevel.DYCK,
    visit: Optional[Visitor] = None,
) -> int:
    """Visit every run sequence of the given weight passing the filter once.

    Returns the visit count.  The visitor, when given, receives each
    complete run tuple.
    """
    n, m = _check_endpoint(weight)
    runs: list[int] = []

    def walk(state: State) -> int:
        count = 0
        for u, v, succ in _successors(state, n, m, cartan, level):
            runs.append(u)
            runs.append(v)
            if succ is None:
                count += 1
                if visit is not None:
                    visit(tuple(runs))
            else:
                count += walk(succ)
            del runs[-2:]
        return count

    return walk(_start(m))


def _require_bound_weight(weight, cartan: Rank2Cartan) -> tuple[int, int]:
    n, m = _check_endpoint(weight)
    if gcd(m, n) != 1:
        raise ValueError("bounds are stated for coprime weights")
    if classify(Weight(n, m), cartan) is not RootClass.IMAGINARY:
        warnings.warn(
            f"weight {(n, m)} is not an imaginary root; the count is still "
            "exact but its upper-bound meaning is not guaranteed",
            stacklevel=3,
        )
    return n, m


def bound1(weight, cartan: Rank2Cartan) -> int:
    """Exact count of Dyck paths passing cond1."""
    return _count(*_require_bound_weight(weight, cartan), cartan, FilterLevel.COND1)


def bound2(weight, cartan: Rank2Cartan) -> int:
    """Exact count of Dyck paths passing cond1 and cond2 (the tighter bound)."""
    return _count(*_require_bound_weight(weight, cartan), cartan, FilterLevel.COND2)


def bound_report(weight, cartan: Rank2Cartan) -> BoundReport:
    """The closed-form path count and both filtered counts.

    The unfiltered count of the same dynamic program is checked against
    the closed form, so a fault in the shared transition rule shows.
    """
    n, m = _require_bound_weight(weight, cartan)
    t0 = time.perf_counter()
    dyck_total = dyck_count(n, m)
    counted = _count(n, m, cartan, FilterLevel.DYCK)
    if counted != dyck_total:
        raise ArithmeticError(f"counted {counted} paths, closed form gives {dyck_total}")
    return BoundReport(
        weight=Weight(n, m),
        r=cartan.r,
        dyck_total=dyck_total,
        count_thm1=_count(n, m, cartan, FilterLevel.COND1),
        count_thm2=_count(n, m, cartan, FilterLevel.COND2),
        elapsed=time.perf_counter() - t0,
    )
