"""Exact counts of rational Dyck paths under the stability filters.

A path is built one run pair (up run, right run) at a time, and every
filter is decided run by run: the diagonal caps each right run, cond1
caps each run by the one before it, and cond2's inequalities for a pair
y are settled once the next up run is placed, through the running min
of f(x) = O_{x-1} + O_x - r*E_{x-1}.  So a prefix matters only through
(O, E, last run, running min f), where O and E are the up and right
steps placed so far.

Two independent routes walk these states.  enumerate_dyck lists each
path depth first with _successors, which tests every run with
cond1_pair and cond2_step.  _count, behind bound1, bound2 and
bound_report, is a dynamic program over half-steps that tests no run:
it reads the longest run each filter allows from cond1_limit and
cond2_max_up.  An up half-step appends an up run, a right half-step a
right run.  Two exact clamps merge states: the last run matters only
through the cap it puts on the next run, and the running min only up to
the value at which every cond2 test still ahead passes.  States sharing
(O, E, running min) then differ only in their cap, so each such group
walks its runs once.  A half-step adds to O, or keeps O and adds to E,
so states are settled in order of O, whatever the number of pairs
before them.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator, Optional

from .core_lattice import Rank2Cartan, RootClass, Weight, classify, dyck_count
from .stability_filters import (
    FilterLevel,
    cond1_limits,
    cond1_pair,
    cond2_low,
    cond2_max_up,
    cond2_step,
)

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


def _runs_allowed(by_cap: dict[int, int], limit: int) -> Iterator[tuple[int, int]]:
    """(run, ways) for every run some state of a group admits, longest first.

    A state with cap c admits runs 1..min(c, limit), so ways sums the
    states whose cap reaches the run, and the group walks its runs once.
    """
    caps = sorted(by_cap, reverse=True)
    ways = 0
    for cap, below in zip(caps, caps[1:] + [0]):
        ways += by_cap[cap]
        for run in range(min(cap, limit), below, -1):
            yield run, ways


def _count(n: int, m: int, cartan: Rank2Cartan, level: FilterLevel) -> int:
    """Number of paths to (n, m) passing the filter, by half-steps in order of O."""
    r = cartan.r
    use1 = level is not FilterLevel.DYCK
    use2 = level is FilterLevel.COND2
    size = n + m
    # lim[a]: the longest run that may follow a run of a
    lim = cond1_limits(size, r) if use1 else [size] * (size + 1)
    # top[E]: a later cond2 test, at E' >= E right steps, places an up
    # run with O' + u <= m, so it passes whenever low >= top[E'].  top
    # falls with E when r*n >= m, so all lows at or above top[E] share
    # one future and are merged into it; when r*n < m, top[E] >= m >= low.
    top = [m - E * (r * n - m) // n for E in range(n)] if use2 else []
    # ups[O] and mids[O] hold the prefixes with O up steps that end in a
    # right run and in an up run, keyed by (E, running min), each a map
    # from the cap on the next run to the number of prefixes
    ups = [defaultdict(lambda: defaultdict(int)) for _ in range(m)]
    mids = [defaultdict(lambda: defaultdict(int)) for _ in range(m)]
    ups[0][0, m][m] = 1  # m as the min of f makes the first cond2 step hold
    total = 0
    for O in range(m):
        up = ups[O]
        room = m - O
        for (E, low), by_cap in mids[O].items():
            # the caps already hold every limit on a right run
            for v, ways in _runs_allowed(by_cap, n):
                F = E + v
                up[F, min(low, top[F]) if use2 else low][min(lim[v], room)] += ways
        for (E, low), by_cap in up.items():
            limit = cond2_max_up(O, E, low, n, m, r) if use2 else m
            for u, ways in _runs_allowed(by_cap, limit):
                y = O + u
                if y == m:
                    if n - E <= lim[u]:  # the final right run is forced
                        total += ways
                    continue
                # stay weakly above the diagonal, and leave a right step for later
                vcap = min(y * n // m - E, n - E - 1, lim[u])
                if vcap > 0:
                    key = (E, min(cond2_low(low, O, E, u, r), top[E]) if use2 else low)
                    mids[y][key][vcap] += ways
        ups[O] = mids[O] = None
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
