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
walks its runs once: it lays its counts out by cap and walks its runs
longest first in one flat loop, keeping a running sum, so that each run
carries the count of every state whose cap admits it.  The per-run
limits come from tables built once per O, and cond2_max_up is read once
per group.  A half-step adds to O, or keeps O and adds to E, so states
are settled in order of O, whatever the number of pairs before them.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator, Optional

from .core_lattice import Rank2Cartan, RootClass, Weight, as_weight, classify, dyck_count
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

# bound1, bound2 and bound_report refuse a root of greater height n + m
# before the DP allocates a state.  The DP's time grows about as the
# fourth power of the height: on a 2-vCPU Xeon VM, bound_report at r = 3
# took 0.30 s at (51,50), 3.8-4.7 s at (101,100), 9.2 s at (121,120) and
# 11.1 s (67 MB peak RSS) at (128,127), the highest staircase root let
# through; (161,95) took 8.7 s, and (1001,1000) would take about half a day.
MAX_BOUND_HEIGHT = 256

# bound --list refuses to list more paths than this, after counting them
# and before the enumeration starts.  Listing takes about 7 us a path on
# the same VM (45,751 paths at (12,13), theorem 1, in 0.30 s), so the
# longest listing let through takes about 0.5 s.
MAX_LISTED_PATHS = 2**16


def check_bound_height(n: int, m: int) -> None:
    """Refuse a root whose exact bounds would run past MAX_BOUND_HEIGHT."""
    if n + m > MAX_BOUND_HEIGHT:
        raise ValueError(
            f"exact bounds stop at height {MAX_BOUND_HEIGHT}; {(n, m)} has height {n + m}"
        )


@dataclass
class BoundReport:
    weight: Weight
    r: int
    dyck_total: int
    count_thm1: int
    count_thm2: int
    elapsed: float


def _check_endpoint(weight) -> tuple[int, int]:
    n, m = as_weight(weight)
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
    # A right run is the one step that clamps, as an up run only lowers
    # the min.  Without cond2 every low stays m, and top leaves it there.
    top = [m - E * (r * n - m) // n for E in range(n)] if use2 else [m] * n
    # diag[y]: the most right steps a prefix may hold at y < m up steps
    # and stay weakly above the diagonal; it is below n, so a right step
    # is always left for later
    diag = [y * n // m for y in range(m)]
    # first[E]: the fewest up steps a prefix needs before a right run may
    # follow its E right steps
    first = [-(-(E + 1) * m // n) for E in range(n)]
    # ups[O] and mids[O] hold the prefixes with O up steps that end in a
    # right run and in an up run, keyed by (E, running min), each a map
    # from the cap on the next run to the number of prefixes
    ups = [{} for _ in range(m)]
    mids = [{} for _ in range(m)]
    ups[0][0, m] = {m: 1}  # m as the min of f makes the first cond2 step hold
    total = 0
    for O in range(m):
        up = ups[O]
        room = m - O
        # after[v]: the cap a right run of v puts on the up run after it
        after = [b if b < room else room for b in lim]
        # A group of states sharing (E, low) walks its runs once, longest
        # first.  A state with cap c admits the runs up to c, so the walk
        # adds its ways on reaching c, and each run carries the ways of
        # every state that admits it.
        for (E, low), by_cap in mids[O].items():
            # the caps already hold every limit on a right run
            hi = max(by_cap)
            at_cap = [0] * (hi + 1)
            for c, w in by_cap.items():
                at_cap[c] = w
            ways = 0
            for v in range(hi, 0, -1):
                w = at_cap[v]
                if w:
                    ways += w
                F = E + v
                t = top[F]
                key = (F, low if low < t else t)
                cap = after[v]
                by = up.get(key)
                if by is None:
                    up[key] = {cap: ways}
                else:
                    by[cap] = by.get(cap, 0) + ways
        for (E, low), by_cap in up.items():
            hi = cond2_max_up(O, E, low, n, m, r) if use2 else room
            longest = max(by_cap)
            if longest < hi:
                hi = longest
            if hi < 1:
                continue
            kept = (E, low)  # without cond2 the running min stays m
            at_cap = [0] * (hi + 1)
            for c, w in by_cap.items():
                at_cap[c if c < hi else hi] += w
            ways = 0
            if hi == room:
                ways = at_cap[room]
                if n - E <= lim[room]:  # the final right run is forced
                    total += ways
                hi -= 1
            # a shorter up run leaves no right run above the diagonal
            stop = first[E] - O - 1
            if stop < 0:
                stop = 0
            for u in range(hi, stop, -1):
                w = at_cap[u]
                if w:
                    ways += w
                y = O + u
                vcap = diag[y] - E
                b = lim[u]
                if b < vcap:
                    vcap = b
                key = (E, cond2_low(low, O, E, u, r)) if use2 else kept
                mid = mids[y]
                by = mid.get(key)
                if by is None:
                    mid[key] = {vcap: ways}
                else:
                    by[vcap] = by.get(vcap, 0) + ways
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
    check_bound_height(n, m)
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
