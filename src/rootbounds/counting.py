"""Exact counts of rational Dyck paths under the stability filters.

A path is built one run pair (up run, right run) at a time, and every
filter is decided run by run: the diagonal caps each right run, cond1
caps each run by the one before it, and cond2's inequalities for a pair
y are settled once the next up run is placed, through the running min
of f(x) = O_{x-1} + O_x - r*E_{x-1}.  So a prefix matters only through
(O, E, last run, running min f), where O and E are the up and right
steps placed so far.

Two independent routes walk these states.  enumerate_dyck and
dyck_words walk them depth first with _successors, which tests every
run with cond1_pair and cond2_step, and memoize on the exact state,
with no clamp: the walk keeps each state's number of completions and,
for a listing, each live state's successors.  A listing is built from
shared suffixes: each live state's list of completions, as run tuples
for enumerate_dyck's visitor or as words for dyck_words, is built once
and reused by every prefix that reaches the state.  _count, behind
bound1, bound2 and bound_report, is a dynamic program over half-steps
that tests no run: it reads the longest run each filter allows from
cond1_limit and cond2_max_up.  An up half-step appends an up run, a
right half-step a right run.  Two exact clamps merge states: the last
run matters only through the cap it puts on the next run, and the
running min only up to the value at which every cond2 test still ahead
passes.  States sharing (O, E, running min) then differ only in their
cap, so each such group walks its runs once: it lays its counts out by
cap and walks its runs longest first in one flat loop, keeping a
running sum, so that each run carries the count of every state whose
cap admits it.  The per-run limits come from tables built once per O,
and cond2_max_up is read once per group.  A half-step adds to O, or
keeps O and adds to E, so states are settled in order of O, whatever
the number of pairs before them.
"""

from __future__ import annotations

import time
import warnings
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional, Union

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
Path = Union[tuple[int, ...], str]

# bound1, bound2 and bound_report refuse a root of greater height n + m
# before the DP allocates a state.  The DP's time grows about as the
# fourth power of the height: on a 2-vCPU Xeon VM, bound_report at r = 3
# took 0.30 s at (51,50), 3.8-4.7 s at (101,100), 9.2 s at (121,120) and
# 11.1 s (67 MB peak RSS) at (128,127), the highest staircase root let
# through; (161,95) took 8.7 s, and (1001,1000) would take about half a day.
MAX_BOUND_HEIGHT = 256

# enumerate_dyck and dyck_words, and so bound --list, refuse to list more
# paths than this, while counting them and before the first path is
# built.  On the same VM dyck_words lists the 45,751 words at (12,13),
# theorem 1, in 12 ms (0.25 us a word, walk included), and bound --list
# takes 23 ms in-process with the DP and the sort, so the longest
# listing let through takes about 0.04 s.
MAX_LISTED_PATHS = 2**16

# enumerate_dyck refuses a walk that would keep more search states than
# this, each about 130 B of memo.  On the same VM, at r = 3 under cond2,
# (41,40) keeps 83,575 states in 2.7-4.3 s, and the walks at (46,45)
# and (51,50) are refused at the ceiling after 7.2-7.8 and 10.6-11.0 s,
# with tracemalloc peaks of 15.8 and 16.3 MiB.  Fewer filters keep fewer
# states: (26,25) keeps 12,790 under cond2, 2,379 under cond1, 301 under none.
MAX_WALK_STATES = 2**17


def check_bound_height(n: int, m: int) -> None:
    """Refuse a root whose exact bounds would run past MAX_BOUND_HEIGHT."""
    if n + m > MAX_BOUND_HEIGHT:
        raise ValueError(
            f"exact bounds stop at height {MAX_BOUND_HEIGHT}; {(n, m)} has height {n + m}"
        )


class BoundReport(NamedTuple):
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


class _Walk:
    """A depth-first walk over the exact search states, memoized on the state.

    count takes each state's number of completions and, for a listing,
    keeps each live state's successors; paths then builds the listing
    from them, one shared list of suffixes per live state.  The memos
    live on this object, not in closures of recursive nested functions,
    so they go when the walk does and wait for no cyclic garbage
    collection.
    """

    def __init__(self, n: int, m: int, cartan: Rank2Cartan, level: FilterLevel, listing: bool):
        self.n, self.m, self.cartan, self.level = n, m, cartan, level
        self.listing = listing
        self.counts: dict[State, int] = {}
        # live[state], kept only for a listing: the (u, v, next state)
        # that lead to at least one completion
        self.live: dict[State, list[tuple[int, int, Optional[State]]]] = {}
        self.suffixes: dict[State, list[Path]] = {}

    def count(self, state: State) -> int:
        """Number of completions of the state, each state's successors tested once."""
        got = self.counts.get(state)
        if got is not None:
            return got
        n, m = self.n, self.m
        ways = 0
        nexts = []
        for u, v, succ in _successors(state, n, m, self.cartan, self.level):
            w = 1 if succ is None else self.count(succ)
            if w:
                ways += w
                nexts.append((u, v, succ))
        if len(self.counts) >= MAX_WALK_STATES:
            raise ValueError(
                f"enumeration stops at {MAX_WALK_STATES} search states; {(n, m)} needs more"
            )
        self.counts[state] = ways
        if self.listing and ways:
            # every state walked is reached from the start, so the whole
            # listing holds at least as many paths as this state's
            if ways > MAX_LISTED_PATHS:
                raise ValueError(f"listing stops at {MAX_LISTED_PATHS} paths; {(n, m)} has more")
            self.live[state] = nexts
        return ways

    def paths(self, state: State, piece: Callable[[int, int], Path]) -> list[Path]:
        """The paths that complete a live state, in depth-first order.

        Each run pair becomes piece(u, v), and a path is the sum of its
        pieces: a run tuple or a word.  Each live state's list is built
        once and shared by every prefix that reaches it, so a walk lists
        with one piece only.
        """
        got = self.suffixes.get(state)
        if got is None:
            got = []
            for u, v, succ in self.live[state]:
                head = piece(u, v)
                if succ is None:
                    got.append(head)
                else:
                    got.extend([head + rest for rest in self.paths(succ, piece)])
            self.suffixes[state] = got
        return got


def _run_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v)


def _letters(u: int, v: int) -> str:
    return "1" * u + "0" * v


def _walk(weight, cartan: Rank2Cartan, level: FilterLevel, listing: bool) -> tuple[_Walk, int]:
    """A walk of the weight's exact states and its count from the start."""
    n, m = _check_endpoint(weight)
    check_bound_height(n, m)  # bounds the recursion depth as well
    walk = _Walk(n, m, cartan, level, listing)
    return walk, walk.count(_start(m))


def enumerate_dyck(
    weight,
    cartan: Rank2Cartan,
    level: FilterLevel = FilterLevel.DYCK,
    visit: Optional[Visitor] = None,
) -> int:
    """Count the run sequences of the given weight passing the filter.

    Returns the count.  The walk memoizes on the exact search state
    (O, E, last run, running min): each state's successors are tested
    once and its number of completions is kept, so the time grows
    polynomially in the height, not with the number of paths.  A root
    above MAX_BOUND_HEIGHT, or one whose walk would keep more than
    MAX_WALK_STATES states, is refused with one ValueError.

    The visitor, when given, receives each complete run tuple once, in
    depth-first order: runs ascending, the up run before the right run.
    The count walk then also keeps each live state's successors, and
    refuses a listing of more than MAX_LISTED_PATHS paths before the
    first visit.  Each live state's run-tuple suffixes are built once
    and shared by every prefix that reaches the state.
    """
    walk, total = _walk(weight, cartan, level, listing=visit is not None)
    if visit is not None and total:
        for runs in walk.paths(_start(walk.m), _run_pair):
            visit(runs)
    return total


def dyck_words(
    weight, cartan: Rank2Cartan, level: FilterLevel = FilterLevel.DYCK
) -> list[str]:
    """The paths of the given weight passing the filter, as binary words.

    The same walk as enumerate_dyck's with a visitor, and the same
    refusals, in the same depth-first order; [] when no path passes.
    Each live state's suffix words are built once, as "1"*u + "0"*v
    ahead of each live successor's suffix words, and shared by every
    prefix that reaches the state, so no word is built from its runs.
    """
    walk, total = _walk(weight, cartan, level, listing=True)
    return walk.paths(_start(walk.m), _letters) if total else []


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
