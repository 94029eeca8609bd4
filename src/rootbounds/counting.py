"""Exhaustive enumeration of rational Dyck paths under the stability filters.

Depth-first search over run pairs (up run, right run).  The diagonal
bound, cond1, and cond2 are all prefix-closed, so failing branches are
cut as early as possible; cond1 and cond2 violations are additionally
monotone in the run being placed, which turns inner loops into breaks.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

from .core_lattice import Rank2Cartan, RootClass, Weight, classify, dyck_count
from .stability_filters import FilterLevel, cond1_pair
from .string_data import StringData

Visitor = Callable[[tuple[int, ...]], None]


@dataclass
class BoundReport:
    weight: Weight
    r: int
    dyck_total: int
    count_thm1: int
    count_thm2: int
    elapsed: float
    paths_listed: Optional[list[StringData]] = None


def _check_endpoint(weight) -> tuple[int, int]:
    n, m = weight
    if n < 1 or m < 1:
        raise ValueError("enumeration needs both coordinates positive")
    return n, m


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
    r = cartan.r
    use1 = level in (FilterLevel.COND1, FilterLevel.COND2)
    use2 = level is FilterLevel.COND2
    count = 0
    runs: list[int] = []
    odd_ps = [0]
    even_ps = [0]

    def place_pair(x: int, y: int) -> None:
        nonlocal count
        j = len(runs) // 2
        prev = runs[-1] if runs else None
        for u in range(1, m - y + 1):
            if use1 and prev is not None and not cond1_pair(prev, u, cartan):
                if u > prev:
                    break  # ratio only grows from here
                continue
            if use2 and j >= 1:
                # all (x', y'=j) pairs become decidable once a_{2j+1}=u is fixed
                num = even_ps[j]
                violated = False
                for x_ in range(1, j + 1):
                    den = (
                        odd_ps[x_ - 1]
                        + r * (even_ps[j] - even_ps[x_ - 1])
                        - (odd_ps[j] + u - odd_ps[x_])
                    )
                    if num * m > den * n:
                        violated = True
                        break
                if violated:
                    break  # den only shrinks as u grows
            y2 = y + u
            if y2 == m:
                v = n - x  # final right run is forced
                if not (use1 and not cond1_pair(u, v, cartan)):
                    runs.append(u)
                    runs.append(v)
                    count += 1
                    if visit is not None:
                        visit(tuple(runs))
                    runs.pop()
                    runs.pop()
                continue
            # more ups to place later, so reserve at least one right step
            vmax = min((y2 * n) // m - x, n - x - 1)
            runs.append(u)
            odd_ps.append(odd_ps[-1] + u)
            for v in range(1, vmax + 1):
                if use1 and not cond1_pair(u, v, cartan):
                    if v > u:
                        break
                    continue
                runs.append(v)
                even_ps.append(even_ps[-1] + v)
                place_pair(x + v, y2)
                even_ps.pop()
                runs.pop()
            odd_ps.pop()
            runs.pop()

    place_pair(0, 0)
    return count


def _require_bound_weight(weight, cartan: Rank2Cartan) -> None:
    n, m = _check_endpoint(weight)
    if gcd(m, n) != 1:
        raise ValueError("bounds are stated for coprime weights")
    if classify(Weight(n, m), cartan) is not RootClass.IMAGINARY:
        warnings.warn(
            f"weight {(n, m)} is not an imaginary root; the count is still "
            "exact but its upper-bound meaning is not guaranteed",
            stacklevel=3,
        )


def bound1(weight, cartan: Rank2Cartan) -> int:
    """Exact count of Dyck paths passing cond1."""
    _require_bound_weight(weight, cartan)
    return enumerate_dyck(weight, cartan, FilterLevel.COND1)


def bound2(weight, cartan: Rank2Cartan) -> int:
    """Exact count of Dyck paths passing cond1 and cond2 (the tighter bound)."""
    _require_bound_weight(weight, cartan)
    return enumerate_dyck(weight, cartan, FilterLevel.COND2)


def bound_report(
    weight,
    cartan: Rank2Cartan,
    list_paths: bool = False,
    list_limit: int = 10**6,
) -> BoundReport:
    """All three counts in a single flag-tracking traversal.

    With list_paths the sequences surviving every filter are collected
    (they are the fewest), up to list_limit.
    """
    _require_bound_weight(weight, cartan)
    n, m = weight
    r = cartan.r
    t0 = time.perf_counter()
    nd = nt1 = nt2 = 0
    listed: Optional[list[StringData]] = [] if list_paths else None
    runs: list[int] = []
    odd_ps = [0]
    even_ps = [0]

    def place_pair(x: int, y: int, ok1: bool, ok2: bool) -> None:
        nonlocal nd, nt1, nt2
        j = len(runs) // 2
        prev = runs[-1] if runs else None
        for u in range(1, m - y + 1):
            u_ok1 = ok1 and (prev is None or cond1_pair(prev, u, cartan))
            u_ok2 = ok2
            if u_ok1 and u_ok2 and j >= 1:
                num = even_ps[j]
                for x_ in range(1, j + 1):
                    den = (
                        odd_ps[x_ - 1]
                        + r * (even_ps[j] - even_ps[x_ - 1])
                        - (odd_ps[j] + u - odd_ps[x_])
                    )
                    if num * m > den * n:
                        u_ok2 = False
                        break
            y2 = y + u
            if y2 == m:
                v = n - x
                nd += 1
                if u_ok1 and cond1_pair(u, v, cartan):
                    nt1 += 1
                    if u_ok2:
                        nt2 += 1
                        if listed is not None:
                            if len(listed) >= list_limit:
                                raise ValueError(
                                    "listing limit exceeded; rerun without path listing"
                                )
                            listed.append(StringData(tuple(runs) + (u, v)))
                continue
            vmax = min((y2 * n) // m - x, n - x - 1)
            runs.append(u)
            odd_ps.append(odd_ps[-1] + u)
            for v in range(1, vmax + 1):
                runs.append(v)
                even_ps.append(even_ps[-1] + v)
                place_pair(x + v, y2, u_ok1 and cond1_pair(u, v, cartan), u_ok2)
                even_ps.pop()
                runs.pop()
            odd_ps.pop()
            runs.pop()

    place_pair(0, 0, True, True)
    expected = dyck_count(n, m)
    if nd != expected:
        raise ArithmeticError(f"enumerated {nd} paths, closed form gives {expected}")
    return BoundReport(
        weight=Weight(n, m),
        r=cartan.r,
        dyck_total=nd,
        count_thm1=nt1,
        count_thm2=nt2,
        elapsed=time.perf_counter() - t0,
        paths_listed=listed,
    )
