"""The two exact-integer stability conditions on run sequences.

cond1 constrains every consecutive run ratio; cond2 is a family of
partial-sum slope inequalities indexed by pairs (x, y).  Both come from
stability of the quiver representation a path encodes, distilled to
integer arithmetic so no floating point is involved anywhere.
"""

from __future__ import annotations

import enum
from math import isqrt
from typing import Sequence

from .core_lattice import Rank2Cartan
from .string_data import check_runs, is_dyck, weight_of


class FilterLevel(enum.Enum):
    DYCK = "dyck"
    COND1 = "cond1"
    COND2 = "cond2"


def cond1_pair(a: int, b: int, cartan: Rank2Cartan) -> bool:
    """b/a <= (r + sqrt(r^2-4))/2, done exactly.

    The threshold is irrational for every r >= 3 (r^2 - 4 is never a
    perfect square), so b <= a or a^2 + b^2 - r*a*b <= 0 decides the real
    inequality with no boundary ties possible.
    """
    return b <= a or a * a + b * b - cartan.r * a * b <= 0


def cond1_limit(a: int, r: int) -> int:
    """The longest run b with cond1_pair(a, b): floor(a*(r + sqrt(r^2-4))/2).

    sqrt(a^2*(r^2-4)) is irrational, so flooring it first leaves the
    floor of the half-sum unchanged.
    """
    return (r * a + isqrt(a * a * (r * r - 4))) // 2


def cond1_limits(size: int, r: int) -> list[int]:
    """cond1_limit(a, r) for a = 0..size, clipped to size so a table of them needs no big ints."""
    return [min(cond1_limit(a, r), size) for a in range(size + 1)]


def cond1(runs: Sequence[int], cartan: Rank2Cartan) -> bool:
    check_runs(runs)
    return all(cond1_pair(runs[k], runs[k + 1], cartan) for k in range(len(runs) - 1))


def cond2_step(O: int, E: int, low: int, u: int, n: int, m: int, r: int) -> bool:
    """cond2's inequalities for the last pair y of a prefix, once a_{2y+1} = u is placed.

    (O, E) = (O_y, E_y) and low = min f(x) over x <= y, where
    f(x) = O_{x-1} + O_x - r*E_{x-1}.  Before the first pair use
    (0, 0, m), for which nothing is tested and the step always holds.
    The right side only shrinks as u grows.
    """
    return E * m <= (low + r * E - O - u) * n


def cond2_max_up(O: int, E: int, low: int, n: int, m: int, r: int) -> int:
    """The longest up run u for which cond2_step(O, E, low, u, n, m, r) holds.

    cond2_step reads u <= low + r*E - O - E*m/n, and u is an integer, so
    u <= low + r*E - O - ceil(E*m/n); a result below 1 means no u passes.
    """
    return low + r * E - O + (-E * m) // n


def cond2_low(low: int, O: int, E: int, u: int, r: int) -> int:
    """The running min of f once the up run u follows the prefix (O, E)."""
    return min(low, 2 * O + u - r * E)


def cond2(runs: Sequence[int], cartan: Rank2Cartan) -> bool:
    """Partial-sum slope inequalities for a complete (even-length) sequence.

    With odd/even prefix sums O_i = a1+a3+...+a_{2i-1} and
    E_i = a2+a4+...+a_{2i}, the pair (x, y) with 1 <= x <= y < k requires

        E_y * m <= (O_{x-1} + r*(E_y - E_{x-1}) - (O_{y+1} - O_x)) * n

    where (n, m) is the endpoint.  A nonpositive right factor counts as a
    violation: the left side is at least 1*m, so the cross-multiplied
    comparison handles that case with no special branch.

    The right factor is f(x) + r*E_y - O_{y+1}, so for each y only the
    smallest f(x) with x <= y matters; one pass keeps that running min
    and checks each y with cond2_step.
    """
    check_runs(runs)
    if len(runs) % 2 != 0:
        raise ValueError("condition defined for complete paths (even run count)")
    n, m = weight_of(runs)
    r = cartan.r
    O = E = 0
    low = m
    for u, v in zip(runs[0::2], runs[1::2]):
        if not cond2_step(O, E, low, u, n, m, r):
            return False
        low = cond2_low(low, O, E, u, r)
        O += u
        E += v
    return True


def passes_filters(runs: Sequence[int], cartan: Rank2Cartan, level: FilterLevel) -> bool:
    """Cumulative filter: COND1 implies the Dyck test, COND2 implies both."""
    if not is_dyck(runs):
        return False
    if level is FilterLevel.DYCK:
        return True
    if not cond1(runs, cartan):
        return False
    if level is FilterLevel.COND1:
        return True
    return cond2(runs, cartan)
