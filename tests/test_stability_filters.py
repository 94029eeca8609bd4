from math import gcd, sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootbounds import (
    FilterLevel,
    Rank2Cartan,
    cond1,
    cond1_pair,
    cond2,
    enumerate_dyck,
    passes_filters,
)
from rootbounds.stability_filters import cond1_limit, cond2_max_up, cond2_step


def _cond2_pairwise(runs, cartan):
    """cond2 as stated: every pair (x, y) with 1 <= x <= y < k, in O(k^2)."""
    k = len(runs) // 2
    odd_ps = [0]
    even_ps = [0]
    for i in range(k):
        odd_ps.append(odd_ps[-1] + runs[2 * i])
        even_ps.append(even_ps[-1] + runs[2 * i + 1])
    m = odd_ps[k]
    n = even_ps[k]
    r = cartan.r
    for y in range(1, k):
        num = even_ps[y]
        for x in range(1, y + 1):
            den = odd_ps[x - 1] + r * (even_ps[y] - even_ps[x - 1]) - (odd_ps[y + 1] - odd_ps[x])
            if num * m > den * n:
                return False
    return True


def test_cond1_pair_examples(cartan3):
    assert cond1_pair(5, 13, cartan3)
    assert not cond1_pair(1, 3, cartan3)
    assert cond1_pair(7, 7, cartan3)


@given(a=st.integers(1, 500), b=st.integers(1, 500), r=st.integers(3, 5))
def test_cond1_pair_matches_real_threshold(a, b, r):
    # the threshold (r + sqrt(r^2-4))/2 is irrational, so float comparison
    # is reliable away from ties that cannot occur
    threshold = (r + sqrt(r * r - 4)) / 2
    assert cond1_pair(a, b, Rank2Cartan(r)) == (b / a <= threshold)


def test_cond1_examples(cartan3):
    assert not cond1((2, 1, 1, 3), cartan3)
    assert cond1((2, 2, 5, 6), cartan3)
    assert cond1((5, 5, 5, 5), cartan3)
    assert cond1((3,), cartan3)


def test_cond2_examples(cartan3):
    assert not cond2((2, 2, 5, 6), cartan3)
    assert not cond2((3, 2, 2, 2, 5, 2, 5, 10), cartan3)
    assert cond2((1, 1), cartan3)


def test_cond2_pinpoints_pairs(cartan3):
    # (2,2,5,6): the (x,y) = (1,1) inequality is 2*7 <= 1*8, already false
    runs = (2, 2, 5, 6)
    m, n = 7, 8
    num = runs[1]
    den = cartan3.r * runs[1] - runs[2]
    assert (num, den) == (2, 1)
    assert num * m > den * n


def test_cond2_matches_pairwise_reference():
    for r in (3, 4):
        cartan = Rank2Cartan(r)
        for total in range(2, 13):
            for n in range(1, total):
                m = total - n
                if gcd(n, m) != 1:
                    continue
                paths = []
                enumerate_dyck((n, m), cartan, FilterLevel.DYCK, visit=paths.append)
                for runs in paths:
                    assert cond2(runs, cartan) == _cond2_pairwise(runs, cartan), (r, runs)


def test_cond2_rejects_incomplete(cartan3):
    with pytest.raises(ValueError):
        cond2((2, 1, 1), cartan3)


def test_cond2_nonpositive_denominator_is_violation(cartan3):
    # runs (1,1,5,3): for (x,y)=(1,1) the right factor is 3*1 - 5 = -2,
    # and the cross-multiplied comparison 1*6 > -2*4 rejects it with no
    # special-case branch
    assert not cond2((1, 1, 5, 3), cartan3)


def test_passes_filters_examples(cartan3):
    assert passes_filters((10, 3, 5, 13), cartan3, FilterLevel.COND2)
    assert not passes_filters((2, 1, 1, 3), cartan3, FilterLevel.COND1)
    assert passes_filters((3, 4), cartan3, FilterLevel.COND2)
    # non-Dyck data fails every level
    assert not passes_filters((0, 1, 3), cartan3, FilterLevel.DYCK)


@given(
    runs=st.lists(st.integers(1, 5), min_size=2, max_size=8).map(tuple),
    r=st.integers(3, 5),
)
def test_filter_levels_nest(runs, r):
    cartan = Rank2Cartan(r)
    if len(runs) % 2:
        runs = runs + (1,)
    if passes_filters(runs, cartan, FilterLevel.COND2):
        assert passes_filters(runs, cartan, FilterLevel.COND1)
    if passes_filters(runs, cartan, FilterLevel.COND1):
        assert passes_filters(runs, cartan, FilterLevel.DYCK)


def test_cond1_prefix_closed(cartan3):
    # a failing consecutive pair fails in every extension
    bad = (1, 3)
    assert not cond1(bad, cartan3)
    assert not cond1(bad + (2, 2), cartan3)
    assert not cond1((4,) + bad, cartan3)


@pytest.mark.parametrize("r", range(3, 9))
def test_cond1_limit_matches_scan(r):
    # cond1_pair passes b = 1..limit and nothing above; a run past r*a fails
    cartan = Rank2Cartan(r)
    for a in range(1, 61):
        passing = [b for b in range(1, r * a + 2) if cond1_pair(a, b, cartan)]
        assert passing == list(range(1, cond1_limit(a, r) + 1)), (a, r)


def test_cond2_max_up_is_cond2_step_break_point():
    for r in (3, 4, 5):
        for n, m in [(1, 1), (4, 3), (3, 4), (7, 5), (5, 8), (16, 15)]:
            for O in range(m + 1):
                for E in range(n):
                    for low in range(-r * n, m + 1):
                        u = cond2_max_up(O, E, low, n, m, r)
                        assert cond2_step(O, E, low, u, n, m, r), (r, n, m, O, E, low)
                        assert not cond2_step(O, E, low, u + 1, n, m, r), (r, n, m, O, E, low)
