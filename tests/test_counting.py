from math import gcd

import pytest

from rootbounds import counting
from rootbounds import (
    FilterLevel,
    Rank2Cartan,
    RootClass,
    Weight,
    bound1,
    bound2,
    bound_report,
    classify,
    dyck_count,
    enumerate_dyck,
    passes_filters,
    runs_to_word,
    weight_of,
)


def _words_at(weight, cartan, level):
    found = []
    enumerate_dyck(weight, cartan, level, visit=lambda runs: found.append(runs_to_word(runs)))
    return sorted(found)


def test_enumerate_visits_exactly_the_dyck_paths(cartan3):
    assert _words_at((4, 3), cartan3, FilterLevel.DYCK) == [
        "1010100",
        "1011000",
        "1100100",
        "1101000",
        "1110000",
    ]
    assert _words_at((1, 1), cartan3, FilterLevel.DYCK) == ["10"]
    assert _words_at((3, 4), cartan3, FilterLevel.COND1) == _words_at(
        (3, 4), cartan3, FilterLevel.DYCK
    )


def test_formula_matches_enumeration(cartan3):
    for total in range(2, 13):
        for n in range(1, total):
            m = total - n
            if gcd(n, m) == 1:
                assert enumerate_dyck((n, m), cartan3, FilterLevel.DYCK) == dyck_count(n, m)


def test_pruned_equals_filter_at_leaf():
    for r in (3, 4):
        cartan = Rank2Cartan(r)
        for total in range(2, 13):
            for n in range(1, total):
                m = total - n
                for level in (FilterLevel.COND1, FilterLevel.COND2):
                    leaves = []
                    enumerate_dyck((n, m), cartan, FilterLevel.DYCK, visit=leaves.append)
                    unpruned = sum(1 for runs in leaves if passes_filters(runs, cartan, level))
                    assert enumerate_dyck((n, m), cartan, level) == unpruned, (n, m, level)


def test_bound_small_examples(cartan3):
    assert bound1((4, 3), cartan3) == 4
    assert bound1((3, 4), cartan3) == 5
    assert bound2((1, 1), cartan3) == 1


def test_bound_rejects_non_coprime(cartan3):
    with pytest.raises(ValueError):
        bound1((2, 4), cartan3)
    with pytest.raises(ValueError):
        bound2((3, 6), cartan3)


def test_bound_warns_off_imaginary(cartan3):
    assert classify((5, 1), cartan3) is RootClass.NOT_A_ROOT
    with pytest.warns(UserWarning):
        bound1((5, 1), cartan3)


def test_bound_report_small(cartan3):
    rep = bound_report((4, 3), cartan3)
    assert (rep.dyck_total, rep.count_thm1, rep.count_thm2) == (5, 4, 4)
    assert rep.weight == Weight(4, 3)
    assert rep.elapsed >= 0
    rep = bound_report((1, 1), cartan3)
    assert (rep.dyck_total, rep.count_thm1, rep.count_thm2) == (1, 1, 1)


def test_enumerate_cond2_listing(cartan3):
    assert _words_at((4, 3), cartan3, FilterLevel.COND2) == [
        "1010100",
        "1011000",
        "1100100",
        "1110000",
    ]


def test_dp_count_matches_enumeration():
    for r in (3, 4, 5):
        cartan = Rank2Cartan(r)
        for total in range(2, 19):
            for n in range(1, total):
                m = total - n
                if gcd(n, m) != 1:
                    continue
                for level in FilterLevel:
                    assert counting._count(n, m, cartan, level) == enumerate_dyck(
                        (n, m), cartan, level
                    ), (r, n, m, level)


@pytest.mark.parametrize("r", [6, 2**62])
def test_dp_count_matches_enumeration_at_large_r(r):
    # r = 2**62 clips every cond1 limit to the height, and r*n >= m holds
    # throughout, so top falls with E; at r = 6, n = 1 and m >= 7 give
    # r*n < m, where top stays at or above m
    cartan = Rank2Cartan(r)
    for total in range(2, 15):
        for n in range(1, total):
            m = total - n
            if gcd(n, m) != 1:
                continue
            for level in FilterLevel:
                assert counting._count(n, m, cartan, level) == enumerate_dyck(
                    (n, m), cartan, level
                ), (r, n, m, level)


def test_bound_report_checks_closed_form(cartan3, monkeypatch):
    # a plain if, not an assert, so it also raises under python -O
    monkeypatch.setattr(counting, "dyck_count", lambda n, m: dyck_count(n, m) + 1)
    with pytest.raises(ArithmeticError):
        bound_report((4, 3), cartan3)


def test_staircase_bound2_exact_through_14(table3, cartan3):
    for n in range(1, 15):
        assert bound2((n + 1, n), cartan3) == table3.entry(Weight(n + 1, n))[1], n
    assert bound2((16, 15), cartan3) - table3.entry(Weight(16, 15))[1] == 1


# bound1 and bound2 for r = 3 at height 101, past reach of enumeration
EXACT_AT_101 = {
    (51, 50): (222353492804382998955415, 203934982560811752545593),
    (50, 51): (339973940631812037269013, 204406347002239701460130),
}


@pytest.mark.parametrize("weight", list(EXACT_AT_101), ids=str)
def test_exact_bounds_at_height_101(cartan3, weight):
    rep = bound_report(weight, cartan3)
    assert (rep.count_thm1, rep.count_thm2) == EXACT_AT_101[weight]
    assert rep.dyck_total == dyck_count(*weight)


def test_survivor_above_multiplicity_by_dp(table3, cartan3):
    # test_unique_survivor_above_multiplicity without the enumeration: the
    # extra path passes the tighter filter, and the DP counts one path above mult
    survivor = (10, 3, 5, 13)
    assert weight_of(survivor) == (16, 15)
    assert passes_filters(survivor, cartan3, FilterLevel.COND2)
    assert bound2((16, 15), cartan3) == table3.entry(Weight(16, 15))[1] + 1


def test_report_counts_nest(cartan3):
    for n, m in [(5, 4), (7, 5), (8, 7), (9, 7)]:
        rep = bound_report((n, m), cartan3)
        assert rep.count_thm2 <= rep.count_thm1 <= rep.dyck_total
        assert rep.dyck_total == dyck_count(n, m)


def test_bounds_dominate_multiplicity(table3, cartan3):
    # both counts upper-bound the true multiplicity on coprime imaginary
    # roots; modest heights keep this fast
    for total in range(3, 27):
        for n in range(1, total):
            m = total - n
            if gcd(n, m) != 1:
                continue
            if classify((n, m), cartan3) is not RootClass.IMAGINARY:
                continue
            mult = table3.entry(Weight(n, m))[1]
            b1 = enumerate_dyck((n, m), cartan3, FilterLevel.COND1)
            b2 = enumerate_dyck((n, m), cartan3, FilterLevel.COND2)
            assert b2 <= b1
            assert mult <= b2, (n, m, mult, b2)


def test_unique_survivor_above_multiplicity(table3, cartan3):
    # at (16,15) the tighter bound overshoots by exactly one path,
    # and that path is 1^10 0^3 1^5 0^13
    seen = {"target": False}

    def visit(runs):
        if runs == (10, 3, 5, 13):
            seen["target"] = True

    total = enumerate_dyck((16, 15), cartan3, FilterLevel.COND2, visit=visit)
    mult = table3.entry(Weight(16, 15))[1]
    assert total == mult + 1
    assert seen["target"]
