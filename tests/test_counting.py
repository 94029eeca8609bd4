from math import gcd

import pytest

from rootbounds import counting
from rootbounds import (
    FilterLevel,
    MultiplicityTable,
    Rank2Cartan,
    RootClass,
    Weight,
    bound1,
    bound2,
    bound_report,
    classify,
    dyck_count,
    dyck_words,
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
        for total in range(2, 31):
            for n in range(1, total):
                m = total - n
                if gcd(n, m) != 1:
                    continue
                for level in FilterLevel:
                    assert counting._count(n, m, cartan, level) == enumerate_dyck(
                        (n, m), cartan, level
                    ), (r, n, m, level)
    cartan3 = Rank2Cartan(3)
    for n, m in [(26, 25), (25, 26)]:
        for level in FilterLevel:
            assert counting._count(n, m, cartan3, level) == enumerate_dyck(
                (n, m), cartan3, level
            ), (n, m, level)


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


# r: (coprime imaginary roots of height <= 40, those where bound2 is exact,
# those with c0 > c1, those where the min over both orientations is exact)
ORIENTATION_RECORD = {3: (217, 78, 108, 63), 4: (283, 214, 141, 141), 5: (323, 317, 161, 161)}


@pytest.mark.parametrize("r", list(ORIENTATION_RECORD))
def test_orientation_accuracy_record(r):
    # mult(c0, c1) = mult(c1, c0), so both orientations bound it, and so
    # does their min; the c0 > c1 orientation has never been the looser
    cartan = Rank2Cartan(r)
    table = MultiplicityTable(cartan)
    table.fill_box(40, 40)
    roots = [
        (c0, c1)
        for c0 in range(1, 40)
        for c1 in range(1, 41 - c0)
        if gcd(c0, c1) == 1 and classify((c0, c1), cartan) is RootClass.IMAGINARY
    ]
    bound = {root: bound2(root, cartan) for root in roots}
    mult = {root: table.entries[root][1] for root in roots}
    assert all(bound[root] >= mult[root] for root in roots)
    down = [(c0, c1) for c0, c1 in roots if c0 > c1]
    assert all(bound[root] <= bound[root[::-1]] for root in down)
    assert ORIENTATION_RECORD[r] == (
        len(roots),
        sum(bound[root] == mult[root] for root in roots),
        len(down),
        sum(min(bound[root], bound[root[::-1]]) == mult[root] for root in down),
    )


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
    # at (16,15) the tighter bound overshoots by exactly one path, and
    # 1^10 0^3 1^5 0^13 is a path of that weight passing it; the count
    # and the DP check the overshoot by two routes, as visiting all
    # 815,215 paths would pass MAX_LISTED_PATHS
    survivor = (10, 3, 5, 13)
    assert weight_of(survivor) == (16, 15)
    assert passes_filters(survivor, cartan3, FilterLevel.COND2)
    mult = table3.entry(Weight(16, 15))[1]
    assert enumerate_dyck((16, 15), cartan3, FilterLevel.COND2) == mult + 1
    assert bound2((16, 15), cartan3) == mult + 1


def _reference_runs(weight, cartan, level):
    """Every passing run tuple, depth first over _successors with no memo."""
    n, m = weight
    found = []

    def walk(state, prefix):
        for u, v, succ in counting._successors(state, n, m, cartan, level):
            if succ is None:
                found.append(prefix + (u, v))
            else:
                walk(succ, prefix + (u, v))

    walk(counting._start(m), ())
    return found


def _reference_states(weight, cartan, level):
    """The distinct search states the depth-first walk enters."""
    n, m = weight
    seen = set()

    def walk(state):
        if state not in seen:
            seen.add(state)
            for _, _, succ in counting._successors(state, n, m, cartan, level):
                if succ is not None:
                    walk(succ)

    walk(counting._start(m))
    return seen


def test_visitor_matches_plain_depth_first_walk():
    for r in (3, 4):
        cartan = Rank2Cartan(r)
        for total in range(2, 17):
            for n in range(1, total):
                m = total - n
                if gcd(n, m) != 1:
                    continue
                for level in FilterLevel:
                    visited = []
                    count = enumerate_dyck((n, m), cartan, level, visit=visited.append)
                    expected = _reference_runs((n, m), cartan, level)
                    assert visited == expected, (r, n, m, level)
                    assert count == len(expected), (r, n, m, level)


def _no_visit(runs):
    raise AssertionError("visited a path")


def _no_walk(*args):
    raise AssertionError("walk started")


def test_listing_ceiling_refuses_before_the_first_visit(cartan3, monkeypatch):
    # (11,8) has 720 paths under cond2
    monkeypatch.setattr(counting, "MAX_LISTED_PATHS", 720)
    visited = []
    assert enumerate_dyck((11, 8), cartan3, FilterLevel.COND2, visit=visited.append) == 720
    assert len(visited) == 720
    monkeypatch.setattr(counting, "MAX_LISTED_PATHS", 719)
    with pytest.raises(ValueError, match=r"^listing stops at 719 paths; \(11, 8\) has more$"):
        enumerate_dyck((11, 8), cartan3, FilterLevel.COND2, visit=_no_visit)
    # the count alone is not a listing
    assert enumerate_dyck((11, 8), cartan3, FilterLevel.COND2) == 720


@pytest.mark.parametrize("level", list(FilterLevel), ids=str)
def test_state_ceiling_admits_its_own_count(cartan3, monkeypatch, level):
    states = len(_reference_states((11, 8), cartan3, level))
    expected = counting._count(11, 8, cartan3, level)
    monkeypatch.setattr(counting, "MAX_WALK_STATES", states)
    assert enumerate_dyck((11, 8), cartan3, level) == expected
    monkeypatch.setattr(counting, "MAX_WALK_STATES", states - 1)
    message = rf"^enumeration stops at {states - 1} search states; \(11, 8\) needs more$"
    with pytest.raises(ValueError, match=message):
        enumerate_dyck((11, 8), cartan3, level)
    with pytest.raises(ValueError, match=message):
        enumerate_dyck((11, 8), cartan3, level, visit=_no_visit)


def test_enumeration_refuses_a_root_above_the_bound_height(cartan3, monkeypatch):
    # refused before the walk, which recurses once per run pair
    monkeypatch.setattr(counting, "_successors", _no_walk)
    with pytest.raises(ValueError, match="^exact bounds stop at height"):
        enumerate_dyck((1001, 1000), cartan3, FilterLevel.DYCK)


def _visited_words(weight, cartan, level):
    """The visitor's run tuples made words one by one, in visiting order."""
    runs = []
    enumerate_dyck(weight, cartan, level, visit=runs.append)
    return [runs_to_word(r) for r in runs]


def test_words_match_the_visited_runs():
    for r in (3, 4, 5):
        cartan = Rank2Cartan(r)
        for total in range(2, 21):
            for n in range(1, total):
                m = total - n
                if gcd(n, m) != 1:
                    continue
                for level in FilterLevel:
                    expected = _visited_words((n, m), cartan, level)
                    words = dyck_words((n, m), cartan, level)
                    assert words == expected, (r, n, m, level)


def test_words_of_a_large_listing(cartan3):
    words = dyck_words((12, 13), cartan3, FilterLevel.COND1)
    assert len(words) == len(set(words)) == 45751
    assert words == _visited_words((12, 13), cartan3, FilterLevel.COND1)


def test_words_are_empty_when_no_path_passes(cartan3):
    assert enumerate_dyck((7, 1), cartan3, FilterLevel.COND1) == 0
    assert dyck_words((7, 1), cartan3, FilterLevel.COND1) == []


# dyck_words refuses with enumerate_dyck's messages, tested above
def test_words_refuse_past_the_listing_ceiling(cartan3, monkeypatch):
    # (11,8) has 720 paths under cond2
    monkeypatch.setattr(counting, "MAX_LISTED_PATHS", 720)
    assert len(dyck_words((11, 8), cartan3, FilterLevel.COND2)) == 720
    monkeypatch.setattr(counting, "MAX_LISTED_PATHS", 719)
    with pytest.raises(ValueError, match=r"^listing stops at 719 paths; \(11, 8\) has more$"):
        dyck_words((11, 8), cartan3, FilterLevel.COND2)


def test_words_refuse_past_the_state_ceiling(cartan3, monkeypatch):
    level = FilterLevel.COND2
    states = len(_reference_states((11, 8), cartan3, level))
    monkeypatch.setattr(counting, "MAX_WALK_STATES", states)
    assert len(dyck_words((11, 8), cartan3, level)) == 720
    monkeypatch.setattr(counting, "MAX_WALK_STATES", states - 1)
    message = rf"^enumeration stops at {states - 1} search states; \(11, 8\) needs more$"
    with pytest.raises(ValueError, match=message):
        dyck_words((11, 8), cartan3, level)


def test_words_refuse_bad_endpoints_before_the_walk(cartan3, monkeypatch):
    monkeypatch.setattr(counting, "_successors", _no_walk)
    with pytest.raises(ValueError, match="^exact bounds stop at height"):
        dyck_words((1001, 1000), cartan3, FilterLevel.DYCK)
    with pytest.raises(ValueError, match="^enumeration needs both coordinates positive$"):
        dyck_words((0, 3), cartan3, FilterLevel.DYCK)
