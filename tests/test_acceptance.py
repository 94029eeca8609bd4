"""Acceptance gate: every headline numeric guarantee of the package, each
checked at full stated size in its own test so `pytest -v` reports one
pass/fail line per guarantee.  Everything here is exact arithmetic except
the Monte-Carlo and asymptotic checks, whose tolerances are stated inline.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np

from conftest import all_words
from rootbounds import (
    FilterLevel,
    MultiplicityTable,
    Rank2Cartan,
    Weight,
    bound1,
    bound2,
    bound_report,
    cond1_pair,
    count_valid_string_data,
    dyck_count,
    enumerate_dyck,
    estimate_bound,
    kostant_count,
    littelmann_valid,
    visits_statistic,
    word_to_runs,
)
from rootbounds.cli import main as cli_main
from rootbounds.sampler import _rotate_batch


def test_a01_worked_example_4_3(cartan3, table3):
    t0 = time.monotonic()
    words = ["".join(map(str, w)) for w in all_words(4, 3)]
    assert len(words) == 35
    invalid = {w for w in words if not littelmann_valid(word_to_runs(w), cartan3)}
    assert invalid == {"0100011", "1010001", "1101000"}
    assert len(words) - len(invalid) == 32 == kostant_count((4, 3), cartan3, table3)
    report = bound_report((4, 3), cartan3)
    assert report.dyck_total == 5
    assert report.count_thm1 == 4
    assert table3.entry(Weight(4, 3))[1] == 4
    assert time.monotonic() - t0 < 1.0


def test_a02_worked_example_3_4(cartan3, table3):
    t0 = time.monotonic()
    report = bound_report((3, 4), cartan3)
    assert report.dyck_total == 5
    assert report.count_thm1 == 5  # every path survives the run-ratio filter here
    mult = table3.entry(Weight(3, 4))[1]
    assert mult == 4
    assert report.count_thm1 - mult == 1
    assert time.monotonic() - t0 < 1.0


def test_a03_exact_counts_large_roots(cartan3, table3):
    t0 = time.monotonic()
    report = bound_report((15, 11), cartan3)
    assert (report.dyck_total, report.count_thm1, report.count_thm2) == (
        297160,
        23868,
        23750,
    )
    assert table3.entry(Weight(15, 11))[1] == 23750

    report = bound_report((16, 15), cartan3)
    assert (report.count_thm1, report.count_thm2) == (837218, 815215)
    assert table3.entry(Weight(16, 15))[1] == 815214

    report = bound_report((15, 16), cartan3)
    assert (report.count_thm1, report.count_thm2) == (1234431, 817505)
    assert time.monotonic() - t0 < 3600


def test_a04_staircase_bound_exactness(cartan3, table3):
    t0 = time.monotonic()
    mults = {n: table3.entry(Weight(n + 1, n))[1] for n in range(1, 11)}
    for n in range(1, 7):
        assert bound1((n + 1, n), cartan3) == mults[n], n
    assert bound1((8, 7), cartan3) > mults[7]
    for n in range(1, 11):
        assert bound2((n + 1, n), cartan3) == mults[n], n
    assert time.monotonic() - t0 < 600


def test_a05_large_root_multiplicity(cartan3, table3):
    t0 = time.monotonic()
    m = table3.entry(Weight(51, 50))[1]
    assert m == 203934938917850692376836
    rounded = 203935 * 10**18  # 2.03935e23 without float loss
    assert abs(m - rounded) * 10**6 < 5 * rounded
    assert time.monotonic() - t0 < 300


def test_a06_monte_carlo_pass_fractions(cartan3):
    t0 = time.monotonic()
    samples = 10**7
    targets = [
        ((51, 50), FilterLevel.COND1, Fraction(112637, 10**9)),
        ((51, 50), FilterLevel.COND2, Fraction(103219, 10**9)),
        ((50, 51), FilterLevel.COND1, Fraction(171935, 10**9)),
        ((50, 51), FilterLevel.COND2, Fraction(103504, 10**9)),
    ]
    for weight, level, p in targets:
        report = estimate_bound(weight, cartan3, level, samples=samples, seed=2026)
        observed = Fraction(report.hits, samples)
        sigma = math.sqrt(p / samples)
        assert abs(float(observed - p)) < 5 * sigma, (weight, level)
    assert time.monotonic() - t0 < 1800


def test_a07_count_formula_vs_enumeration(cartan3):
    for total in range(2, 15):
        for m in range(1, total):
            n = total - m
            if gcd(n, m) != 1:
                continue
            assert dyck_count(n, m) == enumerate_dyck((n, m), cartan3, FilterLevel.DYCK), (n, m)


def test_a08_partition_count_vs_string_count():
    for r in (3, 4):
        cartan = Rank2Cartan(r)
        table = MultiplicityTable(cartan)
        for c0 in range(13):
            for c1 in range(13 - c0):
                assert kostant_count((c0, c1), cartan, table) == count_valid_string_data(
                    (c0, c1), cartan
                ), (r, c0, c1)


def test_a09_rotation_fiber_sizes():
    for total in range(2, 12):
        for m in range(1, total):
            n = total - m
            if gcd(n, m) != 1:
                continue
            W = np.array(list(all_words(n, m)), dtype=np.int8)
            R = _rotate_batch(W, n, m)
            fibers = Counter(word_to_runs(row).runs for row in R)
            assert len(fibers) == dyck_count(n, m), (n, m)
            assert set(fibers.values()) == {total}, (n, m)


def test_a10_ratio_filter_matches_real_threshold():
    side = np.arange(1, 2001, dtype=np.int32)
    A, B = np.meshgrid(side, side, indexing="ij")
    for r in (3, 4, 5):
        exact = (B <= A) | (A * A + B * B - r * A * B <= 0)
        threshold = (r + math.sqrt(r * r - 4)) / 2
        real = B <= threshold * A
        assert np.array_equal(exact, real), r
    # the r=3 threshold is the square of the golden ratio
    assert math.isclose(((1 + math.sqrt(5)) / 2) ** 2, (3 + math.sqrt(5)) / 2)
    cartan = Rank2Cartan(3)
    assert cond1_pair(5, 13, cartan)
    assert not cond1_pair(5, 14, cartan)


def test_a11_diagonal_visit_asymptote():
    for distance in (1, 2, 3, 4):
        report = visits_statistic(k=200, distance=distance, samples=10**5, seed=1)
        target = 4 * distance + 4
        assert abs(float(report.mean) - target) / target < 0.15, distance


def test_a12_estimate_byte_determinism(capsys):
    argv = [
        "estimate",
        "--root", "16,15",
        "--theorem", "2",
        "--samples", "3000",
        "--seed", "9",
        "--chunk", "1000",
    ]
    outputs = []
    for threads in ("1", "4"):
        assert cli_main(argv + ["--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n")
