import json
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import all_words
from rootbounds import (
    FilterLevel,
    Rank2Cartan,
    dyck_count,
    estimate_bound,
    is_dyck,
    sample_uniform_dyck,
    visits_statistic,
    word_to_runs,
)
from rootbounds.sampler import (
    MAX_THREADS,
    _chunk_rng,
    _cond1_pass_rows,
    _cond1_screen,
    _cond2_pass_rows,
    _estimate_chunk,
    _lone_one_limit,
    _rotate_batch,
    _sig6,
    _sqrt_sig6,
    _visit_counts,
)
from rootbounds.stability_filters import cond1, cond2


def test_single_path_endpoint():
    # (1,2) admits exactly one path, the word 110
    rng = _chunk_rng(0, 0)
    for _ in range(25):
        path = sample_uniform_dyck((1, 2), rng)
        assert path.data.runs == (2, 1)
        assert path.endpoint == (1, 2)


def test_sample_rejects_non_coprime():
    with pytest.raises(ValueError):
        sample_uniform_dyck((2, 2), _chunk_rng(0, 0))


def test_rotation_fibers_follow_cycle_lemma():
    # rotating every word of a fixed type to its unique above-diagonal
    # representative hits each path exactly n+m times
    for total in range(3, 10):
        for m in range(1, total):
            n = total - m
            if gcd(n, m) != 1:
                continue
            W = np.array(list(all_words(n, m)), dtype=np.int8)
            R = _rotate_batch(W, n, m)
            fibers = Counter(word_to_runs(row).runs for row in R)
            assert len(fibers) == dyck_count(n, m), (n, m)
            assert set(fibers.values()) == {total}, (n, m)
            for runs in fibers:
                assert is_dyck(runs)


def test_sampling_is_uniform():
    n, m = 4, 3
    draws = 100_000
    rng = _chunk_rng(123, 0)
    base = np.zeros(n + m, dtype=np.int8)
    base[:m] = 1
    W = rng.permuted(np.tile(base, (draws, 1)), axis=1)
    R = _rotate_batch(W, n, m)
    counts = Counter(word_to_runs(row).runs for row in R)
    assert len(counts) == 5
    expected = draws / 5
    four_sigma = 4 * (draws * 0.2 * 0.8) ** 0.5
    for runs, count in counts.items():
        assert abs(count - expected) < four_sigma, (runs, count)


def test_vectorized_cond1_matches_scalar(cartan3, cartan4):
    n, m = 9, 5
    base = np.zeros(n + m, dtype=np.int8)
    base[:m] = 1
    rng = _chunk_rng(2, 0)
    W = rng.permuted(np.tile(base, (500, 1)), axis=1)
    R = _rotate_batch(W, n, m)
    for cartan in (cartan3, cartan4):
        ok = _cond1_pass_rows(R, cartan.r)
        for i in range(len(R)):
            assert bool(ok[i]) == cond1(word_to_runs(R[i]).runs, cartan), i


def test_estimate_on_certain_filter(cartan3):
    # the single path to (1,2) passes cond1, so the estimate is exact
    report = estimate_bound((1, 2), cartan3, FilterLevel.COND1, samples=64, seed=0)
    assert report.hits == 64
    assert report.dyck_total == 1
    assert report.estimate == "1"
    assert report.std_error == "0"


def test_estimate_small_weight(cartan3):
    # 4 of the 5 paths to (4,3) pass cond1: p = 0.8
    report = estimate_bound((4, 3), cartan3, FilterLevel.COND1, samples=10_000, seed=1)
    four_sigma = 4 * (10_000 * 0.8 * 0.2) ** 0.5
    assert abs(report.hits - 8000) < four_sigma
    assert abs(float(report.estimate) - 4.0) < 4 * float(report.std_error) + 1e-9


def test_estimate_tracks_exact_count(cartan3):
    # exact filtered count at (16,15) is 815215
    report = estimate_bound((16, 15), cartan3, FilterLevel.COND2, samples=10_000, seed=7)
    assert abs(float(report.estimate) - 815_215) <= 4 * float(report.std_error)


def test_estimate_deterministic_across_threads(cartan3):
    kwargs = dict(samples=3500, seed=5, chunk=1000)
    one = estimate_bound((16, 15), cartan3, FilterLevel.COND1, threads=1, **kwargs)
    four = estimate_bound((16, 15), cartan3, FilterLevel.COND1, threads=4, **kwargs)
    assert one.to_json() == four.to_json()


def test_estimate_pool_capped_at_chunk_count(cartan3, serial_pool):
    kwargs = dict(samples=3000, seed=5, chunk=1000)
    one = estimate_bound((16, 15), cartan3, FilterLevel.COND1, **kwargs)
    for threads in (2, 3, MAX_THREADS):
        report = estimate_bound((16, 15), cartan3, FilterLevel.COND1, threads=threads, **kwargs)
        assert report == one
    assert serial_pool == [2, 3, 3]
    estimate_bound((16, 15), cartan3, FilterLevel.COND1, threads=MAX_THREADS, samples=10, seed=0)
    assert serial_pool == [2, 3, 3]  # one chunk runs on the calling thread
    with pytest.raises(ValueError, match="at most"):
        estimate_bound((16, 15), cartan3, FilterLevel.COND1, threads=MAX_THREADS + 1, **kwargs)
    assert serial_pool == [2, 3, 3]


def test_estimate_independent_of_chunk_count(cartan3):
    # same seed, different chunking: streams differ, but both stay unbiased;
    # identical chunking must reproduce bit-identically
    a = estimate_bound((4, 3), cartan3, FilterLevel.COND2, samples=2000, seed=3, chunk=500)
    b = estimate_bound((4, 3), cartan3, FilterLevel.COND2, samples=2000, seed=3, chunk=500)
    assert a == b


def test_estimate_argument_errors(cartan3):
    with pytest.raises(ValueError):
        estimate_bound((4, 3), cartan3, FilterLevel.DYCK, samples=10, seed=0)
    with pytest.raises(ValueError):
        estimate_bound((4, 3), cartan3, FilterLevel.COND1, samples=0, seed=0)
    with pytest.raises(ValueError):
        estimate_bound((4, 2), cartan3, FilterLevel.COND1, samples=10, seed=0)
    with pytest.raises(ValueError):
        estimate_bound((4, 3), cartan3, FilterLevel.COND1, samples=10, seed=0, chunk=0)


def test_report_json_shape(cartan3):
    report = estimate_bound((4, 3), cartan3, FilterLevel.COND2, samples=100, seed=0)
    payload = json.loads(report.to_json())
    assert payload["root"] == [4, 3]
    assert payload["r"] == 3
    assert payload["filter"] == "cond2"
    for key in ("samples", "hits", "dyck_total", "seed", "chunk", "estimate", "std_error"):
        assert isinstance(payload[key], str), key
    assert payload["samples"] == "100"
    assert payload["dyck_total"] == "5"


def test_chunk_streams_split_cleanly():
    a = _chunk_rng(9, 0).permutation(30)
    b = _chunk_rng(9, 1).permutation(30)
    c = _chunk_rng(9, 0).permutation(30)
    assert list(a) == list(c)
    assert list(a) != list(b)


def test_visits_smallest_case():
    # k=1 has the single path 100; its diagonal profile is fixed
    report = visits_statistic(k=1, distance=0, samples=100, seed=0)
    assert report.mean == "2"
    assert report.std_error == "0"
    report = visits_statistic(k=1, distance=1, samples=100, seed=0)
    assert report.mean == "1"
    assert report.std_error == "0"


def test_visits_limit_value():
    # mean visit count on the diagonal approaches 4*distance + 4
    report = visits_statistic(k=200, distance=1, samples=20_000, seed=11)
    assert abs(float(report.mean) - 8.0) / 8.0 < 0.15


def test_visits_argument_errors():
    with pytest.raises(ValueError):
        visits_statistic(k=0, distance=0, samples=10, seed=0)
    with pytest.raises(ValueError):
        visits_statistic(k=1, distance=-1, samples=10, seed=0)
    with pytest.raises(ValueError):
        visits_statistic(k=1, distance=0, samples=0, seed=0)


def test_visits_json_shape():
    report = visits_statistic(k=2, distance=0, samples=50, seed=4)
    payload = json.loads(report.to_json())
    assert payload["k"] == 2
    assert payload["distance"] == 0
    assert payload["samples"] == "50"
    assert isinstance(payload["mean"], str)


@pytest.mark.parametrize(
    "weight, r, level, hits",
    [
        ((51, 50), 3, FilterLevel.COND1, 10),
        ((50, 51), 3, FilterLevel.COND2, 7),
        ((51, 50), 4, FilterLevel.COND2, 1851),
    ],
)
def test_estimate_pinned_hits(weight, r, level, hits):
    # seeded outputs pinned before the sampler's post-draw stages were rewritten
    report = estimate_bound(weight, Rank2Cartan(r), level, samples=65536, seed=2026)
    assert report.hits == hits


def test_visits_pinned_outputs():
    report = visits_statistic(k=300, distance=2, samples=20000, seed=3, chunk=16384)
    assert report.to_json() == (
        '{"distance":2,"k":300,"mean":"11.6007","samples":"20000",'
        '"seed":"3","std_error":"0.0514361"}'
    )
    report = visits_statistic(k=100, distance=0, samples=20000, seed=3)
    assert (report.mean, report.std_error) == ("3.9152", "0.0134224")


def _unscreened_chunk(n, m, r, level, seed, index, size):
    """The chunk counter before the cond1 screen: rotate every row."""
    base = np.zeros(n + m, dtype=np.int8)
    base[:m] = 1
    W = _chunk_rng(seed, index).permuted(np.tile(base, (size, 1)), axis=1)
    R = _rotate_batch(W, n, m)
    ok = _cond1_pass_rows(R, r)
    if level is FilterLevel.COND1:
        return int(ok.sum())
    cartan = Rank2Cartan(r)
    return sum(cond2(word_to_runs(R[i]).runs, cartan) for i in np.flatnonzero(ok))


# 2**62 takes the Python-int branch: its terms overflow int64
@pytest.mark.parametrize("r", [3, 4, 5, 2**62], ids=["3", "4", "5", "2^62"])
def test_cond2_batch_matches_scalar(r):
    # every rotated word, not only cond1's survivors; a batch of all words
    # of one type mixes run counts, so short rows are padded
    cartan = Rank2Cartan(r)
    types = [(n, total - n) for total in range(2, 15) for n in range(1, total)
             if gcd(n, total - n) == 1]
    assert {(2, 1), (1, 2)} <= set(types)
    padded = 0
    for n, m in types:
        R = _rotate_batch(np.array(list(all_words(n, m)), dtype=np.int8), n, m)
        runs = [word_to_runs(row).runs for row in R]
        got = _cond2_pass_rows(R, n, m, r)
        assert got.tolist() == [cond2(a, cartan) for a in runs], (n, m)
        padded += len({len(a) for a in runs}) > 1
    assert padded > len(types) // 2


def test_lone_one_limit():
    assert [_lone_one_limit(Rank2Cartan(r)) for r in (3, 4, 5)] == [3, 4, 5]


@pytest.mark.parametrize("r", [3, 4, 5])
def test_cond1_screen_marks_only_failing_words(r):
    cartan = Rank2Cartan(r)
    b1 = _lone_one_limit(cartan)
    marked_any = False
    for total in range(2, 13):
        for m in range(1, total):
            n = total - m
            if gcd(n, m) != 1:
                continue
            W = np.array(list(all_words(n, m)), dtype=np.int8)
            marked = _cond1_screen(W, b1)
            if total < b1 + 2:
                assert not marked.any(), (n, m)
            R = _rotate_batch(W[marked], n, m)
            for row in R:
                assert not cond1(word_to_runs(row).runs, cartan), (n, m, row)
            marked_any |= bool(marked.any())
    assert marked_any


@pytest.mark.parametrize("weight", [(51, 50), (16, 15), (4, 3), (1, 2), (2, 1)], ids=str)
@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("level", [FilterLevel.COND1, FilterLevel.COND2], ids=str)
def test_screened_chunk_matches_unscreened(weight, r, level):
    # the small roots are shorter than the screen's pattern, so nothing is marked
    args = (*weight, r, level, 2026, 1, 20000 if weight[0] > 10 else 2000)
    assert _estimate_chunk(args) == _unscreened_chunk(*args)


def _rotated_visit_counts(W, distance):
    """The visit counter before the rotation-free form: rotate, then walk."""
    B, N = W.shape
    R = _rotate_batch(W, (N + 1) // 2, N // 2)
    diag = np.cumsum(np.where(R == 1, 1, -1).astype(np.int32), axis=1)
    counts = (diag == distance).sum(axis=1)
    if distance == 0:
        counts = counts + 1
    return counts


def _draw_visit_chunk(k, seed, index, size):
    base = np.zeros(2 * k + 1, dtype=np.int8)
    base[:k] = 1
    return _chunk_rng(seed, index).permuted(np.tile(base, (size, 1)), axis=1)


@pytest.mark.parametrize("distance", [0, 1, 2, 3])
def test_visit_counts_match_rotation_on_all_words(distance):
    for k in range(1, 7):
        W = np.array(list(all_words(k + 1, k)), dtype=np.int8)
        assert np.array_equal(_visit_counts(W, distance), _rotated_visit_counts(W, distance)), k


@pytest.mark.parametrize("k", [200, 300])
def test_visit_counts_match_rotation_on_draws(k):
    W = _draw_visit_chunk(k, seed=3, index=0, size=4000)
    for distance in (0, 1, 2, 5):
        assert np.array_equal(_visit_counts(W, distance), _rotated_visit_counts(W, distance))


def test_visits_wide_walk_matches_rotation():
    # N = 32769 letters is past the int16 range, so the walk runs in int32
    k = 16384
    counts = _rotated_visit_counts(_draw_visit_chunk(k, seed=0, index=0, size=2), 0)
    mean = Fraction(int(counts.sum()), 2)
    variance = Fraction(int((counts**2).sum()), 2) - mean * mean
    report = visits_statistic(k=k, distance=0, samples=2, seed=0)
    assert (report.mean, report.std_error) == (_sig6(mean), _sqrt_sig6(variance / 2))
