import json
import tracemalloc
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
    visits_statistic,
    word_to_runs,
)
from rootbounds import sampler
from rootbounds.sampler import (
    MAX_CHUNKS,
    MAX_THREADS,
    _chunk_rng,
    _chunk_sizes,
    _cond1_rows,
    _cond1_screen,
    _cond1_table,
    _cond2_pass_rows,
    _estimate_chunk,
    _lone_one_limit,
    _rotate_batch,
    _run_pairs,
    _runs,
    _sig6,
    _sqrt_sig6,
    _sub_batches,
    _visit_counts,
)
from rootbounds.stability_filters import cond1, cond2


def _whole_chunk(n, m, seed, index, size):
    """Chunk `index` of the seeded stream in one matrix: its sub-batches, concatenated."""
    return np.concatenate(list(_sub_batches(n, m, seed, index, size)))


def _reference_rotation(W, n, m):
    """The rotation before the window gather: a modular index matrix and take_along_axis."""
    B, N = W.shape
    dt = np.int32 if n * m < 2**31 else np.int64
    inc = np.where(W == 1, n, -m).astype(dt)
    heights = np.empty((B, N), dtype=dt)
    heights[:, 0] = 0
    np.cumsum(inc[:, : N - 1], axis=1, out=heights[:, 1:])
    p = np.argmin(heights, axis=1)
    idx = ((p[:, None] + np.arange(N, dtype=np.int64)[None, :]) % N).astype(np.int32)
    return np.take_along_axis(W, idx, axis=1)


def _reference_pairs(R):
    """The padded pair matrices U, V and pad mask of rotated words, decoded from the matrix."""
    B, N = R.shape
    ends = np.empty((B, N), dtype=bool)
    np.not_equal(R[:, 1:], R[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    at = np.flatnonzero(ends)
    pairs = np.diff(at, prepend=-1).reshape(-1, 2)
    row = at[0::2] // N
    npairs = np.bincount(row, minlength=B)
    col = np.arange(len(row)) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    K = int(npairs.max(initial=0))
    U = np.zeros((B, K), dtype=np.int64)
    V = np.zeros((B, K), dtype=np.int64)
    U[row, col] = pairs[:, 0]
    V[row, col] = pairs[:, 1]
    return U, V, np.arange(K) >= npairs[:, None]


def _cond1_pass(U, V, lim):
    """cond1 over every row of padded pair matrices, as decided before the flat runs."""
    return (V <= lim[U]).all(axis=1) & (U[:, 1:] <= lim[V[:, :-1]]).all(axis=1)


# every coprime word type with at most 14 letters
SMALL_TYPES = [(n, total - n) for total in range(2, 15) for n in range(1, total)
               if gcd(n, total - n) == 1]


def test_single_path_endpoint():
    # (1,2) admits exactly one path, the word 110, whichever word is drawn
    W = _whole_chunk(1, 2, seed=0, index=0, size=25)
    assert {tuple(row) for row in W} == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert _rotate_batch(W, 1, 2).tolist() == [[1, 1, 0]] * 25


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
    R = _rotate_batch(_whole_chunk(n, m, seed=123, index=0, size=draws), n, m)
    counts = Counter(word_to_runs(row).runs for row in R)
    assert len(counts) == 5
    expected = draws / 5
    four_sigma = 4 * (draws * 0.2 * 0.8) ** 0.5
    for runs, count in counts.items():
        assert abs(count - expected) < four_sigma, (runs, count)


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


def test_chunk_plan():
    # estimate and stats share this plan; MAX_CHUNKS chunks are allowed, one more is not
    assert _chunk_sizes(2500, 1000) == [1000, 1000, 500]
    assert _chunk_sizes(10, 65536) == [10]
    assert len(_chunk_sizes(MAX_CHUNKS, 1)) == MAX_CHUNKS
    with pytest.raises(ValueError, match="more than"):
        _chunk_sizes(MAX_CHUNKS + 1, 1)


@pytest.mark.parametrize("weight", [(1, 2), (16, 15), (51, 50), (201, 200)], ids=str)
@pytest.mark.parametrize("rows", [1, 3, 7, None], ids=["1", "3", "7", "default"])
def test_sub_batches_match_single_draw(weight, rows, monkeypatch):
    # the int64 sub-batches of a chunk are the rows of one int8 draw of the
    # whole chunk from the same stream; 1000 rows leave a short last batch
    n, m = weight
    size = 1000
    if rows is None:
        rows = sampler.SUB_BATCH_BYTES // (8 * (n + m))
    else:
        monkeypatch.setattr(sampler, "SUB_BATCH_BYTES", rows * 8 * (n + m))
    batches = list(_sub_batches(n, m, 2026, 4, size))
    assert [len(W) for W in batches] == [rows] * (size // rows) + [size % rows] * (size % rows > 0)
    assert all(W.dtype == np.int64 for W in batches)
    base = np.zeros(n + m, dtype=np.int8)
    base[:m] = 1
    one = _chunk_rng(2026, 4).permuted(np.tile(base, (size, 1)), axis=1)
    assert np.array_equal(np.concatenate(batches), one)


def _traced_peak(job):
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("job", ["cond1", "cond2", "visits"])
def test_chunk_memory_is_bounded(job):
    # a chunk runs in sub-batches, so its peak allocation stays at a few MB
    # whatever its size (a whole 65,536-row chunk at (201,200) took 75 MB)
    def run(size):
        if job == "visits":
            return lambda: visits_statistic(k=200, distance=1, samples=size, seed=1, chunk=size)
        level = FilterLevel.COND1 if job == "cond1" else FilterLevel.COND2
        return lambda: _estimate_chunk((201, 200, 3, level, 1, 0, size))

    small, big = (_traced_peak(run(size)) for size in (8192, 65536))
    assert max(small, big) < 6 * 2**20, (small, big)
    assert big < small + 2**20, (small, big)


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


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seed_is_refused_before_any_work(monkeypatch, cartan3, seed):
    def no_work(*args):
        raise RuntimeError("work started")

    monkeypatch.setattr(sampler, "dyck_count", no_work)
    monkeypatch.setattr(sampler, "_chunk_rng", no_work)
    message = rf"^seed must be a nonnegative integer, got {seed}$"
    with pytest.raises(ValueError, match=message):
        estimate_bound((4, 3), cartan3, FilterLevel.COND1, samples=10, seed=seed)
    with pytest.raises(ValueError, match=message):
        visits_statistic(k=5, distance=1, samples=10, seed=seed)


BAD_COUNTS = [0, -3, 2.5, True, False, "4", None]


@pytest.mark.parametrize("name", ["samples", "chunk", "threads"])
@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
def test_bad_counts_are_refused_before_any_work(monkeypatch, cartan3, name, value):
    def no_work(*args):
        raise RuntimeError("work started")

    monkeypatch.setattr(sampler, "dyck_count", no_work)
    monkeypatch.setattr(sampler, "_chunk_rng", no_work)
    kwargs = dict(samples=10, chunk=5, threads=1)
    kwargs[name] = value
    with pytest.raises(ValueError):
        estimate_bound((4, 3), cartan3, FilterLevel.COND1, seed=0, **kwargs)
    if name != "threads":
        del kwargs["threads"]
        with pytest.raises(ValueError):
            visits_statistic(k=5, distance=1, seed=0, **kwargs)


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
    """The chunk counter before the cond1 screen, the window gather and the flat cond1."""
    R = _reference_rotation(_whole_chunk(n, m, seed, index, size), n, m)
    U, V, _ = _reference_pairs(R)
    ok = _cond1_pass(U, V, _cond1_table(n + m, r))
    if level is FilterLevel.COND1:
        return int(ok.sum())
    cartan = Rank2Cartan(r)
    return sum(cond2(word_to_runs(R[i]).runs, cartan) for i in np.flatnonzero(ok))


# at 2**62 the pass clamps r to 2m, where every step holds, so its terms stay in int64
@pytest.mark.parametrize("r", [3, 4, 5, 2**62], ids=["3", "4", "5", "2^62"])
def test_cond2_batch_matches_scalar(r):
    # every rotated word, not only cond1's survivors; a batch of all words
    # of one type mixes run counts, so short rows are padded
    cartan = Rank2Cartan(r)
    assert {(2, 1), (1, 2)} <= set(SMALL_TYPES)
    padded = 0
    for n, m in SMALL_TYPES:
        R = _rotate_batch(np.array(list(all_words(n, m)), dtype=np.int8), n, m)
        runs = [word_to_runs(row).runs for row in R]
        pairs = _run_pairs(*_runs(R), np.ones(len(R), dtype=bool))
        got = _cond2_pass_rows(*pairs, n, m, r)
        assert got.tolist() == [cond2(a, cartan) for a in runs], (n, m)
        padded += len({len(a) for a in runs}) > 1
    assert padded > len(SMALL_TYPES) // 2


def test_lone_one_limit():
    assert [_lone_one_limit(Rank2Cartan(r)) for r in (3, 4, 5, 2**62)] == [3, 4, 5, 2**62]


@pytest.mark.parametrize("r", [3, 4, 5, 2**62], ids=["3", "4", "5", "2^62"])
def test_cond1_batch_matches_scalar(r):
    # every rotated word; at r = 2**62 a product r*a*b would pass 2**63;
    # a batch of all words of one type mixes run counts, so the flat runs
    # change rows at different offsets, and the padded reference pads
    # short rows with zero pairs, which must pass
    cartan = Rank2Cartan(r)
    verdicts = set()
    mixed = 0
    for n, m in SMALL_TYPES:
        lim = _cond1_table(n + m, r)
        R = _rotate_batch(np.array(list(all_words(n, m)), dtype=np.int8), n, m)
        runs = [word_to_runs(row).runs for row in R]
        want = [cond1(a, cartan) for a in runs]
        assert _cond1_rows(*_runs(R), lim, len(R)).tolist() == want, (n, m)
        assert _cond1_pass(*_reference_pairs(R)[:2], lim).tolist() == want, (n, m)
        verdicts.update(want)
        mixed += len({len(a) for a in runs}) > 1
    assert verdicts == ({True} if r == 2**62 else {True, False})
    assert mixed > len(SMALL_TYPES) // 2
    empty = np.zeros((0, 7), dtype=np.int8)
    assert _cond1_rows(*_runs(empty), _cond1_table(7, r), 0).shape == (0,)


def test_run_pairs_of_no_rows():
    # the screen can mark every row of a chunk, and cond1 can fail every row
    runs, row = _runs(_rotate_batch(np.zeros((0, 7), dtype=np.int64), 3, 4))
    assert runs.shape == row.shape == (0,)
    U, V, pad = _run_pairs(runs, row, np.zeros(0, dtype=bool))
    assert U.shape == V.shape == pad.shape == (0, 0)
    R = _rotate_batch(np.array(list(all_words(3, 4)), dtype=np.int8), 3, 4)
    U, V, pad = _run_pairs(*_runs(R), np.zeros(len(R), dtype=bool))
    assert U.shape == V.shape == pad.shape == (0, 0)


def test_run_pairs_keep_the_chosen_rows():
    for n, m in SMALL_TYPES:
        R = _rotate_batch(np.array(list(all_words(n, m)), dtype=np.int8), n, m)
        keep = np.arange(len(R)) % 3 != 1
        got = _run_pairs(*_runs(R), keep)
        want = _reference_pairs(R[keep])
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (n, m)


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


@pytest.mark.parametrize(
    "weight", [(201, 200), (51, 50), (16, 15), (11, 15), (4, 3), (1, 2), (2, 1)], ids=str
)
@pytest.mark.parametrize("r", [3, 4, 2**62], ids=["3", "4", "2^62"])
@pytest.mark.parametrize("level", [FilterLevel.COND1, FilterLevel.COND2], ids=str)
def test_screened_chunk_matches_unscreened(weight, r, level):
    # the small roots are shorter than the screen's pattern, so nothing is
    # marked; at 2**62 nothing is marked and every row is rotated
    size = 4000 if weight[0] > 100 else 20000 if weight[0] > 10 else 2000
    args = (*weight, r, level, 2026, 1, size)
    assert _estimate_chunk(args) == _unscreened_chunk(*args)


def test_window_rotation_matches_reference_on_all_words():
    for n, m in SMALL_TYPES:
        W = np.array(list(all_words(n, m)), dtype=np.int64)
        R = _rotate_batch(W, n, m)
        assert R.dtype == np.int8
        assert np.array_equal(R, _reference_rotation(W, n, m)), (n, m)


@pytest.mark.parametrize("weight", [(51, 50), (50, 51), (201, 200)], ids=str)
def test_window_rotation_matches_reference_on_draws(weight):
    W = _whole_chunk(*weight, seed=2026, index=3, size=3000)
    assert np.array_equal(_rotate_batch(W, *weight), _reference_rotation(W, *weight))


def _rotated_visit_counts(W, distance):
    """The visit counter before the rotation-free form: rotate, then walk."""
    B, N = W.shape
    R = _rotate_batch(W, (N + 1) // 2, N // 2)
    diag = np.cumsum(np.where(R == 1, 1, -1).astype(np.int32), axis=1)
    counts = (diag == distance).sum(axis=1)
    if distance == 0:
        counts = counts + 1
    return counts


@pytest.mark.parametrize("distance", [0, 1, 2, 3])
def test_visit_counts_match_rotation_on_all_words(distance):
    for k in range(1, 7):
        W = np.array(list(all_words(k + 1, k)), dtype=np.int8)
        assert np.array_equal(_visit_counts(W, distance), _rotated_visit_counts(W, distance)), k


@pytest.mark.parametrize("k", [200, 300])
def test_visit_counts_match_rotation_on_draws(k):
    W = _whole_chunk(k + 1, k, seed=3, index=0, size=4000)
    for distance in (0, 1, 2, 5):
        assert np.array_equal(_visit_counts(W, distance), _rotated_visit_counts(W, distance))


def test_visits_wide_walk_matches_rotation():
    # N = 32769 letters is past the int16 range, so the walk runs in int32
    k = 16384
    counts = _rotated_visit_counts(_whole_chunk(k + 1, k, seed=0, index=0, size=2), 0)
    mean = Fraction(int(counts.sum()), 2)
    variance = Fraction(int((counts**2).sum()), 2) - mean * mean
    report = visits_statistic(k=k, distance=0, samples=2, seed=0)
    assert (report.mean, report.std_error) == (_sig6(mean), _sqrt_sig6(variance / 2))
