"""Uniform random rational Dyck paths: the numpy pipeline behind montecarlo.py.

Sampling is exact-uniform: draw a uniformly shuffled word, then rotate it
to the unique cyclic representative that stays above the diagonal (the
minimum of the weighted height profile is unique because the endpoint
coordinates are coprime).  Estimation runs in fixed-size chunks, each with
its own child RNG stream derived from (seed, chunk index), so results are
bit-identical for a given (seed, samples, chunk) at any thread count.

A chunk is drawn from its one generator in consecutive int64 sub-batches
of at most SUB_BATCH_BYTES, so a chunk's memory stays at a few
sub-batches whatever its size.  One worker is the calling thread plus one
draw helper (_drawn_ahead): the helper draws the next sub-batch while the
caller runs the last through its pipeline or count, so at most two are
in flight.  The visit statistic always runs so, and so does an estimate
on one thread or of a single chunk.  An estimate on more workers runs
whole chunks on a pool of that many threads, each of which runs a
sub-batch through the whole pipeline before it draws the next, and
starts no helper.  Either way the rows and their order are set by the
seed and the chunk sizes alone, so no result depends on the thread
count.  The rows are those of one permuted call over the whole chunk,
and 8-byte items take numpy's fast swap path.  Words longer than
MAX_LETTERS, whose single row would outgrow a sub-batch, are refused.
The draw, Generator.permuted(axis=1), releases the GIL while it
shuffles, for int64 items as for float64 ones: under numpy 2.4, with the
switch interval at 1 s, a thread sleeping 1 ms at a time kept waking
about once a millisecond through a draw, and not once through
sum(range(...)), which keeps the GIL.  So the draw does not make the
threads queue.

An estimate sends each sub-batch through one pipeline: draw, then
screen, rotate, decode runs, cond1, cond2 (_hit_counter).  Only the draw
touches every row at full cost; at small roots the stages after it take
about as long, and the helper's next draw hides behind them.  The screen
marks unrotated words that hold, cyclically, a lone 1 followed by at
least b1 zeros (b1 the shortest run that cond1_pair rejects after a run
of 1): they fail cond1 whatever their rotation, since the rotation cuts
between a 0 and a 1, never inside those two runs.  Unmarked rows are
cast to int8 once and laid twice end to end; one in-place cumsum of the
weighted steps finds each cut, and the rotated word is the window of
the doubled row that starts there.  Their runs are decoded once, into
one flat list of run lengths, row after row.  cond1 compares every run
with the limit table of the run before it in its row and counts the
failures per row.  cond2 reads the runs of cond1's survivors from the
same flat list: each row's prefix sums come off global cumsums, and its
running min off one running min over the list, each row lowered below
the rows before it, with r clamped to 2m, past which every cond2 step
holds.

The visit statistic at (k+1, k) rotates nothing: the weighted height
there is (k + 1/2)*D + i/2 for the +-1 walk D of the word, so the cut is
the first minimum of D and the rotated walk is read off D on either side
of it.  That count is about a third of a sub-batch's time at k = 200,
and the helper's next draw hides it.

This is the one module of the package that imports numpy or
concurrent.futures.  Only montecarlo's entry points import it, once their
inputs have passed, so nothing here checks them again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core_lattice import Rank2Cartan
from .montecarlo import SUB_BATCH_BYTES
from .stability_filters import FilterLevel, cond1_limit, cond1_limits, cond2_step
from .stability_filters import cond2  # noqa: F401  bench/tracing.py patches sampler.cond2


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _sub_batches(n: int, m: int, seed: int, index: int, size: int) -> Iterator[np.ndarray]:
    """Chunk `index` of the seeded stream, `size` uniformly shuffled words of m ones, n zeros.

    The rows come as consecutive int64 sub-batches of at most
    SUB_BATCH_BYTES.  permuted(axis=1) shuffles row after row from the
    one generator, so the sub-batches concatenate to the rows of a single
    call, and 8-byte items take numpy's fast swap path with the same stream.
    Each sub-batch is shuffled in place, in the array np.tile made, so it
    costs no second copy.
    """
    base = np.zeros(n + m, dtype=np.int64)
    base[:m] = 1
    rng = _chunk_rng(seed, index)
    rows = SUB_BATCH_BYTES // base.nbytes  # at least 1: words are at most MAX_LETTERS long
    for start in range(0, size, rows):
        W = np.tile(base, (min(rows, size - start), 1))
        rng.permuted(W, axis=1, out=W)
        yield W


def _drawn_ahead(n: int, m: int, seed: int, sizes) -> Iterator[np.ndarray]:
    """Every sub-batch of the seeded chunks of these sizes, in order, each drawn one step ahead.

    One helper thread draws the next sub-batch while the caller works on
    the last: the draw releases the GIL, and only the helper advances the
    one stream of sub-batches, so the rows and their order are those of
    the chunks drawn one after another.  The caller closes the generator
    (contextlib.closing) so that, whichever side raises, leaving the pool
    waits for the draw in flight and no thread outlives the call.
    """
    batches = (
        W for index, size in enumerate(sizes) for W in _sub_batches(n, m, seed, index, size)
    )
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(next, batches, None)
        while (W := ahead.result()) is not None:
            ahead = pool.submit(next, batches, None)
            yield W


def _rotate_batch(W: np.ndarray, n: int, m: int) -> np.ndarray:
    """The words W of m ones and n zeros rotated to their Dyck representatives, as int8 rows.

    The weighted height after i letters (+n per 1, -m per 0) has a unique
    minimum over i = 1..N, since n and m are coprime, and it returns to 0
    at i = N; the cut is the position after that minimum, and cutting at N
    is cutting at 0.  Each row is cast to int8 once, laid twice end to end,
    and its rotation is the window of length N that starts at the cut.
    """
    B, N = W.shape
    WW = np.empty((B, 2 * N), dtype=np.int8)
    WW[:, :N] = W
    WW[:, N:] = WW[:, :N]
    # heights are bounded by n*m in absolute value
    H = np.multiply(WW[:, :N], n + m, dtype=np.int32 if n * m < 2**31 else np.int64)
    H -= m
    np.cumsum(H, axis=1, out=H)
    cut = np.argmin(H, axis=1) + 1
    # the N + 1 windows of each doubled row, as sliding_window_view(WW, N,
    # axis=1) has them, without its per-call cost of tens of microseconds
    windows = as_strided(WW, (B, N + 1, N), (2 * N, 1, 1), writeable=False)
    return windows[np.arange(B), cut]


def _runs(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run lengths of rotated words, flat and row after row, and the row of each run.

    A rotated word starts with 1 and ends with 0, so every row holds an
    even number of runs, and the flat list alternates up and right runs.
    """
    B, N = R.shape
    ends = np.empty((B, N), dtype=bool)
    np.not_equal(R[:, 1:], R[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    # each row ends a run at its last letter, so the gaps between run ends
    # in the flattened matrix are the run lengths
    at = np.flatnonzero(ends)
    return np.diff(at, prepend=-1), at // N


def _cond1_table(N: int, r: int) -> np.ndarray:
    """cond1_limits(N, r) as an int64 lookup table for _cond1_rows."""
    return np.array(cond1_limits(N, r), dtype=np.int64)


def _cond1_rows(runs: np.ndarray, row: np.ndarray, lim: np.ndarray, B: int) -> np.ndarray:
    """cond1 for each of B rotated words of length N, from their flat runs.

    Each run is at most the cond1_limit of the run before it in its row,
    looked up in lim = _cond1_table(N, r), clipped to N, so no product can
    overflow; a row fails when any of its runs does.
    """
    bad = runs[1:] > lim[runs[:-1]]
    bad &= row[1:] == row[:-1]
    return np.bincount(row[1:][bad], minlength=B) == 0


def _cond2_rows(
    runs: np.ndarray, row: np.ndarray, keep: np.ndarray, n: int, m: int, r: int
) -> np.ndarray:
    """cond2 for each rotated word to (n, m) where keep holds, from the flat runs of _runs.

    With a row's exclusive prefix sums O, E and low = min(m, f over the
    row's earlier pairs), f = 2*O + u - r*E, each up run u is decided by
    cond2_step, exactly as cond2 does it one row at a time; a row where
    keep fails is False.
    """
    # every step holds once r >= 2m, so r = 2m decides the same: past the
    # first pair E >= 1, and each candidate f(x) + r*E of low + r*E is
    # O_{x-1} + O_x + r*(E - E_{x-1}) >= r, so with O + u <= m the right
    # factor is at least (r - m)*n >= m*n > E*m; the first pair reads
    # 0 <= (m - u)*n
    r = min(r, 2 * m)
    sel = keep[row]
    pairs = runs[sel].reshape(-1, 2)
    U, V = pairs[:, 0], pairs[:, 1]
    prow = row[sel][0::2]
    first = np.empty(len(prow), dtype=bool)
    first[:1] = True
    np.not_equal(prow[1:], prow[:-1], out=first[1:])
    start = np.flatnonzero(first)
    size = np.diff(start, append=len(prow))
    O = np.cumsum(U) - U
    E = np.cumsum(V) - V
    O -= np.repeat(O[start], size)
    E -= np.repeat(E[start], size)
    # f lies in [-r*n, 3*m] and K passes its spread, so lowering the f of
    # row b by b*K puts a row's f below those of the rows before it, and one
    # running min over the flat list never reaches back past a row's first
    # pair.  With r <= 2m and N <= MAX_LETTERS = 2^17, every term stays
    # below 2^53: a sub-batch has at most 2^17/N rows and K <= (2N + 1)^2,
    # and the terms of cond2_step are at most 2*(r+1)*N^2 <= 4*N^3
    K = 2 * (r + 2) * (n + m) + 1
    f = 2 * O + U - r * E - prow * K
    low = np.empty_like(f)
    low[1:] = np.minimum.accumulate(f)[:-1] + prow[1:] * K
    low[first] = m
    np.minimum(low, m, out=low)
    bad = ~cond2_step(O, E, low, U, n, m, r)
    return keep & (np.bincount(prow[bad], minlength=len(keep)) == 0)


def _lone_one_limit(cartan: Rank2Cartan) -> int:
    """The shortest run b that cond1_pair rejects after a run of 1; longer runs fail too."""
    return cond1_limit(1, cartan.r) + 1


def _cond1_screen(W: np.ndarray, b1: int) -> np.ndarray:
    """Rows of unrotated words that surely fail cond1.

    A row is marked when, read cyclically, it holds a 0, then a 1, then
    b1 zeros.  The rotation to the Dyck representative cuts between a 0
    and a 1, so it splits neither that lone 1 from the zero run after it
    nor the zero run itself: the rotated runs hold the consecutive pair
    (1, b) with b >= b1.  Words shorter than the pattern are never marked.
    """
    B, N = W.shape
    span = b1 + 2
    if N < span:
        return np.zeros(B, dtype=bool)
    Z = np.empty((B, N + span - 1), dtype=bool)
    np.equal(W, 0, out=Z[:, :N])
    Z[:, N:] = Z[:, : span - 1]
    hit = Z[:, :N] > Z[:, 1 : N + 1]  # a 0, then a 1
    for j in range(2, span):
        hit &= Z[:, j : N + j]
    return hit.any(axis=1)


def _hit_counter(n: int, m: int, r: int, level: FilterLevel) -> Callable[[np.ndarray], int]:
    """The function that counts the words of one sub-batch to (n, m) that pass level.

    Each sub-batch runs the pipeline: screen, rotate, decode runs, cond1,
    cond2.  The screen's b1 and cond1's limit table are made once, here.
    """
    b1 = _lone_one_limit(Rank2Cartan(r))
    lim = _cond1_table(n + m, r)

    def hits(W: np.ndarray) -> int:
        R = _rotate_batch(W[~_cond1_screen(W, b1)], n, m)
        runs, row = _runs(R)
        ok = _cond1_rows(runs, row, lim, len(R))
        if level is FilterLevel.COND2 and ok.any():
            ok = _cond2_rows(runs, row, ok, n, m, r)
        return int(ok.sum())

    return hits


def _estimate_chunk(args) -> int:
    n, m, r, level, seed, index, size = args
    return sum(map(_hit_counter(n, m, r, level), _sub_batches(n, m, seed, index, size)))


def count_hits(n: int, m: int, r: int, level: FilterLevel, seed: int, sizes, threads: int) -> int:
    """The words to (n, m) in the seeded chunks of these sizes that pass level.

    With more than one worker (threads and chunks both above 1), each
    worker thread of a pool runs whole chunks.  One worker is the caller,
    counting each sub-batch while one helper draws the next.
    """
    workers = min(threads, len(sizes))
    if workers > 1:
        jobs = [(n, m, r, level, seed, i, s) for i, s in enumerate(sizes)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(_estimate_chunk, jobs))
    with closing(_drawn_ahead(n, m, seed, sizes)) as batches:
        return sum(map(_hit_counter(n, m, r, level), batches))


def _visit_counts(W: np.ndarray, distance: int) -> np.ndarray:
    """Points on y - x = distance of each rotated word to (k+1, k), N = 2k+1.

    With D the +-1 walk of the word (1 up), the weighted height after i
    letters is (k + 1/2)*D_i + i/2, and i/2 < k + 1/2, so the cut p is the
    first argmin of D_0..D_{N-1}.  As D_N = D_0 - 1, that is the first
    argmin q of D_1..D_N (q = N when p = 0).  The rotated walk visits
    D_i - D_q for i > q and D_i - D_q - 1 for i <= q, plus its origin.
    """
    B, N = W.shape
    # the walk stays within N of zero
    dt = np.int16 if N < 2**15 else np.int32
    D = np.cumsum(W, axis=1, dtype=dt)
    D *= 2
    D -= np.arange(1, N + 1, dtype=dt)
    q = np.argmin(D, axis=1).astype(dt)
    # D - D_q lies in [0, N - 1], as the walk moves by 1 a letter, so a
    # distance past N is never met; clamped to N it keeps every value
    # below inside dt
    D -= np.take_along_axis(D, q[:, None], axis=1) + min(distance, N)
    D -= np.arange(N, dtype=dt) <= q[:, None]
    counts = np.count_nonzero(D == 0, axis=1)
    if distance == 0:
        counts += 1  # the origin sits on the main diagonal
    return counts


def visit_sums(k: int, distance: int, seed: int, sizes) -> tuple[int, int]:
    """The sum and the sum of squares of the visit counts over the seeded chunks of these sizes."""
    total = total_sq = 0
    with closing(_drawn_ahead(k + 1, k, seed, sizes)) as batches:
        for W in batches:
            counts = _visit_counts(W, distance)
            total += int(counts.sum())
            total_sq += int((counts**2).sum())
    return total, total_sq
