"""Uniform random rational Dyck paths and Monte-Carlo bound estimation.

Sampling is exact-uniform: draw a uniformly shuffled word, then rotate it
to the unique cyclic representative that stays above the diagonal (the
minimum of the weighted height profile is unique because the endpoint
coordinates are coprime).  Estimation runs in fixed-size chunks, each with
its own child RNG stream derived from (seed, chunk index), so results are
bit-identical for a given (seed, samples, chunk) at any thread count.

A chunk is drawn from its one generator in consecutive int64 sub-batches
of at most SUB_BATCH_BYTES, and each sub-batch runs the whole pipeline
before the next is drawn, so a chunk's memory stays at a few sub-batches
whatever its size.  The rows are those of one permuted call over the
whole chunk, and 8-byte items take numpy's fast swap path.  Words longer
than MAX_LETTERS, whose single row would outgrow a sub-batch, are refused.
The draw, Generator.permuted(axis=1), releases the GIL while it
shuffles, for int64 items as for float64 ones: under numpy 2.4, with the
switch interval at 1 s, a thread sleeping 1 ms at a time kept waking
about once a millisecond through a draw, and not once through
sum(range(...)), which keeps the GIL.  So the draw does not make the
threads queue.

An estimate chunk is one pipeline: draw, screen, rotate, decode runs,
cond1, cond2.  Only the draw touches every row at full cost.  The screen
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
of it.

This is the one module of the package that imports numpy.  The package
and the CLI load it on first use of a sampler name, so the exact commands
never load numpy.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core_lattice import Rank2Cartan, as_weight, dyck_count, is_int
from .limits import DEFAULT_CHUNK, MAX_THREADS
from .stability_filters import FilterLevel, cond1_limit, cond1_limits, cond2_step
from .stability_filters import cond2  # noqa: F401  bench/tracing.py patches sampler.cond2

# the chunk plan refuses more chunks than this, so a tiny --chunk cannot
# make estimate build, or stats loop over, a near-endless job list
MAX_CHUNKS = 1 << 20
# a chunk is drawn and run through its pipeline in int64 sub-batches of at
# most this many bytes, so its memory does not grow with the chunk size
SUB_BATCH_BYTES = 1 << 20
# estimate and stats refuse longer words, one row of which would outgrow a
# sub-batch; it also keeps the flat cond2 pass inside int64
MAX_LETTERS = SUB_BATCH_BYTES // 8


@dataclass(frozen=True)
class EstimateReport:
    weight: tuple[int, int]
    r: int
    filter: FilterLevel
    samples: int
    hits: int
    dyck_total: int
    estimate: str
    std_error: str
    seed: int
    chunk: int

    def to_json(self) -> str:
        # every other integer goes out as a decimal string, so no parser
        # rounds one; the root coordinates and r are JSON numbers, as given
        payload = {
            "root": [self.weight[0], self.weight[1]],
            "r": self.r,
            "filter": self.filter.value,
            "samples": str(self.samples),
            "hits": str(self.hits),
            "dyck_total": str(self.dyck_total),
            "estimate": self.estimate,
            "std_error": self.std_error,
            "seed": str(self.seed),
            "chunk": str(self.chunk),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class VisitsReport:
    k: int
    distance: int
    samples: int
    seed: int
    mean: str
    std_error: str

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "distance": self.distance,
            "samples": str(self.samples),
            "seed": str(self.seed),
            "mean": self.mean,
            "std_error": self.std_error,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sig6(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 6
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _sqrt_sig6(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 28
        root = (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
        ctx.prec = 6
        return str(+root)


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


def _check_letters(letters: int) -> None:
    if letters > MAX_LETTERS:
        raise ValueError(f"words of {letters} letters are more than {MAX_LETTERS}")


def _check_seed(seed) -> None:
    # numpy's SeedSequence would refuse it only when the first chunk is
    # drawn; bool is an Integral, and True would pass for 1
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _chunk_sizes(samples: int, chunk: int) -> list[int]:
    """The sizes of the chunks that draw `samples` rows, chunk index = position."""
    for name, value in (("samples", samples), ("chunk", chunk)):
        if not is_int(value):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if chunk < 1:
        raise ValueError("chunk size must be positive")
    count = -(-samples // chunk)
    if count > MAX_CHUNKS:
        raise ValueError(
            f"{samples} samples in chunks of {chunk} make {count} chunks, more than {MAX_CHUNKS}"
        )
    sizes = [chunk] * (samples // chunk)
    if samples % chunk:
        sizes.append(samples % chunk)
    return sizes


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


def _estimate_chunk(args) -> int:
    n, m, r, level, seed, index, size = args
    b1 = _lone_one_limit(Rank2Cartan(r))
    lim = _cond1_table(n + m, r)
    hits = 0
    for W in _sub_batches(n, m, seed, index, size):
        R = _rotate_batch(W[~_cond1_screen(W, b1)], n, m)
        runs, row = _runs(R)
        ok = _cond1_rows(runs, row, lim, len(R))
        if level is FilterLevel.COND2 and ok.any():
            ok = _cond2_rows(runs, row, ok, n, m, r)
        hits += int(ok.sum())
    return hits


def estimate_bound(
    weight,
    cartan: Rank2Cartan,
    level: FilterLevel,
    samples: int,
    seed: int,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> EstimateReport:
    """Monte-Carlo estimate of a filtered path count.

    estimate = (hits / samples) * dyck_total, with the binomial standard
    error sqrt(p(1-p)/samples) * dyck_total; both reported to 6
    significant digits as decimal strings.  Chunks run on at most
    min(threads, number of chunks) threads; threads above MAX_THREADS,
    and more than MAX_CHUNKS chunks, are refused.
    """
    n, m = as_weight(weight)
    _check_seed(seed)
    if level not in (FilterLevel.COND1, FilterLevel.COND2):
        raise ValueError("estimation targets the cond1 or cond2 filter")
    sizes = _chunk_sizes(samples, chunk)
    if not is_int(threads) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    if threads > MAX_THREADS:
        raise ValueError(f"threads must be at most {MAX_THREADS}, got {threads}")
    _check_letters(n + m)
    total = dyck_count(n, m)  # also validates coprimality
    jobs = [(n, m, cartan.r, level, seed, i, s) for i, s in enumerate(sizes)]
    workers = min(threads, len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(_estimate_chunk, jobs))
    else:
        hits = sum(map(_estimate_chunk, jobs))
    p = Fraction(hits, samples)
    return EstimateReport(
        weight=(n, m),
        r=cartan.r,
        filter=level,
        samples=samples,
        hits=hits,
        dyck_total=total,
        estimate=_sig6(p * total),
        std_error=_sqrt_sig6(p * (1 - p) / samples * total * total),
        seed=seed,
        chunk=chunk,
    )


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
    q = np.argmin(D, axis=1)
    D -= np.take_along_axis(D, q[:, None], axis=1)
    D -= np.arange(N) <= q[:, None]
    counts = (D == distance).sum(axis=1)
    if distance == 0:
        counts += 1  # the origin sits on the main diagonal
    return counts


def visits_statistic(
    k: int,
    distance: int,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
) -> VisitsReport:
    """Mean number of path points on the shifted diagonal y - x = distance,
    over uniform Dyck paths to (k+1, k).  Approaches 4*distance + 4 for
    large k.
    """
    if not (is_int(k) and is_int(distance)) or k < 1 or distance < 0:
        raise ValueError(f"need integers k >= 1 and distance >= 0, got {k!r} and {distance!r}")
    _check_seed(seed)
    _check_letters(2 * k + 1)
    total = total_sq = 0
    for index, size in enumerate(_chunk_sizes(samples, chunk)):
        for W in _sub_batches(k + 1, k, seed, index, size):
            counts = _visit_counts(W, distance)
            total += int(counts.sum())
            total_sq += int((counts**2).sum())
    mean = Fraction(total, samples)
    variance = Fraction(total_sq, samples) - mean * mean
    return VisitsReport(
        k=k,
        distance=distance,
        samples=samples,
        seed=seed,
        mean=_sig6(mean),
        std_error=_sqrt_sig6(variance / samples),
    )
