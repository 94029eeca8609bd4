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
Two threads run well under twice as fast: the draw,
Generator.permuted(axis=1), holds the GIL for much of its time (a Python
thread spinning beside it keeps about half its rate; beside axis=None,
which draws another stream, its full rate), so threads contend for it.

An estimate chunk is one pipeline: draw, screen, rotate, decode runs,
cond1, cond2.  Only the draw touches every row at full cost.  The screen
marks unrotated words that hold, cyclically, a lone 1 followed by at
least b1 zeros (b1 the shortest run that cond1_pair rejects after a run
of 1): they fail cond1 whatever their rotation, since the rotation cuts
between a 0 and a 1, never inside those two runs.  Unmarked rows are
rotated and their runs decoded once, into padded pair matrices of up and
right runs.  cond1 compares every run with the limit table of the run
before it; cond2 runs on cond1's survivors in one dense pass over the
same matrices, with r clamped to 2m, past which every cond2 step holds.
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

from .core_lattice import Rank2Cartan, dyck_count
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
# sub-batch; it also keeps the dense cond2 pass inside int64
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
        # every integer goes out as a decimal string except the small
        # root coordinates and r, so parsers never face >2^53 numbers
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
    """
    base = np.zeros(n + m, dtype=np.int64)
    base[:m] = 1
    rng = _chunk_rng(seed, index)
    rows = SUB_BATCH_BYTES // base.nbytes  # at least 1: words are at most MAX_LETTERS long
    for start in range(0, size, rows):
        yield rng.permuted(np.tile(base, (min(rows, size - start), 1)), axis=1)


def _check_letters(letters: int) -> None:
    if letters > MAX_LETTERS:
        raise ValueError(f"words of {letters} letters are more than {MAX_LETTERS}")


def _check_seed(seed) -> None:
    # numpy's SeedSequence would refuse it only when the first chunk is drawn
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _chunk_sizes(samples: int, chunk: int) -> list[int]:
    """The sizes of the chunks that draw `samples` rows, chunk index = position."""
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
    B, N = W.shape
    # prefix heights are bounded by n*m in absolute value
    dt = np.int32 if n * m < 2**31 else np.int64
    inc = np.where(W == 1, n, -m).astype(dt)
    heights = np.empty((B, N), dtype=dt)
    heights[:, 0] = 0
    np.cumsum(inc[:, : N - 1], axis=1, out=heights[:, 1:])
    p = np.argmin(heights, axis=1)
    idx = ((p[:, None] + np.arange(N, dtype=np.int64)[None, :]) % N).astype(np.int32)
    return np.take_along_axis(W, idx, axis=1)


def _run_pairs(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of rotated words as padded int64 pair matrices U, V and their pad mask.

    Row b's up runs fill row b of U and its right runs row b of V; a row
    with fewer pairs than the widest is padded with zero pairs, which the
    mask marks.
    """
    B, N = R.shape
    ends = np.empty((B, N), dtype=bool)
    np.not_equal(R[:, 1:], R[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    # each row ends a run at its last letter, so the gaps between run ends
    # in the flattened matrix are the run lengths, row after row; a rotated
    # word starts with 1 and ends with 0, so the runs pair up as (u, v)
    at = np.flatnonzero(ends)
    pairs = np.diff(at, prepend=-1).reshape(-1, 2)
    row = at[0::2] // N
    npairs = np.bincount(row, minlength=B)
    col = np.arange(len(row)) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    K = int(npairs.max(initial=0))  # the screen can leave no rows
    U = np.zeros((B, K), dtype=np.int64)
    V = np.zeros((B, K), dtype=np.int64)
    U[row, col] = pairs[:, 0]
    V[row, col] = pairs[:, 1]
    return U, V, np.arange(K) >= npairs[:, None]


def _cond1_table(N: int, r: int) -> np.ndarray:
    """cond1_limits(N, r) as an int64 lookup table for _cond1_pass."""
    return np.array(cond1_limits(N, r), dtype=np.int64)


def _cond1_pass(U: np.ndarray, V: np.ndarray, lim: np.ndarray) -> np.ndarray:
    """cond1 over every row of the pair matrices of words of length N.

    Each run is at most the cond1_limit of the run before it, looked up in
    lim = _cond1_table(N, r), clipped to N, so no product can overflow.
    Zero padding passes both tests: lim[0] = 0, and no run is negative.
    """
    return (V <= lim[U]).all(axis=1) & (U[:, 1:] <= lim[V[:, :-1]]).all(axis=1)


def _cond2_pass_rows(
    U: np.ndarray, V: np.ndarray, pad: np.ndarray, n: int, m: int, r: int
) -> np.ndarray:
    """cond2 over every row of the pair matrices of rotated words to (n, m).

    With the exclusive prefix sums O, E and low = min(m, f over the earlier
    pairs), f = 2*O + U - r*E, each pair is decided by cond2_step, exactly
    as cond2 does it one row at a time; pad pairs are masked out.
    """
    # every step holds once r >= 2m, so r = 2m decides the same: past the
    # first pair E >= 1, and each candidate f(x) + r*E of low + r*E is
    # O_{x-1} + O_x + r*(E - E_{x-1}) >= r, so with O + u <= m the right
    # factor is at least (r - m)*n >= m*n > E*m; the first pair reads
    # 0 <= (m - u)*n
    r = min(r, 2 * m)
    # |terms of cond2_step| <= 2*(r+1)*N^2 <= 4*N^3, and N <= MAX_LETTERS
    # = 2^17 keeps that at most 2^53, well inside int64
    O = np.cumsum(U, axis=1) - U
    E = np.cumsum(V, axis=1) - V
    low = np.empty_like(U)
    low[:, 0] = m
    low[:, 1:] = np.minimum.accumulate(2 * O + U - r * E, axis=1)[:, :-1]
    low = np.minimum(low, m)
    return (cond2_step(O, E, low, U, n, m, r) | pad).all(axis=1)


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
        U, V, pad = _run_pairs(R)
        ok = _cond1_pass(U, V, lim)
        if level is FilterLevel.COND2 and ok.any():
            ok = _cond2_pass_rows(U[ok], V[ok], pad[ok], n, m, r)
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
    n, m = weight
    _check_seed(seed)
    if level not in (FilterLevel.COND1, FilterLevel.COND2):
        raise ValueError("estimation targets the cond1 or cond2 filter")
    sizes = _chunk_sizes(samples, chunk)
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
    if k < 1 or distance < 0:
        raise ValueError("need k >= 1 and distance >= 0")
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
