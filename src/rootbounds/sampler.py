"""Uniform random rational Dyck paths and Monte-Carlo bound estimation.

Sampling is exact-uniform: draw a uniformly shuffled word, then rotate it
to the unique cyclic representative that stays above the diagonal (the
minimum of the weighted height profile is unique because the endpoint
coordinates are coprime).  Estimation runs in fixed-size chunks, each with
its own child RNG stream derived from (seed, chunk index), so results are
bit-identical for a given (seed, samples, chunk) at any thread count.

Only the draw touches every row at full cost.  An estimate first screens
the unrotated words: a row holding, cyclically, a lone 1 followed by at
least b1 zeros (b1 the shortest run that cond1_pair rejects after a run
of 1) fails cond1 whatever its rotation, since the rotation cuts between
a 0 and a 1, never inside those two runs.  Only unmarked rows are rotated
and given the exact cond1 test, and cond1's survivors are given cond2 in
one dense pass over their padded run matrices.  The visit statistic at
(k+1, k) rotates nothing: the weighted height there is (k + 1/2)*D + i/2
for the +-1 walk D of the word, so the cut is the first minimum of D and
the rotated walk is read off D on either side of it.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Optional

import numpy as np

from .core_lattice import Rank2Cartan, dyck_count
from .stability_filters import FilterLevel, cond1_pair, cond2_step
from .stability_filters import cond2  # noqa: F401  bench/tracing.py patches sampler.cond2
from .string_data import DyckPath, StringData, is_dyck

DEFAULT_CHUNK = 1 << 16
# estimate_bound refuses more worker threads than this, so a typo in
# --threads cannot start thousands of them
MAX_THREADS = 64


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


def sample_uniform_dyck(weight, rng: np.random.Generator) -> DyckPath:
    """One exactly-uniform Dyck path to (n, m) = weight, gcd(m, n) = 1."""
    n, m = weight
    if gcd(m, n) != 1:
        raise ValueError("uniform sampling requires a coprime endpoint")
    N = n + m
    base = np.zeros(N, dtype=np.int8)
    base[:m] = 1
    word = rng.permutation(base)
    heights = np.empty(N, dtype=np.int64)
    heights[0] = 0
    np.cumsum(np.where(word == 1, n, -m)[: N - 1], out=heights[1:])
    p = int(np.argmin(heights))
    if int((heights == heights[p]).sum()) != 1:
        raise ArithmeticError(f"cycle lemma: word to {(n, m)} has no unique lowest point")
    rotated = np.roll(word, -p)
    boundaries = np.flatnonzero(rotated[1:] != rotated[:-1])
    runs = np.diff(np.concatenate(([-1], boundaries, [N - 1])))
    path = DyckPath(StringData(tuple(int(a) for a in runs)), (n, m))
    if not is_dyck(path.data):
        raise ArithmeticError(f"rotated word to {(n, m)} is not a Dyck path")
    return path


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


def _cond1_pass_rows(R: np.ndarray, r: int) -> np.ndarray:
    """Vectorized consecutive-run-ratio test over every row at once."""
    B, N = R.shape
    change = R[:, 1:] != R[:, :-1]
    rows, cols = np.nonzero(change)
    passed = np.ones(B, dtype=bool)
    if len(cols) == 0:
        return passed  # single-run rows (cannot happen for rotated paths with n,m >= 1)
    prev = np.empty_like(cols)
    prev[0] = -1
    same_row = rows[1:] == rows[:-1]
    prev[1:] = np.where(same_row, cols[:-1], -1)
    runlen = cols - prev  # all runs except each row's last
    a = runlen[:-1]
    b = runlen[1:]
    bad = same_row & (b > a) & (a * a + b * b - r * a * b > 0)
    passed[rows[:-1][bad]] = False
    is_last = np.empty(len(cols), dtype=bool)
    is_last[:-1] = ~same_row
    is_last[-1] = True
    a = runlen[is_last]
    b = (N - 1) - cols[is_last]
    bad = (b > a) & (a * a + b * b - r * a * b > 0)
    passed[rows[is_last][bad]] = False
    return passed


def _cond2_pass_rows(R: np.ndarray, n: int, m: int, r: int) -> np.ndarray:
    """cond2 over every row of rotated words to (n, m) at once.

    Row b's runs fill row b of the pair matrices U (up runs) and V (right
    runs); a row with fewer pairs than the widest is padded with zero
    pairs, which are masked out.  With the exclusive prefix sums O, E and
    low = min(m, f over the earlier pairs), f = 2*O + U - r*E, each pair
    is decided by cond2_step, exactly as cond2 does it one row at a time.
    """
    B, N = R.shape
    ends = np.empty((B, N), dtype=bool)
    np.not_equal(R[:, 1:], R[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    # each row ends a run at its last letter, so the gaps between run ends
    # in the flattened matrix are the run lengths, row after row; a rotated
    # word starts with 1 and ends with 0, so the runs pair up as (u, v)
    at = np.flatnonzero(ends)
    # |terms of cond2_step| <= 2*(r+1)*N^2; past int64, stay exact in Python ints
    dt = np.int64 if 2 * (r + 1) * N * N < 2**63 else object
    pairs = np.diff(at, prepend=-1).astype(dt).reshape(-1, 2)
    row = at[0::2] // N
    npairs = np.bincount(row, minlength=B)
    col = np.arange(len(row)) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    K = int(npairs.max())
    U = np.zeros((B, K), dtype=dt)
    V = np.zeros((B, K), dtype=dt)
    U[row, col] = pairs[:, 0]
    V[row, col] = pairs[:, 1]
    O = np.cumsum(U, axis=1) - U
    E = np.cumsum(V, axis=1) - V
    low = np.empty((B, K), dtype=dt)
    low[:, 0] = m
    low[:, 1:] = np.minimum.accumulate(2 * O + U - r * E, axis=1)[:, :-1]
    low = np.minimum(low, m)
    pad = np.arange(K) >= npairs[:, None]
    return (cond2_step(O, E, low, U, n, m, r) | pad).all(axis=1)


def _lone_one_limit(cartan: Rank2Cartan) -> int:
    """The shortest run b that cond1_pair rejects after a run of 1; longer runs fail too."""
    return next(b for b in count(2) if not cond1_pair(1, b, cartan))


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
    rng = _chunk_rng(seed, index)
    base = np.zeros(n + m, dtype=np.int8)
    base[:m] = 1
    W = rng.permuted(np.tile(base, (size, 1)), axis=1)
    cartan = Rank2Cartan(r)
    R = _rotate_batch(W[~_cond1_screen(W, _lone_one_limit(cartan))], n, m)
    ok = _cond1_pass_rows(R, r)
    if level is FilterLevel.COND1 or not ok.any():
        return int(ok.sum())
    return int(_cond2_pass_rows(R[ok], n, m, r).sum())


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
    min(threads, number of chunks) threads; threads above MAX_THREADS
    are refused.
    """
    n, m = weight
    if level not in (FilterLevel.COND1, FilterLevel.COND2):
        raise ValueError("estimation targets the cond1 or cond2 filter")
    if samples < 1:
        raise ValueError("need at least one sample")
    if chunk < 1:
        raise ValueError("chunk size must be positive")
    if threads > MAX_THREADS:
        raise ValueError(f"threads must be at most {MAX_THREADS}, got {threads}")
    total = dyck_count(n, m)  # also validates coprimality
    sizes = [chunk] * (samples // chunk)
    if samples % chunk:
        sizes.append(samples % chunk)
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
    if k < 1 or distance < 0 or samples < 1:
        raise ValueError("need k >= 1, distance >= 0, samples >= 1")
    if chunk < 1:
        raise ValueError("chunk size must be positive")
    n, m = k + 1, k
    base = np.zeros(n + m, dtype=np.int8)
    base[:m] = 1
    total = 0
    total_sq = 0
    done = 0
    index = 0
    while done < samples:
        size = min(chunk, samples - done)
        rng = _chunk_rng(seed, index)
        W = rng.permuted(np.tile(base, (size, 1)), axis=1)
        counts = _visit_counts(W, distance)
        total += int(counts.sum())
        total_sq += int((counts**2).sum())
        done += size
        index += 1
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
