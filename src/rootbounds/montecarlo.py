"""Monte-Carlo estimates of filtered path counts and the diagonal-visit
statistic: their input checks, limits and reports.  The reports are
plain values; the CLI writes them as JSON like every other result.

Each entry point checks all its inputs, then imports sampler.py, the one
module that imports numpy, to run its chunks; so neither an import of
this module nor a refused call loads numpy.
"""

# no postponed annotations here: NamedTuple would compile each field's
# annotation string, a third of this module's import time
from decimal import Decimal, localcontext
from fractions import Fraction
from numbers import Integral
from typing import NamedTuple

from .core_lattice import Rank2Cartan, as_weight, dyck_count, is_int
from .stability_filters import FilterLevel

DEFAULT_CHUNK = 1 << 16
# estimate_bound refuses more worker threads than this, so a typo in
# --threads cannot start thousands of them
MAX_THREADS = 64
# the chunk plan refuses more chunks than this, so a tiny --chunk cannot
# make estimate build, or stats loop over, a near-endless job list
MAX_CHUNKS = 1 << 20
# a chunk is drawn and run through its pipeline in int64 sub-batches of at
# most this many bytes, so its memory does not grow with the chunk size
SUB_BATCH_BYTES = 1 << 20
# estimate and stats refuse longer words, one row of which would outgrow a
# sub-batch; it also keeps the flat cond2 pass inside int64
MAX_LETTERS = SUB_BATCH_BYTES // 8


class EstimateReport(NamedTuple):
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


class VisitsReport(NamedTuple):
    k: int
    distance: int
    samples: int
    seed: int
    mean: str
    std_error: str


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
    significant digits as decimal strings.  The chunks run on
    min(threads, number of chunks) workers.  One worker is the calling
    thread plus one helper that draws the next sub-batch while the caller
    counts the last; more workers are a pool of that many threads, each
    running whole chunks.  The result never depends on the thread count.
    threads above MAX_THREADS, and more than MAX_CHUNKS chunks, are
    refused.
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
    from .sampler import count_hits
    hits = count_hits(n, m, cartan.r, level, seed, sizes, threads)
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
    sizes = _chunk_sizes(samples, chunk)
    from .sampler import visit_sums
    total, total_sq = visit_sums(k, distance, seed, sizes)
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
