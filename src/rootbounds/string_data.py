"""Binary words, run-length (string data) encoding, and the validity criterion.

A word over {0, 1} is recorded by its runs (a1, a2, ...): a1 letters 1,
then a2 letters 0, alternating.  Odd-indexed runs are always the letter 1
(steps in alpha1, drawn as "up"), even-indexed runs the letter 0 (alpha0,
"right"); a1 = 0 encodes words that start with 0.  A run sequence is
canonical when every run after the first is >= 1.  word_to_runs returns
it as a plain tuple of ints, and every function here and in
stability_filters takes it as any sequence of ints; littelmann_valid,
runs_to_word, cond1 and cond2 refuse any other run through check_runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, islice, pairwise
from math import isqrt
from typing import Iterable, Sequence

from .core_lattice import Rank2Cartan, Weight, as_weight, is_int

# littelmann_roots refuses a count whose roots would hold more bits than
# this, 16 MiB
MAX_ROOT_BITS = 1 << 27


def _as_bits(word: Iterable) -> list[int]:
    bits = []
    for ch in word:
        if ch in (0, 1):
            bits.append(ch)
        elif ch in ("0", "1"):
            bits.append(int(ch))
        else:
            raise ValueError(f"word letters must be 0 or 1, got {ch!r}")
    return bits


def word_to_runs(word: Iterable) -> tuple[int, ...]:
    """Canonical run encoding; inverse of runs_to_word."""
    bits = _as_bits(word)
    runs: list[int] = []
    cur_letter = 1
    cur = 0
    for b in bits:
        if b == cur_letter:
            cur += 1
        else:
            runs.append(cur)
            cur_letter = b
            cur = 1
    if bits:
        runs.append(cur)
    return tuple(runs)


def check_runs(runs: Sequence[int]) -> None:
    """Refuse, with one ValueError, a run of any type but int: a numpy integer
    wraps at large r, a float breaks the exact arithmetic, and True passes for 1."""
    if not {*map(type, runs)} <= {int}:
        raise ValueError(f"runs must be plain integers, got {runs!r}")


def runs_to_word(runs: Sequence[int]) -> str:
    check_runs(runs)
    if min(runs[1:], default=1) < 1 or (runs and runs[0] < 0):
        raise ValueError(f"non-canonical run sequence {runs}")
    out = []
    letter = "1"
    for a in runs:
        out.append(letter * a)
        letter = "0" if letter == "1" else "1"
    return "".join(out)


def weight_of(runs: Sequence[int]) -> Weight:
    """c0 = total letter-0 (even-indexed) run length, c1 = total letter-1."""
    return Weight(sum(runs[1::2]), sum(runs[0::2]))


def is_dyck(runs: Sequence[int]) -> bool:
    """Path stays weakly above the straight diagonal to its endpoint.

    Checked by exact cross-multiplication x*m <= y*n at the end of every
    right run, which is where the path is lowest.
    """
    if not runs:
        return True
    if len(runs) % 2 != 0 or runs[0] < 1 or any(a < 1 for a in runs):
        return False
    n, m = weight_of(runs)
    x = y = 0
    for i, a in enumerate(runs):
        if i % 2 == 0:
            y += a
        else:
            x += a
            if x * m > y * n:
                return False
    return True


def _measuring_roots(cartan: Rank2Cartan) -> Iterator[Weight]:
    """beta_1 = alpha0, beta_2 = s0(alpha1), ... without end.

    Alternating reflections expand to the integer recurrence
    beta_{j+1} = r*beta_j - beta_{j-1}, seeded so that beta_1 = (1, 0).
    """
    prev, cur = (0, -1), (1, 0)
    while True:
        yield Weight(*cur)
        prev, cur = cur, (cartan.r * cur[0] - prev[0], cartan.r * cur[1] - prev[1])


def littelmann_roots(cartan: Rank2Cartan, count: int) -> list[Weight]:
    """The first count measuring roots beta_1 = alpha0, beta_2 = s0(alpha1), ...

    For r = 3 the coordinates run through even-index Fibonacci numbers.
    The j-th root has about j*log2(r) bits in each coordinate, so the list
    holds about count^2 * log2(r) bits; a count whose list would pass
    MAX_ROOT_BITS is refused before any root is made.
    """
    if not is_int(count) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    most = isqrt(MAX_ROOT_BITS // cartan.r.bit_length())
    if count > most:
        raise ValueError(f"count must be at most {most} at r = {cartan.r}, got {count}")
    return list(islice(_measuring_roots(cartan), count))


def littelmann_valid(runs: Sequence[int], cartan: Rank2Cartan) -> bool:
    """Whether a run sequence is the string data of a crystal element.

    The criterion compares consecutive runs against the measuring roots:
    a_{j+2} * beta_j <= a_{j+1} * beta_{j+1} componentwise, for every j
    with 1 <= j <= L-2.  Length <= 2 is always valid.  The roots gain
    about 1.39 bits a step at r = 3, so they are made two at a time and
    the walk stops at the first failing pair.
    """
    check_runs(runs)
    return _pairs_valid(runs, cartan)


def _pairs_valid(runs: Sequence[int], cartan: Rank2Cartan) -> bool:
    """littelmann_valid's pair test, for runs already known to be plain ints."""
    pairs = pairwise(_measuring_roots(cartan))
    for a_cur, a_next, (bj, bj1) in zip(runs[1:], runs[2:], pairs):
        if a_next * bj.c0 > a_cur * bj1.c0 or a_next * bj.c1 > a_cur * bj1.c1:
            return False
    return True


def count_valid_string_data(weight, cartan: Rank2Cartan, limit: int = 24) -> int:
    """Exhaustively count words of the given weight with valid string data.

    Equals the weight-space dimension of the positive half of the algebra.
    Guarded: the word space has binomial(c0+c1, c1) elements.
    """
    c0, c1 = as_weight(weight)
    total = c0 + c1
    if total > limit:
        raise ValueError(
            f"weight height {total} exceeds enumeration limit {limit}; "
            "use the Kostant partition count instead"
        )
    count = 0
    for ones in combinations(range(total), c1):
        word = [0] * total
        for i in ones:
            word[i] = 1
        # word_to_runs makes plain ints, so the run check is skipped
        if _pairs_valid(word_to_runs(word), cartan):
            count += 1
    return count
