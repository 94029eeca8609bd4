import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootbounds import (
    ALPHA0,
    ALPHA1,
    FilterLevel,
    Rank2Cartan,
    Weight,
    cond1,
    cond2,
    count_valid_string_data,
    enumerate_dyck,
    is_dyck,
    kostant_count,
    littelmann_roots,
    littelmann_valid,
    runs_to_word,
    simple_reflection,
    weight_of,
    word_to_runs,
)

from conftest import all_words
from rootbounds import string_data

bit_words = st.lists(st.integers(0, 1), max_size=30)


def _roots_by_reflection(cartan: Rank2Cartan, count: int) -> list[Weight]:
    # reference construction: alpha0, s0(alpha1), s0 s1(alpha0), ...
    out = []
    for j in range(1, count + 1):
        v = ALPHA0 if j % 2 == 1 else ALPHA1
        for i in range(j - 2, -1, -1):
            v = Weight(*simple_reflection(i % 2, v, cartan))
        out.append(v)
    return out


def canonical_runs():
    first = st.integers(0, 6)
    rest = st.lists(st.integers(1, 6), max_size=8)
    return st.tuples(first, rest).map(lambda t: (t[0], *t[1]) if t[1] else (t[0],))


def test_word_to_runs_examples():
    assert word_to_runs("1101000") == (2, 1, 1, 3)
    assert word_to_runs("1111111") == (7,)
    assert word_to_runs("0111") == (0, 1, 3)
    assert word_to_runs("") == ()


def test_runs_to_word_examples():
    assert runs_to_word((2, 2, 5, 6)) == "110011111000000"
    assert runs_to_word(()) == ""
    assert runs_to_word((0, 2, 1)) == "001"


def test_runs_to_word_rejects_interior_zero():
    with pytest.raises(ValueError):
        runs_to_word((2, 0, 1))
    with pytest.raises(ValueError):
        runs_to_word((1, 2, -1))


# r = 2^62 is where a numpy run wraps: littelmann_valid, cond1 and cond2
# returned False, with only a RuntimeWarning, for the np.int64 runs whose
# plain ints give True, and runs_to_word took any run that supports *
HUGE = Rank2Cartan(2**62)
RUN_ENTRY_POINTS = {
    "littelmann_valid": (lambda runs: littelmann_valid(runs, HUGE), (3, 2, 5, 1)),
    "cond1": (lambda runs: cond1(runs, HUGE), (5, 3, 4, 2)),
    "cond2": (lambda runs: cond2(runs, HUGE), (5, 3, 4, 2)),
    "runs_to_word": (runs_to_word, (5, 3, 4, 2)),
}


@pytest.mark.parametrize("name", RUN_ENTRY_POINTS)
def test_run_entry_points_refuse_runs_that_are_not_plain_ints(name):
    fn, runs = RUN_ENTRY_POINTS[name]
    assert fn(runs)
    for bad in (
        tuple(np.int64(a) for a in runs),
        np.array(runs),
        runs[:-1] + (2.0,),
        (True,) + runs[1:],
    ):
        with pytest.raises(ValueError, match=r"^runs must be plain integers, got "):
            fn(bad)


@given(word=bit_words)
def test_roundtrip_from_word(word):
    assert list(map(int, runs_to_word(word_to_runs(word)))) == word


@given(runs=canonical_runs())
def test_roundtrip_from_runs(runs):
    # (0,) encodes the same empty word as (); both are canonical spellings
    word = runs_to_word(runs)
    back = word_to_runs(word)
    if runs == (0,):
        assert back == ()
    else:
        assert back == runs


@given(word=bit_words)
def test_weight_counts_letters(word):
    w = weight_of(word_to_runs(word))
    assert w == Weight(word.count(0), word.count(1))


def test_weight_examples():
    assert weight_of((2, 1, 1, 3)) == (4, 3)
    assert weight_of((7,)) == (0, 7)
    assert weight_of((10, 3, 5, 13)) == (16, 15)


def test_is_dyck_examples():
    assert is_dyck((2, 1, 1, 3))
    assert not is_dyck((1, 3, 2, 1))
    assert is_dyck((1, 1))
    assert not is_dyck((0, 1, 3))  # must start with an up step
    assert not is_dyck((2, 1, 1))  # incomplete: odd run count


def test_littelmann_roots_values(cartan3):
    assert [tuple(b) for b in littelmann_roots(cartan3, 4)] == [
        (1, 0),
        (3, 1),
        (8, 3),
        (21, 8),
    ]
    assert [tuple(b) for b in littelmann_roots(Rank2Cartan(4), 3)] == [(1, 0), (4, 1), (15, 4)]


def test_littelmann_roots_match_reflection_composition():
    for r in (3, 4, 5):
        cartan = Rank2Cartan(r)
        assert littelmann_roots(cartan, 4) == _roots_by_reflection(cartan, 4)


def test_littelmann_roots_fibonacci(cartan3):
    # coordinates are the even-index Fibonacci numbers
    fib = [0, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for j, beta in enumerate(littelmann_roots(cartan3, 8), start=1):
        assert beta == (fib[2 * j], fib[2 * j - 2])


def test_littelmann_roots_refuse_a_runaway_count(monkeypatch):
    # the j-th root has about j*log2(r) bits in each coordinate, so a
    # million roots at r = 3 would take hundreds of GiB; at the ceiling
    # the list stays near its 16 MiB estimate
    for r, most in ((3, 8192), (2**62, 1459)):
        cartan = Rank2Cartan(r)
        tracemalloc.start()
        try:
            roots = littelmann_roots(cartan, most)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(roots) == most
        assert peak < 24 * 2**20
        del roots

    def no_roots(cartan):
        raise RuntimeError("roots made")

    monkeypatch.setattr(string_data, "_measuring_roots", no_roots)
    for r, most, count in ((3, 8192, 8193), (3, 8192, 10**6), (2**62, 1459, 1460)):
        with pytest.raises(ValueError, match=rf"^count must be at most {most} at r = {r}, got {count}$"):
            littelmann_roots(Rank2Cartan(r), count)
    for count in (0, 2.0, True):
        with pytest.raises(ValueError, match=r"^count must be a positive integer, got "):
            littelmann_roots(Rank2Cartan(3), count)


def test_littelmann_valid_examples(cartan3):
    assert not littelmann_valid(word_to_runs("1010001"), cartan3)
    assert littelmann_valid(word_to_runs("1110000"), cartan3)
    assert littelmann_valid((0, 1, 3), cartan3)
    assert not littelmann_valid((0, 1, 4), cartan3)
    assert littelmann_valid((5,), cartan3)
    assert littelmann_valid((), cartan3)


def test_littelmann_valid_memory_stays_small(cartan3):
    # the measuring roots gain about 1.39 bits a step at r = 3; all 19,999
    # of this alternating word's roots at once took about 73 MiB
    runs = (1,) * 20_000
    tracemalloc.start()
    try:
        valid = littelmann_valid(runs, cartan3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert valid
    assert peak < 2 * 2**20


def test_count_valid_examples(cartan3):
    assert count_valid_string_data((4, 3), cartan3) == 32
    assert count_valid_string_data((0, 5), cartan3) == 1
    assert count_valid_string_data((1, 1), cartan3) == 2


def test_count_valid_respects_limit(cartan3):
    with pytest.raises(ValueError):
        count_valid_string_data((20, 20), cartan3)
    count_valid_string_data((2, 2), cartan3, limit=4)
    with pytest.raises(ValueError):
        count_valid_string_data((3, 2), cartan3, limit=4)


def test_invalid_words_at_4_3(cartan3):
    invalid = {
        "".join(map(str, w))
        for w in all_words(4, 3)
        if not littelmann_valid(word_to_runs(w), cartan3)
    }
    assert invalid == {"0100011", "1010001", "1101000"}
    # the near-miss 1000011 (runs (1,4,2)) IS valid: the only applicable
    # check is 2*(1,0) <= 4*(3,1); 0100011 (runs (0,1,1,3,2)) fails
    # 3*(3,1) <= 1*(8,3) instead
    assert littelmann_valid(word_to_runs("1000011"), cartan3)


def test_flip_weight_same_count(cartan3):
    # the diagram symmetry swaps the two letters, so both orientations
    # of the same weight carry equal dimension
    assert count_valid_string_data((3, 4), cartan3) == count_valid_string_data((4, 3), cartan3)


def test_cond1_dyck_paths_are_valid_string_data(cartan3):
    # ratio-filtered Dyck paths form a subset of the valid string data
    for total in range(2, 15):
        for n in range(1, total):
            m = total - n
            collected = []
            enumerate_dyck((n, m), cartan3, FilterLevel.COND1, visit=collected.append)
            for runs in collected:
                assert littelmann_valid(runs, cartan3), runs


@given(
    c0=st.integers(0, 6),
    c1=st.integers(0, 6),
    r=st.integers(3, 4),
)
def test_count_matches_kostant(c0, c1, r):
    cartan = Rank2Cartan(r)
    assert count_valid_string_data((c0, c1), cartan) == kostant_count((c0, c1), cartan)

