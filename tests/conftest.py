import threading
from concurrent.futures import Future
from itertools import combinations

import pytest

import rootbounds.sampler
from rootbounds import MultiplicityTable, Rank2Cartan


@pytest.fixture(scope="session")
def cartan3():
    return Rank2Cartan(3)


@pytest.fixture(scope="session")
def cartan4():
    return Rank2Cartan(4)


@pytest.fixture(scope="session")
def table3(cartan3):
    """Shared multiplicity table for r=3; grows as tests ask for bigger boxes."""
    return MultiplicityTable(cartan3)


@pytest.fixture(scope="session")
def table4(cartan4):
    return MultiplicityTable(cartan4)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves alive a thread it found not running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the sampler's ThreadPoolExecutor by one that starts no thread.

    Returns the list of max_workers values asked for; chunks run serially,
    and submit runs its call at once and returns the completed Future.
    """
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(rootbounds.sampler, "ThreadPoolExecutor", SerialPool)
    return sizes


def all_words(n_zeros: int, n_ones: int):
    """Every binary word with the given letter counts, as int lists."""
    total = n_zeros + n_ones
    for ones in combinations(range(total), n_ones):
        word = [0] * total
        for i in ones:
            word[i] = 1
        yield word


def mobius(d: int) -> int:
    """Number-theoretic Moebius function."""
    if d < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    if d > 1:
        result = -result
    return result
