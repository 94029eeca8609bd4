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


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the sampler's ThreadPoolExecutor by one that starts no thread.

    Returns the list of max_workers values asked for; chunks run serially.
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
