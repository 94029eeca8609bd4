import copy
import pickle
from math import gcd, isqrt

import numpy as np
import pytest
from conftest import mobius
from hypothesis import given
from hypothesis import strategies as st

from rootbounds import (
    ALPHA0,
    ALPHA1,
    BoundReport,
    FilterLevel,
    MultiplicityTable,
    Rank2Cartan,
    RootClass,
    Weight,
    bilinear_form,
    bound1,
    bound2,
    bound_report,
    classify,
    count_valid_string_data,
    dyck_count,
    enumerate_dyck,
    kostant_count,
    multiplicity,
    simple_reflection,
)
from rootbounds.peterson import check_box
from rootbounds.montecarlo import estimate_bound, visits_statistic

weights = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
cartans = st.integers(3, 6).map(Rank2Cartan)


def test_cartan_rejects_affine_and_finite():
    with pytest.raises(ValueError):
        Rank2Cartan(2)
    with pytest.raises(ValueError):
        Rank2Cartan(0)
    Rank2Cartan(3)


@pytest.mark.parametrize("r", [3.5, 3.0, np.int64(3), True, "3", None], ids=repr)
def test_cartan_refuses_r_that_is_not_an_int(r):
    # a float r broke the exact arithmetic later, and a numpy r moved the
    # multiplicity fill into wrapping int64 arithmetic
    with pytest.raises(ValueError, match=r"^r must be an integer, got "):
        Rank2Cartan(r)


def test_cartan_is_an_immutable_value_keyed_by_r():
    cartan = Rank2Cartan(3)
    assert cartan == Rank2Cartan(r=3) and hash(cartan) == hash(Rank2Cartan(3))
    assert cartan != Rank2Cartan(4) and cartan != 3 and cartan != (3,)
    assert len({cartan, Rank2Cartan(3), Rank2Cartan(4)}) == 2
    assert repr(cartan) == "Rank2Cartan(r=3)"
    with pytest.raises(AttributeError):
        cartan.r = 4
    with pytest.raises(AttributeError):
        del cartan.r
    with pytest.raises(AttributeError):
        cartan.s = 4
    assert cartan.r == 3
    for twin in (pickle.loads(pickle.dumps(cartan)), copy.copy(cartan), copy.deepcopy(cartan)):
        assert type(twin) is Rank2Cartan and twin == cartan and twin.r == 3


def test_bound_report_fields_keep_their_order():
    assert BoundReport._fields == (
        "weight", "r", "dyck_total", "count_thm1", "count_thm2", "elapsed"
    )
    report = bound_report((3, 2), Rank2Cartan(3))
    assert report[:5] == ((3, 2), 3, 2, report.count_thm1, report.count_thm2)


def test_multiplicity_table_takes_only_a_cartan():
    table = MultiplicityTable(cartan=Rank2Cartan(3))
    assert table.cartan == Rank2Cartan(3) and table.r == 3
    assert dict(table.entries) == {}


def test_form_values(cartan3):
    assert bilinear_form(ALPHA0, ALPHA0, cartan3) == 2
    assert bilinear_form(ALPHA0, ALPHA1, cartan3) == -3
    assert bilinear_form((4, 3), (4, 3), cartan3) == -22


@given(u=weights, v=weights, cartan=cartans)
def test_form_symmetric(u, v, cartan):
    assert bilinear_form(u, v, cartan) == bilinear_form(v, u, cartan)


@given(u=weights, v=weights, cartan=cartans, i=st.integers(0, 1))
def test_form_weyl_invariant(u, v, cartan, i):
    su = simple_reflection(i, u, cartan)
    sv = simple_reflection(i, v, cartan)
    assert bilinear_form(su, sv, cartan) == bilinear_form(u, v, cartan)


@given(v=weights, cartan=cartans, i=st.integers(0, 1))
def test_reflection_involution(v, cartan, i):
    assert simple_reflection(i, simple_reflection(i, v, cartan), cartan) == tuple(v)


@given(v=weights, cartan=cartans, i=st.integers(0, 1))
def test_reflection_matches_form_definition(v, cartan, i):
    # s_i(v) = v - (v|alpha_i) * alpha_i
    alpha = ALPHA0 if i == 0 else ALPHA1
    pairing = bilinear_form(v, alpha, cartan)
    expected = (v[0] - pairing * alpha[0], v[1] - pairing * alpha[1])
    assert simple_reflection(i, v, cartan) == expected


def test_reflection_examples(cartan3):
    assert simple_reflection(0, ALPHA1, cartan3) == (3, 1)
    assert simple_reflection(0, simple_reflection(1, ALPHA0, cartan3), cartan3) == (8, 3)
    assert simple_reflection(0, ALPHA0, cartan3) == (-1, 0)


def test_classify_examples(cartan3):
    assert classify((8, 3), cartan3) is RootClass.REAL
    assert classify((1, 1), cartan3) is RootClass.IMAGINARY
    assert classify((2, 0), cartan3) is RootClass.NOT_A_ROOT
    assert classify((21, 8), cartan3) is RootClass.REAL
    with pytest.raises(ValueError):
        classify((0, 0), cartan3)


def _classify_by_descent(v, cartan):
    """The root class by Weyl descent: a weight of norm 2 is a real root when
    height-decreasing simple reflections take it to a simple root."""
    if bilinear_form(v, v, cartan) <= 0:
        return RootClass.IMAGINARY
    if bilinear_form(v, v, cartan) != 2:
        return RootClass.NOT_A_ROOT
    c0, c1 = v
    while (c0, c1) not in ((1, 0), (0, 1)):
        for i in (0, 1):
            n0, n1 = simple_reflection(i, (c0, c1), cartan)
            if n0 >= 0 and n1 >= 0 and n0 + n1 < c0 + c1:
                c0, c1 = n0, n1
                break
        else:
            return RootClass.NOT_A_ROOT
    return RootClass.REAL


@pytest.mark.parametrize("r", [3, 4, 5, 6, 11, 2**62], ids=["3", "4", "5", "6", "11", "2^62"])
def test_classify_matches_weyl_descent(r):
    cartan = Rank2Cartan(r)
    seen = set()
    for c0 in range(120):
        for c1 in range(120):
            if (c0, c1) != (0, 0):
                cls = classify((c0, c1), cartan)
                assert cls is _classify_by_descent((c0, c1), cartan), (c0, c1)
                seen.add(cls)
    assert seen == set(RootClass)


@given(
    v=st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(lambda w: w != (0, 0)),
    cartan=cartans,
)
def test_classify_flip_symmetric(v, cartan):
    assert classify(v, cartan) is classify((v[1], v[0]), cartan)


def test_dyck_count_examples():
    assert dyck_count(4, 3) == 5
    assert dyck_count(1, 1) == 1
    assert dyck_count(2, 3) == 2


def test_dyck_count_rejects_non_coprime():
    with pytest.raises(ValueError):
        dyck_count(2, 4)
    with pytest.raises(ValueError):
        dyck_count(0, 3)


def _mobius_reference(n: int) -> int:
    # factor by trial division, the slow obvious way
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


@given(n=st.integers(1, 5000))
def test_mobius_matches_reference(n):
    assert mobius(n) == _mobius_reference(n)


def test_weight_height():
    assert Weight(4, 3).height == 7
    assert Weight(4, 3) + Weight(1, 1) == Weight(5, 4)
    assert Weight(4, 3) - (1, 2) == Weight(3, 1)


def test_real_root_norms_are_two(cartan3):
    # every Weyl image of a simple root must classify as real
    v = tuple(ALPHA1)
    for i in (0, 1, 0, 1, 0):
        v = simple_reflection(i, v, cartan3)
        w = (abs(v[0]), abs(v[1]))
        assert bilinear_form(w, w, cartan3) == 2
        assert classify(w, cartan3) is RootClass.REAL


def test_norm_two_but_not_small_cases(cartan3):
    # isqrt guard: no perfect square r^2 - 4 for these r, so the cond1
    # threshold used elsewhere is irrational; sanity-check that fact here
    for r in (3, 4, 5, 6, 7):
        s = isqrt(r * r - 4)
        assert s * s != r * r - 4


def test_divisibility_of_dyck_formula():
    for n in range(1, 15):
        for m in range(1, 15):
            if gcd(n, m) == 1:
                assert dyck_count(n, m) >= 1


# r = 2^62 is where a numpy weight wraps: classify put (16, 15) as int64
# into NOT_A_ROOT, and dyck_count overflowed on (51, 50)
HUGE = Rank2Cartan(2**62)
WEIGHT_ENTRY_POINTS = {
    "classify": lambda w: classify(w, HUGE),
    "dyck_count": lambda w: dyck_count(*w),
    "check_box": lambda w: check_box(*w),
    "fill_box": lambda w: MultiplicityTable(HUGE).fill_box(*w),
    "entry": lambda w: MultiplicityTable(HUGE).entry(w),
    "multiplicity": lambda w: multiplicity(w, HUGE),
    "kostant_count": lambda w: kostant_count(w, HUGE),
    "enumerate_dyck": lambda w: enumerate_dyck(w, HUGE),
    "bound1": lambda w: bound1(w, HUGE),
    "bound2": lambda w: bound2(w, HUGE),
    "bound_report": lambda w: bound_report(w, HUGE),
    "estimate_bound": lambda w: estimate_bound(w, HUGE, FilterLevel.COND2, samples=10, seed=0),
    "count_valid_string_data": lambda w: count_valid_string_data(w, HUGE),
}
# these take the two coordinates as arguments, so only pairs reach them
TAKES_COORDINATES = {"dyck_count", "check_box", "fill_box"}
BAD_WEIGHTS = [(np.int64(16), np.int64(15)), (True, 1), (2.0, 1), (-1, 3), (1, 2, 3), None]


def _no_work(*args):
    raise RuntimeError("work started")


@pytest.fixture
def no_work(monkeypatch):
    for target in ("peterson._weyl_shifts", "counting._count", "counting._successors",
                   "sampler._chunk_rng"):
        monkeypatch.setattr(f"rootbounds.{target}", _no_work)


@pytest.mark.parametrize("name, weight", [
    (name, weight)
    for name in WEIGHT_ENTRY_POINTS
    for weight in BAD_WEIGHTS
    if name not in TAKES_COORDINATES or (isinstance(weight, tuple) and len(weight) == 2)
], ids=repr)
def test_every_entry_point_refuses_a_bad_weight_first(no_work, name, weight):
    with pytest.raises(ValueError, match=r"^a weight must be a pair of nonnegative integers"):
        WEIGHT_ENTRY_POINTS[name](weight)


@pytest.mark.parametrize("k", [True, 2.5, np.int64(5)], ids=repr)
def test_visits_statistic_refuses_a_k_or_distance_that_is_not_an_int(no_work, k):
    with pytest.raises(ValueError, match=r"^need integers k >= 1 and distance >= 0"):
        visits_statistic(k, 1, samples=10, seed=0)
    with pytest.raises(ValueError, match=r"^need integers k >= 1 and distance >= 0"):
        visits_statistic(5, k, samples=10, seed=0)


def test_lattice_arithmetic_refuses_numpy_coordinates():
    # the coordinates stay signed, but int64 would wrap at r = 2^62
    v = (np.int64(16), np.int64(-15))
    with pytest.raises(ValueError, match=r"^lattice coordinates must be integers"):
        bilinear_form(v, (16, 15), HUGE)
    with pytest.raises(ValueError, match=r"^lattice coordinates must be integers"):
        bilinear_form((16, 15), v, HUGE)
    for i in (0, 1):
        with pytest.raises(ValueError, match=r"^lattice coordinates must be integers"):
            simple_reflection(i, v, HUGE)

