import random
import tracemalloc
from copy import deepcopy
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from operator import mul

import pytest
from conftest import mobius

from rootbounds import (
    ALPHA0,
    ALPHA1,
    MultiplicityTable,
    Rank2Cartan,
    RootClass,
    Weight,
    bilinear_form,
    classify,
    count_valid_string_data,
    kostant_count,
    multiplicity,
    simple_reflection,
)
from rootbounds import peterson
from rootbounds.peterson import _kostant_grid, _weyl_shifts

BOX = 60
SHIFTS_IN_BOX = [(r, shift) for r in (3, 4, 5) for shift in _weyl_shifts(BOX, BOX, Rank2Cartan(r))]


@cache
def _peterson(r: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """Peterson's recursion (Kac 11.13) over the lower box up to (BOX, BOX):
    L and the grids L*c and mult, with L = lcm(1..BOX).

    It fixes c_beta = sum over d | beta of mult(beta/d)/d through
    ((beta|beta) - 2 height(beta)) c_beta = sum over beta' + beta'' = beta
    of (beta'|beta'') c_beta' c_beta''.  The denominator of c_beta divides
    gcd(beta), so every L*c is an integer and each cell takes one checked
    exact division.  It shares nothing with the Weyl-shift fill in src/.
    """
    L = lcm(*range(1, BOX + 1))
    C = [[0] * (BOX + 1) for _ in range(BOX + 1)]
    M = [[0] * (BOX + 1) for _ in range(BOX + 1)]
    C[1][0] = C[0][1] = L
    M[1][0] = M[0][1] = 1
    for a0 in range(BOX + 1):
        for a1 in range(BOX + 1):
            if a0 + a1 < 2:
                continue
            # Sum (b|a-b) C[b] C[a-b] over b < a - b (lexicographically) and
            # double it; b = a/2, when a is even, pairs with itself and is
            # added once.  b = 0 and b = a drop out because C[0][0] = 0.
            half = 0
            for b0 in range(a0 // 2 + 1):
                e0 = a0 - b0
                row_b, row_e = C[b0], C[e0]
                for b1 in range(a1 + 1 if b0 < e0 else (a1 + 1) // 2):
                    e1 = a1 - b1
                    form = 2 * (b0 * e0 + b1 * e1) - r * (b0 * e1 + b1 * e0)
                    half += form * row_b[b1] * row_e[e1]
            num = 2 * half
            if a0 % 2 == 0 and a1 % 2 == 0:
                b0, b1 = a0 // 2, a1 // 2
                num += (2 * (b0 * b0 + b1 * b1) - 2 * r * b0 * b1) * C[b0][b1] ** 2
            denom = 2 * a0 * a0 + 2 * a1 * a1 - 2 * r * a0 * a1 - 2 * (a0 + a1)
            g = gcd(a0, a1)
            # L times the proper-divisor part sum over d | g, d > 1 of mult(a/d)/d
            imprimitive = sum(L // d * M[a0 // d][a1 // d] for d in range(2, g + 1) if g % d == 0)
            if denom == 0:
                # norm = 2 height here, so the weight is not a root and the
                # recursion reads 0 * c = numerator
                assert num == 0, (r, a0, a1)
                C[a0][a1] = imprimitive
                continue
            # num = denom * L * (L*c): the sum ran over products of two L*c
            C[a0][a1], rem = divmod(num, L * denom)
            assert rem == 0, (r, a0, a1)
            M[a0][a1], rem = divmod(C[a0][a1] - imprimitive, L)
            assert rem == 0 and M[a0][a1] >= 0, (r, a0, a1)
    return L, C, M


def _mobius_inversion_mult(weight, table: MultiplicityTable) -> int:
    # direct Moebius form, to cross-check the tabled value
    c0, c1 = weight
    g = gcd(c0, c1)
    acc = Fraction(0)
    for d in range(1, g + 1):
        if g % d == 0:
            acc += Fraction(mobius(d), d) * table.entry(Weight(c0 // d, c1 // d))[0]
    if acc.denominator != 1 or acc < 0:
        raise ArithmeticError(f"Moebius inversion at {tuple(weight)} came out {acc}")
    return int(acc)


def _kostant_by_roots(weight, table: MultiplicityTable) -> int:
    # the coefficient of prod (1 - e^beta)^(-mult) over the roots in
    # Peterson's table: one geometric pass per unit of multiplicity
    c0, c1 = weight
    table.fill_box(c0, c1)
    grid = [[0] * (c1 + 1) for _ in range(c0 + 1)]
    grid[0][0] = 1
    for (b0, b1), (_, m) in table.entries.items():
        if b0 > c0 or b1 > c1:
            continue
        for _ in range(m):
            for x in range(b0, c0 + 1):
                row = grid[x]
                prev = grid[x - b0]
                for y in range(b1, c1 + 1):
                    row[y] += prev[y - b1]
    return grid[c0][c1]


def test_c_base_and_small_values(table3):
    assert table3.entry((1, 0))[0] == 1
    assert table3.entry((0, 1))[0] == 1
    assert table3.entry((1, 1))[0] == 1
    assert table3.entry((2, 0))[0] == Fraction(1, 2)


def test_c_is_a_fraction(table3):
    for weight in ((1, 0), (2, 0), (4, 1), (12, 4), (16, 15)):
        assert type(table3.entry(weight)[0]) is Fraction, weight


def test_c_rejects_zero_weight(cartan3, table3):
    with pytest.raises(ValueError):
        table3.entry((0, 0))
    with pytest.raises(ValueError):
        multiplicity((0, 0), cartan3, table3)


@pytest.mark.parametrize("weight", [(0, 0), (-1, 2), (2, -1)])
def test_entry_rejects_zero_and_negative_weights(cartan3, weight):
    with pytest.raises(ValueError):
        MultiplicityTable(cartan3).entry(weight)
    with pytest.raises(ValueError):
        multiplicity(weight, cartan3)


def test_vanishing_denominator_weights(cartan3, table3):
    # (4,1) and its mirror sit where the recursion's denominator is zero:
    # norm equals twice the height there, so neither is a root and the
    # numerator must cancel.  The primitive (4,1) has c = 0 outright,
    # while (12,4) = 4*(3,1) keeps the divisor contribution of the real
    # root (3,1).
    assert bilinear_form((4, 1), (4, 1), cartan3) == 2 * 5
    assert table3.entry((4, 1))[0] == 0
    assert multiplicity((4, 1), cartan3, table3) == 0
    assert bilinear_form((12, 4), (12, 4), cartan3) == 2 * 16
    assert table3.entry((12, 4))[0] == Fraction(1, 4)
    assert multiplicity((12, 4), cartan3, table3) == 0
    assert multiplicity((4, 12), cartan3, table3) == 0


def test_multiplicity_refuses_a_table_of_another_r(cartan3, table4):
    # the r = 4 table holds 6 at (7, 3), where r = 3 gives 2
    with pytest.raises(ValueError, match="^the table holds r = 4, not r = 3$"):
        multiplicity((7, 3), cartan3, table4)
    assert multiplicity((7, 3), cartan3) == 2


def test_multiplicity_examples(table3):
    assert table3.entry(Weight(16, 15))[1] == 815214
    assert table3.entry(Weight(15, 11))[1] == 23750
    assert table3.entry(Weight(3, 1))[1] == 1
    assert table3.entry(Weight(1, 1))[1] == 1
    assert table3.entry(Weight(2, 1))[1] == 1
    assert table3.entry(Weight(4, 3))[1] == 4


def test_multiplicity_at_height_201(cartan3):
    # the value Peterson's recursion gave, above every box the tests fill with it
    assert multiplicity((101, 100), cartan3) == 6192169510744850600697013974995481623319843171183


def test_multiplicity_flip_symmetric(table3):
    for c0 in range(1, 13):
        for c1 in range(1, 13):
            assert table3.entry(Weight(c0, c1))[1] == table3.entry(Weight(c1, c0))[1]


def test_thin_boxes_are_transposes(cartan3):
    # the tall box subtracts the divisor terms of every c0 up to 3000, row
    # by row; the wide one settles row 0 a cell at a time
    tall = MultiplicityTable(cartan3)
    tall.fill_box(3000, 6)
    wide = MultiplicityTable(cartan3)
    wide.fill_box(6, 3000)
    assert len(tall.entries) == 3001 * 7 - 1
    assert dict(tall.entries) == {Weight(c1, c0): e for (c0, c1), e in wide.entries.items()}


def test_real_roots_and_non_roots():
    for r in (3, 4, 5):
        cartan = Rank2Cartan(r)
        table = MultiplicityTable(cartan)
        for total in range(1, 21):
            for c0 in range(total + 1):
                c1 = total - c0
                if (c0, c1) == (0, 0):
                    continue
                m = table.entry(Weight(c0, c1))[1]
                cls = classify((c0, c1), cartan)
                if cls is RootClass.REAL:
                    assert m == 1, (r, c0, c1)
                elif cls is RootClass.NOT_A_ROOT:
                    assert m == 0, (r, c0, c1)
                else:
                    assert m >= 1, (r, c0, c1)
                # scaled-up real roots stop being roots
                g = gcd(c0, c1)
                if g >= 2:
                    prim = (c0 // g, c1 // g)
                    if classify(prim, cartan) is RootClass.REAL:
                        assert m == 0, (r, c0, c1)


def test_root_iff_positive_multiplicity(cartan3, cartan4, table3, table4):
    for cartan, table in ((cartan3, table3), (cartan4, table4)):
        for total in range(1, 13):
            for c0 in range(total + 1):
                c1 = total - c0
                if (c0, c1) == (0, 0):
                    continue
                is_root = classify((c0, c1), cartan) is not RootClass.NOT_A_ROOT
                assert is_root == (table.entry(Weight(c0, c1))[1] > 0), (c0, c1)


def test_mobius_inversion_agrees_with_table(table3):
    for c0 in range(0, 13):
        for c1 in range(0, 13):
            if (c0, c1) == (0, 0):
                continue
            assert _mobius_inversion_mult(Weight(c0, c1), table3) == table3.entry(
                Weight(c0, c1)
            )[1]


def test_mobius_inversion_rejects_non_integral_c(cartan3):
    table = MultiplicityTable(cartan3)
    table.fill_box(2, 2)
    # c = -F/h = 1/2 at (1,1), where h = 2
    table._f[1][1] = -1
    with pytest.raises(ArithmeticError):
        _mobius_inversion_mult(Weight(1, 1), table)


def test_kostant_examples(cartan3):
    assert kostant_count((4, 3), cartan3) == 32
    assert kostant_count((0, 0), cartan3) == 1
    assert kostant_count((1, 1), cartan3) == 2
    # _kostant_by_roots agrees at (16,15) but takes seconds there
    assert kostant_count((16, 15), cartan3) == 36609714
    assert kostant_count((51, 50), cartan3) == 32500921467718579545377996


def test_kostant_equals_root_product(cartan3, cartan4, table3, table4):
    for cartan, table in ((cartan3, table3), (cartan4, table4)):
        for total in range(13):
            for c0 in range(total + 1):
                weight = (c0, total - c0)
                assert kostant_count(weight, cartan) == _kostant_by_roots(weight, table), (
                    cartan.r,
                    weight,
                )


@pytest.mark.parametrize("r", [3, 4, 5])
def test_peterson_box_equals_table(r):
    # the Weyl-shift fill against Peterson's recursion, at every cell
    L, C, M = _peterson(r)
    table = MultiplicityTable(Rank2Cartan(r))
    table.fill_box(BOX, BOX)
    assert table.entries == {
        Weight(a0, a1): (Fraction(C[a0][a1], L), M[a0][a1])
        for a0 in range(BOX + 1)
        for a1 in range(BOX + 1)
        if a0 or a1
    }


@pytest.mark.parametrize(
    "r, dropped", SHIFTS_IN_BOX, ids=[f"r{r}-{a},{b}" for r, (a, b, _) in SHIFTS_IN_BOX]
)
def test_fill_refuses_a_dropped_weyl_shift(monkeypatch, r, dropped):
    # no fill with a shift missing may go through; the root-class check
    # catches even the drops whose divisions all come out exact, at the
    # dropped shift's own cell
    monkeypatch.setattr(
        peterson, "_weyl_shifts", lambda *box: [s for s in _weyl_shifts(*box) if s != dropped]
    )
    a, b, _ = dropped
    with pytest.raises(ArithmeticError, match=rf"^multiplicity at \({a}, {b}\) "):
        MultiplicityTable(Rank2Cartan(r)).fill_box(BOX, BOX)


@pytest.mark.parametrize("old_box", [(0, 0), (3, 5)], ids=str)
def test_retry_after_a_failed_fill_matches_fresh_fill(monkeypatch, cartan3, old_box):
    # a fill builds its grids apart and keeps them only when every cell has
    # passed, so one that raises leaves the table's grids and box as they
    # were, the same objects with the same values; a retry is a plain fill
    table = MultiplicityTable(cartan3)
    table.fill_box(*old_box)
    before = (table._f, table._m, table._box)
    values = deepcopy(before)
    with monkeypatch.context() as patch:
        patch.setattr(
            peterson, "_weyl_shifts", lambda *box: [s for s in _weyl_shifts(*box) if s != (4, 1, 1)]
        )
        with pytest.raises(ArithmeticError, match=r"^multiplicity at \(4, 1\) "):
            table.fill_box(10, 10)
    after = (table._f, table._m, table._box)
    assert all(now is then for now, then in zip(after, before))
    assert after == values
    table.fill_box(10, 10)
    fresh = MultiplicityTable(cartan3)
    fresh.fill_box(10, 10)
    assert (table._f, table._m) == (fresh._f, fresh._m)
    assert table.entries == fresh.entries


@pytest.mark.parametrize(
    "r, flipped", SHIFTS_IN_BOX, ids=[f"r{r}-{a},{b}" for r, (a, b, _) in SHIFTS_IN_BOX]
)
def test_fill_refuses_a_sign_flipped_weyl_shift(monkeypatch, r, flipped):
    # every shift's sign is read, the row pass's (0,1) included
    a, b, sign = flipped
    monkeypatch.setattr(
        peterson,
        "_weyl_shifts",
        lambda *box: [(a, b, -sign) if s == flipped else s for s in _weyl_shifts(*box)],
    )
    with pytest.raises(ArithmeticError, match=rf"^multiplicity at \({a}, {b}\) "):
        MultiplicityTable(Rank2Cartan(r)).fill_box(BOX, BOX)


def _reference_weyl_shifts(c0max, c1max, cartan):
    """The shifts as they were found: Weight arithmetic through the checked
    simple_reflection, one dot action mu -> s_i(mu) - alpha_i per step."""
    for first in (0, 1):
        i, mu, sign = first, Weight(0, 0), 1
        while True:
            mu = Weight(*simple_reflection(i, mu, cartan)) - (ALPHA0, ALPHA1)[i]
            i, sign = 1 - i, -sign
            if -mu.c0 > c0max or -mu.c1 > c1max:
                break
            yield -mu.c0, -mu.c1, sign


@pytest.mark.parametrize("r", [3, 4, 5, 2**62])
def test_weyl_shifts_match_the_weight_reference(r):
    # square, near-square and thin boxes in both orientations, with every
    # side from 0 to 12 besides
    cartan = Rank2Cartan(r)
    boxes = [(a, b) for a in range(13) for b in range(13)]
    boxes += [(16, 15), (51, 50), (53, 48), (48, 53), (101, 100), (100, 101)]
    boxes += [(3000, 1), (1, 3000), (3000, 0), (0, 3000), (524287, 1), (1, 524287)]
    for box in boxes:
        assert list(_weyl_shifts(*box, cartan)) == list(_reference_weyl_shifts(*box, cartan)), box


@pytest.mark.parametrize("r", [3, 4, 5])
def test_peterson_box_equals_weyl_kostant(r):
    # log prod (1 - e^beta)^(-mult) = sum c_beta e^beta, and applying the
    # height operator gives h(gamma) K(gamma) = sum over 0 < beta <= gamma
    # of h(beta) c_beta K(gamma - beta).  Built on Peterson's L*c grid, each
    # K takes one exact division by L*h(gamma).  The Kostant grid reads no
    # multiplicity, so this checks every Peterson entry of the box against
    # the Weyl group.
    n = BOX
    cartan = Rank2Cartan(r)
    L, C, _ = _peterson(r)
    hc = [[(b0 + b1) * c for b1, c in enumerate(row)] for b0, row in enumerate(C)]
    K = [[0] * (n + 1) for _ in range(n + 1)]
    K[0][0] = 1
    for g0 in range(n + 1):
        for g1 in range(n + 1):
            if g0 or g1:
                s = sum(sum(map(mul, hc[b0][: g1 + 1], K[g0 - b0][g1::-1])) for b0 in range(g0 + 1))
                K[g0][g1], rem = divmod(s, L * (g0 + g1))
                assert rem == 0, (r, g0, g1)
    assert K == _kostant_grid(n, n, cartan)


@cache
def _weyl_kostant(r: int) -> list[list[int]]:
    # the Kostant grid up to (BOX, BOX) that test_peterson_box_equals_weyl_kostant
    # rebuilds from Peterson's L*c grid, kept for the box-shape tests
    L, C, _ = _peterson(r)
    hc = [[(b0 + b1) * c for b1, c in enumerate(row)] for b0, row in enumerate(C)]
    K = [[0] * (BOX + 1) for _ in range(BOX + 1)]
    K[0][0] = 1
    for g0 in range(BOX + 1):
        for g1 in range(0 if g0 else 1, BOX + 1):
            s = sum(sum(map(mul, hc[b0][: g1 + 1], K[g0 - b0][g1::-1])) for b0 in range(g0 + 1))
            K[g0][g1], rem = divmod(s, L * (g0 + g1))
            assert rem == 0, (r, g0, g1)
    return K


def _assert_box_equals_peterson(r: int, c0max: int, c1max: int) -> None:
    L, C, M = _peterson(r)
    table = MultiplicityTable(Rank2Cartan(r))
    table.fill_box(c0max, c1max)
    assert table.entries == {
        Weight(a0, a1): (Fraction(C[a0][a1], L), M[a0][a1])
        for a0 in range(c0max + 1)
        for a1 in range(c1max + 1)
        if a0 or a1
    }, (r, c0max, c1max)
    K = [row[: c1max + 1] for row in _weyl_kostant(r)[: c0max + 1]]
    assert list(map(list, _kostant_grid(c0max, c1max, Rank2Cartan(r)))) == K, (r, c0max, c1max)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_every_box_shape_equals_peterson(r):
    # a near-square box fills half its square and its strip as rows after
    # it, a thin one fills along its long side, and either may run
    # transposed; every way must give Peterson's cells and Kostant counts
    for c0max in range(25):
        for c1max in range(25):
            _assert_box_equals_peterson(r, c0max, c1max)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("s", [0, 1, 12, 29])
def test_boxes_either_side_of_the_orientation_switch(r, s):
    # a strip s + 1 wide still fills as rows after the half square, the
    # long side down; one s + 2 wide is thin and fills along its long side
    for width, square in ((s + 1, s + 1), (s + 2, 0)):
        for box in ((s + width, s), (s, s + width)):
            _, _, flip, half = peterson._oriented_grid(*box, Rank2Cartan(r))
            assert (flip, half) == ((box[0] < box[1]) == (square > 0), square), box
            _assert_box_equals_peterson(r, *box)


def test_thin_boxes_past_the_reference_box(cartan3):
    # (3000, 1) fills transposed, (1, 3000) as asked: they must be each
    # other's transposes and agree with a near-square fill where they meet it
    tall, wide, near = (MultiplicityTable(cartan3) for _ in range(3))
    tall.fill_box(3000, 1)
    wide.fill_box(1, 3000)
    near.fill_box(300, 299)
    assert dict(tall.entries) == {Weight(c1, c0): e for (c0, c1), e in wide.entries.items()}
    shared = {Weight(x, y) for x in range(300) for y in range(2)} - {Weight(0, 0)}
    for weights, thin in ((shared, tall), ({Weight(y, x) for x, y in shared}, wide)):
        assert {w: thin.entries[w] for w in weights} == {w: near.entries[w] for w in weights}
    K = _kostant_grid(3000, 1, cartan3)
    assert K == list(zip(*_kostant_grid(1, 3000, cartan3)))
    assert K[:300] == [tuple(row[:2]) for row in _kostant_grid(300, 299, cartan3)[:300]]


@pytest.mark.parametrize(
    "box, dropped", [((3000, 6), (12, 4, -1)), ((87, 88), (33, 88, -1))], ids=str
)
def test_a_transposed_fill_names_the_cell_asked_for(monkeypatch, cartan3, box, dropped):
    # each shift lies outside the box's square, so the mirror check passes
    # and the fill runs transposed (thin, then near-square), yet the failure
    # names the dropped shift's cell as the caller sees it
    monkeypatch.setattr(
        peterson, "_weyl_shifts", lambda *b: [s for s in _weyl_shifts(*b) if s != dropped]
    )
    assert peterson._oriented_grid(*box, cartan3)[2]
    a, b, _ = dropped
    with pytest.raises(ArithmeticError, match=rf"^multiplicity at \({a}, {b}\) "):
        MultiplicityTable(cartan3).fill_box(*box)


@pytest.mark.parametrize("faulty", [[], [(4, 1, -1)]], ids=["dropped", "sign-flipped"])
def test_an_unmirrored_shift_fills_the_box_in_full(monkeypatch, cartan3, faulty):
    # a half fill would copy the faulty cell's mirror over it, so a square
    # whose shifts are not closed under the mirror is filled in full and
    # untransposed, where the faulty shift's own cell refuses it
    monkeypatch.setattr(
        peterson,
        "_weyl_shifts",
        lambda *b: faulty + [s for s in _weyl_shifts(*b) if s != (4, 1, 1)],
    )
    assert peterson._oriented_grid(30, 40, cartan3)[2:] == (False, 0)
    with pytest.raises(ArithmeticError, match=r"^multiplicity at \(4, 1\) "):
        MultiplicityTable(cartan3).fill_box(30, 40)


def test_kostant_equals_string_count(cartan3, cartan4):
    for cartan in (cartan3, cartan4):
        for total in range(0, 11):
            for c0 in range(total + 1):
                c1 = total - c0
                assert kostant_count((c0, c1), cartan) == count_valid_string_data(
                    (c0, c1), cartan
                ), (cartan.r, c0, c1)


def test_kostant_below_word_count(cartan3):
    for total in range(1, 13):
        for c0 in range(total + 1):
            c1 = total - c0
            assert kostant_count((c0, c1), cartan3) <= comb(total, c0)


def test_memoized_values_satisfy_recursion(cartan3, table3):
    # re-derive c at random weights straight from the definition
    table3.fill_box(20, 20)
    rng = random.Random(20)
    weights = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(100)]
    for a0, a1 in weights:
        if (a0, a1) in ((0, 0), (1, 0), (0, 1)):
            continue
        num = Fraction(0)
        for b0 in range(a0 + 1):
            for b1 in range(a1 + 1):
                if (b0, b1) in ((0, 0), (a0, a1)):
                    continue
                c_left = table3.entry(Weight(b0, b1))[0]
                c_right = table3.entry(Weight(a0 - b0, a1 - b1))[0]
                num += bilinear_form((b0, b1), (a0 - b0, a1 - b1), cartan3) * c_left * c_right
        denom = bilinear_form((a0, a1), (a0, a1), cartan3) - 2 * (a0 + a1)
        c_stored = table3.entry(Weight(a0, a1))[0]
        assert denom * c_stored == num, (a0, a1)


def test_incremental_box_growth(cartan3):
    table = MultiplicityTable(cartan3)
    assert table.entry(Weight(4, 3))[1] == 4
    assert table.entry(Weight(15, 11))[1] == 23750
    assert table.entry(Weight(6, 5))[1] == 23


@pytest.mark.parametrize("r", [3, 4, 5])
def test_growth_through_non_square_boxes_matches_fresh_fill(r):
    # Each step widens the box, so the fill finds shifts the smaller box
    # did not hold; the second step fills cells such as (10,3) below the
    # first box's rows, and the third both rows and columns beyond it.
    grown = MultiplicityTable(Rank2Cartan(r))
    for box in ((3, 7), (12, 5), (20, 20)):
        grown.fill_box(*box)
    fresh = MultiplicityTable(Rank2Cartan(r))
    fresh.fill_box(20, 20)
    assert len(grown.entries) == 21 * 21 - 1
    assert grown.entries == fresh.entries


def test_fill_builds_no_fraction(monkeypatch, cartan3):
    # c is built from F only when an entry is looked up
    calls = []

    def counted(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(peterson, "Fraction", counted)
    table = MultiplicityTable(cartan3)
    table.fill_box(61, 61)
    assert calls == []
    for weight in ((1, 0), (12, 4), (61, 61)):
        assert table.entry(weight)[0] == Fraction(*calls[-1])
        assert len(calls) == 1, weight
        calls.clear()


def test_fill_memory_holds_only_the_grids(cartan3):
    # the two integer grids of the box up to (201,200) take about 3 MiB
    table = MultiplicityTable(cartan3)
    tracemalloc.start()
    try:
        table.fill_box(201, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_entries_view_contract(cartan3):
    table = MultiplicityTable(cartan3)
    table.fill_box(7, 4)
    view = table.entries
    assert len(view) == 8 * 5 - 1
    assert set(view) == {Weight(x, y) for x in range(8) for y in range(5)} - {Weight(0, 0)}
    for weight in view:
        assert view[weight] == table.entry(weight)
    for outside in ((0, 0), (8, 0), (0, 5), (8, 5), (-1, 2), (3, -1)):
        with pytest.raises(KeyError):
            view[outside]
    # a key that is not a pair of plain ints is missing, as in a dict
    assert view.get((1.5, 2)) is None
    assert (True, 1) not in view
    with pytest.raises(TypeError):
        view[Weight(1, 1)] = (Fraction(1, 2), 1)
    assert view[Weight(1, 1)] == (1, 1)


@pytest.mark.parametrize("field", ["_box", "_f", "_m"])
def test_constructor_refuses_the_grid_state(cartan3, field):
    # a box given here without its grids made entry((3, 3)) die of an IndexError
    value = {"_box": (5, 5), "_f": [[0]], "_m": [[0]]}[field]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
        MultiplicityTable(cartan3, **{field: value})
    assert MultiplicityTable(cartan3).entry((3, 3)) == (Fraction(10, 3), 3)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_entries_view_equals_peterson_dict_through_growth(r):
    L, C, M = _peterson(r)
    table = MultiplicityTable(Rank2Cartan(r))
    c0max = c1max = 0
    for box in ((3, 7), (12, 5), (20, 20)):
        table.fill_box(*box)
        c0max, c1max = max(c0max, box[0]), max(c1max, box[1])
        want = {
            Weight(a0, a1): (Fraction(C[a0][a1], L), M[a0][a1])
            for a0 in range(c0max + 1)
            for a1 in range(c1max + 1)
            if a0 or a1
        }
        assert table.entries == want
        assert want == table.entries
