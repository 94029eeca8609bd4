"""Exact root multiplicities and Kostant partition counts, both from the
few Weyl shifts of the Weyl-Kac denominator.

The denominator identity (Kac, *Infinite-Dimensional Lie Algebras*, 10.4)

    D = prod over positive roots beta of (1 - e^beta)^mult(beta)
      = sum over w in W of eps(w) e^(rho - w rho)

is a sparse series: only a handful of shifts rho - w rho fit in any box.
Kostant counts are the coefficients of 1/D.  Multiplicities come from
its logarithm: -log D = sum of c_beta e^beta with Peterson's
c_beta = sum over d | beta of mult(beta/d)/d.  With the height operator
h(gamma) = c0 + c1, the series F = h log D satisfies F D = h D, so

    F(gamma) = h(gamma) D(gamma) - sum over w != 1 of eps(w) F(gamma - (rho - w rho)),
    h(gamma) mult(gamma) = -F(gamma) - sum over d > 1, d | gamma of h(gamma/d) mult(gamma/d),

with one checked exact division per cell and c_gamma = -F(gamma)/h(gamma).
A table stores only the integer grids F and mult of one lower box, and
each fill runs both recurrences over the whole box, a row at a time; c is
built from F when an entry is looked up.
The closed form of this logarithm is the Berman-Moody formula (Proc. AMS
76, 1979).  Peterson's recursion (Kac 11.13) lives in the tests, as an
independent check on every cell of a large box.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count
from operator import add, sub
from typing import Optional

from .core_lattice import ALPHA0, ALPHA1, Rank2Cartan, Weight, as_weight, simple_reflection

# a fill refuses a lower box of more cells than this before it allocates
# any.  On a 2-vCPU Xeon VM the box up to (1023,1023), 2^20 cells, took
# 1.6-1.8 s and 212 MB peak RSS at r = 3 (1.1 s and 333 MB at r = 2^62),
# and (801,800) 0.9-1.0 s and 117 MB.
MAX_CELLS = 1 << 20


def check_box(c0max: int, c1max: int) -> None:
    """Refuse a corner that is no weight, or a lower box of more than MAX_CELLS cells."""
    c0max, c1max = as_weight((c0max, c1max))
    cells = (c0max + 1) * (c1max + 1)
    if cells > MAX_CELLS:
        raise ValueError(
            f"the box up to {(c0max, c1max)} holds {cells} cells, more than {MAX_CELLS}"
        )


@dataclass
class MultiplicityTable:
    """Exact (c, mult) entries over a lower box, each fill built whole.

    The state is two integer grids indexed [c0][c1]: ``_f`` holds F, the
    coefficients of h log D, and ``_m`` the multiplicity.  No entry is
    stored: ``entries`` is a read-only view that builds (Fraction c, mult)
    from the grids at each lookup.  A lookup outside the box refills, from
    scratch, the least box that holds both, so fill the largest box first.
    """

    cartan: Rank2Cartan
    _box: tuple[int, int] = (0, 0)
    _f: list[list[int]] = field(default_factory=lambda: [[0]], repr=False)
    _m: list[list[int]] = field(default_factory=lambda: [[0]], repr=False)

    @property
    def r(self) -> int:
        return self.cartan.r

    @property
    def entries(self) -> Mapping[Weight, tuple[Fraction, int]]:
        """Every filled weight of the box, origin excluded, mapped to (c, mult)."""
        return _Entries(self)

    def fill_box(self, c0max: int, c1max: int) -> None:
        """Fill the lower box up to the max of (c0max, c1max) and the
        current box.  A request inside the box does nothing; any other
        builds new grids for the whole box and keeps them only once every
        cell has passed its check, so a fill that raises changes nothing."""
        c0max, c1max = map(max, as_weight((c0max, c1max)), self._box)
        if (c0max, c1max) == self._box:
            return
        check_box(c0max, c1max)
        shifts = list(_weyl_shifts(c0max, c1max, self.cartan))
        F = [[0] * (c1max + 1) for _ in range(c0max + 1)]
        M = [[0] * (c1max + 1) for _ in range(c0max + 1)]
        # the cells start as h D, and dividing by D turns them into F
        for a, b, sign in shifts:
            F[a][b] = (a + b) * sign
        _divide_by_denominator(F, shifts)
        # rest = h mult: -F less the terms h(gamma/d) mult(gamma/d) of the
        # divisors d > 1 of gamma = (x, y).  gcd(0, y) = y, so row 0 reads
        # itself: it is settled a cell at a time, each cell passing its term
        # on to its multiples.
        rest = [-f for f in F[0]]
        for z in range(1, c1max + 1):
            _settle(M[0], 0, z, rest[z : z + 1], self.r)
            term = z * M[0][z]
            rest[2 * z :: z] = [v - term for v in rest[2 * z :: z]]
        for x in range(1, c0max + 1):
            rest = [-f for f in F[x]]
            # for d | x the divisor terms lie along the slice y = 0 mod d
            for d in range(2, x + 1):
                if x % d == 0:
                    terms = zip(rest[::d], count(x // d), M[x // d])
                    rest[::d] = [v - h * m for v, h, m in terms]
            _settle(M[x], x, 0, rest, self.r)
        self._f, self._m, self._box = F, M, (c0max, c1max)

    def entry(self, weight) -> tuple[Fraction, int]:
        weight = as_weight(weight)
        if weight == (0, 0):
            raise ValueError("multiplicity needs a nonzero weight")
        if weight.c0 > self._box[0] or weight.c1 > self._box[1]:
            self.fill_box(*weight)
        return self.entries[weight]


def _settle(m_row: list[int], x: int, y0: int, rest: list[int], r: int) -> None:
    """Set m_row[y] = rest[y - y0] / h(x, y) for each y from y0, after
    checking that the division is exact and the result fits the root class."""
    xx, rx = x * x, r * x
    for y, hm in enumerate(rest, y0):
        h = x + y
        m, rem = divmod(hm, h)
        # q is half the norm: a real root (q = 1) has mult 1, an imaginary
        # one (q <= 0) at least 1 (Kac Prop. 5.10), and any other weight is
        # no root
        q = xx + y * (y - rx)
        if rem or (m < 1 if q <= 0 else m != (1 if q == 1 else 0)):
            raise ArithmeticError(
                f"multiplicity at {(x, y)} came out {Fraction(hm, h)}, "
                f"which no weight of half norm {q} has; "
                "a Weyl shift is missing or wrong"
            )
        m_row[y] = m


class _Entries(Mapping):
    """Read-only view of a table's filled cells: weight -> (Fraction c, mult)."""

    def __init__(self, table: MultiplicityTable):
        self._table = table

    def __getitem__(self, weight) -> tuple[Fraction, int]:
        c0max, c1max = self._table._box
        try:
            x, y = as_weight(weight)
        except ValueError:
            raise KeyError(weight) from None
        if x > c0max or y > c1max or x + y == 0:
            raise KeyError(weight)
        return Fraction(-self._table._f[x][y], x + y), self._table._m[x][y]

    def __iter__(self) -> Iterator[Weight]:
        c0max, c1max = self._table._box
        for x in range(c0max + 1):
            for y in range(0 if x else 1, c1max + 1):
                yield Weight(x, y)

    def __len__(self) -> int:
        c0max, c1max = self._table._box
        return (c0max + 1) * (c1max + 1) - 1


def multiplicity(weight, cartan: Rank2Cartan, table: Optional[MultiplicityTable] = None) -> int:
    """dim of the root space at the weight; 0 when the weight is not a root."""
    if table is None:
        table = MultiplicityTable(cartan)
    return table.entry(weight)[1]


def kostant_count(weight, cartan: Rank2Cartan) -> int:
    """Number of ways to write the weight as a multiset of positive roots
    (with root-space "colors"): the coefficient of the weight in
    prod over roots of (1 - e^beta)^(-mult).  Reads no multiplicity.
    """
    c0, c1 = as_weight(weight)
    check_box(c0, c1)
    return _kostant_grid(c0, c1, cartan)[c0][c1]


def _weyl_shifts(c0max: int, c1max: int, cartan: Rank2Cartan):
    """Yield (a, b, eps(w)) for each w != 1 whose shift rho - w rho = (a, b)
    lies in the lower box."""
    # Every w != 1 lies on one of the two alternating chains s_i, s_j s_i,
    # ...  The dot action mu -> s_i(mu) - alpha_i takes w.0 = w rho - rho
    # to the next element's, and each step raises coordinate i of the
    # shift rho - w rho, so a chain ends at its first shift outside the box.
    for first in (0, 1):
        i, mu, sign = first, Weight(0, 0), 1
        while True:
            mu = Weight(*simple_reflection(i, mu, cartan)) - (ALPHA0, ALPHA1)[i]
            i, sign = 1 - i, -sign
            if -mu.c0 > c0max or -mu.c1 > c1max:
                break
            yield -mu.c0, -mu.c1, sign


def _kostant_grid(c0max: int, c1max: int, cartan: Rank2Cartan) -> list[list[int]]:
    """Kostant counts K[x][y] over the lower box, from the Weyl group alone:
    the coefficients of 1/D."""
    K = [[0] * (c1max + 1) for _ in range(c0max + 1)]
    K[0][0] = 1
    _divide_by_denominator(K, list(_weyl_shifts(c0max, c1max, cartan)))
    return K


def _divide_by_denominator(G: list[list[int]], shifts) -> None:
    """Divide the series G by D in place over the whole box:
    G(gamma) -= sum over w != 1 of eps(w) G(gamma - (rho - w rho)).

    Every shift is nonzero and nonnegative, so row-major order reaches each
    cell after every cell it reads.  A shift (a, b) with a > 0 reads the
    finished row x - a and takes one pass over row x.  The one shift with
    a = 0, alpha_1 = (0, 1) of s_1 (each later step of either chain raises
    c0), reads row x itself, so it runs last, as a running sum along each
    residue class of y mod b.
    """
    across = [(a, b, sub if sign > 0 else add) for a, b, sign in shifts if a]
    # accumulate's step takes (new G at y - b, old G at y)
    along = [(b, _rsub if sign > 0 else add) for a, b, sign in shifts if not a]
    for x, row in enumerate(G):
        n = len(row)
        for a, b, op in across:
            if a <= x and b < n:
                row[b:] = map(op, row[b:], G[x - a][: n - b])
        for b, step in along:
            for y0 in range(min(b, n - b)):
                row[y0::b] = accumulate(row[y0::b], step)


def _rsub(prev: int, value: int) -> int:
    return value - prev
