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
A table stores only the integer grids F and mult, and both recurrences run
a row at a time; c is built from F when an entry is looked up.
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

from .core_lattice import ALPHA0, ALPHA1, Rank2Cartan, Weight, simple_reflection

# a fill refuses a lower box of more cells than this before it allocates
# any.  On a 2-vCPU Xeon VM the box up to (1023,1023), 2^20 cells, took
# 1.6-1.8 s and 212 MB peak RSS at r = 3 (1.1 s and 333 MB at r = 2^62),
# and (801,800) 0.9-1.0 s and 117 MB.
MAX_CELLS = 1 << 20


def check_box(c0max: int, c1max: int) -> None:
    """Refuse the lower box up to (c0max, c1max) when it holds more than MAX_CELLS cells."""
    cells = (c0max + 1) * (c1max + 1)
    if cells > MAX_CELLS:
        raise ValueError(
            f"the box up to {(c0max, c1max)} holds {cells} cells, more than {MAX_CELLS}"
        )


@dataclass
class MultiplicityTable:
    """Memoized (c, mult) entries over a growing lower box.

    The state is two integer grids indexed [c0][c1]: ``_f`` holds F, the
    coefficients of h log D, and ``_m`` the multiplicity.  No entry is
    stored: ``entries`` is a read-only view that builds (Fraction c, mult)
    from the grids at each lookup.
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
        old0, old1 = self._box
        if c0max <= old0 and c1max <= old1:
            return
        c0max = max(c0max, old0)
        c1max = max(c1max, old1)
        check_box(c0max, c1max)
        for f_row, m_row in zip(self._f, self._m):
            f_row.extend([0] * (c1max + 1 - len(f_row)))
            m_row.extend([0] * (c1max + 1 - len(m_row)))
        for _ in range(c0max + 1 - len(self._f)):
            self._f.append([0] * (c1max + 1))
            self._m.append([0] * (c1max + 1))
        shifts = list(_weyl_shifts(c0max, c1max, self.cartan))
        F, M = self._f, self._m
        # the new cells start as h D, and dividing by D turns them into F
        for a, b, sign in shifts:
            if a > old0 or b > old1:
                F[a][b] = (a + b) * sign
        _divide_by_denominator(F, shifts, old0, old1)
        # rest = h mult: -F less the terms h(gamma/d) mult(gamma/d) of the
        # divisors d > 1 of gamma = (x, y).  gcd(0, y) = y, so row 0 reads
        # itself: it is settled a cell at a time, each cell passing its term
        # on to its multiples.
        if c1max > old1:
            rest = [-f for f in F[0]]
            for z in range(1, c1max + 1):
                if z > old1:
                    _settle(M[0], 0, z, rest[z : z + 1], self.r)
                # the first multiple of z past both z and the old box
                lo = max(2, old1 // z + 1) * z
                if lo <= c1max:
                    term = z * M[0][z]
                    rest[lo::z] = [v - term for v in rest[lo::z]]
        for x in range(1, c0max + 1):
            start = 0 if x > old0 else old1 + 1
            if start > c1max:
                continue
            rest = [-f for f in F[x][start:]]
            # for d | x the divisor terms lie along the slice y = 0 mod d
            for d in range(2, x + 1):
                if x % d == 0:
                    xd, z0 = x // d, -(-start // d)
                    cut = slice(z0 * d - start, None, d)
                    terms = zip(rest[cut], count(xd + z0), M[xd][z0:])
                    rest[cut] = [v - h * m for v, h, m in terms]
            _settle(M[x], x, start, rest, self.r)
        self._box = (c0max, c1max)

    def entry(self, weight) -> tuple[Fraction, int]:
        c0, c1 = weight
        if c0 < 0 or c1 < 0 or (c0, c1) == (0, 0):
            raise ValueError(f"multiplicity needs a nonzero nonnegative weight, got {(c0, c1)}")
        self.fill_box(c0, c1)
        return self.entries[Weight(c0, c1)]


def _settle(m_row: list[int], x: int, start: int, rest: list[int], r: int) -> None:
    """Set m_row[y] = rest[y - start] / h(x, y) for each y from start, after
    checking that the division is exact and the result fits the root class."""
    xx, rx = x * x, r * x
    for y, hm in enumerate(rest, start):
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
            x, y = weight
            inside = 0 <= x <= c0max and 0 <= y <= c1max and x + y > 0
        except (TypeError, ValueError):
            inside = False
        if not inside:
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
    c0, c1 = weight
    if c0 < 0 or c1 < 0:
        raise ValueError("Kostant count needs a nonnegative weight")
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
    _divide_by_denominator(K, list(_weyl_shifts(c0max, c1max, cartan)), 0, 0)
    return K


def _divide_by_denominator(G: list[list[int]], shifts, old0: int, old1: int) -> None:
    """Divide the series G by D in place at every cell outside the lower box
    (old0, old1): G(gamma) -= sum over w != 1 of eps(w) G(gamma - (rho - w rho)).

    Every shift is nonzero and nonnegative, so row-major order reaches each
    cell after every cell it reads.  A shift (a, b) with a > 0 reads the
    finished row x - a and takes one pass over the new part of row x.  The
    one shift with a = 0, alpha_1 = (0, 1) of s_1 (each later step of
    either chain raises c0), reads row x itself, so it runs last, as a
    running sum along each residue class of y mod b.
    """
    across = [(a, b, sub if sign > 0 else add) for a, b, sign in shifts if a]
    # accumulate's step takes (new G at y - b, old G at y)
    along = [(b, _rsub if sign > 0 else add) for a, b, sign in shifts if not a]
    for x, row in enumerate(G):
        n = len(row)
        start = 0 if x > old0 else old1 + 1
        if start >= n:
            continue
        for a, b, op in across:
            lo = max(start, b)
            if a <= x and lo < n:
                row[lo:] = map(op, row[lo:], G[x - a][lo - b : n - b])
        for b, step in along:
            lo = max(start, b)
            for y0 in range(lo - b, min(lo, n - b)):
                row[y0::b] = accumulate(row[y0::b], step)


def _rsub(prev: int, value: int) -> int:
    return value - prev
