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
The closed form of this logarithm is the Berman-Moody formula (Proc. AMS
76, 1979).  Peterson's recursion (Kac 11.13) lives in the tests, as an
independent check on every cell of a large box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from .core_lattice import ALPHA0, ALPHA1, Rank2Cartan, Weight, simple_reflection

# a fill refuses a lower box of more cells than this before it allocates
# any.  On a 2-vCPU Xeon VM the box up to (1023,1023), 2^20 cells, took
# 11.7 s and 540 MB peak RSS at r = 3 (718 MB at r = 2^62), and (801,800)
# 6.1 s and 303 MB.
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
    coefficients of h log D, and ``_m`` the multiplicity.  ``entries``
    repeats each filled cell as (Fraction c, mult).
    """

    cartan: Rank2Cartan
    entries: dict[Weight, tuple[Fraction, int]] = field(default_factory=dict)
    _box: tuple[int, int] = (0, 0)
    _f: list[list[int]] = field(default_factory=lambda: [[0]], repr=False)
    _m: list[list[int]] = field(default_factory=lambda: [[0]], repr=False)

    @property
    def r(self) -> int:
        return self.cartan.r

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
        r = self.r
        # the new cells start as h D, and dividing by D turns them into F
        for a, b, sign in shifts:
            if a > old0 or b > old1:
                F[a][b] = (a + b) * sign
        _divide_by_denominator(F, shifts, old0, old1)
        entries = self.entries
        for x in range(c0max + 1):
            f_row, m_row = F[x], M[x]
            xx, rx = x * x, r * x
            for y in range(0 if x > old0 else old1 + 1, c1max + 1):
                h = x + y
                f = f_row[y]
                rest = -f
                g = gcd(x, y)
                if g > 1:
                    rest -= sum(h // d * M[x // d][y // d] for d in range(2, g + 1) if g % d == 0)
                m, rem = divmod(rest, h)
                # q is half the norm: a real root (q = 1) has mult 1, an
                # imaginary one (q <= 0) at least 1 (Kac Prop. 5.10), and
                # any other weight is no root
                q = xx + y * (y - rx)
                if rem or (m < 1 if q <= 0 else m != (1 if q == 1 else 0)):
                    raise ArithmeticError(
                        f"multiplicity at {(x, y)} came out {Fraction(rest, h)}, "
                        f"which no weight of half norm {q} has; "
                        "a Weyl shift is missing or wrong"
                    )
                m_row[y] = m
                entries[Weight(x, y)] = (Fraction(-f, h), m)
        self._box = (c0max, c1max)

    def entry(self, weight) -> tuple[Fraction, int]:
        c0, c1 = weight
        if c0 < 0 or c1 < 0 or (c0, c1) == (0, 0):
            raise ValueError(f"multiplicity needs a nonzero nonnegative weight, got {(c0, c1)}")
        self.fill_box(c0, c1)
        return self.entries[Weight(c0, c1)]


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
    cell after every cell it reads.
    """
    for x, row in enumerate(G):
        lower = [(G[x - a], b, sign) for a, b, sign in shifts if a <= x]
        for y in range(0 if x > old0 else old1 + 1, len(row)):
            row[y] -= sum(sign * prev[y - b] for prev, b, sign in lower if b <= y)
