"""Exact root multiplicities via Peterson's recursion, and Kostant
partition counts from the Weyl group alone, an independent check on them.

Peterson's recursion (Kac, *Infinite-Dimensional Lie Algebras*, 11.13)
fixes the rationals c_beta = sum over d | beta of mult(beta/d)/d through

    ((beta|beta) - 2*height(beta)) * c_beta
        = sum over beta' + beta'' = beta of (beta'|beta'') * c_beta' * c_beta'',

filled in height order over the lower box of the target weight;
multiplicities follow by taking off the proper-divisor terms.  The
denominator of c_beta divides gcd(beta), or k on an axis beta = k*alpha_i,
so with L = lcm(1..longest box side) every L*c_beta is an integer and the
recursion runs on Python ints with one checked exact division per cell.
The summand is symmetric under beta' <-> beta'', so each pair is summed
once, and the form is symmetric under (c0, c1) <-> (c1, c0), so a cell
whose mirror is already filled is copied from it.  Fractions appear only
in the table's entries, which entry() hands out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .core_lattice import ALPHA0, ALPHA1, Rank2Cartan, Weight, simple_reflection


@dataclass
class MultiplicityTable:
    """Memoized (c, mult) entries over a growing lower box, filled in height order.

    The state is two integer grids indexed [c0][c1]: ``_c`` holds L*c and
    ``_m`` the multiplicity, with L = ``_scale`` = lcm(1..longest box side).
    ``entries`` repeats each filled cell as (Fraction c, mult).
    """

    cartan: Rank2Cartan
    entries: dict[Weight, tuple[Fraction, int]] = field(default_factory=dict)
    _box: tuple[int, int] = (0, 0)
    _scale: int = 1
    _c: list[list[int]] = field(default_factory=lambda: [[0]], repr=False)
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
        self._grow(c0max, c1max)
        C, M = self._c, self._m
        for h in range(1, c0max + c1max + 1):
            for a0 in range(max(0, h - c1max), min(c0max, h) + 1):
                a1 = h - a0
                if a0 <= old0 and a1 <= old1:
                    continue
                if a1 < a0 <= c1max:
                    # the mirror (a1, a0) has the same height and a smaller
                    # c0, so it is already filled
                    C[a0][a1] = C[a1][a0]
                    m = M[a0][a1] = M[a1][a0]
                    self.entries[Weight(a0, a1)] = (self.entries[Weight(a1, a0)][0], m)
                    continue
                c, m = self._compute(a0, a1)
                C[a0][a1] = c
                M[a0][a1] = m
                self.entries[Weight(a0, a1)] = (Fraction(c, self._scale), m)
        self._box = (c0max, c1max)

    def _grow(self, c0max: int, c1max: int) -> None:
        """Widen both grids to the new box and rescale L*c to the new L."""
        scale = lcm(*range(1, max(c0max, c1max) + 1))
        factor = scale // self._scale
        pad = c1max + 1 - len(self._c[0])
        for crow, mrow in zip(self._c, self._m):
            if factor != 1:
                crow[:] = [factor * c for c in crow]
            crow.extend([0] * pad)
            mrow.extend([0] * pad)
        for _ in range(c0max + 1 - len(self._c)):
            self._c.append([0] * (c1max + 1))
            self._m.append([0] * (c1max + 1))
        self._scale = scale

    def _compute(self, a0: int, a1: int) -> tuple[int, int]:
        """(L*c, mult) at (a0, a1) from the already-filled lower cells."""
        L = self._scale
        if (a0, a1) in ((1, 0), (0, 1)):
            return L, 1
        r = self.cartan.r
        C = self._c
        # Sum (b|a-b) * C[b] * C[a-b] over b < a - b (lexicographically)
        # and double it; b = a/2, when a is even, pairs with itself and is
        # added once.  b = 0 and b = a drop out because C[0][0] = 0.
        half = 0
        for b0 in range(a0 // 2 + 1):
            e0 = a0 - b0
            row_b, row_e = C[b0], C[e0]
            for b1 in range(a1 + 1 if b0 < e0 else (a1 + 1) // 2):
                cb = row_b[b1]
                if not cb:
                    continue
                e1 = a1 - b1
                ce = row_e[e1]
                if not ce:
                    continue
                half += (2 * (b0 * e0 + b1 * e1) - r * (b0 * e1 + b1 * e0)) * cb * ce
        num = 2 * half
        if a0 % 2 == 0 and a1 % 2 == 0:
            b0, b1 = a0 // 2, a1 // 2
            num += (2 * (b0 * b0 + b1 * b1) - 2 * r * b0 * b1) * C[b0][b1] ** 2
        denom = 2 * a0 * a0 + 2 * a1 * a1 - 2 * r * a0 * a1 - 2 * (a0 + a1)
        g = gcd(a0, a1)
        M = self._m
        # L times the proper-divisor part sum_{d | g, d > 1} mult(a/d)/d
        imprimitive = sum(L // d * M[a0 // d][a1 // d] for d in range(2, g + 1) if g % d == 0)
        if denom == 0:
            # norm = 2*height >= 4 here, so the weight cannot be a root
            # (roots have norm 2 or <= 0): its primitive multiplicity is 0
            # and c reduces to the proper-divisor sum.  The recursion gives
            # 0*c = numerator, so the numerator must vanish.
            if num != 0:
                raise ArithmeticError(
                    f"Peterson denominator vanishes with nonzero numerator at {(a0, a1)}"
                )
            return imprimitive, 0
        # num = denom * L * (L*c): the sum ran over products of two L-scaled values
        c, rem = divmod(num, L * denom)
        if rem:
            raise ArithmeticError(
                f"c at {(a0, a1)} came out {Fraction(num, L * L * denom)}, whose "
                f"denominator does not divide {L}; convention bug"
            )
        m, rem = divmod(c - imprimitive, L)
        if rem or m < 0:
            raise ArithmeticError(
                f"multiplicity at {(a0, a1)} came out {Fraction(c - imprimitive, L)}; "
                "convention bug"
            )
        return c, m

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


def _kostant_grid(c0max: int, c1max: int, cartan: Rank2Cartan) -> list[list[int]]:
    """Kostant counts K[x][y] over the lower box, from the Weyl group alone.

    The Weyl-Kac denominator identity (Kac, 10.4) gives
    prod (1 - e^beta)^mult = sum over w of eps(w) e^(rho - w rho), so
    K(0) = 1 and K(gamma) = -sum over w != 1 of eps(w) K(gamma - (rho - w rho)).
    """
    # Every w != 1 lies on one of the two alternating chains s_i, s_j s_i,
    # ...  The dot action mu -> s_i(mu) - alpha_i takes w.0 = w rho - rho
    # to the next element's, and each step raises coordinate i of the
    # shift rho - w rho, so a chain ends at its first shift outside the box.
    terms = []
    for first in (0, 1):
        i, mu, sign = first, Weight(0, 0), 1
        while True:
            mu = Weight(*simple_reflection(i, mu, cartan)) - (ALPHA0, ALPHA1)[i]
            i, sign = 1 - i, -sign
            if -mu.c0 > c0max or -mu.c1 > c1max:
                break
            terms.append((-mu.c0, -mu.c1, sign))
    K = [[0] * (c1max + 1) for _ in range(c0max + 1)]
    K[0][0] = 1
    for x in range(c0max + 1):
        for y in range(c1max + 1):
            if x or y:
                K[x][y] = -sum(
                    sign * K[x - a][y - b] for a, b, sign in terms if a <= x and b <= y
                )
    return K
