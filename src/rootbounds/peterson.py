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
each fill runs both recurrences a row at a time; c is built from F when
an entry is looked up.

The Cartan matrix is symmetric, so D, F, mult and 1/D are unchanged by
the diagram flip (c0, c1) -> (c1, c0).  With s the shorter side, a box
whose strip outside the square [0..s]^2 is at most s + 1 wide is filled
tall, the long side indexing the rows: the square on and below the
diagonal only, each finished row copied into its column, then the strip
in full rows.  A thinner box is filled in full rows along its long side.
A fill in the other orientation than asked is transposed back.  Before
any cell is filled, the shifts in the square are checked to be closed
under the flip with equal signs; a box that fails this is filled in full
as asked, so each cell's check finds the faulty shift.
The closed form of this logarithm is the Berman-Moody formula (Proc. AMS
76, 1979).  Peterson's recursion (Kac 11.13) lives in the tests, as an
independent check on every cell of a large box.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, count
from operator import add, sub
from typing import Optional

from .core_lattice import Rank2Cartan, Weight, as_weight

# a fill refuses a lower box of more cells than this before it allocates
# any.  On a 2-vCPU Xeon VM the box up to (1023,1023), 2^20 cells, took
# 0.8-1.2 s and 122 MB peak RSS at r = 3 (0.6-0.9 s and 182 MB at
# r = 2^62), and (801,800) 0.4-0.6 s and 71 MB.  A thin box fills along
# its long side: at r = 3 the one row up to (1,524287) took 0.31 s and
# 43 MB, the tall box up to (524287,1) 0.41-0.44 s and 111 MB, and
# (30000,1) 0.02 s.
MAX_CELLS = 1 << 20


def check_box(c0max: int, c1max: int) -> None:
    """Refuse a corner that is no weight, or a lower box of more than MAX_CELLS cells."""
    c0max, c1max = as_weight((c0max, c1max))
    cells = (c0max + 1) * (c1max + 1)
    if cells > MAX_CELLS:
        raise ValueError(
            f"the box up to {(c0max, c1max)} holds {cells} cells, more than {MAX_CELLS}"
        )


class MultiplicityTable:
    """Exact (c, mult) entries over a lower box, each fill built whole.

    The state is two integer grids indexed [c0][c1], whose rows are tuples
    after a transposed fill: ``_f`` holds F, the coefficients of h log D,
    and ``_m`` the multiplicity.  No entry is stored: ``entries`` is a
    read-only view that builds (Fraction c, mult) from the grids at each
    lookup.  A lookup outside the box refills, from scratch, the least box
    that holds both, so fill the largest box first.
    """

    def __init__(self, cartan: Rank2Cartan) -> None:
        self.cartan = cartan
        self._box = (0, 0)
        self._f = [[0]]
        self._m = [[0]]

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
        F, shifts, flip, square = _oriented_grid(c0max, c1max, self.cartan)
        # the cells start as h D, and dividing by D turns them into F
        for a, b, sign in shifts:
            F[a][b] = (a + b) * sign
        _divide_by_denominator(F, shifts, square)
        rows, cols = len(F) - 1, len(F[0]) - 1
        M = [[0] * (cols + 1) for _ in F]
        # rest = h mult: -F less the terms h(gamma/d) mult(gamma/d) of the
        # divisors d > 1 of gamma = (x, y).  gcd(0, y) = y, so a full row 0
        # reads itself, but its one root is alpha_1 = (0, 1), of mult 1:
        # _settle checks (0, 1) before any later cell, each of which then
        # has the one term h(0, 1) mult(0, 1) = 1.  In a half fill row 0
        # holds only the origin, and its other cells mirror column 0.
        if not square:
            rest = [-f for f in F[0]]
            rest[2:] = [v - 1 for v in rest[2:]]
            _settle(M[0], 0, 1, rest[1:], self.r, flip)
        # divisors[x]: the divisors d > 1 of x, ascending, sieved once
        divisors = [[] for _ in F]
        for d in range(2, rows + 1):
            for x in range(d, rows + 1, d):
                divisors[x].append(d)
        for x in range(1, rows + 1):
            rest = [-f for f in F[x][: x + 1 if x < square else cols + 1]]
            # for d | x the divisor terms lie along the slice y = 0 mod d.
            # In a half fill every cell has x >= y, so its terms lie on or
            # below the diagonal, and the square's mirror can wait
            for d in divisors[x]:
                terms = zip(rest[::d], count(x // d), M[x // d])
                rest[::d] = [v - h * m for v, h, m in terms]
            _settle(M[x], x, 0, rest, self.r, flip)
        for y, column in enumerate(zip(*M[:square])):
            M[y][y + 1 :] = column[y + 1 :]
        if flip:
            F, M = _transposed(F), _transposed(M)
        self._f, self._m, self._box = F, M, (c0max, c1max)

    def entry(self, weight) -> tuple[Fraction, int]:
        weight = as_weight(weight)
        if weight == (0, 0):
            raise ValueError("multiplicity needs a nonzero weight")
        if weight.c0 > self._box[0] or weight.c1 > self._box[1]:
            self.fill_box(*weight)
        return self.entries[weight]


def _settle(m_row: list[int], x: int, y0: int, rest: list[int], r: int, flip: bool) -> None:
    """Set m_row[y] = rest[y - y0] / h(x, y) for each y from y0, after
    checking that the division is exact and the result fits the root class.
    A failure names the cell (x, y), or (y, x) in a transposed fill."""
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
                f"multiplicity at {(y, x) if flip else (x, y)} came out {Fraction(hm, h)}, "
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
    elif table.r != cartan.r:
        raise ValueError(f"the table holds r = {table.r}, not r = {cartan.r}")
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
    # to the next element's; on the shift -mu it reads a -> r*b - a + 1
    # for i = 0 and b -> r*a - b + 1 for i = 1.  Each step raises
    # coordinate i of the shift, so a chain ends at its first shift
    # outside the box.
    r = cartan.r
    for first in (0, 1):
        a = b = 0
        i, sign = first, 1
        while True:
            if i == 0:
                a = r * b - a + 1
            else:
                b = r * a - b + 1
            i, sign = 1 - i, -sign
            if a > c0max or b > c1max:
                break
            yield a, b, sign


def _kostant_grid(c0max: int, c1max: int, cartan: Rank2Cartan) -> list[Sequence[int]]:
    """Kostant counts K[x][y] over the lower box, from the Weyl group alone:
    the coefficients of 1/D."""
    K, shifts, flip, square = _oriented_grid(c0max, c1max, cartan)
    K[0][0] = 1
    _divide_by_denominator(K, shifts, square)
    return _transposed(K) if flip else K


def _oriented_grid(c0max: int, c1max: int, cartan: Rank2Cartan):
    """A zero grid for a fill of the box, oriented as the module docstring
    says, the shifts the fill divides by, whether both are transposed, and
    how many leading rows it fills by half."""
    shifts = list(_weyl_shifts(c0max, c1max, cartan))
    s, n = sorted((c0max, c1max))
    inside = {(a, b, sign) for a, b, sign in shifts if a <= s and b <= s}
    if any((b, a, sign) not in inside for a, b, sign in inside):
        flip, square = False, 0
    elif n - s <= s + 1:
        flip, square = c0max < c1max, s + 1
    else:
        flip, square = c0max > c1max, 0
    if flip:
        c0max, c1max = c1max, c0max
        shifts = [(b, a, sign) for a, b, sign in shifts]
    return [[0] * (c1max + 1) for _ in range(c0max + 1)], shifts, flip, square


def _divide_by_denominator(G: list[list[int]], shifts, square: int) -> None:
    """Divide the series G by D in place over the whole box:
    G(gamma) -= sum over w != 1 of eps(w) G(gamma - (rho - w rho)).

    Every shift is nonzero and nonnegative, so row-major order reaches each
    cell after every cell it reads.  A shift (a, b) with a > 0 reads the
    finished row x - a and takes one pass over row x.  The one shift with
    a = 0, alpha_1 = (0, 1) of s_1 (each later step of either chain raises
    c0), reads row x itself, so it runs last, as a running sum along each
    residue class of y mod b.

    The first ``square`` rows, the square part of a symmetric grid under
    symmetric shifts, are filled by half: row x only up to its diagonal
    cell, whose term of a shift (a, 0) sits at (x - a, x), above the
    diagonal, and is read through the mirror at (x, x - a) once the row's
    running sum is done.  Every other term of a half row lies in a row
    x - a, a > 0, at a column below x, which the copy of each finished
    row into its column has filled.
    """
    across = [(a, b, sub if sign > 0 else add) for a, b, sign in shifts if a]
    # accumulate's step takes (new G at y - b, old G at y)
    along = [(b, _rsub if sign > 0 else add) for a, b, sign in shifts if not a]
    for x, row in enumerate(G):
        half = x < square
        n = x + 1 if half else len(row)
        for a, b, op in across:
            m = x if half and not b else n
            if a <= x and b < m:
                row[b:m] = map(op, row[b:m], G[x - a][: m - b])
        for b, step in along:
            for y0 in range(min(b, n - b)):
                row[y0:n:b] = accumulate(row[y0:n:b], step)
        if half:
            for a, b, op in across:
                if not b and a <= x:
                    row[x] = op(row[x], row[x - a])
            for above, value in zip(G, row[:x]):
                above[x] = value


def _transposed(G: list[list[int]]) -> list[tuple[int, ...]]:
    """The columns of G, as tuples: a transposed grid is only read, and the
    collector soon stops tracking a tuple of ints, so a tall thin box's
    many short rows do not slow every later collection as lists would."""
    return list(zip(*G))


def _rsub(prev: int, value: int) -> int:
    return value - prev
