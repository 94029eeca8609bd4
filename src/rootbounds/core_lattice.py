"""Root-lattice arithmetic for the rank-2 symmetric hyperbolic Cartan matrix.

Everything here is exact integer arithmetic.  The Cartan matrix is
``[[2, -r], [-r, 2]]`` with ``r >= 3``; weights are written in the basis of
the two simple roots, so a weight is just a pair of coefficients
``(c0, c1)`` meaning ``c0*alpha0 + c1*alpha1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, gcd
from typing import NamedTuple


def is_int(value) -> bool:
    """Whether value is a plain int; bool is an int, and True would pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_weight(value) -> Weight:
    """The pair value as a Weight of two plain ints, both >= 0, or one ValueError.

    Every weight the library takes passes this rule: a float breaks the
    exact arithmetic, a numpy integer wraps at large r or height, and True
    would pass for 1.
    """
    try:
        c0, c1 = value
        ok = is_int(c0) and is_int(c1) and c0 >= 0 and c1 >= 0
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"a weight must be a pair of nonnegative integers, got {value!r}")
    return Weight(c0, c1)


@dataclass(frozen=True)
class Rank2Cartan:
    """The single parameter r defining the Cartan matrix [[2, -r], [-r, 2]].

    r must be a plain int: a float breaks the exact arithmetic, and a
    numpy integer would move it into wrapping fixed-width arithmetic.
    """

    r: int

    def __post_init__(self) -> None:
        if not is_int(self.r):
            raise ValueError(f"r must be an integer, got {self.r!r}")
        if self.r < 3:
            raise ValueError(f"hyperbolic regime requires r >= 3, got {self.r}")


class Weight(NamedTuple):
    """A point c0*alpha0 + c1*alpha1 of the root lattice."""

    c0: int
    c1: int

    def __add__(self, other):  # type: ignore[override]
        return Weight(self.c0 + other[0], self.c1 + other[1])

    def __sub__(self, other):
        return Weight(self.c0 - other[0], self.c1 - other[1])

    @property
    def height(self) -> int:
        return self.c0 + self.c1


ALPHA0 = Weight(1, 0)
ALPHA1 = Weight(0, 1)


class RootClass(enum.Enum):
    REAL = "real"
    IMAGINARY = "imaginary"
    NOT_A_ROOT = "not_a_root"


def bilinear_form(u, v, cartan: Rank2Cartan) -> int:
    """Symmetric invariant form in simple-root coordinates.

    (u|v) = 2*u0*v0 + 2*u1*v1 - r*(u0*v1 + u1*v0).  Normalized so the
    simple roots have norm 2.
    """
    (u0, u1), (v0, v1) = u, v
    if not all(map(is_int, (u0, u1, v0, v1))):
        raise ValueError(f"lattice coordinates must be integers, got {u!r} and {v!r}")
    return 2 * u0 * v0 + 2 * u1 * v1 - cartan.r * (u0 * v1 + u1 * v0)


def simple_reflection(i: int, v, cartan: Rank2Cartan) -> tuple[int, int]:
    """Reflect v in simple root alpha_i; coefficients may go negative."""
    if i not in (0, 1):
        raise ValueError(f"simple root index must be 0 or 1, got {i}")
    c0, c1 = v
    if not (is_int(c0) and is_int(c1)):
        raise ValueError(f"lattice coordinates must be integers, got {v!r}")
    if i == 0:
        return (cartan.r * c1 - c0, c1)
    return (c0, cartan.r * c0 - c1)


def classify(v, cartan: Rank2Cartan) -> RootClass:
    """Sort a nonzero nonnegative weight into real root / imaginary root / neither.

    The half norm q = c0^2 + c1^2 - r*c0*c1 decides: imaginary when
    q <= 0, real when q = 1, no root otherwise.  Every solution of q = 1
    is a real root: with c0 >= c1 > 0, s0 gives r*c1 - c0 = (c1^2 - 1)/c0,
    which is nonnegative and less than c0, so height-decreasing simple
    reflections keep q = 1 down to (1, 0) or (0, 1) (Vieta jumping).
    """
    c0, c1 = as_weight(v)
    if (c0, c1) == (0, 0):
        raise ValueError("zero weight has no root class")
    q = c0 * c0 + c1 * c1 - cartan.r * c0 * c1
    if q <= 0:
        return RootClass.IMAGINARY
    return RootClass.REAL if q == 1 else RootClass.NOT_A_ROOT


def dyck_count(n: int, m: int) -> int:
    """Number of lattice paths from (0,0) to (n,m) weakly above the diagonal.

    Closed form binomial(m+n, n) / (m+n), which is an integer exactly
    because gcd(m, n) = 1.
    """
    n, m = as_weight((n, m))
    if n < 1 or m < 1:
        raise ValueError("endpoint coordinates must be positive")
    if gcd(m, n) != 1:
        raise ValueError("count formula requires coprime endpoint")
    q, rem = divmod(comb(m + n, n), m + n)
    if rem:
        raise ArithmeticError(f"binomial({m + n}, {n}) is not divisible by {m + n}")
    return q

