"""Exact arithmetic substrate: rationals, intervals, computable reals.

Rationals are `fractions.Fraction` (always canonical).  Intervals carry exact
rational endpoints.  A computable real is an approximation oracle: precision
m maps to a rational within 2^-m of the represented number.  A small exact
quadratic-field type (a + b*sqrt(2)) backs the default rotation angle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: default cap on refinement rounds in precision-driven loops
DEFAULT_STEP_BUDGET = 64


def parse_rat(s: str) -> Fraction:
    """Parse a "num/den" (or plain integer) string."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    return Fraction(s.strip())


def fmt_rat(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def pow2(m: int) -> Fraction:
    """2^-m as an exact rational (m >= 0)."""
    return Fraction(1, 1 << m)


# ---------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(q) -> "Interval":
        q = Fraction(q)
        return Interval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        return self.lo <= q <= self.hi

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        c = [self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi]
        return Interval(min(c), max(c))

    __rmul__ = __mul__

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def min_with(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def hull(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other) -> "Interval | None":
        other = _as_interval(other)
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(Fraction(x))


def imin(*xs: Interval) -> Interval:
    out = _as_interval(xs[0])
    for x in xs[1:]:
        out = out.min_with(x)
    return out


def imax(*xs: Interval) -> Interval:
    out = _as_interval(xs[0])
    for x in xs[1:]:
        out = out.max_with(x)
    return out


# ---------------------------------------------------------------------------
# Computable reals


class Cmp(enum.Enum):
    LT = "LT"
    GT = "GT"
    INDISTINGUISHABLE_AT_M = "INDISTINGUISHABLE_AT_M"


class CReal:
    """A computable real as a deterministic approximation oracle.

    `oracle(m)` must return a rational within 2^-m of the represented number;
    results are memoized so repeated queries are reproducible and cheap.
    """

    def __init__(self, oracle: Callable[[int], Fraction], name: str = ""):
        self._oracle = oracle
        self._memo: dict[int, Fraction] = {}
        self.name = name

    def approx(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError("precision must be >= 0")
        if m not in self._memo:
            self._memo[m] = Fraction(self._oracle(m))
        return self._memo[m]

    def enclosure(self, m: int) -> Interval:
        a = self.approx(m)
        e = pow2(m)
        return Interval(a - e, a + e)

    @staticmethod
    def from_rational(q) -> "CReal":
        q = Fraction(q)
        return CReal(lambda m: q, name=fmt_rat(q))

    def __add__(self, other):
        if isinstance(other, CReal):
            return CReal(lambda m: self.approx(m + 1) + other.approx(m + 1))
        q = Fraction(other)
        return CReal(lambda m: self.approx(m) + q)

    __radd__ = __add__

    def __neg__(self):
        return CReal(lambda m: -self.approx(m))

    def __sub__(self, other):
        return self + (-other if isinstance(other, CReal) else -Fraction(other))

    def __repr__(self):
        return f"CReal({self.name or '...'})"


def creal_compare(x: CReal, y: CReal, m: int) -> Cmp:
    """Precision-bounded ternary comparison.  LT/GT are certain; the
    indistinguishable answer guarantees |x - y| <= 4 * 2^-m."""
    ex, ey = x.enclosure(m), y.enclosure(m)
    if ex.hi < ey.lo:
        return Cmp.LT
    if ex.lo > ey.hi:
        return Cmp.GT
    return Cmp.INDISTINGUISHABLE_AT_M


def sqrt_creal(q, name: str = "") -> CReal:
    """Computable square root of a nonnegative rational, via integer sqrt."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")

    def oracle(m: int) -> Fraction:
        # scale so that the integer sqrt has at least m+2 fractional bits
        s = m + 2
        n = (q.numerator << (2 * s)) // q.denominator
        return Fraction(math.isqrt(n), 1 << s)

    return CReal(oracle, name=name or f"sqrt({fmt_rat(q)})")


def sqrt2_minus_one() -> CReal:
    return sqrt_creal(2, name="sqrt(2)") - Fraction(1)


# ---------------------------------------------------------------------------
# Exact quadratic field Q[sqrt(2)]


class Quad:
    """Exact number a + b*sqrt(2) with rational a, b.

    Supports field arithmetic and exact total order; used for rotation-map
    internals where orbit points and PL breakpoints live in Q[sqrt(2)].
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def of(x) -> "Quad":
        return x if isinstance(x, Quad) else Quad(x)

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational Quad")
        return self.a

    def approx(self, m: int) -> Fraction:
        if self.b == 0:
            return self.a
        s = m + self.b.denominator.bit_length() + abs(self.b.numerator).bit_length() + 4
        r2 = Fraction(math.isqrt(2 << (2 * s)), 1 << s)
        return self.a + self.b * r2

    def __add__(self, o):
        o = Quad.of(o)
        return Quad(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-Quad.of(o))

    def __rsub__(self, o):
        return Quad.of(o) + (-self)

    def __mul__(self, o):
        o = Quad.of(o)
        return Quad(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Quad.of(o)
        n = o.a * o.a - 2 * o.b * o.b
        if n == 0:
            raise ZeroDivisionError
        inv = Quad(o.a / n, -o.b / n)
        return self * inv

    def __rtruediv__(self, o):
        return Quad.of(o) / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0: positive iff a^2 > 2 b^2
            return 1 if a * a > 2 * b * b else (-1 if a * a < 2 * b * b else 0)
        return -1 if a * a > 2 * b * b else (1 if a * a < 2 * b * b else 0)

    def __eq__(self, o):
        o = Quad.of(o)
        return self.a == o.a and self.b == o.b

    def __ne__(self, o):
        return not self.__eq__(o)

    def __lt__(self, o):
        return (self - Quad.of(o)).sign() < 0

    def __le__(self, o):
        return (self - Quad.of(o)).sign() <= 0

    def __gt__(self, o):
        return (self - Quad.of(o)).sign() > 0

    def __ge__(self, o):
        return (self - Quad.of(o)).sign() >= 0

    def __hash__(self):
        # a rational Quad equals its Fraction, so it must hash like it
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def floor(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        lo = self.approx(4)
        n = math.floor(lo)
        # correct for approximation error around integer boundaries
        while self < n:
            n -= 1
        while self >= n + 1:
            n += 1
        return n

    def mod1(self) -> "Quad":
        return self - self.floor()

    def __repr__(self):
        if self.b == 0:
            return fmt_rat(self.a)
        return f"({fmt_rat(self.a)}+{fmt_rat(self.b)}*sqrt2)"


def mod1(x):
    """x mod 1 for a rational or a Quad."""
    return x % 1 if isinstance(x, (Fraction, int)) else x.mod1()


SQRT2_MINUS_1 = Quad(-1, 1)

