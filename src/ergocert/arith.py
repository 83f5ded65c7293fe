"""Exact arithmetic substrate: rationals, intervals, Q[sqrt(2)].

Rationals are `fractions.Fraction` (always canonical).  Intervals carry exact
rational endpoints.  A small exact quadratic-field type (a + b*sqrt(2))
backs the default rotation angle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

#: default cap on refinement rounds in precision-driven loops
DEFAULT_STEP_BUDGET = 64


#: the plain "num/den" or integer form, in ASCII digits
_PLAIN_RAT = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rat(s: str) -> Fraction:
    """Parse a "num/den" (or plain integer) string: exactly
    `Fraction(s.strip())`, in value and in the exceptions raised.  The
    plain form reads its two integers directly; any other string (blanks,
    a decimal point, an exponent, underscores) goes to `Fraction`'s own
    parser."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    m = _PLAIN_RAT.fullmatch(s)
    if m is None:
        return Fraction(s.strip())
    num, den = m.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def parse_ratio(s: str) -> tuple:
    """`parse_rat(s)` as the pair (numerator, denominator) in lowest terms,
    the denominator positive, with the same exceptions.  The plain form
    reads its two integers and reduces them by one gcd, building no
    Fraction; any other string goes to `parse_rat`."""
    m = _PLAIN_RAT.fullmatch(s)
    if m is None:
        q = parse_rat(s)
        return q.numerator, q.denominator
    num, den = int(m[1]), int(m[2] or 1)
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    return num // g, den // g


def parse_int(v, what: str) -> int:
    """A JSON integer; a bool, a string or a float raises ValueError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be a JSON integer, not {v!r}")
    return v


def parse_list(v, what: str, size=None) -> list:
    """A JSON list, of `size` items if given; a string or an object raises
    ValueError (iterating either would read its characters or keys)."""
    if not isinstance(v, list) or size not in (None, len(v)):
        raise ValueError(f"{what} must be a JSON list"
                         f"{f' of {size}' if size else ''}, not {v!r:.40}")
    return v


def fmt_rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def pow2(m: int) -> Fraction:
    """2^-m as an exact rational (m >= 0)."""
    return Fraction(1, 1 << m)


#: sqrt_upper rounds up to the grid of step 2^-SQRT_BITS
SQRT_BITS = 48


def sqrt_upper(q: Fraction) -> Fraction:
    """Rational u with u >= sqrt(q) and u - sqrt(q) <= 2^-SQRT_BITS."""
    if q < 0:
        raise InputError("negative radicand")
    if q == 0:
        return Fraction(0)
    n = (q.numerator << (2 * SQRT_BITS)) // q.denominator
    return Fraction(math.isqrt(n) + 1, 1 << SQRT_BITS)


# ---------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
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

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None


# ---------------------------------------------------------------------------
# Exact quadratic field Q[sqrt(2)]

_RATIONAL = (int, Fraction)


class Quad:
    """Exact number a + b*sqrt(2) with rational a, b.

    Supports +, * and exact total order with rationals on either side,
    subtraction of a Quad or a rational from a Quad, and division by a
    rational; used for rotation-map internals where orbit points and PL
    breakpoints live in Q[sqrt(2)].
    Both parts are `Fraction`s, kept as given when they already are; int and
    Fraction operands join without a lift to Quad, and any other operand
    (a float, a string) is `NotImplemented`, so no binary float enters.
    Comparisons read the `sign` of one difference, which decides a^2
    against 2b^2 on integers.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def approx(self, m: int) -> Fraction:
        if self.b == 0:
            return self.a
        s = m + self.b.denominator.bit_length() + abs(self.b.numerator).bit_length() + 4
        r2 = Fraction(math.isqrt(2 << (2 * s)), 1 << s)
        return self.a + self.b * r2

    def __add__(self, o):
        if isinstance(o, Quad):
            return Quad(self.a + o.a, self.b + o.b)
        if isinstance(o, _RATIONAL):
            return Quad(self.a + o, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Quad):
            return Quad(self.a - o.a, self.b - o.b)
        if isinstance(o, _RATIONAL):
            return Quad(self.a - o, self.b)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Quad):
            return Quad(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)
        if isinstance(o, _RATIONAL):
            return Quad(self.a * o, self.b * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _RATIONAL):
            return Quad(self.a / o, self.b / o)
        return NotImplemented

    def sign(self) -> int:
        a, b = self.a, self.b
        return sign_root2(a.numerator * b.denominator,
                          b.numerator * a.denominator)

    def __eq__(self, o):
        if isinstance(o, Quad):
            return self.a == o.a and self.b == o.b
        if isinstance(o, _RATIONAL):
            return self.a == o and not self.b
        return NotImplemented

    def __lt__(self, o):
        return (self - o).sign() < 0

    def __le__(self, o):
        return (self - o).sign() <= 0

    def __gt__(self, o):
        return (self - o).sign() > 0

    def __ge__(self, o):
        return (self - o).sign() >= 0

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


def sign_root2(a: int, b: int) -> int:
    """The sign of a + b sqrt(2) for integers a, b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:  # the same sign, or one part is zero
        return sa or sb
    # opposite signs: the sign of a wins iff a^2 > 2 b^2 (never equal)
    return sa if a * a > 2 * b * b else sb


def floor_root2(t: int) -> int:
    """floor(t sqrt(2)) for an integer t (irrational unless t = 0)."""
    r = math.isqrt(2 * t * t)
    return r if t >= 0 else -r - 1


def root2_scale(amax: int, bmax: int) -> int:
    """The power of two m above 2 amax + 4 bmax, whose integer keys
    m a + floor_root2(m b) = floor(m (a + b sqrt2)) order the numbers
    a + b sqrt2 with |a| <= amax and |b| <= bmax exactly: integers p, q
    not both 0 have |p + q sqrt2| >= 1/(|p| + 2|q|), as |p^2 - 2q^2| >= 1,
    so two different such numbers differ by more than 1/m and their keys
    differ too."""
    return 1 << (2 * amax + 4 * bmax).bit_length()


def mod1(x):
    """x mod 1 for a rational or a Quad."""
    return x % 1 if isinstance(x, (Fraction, int)) else x.mod1()


SQRT2_MINUS_1 = Quad(-1, 1)

