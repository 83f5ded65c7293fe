"""Computable metric spaces: the unit circle and Cantor space.

Ideal points are numbered effectively in both directions; ideal balls are
numbered by pairing the point and radius numberings.  Cantor-space radii are
restricted to 3*2^-(k+1) so every ball is exactly the clopen cylinder fixing
the first k coordinates.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import Callable, Iterable, Optional

from .arith import CReal, Interval, fmt_rat, mod1, parse_rat, pow2
from .errors import InvalidNestingError


# ---------------------------------------------------------------------------
# Effective numberings


def pair(a: int, b: int) -> int:
    """Cantor pairing."""
    return (a + b) * (a + b + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    b = n - s * (s + 1) // 2
    return s - b, b


def circle_point(i: int) -> Fraction:
    """i-th rational in [0,1), ordered by denominator then numerator."""
    if i < 0:
        raise ValueError("negative index")
    q = 1
    while True:
        count = _totient_in_unit(q)
        if i < count:
            for p in range(q):
                if gcd(p, q) == 1 or (p == 0 and q == 1):
                    if i == 0:
                        return Fraction(p, q)
                    i -= 1
        i -= count
        q += 1


def circle_index(x) -> int:
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("not in [0,1)")
    q = x.denominator
    idx = sum(_totient_in_unit(d) for d in range(1, q))
    for p in range(q):
        if gcd(p, q) == 1 or (p == 0 and q == 1):
            if Fraction(p, q) == x:
                return idx
            idx += 1
    raise AssertionError


def _totient_in_unit(q: int) -> int:
    if q == 1:
        return 1  # just 0/1
    return sum(1 for p in range(1, q) if gcd(p, q) == 1)


def pos_rational(j: int) -> Fraction:
    """j-th positive rational, by anti-diagonals of reduced p/q."""
    if j < 0:
        raise ValueError("negative index")
    for s in itertools.count(2):
        for p in range(1, s):
            q = s - p
            if gcd(p, q) == 1:
                if j == 0:
                    return Fraction(p, q)
                j -= 1


def pos_rational_index(r) -> int:
    r = Fraction(r)
    if r <= 0:
        raise ValueError("not positive")
    idx = 0
    for s in itertools.count(2):
        for p in range(1, s):
            q = s - p
            if gcd(p, q) == 1:
                if Fraction(p, q) == r:
                    return idx
                idx += 1


def cantor_word(i: int) -> str:
    """i-th finite binary word with no trailing zeros (so the numbering of
    zero-padded sequences is injective).  Index 0 is the empty word."""
    if i == 0:
        return ""
    j = i - 1
    length = 1
    while j >= (1 << (length - 1)):
        j -= 1 << (length - 1)
        length += 1
    bits = format(j, f"0{length - 1}b") if length > 1 else ""
    return bits + "1"


def cantor_word_index(w: str) -> int:
    w = w.rstrip("0")
    if w == "":
        return 0
    length = len(w)
    base = 1 + sum(1 << (l - 1) for l in range(1, length))
    j = int(w[:-1], 2) if length > 1 else 0
    return base + j


# ---------------------------------------------------------------------------
# Spaces


class SpaceKind(enum.Enum):
    CIRCLE = "circle"
    CANTOR = "cantor"


def circle_dist(x, y):
    """Arc metric on [0,1); works for Fraction and Quad coordinates."""
    t = mod1(x - y)
    return min(t, 1 - t)


def cantor_dist(u: str, v: str) -> Fraction:
    """2^-(first differing index) on zero-padded words."""
    n = max(len(u), len(v))
    u = u.ljust(n, "0")
    v = v.ljust(n, "0")
    for i in range(n):
        if u[i] != v[i]:
            return Fraction(1, 1 << i)
    return Fraction(0)


@dataclass(frozen=True)
class Space:
    kind: SpaceKind

    def ideal_point(self, i: int):
        if self.kind is SpaceKind.CIRCLE:
            return circle_point(i)
        return cantor_word(i)

    def dist(self, a, b) -> Fraction:
        if self.kind is SpaceKind.CIRCLE:
            return circle_dist(Fraction(a), Fraction(b))
        return cantor_dist(a, b)


CIRCLE = Space(SpaceKind.CIRCLE)
CANTOR = Space(SpaceKind.CANTOR)


# ---------------------------------------------------------------------------
# Ideal balls


@dataclass(frozen=True)
class IdealBall:
    space: Space
    center: object  # Fraction (circle) or word str (cantor)
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.space.kind is SpaceKind.CIRCLE:
            c = Fraction(self.center)
            if not 0 <= c < 1:
                raise ValueError("circle center must lie in [0,1)")
            object.__setattr__(self, "center", c)
        else:
            if self.cylinder_depth is None:
                raise ValueError("cantor radius must be 3*2^-(k+1)")
            object.__setattr__(self, "center", str(self.center).rstrip("0"))

    @property
    def cylinder_depth(self) -> Optional[int]:
        """k such that radius == 3*2^-(k+1); None if not canonical."""
        r = self.radius
        if r.numerator != 3:
            return None
        d = r.denominator
        if d & (d - 1):
            return None
        return d.bit_length() - 2

    @property
    def cylinder_prefix(self) -> str:
        k = self.cylinder_depth
        return self.center.ljust(k, "0")[:k]

    def index(self) -> int:
        if self.space.kind is SpaceKind.CIRCLE:
            return pair(circle_index(self.center), pos_rational_index(self.radius))
        return pair(cantor_word_index(self.center), self.cylinder_depth)

    @staticmethod
    def from_index(space: Space, n: int) -> "IdealBall":
        a, b = unpair(n)
        if space.kind is SpaceKind.CIRCLE:
            return IdealBall(space, circle_point(a), pos_rational(b))
        return IdealBall(space, cantor_word(a), Fraction(3, 1 << (b + 1)))

    def to_json(self) -> dict:
        return {
            "space": self.space.kind.value,
            "center": fmt_rat(self.center) if self.space.kind is SpaceKind.CIRCLE else self.center,
            "radius": fmt_rat(self.radius),
        }

    @staticmethod
    def from_json(d: dict) -> "IdealBall":
        space = CIRCLE if d["space"] == "circle" else CANTOR
        center = parse_rat(d["center"]) if space.kind is SpaceKind.CIRCLE else d["center"]
        return IdealBall(space, center, parse_rat(d["radius"]))


def ball_arc(ball: IdealBall) -> tuple[Fraction, Fraction]:
    """Circle ball as an interval (c-r, c+r) on the real line (may extend
    beyond [0,1); callers reduce mod 1).  Radius >= 1/2 covers everything."""
    return ball.center - ball.radius, ball.center + ball.radius


# ---------------------------------------------------------------------------
# Points


class CirclePoint:
    """A point of the circle represented by a CReal (reduced mod 1 lazily)."""

    def __init__(self, x: CReal):
        self.creal = x

    @staticmethod
    def from_rational(q) -> "CirclePoint":
        return CirclePoint(CReal.from_rational(Fraction(q) % 1))

    def enclosure(self, m: int) -> Interval:
        return self.creal.enclosure(m)

    def __repr__(self):
        return f"CirclePoint({self.creal!r})"


class CantorPoint:
    """A point of Cantor space represented by a deterministic bit oracle."""

    def __init__(self, bit_oracle: Callable[[int], int]):
        self._oracle = bit_oracle
        self._memo: dict[int, int] = {}

    @staticmethod
    def from_word(w: str) -> "CantorPoint":
        return CantorPoint(lambda i: int(w[i]) if i < len(w) else 0)

    def bit(self, i: int) -> int:
        if i not in self._memo:
            b = int(self._oracle(i))
            if b not in (0, 1):
                raise ValueError("bit oracle must return 0 or 1")
            self._memo[i] = b
        return self._memo[i]

    def prefix(self, n: int) -> str:
        return "".join(str(self.bit(i)) for i in range(n))

    def __repr__(self):
        return f"CantorPoint({self.prefix(8)}...)"


class Membership(enum.Enum):
    IN = "IN"
    OUT = "OUT"
    BOUNDARY_AT_M = "BOUNDARY_AT_M"


def _circle_dist_interval(c: Fraction, box: Interval) -> Interval:
    """Exact range of t -> circle_dist(c, t) over a real-line interval."""
    if box.width >= 1:
        return Interval(Fraction(0), Fraction(1, 2))
    lo = box.lo % 1
    hi = lo + box.width
    d_lo = circle_dist(c, lo % 1)
    d_hi = circle_dist(c, hi % 1)
    vmin = min(d_lo, d_hi)
    vmax = max(d_lo, d_hi)
    if _hits_mod1(c, lo, hi):
        vmin = Fraction(0)
    if _hits_mod1(c + Fraction(1, 2), lo, hi):
        vmax = Fraction(1, 2)
    return Interval(vmin, vmax)


def _hits_mod1(c: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Is c congruent mod 1 to some t in [lo, hi]?"""
    k = ceil(lo - c)
    return c + k <= hi


def ball_member(space: Space, ball: IdealBall, x, m: int) -> Membership:
    if space.kind is SpaceKind.CIRCLE:
        d = _circle_dist_interval(ball.center, x.enclosure(m))
        if d.hi < ball.radius:
            return Membership.IN
        if d.lo > ball.radius:
            return Membership.OUT
        return Membership.BOUNDARY_AT_M
    k = ball.cylinder_depth
    px = x.prefix(k)
    if px == ball.cylinder_prefix:
        return Membership.IN
    return Membership.OUT


class OpenResult(enum.Enum):
    IN = "IN"
    UNKNOWN_AT_K_M = "UNKNOWN_AT_K_M"


@dataclass
class EffectiveOpen:
    """Lazily enumerated union of ideal balls.

    `enumerator(k)` may return None (no output at step k; an everywhere-None
    enumerator denotes the empty set).  When the open is exactly a finite
    union, `exact_prefix` lists the balls; `measure_defect` bounds the mass
    lost when an irrational-endpoint set was shrunk to rational balls.
    """

    space: Space
    enumerator: Optional[Callable[[int], Optional[IdealBall]]] = None
    exact_prefix: Optional[list] = None
    measure_defect: Fraction = Fraction(0)

    def ball(self, k: int) -> Optional[IdealBall]:
        if self.enumerator is not None:
            return self.enumerator(k)
        if self.exact_prefix is not None and k < len(self.exact_prefix):
            return self.exact_prefix[k]
        return None

    @staticmethod
    def empty(space: Space) -> "EffectiveOpen":
        return EffectiveOpen(space, enumerator=lambda k: None, exact_prefix=[])

    @staticmethod
    def whole(space: Space) -> "EffectiveOpen":
        if space.kind is SpaceKind.CIRCLE:
            prefix = [IdealBall(space, Fraction(0), Fraction(1, 3)),
                      IdealBall(space, Fraction(1, 2), Fraction(1, 3))]
            return EffectiveOpen(space, exact_prefix=prefix)
        return EffectiveOpen(space, exact_prefix=[IdealBall(space, "", Fraction(3, 2))])

    @staticmethod
    def from_balls(space: Space, balls: list) -> "EffectiveOpen":
        return EffectiveOpen(space, exact_prefix=list(balls))


def open_contains(space: Space, u: EffectiveOpen, x, prefix_len: int, m: int):
    """Semidecide membership using the first `prefix_len` enumerated balls.

    Returns (OpenResult, witness ball index or None); IN is never a false
    positive."""
    for k in range(prefix_len):
        b = u.ball(k)
        if b is None:
            continue
        if ball_member(space, b, x, m) is Membership.IN:
            return OpenResult.IN, k
    return OpenResult.UNKNOWN_AT_K_M, None


# ---------------------------------------------------------------------------
# Limits of nested ball streams


def refine_to_point(space: Space, balls: Iterable[IdealBall]):
    """Limit point of a nested ball stream with radii <= 2^-m at step m.

    Nesting (closure containment) is checked exactly on the rational data as
    the stream is consumed; violations raise InvalidNestingError."""
    it = iter(balls)
    fetched: list[IdealBall] = []

    def fetch(m: int) -> IdealBall:
        while len(fetched) <= m:
            b = next(it)
            if b.radius > pow2(len(fetched)):
                raise InvalidNestingError(
                    f"ball {len(fetched)} has radius {b.radius} > 2^-{len(fetched)}")
            if fetched:
                prev = fetched[-1]
                if space.kind is SpaceKind.CIRCLE:
                    if circle_dist(b.center, prev.center) + b.radius > prev.radius:
                        raise InvalidNestingError("closure not contained in predecessor")
                else:
                    kp = prev.cylinder_depth
                    if b.cylinder_depth < kp or b.cylinder_prefix[:kp] != prev.cylinder_prefix:
                        raise InvalidNestingError("cylinder not contained in predecessor")
            fetched.append(b)
        return fetched[m]

    if space.kind is SpaceKind.CIRCLE:
        return CirclePoint(CReal(lambda m: Fraction(fetch(m).center)))

    def bit(i: int) -> int:
        b = fetch(i + 1)  # radius <= 2^-(i+1) fixes at least i+1 coordinates
        return int(b.cylinder_prefix[i])

    return CantorPoint(bit)
