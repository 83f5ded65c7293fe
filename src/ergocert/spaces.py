"""Computable metric spaces: the unit circle and Cantor space.

Ideal points are numbered effectively; the n-th ideal ball pairs the point
and radius numberings at `unpair(n)`.  Cantor-space radii are restricted to
3*2^-(k+1) so every ball is exactly the clopen cylinder fixing the first k
coordinates.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import attrgetter
from typing import Callable, Optional

from .arith import Interval, fmt_rat, parse_rat, pow2


# ---------------------------------------------------------------------------
# Effective numberings


def unpair(n: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    b = n - s * (s + 1) // 2
    return s - b, b


def _unit_rationals():
    """(p, q) for the rationals p/q in [0,1), by denominator then
    numerator."""
    yield 0, 1
    for q in itertools.count(2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def _pos_rationals():
    """(p, q) for the positive rationals p/q, by anti-diagonals."""
    for s in itertools.count(2):
        for p in range(1, s):
            if gcd(p, s - p) == 1:
                yield p, s - p


def _nth(pairs, i: int) -> Fraction:
    if i < 0:
        raise ValueError("negative index")
    return Fraction(*next(itertools.islice(pairs, i, None)))


def circle_point(i: int) -> Fraction:
    """i-th rational in [0,1), ordered by denominator then numerator."""
    return _nth(_unit_rationals(), i)


def pos_rational(j: int) -> Fraction:
    """j-th positive rational, by anti-diagonals of reduced p/q."""
    return _nth(_pos_rationals(), j)


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


# ---------------------------------------------------------------------------
# Spaces


def cantor_dist(u: str, v: str) -> Fraction:
    """2^-(first differing index) on zero-padded words: the words padded to
    one length n and read as binary numbers differ first at index
    n - (u ^ v).bit_length()."""
    n = max(len(u), len(v))
    x = int(u.ljust(n, "0") or "0", 2) ^ int(v.ljust(n, "0") or "0", 2)
    return pow2(n - x.bit_length()) if x else Fraction(0)


class Space:
    """A computable metric space.

    Each subclass owns every choice that depends on the metric or on how
    ideal points and balls are encoded: the numberings, the JSON form of a
    point, ball membership and nesting, canonical refinements, the scale
    of the bump generators, the optimal coupling of two atomic measures
    (`transport`) and the cost of a plan (`plan_cost`).  Each subclass
    has one metric (`_metric`): `dist`, defined here only, reads it, and
    so does the circle's ball nesting."""

    name: str
    #: cap on the radius and the width of a canonical bump generator
    bump_cap: Fraction
    #: a cheap hashable key per point, equal exactly when the points are
    point_key: Callable

    def dist(self, a, b) -> Fraction:
        return self._metric(a, b)

    def plan_cost(self, p1, p2, flows, lw: int) -> Fraction:
        """Σ a dist(p1[i], p2[j]) / lw over the integer flows ((i, j), a),
        summed in integers per distance denominator into one Fraction."""
        cost, dist = Counter(), self.dist
        for (i, j), a in flows:
            d = dist(p1[i], p2[j])
            cost[d.denominator] += a * d.numerator
        den = lcm(*cost)
        return Fraction(sum(c * (den // k) for k, c in cost.items()),
                        den * lw)


class CircleSpace(Space):
    """The unit circle [0,1) with the arc metric; ideal points are the
    rationals, ideal balls are open arcs."""

    name = "circle"
    bump_cap = Fraction(1, 3)  # keep bumps well inside the circle scale
    ideal_point = staticmethod(circle_point)
    point = staticmethod(Fraction)
    point_to_json = staticmethod(fmt_rat)
    point_from_json = staticmethod(parse_rat)
    # hashing a Fraction takes a modular inverse; a pair of ints does not
    point_key = staticmethod(attrgetter("numerator", "denominator"))

    def _metric(self, a, b) -> Fraction:
        # the arc metric over the product of the two denominators
        den = a.denominator * b.denominator
        t = (a.numerator * b.denominator - b.numerator * a.denominator) % den
        return Fraction(min(t, den - t), den)

    def ball_center(self, ball: "IdealBall") -> Fraction:
        c = Fraction(ball.center)
        if not 0 <= c < 1:
            raise ValueError("circle center must lie in [0,1)")
        return c

    def ball_at(self, a: int, b: int) -> "IdealBall":
        return IdealBall(self, circle_point(a), pos_rational(b))

    def cover(self) -> list:
        return [IdealBall(self, Fraction(0), Fraction(1, 3)),
                IdealBall(self, Fraction(1, 2), Fraction(1, 3))]

    def member(self, ball: "IdealBall", x, m: int) -> bool:
        """Does x's enclosure [lo, lo + w] at precision m lie in the open
        arc (c - r, c + r) mod 1?  A radius above 1/2 covers the circle;
        else t = lo - (c - r) mod 1 must clear both ends of the arc."""
        r, box = ball.radius, x.enclosure(m)
        t = (box.lo - ball.center + r) % 1
        return 2 * r > 1 or (0 < t and t + box.width < 2 * r)

    def inside(self, inner: "IdealBall", outer: "IdealBall",
               strict: bool = False) -> bool:
        """Closure of `inner` inside the open (strict) or the closed
        `outer` ball."""
        gap = outer.radius - self._metric(inner.center, outer.center) \
            - inner.radius
        return gap > 0 if strict else gap >= 0

    def depth(self, ball: "IdealBall") -> int:
        r = ball.radius
        return max(0, (r.denominator // r.numerator).bit_length() - 1)

    def refinements(self, cur: "IdealBall", depth: int):
        two = 1 << depth
        lo, hi = ball_arc(cur)
        a0 = ceil(lo * two)
        a1 = min(floor(hi * two) - 1, a0 + two - 1)
        r = Fraction(1, 2 * two)
        for a in range(a0, a1 + 1):
            yield IdealBall._of(self, Fraction((2 * a + 1) % (2 * two),
                                               2 * two), r)

    def transport(self, src: list, snk: list) -> dict:
        """Optimal coupling of two atom lists [(point, integer mass)] of
        equal total, as {(i, j): integer flow}.

        Cut at 0, F(x) = src[0, x] - snk[0, x] is a step function and W1 is
        the minimum over alpha of the integral of |F - alpha|, attained at a
        weighted median of its step values (the lowest one on a tie).  The
        plan is the monotone rearrangement: each atom gets its quantile
        interval in circle order, the snk ones turned by alpha, and
        flow(i, j) is their overlap (Rabin, Delon & Gousseau, JMIV 2011).
        A point n/d sits at the integer position n (L // d) mod L over L,
        the lcm of the point denominators, so the sort, the step lengths,
        the median search and the cuts are integer work."""
        L = lcm(*(x.denominator for atoms in (src, snk) for x, _ in atoms))
        pts = sorted((x.numerator * (L // x.denominator) % L, s, k, w)
                     for s, atoms in enumerate((src, snk))
                     for k, (x, w) in enumerate(atoms))
        xs = [x for x, *_ in pts]
        steps, f = [], 0
        for (x, s, _, w), nxt in zip(pts, xs[1:] + [xs[0] + L]):
            f += -w if s else w
            steps.append((f, nxt - x))
        acc = 0
        for alpha, length in sorted(steps):
            acc += length
            if 2 * acc >= L:
                break
        total = sum(w for _, w in src)
        starts, cuts = [0, alpha], []
        for _, s, k, w in pts:
            cuts.append((starts[s] % total, s, k))
            starts[s] += w
        cuts.sort()
        # the turned snk interval that covers 0 starts last
        cur = [None, next(k for _, s, k in reversed(cuts) if s)]
        flows, prev = Counter(), 0
        for c, s, k in cuts + [(total, 0, None)]:
            if c > prev:
                flows[tuple(cur)] += c - prev
                prev = c
            cur[s] = k
        return flows


class CantorSpace(Space):
    """Binary sequences with the metric 2^-(first differing index); ideal
    points are the finite words, ideal balls are cylinders."""

    name = "cantor"
    # below the diameter, so no generator degenerates to a constant
    bump_cap = Fraction(1, 4)
    ideal_point = staticmethod(cantor_word)
    _metric = staticmethod(cantor_dist)
    # words are their own canonical and JSON form
    point_to_json = staticmethod(lambda w: w)
    point_key = staticmethod(str)

    @staticmethod
    def point(w) -> str:
        if not isinstance(w, str) or w.strip("01"):
            raise ValueError(f"not a binary word: {w!r}")
        return w

    point_from_json = point

    def ball_center(self, ball: "IdealBall") -> str:
        if ball.cylinder_depth is None:
            raise ValueError("cantor radius must be 3*2^-(k+1)")
        return str(ball.center).rstrip("0")

    def ball_at(self, a: int, b: int) -> "IdealBall":
        return self.cylinder_ball(cantor_word(a), b)

    def cylinder_ball(self, word: str, depth: Optional[int] = None):
        """The canonical ball of the cylinder fixing `word`, zero-padded to
        `depth` symbols (default: the length of the word)."""
        k = len(word) if depth is None else depth
        return IdealBall._of(self, word.rstrip("0"), Fraction(3, 1 << (k + 1)))

    def cover(self) -> list:
        return [self.cylinder_ball("")]

    def member(self, ball: "IdealBall", x, m: int) -> bool:
        return x.prefix(ball.cylinder_depth) == ball.cylinder_prefix

    def inside(self, inner: "IdealBall", outer: "IdealBall",
               strict: bool = False) -> bool:
        # cylinders are clopen: strict and closed nesting agree
        ko = outer.cylinder_depth
        return inner.cylinder_depth >= ko \
            and inner.cylinder_prefix[:ko] == outer.cylinder_prefix

    def depth(self, ball: "IdealBall") -> int:
        return ball.cylinder_depth

    def refinements(self, cur: "IdealBall", depth: int):
        w = cur.cylinder_prefix
        free = depth - len(w)
        for s in range(1 << free) if free >= 0 else ():
            yield self.cylinder_ball(w + (format(s, f"0{free}b") if free else ""))

    def transport(self, src: list, snk: list) -> dict:
        """Optimal coupling of two atom lists [(word, integer mass)] of
        equal total, as {(i, j): integer flow}.

        The metric is an ultrametric, so greedy matching inside the deepest
        common cylinder first is optimal (the tree earth mover's distance;
        Evans & Matsen, JRSS-B 2012): settle the trie of the zero-padded
        words bottom-up, pair the src and snk remainders of each node in
        word order, and pass what is left up to the parent.  Only the nodes
        where the words branch can pair anything, so the padded words are
        sorted once as integers and walked with a stack of those nodes:
        sorted neighbours u, v branch at depth depth - (u ^ v).bit_length().
        A node is settled each time it is popped to take in the remainders
        of its next child; FIFO pairing in stages pairs the same units as
        in one go.  Words equal after padding ("1", "10") share a leaf."""
        depth = max(len(w) for w, _ in src + snk)
        leaves = {}
        for s, atoms in enumerate((src, snk)):
            for k, (w, m) in enumerate(atoms):
                leaves.setdefault(int(w or "0", 2) << (depth - len(w)),
                                  (deque(), deque()))[s].append([k, m])
        flows = {}

        def settle(a, b):
            while a and b:
                t = min(a[0][1], b[0][1])
                flows[a[0][0], b[0][0]] = t
                for r in (a, b):
                    r[0][1] -= t
                    if not r[0][1]:
                        r.popleft()
            return a, b

        keys = sorted(leaves)
        stack = []  # (depth, src rest, snk rest) of open nodes, deepest last
        for u, v in zip(keys, keys[1:] + [None]):
            a, b = settle(*leaves[u])
            h = -1 if v is None else depth - (u ^ v).bit_length()
            while stack and stack[-1][0] >= h:
                _, pa, pb = stack.pop()
                pa.extend(a)
                pb.extend(b)
                a, b = settle(pa, pb)
            stack.append((h, a, b))
        return flows

    def plan_cost(self, p1, p2, flows, lw: int) -> Fraction:
        """The cost from branch depths: on the words zero-padded to the
        longest one's length `depth` and read as integers U and V, a flow
        a costs a << (U ^ V).bit_length() over 2^depth lw, 0 when U = V."""
        depth = max(len(w) for ws in (p1, p2) for w in ws)
        u, v = ([int(w or "0", 2) << (depth - len(w)) for w in ws]
                for ws in (p1, p2))
        return Fraction(sum([(x := u[i] ^ v[j]) and a << x.bit_length()
                             for (i, j), a in flows]), lw << depth)


CIRCLE = CircleSpace()
CANTOR = CantorSpace()
_BY_NAME = {s.name: s for s in (CIRCLE, CANTOR)}


def space_named(name) -> Space:
    """The built-in space with this JSON name; ValueError for any other."""
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown space {name!r} (expected circle | cantor)"
                         ) from None


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
        object.__setattr__(self, "center", self.space.ball_center(self))

    @staticmethod
    def _of(space: Space, center, radius: Fraction) -> "IdealBall":
        """Wrap a canonical center and a Fraction radius > 0, unchecked."""
        b = object.__new__(IdealBall)
        b.__dict__.update(space=space, center=center, radius=radius)
        return b

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

    @staticmethod
    def from_index(space: Space, n: int) -> "IdealBall":
        return space.ball_at(*unpair(n))

    def to_json(self) -> dict:
        return {"space": self.space.name,
                "center": self.space.point_to_json(self.center),
                "radius": fmt_rat(self.radius)}

    @staticmethod
    def from_json(d: dict) -> "IdealBall":
        space = space_named(d["space"])
        return IdealBall(space, space.point_from_json(d["center"]),
                         parse_rat(d["radius"]))


def ball_arc(ball: IdealBall) -> tuple[Fraction, Fraction]:
    """Circle ball as an interval (c-r, c+r) on the real line (may extend
    beyond [0,1); callers reduce mod 1).  Radius >= 1/2 covers everything."""
    return ball.center - ball.radius, ball.center + ball.radius


# ---------------------------------------------------------------------------
# Points


class CirclePoint:
    """A point of the circle as a memoized approximation oracle: `oracle(m)`
    returns a rational within 2^-m of the point (on the real line; readers
    reduce mod 1), so enclosures are reproducible and each costs one call."""

    def __init__(self, oracle: Callable[[int], Fraction]):
        self._oracle = oracle
        self._memo: dict[int, Interval] = {}

    @staticmethod
    def from_rational(q) -> "CirclePoint":
        q = Fraction(q) % 1
        return CirclePoint(lambda m: q)

    def enclosure(self, m: int) -> Interval:
        if m < 0:
            raise ValueError("precision must be >= 0")
        if m not in self._memo:
            a, e = Fraction(self._oracle(m)), pow2(m)
            self._memo[m] = Interval(a - e, a + e)
        return self._memo[m]


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


def ball_member(space: Space, ball: IdealBall, x, m: int) -> bool:
    """Is x certified inside the open ball at precision m?  For a
    computable point this is semi-decidable: False means "not certified",
    not "outside"."""
    return space.member(ball, x, m)

