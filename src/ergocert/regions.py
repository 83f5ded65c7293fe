"""Exact region algebra: finite unions of circle arcs and of cylinders.

These are the normal forms behind the exact measure oracles: every
finite union of ideal balls in the built-in instances reduces to one of
them, so measures and intersections are exact rational (or Q[sqrt2])
computations.  Both forms are sorted lists of disjoint intervals, arcs
of the circle or runs of same-length words read as binary numbers, and
share one merge (`_merged`, run by each constructor and nowhere else) and
one intersection walk.  Each form numbers its own ideal balls, which
synthesis records as witnesses, and finds the one holding a ball (`holder`).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Optional

from .arith import Quad, mod1
from .errors import UnsupportedPairError
from .spaces import CANTOR, CIRCLE, IdealBall, ball_arc


class ArcSet:
    """Finite union of open arcs on the circle, kept sorted and disjoint.

    Arcs are stored as (a, b) with 0 <= a < b <= 1 (`from_raw` splits an
    arc crossing 0).  Endpoints may be Fraction or Quad.  The constructor
    drops empty arcs, sorts the rest and joins those that overlap or
    touch, so a union of arc sets is `ArcSet` of all their arcs;
    `_canonical` wraps arcs already in that form.  Measure-theoretic
    operations ignore endpoints (all sets here are finite unions of arcs
    up to finitely many points); `measure` sums the ends in integers and
    builds one number.  Its ideal balls are the `parts`."""

    def __init__(self, arcs: Iterable[tuple] = ()):
        self.arcs = _merged(sorted((a, b) for a, b in arcs if a < b))

    @staticmethod
    def _canonical(arcs: list) -> "ArcSet":
        """Wrap arcs that are already sorted, disjoint and apart (no arc
        starts where the one before it ends), unchecked."""
        s = object.__new__(ArcSet)
        s.arcs = arcs
        return s

    @staticmethod
    def from_raw(arcs: Iterable[tuple]) -> "ArcSet":
        """Build from arcs given on the real line (reduced mod 1, split at 0)."""
        out = []
        for a, b in arcs:
            if b <= a:
                continue
            if b - a >= 1:
                return ArcSet([(Fraction(0), Fraction(1))])
            a0 = mod1(a)
            b0 = a0 + (b - a)
            if b0 <= 1:
                out.append((a0, b0))
            else:
                out.append((a0, Fraction(1)))
                out.append((Fraction(0), b0 - 1))
        return ArcSet(out)

    def measure(self):
        """The total length, the sum of b - a over the arcs, in integers
        (`_length`): a Fraction, or a Quad when an end is one, whose
        rational and sqrt2 parts are each summed the same way (so a Quad
        even where the sqrt2 parts cancel)."""
        ends = [x for arc in self.arcs for x in arc]
        if not any(type(x) is Quad for x in ends):
            return _length(ends)
        return Quad(_length([x.a if type(x) is Quad else x for x in ends]),
                    _length([x.b if type(x) is Quad else 0 for x in ends]))

    def intersect(self, other: "ArcSet") -> "ArcSet":
        return ArcSet._canonical(_overlaps(self.arcs, other.arcs))

    def components(self) -> list[tuple]:
        """Arcs with the wrap across 0 glued (returned arc may end > 1)."""
        arcs = list(self.arcs)
        if len(arcs) >= 2 and arcs[0][0] == 0 and arcs[-1][1] == 1:
            first = arcs.pop(0)
            last = arcs.pop()
            arcs.append((last[0], first[1] + 1))
        return arcs

    @cached_property
    def parts(self) -> tuple[list, list]:
        """(components, first): every component splits into its fewest
        equal parts shorter than 1/2, floor(2 width) + 1, and the i-th
        holds the parts first[i] to first[i + 1] - 1 in circle order.  The
        split needs rational endpoints: a Q[sqrt2] end raises
        UnsupportedPairError."""
        comps = self.components()
        if any(isinstance(x, Quad) for arc in comps for x in arc):
            raise UnsupportedPairError("ball conversion needs rational arcs")
        # floor(2 (b - a)) + 1 in integers, a = an/ad and b = bn/bd
        return comps, list(accumulate(
            (2 * (b.numerator * a.denominator - a.numerator * b.denominator)
             // (a.denominator * b.denominator) + 1 for a, b in comps),
            initial=0))

    def holder(self, cand: IdealBall) -> Optional[tuple]:
        """(position, ball) of the part that holds the circle ball `cand`
        strictly, or None: only the part over cand's centre can, and the
        components before it add their parts to the position.  Found and
        checked in integers over D, the lcm of the denominators of the
        component's ends and of cand's centre and radius."""
        comps, first = self.parts
        c, r = cand.center, cand.radius
        for s in (0, 1):
            y = c + s
            i = bisect_right(comps, y, key=itemgetter(0)) - 1
            if i >= 0 and y < comps[i][1]:
                break
        else:
            return None
        (a, b), m = comps[i], first[i + 1] - first[i]
        D = math.lcm(a.denominator, b.denominator, c.denominator,
                     r.denominator)
        A, B, C, R = (x.numerator * (D // x.denominator) for x in (a, b, c, r))
        # the m parts have radius (B - A)/E over E = 2 m D: the k-th holds
        # the centre, and is centred at Z/E mod 1, at distance t/E from it
        E = 2 * m * D
        k = m * (C + s * D - A) // (B - A)
        Z = (2 * m * A + (B - A) * (2 * k + 1)) % E
        t = (2 * m * C - Z) % E
        if B - A - min(t, E - t) - 2 * m * R <= 0:
            return None
        return first[i] + k, IdealBall._of(CIRCLE, Fraction(Z, E),
                                           Fraction(B - A, E))

    def contains_ball(self, ball) -> bool:
        """Does the set contain the closed arc of a circle ball?"""
        a, b = ball_arc(ball)
        for lo, hi in self.components():
            for shift in (0, 1):
                if lo <= a + shift and b + shift <= hi:
                    return True
        return self.measure() == 1

    def to_rational_inner(self, grain: Fraction) -> "ArcSet":
        """Shrink each arc to rational endpoints on the grid of step
        `grain` (a rational endpoint stays): every arc loses less than
        2 grain of its length, and one that short may drop out."""
        out = []
        for a, b in self.arcs:
            a2 = _ceil_to_grid(a, grain)
            b2 = _floor_to_grid(b, grain)
            if a2 < b2:
                out.append((a2, b2))
        # rounding inward keeps the arcs sorted, disjoint and apart
        return ArcSet._canonical(out)


def _length(ends: list) -> Fraction:
    """The sum of ends[2i + 1] - ends[2i] over rational ends, in integers:
    the numerators are summed per denominator, and one Fraction is built
    over the lcm of the denominators."""
    per: dict = {}
    for sign, xs in ((1, ends[1::2]), (-1, ends[::2])):
        for x in xs:
            per[x.denominator] = per.get(x.denominator, 0) + sign * x.numerator
    den = math.lcm(*per)
    return Fraction(sum(s * (den // d) for d, s in per.items()), den)


def _ceil_to_grid(x, grain: Fraction) -> Fraction:
    g = _floor_to_grid(x, grain)
    return g + grain if g < x else g


def _floor_to_grid(x, grain: Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return grain * (x / grain).floor()


def _merged(intervals: Iterable[tuple]) -> list[tuple]:
    """Join intervals (a, b), sorted by a, that overlap or touch: the
    result is sorted, disjoint and apart."""
    out: list[tuple] = []
    for a, b in intervals:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _overlaps(xs: list[tuple], ys: list[tuple]) -> list[tuple]:
    """Intersection of two sorted, disjoint and apart interval lists: each
    interval (a, b) of xs finds by bisection the first interval of ys that
    ends past a, and meets it and those after it that start before b.
    Two pieces of the result lie in different intervals of at least one
    side, so the result is sorted, disjoint and apart too."""
    out = []
    for a, b in xs:
        j = bisect_right(ys, a, key=itemgetter(1))
        while j < len(ys) and ys[j][0] < b:
            out.append((max(a, ys[j][0]), min(b, ys[j][1])))
            j += 1
    return out


# ---------------------------------------------------------------------------
# Cylinder sets


class CylSet:
    """Finite union of cylinders of Cantor space, as integer runs.

    A word of length `depth` is read as a binary number, and `runs` holds
    the union's words of that length as sorted, disjoint and apart ranges
    (a, b), a <= word < b (`from_flags` scans them from one byte per word);
    a shorter word w is the run [w 2^k, (w + 1) 2^k), k = depth - len(w).
    The maximal cylinders inside the union are each run split into its
    maximal aligned dyadic blocks (`_blocks`): `measure` weighs them in
    integers, and they are the set's ideal balls, numbered in (length,
    word) order from one list of words per length (`_by_length`), which
    `prefixes` lists and `holder` searches."""

    def __init__(self, words: Iterable[str] = ()):
        words = list(words)
        self.depth = max(map(len, words), default=0)
        self.runs = _merged(sorted(_run(w, self.depth) for w in words))

    @staticmethod
    def from_flags(depth: int, flags: bytes) -> "CylSet":
        """The union of the words w of length `depth` with flags[w] == 1:
        its runs are the maximal runs of 1 bytes, found in one scan."""
        return CylSet._canonical(depth, [m.span() for m in
                                         re.finditer(rb"\x01+", flags)])

    @staticmethod
    def _canonical(depth: int, runs: list) -> "CylSet":
        """Wrap runs that are already sorted, disjoint and apart."""
        s = object.__new__(CylSet)
        s.depth, s.runs = depth, runs
        return s

    def _blocks(self):
        """(length, word) of the maximal cylinders: from the start of a
        run, the largest aligned block that fits, until the run ends."""
        for a, b in self.runs:
            while a < b:
                k = min((a & -a).bit_length() - 1 if a else self.depth,
                        (b - a).bit_length() - 1)
                yield self.depth - k, a >> k
                a += 1 << k

    @cached_property
    def _by_length(self) -> tuple[list, list]:
        """(words, first): words[n] the maximal cylinders of length n in
        word order (blocks come in run order); words[n][0] is at first[n]."""
        words = [[] for _ in range(self.depth + 1)]
        for n, v in self._blocks():
            words[n].append(v)
        return words, list(accumulate(map(len, words), initial=0))

    @property
    def prefixes(self) -> list[str]:
        return [format(v, f"0{n}b") if n else ""
                for n, vs in enumerate(self._by_length[0]) for v in vs]

    def measure(self, p: Fraction) -> Fraction:
        """Bernoulli(p) mass, one integer sum over b^depth for p = a/b: per
        (n, ones) class of the maximal cylinders, each weighs
        a^ones (b - a)^(n - ones) b^(depth - n)."""
        a, b = Fraction(p).as_integer_ratio()
        d = self.depth
        classes = Counter((n, v.bit_count()) for n, v in self._blocks())
        return Fraction(sum(count * a ** ones * (b - a) ** (n - ones)
                            * b ** (d - n)
                            for (n, ones), count in classes.items()), b ** d)

    def intersect(self, other: "CylSet") -> "CylSet":
        # both sides as runs over the words of the deeper side
        d = max(self.depth, other.depth)
        a, b = ([(x << d - s.depth, y << d - s.depth) for x, y in s.runs]
                for s in (self, other))
        return CylSet._canonical(d, _overlaps(a, b))

    def holder(self, cand: IdealBall) -> Optional[tuple]:
        """(position, ball) of the maximal cylinder that holds the cylinder
        ball `cand`, or None if the union does not contain it: the one
        prefix of cand's word that is a maximal cylinder.  The word's first
        m symbols, read once as v, give its prefix of length n, v >> m - n."""
        word = cand.cylinder_prefix
        m = min(len(word), self.depth)
        v = int(word[:m] or "0", 2)
        words, first = self._by_length
        for n, vs in enumerate(words[:m + 1]):
            u = v >> m - n
            i = bisect_left(vs, u)
            if i < len(vs) and vs[i] == u:
                return first[n] + i, CANTOR.cylinder_ball(word[:n])
        return None


def _run(word: str, depth: int) -> tuple:
    """The words of length `depth` that extend `word`, as a run."""
    k = depth - len(word)
    v = int(word, 2) if word else 0
    return v << k, (v + 1) << k


def cylinder_mass(w: str, p: Fraction) -> Fraction:
    """Bernoulli(p) mass of the cylinder fixing prefix w (p = prob of 1)."""
    m = Fraction(1)
    for c in w:
        m *= p if c == "1" else (1 - p)
    return m
