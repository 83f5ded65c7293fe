"""Exact region algebra: finite unions of circle arcs and of cylinders.

These are the normal forms behind the exact measure oracles: every
finite union of ideal balls in the built-in instances reduces to one of
them, so measures and intersections are exact rational computations
(a rotation's sublevel sets weigh in Q[sqrt2] until they are rounded to
rational ends).  Both forms are integer runs, sorted, disjoint and apart:
an arc set's ends are integers over one denominator (with a second
integer column for the sqrt2 parts of Q[sqrt2] ends), a cylinder set's
runs are same-length words read as binary numbers.  They share one merge
(`_merged`) and one intersection walk (`_overlaps`), and each numbers its
own ideal balls, which synthesis records as witnesses, and finds the one
holding a ball (`holder`), in integers.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, Optional

from .arith import Quad, floor_root2, root2_scale
from .errors import UnsupportedPairError
from .spaces import CANTOR, CIRCLE, IdealBall, ball_arc


class ArcSet:
    """Finite union of open arcs on the circle, kept sorted and disjoint.

    One integer form, which the constructor takes as it is: arc k is
    (spans[k][0]/den, spans[k][1]/den), with 0 <= a < b <= 1, the arcs
    sorted, disjoint and apart (no arc starts where the one before it
    ends), and `roots` is None when every end is rational.  A set with
    Q[sqrt2] ends (a sublevel set of a rotation sum) keeps in roots[k] the
    sqrt2 parts of arc k's ends over den, or None for a rational end; an
    end in Q[sqrt2] has an int there, 0 included.  `from_raw` reads
    rational arcs of the real line, mod 1, and `union` joins sets.
    Measure-theoretic operations ignore endpoints (all sets here are
    finite unions of arcs up to finitely many points) and run on the
    integers: `measure`, `union` and `to_rational_inner` on any form;
    `intersect`, `holder` and `contains_ball` on rational ends only, and a
    Q[sqrt2] end raises UnsupportedPairError (the program meets and
    searches a rotation's sets after rounding them to rational ends).  Its
    ideal balls are the `parts`."""

    def __init__(self, den: int, spans: list, roots=None):
        self.den, self.spans, self.roots = den, spans, roots

    @staticmethod
    def from_raw(arcs: Iterable[tuple]) -> "ArcSet":
        """Build from rational arcs given on the real line (reduced mod 1,
        split at 0), in integers over the lcm of their denominators."""
        arcs = [(a, b) for a, b in arcs if a < b]
        den = math.lcm(*[x.denominator for arc in arcs for x in arc])
        out = []
        for a, b in arcs:
            a, b = a.numerator * (den // a.denominator), \
                b.numerator * (den // b.denominator)
            if b - a >= den:
                return ArcSet(1, [(0, 1)])
            a0 = a % den
            b0 = a0 + (b - a)
            if b0 <= den:
                out.append((a0, b0))
            else:
                out += [(a0, den), (0, b0 - den)]
        return ArcSet(den, _merged(sorted(out)))

    @staticmethod
    def union(sets: list) -> "ArcSet":
        """The union of arc sets, joined over the lcm of their
        denominators (`_joined`)."""
        den = math.lcm(*[s.den for s in sets])
        ends = []
        for s in sets:
            k = den // s.den
            for span, root in zip(s.spans, s.roots or repeat((None, None))):
                ends += [(x * k, r if r is None else r * k)
                         for x, r in zip(span, root)]
        return ArcSet(den, *_joined(ends))

    def measure(self):
        """The total length, the sum of b - a over the arcs, in integers
        over den: a Fraction, or a Quad when an end is one (so a Quad even
        where the sqrt2 parts cancel)."""
        den, spans, roots = self.den, self.spans, self.roots
        length = Fraction(sum(map(itemgetter(1), spans))
                          - sum(map(itemgetter(0), spans)), den)
        if roots is None:
            return length
        return Quad(length, Fraction(sum(b or 0 for _, b in roots)
                                     - sum(a or 0 for a, _ in roots), den))

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """Both sides over the lcm of their denominators, met by one walk
        (`_overlaps`) on the integers.  A Q[sqrt2] end on either side
        raises UnsupportedPairError."""
        if self.roots is not None or other.roots is not None:
            raise UnsupportedPairError("intersection needs rational arcs")
        den = math.lcm(self.den, other.den)
        return ArcSet(den, _overlaps(_spans_over(self, den),
                                     _spans_over(other, den)))

    @cached_property
    def parts(self) -> tuple[list, list]:
        """(components, first): the arcs as (a, b) over den with the wrap
        across 0 glued (the glued one ends past den); every one splits
        into its fewest equal parts shorter than 1/2, floor(2 width) + 1,
        and the i-th holds the parts first[i] to first[i + 1] - 1 in
        circle order.  The split needs rational endpoints: a Q[sqrt2] end
        raises UnsupportedPairError."""
        if self.roots is not None:
            raise UnsupportedPairError("ball conversion needs rational arcs")
        den, comps = self.den, list(self.spans)
        if len(comps) >= 2 and comps[0][0] == 0 and comps[-1][1] == den:
            first, last = comps.pop(0), comps.pop()
            comps.append((last[0], first[1] + den))
        return comps, list(accumulate((2 * (b - a) // den + 1
                                       for a, b in comps), initial=0))

    def holder(self, cand: IdealBall) -> Optional[tuple]:
        """(position, ball) of the part that holds the circle ball `cand`
        strictly, or None: only the part over cand's centre can, and the
        components before it add their parts to the position.  Found and
        checked in integers over D, the lcm of den and of the denominators
        of cand's centre and radius."""
        comps, first = self.parts
        c, r, den = cand.center, cand.radius, self.den
        for s in (0, 1):
            # the last component starting at or before y = c + s starts at
            # or before floor(y den), and y lies inside it iff that floor
            # lies before its end
            y = (c.numerator + s * c.denominator) * den // c.denominator
            i = bisect_right(comps, y, key=itemgetter(0)) - 1
            if i >= 0 and y < comps[i][1]:
                break
        else:
            return None
        m = first[i + 1] - first[i]
        D = math.lcm(den, c.denominator, r.denominator)
        A, B = (x * (D // den) for x in comps[i])
        C, R = (x.numerator * (D // x.denominator) for x in (c, r))
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
        """Does the set contain the closed arc of a circle ball?  Each
        component of `parts` is compared with the ball's ends in integers
        over den q, q the lcm of their denominators.  A Q[sqrt2] end raises
        UnsupportedPairError, as in `parts`."""
        a, b = ball_arc(ball)
        q = math.lcm(a.denominator, b.denominator)
        A, B = (x.numerator * (q // x.denominator) * self.den for x in (a, b))
        for lo, hi in self.parts[0]:
            for shift in (0, self.den * q):
                if lo * q <= A + shift and B + shift <= hi * q:
                    return True
        return self.measure() == 1

    def to_rational_inner(self, grain: Fraction) -> "ArcSet":
        """Shrink each arc to rational endpoints on the grid of step
        `grain` (a Fraction end stays, a Quad one moves inward, start up
        and end down): every arc loses less than 2 grain of its length,
        and one that short may drop out.  In integers over the lcm of den
        and grain's denominator, each Q[sqrt2] floor by `floor_root2`."""
        if self.roots is None:
            return self
        gn, gd = grain.numerator, grain.denominator
        den = self.den
        D = math.lcm(den, gd)
        up, step, fine = D // den, D // gd * gn, den * gn

        def inward(x, r, up_to):
            if r is None:
                return x * up
            # floor((x + r sqrt2)/den / grain), one more for a start off
            # the grid
            k, off = divmod(x * gd + floor_root2(r * gd), fine)
            return (k + 1 if up_to and (r or off) else k) * step

        out = []
        for (a, b), (ra, rb) in zip(self.spans, self.roots):
            a2, b2 = inward(a, ra, True), inward(b, rb, False)
            if a2 < b2:
                out.append((a2, b2))
        # rounding inward keeps the arcs sorted, disjoint and apart
        return ArcSet(D, out)


def _spans_over(s: ArcSet, den: int) -> list:
    """s's spans over den, a multiple of s.den."""
    k = den // s.den
    return s.spans if k == 1 else [(a * k, b * k) for a, b in s.spans]


def _joined(ends: list) -> tuple:
    """(spans, roots) of the union of arcs given by their ends (x, r),
    two per arc, each (x + r sqrt2)/den over one den (r None on a Fraction
    end): joined by `_merged` when every end is rational.  Q[sqrt2] ends
    sort and join the same way by their exact keys floor(m (x + r sqrt2)),
    m from `root2_scale`.  A joined arc keeps the end that a merge of the
    Fraction and Quad numbers keeps, type included."""
    if all(r is None for _, r in ends):
        xs = [x for x, _ in ends]
        return _merged(sorted(zip(xs[::2], xs[1::2]))), None
    m = root2_scale(max(abs(x) for x, _ in ends),
                    max(abs(r or 0) for _, r in ends))
    keys = [m * x + floor_root2(m * r) if r else m * x for x, r in ends]
    out = []  # [start key, end key, start index, end index]
    for i in sorted(range(0, len(ends), 2),
                    key=lambda i: (keys[i], keys[i + 1])):
        if out and keys[i] <= out[-1][1]:
            if keys[i + 1] > out[-1][1]:
                out[-1][1], out[-1][3] = keys[i + 1], i + 1
        else:
            out.append([keys[i], keys[i + 1], i, i + 1])
    roots = [(ends[i][1], ends[j][1]) for _, _, i, j in out]
    return [(ends[i][0], ends[j][0]) for _, _, i, j in out], \
        roots if any(r != (None, None) for r in roots) else None


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
    `holder` searches."""

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
