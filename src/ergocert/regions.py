"""Exact region algebra: finite unions of circle arcs and of cylinders.

These are the normal forms behind the exact measure oracles: every
finite union of ideal balls in the built-in instances reduces to one of
them, so measures, intersections and complements are exact rational (or
Q[sqrt2]) computations.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from .arith import mod1
from .spaces import ball_arc


class ArcSet:
    """Finite union of open arcs on the circle, kept sorted and disjoint.

    Arcs are stored as (a, b) with 0 <= a < b <= 1; an input arc crossing 0
    is split.  Endpoints may be Fraction or Quad.  Measure-theoretic
    operations ignore endpoints (all sets here are finite unions of arcs up
    to finitely many points)."""

    def __init__(self, arcs: Iterable[tuple] = ()):
        cleaned = []
        for a, b in arcs:
            if b <= a:
                continue
            cleaned.append((a, b))
        cleaned.sort(key=lambda ab: (ab[0], ab[1]))
        merged: list[tuple] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                la, lb = merged[-1]
                merged[-1] = (la, max(lb, b))
            else:
                merged.append((a, b))
        self.arcs = merged

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
                return ArcSet.full()
            a0 = mod1(a)
            b0 = a0 + (b - a)
            if b0 <= 1:
                out.append((a0, b0))
            else:
                out.append((a0, Fraction(1)))
                out.append((Fraction(0), b0 - 1))
        return ArcSet(out)

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet([(Fraction(0), Fraction(1))])

    def measure(self):
        tot = Fraction(0)
        for a, b in self.arcs:
            tot = tot + (b - a)
        return tot

    def intersect(self, other: "ArcSet") -> "ArcSet":
        out = []
        i = j = 0
        a1, a2 = self.arcs, other.arcs
        while i < len(a1) and j < len(a2):
            lo = max(a1[i][0], a2[j][0])
            hi = min(a1[i][1], a2[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a1[i][1] <= a2[j][1]:
                i += 1
            else:
                j += 1
        return ArcSet(out)

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet(self.arcs + other.arcs)

    def complement(self) -> "ArcSet":
        out = []
        prev = Fraction(0)
        for a, b in self.arcs:
            if a > prev:
                out.append((prev, a))
            prev = b
        if prev < 1:
            out.append((prev, Fraction(1)))
        return ArcSet(out)

    def components(self) -> list[tuple]:
        """Arcs with the wrap across 0 glued (returned arc may end > 1)."""
        arcs = list(self.arcs)
        if len(arcs) >= 2 and arcs[0][0] == 0 and arcs[-1][1] == 1:
            first = arcs.pop(0)
            last = arcs.pop()
            arcs.append((last[0], first[1] + 1))
        return arcs

    def contains_ball(self, ball) -> bool:
        """Does the set contain the closed arc of a circle ball?"""
        a, b = ball_arc(ball)
        for lo, hi in self.components():
            for shift in (0, 1):
                if lo <= a + shift and b + shift <= hi:
                    return True
        return self.measure() == 1

    def to_rational_inner(self, grain: Fraction) -> tuple["ArcSet", Fraction]:
        """Shrink each arc to rational endpoints on the grid of step `grain`.

        Returns (inner set, exact bound on the measure lost)."""
        out = []
        lost = Fraction(0)
        for a, b in self.arcs:
            a2 = _ceil_to_grid(a, grain)
            b2 = _floor_to_grid(b, grain)
            if a2 < b2:
                out.append((a2, b2))
                lost += (b - a) - (b2 - a2)
            else:
                lost += b - a
        return ArcSet(out), lost

    def __repr__(self):
        return f"ArcSet({self.arcs!r})"


def _ceil_to_grid(x, grain: Fraction) -> Fraction:
    g = _floor_to_grid(x, grain)
    return g + grain if g < x else g


def _floor_to_grid(x, grain: Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return grain * (x / grain).floor()


# ---------------------------------------------------------------------------
# Cylinder sets


class CylSet:
    """Finite union of cylinders of Cantor space, in canonical form.

    `prefixes` holds the maximal cylinders inside the union, sorted by
    (length, word): no kept word extends another and no two kept words are
    siblings P+"0", P+"1".  The form is built in one pass over the words in
    lexicographic order, where a word's extensions follow it directly: a
    stack skips every word inside its top cylinder, and each push folds
    sibling pairs on top into their parent for as long as they occur."""

    def __init__(self, prefixes: Iterable[str] = ()):
        kept: list[str] = []
        for w in sorted(prefixes):
            if kept and w.startswith(kept[-1]):
                continue
            kept.append(w)
            while len(kept) > 1 and kept[-1].endswith("1") \
                    and kept[-2] == kept[-1][:-1] + "0":
                kept[-2:] = [kept[-1][:-1]]
        self.prefixes = sorted(kept, key=lambda w: (len(w), w))

    def measure(self, p: Fraction) -> Fraction:
        """Bernoulli(p) mass, one `cylinder_mass` per (length, count of 1s)
        class of the kept words."""
        p = Fraction(p)
        classes = Counter((len(w), w.count("1")) for w in self.prefixes)
        return sum((count * cylinder_mass("1" * ones + "0" * (size - ones), p)
                    for (size, ones), count in classes.items()), Fraction(0))

    def intersect(self, other: "CylSet") -> "CylSet":
        out = []
        for u in self.prefixes:
            for v in other.prefixes:
                if u.startswith(v):
                    out.append(u)
                elif v.startswith(u):
                    out.append(v)
        return CylSet(out)

    def union(self, other: "CylSet") -> "CylSet":
        return CylSet(self.prefixes + other.prefixes)

    def complement(self) -> "CylSet":
        result = [""]
        for w in self.prefixes:
            new_result = []
            for v in result:
                new_result.extend(_cyl_minus(v, w))
            result = new_result
        return CylSet(result)

    def contains_word_prefix(self, word: str) -> bool:
        return any(word.startswith(w) for w in self.prefixes)

    def contains_ball(self, ball) -> bool:
        return self.contains_word_prefix(ball.cylinder_prefix)

    def __repr__(self):
        return f"CylSet({self.prefixes!r})"


def cylinder_mass(w: str, p: Fraction) -> Fraction:
    """Bernoulli(p) mass of the cylinder fixing prefix w (p = prob of 1)."""
    m = Fraction(1)
    for c in w:
        m *= p if c == "1" else (1 - p)
    return m


def _cyl_minus(v: str, w: str) -> list[str]:
    """Cylinder v minus cylinder w, as a prefix list."""
    if v.startswith(w):
        return []
    if not w.startswith(v):
        return [v]
    # w strictly extends v: peel off siblings along the path
    out = []
    cur = v
    for c in w[len(v):]:
        out.append(cur + ("1" if c == "0" else "0"))
        cur += c
    return out
