"""Computable metric spaces: numberings, metrics, balls."""

import itertools
import random
from fractions import Fraction as F

import pytest

from ergocert.arith import Interval, pow2
from ergocert.spaces import (CANTOR, CIRCLE, CantorPoint, CirclePoint,
                             IdealBall, ball_member, cantor_dist,
                             cantor_word, circle_point,
                             pos_rational, space_named, unpair)

from ball_reference import circle_member


class TestNumberings:
    def test_unpairing_bijective(self):
        # [TRIVIAL] the first s(s+1)/2 indices hit each (a, b) with
        #  a + b < s exactly once
        s = 30
        pairs = [unpair(n) for n in range(s * (s + 1) // 2)]
        assert sorted(pairs) == sorted((a, b) for a in range(s)
                                       for b in range(s - a))

    def test_circle_points_injective_and_covering(self):
        # [DERIVED: first indices follow the denominator-ordered listing,
        #  so the rationals of denominator <= 8 come first]
        pts = [circle_point(i) for i in range(60)]
        assert len(set(pts)) == 60
        assert pts[0] == 0 and F(1, 2) in pts[:3]
        small = {F(p, q) for q in range(1, 9) for p in range(q)}
        assert set(pts[:len(small)]) == small

    def test_cantor_words_injective_no_trailing_zeros(self):
        # [DERIVED: padding-insensitive numbering needs canonical forms]
        ws = [cantor_word(i) for i in range(200)]
        assert len(set(ws)) == 200
        assert all(w == "" or w.endswith("1") for w in ws)
        # the first 2^7 words are the canonical forms of every word of
        # length <= 7
        assert set(ws[:1 << 7]) == {format(v, f"0{n}b").rstrip("0")
                                    for n in range(8) for v in range(1 << n)}

    def test_pos_rational_positive_injective(self):
        # [TRIVIAL]
        qs = [pos_rational(j) for j in range(100)]
        assert len(set(qs)) == 100 and all(q > 0 for q in qs)


class TestMetrics:
    def test_circle_examples(self):
        # [PAPER: arc metric — d(1/10, 9/10) = 1/5]
        assert CIRCLE.dist(F(1, 10), F(9, 10)) == F(1, 5)
        assert CIRCLE.dist(F(1, 4), F(3, 4)) == F(1, 2)

    def test_cantor_examples(self):
        # [PAPER: d = 2^-(first differing coordinate)]
        assert cantor_dist("0", "1") == 1
        assert cantor_dist("01", "001") == F(1, 2)
        assert cantor_dist("1", "10") == 0

    def test_metric_axioms_random(self):
        # [DERIVED: symmetry + triangle inequality on sampled triples]
        rng = random.Random(11)
        for _ in range(2000):
            x, y, z = (F(rng.randint(0, 63), 64) for _ in range(3))
            assert CIRCLE.dist(x, y) == CIRCLE.dist(y, x)
            assert CIRCLE.dist(x, z) <= CIRCLE.dist(x, y) + CIRCLE.dist(y, z)
            assert CIRCLE.dist(x, y) >= 0
            assert (CIRCLE.dist(x, y) == 0) == (x == y)
        for _ in range(2000):
            u, v, w = ("".join(rng.choice("01") for _ in range(6))
                       for _ in range(3))
            assert cantor_dist(u, v) == cantor_dist(v, u)
            assert cantor_dist(u, w) <= max(cantor_dist(u, v),
                                            cantor_dist(v, w))  # ultrametric


class TestBalls:
    def test_cantor_ball_is_cylinder(self):
        # [PAPER: radius 3*2^-(k+1) fixes exactly k coordinates]
        b = IdealBall(CANTOR, "01", F(3, 8))
        assert b.cylinder_depth == 2 and b.cylinder_prefix == "01"
        with pytest.raises(ValueError):
            IdealBall(CANTOR, "01", F(1, 4))
        with pytest.raises(ValueError, match="torus"):
            IdealBall.from_json({"space": "torus", "center": "01",
                                 "radius": "3/8"})

    def test_ball_numbering_injective_and_covering(self):
        # [DERIVED: the n-th ball pairs the a-th point with the b-th radius
        #  for (a, b) = unpair(n), so the first s(s+1)/2 balls are distinct
        #  and hold every such pair with a + b < s]
        s = 12
        ball_at = {
            CIRCLE: lambda a, b: IdealBall(CIRCLE, circle_point(a),
                                           pos_rational(b)),
            CANTOR: lambda a, b: CANTOR.cylinder_ball(cantor_word(a), b)}
        for space in (CIRCLE, CANTOR):
            balls = [IdealBall.from_index(space, n)
                     for n in range(s * (s + 1) // 2)]
            assert len(set(balls)) == len(balls)
            assert set(balls) == {ball_at[space](a, b) for a in range(s)
                                  for b in range(s - a)}
            for b in balls:
                assert IdealBall.from_json(b.to_json()) == b

    def test_membership_circle(self):
        # [TRIVIAL] certified in; out, and not certified at precision m
        b = IdealBall(CIRCLE, F(1, 2), F(1, 4))
        x = CirclePoint.from_rational(F(1, 2))
        assert ball_member(CIRCLE, b, x, 6) is True
        y = CirclePoint.from_rational(F(0))
        assert ball_member(CIRCLE, b, y, 6) is False
        z = CirclePoint.from_rational(F(1, 4))
        assert ball_member(CIRCLE, b, z, 3) is False

    def test_membership_cantor(self):
        # [TRIVIAL]
        b = IdealBall(CANTOR, "10", F(3, 8))
        assert ball_member(CANTOR, b, CantorPoint.from_word("101"), 0) is True
        assert ball_member(CANTOR, b, CantorPoint.from_word("11"), 0) is False


class _Box:
    """A point whose enclosure at every precision is one given interval."""

    def __init__(self, lo, hi):
        self.box = Interval(lo, hi)

    def enclosure(self, m):
        return self.box


def _radius(rng, kind):
    if kind == "half":
        return F(1, 2)
    den = rng.randint(1, 40)
    if kind == "below":
        return F(rng.randint(1, (den - 1) // 2), den) if den > 2 \
            else F(1, 3)
    return F(rng.randint(den // 2 + 1, 2 * den), den)  # above 1/2


def _box(rng, c, r, kind):
    """An enclosure of zero width, of width >= 1, touching an end of the
    arc (c - r, c + r) from inside or outside, or anywhere, shifted by a
    whole turn or two."""
    k = rng.randint(-2, 2)
    w = F(rng.randint(0, 40), rng.randint(1, 40))
    if kind == "point":
        w = F(0)
    elif kind == "wide":
        w = 1 + F(rng.randint(0, 40), rng.randint(1, 40))
    if kind == "touch":
        end = rng.choice((c - r, c + r))
        lo = end if rng.random() < 0.5 else end - w
    else:
        lo = F(rng.randint(-40, 80), rng.randint(1, 40))
    return _Box(lo + k, lo + k + w)


class TestMembershipReference:
    def test_circle_matches_exact_distance(self):
        # [DERIVED: oracle = the exact range of the circle distance to the
        #  centre over the enclosure (tests/ball_reference.py); membership
        #  certified iff its top lies below the radius]
        rng = random.Random(20261019)
        seen = set()
        for _ in range(20000):
            rk = rng.choice(("below", "half", "above"))
            bk = rng.choice(("point", "wide", "touch", "any"))
            c = F(rng.randint(0, 39), 40) if rng.random() < 0.5 \
                else F(rng.randint(0, 6), 7)
            ball = IdealBall(CIRCLE, c, _radius(rng, rk))
            x = _box(rng, c, ball.radius, bk)
            want = circle_member(ball, x.box)
            assert ball_member(CIRCLE, ball, x, 0) is want, (ball, x.box)
            seen.add((rk, bk, want))
        # both answers in every class that has two: a radius above 1/2
        # holds every enclosure; an enclosure of width >= 1 or touching an
        # end of the arc lies in no arc of radius <= 1/2
        two = {(rk, bk, a) for rk in ("below", "half")
               for bk in ("point", "any") for a in (True, False)}
        one = {(rk, bk, False) for rk in ("below", "half")
               for bk in ("wide", "touch")} \
            | {("above", bk, True) for bk in ("point", "wide", "touch", "any")}
        assert seen == two | one


class TestCirclePoint:
    def test_enclosure_is_memoized(self):
        # [DERIVED: the oracle runs once per precision; the enclosure is
        #  the approximation +- 2^-m]
        calls = []

        def oracle(m):
            calls.append(m)
            return F(1, 3)

        x = CirclePoint(oracle)
        for m in (0, 7, 7, 40, 0):
            box = x.enclosure(m)
            assert box.lo == F(1, 3) - pow2(m) and box.hi == F(1, 3) + pow2(m)
        assert calls == [0, 7, 40]
        assert x.enclosure(7) is x.enclosure(7)

    def test_from_rational_reduces_mod_1(self):
        # [TRIVIAL]
        assert CirclePoint.from_rational(F(7, 3)).enclosure(5).mid == F(1, 3)

    def test_negative_precision_refused(self):
        # [TRIVIAL] precision m means radius 2^-m, m >= 0
        with pytest.raises(ValueError, match="precision"):
            CirclePoint.from_rational(F(1, 3)).enclosure(-1)


class TestNesting:
    def test_inside_circle_boundary(self):
        # [DERIVED: closed nesting admits touching closures, strict nesting
        #  does not; an arc whose closure escapes is never inside]
        outer = IdealBall(CIRCLE, F(1, 2), F(1, 2))
        assert CIRCLE.inside(IdealBall(CIRCLE, F(1, 2), F(1, 4)), outer,
                             strict=True)
        touch = IdealBall(CIRCLE, F(1, 4), F(1, 4))
        assert CIRCLE.inside(touch, outer)
        assert not CIRCLE.inside(touch, outer, strict=True)
        assert not CIRCLE.inside(IdealBall(CIRCLE, F(0), F(1, 4)), outer)
        # across 0: the arc (7/8, 1/8) nests in (3/4, 1/4)
        assert CIRCLE.inside(IdealBall(CIRCLE, F(0), F(1, 8)),
                             IdealBall(CIRCLE, F(0), F(1, 4)), strict=True)

    def test_inside_cantor_prefix(self):
        # [DERIVED: a cylinder nests in another iff it is at least as deep
        #  and extends its word; clopen, so strict changes nothing]
        outer = CANTOR.cylinder_ball("01")
        for word, nested in (("01", True), ("010", True), ("0111", True),
                             ("0", False), ("00", False), ("110", False)):
            inner = CANTOR.cylinder_ball(word)
            for strict in (False, True):
                assert CANTOR.inside(inner, outer, strict=strict) is nested

    def test_trusted_cylinder_balls_equal_checked_ones(self):
        # [DERIVED: oracle = the checking constructor on the same word and
        #  radius; equal in ==, hash and JSON, padded words included]
        for word in ("", "0", "1", "000", "0100", "1101000"):
            for depth in (None, 0, 2, 9):
                k = len(word) if depth is None else depth
                b = CANTOR.cylinder_ball(word, depth)
                c = IdealBall(CANTOR, word, F(3, 1 << (k + 1)))
                assert b == c and hash(b) == hash(c)
                assert b.to_json() == c.to_json()
                assert b.cylinder_prefix == c.cylinder_prefix

    def test_circle_refinements_are_the_nested_dyadic_arcs(self):
        # [DERIVED: brute force over all 2^d dyadic arcs of depth d]
        rng = random.Random(5)
        for _ in range(200):
            cur = IdealBall(CIRCLE, F(rng.randint(0, 63), 64),
                            F(rng.randint(1, 31), 64))
            for d in range(6):
                two = 1 << d
                want = {IdealBall(CIRCLE, F(2 * a + 1, 2 * two),
                                  F(1, 2 * two)) for a in range(two)}
                want = {b for b in want if CIRCLE.inside(b, cur)}
                got = list(CIRCLE.refinements(cur, d))
                assert len(got) == len(set(got)) and set(got) == want
                assert all(CIRCLE.depth(b) == d + 1 for b in got)

    def test_cantor_refinements_are_the_subcylinders(self):
        # [DERIVED: the depth-d cylinders extending the word, in word order;
        #  none above the word's own depth]
        for word in ("", "1", "01", "110"):
            cur = CANTOR.cylinder_ball(word)
            for d in range(6):
                got = [b.cylinder_prefix for b in CANTOR.refinements(cur, d)]
                want = sorted(w for w in ("".join(t) for t in
                                          itertools.product("01", repeat=d))
                              if w.startswith(word))
                assert got == want


class TestSpaceNames:
    def test_space_named(self):
        # [TRIVIAL] the two JSON names and nothing else
        assert space_named("circle") is CIRCLE
        assert space_named("cantor") is CANTOR
        for bad in ("torus", "Circle", "", None, ["circle"]):
            with pytest.raises(ValueError, match="unknown space"):
                space_named(bad)
