"""Computable metric spaces: numberings, metrics, balls, limits."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert.arith import CReal, pow2
from ergocert.errors import InvalidNestingError
from ergocert.spaces import (CANTOR, CIRCLE, CantorPoint, CirclePoint,
                             EffectiveOpen, IdealBall, Membership, OpenResult,
                             ball_member, cantor_dist, cantor_word,
                             cantor_word_index, circle_dist, circle_index,
                             circle_point, open_contains, pair, pos_rational,
                             refine_to_point, unpair)


class TestNumberings:
    def test_pairing_bijective(self):
        # [TRIVIAL] Cantor pairing round-trips
        for n in range(500):
            a, b = unpair(n)
            assert pair(a, b) == n

    def test_circle_points_injective_and_inverse(self):
        # [DERIVED: first indices follow the denominator-ordered listing]
        pts = [circle_point(i) for i in range(60)]
        assert len(set(pts)) == 60
        assert pts[0] == 0 and F(1, 2) in pts[:3]
        for i, p in enumerate(pts):
            assert circle_index(p) == i

    def test_cantor_words_injective_no_trailing_zeros(self):
        # [DERIVED: padding-insensitive numbering needs canonical forms]
        ws = [cantor_word(i) for i in range(200)]
        assert len(set(ws)) == 200
        assert all(w == "" or w.endswith("1") for w in ws)
        for i, w in enumerate(ws):
            assert cantor_word_index(w) == i

    def test_pos_rational_positive_injective(self):
        # [TRIVIAL]
        qs = [pos_rational(j) for j in range(100)]
        assert len(set(qs)) == 100 and all(q > 0 for q in qs)


class TestMetrics:
    def test_circle_examples(self):
        # [PAPER: arc metric — d(1/10, 9/10) = 1/5]
        assert circle_dist(F(1, 10), F(9, 10)) == F(1, 5)
        assert circle_dist(F(1, 4), F(3, 4)) == F(1, 2)

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
            assert circle_dist(x, y) == circle_dist(y, x)
            assert circle_dist(x, z) <= circle_dist(x, y) + circle_dist(y, z)
            assert circle_dist(x, y) >= 0
            assert (circle_dist(x, y) == 0) == (x == y)
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

    def test_ball_index_roundtrip(self):
        # [DERIVED: effective numbering of balls is bijective where defined]
        for space in (CIRCLE, CANTOR):
            for n in range(80):
                b = IdealBall.from_index(space, n)
                assert b.index() == n
                assert IdealBall.from_json(b.to_json()) == b

    def test_membership_circle(self):
        # [TRIVIAL] clear-in, clear-out, boundary-at-precision
        b = IdealBall(CIRCLE, F(1, 2), F(1, 4))
        x = CirclePoint.from_rational(F(1, 2))
        assert ball_member(CIRCLE, b, x, 6) is Membership.IN
        y = CirclePoint.from_rational(F(0))
        assert ball_member(CIRCLE, b, y, 6) is Membership.OUT
        z = CirclePoint.from_rational(F(1, 4))
        assert ball_member(CIRCLE, b, z, 3) is Membership.BOUNDARY_AT_M

    def test_membership_cantor(self):
        # [TRIVIAL]
        b = IdealBall(CANTOR, "10", F(3, 8))
        assert ball_member(CANTOR, b,
                           CantorPoint.from_word("101"), 0) is Membership.IN
        assert ball_member(CANTOR, b,
                           CantorPoint.from_word("11"), 0) is Membership.OUT


class TestEffectiveOpen:
    def test_whole_and_empty(self):
        # [TRIVIAL]
        for space in (CIRCLE, CANTOR):
            w = EffectiveOpen.whole(space)
            assert w.ball(0) is not None
            assert EffectiveOpen.empty(space).ball(0) is None

    def test_open_contains_no_false_positive(self):
        # [DERIVED: IN answers must come with a containing witness ball]
        u = EffectiveOpen.from_balls(
            CIRCLE, [IdealBall(CIRCLE, F(1, 4), F(1, 8))])
        res, w = open_contains(CIRCLE, u,
                               CirclePoint.from_rational(F(1, 4)), 1, 8)
        assert res is OpenResult.IN and w == 0
        res, _ = open_contains(CIRCLE, u,
                               CirclePoint.from_rational(F(3, 4)), 1, 8)
        assert res is OpenResult.UNKNOWN_AT_K_M


class TestRefineToPoint:
    def test_circle_limit(self):
        # [DERIVED: nested dyadic arcs around 1/3 converge to 1/3]
        balls = []
        for m in range(40):
            c = F(round(F(1, 3) * (1 << (m + 3))), 1 << (m + 3))
            balls.append(IdealBall(CIRCLE, c, pow2(m + 2)))
        x = refine_to_point(CIRCLE, iter(balls))
        assert abs(x.enclosure(20).mid - F(1, 3)) < pow2(18)

    def test_cantor_limit(self):
        # [TRIVIAL] deepening cylinders spell out the bits; position m
        # needs depth >= m+1 so the radius is below 2^-m
        word = "01101001"
        balls = [IdealBall(CANTOR, word[:m + 1], F(3, 1 << (m + 2)))
                 for m in range(len(word))]
        x = refine_to_point(CANTOR, iter(balls))
        assert x.prefix(6) == word[:6]

    def test_nesting_violation_raises(self):
        # [DERIVED: closure containment is checked exactly]
        good = IdealBall(CIRCLE, F(1, 2), F(1, 2))
        bad = IdealBall(CIRCLE, F(0), F(1, 4))  # closure escapes B(1/2,1/2)
        x = refine_to_point(CIRCLE, iter([good, bad]))
        with pytest.raises(InvalidNestingError):
            x.enclosure(2)

    def test_radius_schedule_violation_raises(self):
        # [TRIVIAL] radius must be <= 2^-m at stream position m
        balls = [IdealBall(CIRCLE, F(1, 2), F(1, 2))] * 5
        x = refine_to_point(CIRCLE, iter(balls))
        with pytest.raises(InvalidNestingError):
            x.enclosure(3)
