"""Exact scalar arithmetic: intervals, computable reals, Q[sqrt2]."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert.arith import (Cmp, CReal, Interval, Quad, SQRT2_MINUS_1,
                            creal_compare, fmt_rat, imax, imin, parse_rat,
                            pow2, sqrt_creal, sqrt2_minus_one)


def rand_frac(rng, scale=100):
    return F(rng.randint(-scale, scale), rng.randint(1, scale))


class TestInterval:
    def test_point_and_width(self):
        # [TRIVIAL] degenerate interval
        i = Interval.point(F(1, 3))
        assert i.width == 0 and i.mid == F(1, 3)

    def test_soundness_random(self):
        # [DERIVED: oracle = exact rational evaluation at sampled points]
        # Every interval operation must contain the pointwise result.
        rng = random.Random(20260823)
        for _ in range(10000):
            a, b = sorted(rand_frac(rng) for _ in range(2))
            c, d = sorted(rand_frac(rng) for _ in range(2))
            x = a + (b - a) * F(rng.randint(0, 8), 8)
            y = c + (d - c) * F(rng.randint(0, 8), 8)
            i1, i2 = Interval(a, b), Interval(c, d)
            assert (i1 + i2).contains(x + y)
            assert (i1 - i2).contains(x - y)
            assert (i1 * i2).contains(x * y)
            assert abs(i1).contains(abs(x))
            assert imin(i1, i2).contains(min(x, y))
            assert imax(i1, i2).contains(max(x, y))
            assert i1.hull(i2).contains(x) and i1.hull(i2).contains(y)

    def test_intersect(self):
        # [TRIVIAL]
        assert Interval(0, 1).intersect(Interval(2, 3)) is None
        got = Interval(0, 2).intersect(Interval(1, 3))
        assert got.lo == 1 and got.hi == 2


class TestCReal:
    def test_rational_oracle(self):
        # [TRIVIAL]
        x = CReal.from_rational(F(1, 3))
        for m in range(0, 40, 7):
            assert abs(x.approx(m) - F(1, 3)) <= pow2(m)

    def test_sqrt_oracle_accuracy(self):
        # [DERIVED: oracle = integer squaring; |approx^2 - q| small]
        x = sqrt_creal(2)
        for m in (4, 16, 48):
            a = x.approx(m)
            assert abs(a * a - 2) <= 3 * pow2(m)  # |a^2-2| <= (2a+2^-m)2^-m

    def test_compare(self):
        # [TRIVIAL] ternary comparison at finite precision
        x = CReal.from_rational(F(1, 2))
        y = CReal.from_rational(F(3, 4))
        assert creal_compare(x, y, 10) is Cmp.LT
        assert creal_compare(y, x, 10) is Cmp.GT
        near = CReal.from_rational(F(1, 2) + pow2(20))
        assert creal_compare(x, near, 4) is Cmp.INDISTINGUISHABLE_AT_M

    def test_arithmetic(self):
        # [DERIVED: rational arithmetic oracle]
        x = CReal.from_rational(F(1, 3)) + CReal.from_rational(F(1, 6))
        assert abs(x.approx(30) - F(1, 2)) <= pow2(29)


class TestQuad:
    def test_sqrt2_minus_one_value(self):
        # [DERIVED: (sqrt2-1)(sqrt2+1) = 1 exactly in Q[sqrt2]]
        a = SQRT2_MINUS_1
        assert (a * (a + 2)).to_fraction() == 1

    def test_sign_exact_near_zero(self):
        # [DERIVED: sign decided by integer arithmetic, not approximation]
        # 665857/470832 is a continued-fraction convergent of sqrt2:
        # the difference from sqrt2 is ~1e-12 but the sign is exact.
        q = Quad(F(665857, 470832), -1)
        assert q.sign() == 1
        q2 = Quad(F(1393, 985), -1)
        assert q2.sign() == -1

    def test_hash_matches_equal_fraction(self):
        # [DERIVED: equal objects must hash equal, so a set or dict keyed
        # by breakpoints holds one entry for a rational Quad and its
        # Fraction]
        assert Quad(F(1, 2)) == F(1, 2)
        assert len({Quad(F(1, 2)), F(1, 2)}) == 1
        assert {F(1, 2): 1}[Quad(F(1, 2))] == 1

    def test_field_ops_vs_float(self):
        # [DERIVED: oracle = floating point at coarse tolerance]
        rng = random.Random(7)
        for _ in range(300):
            x = Quad(rand_frac(rng), rand_frac(rng))
            y = Quad(rand_frac(rng), rand_frac(rng))
            fx = float(x.a) + float(x.b) * math.sqrt(2)
            fy = float(y.a) + float(y.b) * math.sqrt(2)
            assert abs(float((x * y).approx(40)) - fx * fy) < 1e-4 * (
                1 + abs(fx * fy))
            assert abs(float((x + y).approx(40)) - (fx + fy)) < 1e-6 * (
                1 + abs(fx + fy))
            if y.sign() != 0:
                assert abs(float((x / y).approx(40)) - fx / fy) < 1e-3 * (
                    1 + abs(fx / fy))

    def test_floor_mod1(self):
        # [DERIVED: alpha = sqrt2-1 in (0,1); 3*alpha in (1,2)]
        assert SQRT2_MINUS_1.floor() == 0
        t = SQRT2_MINUS_1 * 3
        assert t.floor() == 1
        assert (t.mod1() - (t - 1)).sign() == 0

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_approx_contract(self, a, b, m):
        # [DERIVED: |approx(m) - x| <= 2^-m against a high-precision oracle]
        q = Quad(F(a), F(b, 7))
        ref = q.approx(80)
        assert abs(q.approx(m) - ref) <= pow2(m) + pow2(78)


class TestFormatting:
    def test_roundtrip(self):
        # [TRIVIAL]
        for s in ("0", "1/3", "-7/2", "5"):
            assert fmt_rat(parse_rat(s)) == fmt_rat(F(s))

    def test_sqrt2_minus_one_creal(self):
        # [PAPER: the rotation angle sqrt2 - 1 = 0.41421356...]
        x = sqrt2_minus_one()
        a = x.approx(40)
        assert abs(float(a) - (math.sqrt(2) - 1)) < 1e-10
