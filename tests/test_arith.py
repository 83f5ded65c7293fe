"""Exact scalar arithmetic: intervals, Q[sqrt2]."""

import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert.arith import (Interval, Quad, SQRT2_MINUS_1, floor_root2,
                            fmt_rat, parse_int, parse_rat, parse_ratio, pow2,
                            sign_root2)


def rand_frac(rng, scale=100):
    return F(rng.randint(-scale, scale), rng.randint(1, scale))


class TestInterval:
    def test_point_and_width(self):
        # [TRIVIAL] degenerate interval
        i = Interval.point(F(1, 3))
        assert i.width == 0 and i.mid == F(1, 3)

    def test_soundness_random(self):
        # [DERIVED: oracle = exact rational evaluation at sampled points]
        # The interval sum must contain the pointwise sum.
        rng = random.Random(20260823)
        for _ in range(10000):
            a, b = sorted(rand_frac(rng) for _ in range(2))
            c, d = sorted(rand_frac(rng) for _ in range(2))
            x = a + (b - a) * F(rng.randint(0, 8), 8)
            y = c + (d - c) * F(rng.randint(0, 8), 8)
            i1, i2 = Interval(a, b), Interval(c, d)
            assert (i1 + i2).contains(x + y)

    def test_mixed_operands(self):
        # [DERIVED: a rational or an integer operand acts as a point
        #  interval on either side of + and in intersect]
        i = Interval(F(1, 4), F(1, 2))
        assert i + 1 == 1 + i == Interval(F(5, 4), F(3, 2))
        assert i.intersect(F(1, 3)) == Interval.point(F(1, 3))
        assert i.intersect(1) is None

    def test_intersect(self):
        # [TRIVIAL]
        assert Interval(0, 1).intersect(Interval(2, 3)) is None
        got = Interval(0, 2).intersect(Interval(1, 3))
        assert got.lo == 1 and got.hi == 2


class TestQuad:
    def test_sqrt2_minus_one_value(self):
        # [DERIVED: (sqrt2-1)(sqrt2+1) = 1 exactly in Q[sqrt2]]
        a = SQRT2_MINUS_1
        assert a * (a + 2) == 1

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
            if y.a != 0:
                assert abs(float((x / y.a).approx(40)) - fx / float(y.a)) \
                    < 1e-6 * (1 + abs(fx / float(y.a)))

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


def _oracle_sign(a, b):
    """Sign of a + b*sqrt2, decided as a against -b*sqrt2: zero only when
    a = b = 0; otherwise unequal signs decide, and equal signs compare
    a^2 with 2b^2 on integers."""
    if a == 0 and b == 0:
        return 0
    sa, sc = (a > 0) - (a < 0), (b < 0) - (b > 0)  # signs of a and -b*sqrt2
    if sa != sc:
        return 1 if sa > sc else -1
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    a_sq_bigger = p * p * s * s > 2 * r * r * q * q
    return sa if a_sq_bigger else -sa


def _pair(x):
    return (x.a, x.b) if isinstance(x, Quad) else (F(x), F(0))


def _quad_samples(rng):
    pell = [Quad(F(99, 70), -1), Quad(F(-99, 70), 1), Quad(0, F(70, 99)),
            Quad(F(1393, 985), -1), Quad(F(665857, 470832), -1),
            Quad(-1, F(985, 1393)), SQRT2_MINUS_1, Quad(0, 1)]
    out = pell + [Quad(0), Quad(F(3, 7)), Quad(0, F(-5, 3)), F(99, 70),
                  F(-1393, 985), F(0), 0, 1, -2, 3]
    for _ in range(25):
        a, b = rand_frac(rng), rand_frac(rng)
        out += [Quad(a, b), Quad(a), Quad(0, b), a, rng.randint(-9, 9)]
    return out


class TestQuadOracle:
    """Quad against an exact pair model (a, b) of a + b*sqrt2."""

    def test_ops_types_and_order(self):
        rng = random.Random(2010)
        xs = _quad_samples(rng)
        for _ in range(4000):
            x, y = rng.choice(xs), rng.choice(xs)
            if not (isinstance(x, Quad) or isinstance(y, Quad)):
                continue
            (a, b), (c, d) = _pair(x), _pair(y)
            sums = {"+": (a + c, b + d), "-": (a - c, b - d),
                    "*": (a * c + 2 * b * d, a * d + b * c)}
            for op, want in sums.items():
                got = {"+": x + y, "-": x - y, "*": x * y}[op]
                assert type(got) is Quad, (x, op, y)
                assert (got.a, got.b) == want, (x, op, y)
                assert type(got.a) is F and type(got.b) is F
            # a Quad divides by a rational only
            if isinstance(y, Quad):
                with pytest.raises(TypeError):
                    x / y
            elif y == 0:
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                got = x / y
                assert type(got) is Quad
                assert (got.a, got.b) == (a / c, b / c), (x, y)
            sign = _oracle_sign(a - c, b - d)
            assert (x < y, x <= y, x > y, x >= y) == (
                sign < 0, sign <= 0, sign > 0, sign >= 0), (x, y)
            assert (x == y) == (sign == 0) and (x != y) == (sign != 0)
            if x == y:
                assert hash(x) == hash(y), (x, y)
        for x in xs:
            if isinstance(x, Quad):
                a, b = _pair(x)
                assert x.sign() == _oracle_sign(a, b), x

    def test_integer_keys_and_signs(self):
        # [DERIVED: the pair model's sign decides sign_root2 and
        # floor_root2, Pell near-ties included]
        ints = [(99, -70), (-99, 70), (1393, -985), (-2, 1), (0, 0), (5, 0),
                (0, -3)] + [(t, 1 - t) for t in range(-20, 21)]
        for a, b in ints:
            assert sign_root2(a, b) == _oracle_sign(F(a), F(b)), (a, b)
        for t in list(range(-40, 41)) + [985, -1393, 470832]:
            r = floor_root2(t)
            assert _oracle_sign(F(-r), F(t)) >= 0 > _oracle_sign(F(-r - 1),
                                                                 F(t)), t

    def test_parts_stay_fractions(self):
        # an int or a string part is converted; a Fraction part is kept
        half = F(1, 2)
        q = Quad(half, 3)
        assert q.a is half and type(q.b) is F and q.b == 3
        assert Quad("1/3", True).b == 1 and type(Quad("1/3").a) is F

    def test_float_and_string_operands_refused(self):
        # [DERIVED: only int, Fraction and Quad operands enter Q[sqrt2]
        # arithmetic; a float or a string is refused, never converted]
        q = Quad(1, 1)
        for o in (0.5, "1/2"):
            for op in (lambda: q + o, lambda: o + q, lambda: q - o,
                       lambda: o - q, lambda: q * o, lambda: o * q,
                       lambda: q / o, lambda: q < o, lambda: o < q):
                with pytest.raises(TypeError):
                    op()
            assert q != o
        assert q + F(1, 2) == Quad(F(3, 2), 1) and 2 * q == Quad(2, 2)


def _outcome(parse, s):
    """parse(s) as (value, type), or the type of the exception raised."""
    try:
        q = parse(s)
    except Exception as e:
        return type(e)
    return q, type(q)


class TestFormatting:
    def test_roundtrip(self):
        # [TRIVIAL]
        for s in ("0", "1/3", "-7/2", "5"):
            assert fmt_rat(parse_rat(s)) == fmt_rat(F(s))

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789+-/._eE \u0663", max_size=12)
           .filter(lambda s: not re.search(r"[eE][-+]?[\d_]{3}", s)))
    def test_parse_rat_is_fraction_of_stripped(self, s):
        # [DERIVED: oracle = Fraction(s.strip()); the plain "num/den" path
        #  must agree in value, or in the type of exception raised.  An
        #  exponent of three or more digits is left out: Fraction would
        #  build 10^exp, up to a billion digits]
        assert _outcome(parse_rat, s) == _outcome(lambda t: F(t.strip()), s)

    def test_parse_rat_fixed_cases(self):
        # [DERIVED: oracle = Fraction(s.strip()); a zero denominator, a
        #  signed zero, leading zeros, blanks, underscores, an exponent, a
        #  decimal, an explicit sign, a signed denominator, a non-ASCII
        #  digit and a trailing newline]
        for s in ("1/0", "-0/5", "007/010", " 3/4 ", "1_000", "1e-3", "0.5",
                  "+3", "3/-4", "\u0663/4", "3/4\n", "", "/", "-", "12/"):
            assert _outcome(parse_rat, s) == _outcome(lambda t: F(t.strip()),
                                                      s), s
        assert _outcome(parse_rat, "1/0") is ZeroDivisionError
        with pytest.raises(ValueError):
            parse_rat(3)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789+-/._eE \u0663", max_size=12)
           .filter(lambda s: not re.search(r"[eE][-+]?[\d_]{3}", s)))
    def test_parse_ratio_is_the_ratio_of_parse_rat(self, s):
        # [DERIVED: oracle = Fraction(s.strip()) as (numerator,
        #  denominator), in lowest terms with a positive denominator, or
        #  the type of exception raised; exponents as above]
        def ratio(t):
            q = F(t.strip())
            return q.numerator, q.denominator
        assert _outcome(parse_ratio, s) == _outcome(ratio, s)

    def test_parse_ratio_fixed_cases(self):
        # [DERIVED: the plain form reduced by its gcd (a zero numerator to
        #  0/1, a sign kept on the numerator), the fallback spellings, and
        #  a zero denominator refused with Fraction's own message]
        for s, want in (("2/4", (1, 2)), ("+1/3", (1, 3)), ("-6/4", (-3, 2)),
                        ("0/7", (0, 1)), ("-0", (0, 1)), ("007/010", (7, 10)),
                        ("12", (12, 1)), (" 1/6 ", (1, 6)), ("0.5", (1, 2)),
                        ("1e-3", (1, 1000))):
            assert parse_ratio(s) == want, s
            assert all(type(x) is int for x in parse_ratio(s))
        for s in ("1/0", "-3/0", "+0/00"):
            with pytest.raises(ZeroDivisionError) as got:
                parse_ratio(s)
            with pytest.raises(ZeroDivisionError) as want:
                parse_rat(s)
            assert str(got.value) == str(want.value)

    def test_parse_int(self):
        # [DERIVED: JSON integers only; a bool is an int to Python but not
        #  to JSON]
        assert parse_int(0, "depth") == 0 and parse_int(-3, "depth") == -3
        for bad in (True, False, 1.0, 1.9, "1", None, F(1)):
            with pytest.raises(ValueError, match="depth must be"):
                parse_int(bad, "depth")

    def test_sqrt2_minus_one_creal(self):
        # [PAPER: the rotation angle sqrt2 - 1 = 0.41421356...]
        a = SQRT2_MINUS_1.approx(40)
        assert abs(float(a) - (math.sqrt(2) - 1)) < 1e-10
