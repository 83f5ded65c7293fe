"""Observables: piecewise-linear lattice, cylinder functions, the
generated family F, and the JSON codec."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from ergocert.arith import SQRT2_MINUS_1, Quad, mod1
from ergocert.dynamics import shift_system
from ergocert.observables import (CylinderFn, FTerm, PiecewiseLinear, _Form,
                                  _arcs, enumerate_F, observable_from_json,
                                  observable_to_json, pl_inner, pl_sum,
                                  table_integral)
from ergocert.spaces import CANTOR, CIRCLE, cantor_dist

import ball_reference as bref
import cyl_reference as cref
import pl_reference as ref


def _translate(g, c):
    """x -> g(x + c mod 1) for a rational or Q[sqrt2] c, as one translate
    of pl_sum: c mod 1 = (ca + cb sqrt2)/den over the lcm den of the
    denominators of its parts."""
    c = mod1(c)
    a, b = (c.a, c.b) if isinstance(c, Quad) else (c, F(0))
    den = math.lcm(a.denominator, b.denominator)
    return pl_sum([], g, [(int(a * den), int(b * den))], den)


class TestPiecewiseLinear:
    def test_hat_integral(self):
        # [PAPER: the bump g_{1/2,1/4,1/8} integrates to 2r + eps = 5/8]
        h = PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))
        assert h.integral() == F(5, 8)
        assert ref.value(h.segments, F(1, 2)) == 1
        assert ref.value(h.segments, F(1, 2) + F(1, 4)) == 1
        assert ref.value(h.segments, F(1, 2) + F(3, 8)) == 0
        assert ref.value(h.segments, F(0)) == 0

    def test_identity_and_constant(self):
        # [TRIVIAL]
        assert PiecewiseLinear.identity().integral() == F(1, 2)
        assert PiecewiseLinear.constant(F(3, 7)).integral() == F(3, 7)

    def test_range_on_soundness(self):
        # [DERIVED: interval enclosure contains sampled exact values]
        rng = random.Random(13)
        h = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))
        for _ in range(500):
            a = F(rng.randint(0, 95), 96)
            b = a + F(rng.randint(1, 12), 96)
            box = h.range_on(a, min(b, F(1)))
            for k in range(5):
                x = a + (min(b, F(1)) - a) * F(k, 5)
                assert box.lo <= ref.value(h.segments, x) <= box.hi

    def test_lattice_ops_pointwise(self):
        # [DERIVED: oracle = pointwise evaluation on a fine grid]
        f = PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 8))
        g = PiecewiseLinear.identity()
        def at(h, x):
            return ref.value(h.segments, x)

        for i in range(64):
            x = F(i, 64)
            fx, gx = at(f, x), at(g, x)
            assert at(f.add(g), x) == fx + gx
            assert at(f.min_with(g), x) == min(fx, gx)
            assert at(f.max_with(g), x) == max(fx, gx)
            assert at(f.scale(F(-2, 3)), x) == F(-2, 3) * fx
            assert at(f.add_const(F(1, 5)), x) == fx + F(1, 5)

    def test_abs_integral_matches_envelope(self):
        # [DERIVED: oracle = the integral of the lattice envelope max(f, -f);
        # random jumps, same value type]
        rng = random.Random(29)
        for _ in range(60):
            xs = sorted({F(rng.randint(1, 63), 64)
                         for _ in range(rng.randint(0, 5))})
            cuts = [F(0), *xs, F(1)]
            f = PiecewiseLinear([(a, b, F(rng.randint(-6, 6), 4),
                                  F(rng.randint(-6, 6), 4))
                                 for a, b in zip(cuts, cuts[1:])])
            want = f.max_with(f.scale(-1)).integral()
            got = f.abs_integral()
            assert got == want and type(got) is type(want)

    def test_doubling_transfer_preserves_integral(self):
        # [DERIVED: averaging over the two branches keeps the mean]
        f = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 6))
        assert f.transfer_doubling().integral() == f.integral()
        assert f.pullback_doubling().integral() == f.integral()

    def test_sublevel_arcs(self):
        # [DERIVED: hat - 1/2 is small exactly off a centered arc]
        f = PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8)).add_const(F(-1, 2))
        below, above = f.arcs_below_abs(F(1, 4)), f.arcs_above(F(1, 4))
        for i in range(128):
            x = F(2 * i + 1, 256)
            fx = ref.value(f.segments, x)
            inside = any(a < x < b for a, b in bref.ends(below))
            assert inside == (abs(fx) < F(1, 4)) or abs(fx) == F(1, 4)
            inside = any(a < x < b for a, b in bref.ends(above))
            assert inside == (fx > F(1, 4)) or fx == F(1, 4)
        # segments constant at exactly +-delta are not in either set
        g = PiecewiseLinear([(F(0), F(1, 4), F(1, 4), F(1, 4)),
                             (F(1, 4), F(1, 2), F(1, 4), F(-1, 4)),
                             (F(1, 2), F(3, 4), F(-1, 4), F(-1, 4)),
                             (F(3, 4), F(1), F(-1, 4), F(1, 4))])
        assert bref.ends(g.arcs_below_abs(F(1, 4))) == [(F(1, 4), F(1, 2)),
                                                        (F(3, 4), F(1))]
        assert bref.ends(g.arcs_above(F(1, 4))) == []
        assert bref.ends(g.arcs_above(F(-1, 4))) == [(F(0), F(1, 2)),
                                                     (F(3, 4), F(1))]

    def test_sum_of_many_terms_pointwise(self):
        # [DERIVED: oracle = the terms evaluated one by one at every
        # breakpoint and midpoint, right-continuously, by the reference
        # lerp (a Q[sqrt2] breakpoint gap divides by a Quad)]
        def at(f, x):
            return ref.value(f.segments, x)

        h = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))
        ident = PiecewiseLinear.identity()
        families = [
            # doubling pullbacks of the identity: a jump at each k/2^i
            [ident, ident.pullback_doubling(),
             ident.pullback_doubling().pullback_doubling()],
            # coinciding breakpoints, and a function added to itself
            [h, h, h.pullback_doubling(), h.scale(F(-1, 2))],
            # rotation translates: Q[sqrt2] breakpoints
            [h] + [_translate(h, SQRT2_MINUS_1 * i) for i in range(1, 5)],
            [ident, _translate(ident, SQRT2_MINUS_1),
             _translate(h, SQRT2_MINUS_1 * -1)],
        ]
        for terms in families:
            total = pl_sum(terms)
            xs = sorted({s[0] for t in terms + [total] for s in t.segments})
            xs += [(u + v) / 2 for u, v in zip(xs, xs[1:] + [F(1)])]
            for x in xs:
                assert at(total, x) == sum(at(t, x) for t in terms)

    def test_inner_product_by_polarization(self):
        # [DERIVED: <f,g> = (||f+g||^2 - ||f-g||^2) / 4]
        h = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))
        fs = [h, PiecewiseLinear.identity(), h.pullback_doubling(),
              h.shift(F(2, 7)), PiecewiseLinear.constant(F(2, 3))]
        for f in fs:
            for g in fs:
                plus, minus = f.add(g).segments, f.add(g.scale(-1)).segments
                want = (ref.inner(plus, plus) - ref.inner(minus, minus)) / 4
                assert pl_inner(f, g) == want


def _random_pl(rng, pieces, q=48):
    """A rational PL function with breakpoints on the 1/q grid, with jumps,
    continuous kinks and continuous collinear runs (which the constructor
    merges)."""
    xs = sorted({F(rng.randint(1, q - 1), q) for _ in range(pieces)})
    segs, v, slope = [], F(rng.randint(-4, 4), 3), F(0)
    for a, b in zip([F(0)] + xs, xs + [F(1)]):
        roll = rng.random()
        if roll < 0.3:
            v = F(rng.randint(-4, 4), 3)  # a jump
        if roll > 0.6:
            slope = F(rng.randint(-6, 6), rng.randint(1, 4))  # a kink
        segs.append((a, b, v, v + slope * (b - a)))
        v = segs[-1][3]
    return PiecewiseLinear(segs)


def _assert_normal_form(segs, what):
    """The normal form changes nothing in the segment list segs: no
    zero-length segment and no continuous collinear neighbours, value by
    value and type by type."""
    again = ref.normal(segs)
    assert again == segs, what
    assert ref.types(again) == ref.types(segs), what


class TestNormalForm:
    def test_kernels_emit_normal_form(self):
        rng = random.Random(8)
        alpha = SQRT2_MINUS_1
        h = PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 16))
        # 1 on both sides of 0: the last and first segments are collinear
        # across the wrap, so shifts and pullbacks must join them
        h0 = PiecewiseLinear.hat(F(0), F(1, 8), F(1, 16))
        fs = [_random_pl(rng, k) for k in (1, 2, 5, 9, 14)]
        fs += [h, h0, PiecewiseLinear.identity(), PiecewiseLinear.constant(2)]
        # translates g o R^i are sums: they take only the kernels that
        # accept them
        translates = [_translate(g, alpha * k) for g in (h, h0)
                      for k in (1, 2, 5)]
        for f in fs + translates:
            outs = {"scale 0": f.scale(0), "scale": f.scale(F(-3, 2)),
                    "add_const": f.add_const(F(5, 7)),
                    "sum with -f": pl_sum([f, f.scale(-1)]),
                    "sum with itself": pl_sum([f, f, f])}
            g = _random_pl(rng, 7)
            # f + (g - f) = g: every breakpoint of f cancels
            outs["sum g - f + f"] = pl_sum([f, pl_sum([g, f.scale(-1)])])
            if f in fs:
                cuts = [F(0), f.segments[-1][0], F(-7, 5)]
                outs["pullback_doubling"] = f.pullback_doubling()
                outs.update((f"shift {c}", f.shift(c)) for c in cuts)
                outs["translate by 3 alpha"] = _translate(f, alpha * 3)
                outs["rotated sum"] = pl_sum([_translate(f, alpha * k)
                                              for k in range(4)])
            for what, out in outs.items():
                _assert_normal_form(out.segments, (f, what))
            assert len(outs["sum with -f"].segments) == 1
            assert outs["sum g - f + f"].segments == g.segments
        # the doubling and rotation chains of a Birkhoff sum: the rotation
        # translates f by alpha k, as its running sum does
        for f in (h0, h, fs[3]):
            pulled = [f]
            for _ in range(5):
                pulled.append(pulled[-1].pullback_doubling())
            rotated = [f] + [_translate(f, alpha * k) for k in range(1, 6)]
            for terms in (pulled, rotated):
                for t in terms[1:]:
                    _assert_normal_form(t.segments, (f, "chain"))
                _assert_normal_form(pl_sum(terms).segments, (f, "chain sum"))


def _const(c):
    return [(F(0), F(1), c, c)]


#: each rational integer kernel beside its segment-list reference:
#: (f, g, c) -> (got, want) for rational f and g and a rational c
KERNELS = {
    "min": lambda f, g, c: (f.min_with(g).segments,
                            ref.lattice(f.segments, g.segments, min)),
    "max": lambda f, g, c: (f.max_with(g).segments,
                            ref.lattice(f.segments, g.segments, max)),
    "clamp": lambda f, g, c: (f.clamp(abs(c)).segments, ref.lattice(
        ref.lattice(f.segments, _const(abs(c)), min), _const(-abs(c)), max)),
    "transfer": lambda f, g, c: (f.transfer_doubling().segments,
                                 ref.transfer(f.segments)),
    "transfer 3": lambda f, g, c: (
        f.transfer_doubling().transfer_doubling().transfer_doubling().segments,
        ref.transfer(ref.transfer(ref.transfer(f.segments)))),
    "inner": lambda f, g, c: (pl_inner(f, g),
                              ref.inner(f.segments, g.segments)),
    "inner with Lf": lambda f, g, c: (
        pl_inner(f, f.transfer_doubling()),
        ref.inner(f.segments, ref.transfer(f.segments))),
    "shift": lambda f, g, c: (f.shift(c % 1).segments,
                              ref.shift(f.segments, c % 1)),
    "shift at a breakpoint": lambda f, g, c: (
        f.shift(f.segments[-1][0]).segments,
        ref.shift(f.segments, f.segments[-1][0])),
    "shift by 0": lambda f, g, c: (f.shift(0).segments,
                                   ref.shift(f.segments, F(0))),
    "shift by a negative c": lambda f, g, c: (
        f.shift(-abs(c)).segments, ref.shift(f.segments, -abs(c) % 1)),
    "add_const": lambda f, g, c: (
        f.add_const(c).segments,
        [(a, b, va + c, vb + c) for a, b, va, vb in f.segments]),
    "add": lambda f, g, c: (f.add(g).segments,
                            ref.plus(f.segments, g.segments)),
    "pl_sum": lambda f, g, c: (
        pl_sum([f, g, f]).segments,
        ref.total([f.segments, g.segments, f.segments])),
    "pullback": lambda f, g, c: (f.pullback_doubling().segments,
                                 ref.pullback(f.segments)),
    "integral": lambda f, g, c: (f.integral(), ref.integral(f.segments)),
    "abs_integral": lambda f, g, c: (f.abs_integral(),
                                     ref.abs_integral(f.segments)),
    "total_variation": lambda f, g, c: (f.total_variation(),
                                        ref.total_variation(f.segments)),
    "sup": lambda f, g, c: (f.sup_norm(), ref.sup(f.segments)),
    "arcs below abs": lambda f, g, c: (
        bref.ends(f.arcs_below_abs(abs(c))),
        ref.arcs(f.segments, -abs(c), abs(c))),
    "arcs above": lambda f, g, c: (bref.ends(f.arcs_above(c)),
                                   ref.arcs(f.segments, c, None)),
    "arcs below": lambda f, g, c: (bref.ends(f.arcs_below(c)),
                                   ref.arcs(f.segments, None, c)),
}


class TestIntegerKernels:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_segment_reference(self, kernel):
        # [DERIVED: oracle = the kernel in plain Fraction arithmetic on
        # segment lists (pl_reference); equal value by value and type by
        # type, on random functions with jumps on the steps 1/q]
        rng = random.Random(4242)
        for q in (12, 35, 48, 64):
            for _ in range(8):
                f = _random_pl(rng, rng.randint(1, 9), q)
                g = _random_pl(rng, rng.randint(1, 9), q)
                c = F(rng.randint(-40, 40), rng.randint(1, 12))
                got, want = KERNELS[kernel](f, g, c)
                assert got == want, (kernel, q, f.segments, g.segments, c)
                if isinstance(want, list):
                    assert ref.types(got) == ref.types(want)
                else:
                    assert type(got) is type(want)

    def test_integral_of_every_kind(self):
        # [DERIVED: oracle = the trapezoid sum over the segments view, in
        #  Q[sqrt2] arithmetic (pl_reference); a translate and a sum
        #  integrate in integers too, and the rotation keeps the integral,
        #  so each is a Fraction]
        rng = random.Random(77)
        for _ in range(12):
            f = _random_pl(rng, rng.randint(1, 9), 35)
            terms = [f] + [_translate(f, SQRT2_MINUS_1 * k) for k in (1, 3)]
            for g, copies in ((f, 1), (terms[1], 1), (pl_sum(terms), 3)):
                got = g.integral()
                assert got == ref.integral(g.segments) == copies * f.integral()
                assert type(got) is F
        # a sum form with Q[sqrt2] data throughout, breaking at
        # (-4 + 3 sqrt2)/4, integrates to a Quad
        g = PiecewiseLinear._of(_Form(4, 5, [0, -4], [0, 3], [1, 2], [1, -1],
                                      [3, -2], "sum"))
        got = g.integral()
        assert got == ref.integral(g.segments) and type(got) is Quad


def _assert_canonical(arcs):
    """ArcSet's canonical form, which its constructor takes unchecked:
    0 <= a < b <= 1 for every arc, sorted, and apart (no arc starts where
    the one before it ends)."""
    assert all(0 <= a < b <= 1 for a, b in arcs), arcs
    assert all(b < c for (_, b), (c, _) in zip(arcs, arcs[1:])), arcs


class TestSublevelArcs:
    # [DERIVED: oracle = pl_reference.arcs, segment by segment in the data's
    #  own arithmetic; equal value by value and type by type, and in
    #  canonical form, at levels equal to segment values, where a strict
    #  comparison that should be loose (or the reverse) shows, and half a
    #  value step off them, where a floor that should be a ceiling shows]

    @staticmethod
    def _forms(rng):
        alpha = SQRT2_MINUS_1
        fs = [_random_pl(rng, rng.randint(1, 9), q)
              for q in (6, 12, 48) for _ in range(6)]
        # a doubling Birkhoff sum, and rotation sums and translates, whose
        # values are rational away from the terms' cuts
        pulled = [H]
        for _ in range(4):
            pulled.append(pulled[-1].pullback_doubling())
        fs.append(pl_sum(pulled))
        for f in fs[:4]:
            fs += [_translate(f, alpha * 3),
                   pl_sum([_translate(f, alpha * k) for k in range(3)])]
        return fs

    def test_matches_reference_at_segment_values(self):
        rng = random.Random(31)
        flat = sloped = 0  # cases with a level at a flat / sloped end
        for f in self._forms(rng):
            values = sorted({v.a if isinstance(v, Quad) else v
                             for seg in f.segments for v in seg[2:]
                             if not isinstance(v, Quad) or v.b == 0})
            levels = rng.sample(values, min(5, len(values)))
            # half a value step 1/e off a value, best a flat segment's:
            # there floor and ceil differ
            flats = [v for v in values if any(
                va == vb == v for _, _, va, vb in f.segments)] or levels
            half = F(1, 2 * f.form.e)
            levels += [rng.choice(flats) + s * half for s in (-1, 1)] \
                + [F(rng.randint(-30, 30), rng.randint(1, 7))]
            cases = [(lo, hi) for lo in levels for hi in levels if lo < hi]
            cases += [(c, None) for c in levels] + [(None, c) for c in levels]
            for lo, hi in cases:
                got = bref.ends(_arcs(f.form, lo, hi))
                want = ref.arcs(f.segments, lo, hi)
                assert got == want, (f.segments, lo, hi)
                assert ref.types(got) == ref.types(want)
                _assert_canonical(got)
                for a, b, va, vb in f.segments:
                    if va == vb and va in (lo, hi):
                        flat += 1
                    elif va in (lo, hi) or vb in (lo, hi):
                        sloped += 1
            for c in levels:  # the public readers: one level missing
                assert bref.ends(f.arcs_above(c)) \
                    == bref.ends(_arcs(f.form, c, None))
                assert bref.ends(f.arcs_below(c)) \
                    == bref.ends(_arcs(f.form, None, c))
                d = abs(c) or F(1, 3)
                assert bref.ends(f.arcs_below_abs(d)) \
                    == ref.arcs(f.segments, -d, d)
        assert flat > 0 and sloped > 0, (flat, sloped)


H = PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 16))
#: the kernels that read only xa, vu and ds of an integer form
RATIONAL_ONLY = {
    "add": lambda f: f.add(H),
    "add as argument": lambda f: H.add(f),
    "min_with": lambda f: f.min_with(H),
    "max_with as argument": lambda f: H.max_with(f),
    "transfer_doubling": lambda f: f.transfer_doubling(),
    "pl_inner": lambda f: pl_inner(H, f),
    "pullback_doubling": lambda f: f.pullback_doubling(),
    "shift": lambda f: f.shift(F(1, 3)),
    "abs_integral": lambda f: f.abs_integral(),
    "total_variation": lambda f: f.total_variation(),
    "window_reader": lambda f: f.window_reader(3),
}


def _random_segments(rng, q):
    """A rational segment list tiling [0, 1] on the steps 1/q, with jumps,
    continuous collinear runs, zero-length segments and int data."""
    xs = sorted(F(rng.randint(0, q), q) for _ in range(rng.randint(0, 9)))
    segs, v, slope = [], F(rng.randint(-9, 9), rng.randint(1, 6)), F(0)
    for a, b in zip([F(0)] + xs, xs + [F(1)]):
        roll = rng.random()
        if roll < 0.25:
            v = F(rng.randint(-9, 9), rng.randint(1, 6))  # a jump
        elif roll < 0.5:
            slope = F(rng.randint(-7, 7), rng.randint(1, 5))  # a kink
        vb = v + slope * (b - a)
        segs.append(tuple(int(t) if t.denominator == 1 and rng.random() < .5
                          else t for t in (a, b, v, vb)))
        v = vb
    return segs


def _all_ints(form):
    """Every number of an integer form is an int (no Fraction, no bool)."""
    return all(type(x) is int for x in [form.n, form.e, *form.xa, *form.xb,
                                        *form.vu, *form.vw, *form.ds])


class TestCheckingConstructor:
    def test_form_matches_fraction_reference(self):
        # [DERIVED: oracle = the checking constructor in Fraction
        #  arithmetic (pl_reference.checked_form); the integer one must
        #  build the identical form, on lists with jumps, collinear runs
        #  that it merges and zero-length segments that it drops]
        rng = random.Random(3535)
        merged = dropped = 0
        for q in (1, 2, 12, 35, 48, 64, 1000):
            for _ in range(150):
                segs = _random_segments(rng, q)
                got = PiecewiseLinear(segs).form
                assert got == ref.checked_form(segs), segs
                assert _all_ints(got)
                kept = [s for s in segs if s[0] < s[1]]
                dropped += len(kept) < len(segs)
                merged += len(got.xa) < len(kept)
        assert merged > 100 and dropped > 100

    def test_refusals_match_fraction_reference(self):
        # [DERIVED: a gap, an overlap, a list that misses 0 or 1, and an
        #  empty list are refused with the reference's messages]
        h, q = F(1, 2), F(1, 4)
        for segs in ([], [(0, h, 0, 1)], [(h, 1, 0, 1)],
                     [(0, q, 0, 1), (h, 1, 0, 1)],
                     [(0, h, 0, 1), (q, 1, 0, 1)],
                     [(0, h, 0, 1), (h, q, 2, 2), (q, 1, 0, 0)],
                     [(0, 1, 0, 1), (h, h, 0, 0), (1, 2, 0, 0)]):
            with pytest.raises(ValueError) as want:
                ref.checked_form(segs)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                PiecewiseLinear(segs)

    def test_constant_form(self):
        # [DERIVED: constant(c) builds the form the checking constructor
        #  builds from one flat segment]
        for c in (0, 3, -2, F(3, 7), F(-5, 12), True):
            got = PiecewiseLinear.constant(c).form
            assert got == PiecewiseLinear([(0, 1, F(c), F(c))]).form
            assert _all_ints(got)

    def test_abs_integral_of_doubling_sums(self):
        # [DERIVED: oracle = pl_reference.abs_integral; the doubling sums
        #  S_p of the centered hats cross 0 on segments of many distinct
        #  slopes, whose terms the kernel sums over one denominator]
        for h in (PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 8)),
                  PiecewiseLinear.hat(F(2, 3), F(1, 8), F(1, 8))):
            terms = [h.add_const(-h.integral())]
            for p in (8, 12):
                while len(terms) < p:
                    terms.append(terms[-1].pullback_doubling())
                s = pl_sum(terms)
                got = s.abs_integral()
                assert got == ref.abs_integral(s.segments)
                assert type(got) is F


class TestRefusals:
    def test_constructor_refuses_irrational_data(self):
        # [DERIVED: a position or value in Q[sqrt2], or a binary float,
        # is not rational data]
        for bad in (SQRT2_MINUS_1, 0.5):
            at_value = [(F(0), F(1, 2), bad, F(0)),
                        (F(1, 2), F(1), F(0), F(0))]
            at_position = [(F(0), bad, F(0), F(1)), (bad, F(1), F(1), F(0))]
            for segs in (at_value, at_position):
                with pytest.raises(ValueError, match="rational"):
                    PiecewiseLinear(segs)

    @pytest.mark.parametrize("kernel", RATIONAL_ONLY)
    def test_rational_kernels_refuse_summed_forms(self, kernel):
        # [DERIVED: these kernels would drop the sqrt2 parts of a sum, so
        # they refuse it: a translate by an irrational c, and a sum of one
        # with a rational form]
        translate = _translate(H, SQRT2_MINUS_1)
        for f in (translate, pl_sum([H, translate])):
            with pytest.raises(ValueError, match="rational"):
                RATIONAL_ONLY[kernel](f)

    def test_shift_refuses_an_irrational_offset(self):
        # [DERIVED: shift takes rational offsets only; an irrational one is
        # refused, never read as another number]
        with pytest.raises(TypeError):
            H.shift(SQRT2_MINUS_1)


class TestCylinderFn:
    def test_coordinate_and_indicator(self):
        # [TRIVIAL]
        c = CylinderFn.coordinate(1)
        assert c.value_on_word("01") == 1 and c.value_on_word("10") == 0
        ind = CylinderFn.word_indicator("01")
        assert ind.integral(F(1, 2)) == F(1, 4)
        assert ind.integral(F(1, 3)) == F(2, 9)

    def test_lift_invariance(self):
        # [TRIVIAL] lifting refines the table without changing values
        c = CylinderFn.coordinate(0)
        d = c.lift(3)
        for w in range(8):
            word = format(w, "03b")
            assert d.value_on_word(word) == c.value_on_word(word)
        assert d.integral(F(2, 5)) == c.integral(F(2, 5))

    def test_ops_pointwise(self):
        # [DERIVED: pointwise table oracle at the common depth]
        a = CylinderFn.coordinate(0)
        b = CylinderFn.word_indicator("11")
        for w in range(8):
            word = format(w, "03b")
            av, bv = a.value_on_word(word), b.value_on_word(word)
            assert a.add(b).value_on_word(word) == av + bv
            assert a.min_with(b).value_on_word(word) == min(av, bv)
            assert a.max_with(b).value_on_word(word) == max(av, bv)
            assert a.scale(F(5, 2)).value_on_word(word) == F(5, 2) * av
            assert a.clamp(F(1, 3)).value_on_word(word) == max(
                -F(1, 3), min(F(1, 3), av))

    def test_hat_matches_per_word_bump(self):
        # [DERIVED: oracle = the bump 1 - max(d - r, 0)/eps, clamped to
        #  [0, 1], at the Cantor distance d of each word to s]
        for s, r, eps in (("", F(1, 4), F(1, 4)), ("1", F(1, 2), F(1, 8)),
                          ("0110", F(1, 64), F(1, 16)),
                          ("10100", F(3, 40), F(1, 3)),
                          ("001", F(1, 1024), F(1, 2)),
                          ("11", F(1, 16), F(5, 2))):
            h = CylinderFn.hat(s, r, eps)
            assert h.depth >= len(s) and F(1, 1 << h.depth) <= r
            for w in range(1 << h.depth):
                d = cantor_dist(format(w, f"0{h.depth}b"), s)
                v = 1 - max(d - r, F(0)) / eps
                assert h.table[w] == max(F(0), min(F(1), v))

    def test_built_tables_match_the_checked_constructor(self):
        # [DERIVED: oracle = the checking constructor on the same table:
        #  the unchecked builds hold the same ints over the same least
        #  denominator, and their view holds 2^depth Fractions]
        def same(f):
            checked = CylinderFn(f.depth, list(f.table))
            assert (checked.den, checked.nums) == (f.den, f.nums)
            assert checked.table == f.table
            assert all(type(v) is F for v in f.table)

        for s, r, eps in (("", F(1, 4), F(1, 4)), ("0110", F(1, 64), F(1, 16)),
                          ("10100", F(3, 40), F(1, 3)),
                          ("001", F(1, 1024), F(1, 2))):
            h = CylinderFn.hat(s, r, eps)
            c = CylinderFn.coordinate(len(s))
            for f in (h, c, CylinderFn.word_indicator(s), h.lift(h.depth + 2),
                      h.add(c), h.min_with(c), h.max_with(c), h.scale(-3),
                      h.add_const(F(-1, 3)), h.clamp(F(1, 2))):
                same(f)

    def test_integral_additive_in_p(self):
        # [DERIVED: coordinate i integrates to the symbol-1 probability]
        for p in (F(1, 2), F(1, 5), F(9, 10)):
            assert CylinderFn.coordinate(2).integral(p) == p


def _view(h):
    """The table view of a built CylinderFn, after checking its integer
    form: 2^depth ints over the least positive denominator."""
    assert len(h.nums) == 1 << h.depth
    assert all(type(x) is int for x in h.nums) and type(h.den) is int
    assert h.den > 0 and math.gcd(h.den, *h.nums) == 1
    return h.table


def _sums(f, t, p):
    """S_n f in the order 1, 3, 2, 4 on one system (the kept sum extends,
    restarts, extends), as Fractions, beside the per-word sums."""
    system, got, want = shift_system(p), [], []
    for n in (1, 3, 2, 4):
        den, table = system.birkhoff_sum(f, n)
        got += [F(s, den) for s in table]
        want += cref.running_sum(t, n)
    return got, want


def _read(f, k):
    den, read = f.window_reader(k)
    return den, [read(w) for w in range(1 << k)]


#: each integer cylinder kernel beside its Fraction-table reference:
#: (f, t, g, u, c, p) -> (got, want) for f and g built by the checking
#: constructor from the tables t and u, a rational c > 0 and p
CYL_KERNELS = {
    "constructor": lambda f, t, g, u, c, p: (_view(f), t),
    "integral": lambda f, t, g, u, c, p: (f.integral(p), cref.integral(t, p)),
    "table_integral of ints": lambda f, t, g, u, c, p: (
        table_integral(cref.window_read(t, f.depth)[1], p),
        cref.integral([F(x) for x in cref.window_read(t, f.depth)[1]], p)),
    "table_integral of bools": lambda f, t, g, u, c, p: (
        table_integral([v > 0 for v in t], p),
        cref.integral([F(int(v > 0)) for v in t], p)),
    "table_integral of Fractions": lambda f, t, g, u, c, p: (
        table_integral(t, p), cref.integral(t, p)),
    "add_const": lambda f, t, g, u, c, p: (
        _view(f.add_const(-c)), [v - c for v in t]),
    "scale": lambda f, t, g, u, c, p: (_view(f.scale(c)), [c * v for v in t]),
    "scale by 0": lambda f, t, g, u, c, p: (_view(f.scale(0)),
                                            [F(0)] * len(t)),
    "scale by a negative c": lambda f, t, g, u, c, p: (
        _view(f.scale(-c)), [-c * v for v in t]),
    "clamp": lambda f, t, g, u, c, p: (_view(f.clamp(c)), cref.clamp(t, c)),
    "add": lambda f, t, g, u, c, p: (
        _view(f.add(g)), cref.pointwise(t, u, lambda x, y: x + y)),
    "min_with": lambda f, t, g, u, c, p: (_view(f.min_with(g)),
                                          cref.pointwise(t, u, min)),
    "max_with": lambda f, t, g, u, c, p: (_view(f.max_with(g)),
                                          cref.pointwise(t, u, max)),
    "lift": lambda f, t, g, u, c, p: (_view(f.lift(f.depth + 2)),
                                      cref.lift(t, f.depth + 2)),
    "sup_norm": lambda f, t, g, u, c, p: (f.sup_norm(), cref.sup(t)),
    "value_on_word": lambda f, t, g, u, c, p: (
        [f.value_on_word(w + "1") for w in cref.words(f.depth)],
        [cref.at(t, w) for w in cref.words(f.depth)]),
    "window_reader": lambda f, t, g, u, c, p: (
        _read(f, f.depth + 2), cref.window_read(t, f.depth + 2)),
    "Shift.average": lambda f, t, g, u, c, p: (
        [v for n in (1, 2, 3) for v in cref.lift(
            _view(shift_system(p).average(f, n)), n + f.depth - 1)],
        [v for n in (1, 2, 3) for v in cref.average(t, n)]),
    "running sum": lambda f, t, g, u, c, p: (
        _sums(f, t, p) if f.depth else ([], [])),
}


def _random_table(rng, d):
    """2^d rationals over denominators 1 to 1 + d % 9, the integral ones
    as ints."""
    vals = [F(rng.randint(-9, 9), rng.randint(1, 1 + d % 9))
            for _ in range(1 << d)]
    return [v.numerator if v.denominator == 1 else v for v in vals]


class TestIntegerCylinderKernels:
    @pytest.mark.parametrize("kernel", CYL_KERNELS)
    def test_matches_table_reference(self, kernel):
        # [DERIVED: oracle = the kernel word by word in plain Fraction
        #  arithmetic on tables (cyl_reference); equal value by value and
        #  type by type, at depths 0 to 10 over denominators 1 to 9]
        rng = random.Random(2323)
        for d in range(11):
            raw = _random_table(rng, d)
            f, t = CylinderFn(d, raw), [F(v) for v in raw]
            e = (7 * d + 3) % 11  # g's depth, below and above f's
            u = [F(v) for v in _random_table(rng, e)]
            g = CylinderFn(e, u)
            c = F(rng.randint(1, 20), rng.randint(1, 9))
            for p in (F(1, 2), F(1, 3), F(2, 5)):
                got, want = CYL_KERNELS[kernel](f, t, g, u, c, p)
                assert got == want, (kernel, d, p)
                if isinstance(want, list):
                    assert cref.types(got) == cref.types(want)
                else:
                    assert type(got) is type(want)


class TestFamilyF:
    def test_enumeration_deterministic(self):
        # [DERIVED: fixed dovetailing; same index, same term]
        a = enumerate_F(CIRCLE, 12)
        b = enumerate_F(CIRCLE, 12)
        assert [observable_to_json(t) for t in a] == \
            [observable_to_json(t) for t in b]
        assert a[0].kind == "one"

    def test_generators_nonconstant(self):
        # [DERIVED: every Cantor generator takes both values 0 and 1]
        for t in enumerate_F(CANTOR, 40):
            if t.kind != "gen":
                continue
            c = t.concrete(CylinderFn)
            vals = {c.value_on_word(format(w, f"0{c.depth}b"))
                    for w in range(1 << c.depth)}
            assert F(0) in vals and F(1) in vals

    def test_concretizations_agree_with_tree(self):
        # [DERIVED: FTerm evaluation commutes with concretization on a
        # lin/max/min example]
        g1 = FTerm.generator(CIRCLE, F(0), F(1, 8), F(1, 8))
        g2 = FTerm.generator(CIRCLE, F(1, 2), F(1, 8), F(1, 8))
        t = FTerm("lin", ((F(2), FTerm("max", (g1, g2))), (F(-1), g1)))
        pl = t.concrete(PiecewiseLinear)
        p1, p2 = (g.concrete(PiecewiseLinear) for g in (g1, g2))
        for i in range(64):
            x = F(i, 64)
            v1, v2 = ref.value(p1.segments, x), ref.value(p2.segments, x)
            assert ref.value(pl.segments, x) == 2 * max(v1, v2) - v1


class TestCodec:
    def test_roundtrip_all_variants(self):
        # [TRIVIAL]
        samples = [PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8)),
                   CylinderFn.word_indicator("010"),
                   enumerate_F(CIRCLE, 9)[5],
                   enumerate_F(CANTOR, 9)[5]]
        for f in samples:
            d = observable_to_json(f)
            assert observable_to_json(observable_from_json(d)) == d

    def test_unknown_variant_rejected(self):
        # [TRIVIAL]
        with pytest.raises(ValueError, match="variant"):
            observable_from_json({"variant": "mystery"})
        with pytest.raises(ValueError, match="torus"):
            observable_from_json({"variant": "fterm", "expr": {
                "op": "gen", "space": "torus", "s": "1/2", "r": "1/4",
                "eps": "1/8"}})
        # one value per breakpoint: zip would drop the extra value
        with pytest.raises(ValueError, match="breakpoints"):
            observable_from_json({"variant": "piecewise_linear",
                                  "breakpoints": ["0", "1/2"],
                                  "values": ["0", "1", "5"]})
        for payload in ([1], "x"):
            with pytest.raises(ValueError, match="an object"):
                observable_from_json(payload)
