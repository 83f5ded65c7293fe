"""Observables: piecewise-linear lattice, cylinder functions, the
generated family F, and the JSON codec."""

import random
from fractions import Fraction as F

import pytest

from ergocert.arith import SQRT2_MINUS_1
from ergocert.observables import (CylinderFn, FTerm, PiecewiseLinear,
                                  enumerate_F, observable_from_json,
                                  observable_to_json, pl_inner, pl_sum)
from ergocert.spaces import CANTOR, CIRCLE


class TestPiecewiseLinear:
    def test_hat_integral(self):
        # [PAPER: the bump g_{1/2,1/4,1/8} integrates to 2r + eps = 5/8]
        h = PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))
        assert h.integral() == F(5, 8)
        assert h.eval_right(F(1, 2)) == 1
        assert h.eval_right(F(1, 2) + F(1, 4)) == 1
        assert h.eval_right(F(1, 2) + F(3, 8)) == 0
        assert h.eval_right(F(0)) == 0

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
                assert box.contains(h.eval_right(x))

    def test_lattice_ops_pointwise(self):
        # [DERIVED: oracle = pointwise evaluation on a fine grid]
        f = PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 8))
        g = PiecewiseLinear.identity()
        for i in range(64):
            x = F(i, 64)
            fx, gx = f.eval_right(x), g.eval_right(x)
            assert f.add(g).eval_right(x) == fx + gx
            assert f.min_with(g).eval_right(x) == min(fx, gx)
            assert f.max_with(g).eval_right(x) == max(fx, gx)
            assert f.scale(F(-2, 3)).eval_right(x) == F(-2, 3) * fx
            assert f.add_const(F(1, 5)).eval_right(x) == fx + F(1, 5)
            assert f.add_const(F(-1, 2)).abs().eval_right(x) == abs(
                fx - F(1, 2))

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
            fx = f.eval_right(x)
            inside = any(a < x < b for a, b in below.arcs)
            assert inside == (abs(fx) < F(1, 4)) or abs(fx) == F(1, 4)
            inside = any(a < x < b for a, b in above.arcs)
            assert inside == (fx > F(1, 4)) or fx == F(1, 4)
        # segments constant at exactly +-delta are not in either set
        g = PiecewiseLinear([(F(0), F(1, 4), F(1, 4), F(1, 4)),
                             (F(1, 4), F(1, 2), F(1, 4), F(-1, 4)),
                             (F(1, 2), F(3, 4), F(-1, 4), F(-1, 4)),
                             (F(3, 4), F(1), F(-1, 4), F(1, 4))])
        assert g.arcs_below_abs(F(1, 4)).arcs == [(F(1, 4), F(1, 2)),
                                                  (F(3, 4), F(1))]
        assert g.arcs_above(F(1, 4)).arcs == []
        assert g.arcs_above(F(-1, 4)).arcs == [(F(0), F(1, 2)),
                                               (F(3, 4), F(1))]

    def test_sum_of_many_terms_pointwise(self):
        # [DERIVED: oracle = the terms evaluated one by one at every
        # breakpoint and midpoint]
        h = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))
        ident = PiecewiseLinear.identity()
        families = [
            # doubling pullbacks of the identity: a jump at each k/2^i
            [ident, ident.pullback_doubling(),
             ident.pullback_doubling().pullback_doubling()],
            # coinciding breakpoints, and a function added to itself
            [h, h, h.pullback_doubling(), h.scale(F(-1, 2))],
            # rotation shifts: Q[sqrt2] breakpoints
            [h] + [h.shift(SQRT2_MINUS_1 * i) for i in range(1, 5)],
            [ident, ident.shift(SQRT2_MINUS_1), h.shift(-SQRT2_MINUS_1)],
        ]
        for terms in families:
            total = pl_sum(terms)
            xs = sorted({s[0] for t in terms + [total] for s in t.segments})
            xs += [(u + v) / 2 for u, v in zip(xs, xs[1:] + [F(1)])]
            for x in xs:
                assert total.eval_right(x) == sum(t.eval_right(x)
                                                  for t in terms)

    def test_inner_product_by_polarization(self):
        # [DERIVED: <f,g> = (||f+g||^2 - ||f-g||^2) / 4]
        h = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))
        fs = [h, PiecewiseLinear.identity(), h.pullback_doubling(),
              h.shift(SQRT2_MINUS_1), PiecewiseLinear.constant(F(2, 3))]
        for f in fs:
            for g in fs:
                want = (f.add(g).square_integral()
                        - f.add(g.scale(-1)).square_integral()) / 4
                assert pl_inner(f, g) == want


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

    def test_integral_additive_in_p(self):
        # [DERIVED: coordinate i integrates to the symbol-1 probability]
        for p in (F(1, 2), F(1, 5), F(9, 10)):
            assert CylinderFn.coordinate(2).integral(p) == p


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
            c = t.to_cylinder()
            vals = {c.value_on_word(format(w, f"0{c.depth}b"))
                    for w in range(1 << c.depth)}
            assert F(0) in vals and F(1) in vals

    def test_sup_norm_bound_sound(self):
        # [DERIVED: tree bound dominates the concrete sup norm]
        for t in enumerate_F(CIRCLE, 30):
            assert t.to_piecewise_linear().sup_norm() <= t.sup_norm_bound()
        for t in enumerate_F(CANTOR, 30):
            assert t.to_cylinder().sup_norm() <= t.sup_norm_bound()

    def test_concretizations_agree_with_tree(self):
        # [DERIVED: FTerm evaluation commutes with concretization on a
        # lin/max/min example]
        g1 = FTerm.generator(CIRCLE, F(0), F(1, 8), F(1, 8))
        g2 = FTerm.generator(CIRCLE, F(1, 2), F(1, 8), F(1, 8))
        t = FTerm("lin", ((F(2), FTerm("max", (g1, g2))), (F(-1), g1)))
        pl = t.to_piecewise_linear()
        p1, p2 = g1.to_piecewise_linear(), g2.to_piecewise_linear()
        for i in range(64):
            x = F(i, 64)
            want = 2 * max(p1.eval_right(x), p2.eval_right(x)) \
                - p1.eval_right(x)
            assert pl.eval_right(x) == want


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
