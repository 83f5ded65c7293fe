"""Exact region algebra oracles: arc unions and cylinder unions."""

import itertools
import random
from fractions import Fraction as F

import pytest

from ergocert.arith import Quad, pow2
from ergocert.dynamics import centered, rotation_system
from ergocert.errors import UnsupportedPairError
from ergocert.observables import PiecewiseLinear
from ergocert.regions import ArcSet, CylSet, cylinder_mass
from ergocert.spaces import CANTOR, CIRCLE, IdealBall

import ball_reference as bref


def rand_arcset(rng, n=3):
    arcs = []
    for _ in range(n):
        a = F(rng.randint(0, 63), 64)
        b = a + F(rng.randint(1, 16), 64)
        arcs.append((a, b))
    return ArcSet.from_raw(arcs)


def arc_indicator(s: ArcSet, grid=256):
    """Membership of midpoints of a fine grid: a measure-exact proxy."""
    out = []
    for i in range(grid):
        x = F(2 * i + 1, 2 * grid)
        out.append(any(a < x < b for a, b in bref.ends(s)))
    return out


class TestArcSet:
    def test_normalization(self):
        # [TRIVIAL] overlapping and wrapped arcs merge, sorted output
        s = ArcSet.from_raw([(F(7, 8), F(9, 8)), (F(1, 8), F(1, 4))])
        assert bref.ends(s) == [(F(0), F(1, 4)), (F(7, 8), F(1))]
        assert s.measure() == F(3, 8)

    def test_boolean_algebra_oracle(self):
        # [DERIVED: oracle = pointwise membership on a fine dyadic grid,
        # valid because all endpoints lie on a coarser grid]
        rng = random.Random(5)
        for _ in range(300):
            s, t = rand_arcset(rng), rand_arcset(rng)
            si, ti = arc_indicator(s), arc_indicator(t)
            both = [a and b for a, b in zip(si, ti)]
            assert arc_indicator(s.intersect(t)) == both
            assert s.intersect(t).measure() == F(sum(both), 256)
            # canonical, as the ArcSet constructor trusts: no empty piece
            # where an arc of one starts at the end of an arc of the other
            arcs = bref.ends(s.intersect(t))
            assert all(a < b for a, b in arcs)
            assert all(b < c for (_, b), (c, _) in zip(arcs, arcs[1:]))

    def test_measure_is_the_fraction_sum(self):
        # [DERIVED: oracle = the sum of b - a over the arcs in Fraction (and
        #  Quad) arithmetic (ball_reference); equal value and type, so a
        #  Quad-ended set weighs to a Quad even where its sqrt2 parts
        #  cancel]
        rng = random.Random(8)
        cases = [ArcSet(1, []), ArcSet(1, [(0, 1)]),
                 ArcSet.from_raw([(F(3, 4), F(7, 4))])]
        cases += [rand_arcset(rng, rng.randint(1, 9)) for _ in range(100)]
        for _ in range(100):  # ends over unrelated denominators
            ends = sorted({F(rng.randint(0, 97), 97) * F(rng.randint(1, 60),
                                                         rng.randint(60, 99))
                           for _ in range(2 * rng.randint(1, 6))})
            cases.append(ArcSet.from_raw(zip(ends[::2], ends[1::2])))
        # with r = sqrt2/4: (r, 1/2) and (3/4, r + 1/2) over 4, whose sqrt2
        # parts cancel, and (0, 1/8) and (r, 1/2) over 8
        cases += [ArcSet(4, [(0, 2), (3, 2)], [(1, None), (None, 1)]),
                  ArcSet(8, [(0, 1), (0, 4)], [(None, None), (2, None)])]
        # the tails window_mass merges on the rotation, Quad-ended
        system = rotation_system()
        g = centered(system, PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 8)))
        for n in (1, 3, 6):
            s = system.birkhoff_sum(g, n)
            for delta in (F(1, 16), F(1, 8), F(1, 4)):
                level = n * delta
                cases.append(ArcSet.union([s.arcs_above(level),
                                           s.arcs_below(-level)]))
        quads = 0
        for s in cases:
            got = s.measure()
            want = bref.arc_length(bref.ends(s))
            assert got == want and type(got) is type(want), bref.ends(s)
            quads += type(got) is Quad
        assert cases[0].measure() == 0 and cases[1].measure() == 1
        assert quads >= 5

    def test_components_glue_wrap(self):
        # [TRIVIAL]
        s = ArcSet.from_raw([(F(7, 8), F(9, 8))])
        comps, first = s.parts
        assert len(comps) == 1 and first == [0, 1]
        assert F(comps[0][1] - comps[0][0], s.den) == F(1, 4)

    def test_rational_inner_defect(self):
        # [DERIVED: shrinking to the grid keeps a rational end, moves an
        #  irrational one inward by less than the grain, and loses less
        #  than the grain]
        a = Quad(0, F(1, 4))  # sqrt2/4, irrational
        s = ArcSet(4, [(0, 2)], [(1, None)])  # (a, 1/2)
        inner = s.to_rational_inner(pow2(20))
        assert inner.roots is None
        [(lo, hi)] = bref.ends(inner)
        assert hi == F(1, 2) and a < lo < a + pow2(20)
        assert 0 <= s.measure() - inner.measure() < pow2(20)
        # an arc shorter than the grain holds no two grid points: (a,
        # a + 2^-21), a = 2^19 sqrt2 / 2^21
        short = ArcSet(1 << 21, [(0, 1)], [(1 << 19, 1 << 19)])
        assert short.to_rational_inner(pow2(20)).spans == []

    def test_integer_form_matches_fraction_walk(self):
        # [DERIVED: oracle = ball_reference's Fraction walk, which cuts
        #  [0, 1] at every end in play and reads each cell at its midpoint,
        #  and its equal parts and first-holder scan; random unions over
        #  mixed denominators with touching arcs and arcs across 0, their
        #  meets, and rotation sublevel sets before and after their
        #  rounding to the 2^-48 grid; equal views, lengths, meets,
        #  holders and ball containments, and a Q[sqrt2]-ended set refused
        #  by meets and containment]
        rng = random.Random(46)
        raws = [[(F(0), F(1))], [(F(3, 4), F(7, 4))],
                [(F(0), F(1, 3)), (F(5, 6), F(1))]]
        for _ in range(150):
            raw, a = [], F(rng.randrange(24), 24)
            for _ in range(rng.randint(1, 4)):
                q = rng.choice([3, 8, 12, 30, 97])
                b = a + F(rng.randint(1, q // 2 + 1), q)
                raw.append((a, b))
                # the next arc touches this one, or starts anywhere
                a = b if rng.random() < 0.3 else F(rng.randrange(q), q)
            raws.append(raw)
        regions = []
        for raw in raws:
            s = ArcSet.from_raw(raw)
            assert bref.ends(s) == bref.arc_union(raw), raw
            regions.append(s)
        system = rotation_system()
        quads, exact = 0, []
        for g in (PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 8)),
                  PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))):
            g = centered(system, g)
            for n in (2, 5, 9):
                for delta in (F(1, 64), F(1, 32), F(1, 8)):
                    s = system.birkhoff_sum(g, n).arcs_below_abs(n * delta)
                    length = s.measure()
                    assert length == bref.arc_length(bref.ends(s))
                    quads += type(length) is Quad
                    exact.append(s)
                    inner = s.to_rational_inner(pow2(48))
                    assert bref.ends(inner) \
                        == bref.inner(bref.ends(s), pow2(48))
                    regions.append(inner)
        assert quads >= 10
        for s, t in zip(regions, regions[1:] + regions[:1]):
            meet = s.intersect(t)
            assert bref.ends(meet) \
                == bref.arc_meet(bref.ends(s), bref.ends(t))
            regions.append(meet)
        # a Q[sqrt2]-ended set is met and searched only once rounded
        ball = IdealBall(CIRCLE, F(1, 2), F(1, 8))
        surds = [s for s in exact if s.roots is not None]
        assert len(surds) >= 10
        for s, t in zip(surds, regions[::-1]):
            for call in (lambda: s.intersect(t), lambda: t.intersect(s),
                         lambda: s.contains_ball(ball)):
                with pytest.raises(UnsupportedPairError):
                    call()
        # unions, of Q[sqrt2]-ended sets too, as window_mass merges tails,
        # and of a set with the gaps between its arcs (all touching)
        gaps = [ArcSet(s.den, [(b, c) for (_, b), (c, _)
                               in zip(s.spans, s.spans[1:])],
                       s.roots and [(b, c) for (_, b), (c, _)
                                    in zip(s.roots, s.roots[1:])])
                for s in exact]
        for sets in zip(exact, exact[1:], gaps, regions):
            union = ArcSet.union(list(sets))
            assert bref.ends(union) == bref.arc_union(
                [arc for t in sets for arc in bref.ends(t)])
            assert union.measure() == bref.arc_length(bref.ends(union))
        held = missed = 0
        for s in regions:
            assert s.measure() == bref.arc_length(bref.ends(s))
            parts = bref.arc_balls(s)
            cands = [IdealBall(CIRCLE, b.center, b.radius * t)
                     for b in parts for t in (F(1, 3), F(1))]
            cands += [IdealBall(CIRCLE, F(rng.randrange(97), 97),
                                F(1, rng.choice([5, 16, 64])))
                      for _ in range(4)]
            for cand in cands:
                assert s.holder(cand) \
                    == bref.first_holder(CIRCLE, parts, cand)
                want = bref.arc_contains(bref.ends(s), cand)
                assert s.contains_ball(cand) == want, (s.spans, cand)
                held += want
                missed += not want
        assert held > 500 and missed > 200, (held, missed)

    def test_reference_ends_do_not_depend_on_input_order(self):
        # [DERIVED: the reference union and meet give equal ends of equal
        #  types for every order of their arcs: an end given as a Fraction
        #  and as a Quad with no sqrt2 part is a Fraction, a Q[sqrt2] end
        #  stays a Quad]
        half = Quad(F(1, 2), F(0))
        arcs = [(F(1, 8), F(1, 2)), (F(3, 8), half), (half, F(9, 16)),
                (F(5, 8), Quad(F(1, 2), F(1, 4))), (Quad(F(7, 8)), F(15, 16))]
        want = [(F(1, 8), F(9, 16)), (F(5, 8), Quad(F(1, 2), F(1, 4))),
                (F(7, 8), F(15, 16))]
        for order in itertools.permutations(arcs):
            got = bref.arc_union(list(order))
            assert got == want
            assert [tuple(map(type, e)) for e in got] \
                == [(F, F), (F, Quad), (F, F)], order
            met = bref.arc_meet(got, [(half, F(1))])
            assert met == [(F(1, 2), F(9, 16))] + want[1:]
            assert [tuple(map(type, e)) for e in met] \
                == [(F, F), (F, Quad), (F, F)], order


def cyl_indicator(s: CylSet, depth=8):
    return [s.holder(CANTOR.cylinder_ball(format(w, f"0{depth}b")))
            is not None for w in range(1 << depth)]


class TestCylSet:
    def test_antichain_and_sibling_merge(self):
        # [TRIVIAL] {0,1} merges to everything; child of kept prefix drops
        def kept(words):
            return [b.cylinder_prefix
                    for b in bref.cylinder_balls(CylSet(words))]

        assert kept(["0", "1"]) == [""]
        assert kept(["0", "01"]) == ["0"]
        assert kept(["00", "01", "10"]) == ["0", "10"]

    def test_boolean_algebra_oracle(self):
        # [DERIVED: oracle = membership table at depth 8]
        rng = random.Random(9)
        for _ in range(200):
            s = CylSet(["".join(rng.choice("01")
                                for _ in range(rng.randint(1, 6)))
                        for _ in range(4)])
            t = CylSet(["".join(rng.choice("01")
                                for _ in range(rng.randint(1, 6)))
                        for _ in range(4)])
            si, ti = cyl_indicator(s), cyl_indicator(t)
            assert cyl_indicator(s.intersect(t)) == [a and b
                                                     for a, b in zip(si, ti)]
            p = F(1, 2)
            assert s.measure(p) == F(sum(si), 256)

    def test_cylinder_mass(self):
        # [PAPER: Bernoulli(p) gives each fixed symbol its own factor]
        assert cylinder_mass("01", F(1, 3)) == F(2, 9)
        assert cylinder_mass("", F(1, 3)) == 1

    def test_canonical_form_oracle(self):
        # [DERIVED: oracle = membership table at depth 8; the kept words
        # are exactly the maximal cylinders inside the union, sorted by
        # (length, word), the mass is the table's mass, a word's cylinder
        # is contained iff its whole block is, its holder is the kept word
        # that prefixes it, at that word's place in the sorted list, and
        # the same union given as one flag byte per depth-8 word has the
        # same form, holders and mass]
        depth = 8
        rng = random.Random(17)
        weights = {p: [cylinder_mass(format(x, f"0{depth}b"), p)
                       for x in range(1 << depth)]
                   for p in (F(1, 2), F(1, 3))}

        def word(lo, hi):
            return "".join(rng.choice("01")
                           for _ in range(rng.randint(lo, hi)))

        def block(w):  # the depth-8 words extending w
            k = depth - len(w)
            base = int(w, 2) << k if w else 0
            return range(base, base + (1 << k))

        for _ in range(300):
            words = [word(0, depth) for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(0, 3)):
                # a complete sibling chain: every extension of a prefix
                # to a given depth, which must fold back into the prefix
                base = word(0, depth - 1)
                k = rng.randint(1, depth - len(base))
                words += [base + format(i, f"0{k}b")
                          for i in range(1 << k)]
            words += [w + word(1, 2) for w in rng.sample(words,
                                                         len(words) // 3)
                      if len(w) < depth - 1]  # nested prefixes
            words += rng.sample(words, len(words) // 4)  # repeats
            if rng.random() < 0.1:
                words.append("")
            rng.shuffle(words)
            inside = [False] * (1 << depth)
            for w in words:
                for x in block(w):
                    inside[x] = True

            def full(w):
                return all(inside[x] for x in block(w))

            every = [format(i, f"0{n}b") if n else ""
                     for n in range(depth + 1) for i in range(1 << n)]
            maximal = sorted((w for w in every
                              if full(w) and (not w or not full(w[:-1]))),
                             key=lambda w: (len(w), w))
            s = CylSet(words)
            t = CylSet.from_flags(depth, bytes(inside))
            for u in (s, t):
                assert [b.cylinder_prefix
                        for b in bref.cylinder_balls(u)] == maximal, words
            kept = {w: full(w) for w in every}
            assert [s.holder(CANTOR.cylinder_ball(w)) is not None
                    for w in every] == list(kept.values()), words
            # a contained word's holder is its shortest contained prefix
            place = {u: k for k, u in enumerate(maximal)}
            holders = [next((place[w[:i]], CANTOR.cylinder_ball(w[:i]))
                            for i in range(len(w) + 1)
                            if kept[w[:i]]) if kept[w] else None
                       for w in every]
            assert [s.holder(CANTOR.cylinder_ball(w)) for w in every] \
                == holders, words
            assert [t.holder(CANTOR.cylinder_ball(w)) for w in every] \
                == holders, words
            for p, weight in weights.items():
                mass = sum(m for m, hit in zip(weight, inside) if hit)
                assert s.measure(p) == mass
                assert t.measure(p) == mass

    def test_measure_is_the_cylinder_mass_sum(self):
        # [DERIVED: oracle = cylinder_mass summed over the maximal
        #  cylinders, one Fraction product each; mixed depths, biased and
        #  degenerate p]
        rng = random.Random(20)
        for _ in range(200):
            words = ["".join(rng.choice("01")
                             for _ in range(rng.randint(0, 9)))
                     for _ in range(rng.randint(0, 8))]
            s = CylSet(words)
            kept = [b.cylinder_prefix for b in bref.cylinder_balls(s)]
            for p in (F(1, 2), F(1, 3), F(2, 7), F(0), F(1)):
                assert s.measure(p) == sum(
                    (cylinder_mass(w, p) for w in kept), F(0))

    def test_large_same_depth_union_fast(self):
        # [DERIVED: construction must stay near-linear in the input size]
        words = [format(w, "016b") for w in range(0, 1 << 16, 3)]
        s = CylSet(words)
        assert s.measure(F(1, 2)) == F(len(words), 1 << 16)
