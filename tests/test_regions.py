"""Exact region algebra oracles: arc unions and cylinder unions."""

import random
from fractions import Fraction as F

from ergocert.arith import Quad, pow2
from ergocert.dynamics import centered, rotation_system
from ergocert.observables import PiecewiseLinear
from ergocert.regions import ArcSet, CylSet, cylinder_mass
from ergocert.spaces import CANTOR


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
        out.append(any(a < x < b for a, b in s.arcs))
    return out


class TestArcSet:
    def test_normalization(self):
        # [TRIVIAL] overlapping and wrapped arcs merge, sorted output
        s = ArcSet.from_raw([(F(7, 8), F(9, 8)), (F(1, 8), F(1, 4))])
        assert s.arcs == [(F(0), F(1, 4)), (F(7, 8), F(1))]
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
            # canonical, as `ArcSet._canonical` trusts: no empty piece
            # where an arc of one starts at the end of an arc of the other
            arcs = s.intersect(t).arcs
            assert all(a < b for a, b in arcs)
            assert all(b < c for (_, b), (c, _) in zip(arcs, arcs[1:]))

    def test_measure_is_the_fraction_sum(self):
        # [DERIVED: oracle = the sum of b - a over the arcs in Fraction (and
        #  Quad) arithmetic; equal value and type, so a Quad-ended set
        #  weighs to a Quad even where its sqrt2 parts cancel]
        rng = random.Random(8)
        cases = [ArcSet(), ArcSet([(F(0), F(1))]),
                 ArcSet.from_raw([(F(3, 4), F(7, 4))])]
        cases += [rand_arcset(rng, rng.randint(1, 9)) for _ in range(100)]
        for _ in range(100):  # ends over unrelated denominators
            ends = sorted({F(rng.randint(0, 97), 97) * F(rng.randint(1, 60),
                                                         rng.randint(60, 99))
                           for _ in range(2 * rng.randint(1, 6))})
            cases.append(ArcSet(zip(ends[::2], ends[1::2])))
        root = Quad(0, F(1, 4))  # sqrt2/4
        cases += [ArcSet([(root, F(1, 2)), (F(3, 4), root + F(1, 2))]),
                  ArcSet([(F(0), F(1, 8)), (root, F(1, 2))])]
        # the tails window_mass merges on the rotation, Quad-ended
        system = rotation_system()
        g = centered(system, PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 8)))
        for n in (1, 3, 6):
            s = system.birkhoff_sum(g, n)
            for delta in (F(1, 16), F(1, 8), F(1, 4)):
                level = n * delta
                cases.append(ArcSet(s.arcs_above(level).arcs
                                    + s.arcs_below(-level).arcs))
        quads = 0
        for s in cases:
            got = s.measure()
            want = sum((b - a for a, b in s.arcs), F(0))
            assert got == want and type(got) is type(want), s.arcs
            quads += type(got) is Quad
        assert cases[0].measure() == 0 and cases[1].measure() == 1
        assert quads >= 5

    def test_components_glue_wrap(self):
        # [TRIVIAL]
        s = ArcSet.from_raw([(F(7, 8), F(9, 8))])
        comps = s.components()
        assert len(comps) == 1 and comps[0][1] - comps[0][0] == F(1, 4)

    def test_rational_inner_defect(self):
        # [DERIVED: shrinking to the grid keeps a rational end, moves an
        #  irrational one inward by less than the grain, and loses less
        #  than the grain]
        a = Quad(0, F(1, 4))  # sqrt2/4, irrational
        s = ArcSet([(a, F(1, 2))])
        inner = s.to_rational_inner(pow2(20))
        assert all(isinstance(e, F) for arc in inner.arcs for e in arc)
        [(lo, hi)] = inner.arcs
        assert hi == F(1, 2) and a < lo < a + pow2(20)
        assert 0 <= s.measure() - inner.measure() < pow2(20)
        # an arc shorter than the grain holds no two grid points
        assert ArcSet([(a, a + pow2(21))]).to_rational_inner(pow2(20)) \
            .arcs == []


def cyl_indicator(s: CylSet, depth=8):
    return [s.holder(CANTOR.cylinder_ball(format(w, f"0{depth}b")))
            is not None for w in range(1 << depth)]


class TestCylSet:
    def test_antichain_and_sibling_merge(self):
        # [TRIVIAL] {0,1} merges to everything; child of kept prefix drops
        assert CylSet(["0", "1"]).prefixes == [""]
        assert CylSet(["0", "01"]).prefixes == ["0"]
        assert CylSet(["00", "01", "10"]).prefixes == ["0", "10"]

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
            assert s.prefixes == maximal, words
            assert t.prefixes == maximal, words
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
            for p in (F(1, 2), F(1, 3), F(2, 7), F(0), F(1)):
                assert s.measure(p) == sum(
                    (cylinder_mass(w, p) for w in s.prefixes), F(0))

    def test_large_same_depth_union_fast(self):
        # [DERIVED: construction must stay near-linear in the input size]
        words = [format(w, "016b") for w in range(0, 1 << 16, 3)]
        s = CylSet(words)
        assert s.measure(F(1, 2)) == F(len(words), 1 << 16)
