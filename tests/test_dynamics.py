"""Dynamics: exact Birkhoff averages, norms, deviation regions, measure
preservation, certified orbit evaluation."""

import json
import math
import random
from fractions import Fraction as F
from operator import sub
from pathlib import Path

import pytest

from ergocert import dynamics
from ergocert.arith import SQRT2_MINUS_1, Quad, mod1, pow2
from ergocert.dynamics import (CORRELATION_CUTOFF, birkhoff_eval,
                               birkhoff_observable, builtin_systems, centered,
                               deviation_region, doubling_correlations,
                               doubling_system, integral, l2_sq_enclosure,
                               l_norm_birkhoff, parse_system, rotation_system,
                               shift_system)
from ergocert.errors import (BudgetExceededError, InputError,
                             UnsupportedPairError)
from ergocert.measures import region_measure
from ergocert.observables import (CylinderFn, PiecewiseLinear, _arcs, _ends,
                                  observable_from_json, pl_inner, pl_sum)
from ergocert.regions import ArcSet, CylSet, cylinder_mass
from ergocert.spaces import (CANTOR, CIRCLE, CantorPoint, CirclePoint,
                             IdealBall)
import ball_reference as bref
import cyl_reference as cref
import pl_reference as ref
from test_observables import _assert_normal_form

FIRSTBIT = CylinderFn.coordinate(0)
SHIFT = shift_system(F(1, 2))
DBL = doubling_system()
ROT = rotation_system()
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def shift_l1_oracle(system, f, p):
    """Independent exact L1 norm of A_p(f - mean) by enumerating every
    word that the average can read."""
    mean = integral(system, f)
    d = p + f.depth - 1 if f.depth else p
    tot = F(0)
    for w in range(1 << d):
        word = format(w, f"0{d}b")
        a = sum(f.value_on_word(word[i:]) for i in range(p)) / F(p)
        tot += cylinder_mass(word, system.p) * abs(a - mean)
    return tot


class TestNorms:
    def test_shift_firstbit_examples(self):
        # [PAPER: ||A_2(f - 1/2)||_1 = 1/4 for the first-bit observable]
        assert l_norm_birkhoff(SHIFT, FIRSTBIT, 2) == F(1, 4)
        assert l_norm_birkhoff(SHIFT, FIRSTBIT, 1) == F(1, 2)

    def test_shift_norm_oracle(self):
        # [DERIVED: full-word enumeration oracle, every p + k - 1 <= 12]
        signed = CylinderFn(3, [F(v, 3) for v in (2, -1, 0, 4, -3, 1, 1, -2)])
        for system in (SHIFT, shift_system(F(1, 3))):
            for f in (FIRSTBIT, CylinderFn.word_indicator("01"), signed):
                for p in range(1, 14 - f.depth):
                    assert l_norm_birkhoff(system, f, p) == \
                        shift_l1_oracle(system, f, p)

    def test_p_below_one_rejected(self):
        # [TRIVIAL]
        for system, f in ((SHIFT, FIRSTBIT), (DBL, PiecewiseLinear.identity()),
                          (ROT, PiecewiseLinear.identity())):
            with pytest.raises(InputError):
                l_norm_birkhoff(system, f, 0)

    def test_doubling_identity_example(self):
        # [PAPER: ||x - 1/2||_1 = 1/4]
        assert l_norm_birkhoff(DBL, PiecewiseLinear.identity(), 1) \
            == F(1, 4)

    def test_shift_l2_iid_closed_form(self):
        # [DERIVED: iid variance scaling Var(A_p) = Var(f)/p, here 1/(4p)]
        for p in range(1, 8):
            box = l2_sq_enclosure(p, SHIFT.correlations(FIRSTBIT))
            assert box.lo == box.hi == F(1, 4 * p)

    def test_doubling_l2_direct(self):
        # [DERIVED: oracle = exact square integral of the explicit average]
        f = PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8))
        for p in (1, 2, 3, 5):
            a = birkhoff_observable(DBL, centered(DBL, f), p)
            box = l2_sq_enclosure(p, DBL.correlations(f))
            assert box.contains(a.square_integral())

    def test_l1_l2_sup_cross_check(self):
        # [PAPER: ||g||_1 <= ||g||_2 <= ||g||_inf on a probability space,
        #  for g = A_p fbar read by three independent kernels: the exact L1
        #  norm, the correlation enclosure of the squared L2 norm and the
        #  sup of the built average; the pool observables of the shifts
        #  and the doubling map, every p <= 12]
        shift_pool = [FIRSTBIT, CylinderFn.word_indicator("01"),
                      CylinderFn.coordinate(1)]
        cases = [(SHIFT, shift_pool), (shift_system(F(1, 3)), shift_pool),
                 (DBL, list(TestCorrelations.POOL.values()))]
        for system, pool in cases:
            for f in pool:
                corr = system.correlations(f)
                fbar = centered(system, f)
                for p in range(1, 13):
                    box = l2_sq_enclosure(p, corr)
                    sup = birkhoff_observable(system, fbar, p).sup_norm()
                    assert l_norm_birkhoff(system, f, p) ** 2 <= box.hi, \
                        (system.name, f, p)
                    assert box.lo <= sup ** 2, (system.name, f, p)

    def test_budget_guard(self):
        # [DERIVED: segment count doubles per step and must be capped]
        with pytest.raises(BudgetExceededError):
            birkhoff_observable(DBL, PiecewiseLinear.identity(), 40)

    def test_subadditive_chain_small(self):
        # [DERIVED: ||A_{np+k}||_1 <= ||A_p||_1 + ||f||_1 / n, small cases]
        fbar_l1 = l_norm_birkhoff(SHIFT, FIRSTBIT, 1)
        for p in (1, 2, 3):
            base = l_norm_birkhoff(SHIFT, FIRSTBIT, p)
            for n in (1, 2, 3):
                for k in range(p):
                    if n * p + k < 1:
                        continue
                    lhs = l_norm_birkhoff(SHIFT, FIRSTBIT, n * p + k)
                    assert lhs <= base + fbar_l1 / n


class TestDeviationRegions:
    def test_shift_example(self):
        # [PAPER: |A_2(firstbit - 1/2)| < 1/4 exactly on words 01, 10]
        r = deviation_region(SHIFT, FIRSTBIT, 2, F(1, 4))
        assert sorted(r.prefixes) == ["01", "10"]
        assert r.measure(F(1, 2)) == F(1, 2)

    def test_shift_region_matches_table(self):
        # [DERIVED: oracle = the exact average's own table, |A_n fbar| <
        # delta word by word, strict at equality; biased p, depth 0]
        for p in (F(1, 2), F(1, 3)):
            system = shift_system(p)
            for f in (FIRSTBIT, CylinderFn(2, [F(1), F(-2), F(1, 3), F(0)]),
                      CylinderFn.constant(F(1, 2))):
                for n in (1, 2, 3, 5):
                    a = birkhoff_observable(system, centered(system, f), n)
                    for delta in (F(1, 2), F(1, 4), F(2, 3)):
                        r = deviation_region(system, f, n, delta)
                        words = [format(w, f"0{a.depth}b") if a.depth
                                 else "" for w in range(1 << a.depth)]
                        inside = [abs(v) < delta for v in a.table]
                        assert [r.holder(CANTOR.cylinder_ball(w)) is not None
                                for w in words] == inside
                        assert r.measure(p) == sum(
                            cylinder_mass(w, p)
                            for w, hit in zip(words, inside) if hit)

    def test_doubling_example(self):
        # [PAPER: |x - 1/2| < 1/8 is the arc (3/8, 5/8)]
        r = deviation_region(DBL, PiecewiseLinear.identity(), 1, F(1, 8))
        assert r.arcs == [(F(3, 8), F(5, 8))]

    def test_region_measure_matches_pointwise(self):
        # [DERIVED: oracle = pointwise |A_n fbar| on a fine grid]
        f = PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 8))
        for n in (1, 2, 3):
            a = birkhoff_observable(DBL, centered(DBL, f), n)
            r = deviation_region(DBL, f, n, F(1, 8))
            for i in range(256):
                x = F(2 * i + 1, 512)
                inside = any(lo < x < hi for lo, hi in r.arcs)
                v = abs(a.eval_right(x))
                if v < F(1, 8):
                    assert inside
                if inside:
                    assert v <= F(1, 8)

    def test_witnesses_cover_region(self):
        # [DERIVED: the witnesses of balls at the reference parts' centres
        #  are every part, in order, and reproduce the region measure]
        f = PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8))
        region = deviation_region(DBL, f, 2, F(1, 4))
        assert all(type(x) is F for arc in region.arcs for x in arc)
        parts = bref.arc_balls(region)
        found = [region.holder(IdealBall(CIRCLE, b.center, b.radius / 2))
                 for b in parts]
        assert found == list(enumerate(parts))
        assert sum(2 * b.radius for _, b in found) == region.measure()

    def test_shift_sublevel_is_the_per_word_filter(self):
        # [DERIVED: oracle = the words of the integer table den S_n kept
        #  one by one where |S_n| < n delta den; each (g, n) also takes a
        #  delta at a table value, |S_n| = n delta, which must stay out]
        rng = random.Random(41)
        on_boundary = 0
        for p in (F(1, 2), F(1, 3)):
            system = shift_system(p)
            for _ in range(15):
                k = rng.randint(1, 5)
                g = centered(system, CylinderFn(k, [
                    F(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(1 << k)]))
                for n in (1, 2, 4, 7):
                    den, table = system.birkhoff_sum(g, n)
                    s = rng.choice([v for v in table if v] or [1])
                    for delta in (F(abs(s), den * n), F(1, 4),
                                  F(rng.randint(1, 9), rng.randint(1, 9))):
                        want = [w for w, v in enumerate(table)
                                if abs(v) < n * delta * den]
                        on_boundary += s in table and \
                            table.index(s) not in want
                        got = system.sublevel(g, n, delta)
                        assert got.depth == n + k - 1
                        assert [w for a, b in got.runs
                                for w in range(a, b)] == want, (g, n, delta)
        assert on_boundary >= 100

    def test_circle_witnesses_are_checked_balls(self):
        # [DERIVED: oracle = the decomposition of each arc into the fewest
        #  equal parts shorter than 1/2, found by counting parts up, with
        #  checked balls (ball_reference); a ball at each part's centre has
        #  that part and its position as witness, equal in ==, hash and
        #  JSON, arcs across 0 and arcs of width 1/2 and above included]
        rng = random.Random(43)
        for _ in range(200):
            starts = [F(rng.randint(0, 31), 32)
                      for _ in range(rng.randint(1, 3))]
            region = ArcSet.from_raw([(a, a + F(rng.randint(1, 40), 32))
                                      for a in starts])
            for k, b in enumerate(bref.arc_balls(region)):
                _assert_same_witness(
                    region.holder(IdealBall(CIRCLE, b.center, b.radius / 3)),
                    (k, b))


def _corpus_windows(kind):
    """(system, f, n, delta) of every non-trivial window, each once, that
    the corpus's synthesized and typical points on a `kind` system record;
    f is the recorded observable in the system's concrete class."""
    out = {}
    for path in sorted(CORPUS.glob("synth_*.json")) \
            + sorted(CORPUS.glob("typical_*.json")):
        d = json.loads(path.read_text())
        system = parse_system(d["system"])
        if not isinstance(system, kind):
            continue
        for c in d["certs"]:
            if not c["trivial"]:
                key = d["system"], json.dumps(c["observable"]), c["n"], \
                    c["delta"]
                out[key] = (system, system.as_concrete(
                    observable_from_json(c["observable"])), c["n"],
                    F(c["delta"]))
    assert out
    return list(out.values())


def _ref_average(segs, orbit):
    """The mean of segs - integral(segs), a segment list (pl_reference),
    over the points of `orbit`, each read on the segment that holds it."""
    mean = ref.integral(segs)
    return sum((ref.lerp(*next(s for s in segs if s[0] <= y < s[1]), y)
                - mean for y in orbit), F(0)) / len(orbit)


def _ref_region_test(system, f, n, delta, x) -> bool:
    """|A_n(f - integral f)(x)| < delta, along the orbit of x taken
    point by point."""
    if isinstance(system, dynamics.Rotation):
        orbit = [mod1(x + system.alpha * i) for i in range(n)]
    else:
        orbit = [mod1(x * 2 ** i) for i in range(n)]
    return ref.mag(_ref_average(f.segments, orbit)) < delta


class TestCorpusDeviationRegions:
    # [DERIVED: oracle = independent references (cyl_reference,
    #  pl_reference) over every non-trivial window of the corpus's
    #  synthesized and typical points: the region that synthesis draws
    #  from and replay rebuilds is the deviation set, exactly on the shift
    #  and the doubling map, rounded inward on the rotation]

    def test_shift_region_is_the_per_word_filter(self):
        for system, f, n, delta in _corpus_windows(dynamics.Shift):
            t = f.table
            mean = cref.integral(t, system.p)
            sums = cref.running_sum([v - mean for v in t], n)
            assert len(sums) <= 1 << 16
            words = cref.words(cref.depth(sums))
            r = deviation_region(system, f, n, delta)
            assert [r.holder(CANTOR.cylinder_ball(w)) is not None
                    for w in words] \
                == [abs(s) < n * delta for s in sums], (f, n, delta)

    def test_doubling_arcs_in_and_gaps_out(self):
        for system, f, n, delta in _corpus_windows(dynamics.Doubling):
            arcs = deviation_region(system, f, n, delta).arcs
            assert all(type(x) is F for arc in arcs for x in arc)
            # from each arc's end to the next arc's start, around the circle
            starts = [a for a, _ in arcs[1:]] + [a + 1 for a, _ in arcs[:1]]
            gaps = list(zip([b for _, b in arcs], starts)) or [(F(0), F(1))]
            for a, b in arcs:
                assert _ref_region_test(system, f, n, delta, (a + b) / 2)
            for a, b in gaps:
                if a < b:
                    assert not _ref_region_test(system, f, n, delta,
                                                mod1((a + b) / 2))

    def test_rotation_region_rounds_the_exact_arcs_inward(self):
        # the exact arcs end at Q[sqrt2] points (at rational ones for
        # n = 1); each keeps all but less than 2 * 2^-48 of itself, and
        # the region's balls have rational witnesses
        irrational = 0
        for system, f, n, delta in _corpus_windows(dynamics.Rotation):
            region = deviation_region(system, f, n, delta)
            exact = system.birkhoff_sum(centered(system, f), n) \
                .arcs_below_abs(n * delta).arcs
            irrational += any(isinstance(x, Quad) for arc in exact
                              for x in arc)
            assert all(type(x) is F for arc in region.arcs for x in arc)
            for a, b in region.arcs:
                assert _ref_region_test(system, f, n, delta, (a + b) / 2)
                assert sum(lo <= a and b <= hi for lo, hi in exact) == 1
            for lo, hi in exact:
                kept = sum((b - a for a, b in region.arcs
                            if lo <= a and b <= hi), F(0))
                assert hi - lo - kept < 2 * pow2(48), (f, n, delta)
            for k, b in enumerate(bref.arc_balls(region)):
                assert region.holder(IdealBall(
                    CIRCLE, b.center, b.radius / 2)) == (k, b)
        assert irrational  # some window is rounded


def _assert_same_witness(got, want):
    """(position, ball) pairs equal in ==, and their balls in hash and
    JSON."""
    assert got == want
    if want is not None:
        assert hash(got[1]) == hash(want[1])
        assert got[1].to_json() == want[1].to_json()


class TestWitness:
    def test_cantor_witness_is_the_first_holder(self):
        # [DERIVED: oracle = the first-holder scan over the reference
        #  maximal cylinders (ball_reference); unions of depth 0-9, empty
        #  and full among them, at p = 1/2 and 1/3; candidates on every
        #  maximal cylinder, shallower than it (across its ends) and
        #  deeper than the union, and random words; equal in ==, hash and
        #  JSON]
        rng = random.Random(44)

        def word(n):
            return format(rng.randrange(1 << n), f"0{n}b") if n else ""

        found = missed = 0
        for p in (F(1, 2), F(1, 3)):
            system = shift_system(p)
            regions = [CylSet(), CylSet([""]), CylSet(["0", "1"]),
                       CylSet([word(9)])]
            for _ in range(120):
                d = rng.randint(0, 9)
                regions.append(CylSet(word(rng.randint(0, d))
                                      for _ in range(rng.randint(0, 12))))
            for region in regions:
                parts = bref.cylinder_balls(region)
                words = {b.cylinder_prefix for b in parts}
                cands = {w + x for w in words for x in ("", "1", "011")}
                cands |= {w[:-1] for w in words if w}
                cands |= {word(rng.randint(0, region.depth + 3))
                          for _ in range(12)}
                for w in sorted(cands):
                    cand = CANTOR.cylinder_ball(w)
                    want = bref.first_holder(CANTOR, parts, cand)
                    _assert_same_witness(region.holder(cand), want)
                    found += want is not None
                    missed += want is None
        assert found > 2000 and missed > 500, (found, missed)

    def test_circle_witness_is_the_first_holder(self):
        # [DERIVED: oracle = the first-holder scan over the reference
        #  equal parts (ball_reference); arcs across 0, arcs 1/2 wide and
        #  more (2-3 parts), the full circle as a region; candidates
        #  centred on part ends (arc ends among them) and on part centres,
        #  narrower and wider than the part, and random ones; equal in ==,
        #  hash and JSON]
        rng = random.Random(45)
        regions = [ArcSet(), ArcSet([(F(0), F(1))]),
                   ArcSet.from_raw([(F(3, 4), F(5, 4))]),
                   ArcSet.from_raw([(F(7, 8), F(13, 8))])]
        for _ in range(150):
            q = rng.choice([8, 12, 30, 32])
            regions.append(ArcSet.from_raw(
                [(a, a + F(rng.randint(1, 2 * q), 2 * q))
                 for a in (F(rng.randrange(q), q)
                           for _ in range(rng.randint(1, 3)))]))
        found = missed = split = 0
        for region in regions:
            parts = bref.arc_balls(region)
            split += len(parts) > len(region.components())
            centres = {mod1(b.center + s * b.radius)
                       for b in parts for s in (-1, 0, 1)}
            centres |= {F(rng.randrange(96), 96) for _ in range(4)}
            radii = {b.radius * t for b in parts[:2]
                     for t in (F(1, 4), F(1, 1), F(2))} | {F(1, 1024)}
            for x in sorted(centres):
                for r in sorted(radii):
                    cand = IdealBall(CIRCLE, x, r)
                    want = bref.first_holder(CIRCLE, parts, cand)
                    _assert_same_witness(region.holder(cand), want)
                    found += want is not None
                    missed += want is None
        assert split > 20 and found > 1000 and missed > 1000, \
            (split, found, missed)

    def test_circle_witness_refuses_irrational_ends(self):
        # [DERIVED: a region with Q[sqrt2] ends has no equal rational
        #  parts, so asking it for a witness is refused with a typed error
        #  (never an AttributeError from a Quad without a numerator)]
        hat = PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))
        region = ROT.birkhoff_sum(centered(ROT, hat), 3) \
            .arcs_below_abs(F(3, 4))
        assert any(isinstance(x, Quad) for arc in region.arcs for x in arc)
        with pytest.raises(UnsupportedPairError):
            region.holder(IdealBall(CIRCLE, F(1, 2), F(1, 64)))


class TestMeasurePreservation:
    def test_average_keeps_integral(self):
        # [PAPER: mu is T-invariant, so integral(g o T^i) = integral(g) and
        #  every Birkhoff average A_n g has the integral of g; exact on
        #  every built-in system and on a biased shift]
        hats = [PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 8)),
                PiecewiseLinear.hat(F(2, 3), F(1, 5), F(1, 7)).add_const(-1)]
        tables = [FIRSTBIT, CylinderFn(2, [F(1), F(-2), F(1, 3), F(0)]),
                  CylinderFn.word_indicator("101")]
        for system in builtin_systems() + [shift_system(F(1, 3))]:
            obs = tables if system.concrete is CylinderFn else hats
            for g in obs:
                for n in (2, 3, 5):
                    assert system.integral(system.average(g, n)) \
                        == system.integral(g)

    def test_system_weighs_by_its_invariant_measure(self):
        # [DERIVED: a system weighs cylinders as its own integral does,
        #  and gives the whole space mass 1]
        for system in builtin_systems() + [shift_system(F(1, 3))]:
            assert region_measure(
                system, system.region(system.space.cover())) == 1
            if system.concrete is CylinderFn:
                p = system.p
                assert system.label == f"bernoulli({p.numerator}/" \
                    f"{p.denominator})"
                for word in ("0", "1", "101", "0110"):
                    ball = system.space.cylinder_ball(word)
                    assert region_measure(system, system.region([ball])) \
                        == system.integral(CylinderFn.word_indicator(word)) \
                        == cylinder_mass(word, p)
            else:
                assert system.label == "lebesgue"


class TestOrbitEvaluation:
    def test_doubling_rational_orbit_average(self):
        # [DERIVED: orbit of 1/3 is 2-periodic: 1/3 <-> 2/3]
        f = PiecewiseLinear.identity()
        x = CirclePoint.from_rational(F(1, 3))
        box = birkhoff_eval(DBL, f, x, 4, 20)
        assert box.width <= F(1, 1 << 20)
        assert box.contains(F(1, 2))  # (1/3 + 2/3 + 1/3 + 2/3)/4

    def test_rotation_eval_consistent(self):
        # [DERIVED: enclosures at different precisions must intersect and
        # meet the width contract]
        f = PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))
        x = CirclePoint.from_rational(F(0))
        a = birkhoff_eval(ROT, f, x, 16, 8)
        b = birkhoff_eval(ROT, f, x, 16, 16)
        assert a.width <= F(1, 256) and b.width <= F(1, 1 << 16)
        assert a.intersect(b) is not None

    def test_shift_eval_exact(self):
        # [DERIVED: symbolic orbit makes the average a point interval]
        x = CantorPoint.from_word("0110" * 4)
        box = birkhoff_eval(SHIFT, FIRSTBIT, x, 8, 0)
        assert box.width == 0 and box.lo == F(1, 2)


class TestSystems:
    def test_selectors_roundtrip(self):
        # [TRIVIAL]
        for s in builtin_systems():
            assert parse_system(s.selector()).selector() == s.selector()

    def test_integrals(self):
        # [PAPER: coordinate integrates to p; identity to 1/2]
        assert integral(shift_system(F(1, 3)), FIRSTBIT) == F(1, 3)
        assert integral(DBL, PiecewiseLinear.identity()) == F(1, 2)
        assert integral(ROT, PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))) \
            == F(5, 8)


def _fresh(g):
    """An equal observable that is a new object."""
    if isinstance(g, CylinderFn):
        return CylinderFn(g.depth, list(g.table))
    return PiecewiseLinear(list(g.segments))


def _shift_matches(g, n, a) -> bool:
    """A_n g on every word it reads, by enumeration."""
    d = n + g.depth - 1
    words = [format(w, f"0{d}b") for w in range(1 << d)]
    return a.table == [sum(g.value_on_word(w[i:]) for i in range(n)) / F(n)
                       for w in words]


def _circle_matches(orbit):
    def matches(g, n, a) -> bool:
        # a is linear on each segment: read it at the start and midpoint
        return all(sum(g.eval_right(orbit(x, i)) for i in range(n)) == n * v
                   for lo, hi, va, vb in a.segments
                   for x, v in ((lo, va), ((lo + hi) / 2, (va + vb) / 2)))
    return matches


HATS = (PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 8)),
        PiecewiseLinear.hat(F(2, 3), F(1, 8), F(1, 8)))


class TestRunningSum:
    # [DERIVED: every order of requests must give the A_n of a direct
    # reference; one request past the budget leaves the kept sum alone]
    CASES = {
        "shift": (lambda: shift_system(F(1, 3)),
                  (CylinderFn.word_indicator("01"),
                   CylinderFn.word_indicator("10")), _shift_matches, 24),
        "doubling": (doubling_system, HATS,
                     _circle_matches(lambda x, i: x * (1 << i) % 1), 30),
        "rotation": (rotation_system, HATS,
                     _circle_matches(lambda x, i: mod1(x + ROT.alpha * i)),
                     1 << 20),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_orders_and_budget(self, name):
        make, (g, h), matches, over = self.CASES[name]
        system = make()
        assert integral(system, g) == integral(system, h)
        steps = []
        extend = system._extend
        system._extend = lambda f, state, m, n: \
            steps.append((m, n)) or extend(f, state, m, n)

        def check(f, n):
            assert matches(f, n, birkhoff_observable(system, _fresh(f), n))

        for n in range(1, 9):
            check(g, n)
        # an equal observable built anew extends the kept sum by one term
        assert steps == [(m, m + 1) for m in range(8)]
        for n in range(8, 0, -1):
            check(g, n)
        for n in range(1, 9):
            check(g, n)
            check(h, n)
        kept = system._slot
        with pytest.raises(BudgetExceededError):
            birkhoff_observable(system, _fresh(h), over)
        assert system._slot is kept
        for n in (8, 3, 9):
            check(h, n)


class TestPartialSumLaw:
    # [DERIVED: oracle = word-by-word enumeration (cyl_reference) for
    # n + k <= 13, at p = 1/2, 1/3 and 2/5, on the shift pool observables,
    # a constant and seeded random depth-3 tables: every deviation mass
    # is 1 - mu of the region synthesis builds (and is read without
    # building it), every L1 norm the per-word integral, and every window
    # mass the flags of each running sum ORed down into the next]
    DELTAS = (F(1, 8), F(1, 4), F(1, 2))

    @staticmethod
    def _observables():
        rng = random.Random(30)
        return [CylinderFn.coordinate(0), CylinderFn.word_indicator("01"),
                CylinderFn.coordinate(1), CylinderFn.constant(F(1, 3))] + [
            CylinderFn(3, [F(rng.randint(-6, 6), rng.randint(1, 5))
                           for _ in range(8)]) for _ in range(3)]

    @pytest.mark.parametrize("prob", [F(1, 2), F(1, 3), F(2, 5)])
    def test_matches_enumeration(self, prob):
        system = shift_system(prob)

        def unbuilt():
            pytest.fail("the shift built a region to weigh it")

        for i, f in enumerate(self._observables()):
            g = centered(system, f)
            t, top = g.table, 13 - max(g.depth, 1)
            for n in range(1, top + 1):
                avg = cref.average(t, n)
                assert system.l1_norm(g, n) \
                    == cref.integral(list(map(abs, avg)), prob), (f, n)
                for delta in self.DELTAS:
                    mass = system.deviation_mass(g, n, delta, unbuilt)
                    assert mass == 1 - system.sublevel(g, n, delta) \
                        .measure(prob), (f, n, delta)
            # the oracle's running sums dominate the cost: one delta per
            # observable, the three in turn
            delta, window = self.DELTAS[i % 3], range(top - 3, top + 1)
            assert system.window_mass(g, window, delta) \
                == cref.window_mass(t, prob, window, delta), (f, delta)

    def test_priced_before_it_runs(self, monkeypatch):
        # [DERIVED: the price of a law pushed to h is the sum over n <= h
        # of min(2^(k-1) (n r + 1), 2^(n+k-1)), r = max nums - min nums
        # and at least 1 (the constant's weights still grow), summed term
        # by term here; one state over the budget refuses the law before
        # any is built, and the kept law stays]
        system = shift_system(F(1, 3))
        for f in self._observables():
            g = centered(system, f).lift(max(f.depth, 1))
            k, r = g.depth, max(max(g.nums) - min(g.nums), 1)
            for h in (1, 2, 5, 17, 40):
                price = sum(min((1 << (k - 1)) * (n * r + 1), 1 << (n + k - 1))
                            for n in range(1, h + 1))
                monkeypatch.setattr(dynamics, "LAW_BUDGET", price)
                system._priced(g, h)
                monkeypatch.setattr(dynamics, "LAW_BUDGET", price - 1)
                kept = system._law_slot
                with pytest.raises(BudgetExceededError):
                    system.window_mass(g, range(1, h + 1), F(1, 4))
                with pytest.raises(BudgetExceededError):
                    system.l1_norm(g, h)
                assert system._law_slot is kept

    @pytest.mark.parametrize("prob", [F(1, 2), F(1, 3), F(2, 5)])
    def test_l1_at_one_is_the_law_sum(self, prob):
        # [DERIVED: oracle = the law pushed one step (`_law`), summed as
        #  l1_norm sums it at n >= 2; seeded random tables of depth 1-12
        #  with entries over a common denominator, centered and not: at
        #  n = 1 the table sum neither reads nor replaces the kept law]
        rng = random.Random(f"l1 at 1 {prob}")
        b = prob.denominator
        for k in range(1, 13):
            den = rng.randint(1, 30)
            f = CylinderFn(k, [F(rng.randint(-40, 40), den)
                               for _ in range(1 << k)])
            for g in (f, centered(shift_system(prob), f)):
                system = shift_system(prob)
                kept = system._law_slot
                got = system.l1_norm(g, 1)
                assert system._law_slot is kept
                total = sum(abs(s + off) * v for off, d in system._law(g, 1)
                            for s, v in d.items())
                assert type(got) is F
                assert got == F(total, g.den * b ** k), (k, g)

    @pytest.mark.parametrize("prob", [F(1, 2), F(1, 3), F(2, 5)])
    def test_backward_pass_matches_the_region(self, prob):
        # [DERIVED: oracle = the region synthesis builds (`sublevel`), on
        # seeded random tables of depth 0-3 at n <= 9 and of depth 5-6 at
        # n <= 4 (where the short words of k - 1 symbols form a deeper
        # tree): `law_window`'s err, the law's weight outside the window,
        # is 1 - mu of the region, and on every word of up to n + k + 1
        # symbols whether its range test finds a holder is the region's
        # containment (a holder exists), and the holder with its position
        # is the region's (`CylSet.holder`)]
        system = shift_system(prob)
        rng = random.Random(f"backward {prob}")
        draws = [(k, rng) for k in [0, 1, 2, 3] * 3]
        deep = random.Random(f"range test {prob}")
        for k, rng in draws + [(k, deep) for k in (5, 6)]:
            g = centered(system, CylinderFn(k, [
                F(rng.randint(-6, 6), rng.randint(1, 5))
                for _ in range(1 << k)]))
            n = rng.randint(1, 9 if k < 5 else 4)
            for delta in sorted({F(rng.randint(1, 4), rng.randint(1, 8))
                                 for _ in range(3)}):
                region = system.sublevel(g, n, delta)
                err, holder = system.law_window(g, n, delta)
                assert err == 1 - region.measure(prob), (k, n, delta)
                for m in range(n + k + 2):
                    for v in range(1 << m):
                        word = format(v, f"0{m}b") if m else ""
                        found = holder(word)
                        want = region.holder(CANTOR.cylinder_ball(word))
                        assert (found is not None) == (want is not None)
                        assert (found and (found[0], CANTOR.cylinder_ball(
                            found[1]))) == want, (k, n, delta, word)

    def test_region_budget_refused_before_any_mass(self):
        # [DERIVED: synthesis takes only windows whose region it can
        # build, n + k - 1 <= 24, so the law refuses past it first]
        g = centered(SHIFT, CylinderFn.word_indicator("0101"))
        assert SHIFT.deviation_mass(g, 21, F(1, 4), None) > 0
        kept = SHIFT._law_slot
        with pytest.raises(BudgetExceededError, match="2\\^25 cylinders"):
            SHIFT.deviation_mass(g, 22, F(1, 4), None)
        assert SHIFT._law_slot is kept


def _random_pl(rng, q):
    """A random piecewise-linear function with breakpoints on the 1/q grid
    and a jump, in general, at every breakpoint."""
    xs = [F(0)] + [F(k, q) for k in sorted(rng.sample(range(1, q),
                                                      rng.randint(1, 4)))]
    vals = [F(rng.randint(-q, q), rng.randint(1, q))
            for _ in range(2 * len(xs))]
    return PiecewiseLinear(list(zip(xs, xs[1:] + [F(1)], vals[::2],
                                    vals[1::2])))


def _plain_correlations(fbar, count):
    """C(m) = <fbar, L^m fbar> by count transfers, with no early stop."""
    out, g = [], fbar
    for _ in range(count):
        out.append(pl_inner(fbar, g))
        g = g.transfer_doubling()
    return out


def _table(fbar, count):
    """`doubling_correlations` as Fractions, its form checked first: one
    positive integer denominator over count integer numerators."""
    den, nums = doubling_correlations(fbar, count)
    assert type(den) is int and den > 0 and len(nums) == count
    assert all(type(n) is int for n in nums)
    return [F(n, den) for n in nums]


def _multiplied_correlations(fbar, count):
    """C(m) = <fbar, L^m fbar> up to the first iterate that repeats an
    earlier one up to a scalar c, g_j = c g_i, then C(m) = c C(m - (j - i))
    by one multiplication per entry, c = 0 included."""
    out, gs, g = [], [], fbar
    for j in range(count):
        for i, h in enumerate(gs):
            c = dynamics._multiple(g.form, h.form) \
                if g.form.xa == h.form.xa else None
            if c is not None:
                for m in range(j, count):
                    out.append(c * out[m - (j - i)])
                return out
        gs.append(g)
        out.append(pl_inner(fbar, g))
        g = g.transfer_doubling()
    return out


class TestCorrelations:
    POOL = {"hat_a": PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8)),
            "identity": PiecewiseLinear.identity(),
            "hat_b": PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 16))}

    def test_table_matches_plain_transfers(self):
        # [DERIVED: oracle = 120 plain transfer steps; the early stop on a
        # repeat up to a scalar must give the same exact table]
        rng = random.Random(1009)
        fs = list(self.POOL.values()) + [
            PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 8)),
            PiecewiseLinear.hat(F(2, 5), F(1, 16), F(1, 8)),
            PiecewiseLinear.hat(F(1, 1009), F(1, 1009), F(1, 1009))]
        fs += [_random_pl(rng, rng.randint(7, 16)) for _ in range(30)]
        for f in fs:
            fbar = centered(DBL, f)
            assert _table(fbar, CORRELATION_CUTOFF) \
                == _plain_correlations(fbar, CORRELATION_CUTOFF)
        # a zero observable and a short table
        zero = centered(DBL, PiecewiseLinear.constant(F(3, 7)))
        assert _table(zero, 5) == [0] * 5
        hat = centered(DBL, self.POOL["hat_b"])
        assert _table(hat, 2) == _plain_correlations(hat, 2)

    def test_zero_iterate_ends_the_table(self):
        # [DERIVED: oracle = the repeat rule applied by multiplication,
        #  C(m) = c C(m - (j - i)) for every m >= j; the hats' iterates
        #  vanish after a few transfers, so their tables end in exact
        #  zeros]
        for f in HATS + (self.POOL["hat_a"], self.POOL["hat_b"]):
            fbar = centered(DBL, f)
            got = _table(fbar, CORRELATION_CUTOFF)
            assert got == _multiplied_correlations(fbar, CORRELATION_CUTOFF)
            assert got[-1] == 0 and got.index(0) <= 4

    def test_shift_correlations_priced_first(self):
        # [DERIVED: the table of depth k is priced at k 2^(k+1) products
        #  (it costs about 2^(k+3)): depth 18 is within 2^24, depth 19 is
        #  refused before any]
        deep = CylinderFn.hat("01", F(1, 1 << 19), F(1, 4))
        assert deep.depth == 19
        with pytest.raises(BudgetExceededError, match="depth 19"):
            SHIFT.correlations(deep)

    def test_l2_upper_nonincreasing_from_its_point(self):
        # [DERIVED: oracle = l2_sq(p).hi itself at every p from the point
        #  to 500 past it, on tables with a tail (the doubling map) and
        #  complete ones (the shift)]
        rng = random.Random(31)
        cases = [(DBL, f) for f in self.POOL.values()]
        cases += [(DBL, _random_pl(rng, rng.randint(7, 16)))
                  for _ in range(3)]
        for prob in (F(1, 2), F(1, 3), F(2, 5)):
            for k in (1, 3, 6):
                cases.append((shift_system(prob), CylinderFn(
                    k, [F(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(1 << k)])))
        # the coboundary x_0 - x_1: C(0) + 2 sum C(m) = 0, so the upper
        # end is -B/p^2 with B < 0
        cob = CylinderFn(2, [F(w >> 1) - F(w & 1) for w in range(4)])
        cases.append((SHIFT, cob))
        for system, f in cases:
            corr = system.correlations(centered(system, f))
            start = corr.nonincreasing_from()
            assert start is not None and start > len(corr.sums)
            his = [corr.l2_sq(p).hi for p in range(start, start + 501)]
            assert all(a >= b for a, b in zip(his, his[1:]))
        corr = SHIFT.correlations(cob)
        assert corr.nonincreasing_from() == len(corr.sums) + 1
        # C(0) + 2 C(1) < 0: the upper end (2 - p)/p^2 rises towards 0
        corr = dynamics.Correlations([1, -1], 0, 1)
        assert corr.nonincreasing_from() is None
        assert corr.l2_sq(4).hi < corr.l2_sq(5).hi

    def test_shift_correlations_match_word_enumeration(self):
        # [DERIVED: oracle = C(m) = E[fbar . fbar o sigma^m] summed over
        #  all 2^(k+m) words of the k + m symbols both factors read]
        rng = random.Random(2027)
        for prob in (F(1, 2), F(1, 3)):
            system = shift_system(prob)
            for k in range(1, 7):
                f = CylinderFn(k, [F(rng.randint(-5, 5), rng.randint(1, 4))
                                   for _ in range(1 << k)])
                fbar = centered(system, f)
                corr = system.correlations(f)
                got = [corr.c0] + list(map(sub, corr.sums[1:], corr.sums))
                for m in range(k):
                    want = F(0)
                    for w in range(1 << (k + m)):
                        mass = cylinder_mass(format(w, f"0{k + m}b"), prob)
                        want += (mass * fbar.table[w >> m]
                                 * fbar.table[w & ((1 << k) - 1)])
                    assert F(got[m], corr.den) == want
                assert len(got) == k

    def test_l2_sq_matches_fraction_formula(self):
        # [DERIVED: (1/p^2)[p C(0) + 2 sum_{m=1}^{cut-1} (p-m) C(m)] in
        # Fractions, widened by (2/p) decay 2^-(cut-1) past the table]
        cases = [(SHIFT, FIRSTBIT, [F(1, 4)], 0)]
        for f in (self.POOL["hat_a"], self.POOL["identity"]):
            fbar = centered(DBL, f)
            c = _plain_correlations(fbar, CORRELATION_CUTOFF)
            cases.append((DBL, f, c,
                          fbar.abs_integral() * fbar.total_variation()))
        for system, f, c, decay in cases:
            corr = system.correlations(centered(system, f))
            for p in list(range(1, 131)) + [500, 4096, 1 << 34]:
                cut = min(p, len(c))
                val = (p * c[0] + 2 * sum((p - m) * c[m]
                                          for m in range(1, cut))) / F(p * p)
                tail = F(2, p) * decay / 2 ** (cut - 1) if cut < p else 0
                box = corr.l2_sq(p)
                assert (box.lo, box.hi) == (val - tail, val + tail)

    def test_l2_sq_matches_an_independent_route(self):
        # [DERIVED: ||A_p fbar||_2^2 read without the table, exactly: on
        #  the shift the second moment of the partial-sum law,
        #  sum (s + off)^2 w / (den^2 p^2 b^(p+k-1)) for p = a/b; on the
        #  doubling map the square integral of the built average.  Random
        #  tables of depth 1-8 at p <= 10 and of depth 12 at p <= 3, and
        #  random piecewise-linear functions at p <= 8]
        rng = random.Random(43)
        for prob in (F(1, 2), F(1, 3), F(2, 5)):
            system = shift_system(prob)
            for k, top in [(k, 10) for k in range(1, 9)] + [(12, 3)]:
                fbar = centered(system, CylinderFn(k, [
                    F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(1 << k)]))
                corr = system.correlations(fbar)
                for p in range(1, top + 1):
                    moment = sum((s + off) ** 2 * w
                                 for off, d in system._law(fbar, p)
                                 for s, w in d.items())
                    want = F(moment, fbar.den ** 2 * p * p
                             * prob.denominator ** (p + k - 1))
                    box = corr.l2_sq(p)
                    assert box.lo == box.hi == want, (prob, k, p)
        for _ in range(12):
            fbar = centered(DBL, _random_pl(rng, rng.randint(7, 16)))
            corr = DBL.correlations(fbar)
            for p in range(1, 9):
                want = birkhoff_observable(DBL, fbar, p).square_integral()
                box = corr.l2_sq(p)
                assert box.lo == box.hi == want, (fbar, p)


def _oracle_sums(g, count):
    """S_1, ..., S_count of g on the doubling map, as segment lists: S_n is
    S_(n-1) plus g o T^(n-1), each term pulled back from the last."""
    term, sums = g.segments, [g.segments]
    for _ in range(count - 1):
        term = ref.pullback(term)
        sums.append(ref.plus(sums[-1], term))
    return sums


class TestIntegerRunningSum:
    # [DERIVED: oracle = Fraction sums of Fraction pullbacks, as segment
    # lists (pl_reference); the integer form must give the same normal
    # form, value by value and type by type, and the same L1 norm,
    # sublevel arcs and window masses]
    DELTAS = (F(1, 2), F(1, 4), F(1, 8))

    def _check(self, f, count, deltas=DELTAS):
        system = doubling_system()
        g = centered(system, f)
        tails = {delta: [] for delta in deltas}  # per n: |S_n| > n delta
        for n, want in enumerate(_oracle_sums(g, count), 1):
            got = system.birkhoff_sum(g, n)
            assert got.abs_integral() == ref.abs_integral(want), (f, n)
            for delta in deltas:
                level = n * delta
                assert got.arcs_below_abs(level).arcs \
                    == ref.arcs(want, -level, level), (f, n, delta)
                above = ref.arcs(want, level, None)
                assert got.arcs_above(level).arcs == above, (f, n, delta)
                tails[delta].append(above + ref.arcs(want, None, -level))
            assert got.segments == want, (f, n)
            _assert_normal_form(got.segments, (f, n))
            assert ref.types(got.segments) == ref.types(want), (f, n)
        window = range(count - 2, count + 1)
        for delta, per_n in tails.items():
            arcs = [arc for n in window for arc in per_n[n - 1]]
            assert system.window_mass(g, window, delta) \
                == ArcSet(arcs).measure(), (f, delta)

    @pytest.mark.parametrize("name", TestCorrelations.POOL)
    def test_pool(self, name):
        self._check(TestCorrelations.POOL[name], 12)

    def test_hats_and_random_functions(self):
        rng = random.Random(7)
        fs = [PiecewiseLinear.hat(F(1, 3), F(1, 8), F(1, 8)),
              PiecewiseLinear.hat(F(2, 5), F(1, 16), F(1, 8)),
              PiecewiseLinear.hat(F(1, 1009), F(1, 1009), F(1, 1009))]
        for f in fs:
            self._check(f, 10)
        # the Fraction oracle's arcs dominate the cost: each random
        # function reads its arcs at one delta, the three in turn
        for i in range(30):
            f = _random_pl(rng, rng.randint(7, 16))
            self._check(f, 10, self.DELTAS[i % 3:i % 3 + 1])


class TestRootTwoRunningSum:
    # [DERIVED: oracle = each term g o R^i cut and read in plain Quad
    # arithmetic, added by a merge walk and joined into normal form, as
    # segment lists (pl_reference); the integer form over Z[sqrt2] must
    # give the same terms and sums, value by value and type by type, and
    # the same sup norm, sublevel arcs and window masses]
    DELTAS = (F(1, 8), F(1, 32), F(1, 128))
    HATS = [PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8)),
            PiecewiseLinear.hat(F(0), F(1, 8), F(1, 8)),
            PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))]

    def _check(self, system, f, count, deltas=DELTAS):
        # the Fraction oracle's arcs dominate the cost: each n reads its
        # arcs at one delta, the deltas in turn, and the last three n at
        # every delta for the window mass
        g = centered(system, f)
        want, last = g.segments, []
        for n in range(1, count + 1):
            if n > 1:
                c = system.alpha * (n - 1)
                term, got_term = ref.shift(g.segments, mod1(c)), g.shift(c)
                assert got_term.segments == term, (f, n)
                assert ref.types(got_term.segments) == ref.types(term)
                delta = deltas[n % len(deltas)]
                arcs = got_term.arcs_below_abs(delta).arcs
                oracle = ref.arcs(term, -delta, delta)
                assert arcs == oracle
                assert ref.types(arcs) == ref.types(oracle)
                want = ref.plus(want, term)
            got = system.birkhoff_sum(g, n)
            assert got.segments == want, (f, n)
            assert ref.types(got.segments) == ref.types(want), (f, n)
            _assert_normal_form(got.segments, (f, n))
            sup = ref.sup(want)
            assert got.sup_norm() == sup and type(got.sup_norm()) is type(sup)
            level = n * deltas[n % len(deltas)]
            for arcs, oracle in (
                    (got.arcs_below_abs(level),
                     ref.arcs(want, -level, level)),
                    (got.arcs_above(level), ref.arcs(want, level, None)),
                    (got.arcs_below(-level), ref.arcs(want, None, -level))):
                assert arcs.arcs == oracle, (f, n, level)
                assert ref.types(arcs.arcs) == ref.types(oracle)
            last = last[-2:] + [(n, want)]
        window = range(count - 2, count + 1)
        for delta in deltas:
            mass = ArcSet([arc for n, s in last for arc in
                           ref.arcs(s, n * delta, None)
                           + ref.arcs(s, None, -n * delta)]).measure()
            if isinstance(mass, Quad):
                mass = mass.approx(60) + pow2(60)
            got = system.window_mass(g, window, delta)
            assert got == mass and type(got) is type(mass), (f, delta)

    @pytest.mark.parametrize("index", range(3))
    def test_pool_hats(self, index):
        self._check(rotation_system(), self.HATS[index], 70)

    def test_random_functions_with_jumps(self):
        rng = random.Random(15)
        for i in range(30):
            f = _random_pl(rng, rng.randint(7, 16))
            self._check(ROT, f, 12, self.DELTAS[i % 3:i % 3 + 1])

    def test_one_sided_bands_match_two_sided(self):
        # [DERIVED: oracle = the same classifying pass with the missing
        # level replaced by a rational beyond every value, so both levels
        # are compared; levels at the sum's rational segment ends and
        # levels that miss every value]
        rng = random.Random(16)
        fs = self.HATS + [centered(ROT, _random_pl(rng, rng.randint(7, 16)))
                          for _ in range(6)]
        for f in fs:
            system = rotation_system()
            for n in (2, 3, 5, 12, 29):
                s = system.birkhoff_sum(f, n).form
                top = math.ceil(PiecewiseLinear._of(s).sup_norm()
                                .approx(8)) + 1
                ends = {F(u, s.e) for us, ws in ((s.vu, s.vw), _ends(s))
                        for u, w in zip(us, ws) if not w}
                levels = sorted(ends) + [F(rng.randint(-999, 999), 1009)
                                         for _ in range(4)] + [-top, top]
                for level in levels:
                    for one, two in ((_arcs(s, level, None),
                                      _arcs(s, level, top)),
                                     (_arcs(s, None, level),
                                      _arcs(s, -top, level))):
                        assert one.arcs == two.arcs, (f, n, level)
                        assert ref.types(one.arcs) == ref.types(two.arcs)

    @pytest.mark.parametrize("alpha", [Quad(F(1, 5), F(1, 3)),
                                       Quad(F(3, 7), F(-1, 4))])
    def test_other_angles(self, alpha):
        system = rotation_system(alpha)
        for f in self.HATS:
            self._check(system, f, 20)


class TestTranslateSum:
    # [DERIVED: oracle = pl_sum of the translates g.shift(i alpha) built
    # one by one, as the rotation's running sum was first built; filing
    # g's own jumps along the integer orbit must give the same form,
    # column for column on the default angle (n = g.n, e = g.e there) and
    # segment for segment on the others]
    # inside (0, 1) and outside it, either sign of each part, and a
    # rational angle whose orbit meets the hats' breakpoints and 0
    ANGLES = [Quad(F(1, 5), F(1, 3)), Quad(F(3, 7), F(-1, 4)),
              Quad(F(-7, 3), F(1, 2)), Quad(F(5, 2), F(-1, 3)),
              Quad(F(9, 8))]

    @staticmethod
    def _terms(system, g, count):
        return [g] + [g.shift(system.alpha * i) for i in range(1, count)]

    def test_default_angle_column_for_column(self):
        # the hats at every n <= 200, each S_n extended from S_(n-1); the
        # random functions at every n <= 12 and at n = 50, 120, 200 built
        # from scratch
        rng = random.Random(44)
        fs = TestRootTwoRunningSum.HATS \
            + [_random_pl(rng, rng.randint(7, 16)) for _ in range(30)]
        for index, f in enumerate(fs):
            system = rotation_system()
            g = centered(system, f)
            count = 200
            terms = self._terms(system, g, count)
            ns = range(1, count + 1) if index < 3 \
                else [*range(1, 13), 50, 120, count]
            for n in ns:
                if index >= 3:
                    system = rotation_system()
                got = system.birkhoff_sum(g, n).form
                want = pl_sum(terms[:n]).form
                assert got == want, (f, n)
                assert (got.n, got.e) == (g.form.n, g.form.e)
            _assert_normal_form(system.birkhoff_sum(g, count).segments, f)

    def test_extending_a_kept_sum(self):
        # S_m kept, then S_n, equals S_n from scratch
        rng = random.Random(45)
        fs = TestRootTwoRunningSum.HATS[:2] + [_random_pl(rng, 11)]
        for alpha in [None] + self.ANGLES[:1]:
            for f in fs:
                g = centered(rotation_system(alpha), f)
                for m, n in ((1, 2), (2, 5), (5, 12), (12, 29), (55, 59)):
                    kept = rotation_system(alpha)
                    kept.birkhoff_sum(g, m)
                    assert kept._slot[1] == m
                    got = kept.birkhoff_sum(g, n).form
                    assert got == rotation_system(alpha).birkhoff_sum(
                        g, n).form, (alpha, f, m, n)

    @pytest.mark.parametrize("alpha", ANGLES)
    def test_other_angles_segment_for_segment(self, alpha):
        rng = random.Random(46)
        system = rotation_system(alpha)
        for f in TestRootTwoRunningSum.HATS + [_random_pl(rng, 9)]:
            g = centered(system, f)
            terms = self._terms(system, g, 30)
            for n in range(1, 31):
                got, want = system.birkhoff_sum(g, n), pl_sum(terms[:n])
                assert got.segments == want.segments, (alpha, f, n)
                assert ref.types(got.segments) == ref.types(want.segments)

    @pytest.mark.parametrize("alpha", [SQRT2_MINUS_1] + ANGLES)
    def test_integer_orbit(self, alpha):
        system = rotation_system(alpha)
        count = 10 ** 4
        orbit = system._orbit(0, count)
        D = system._den
        assert len(orbit) == count
        for i, (ca, cb) in enumerate(orbit):
            assert Quad(F(ca, D), F(cb, D)) == mod1(alpha * i), (alpha, i)
        # started anywhere, the orbit is the same
        for m in (1, 29, 4321):
            assert system._orbit(m, m + 40) == orbit[m:m + 40]


class TestOneIntegerForm:
    def test_add_off_the_grid(self):
        # [DERIVED: oracle = pl_reference.plus; g's breakpoints (grid 12)
        # are off the integer form's grid 16, so both go on the grid 48]
        f = PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8)).pullback_doubling()
        g = PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))
        got = f.add(g)
        assert got.form is not None
        assert got.segments == ref.plus(f.segments, g.segments)
        _assert_normal_form(got.segments, "off-grid add")
        assert all(type(t) is F for s in got.segments for t in s)


class _FractionTail:
    """The digit tail in Fractions, as it was first written: every settled
    window reads each tracked g through value(g, bits), and the two
    digits' scores are Fraction sums."""

    def __init__(self, base, track, window, value):
        self.bits, self.track, self.value = list(base), track, value
        self.window = max(1, window)
        self.sums = [F(0)] * len(track)
        i = 0
        while i + self.window <= len(self.bits):
            self._add(self._values(i, None))
            i += 1

    def _values(self, i, extra):
        bits = self.bits[i:i + self.window] if extra is None \
            else self.bits[i:] + [extra]
        return [self.value(g, bits) for g in self.track]

    def _add(self, vals):
        self.sums = [s + v for s, v in zip(self.sums, vals)]

    def bit(self, i):
        while len(self.bits) <= i:
            t = len(self.bits)
            j = t + 1 - self.window
            if not self.track or j < 0:
                self.bits.append(0)
                continue
            best, best_score = 0, None
            for b in (0, 1):
                score = sum(abs(s + v)
                            for s, v in zip(self.sums, self._values(j, b)))
                if best_score is None or score < best_score:
                    best, best_score = b, score
            self._add(self._values(j, best))
            self.bits.append(best)
        return self.bits[i]


def _word(bits):
    return "".join(map(str, bits))


class TestDigitTail:
    # [DERIVED: oracle = _FractionTail, reading g at the middle of the
    #  window's dyadic arc with eval_right on the doubling map and on the
    #  window's word with value_on_word on the shift; 200 digits after
    #  seeded bases shorter and longer than the window]

    def test_window_readers_are_the_fraction_values(self):
        # [DERIVED: oracle = den g at the window in Fractions, through
        #  eval_right at the middle of the window's dyadic arc and through
        #  value_on_word; windows of 1 to 24 digits, both ends included]
        rng = random.Random(50)
        for _ in range(20):
            g = _random_pl(rng, rng.randint(3, 12))
            k = rng.randint(1, 24)
            den, read = g.window_reader(k)
            for w in [0, (1 << k) - 1] + [rng.randrange(1 << k)
                                          for _ in range(30)]:
                assert read(w) == den * g.eval_right(
                    F(2 * w + 1, 1 << (k + 1)))
            depth = rng.randint(0, 5)
            c = CylinderFn(depth, [F(rng.randint(-6, 6), rng.randint(1, 5))
                                   for _ in range(1 << depth)])
            k = depth + rng.randint(0, 4)
            den, read = c.window_reader(k)
            for w in range(1 << k):
                assert read(w) == den * c.value_on_word(
                    format(w, f"0{k}b") if k else "")

    def test_doubling_tail_matches_the_fraction_tail(self):
        rng = random.Random(51)

        def value(g, bits):
            return g.eval_right(F(2 * int(_word(bits), 2) + 1,
                                  1 << (len(bits) + 1)))

        for _ in range(8):
            fs = [PiecewiseLinear.hat(F(rng.randint(0, 15), 16),
                                      F(1, rng.randint(4, 40)),
                                      F(1, rng.randint(4, 40))),
                  _random_pl(rng, rng.randint(5, 12)),
                  PiecewiseLinear.identity()]
            track = [centered(DBL, f)
                     for f in rng.sample(fs, rng.randint(0, 3))]
            base = [rng.randint(0, 1) for _ in range(rng.randint(0, 40))]
            tail = dynamics._DigitTail(base, track, dynamics.BALANCE_WINDOW)
            want = _FractionTail(base, track, dynamics.BALANCE_WINDOW, value)
            assert [tail.bit(i) for i in range(200)] \
                == [want.bit(i) for i in range(200)]

    def test_shift_tail_matches_the_fraction_tail(self):
        rng = random.Random(52)
        for p in (F(1, 2), F(1, 3)):
            system = shift_system(p)
            for _ in range(8):
                track = [centered(system, CylinderFn(k, [
                    F(rng.randint(-6, 6), rng.randint(1, 5))
                    for _ in range(1 << k)]))
                    for k in rng.sample(range(1, 7), rng.randint(0, 3))]
                track = [g for g in track if g.sup_norm()]
                base = [rng.randint(0, 1) for _ in range(rng.randint(0, 12))]
                window = max((g.depth for g in track), default=1)
                point = system.point_in(CANTOR.cylinder_ball(_word(base)),
                                        track)
                want = _FractionTail(
                    base, track, window,
                    lambda g, bits: g.value_on_word(_word(bits)))
                assert point.prefix(200) \
                    == _word(want.bit(i) for i in range(200))
