"""Measures: exact W1 transport against independent oracles, instance
oracles for Lebesgue and Bernoulli."""

import itertools
import random
import types
from fractions import Fraction as F
from math import lcm

import pytest

from ergocert import arith, measures
from ergocert.dynamics import Shift, doubling_system, shift_system
from ergocert.errors import InputError
from ergocert.measures import (IdealMeasure, TransportPlan, region_measure,
                               w1_ideal)
from ergocert.regions import cylinder_mass
from ergocert.spaces import CANTOR, CIRCLE, IdealBall

import w1_reference as w1ref


def rand_measure(rng, space, max_atoms=4):
    n = rng.randint(1, max_atoms)
    if space is CIRCLE:
        pts = rng.sample([f"{k}/16" for k in range(16)], n)
    else:
        pts = rng.sample(["", "1", "01", "11", "001", "101", "011"], n)
    cuts = sorted(rng.sample(range(1, 12), n - 1))
    ws = [f"{b - a}/12" for a, b in zip([0] + cuts, cuts + [12])]
    return IdealMeasure(space, tuple(zip(pts, ws)))


def vertex_minimum(space, mu1, mu2):
    """Brute force over transport-polytope vertices.

    Vertices are basic solutions: pick n+m-1 edges forming a spanning tree
    of the bipartite supply/demand graph, peel leaves to solve the unique
    flow, keep it if nonnegative."""
    src, snk = list(mu1.atoms), list(mu2.atoms)
    n, m = len(src), len(snk)
    cost = {(i, j): space.dist(src[i][0], snk[j][0])
            for i in range(n) for j in range(m)}
    edges = list(cost)
    best = None
    for tree in itertools.combinations(edges, n + m - 1):
        # spanning check by union-find over n+m nodes
        parent = list(range(n + m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for i, j in tree:
            ra, rb = find(i), find(n + j)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok or len({find(a) for a in range(n + m)}) != 1:
            continue
        # peel leaves: each leaf edge's flow equals the leaf's residual
        supply = [w for _, w in src] + [-w for _, w in snk]
        adj = {a: [] for a in range(n + m)}
        for i, j in tree:
            adj[i].append((n + j, (i, j)))
            adj[n + j].append((i, (i, j)))
        flows = {}
        live = set(tree)
        deg = {a: len(adj[a]) for a in adj}
        stack = [a for a in adj if deg[a] == 1]
        while stack:
            a = stack.pop()
            rem = [(b, e) for b, e in adj[a] if e in live]
            if not rem:
                continue
            b, e = rem[0]
            amt = supply[a] if a < n else -supply[a]
            flows[e] = amt if a < n else amt  # flow src -> snk
            i, j = e
            supply[i] -= flows[e]
            supply[n + j] += flows[e]
            live.discard(e)
            deg[b] -= 1
            if deg[b] == 1:
                stack.append(b)
        if any(v < 0 for v in flows.values()):
            continue
        val = sum(flows[e] * cost[e] for e in flows)
        if best is None or val < best:
            best = val
    return best


class TestW1Examples:
    def test_single_atom_distance(self):
        # [PAPER: single-atom transport equals the metric]
        mu1 = IdealMeasure(CIRCLE, (("1/4", "1"),))
        mu2 = IdealMeasure(CIRCLE, (("3/4", "1"),))
        value, plan = w1_ideal(CIRCLE, mu1, mu2)
        assert value == F(1, 2)
        assert plan.check_marginals(mu1, mu2)

    def test_identity(self):
        # [TRIVIAL]
        mu = IdealMeasure(CIRCLE, (("0", "2/3"), ("1/2", "1/3")))
        value, _ = w1_ideal(CIRCLE, mu, mu)
        assert value == 0

    def test_two_to_one(self):
        # [PAPER: move mass 1/3 across distance 1/2]
        mu1 = IdealMeasure(CIRCLE, (("0", "2/3"), ("1/2", "1/3")))
        mu2 = IdealMeasure(CIRCLE, (("0", "1"),))
        value, _ = w1_ideal(CIRCLE, mu1, mu2)
        assert value == F(1, 6)

    def test_pinned_plans(self):
        # [DERIVED: optimal plans are not unique.  The circle instance's
        #  CDF difference reaches half the circle exactly at one step value,
        #  so every alpha up to the next step value is a weighted median:
        #  the plan pins the lowest one.  The Cantor plan pins the matching
        #  order: remainders pair off in word order inside each cylinder.
        #  Both plans were recorded from the closed forms; the values are
        #  those of the earlier flow solver]
        circle = (
            ([f"{k}/16" for k in (11, 7, 14, 4, 6, 3, 13, 0, 15, 9, 5, 2)],
             ["1/10", "1/6", "1/8", "1/36", "1/30", "1/24", "5/36", "1/18",
              "1/12", "1/20", "1/15", "1/9"]),
            ([f"{k}/16" for k in (7, 10, 3, 0, 4, 11, 5, 2, 14, 12, 1, 15)],
             ["1/20", "1/12", "1/15", "1/30", "5/36", "1/10", "1/18", "1/36",
              "1/8", "1/24", "1/6", "1/9"]),
            F(39, 640),
            [[0, 5, "1/10"], [1, 0, "1/20"], [1, 1, "1/30"], [1, 4, "1/36"],
             [1, 6, "1/18"], [2, 8, "1/36"], [2, 11, "7/72"], [3, 2, "1/60"],
             [3, 4, "1/90"], [4, 4, "1/30"], [5, 2, "1/24"], [6, 8, "7/72"],
             [6, 9, "1/24"], [7, 10, "1/18"], [8, 3, "1/30"],
             [8, 10, "13/360"], [8, 11, "1/72"], [9, 1, "1/20"],
             [10, 4, "1/15"], [11, 2, "1/120"], [11, 7, "1/36"],
             [11, 10, "3/40"]])
        cantor = (
            (["", "1", "01", "11", "001", "101", "011", "111", "0001",
              "1001", "0101", "1101"],
             ["1/15", "5/36", "1/6", "1/30", "1/8", "1/18", "1/10", "1/12",
              "1/20", "1/24", "1/36", "1/9"]),
            (["0011", "1011", "0111", "1111", "", "01", "1", "11", "001",
              "011", "101", "0101"],
             ["1/6", "1/12", "1/8", "1/24", "1/10", "1/15", "1/20", "1/30",
              "1/9", "1/18", "1/36", "5/36"]),
            F(401, 1440),
            [[0, 4, "1/15"], [1, 0, "1/30"], [1, 1, "1/18"], [1, 6, "1/20"],
             [2, 5, "1/15"], [2, 11, "1/10"], [3, 7, "1/30"], [4, 0, "1/72"],
             [4, 8, "1/9"], [5, 1, "1/36"], [5, 10, "1/36"], [6, 2, "2/45"],
             [6, 9, "1/18"], [7, 2, "1/24"], [7, 3, "1/24"], [8, 0, "1/60"],
             [8, 4, "1/30"], [9, 0, "1/24"], [10, 11, "1/36"],
             [11, 0, "11/180"], [11, 2, "7/180"], [11, 11, "1/90"]])
        for space, (a, b, value, flows) in ((CIRCLE, circle),
                                            (CANTOR, cantor)):
            mu1 = IdealMeasure.from_json(space, [list(x) for x in zip(*a)])
            mu2 = IdealMeasure.from_json(space, [list(x) for x in zip(*b)])
            got, plan = w1_ideal(space, mu1, mu2)
            assert got == value
            assert plan.to_json() == flows

    def test_unbalanced_rejected(self):
        # [DERIVED: unequal total masses raise a typed error in both
        #  directions, not an assert that python -O strips]
        one = IdealMeasure(CIRCLE, (("0", "1"),))
        half = IdealMeasure(CIRCLE, (("0", "1/2"), ("1/2", "1/2")))
        object.__setattr__(half, "points", half.points[:1])
        object.__setattr__(half, "masses", half.masses[:1])
        for mu1, mu2 in ((one, half), (half, one)):
            with pytest.raises(InputError):
                w1_ideal(CIRCLE, mu1, mu2)

    def test_from_json_converts_each_atom_once(self, monkeypatch):
        # [DERIVED: a measure read from JSON converts every point and
        #  every weight once, not once when read and again when built]
        points, weights = [], []
        for space in (CIRCLE, CANTOR):
            def spy(p, convert=space.point_from_json):
                points.append(p)
                return convert(p)
            monkeypatch.setattr(space, "point_from_json", spy)

        # the weight reader and the rational parser
        for module, name in ((measures, "parse_ratio"), (arith, "parse_rat")):
            def convert(*args, convert=getattr(module, name)):
                weights.append(args)
                return convert(*args)
            monkeypatch.setattr(module, name, convert)
        for space, data in (
                (CIRCLE, [["1/4", "1/3"], ["5/4", "1/6"], ["2/3", "1/2"]]),
                (CANTOR, [["1", "1/3"], ["10", "1/6"], ["", "1/2"]])):
            del points[:], weights[:]
            mu = IdealMeasure.from_json(space, data)
            assert len(points) == len(weights) == len(data)
            assert [p for p, _ in mu.atoms] == [space.point_from_json(p)
                                                for p, _ in data]


    def test_refusals(self):
        # [DERIVED: duplicate points (also as two spellings of one
        #  rational), a zero or negative weight, weights off a sum of 1 and
        #  atoms that are not string pairs are refused, with their
        #  messages; the constructor builds the atoms view]
        cases = [
            (CIRCLE, [["1/2", "1/2"], ["2/4", "1/2"]], "pairwise distinct"),
            (CANTOR, [["01", "1/2"], ["01", "1/2"]], "pairwise distinct"),
            (CIRCLE, [["0", "0"], ["1/2", "1"]], "positive"),
            (CANTOR, [["0", "-1/2"], ["1", "3/2"]], "positive"),
            (CIRCLE, [["0", "1/2"], ["1/2", "1/3"]], "sum to 1"),
            (CANTOR, [["0", "2/3"], ["1", "2/3"]], "sum to 1"),
            (CIRCLE, [[0, "1"]], "must be strings"),
            (CANTOR, [["1", 1]], "must be strings"),
            (CIRCLE, [["0", "1", "x"]], "list of 2"),
        ]
        for space, data, message in cases:
            with pytest.raises(ValueError, match=message):
                IdealMeasure.from_json(space, data)
        assert IdealMeasure(CIRCLE, (("0", "1/3"), ("1/2", "2/3"))) \
            .atoms == ((F(0), F(1, 3)), (F(1, 2), F(2, 3)))


class TestW1Oracles:
    def test_vertex_oracle_equivalence(self):
        # [DERIVED: independent brute force over basic feasible solutions]
        rng = random.Random(424242)
        for t in range(200):
            space = CIRCLE if t % 2 == 0 else CANTOR
            mu1 = rand_measure(rng, space)
            mu2 = rand_measure(rng, space)
            value, plan = w1_ideal(space, mu1, mu2)
            assert plan.check_marginals(mu1, mu2)
            assert value == sum(
                a * space.dist(mu1.atoms[i][0], mu2.atoms[j][0])
                for i, j, a in plan.flows)
            assert value == vertex_minimum(space, mu1, mu2)

    def test_dual_lp_oracle(self):
        # [DERIVED: Kantorovich dual solved exactly by an external LP]
        from sympy import Rational, symbols
        from sympy.solvers.simplex import lpmax
        rng = random.Random(77)
        for _ in range(12):
            mu1 = rand_measure(rng, CIRCLE, max_atoms=3)
            mu2 = rand_measure(rng, CIRCLE, max_atoms=3)
            value, _ = w1_ideal(CIRCLE, mu1, mu2)
            pts = sorted({p for p, _ in mu1.atoms} | {p for p, _ in mu2.atoms})
            w = {p: F(0) for p in pts}
            for p, a in mu1.atoms:
                w[p] += a
            for p, a in mu2.atoms:
                w[p] -= a
            fs = symbols(f"f0:{len(pts)}")
            obj = sum(Rational(w[p]) * fs[i] for i, p in enumerate(pts))
            cons = [fs[0] <= 0, fs[0] >= 0]
            for i in range(len(pts)):
                for j in range(len(pts)):
                    if i != j:
                        d = Rational(CIRCLE.dist(pts[i], pts[j]))
                        cons.append(fs[i] - fs[j] <= d)
            opt, _ = lpmax(obj, cons)
            assert F(int(opt.p), int(opt.q)) == value

    def test_metric_axioms(self):
        # [DERIVED: >= 10^3 exact random triples]
        rng = random.Random(31)
        for t in range(350):
            space = CIRCLE if t % 2 == 0 else CANTOR
            a, b, c = (rand_measure(rng, space, 3) for _ in range(3))
            dab, _ = w1_ideal(space, a, b)
            dba, _ = w1_ideal(space, b, a)
            dbc, _ = w1_ideal(space, b, c)
            dac, _ = w1_ideal(space, a, c)
            assert dab == dba
            assert dac <= dab + dbc
            assert dab >= 0
            if a.atoms != b.atoms:
                pass  # distinctness check below uses genuinely distinct pairs
        mu1 = IdealMeasure(CIRCLE, (("0", "1"),))
        mu2 = IdealMeasure(CIRCLE, (("1/8", "1"),))
        assert w1_ideal(CIRCLE, mu1, mu2)[0] > 0

    def test_closed_forms_large(self):
        # [DERIVED: beyond vertex-enumeration size the value is checked
        #  against the two closed formulas, written here from scratch:
        #  circle, min over the step values alpha of the CDF difference F
        #  of sum length * |F - alpha|; Cantor, sum over cylinders w with
        #  |w| >= 1 of 2^-(|w|+1) * |mu1[w] - mu2[w]|]
        rng = random.Random(2024)
        sizes = (50, 50, 300, 300, *rng.sample(range(50, 301), 4))
        for t, size in enumerate(sizes):
            space = CIRCLE if t % 2 == 0 else CANTOR
            if space is CIRCLE:
                # 1/4 and 5/4 are one point; shared points across measures
                pool = [f"{k}/256" for k in range(-64, 320)]
            else:
                # "1" and "10" are one point
                pool = sorted({"".join(rng.choice("01") for _ in range(n))
                               for n in range(13) for _ in range(80)})
            mu1, mu2 = (big_measure(rng, space, pool, size) for _ in "ab")
            value, plan = w1_ideal(space, mu1, mu2)
            assert plan.check_marginals(mu1, mu2)
            assert value == sum(
                a * space.dist(mu1.atoms[i][0], mu2.atoms[j][0])
                for i, j, a in plan.flows)
            formula = circle_formula if space is CIRCLE else cantor_formula
            assert value == formula(mu1, mu2)

    def test_edge_cases_against_vertices(self):
        # [DERIVED: points given off [0,1), two atoms of one measure at one
        #  point, a point shared by both measures, and Cantor words that
        #  differ only by trailing zeros, against the brute force]
        cases = [
            (CIRCLE, [("1", "1/2"), ("5/4", "1/4"), ("-1/4", "1/4")],
             [("0", "1/3"), ("1/2", "1/3"), ("3/8", "1/3")]),
            (CIRCLE, [("1/4", "1/3"), ("5/4", "1/6"), ("2/3", "1/2")],
             [("1/4", "1/5"), ("1/2", "2/5"), ("-1/8", "2/5")]),
            (CIRCLE, [("1/3", "1/2"), ("0", "1/2")],
             [("1/3", "1/4"), ("3/4", "3/4")]),
            (CANTOR, [("1", "1/3"), ("10", "1/6"), ("", "1/2")],
             [("", "1/4"), ("01", "1/4"), ("100", "1/2")]),
            (CANTOR, [("1", "1/2"), ("", "1/2")],
             [("10", "1/3"), ("0", "1/3"), ("11", "1/3")]),
        ]
        for space, a, b in cases:
            mu1 = IdealMeasure.from_json(space, [list(x) for x in a])
            mu2 = IdealMeasure.from_json(space, [list(x) for x in b])
            value, plan = w1_ideal(space, mu1, mu2)
            assert plan.check_marginals(mu1, mu2)
            assert value == sum(
                a * space.dist(mu1.atoms[i][0], mu2.atoms[j][0])
                for i, j, a in plan.flows)
            assert value == vertex_minimum(space, mu1, mu2)


class TestW1Reference:
    """The integer kernels (integer positions on the circle, the stack walk
    on Cantor space, the cost summed per distance denominator) against the
    Fraction sweep and the level-by-level trie walk of w1_reference: the
    same value and the same plan, byte for byte."""

    @staticmethod
    def _same(space, a, b):
        mu1, mu2 = (IdealMeasure.from_json(space, [list(x) for x in m])
                    for m in (a, b))
        value, plan = w1_ideal(space, mu1, mu2)
        want_value, want_plan = w1ref.w1(space.name, mu1, mu2)
        assert type(value) is F and value == want_value
        assert plan.to_json() == want_plan
        return value

    @staticmethod
    def _random(rng, pool, size):
        ws = [rng.randint(1, 20) for _ in range(size)]
        total = sum(ws)
        return [(p, str(F(w, total))) for p, w in
                zip(rng.sample(pool, size), ws)]

    def test_random_pairs(self):
        # [DERIVED: up to 2,000 atoms a measure; circle points over mixed
        #  denominators on and off [0,1), Cantor words from the empty one
        #  to 30 letters with trailing zeros; pools small enough that the
        #  two measures share points and the steps tie]
        rng = random.Random(2611)
        circle_pools = [sorted(map(str, set(pool))) for pool in (
            [F(k, 8) for k in range(-8, 16)],
            [F(k, q) for q in (3, 5, 12, 64) for k in range(-q, 2 * q)],
            [F(k, 1 << 20) for k in rng.sample(range(-(1 << 20), 2 << 20),
                                               5000)])]
        cantor_pools = [
            sorted({format(v, f"0{n}b") if n else "" for n in range(4)
                    for v in range(1 << n)}),
            sorted({"".join(rng.choice("01") for _ in range(n))
                    for n in range(13) for _ in range(300)}),
            sorted({"".join(rng.choice("01") for _ in range(n))
                    for n in range(31) for _ in range(200)})]
        checked = 0
        for space, pools in ((CIRCLE, circle_pools), (CANTOR, cantor_pools)):
            for pool in pools:
                n = min(len(pool), 2000)
                sizes = [(rng.randint(1, 6), rng.randint(1, 6))
                         for _ in range(40)] + [(n // 3, n // 2), (n, n - 1)]
                for size in sizes:
                    self._same(space, *(self._random(rng, pool, k)
                                        for k in size))
                    checked += 1
        assert checked == 252

    def test_edge_cases(self):
        # [DERIVED: points off [0,1) that meet points of the other measure
        #  mod 1, one point carrying both measures, "1" and "10" in one
        #  measure (one leaf), the empty word, one-atom measures]
        half, third = "1/2", "1/3"
        cases = [
            (CIRCLE, [("5/4", half), ("-3/4", half)], [("1/4", "1")]),
            (CIRCLE, [("-3/2", third), ("7/3", third), ("0", third)],
             [("1/2", half), ("1/3", "1/4"), ("2", "1/4")]),
            (CIRCLE, [("3/7", "1")], [("3/7", "1")]),
            (CIRCLE, [("3/7", "1")], [("-4/7", "1")]),
            (CIRCLE, [("1/5", "1")], [("7/10", "1")]),
            (CIRCLE, [("0", "1")], [("1/4", third), ("1/2", third),
                                    ("3/4", third)]),
            (CANTOR, [("1", half), ("10", half)], [("100", "1")]),
            (CANTOR, [("1", third), ("10", third), ("", third)],
             [("", half), ("0000", "1/4"), ("1", "1/4")]),
            (CANTOR, [("", "1")], [("", "1")]),
            (CANTOR, [("", "1")], [("0", "1")]),
            (CANTOR, [("", "1")], [("1", "1")]),
            (CANTOR, [("0101", "1")], [("", third), ("01", third),
                                       ("011", third)]),
        ]
        values = [self._same(space, a, b) for space, a, b in cases]
        assert values[0] == values[2] == values[3] == values[8] \
            == values[9] == 0
        assert values[4] == F(1, 2) and values[10] == 1


def _decimal(w):
    """w as a decimal string, or None where w has none."""
    d = w.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return None
    k = w.denominator.bit_length()  # 10^k is a multiple of the denominator
    digits = str(w.numerator * 10 ** k // w.denominator).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


class TestIntegerForm:
    """A measure holds its masses as integers over lw, the lcm of the
    reduced weight denominators, and a plan its flows as integers over the
    pair's lw.  Weights spelled in the plain form (one regex and one gcd)
    and in the forms that fall back to parse_rat give the integer form,
    the views and the W1 of the Fraction path: Fraction(s) per string and
    the Fraction sweep of w1_reference."""

    CIRCLE_POOL = sorted({str(F(k, q)) for q in (4, 6, 10, 16)
                          for k in range(-q, 2 * q)})
    CANTOR_POOL = sorted({format(v, f"0{n}b") if n else "" for n in range(7)
                          for v in range(1 << n)})

    @staticmethod
    def _spell(rng, w):
        """One spelling of the weight w: plain and reduced ("1/3"),
        unreduced ("2/4"), signed ("+1/3"), blank-padded (" 1/6 ") or a
        decimal ("0.5") where w has one; "1" is the plain form of 1."""
        forms = [str(w), f"{2 * w.numerator}/{2 * w.denominator}",
                 f"+{w}", f" {w} "]
        if _decimal(w):
            forms.append(_decimal(w))
        return rng.choice(forms)

    def _data(self, rng, space, n):
        """n atoms as JSON string pairs, the total drawn so that some
        weights are decimals."""
        pool = self.CIRCLE_POOL if space is CIRCLE else self.CANTOR_POOL
        total = rng.choice([rng.randint(n, 3 * n + 20),
                            1 << (n.bit_length() + rng.randint(0, 3)),
                            10 ** len(str(n)) * rng.choice((1, 2))])
        cuts = sorted(rng.sample(range(1, total), n - 1))
        ws = [F(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]
        return [[p, self._spell(rng, w)]
                for p, w in zip(rng.sample(pool, n), ws)]

    @staticmethod
    def _fraction_atoms(space, data):
        return tuple((F(p) if space is CIRCLE else p, F(w)) for p, w in data)

    def _check(self, space, data1, data2):
        mus = [IdealMeasure.from_json(space, d) for d in (data1, data2)]
        refs = [self._fraction_atoms(space, d) for d in (data1, data2)]
        for mu, atoms in zip(mus, refs):
            lw = lcm(*(w.denominator for _, w in atoms))
            assert mu.atoms == atoms
            assert mu.lw == lw
            assert mu.masses == tuple(int(w * lw) for _, w in atoms)
            assert mu.points == tuple(p for p, _ in atoms)
        value, plan = w1_ideal(space, *mus)
        want_value, want_plan = w1ref.w1(
            space.name, *(types.SimpleNamespace(atoms=a) for a in refs))
        assert type(value) is F and value == want_value
        assert plan.to_json() == want_plan
        assert plan.lw == lcm(mus[0].lw, mus[1].lw)
        assert plan.flows == tuple((i, j, F(a)) for i, j, a in want_plan)
        again = TransportPlan(plan.flows)
        assert again.to_json() == plan.to_json()
        assert plan.check_marginals(*mus) and again.check_marginals(*mus)
        return data1 + data2

    def test_spellings_against_the_fraction_path(self):
        # [DERIVED: seeded JSON measures of 1 to 8 atoms on both spaces,
        #  and one pair of 40 or more atoms on each, their weights spelled
        #  at random in the plain and the fallback forms]
        rng = random.Random(3607)
        spelled = []
        for space in (CIRCLE, CANTOR):
            for _ in range(40):
                spelled += self._check(space, *(
                    self._data(rng, space, rng.randint(1, 8))
                    for _ in "ab"))
            spelled += self._check(space, self._data(rng, space, 45),
                                   self._data(rng, space, 41))
        weights = [w for _, w in spelled]
        # every spelling occurs, "1" as the one-atom measures' weight
        assert "1" in weights and any(w.startswith("+") for w in weights)
        assert any(w.startswith(" ") for w in weights)
        assert any("." in w for w in weights)
        assert any(F(w).denominator != int(w.split("/")[1])
                   for w in weights if "/" in w and w == w.strip())

    def test_listed_spellings(self):
        # [DERIVED: the spellings "2/4", "+1/3", " 1/6 ", "0.5" and "1"
        #  side by side; "2/4" is the weight 1/2, so lw is 6, not 12]
        data = [["0", "2/4"], ["1/3", "+1/3"], ["2/3", " 1/6 "]]
        for space, points in ((CIRCLE, ("0", "1/3", "2/3")),
                              (CANTOR, ("", "01", "1"))):
            a = [[p, w] for p, (_, w) in zip(points, data)]
            b = [[points[0], "0.5"], [points[2], "1/2"]]
            self._check(space, a, b)
            self._check(space, b, [[points[1], "1"]])
            mu = IdealMeasure.from_json(space, a)
            assert (mu.lw, mu.masses) == (6, (3, 2, 1))
        # one circle point spelled two ways, the weights in fallback forms
        with pytest.raises(ValueError, match="pairwise distinct"):
            IdealMeasure.from_json(CIRCLE, [["1/2", " 1/2 "], ["2/4", "0.5"]])

    def test_plan_marginals_fail_on_a_changed_flow(self):
        # [DERIVED: the integer marginal check refuses a flow moved to
        #  another row, a negative flow and a flow off by a small amount,
        #  and negative flows whose sums are the marginals]
        mu1, mu2 = (IdealMeasure.from_json(CIRCLE, d) for d in (
            [["0", "1/3"], ["1/2", "2/3"]],
            [["1/4", "1/2"], ["3/4", "1/2"]]))
        _, plan = w1_ideal(CIRCLE, mu1, mu2)
        flows = list(plan.flows)
        i, j, a = flows[0]
        for changed in ((1 - i, j, a), (i, j, -a), (i, j, a + F(1, 97))):
            forged = TransportPlan([changed] + flows[1:])
            assert not forged.check_marginals(mu1, mu2)
        assert TransportPlan(flows).check_marginals(mu1, mu2)
        half = IdealMeasure.from_json(CANTOR, [["0", "1/2"], ["1", "1/2"]])
        crossed = TransportPlan([(0, 0, F(1)), (0, 1, F(-1, 2)),
                                 (1, 0, F(-1, 2)), (1, 1, F(1))])
        assert not crossed.check_marginals(half, half)

    def test_circle_point_spellings_are_one_point(self):
        # [DERIVED: distinctness is checked on (numerator, denominator)
        #  pairs; any two spellings of 1/2 in one measure are refused as
        #  duplicates]
        spellings = ["1/2", "2/4", " 1/2 ", "0.5", "+1/2"]
        for a, b in itertools.combinations(spellings, 2):
            with pytest.raises(ValueError, match="pairwise distinct"):
                IdealMeasure.from_json(CIRCLE, [[a, "1/2"], [b, "1/2"]])
        # the same spellings of distinct points stay distinct
        mu = IdealMeasure.from_json(CIRCLE, [["2/4", "1/2"], [" 1/4 ", "1/2"]])
        assert mu.points == (F(1, 2), F(1, 4))


class TestPlanCost:
    """Each space sums a plan's cost into one Fraction: on Cantor space from
    the branch depths of the zero-padded words, on the circle by `dist`.
    The oracle is Σ a dist(p1[i], p2[j]) / lw, term by term in
    Fractions."""

    # words equal after padding ("1", "10", "100"; "", "0", "00"), the
    # empty word and 24-letter words
    CANTOR_POOL = ["", "0", "00", "1", "10", "100", "01", "011", "1" * 24,
                   "0" * 23 + "1", "10" * 12, "1" + "0" * 23]

    @staticmethod
    def _oracle(space, p1, p2, flows, lw):
        return sum((a * space.dist(p1[i], p2[j]) for (i, j), a in flows),
                   F(0)) / lw

    def _pairs(self, rng, space):
        if space is CIRCLE:
            pool = [F(k, q) for q in (2, 7, 12, 1024) for k in range(q)]
        else:
            pool = self.CANTOR_POOL + [
                format(rng.getrandbits(m), f"0{m}b")
                for m in (rng.randint(1, 24) for _ in range(20))]
        p1, p2 = ([rng.choice(pool) for _ in range(rng.randint(1, 8))]
                  for _ in "ab")
        flows = [((rng.randrange(len(p1)), rng.randrange(len(p2))),
                  rng.randint(1, 1 << rng.randint(1, 40)))
                 for _ in range(rng.randint(1, 12))]
        return p1, p2, flows, rng.randint(1, 10 ** 6)

    def test_random_plans_against_dist(self):
        # [DERIVED: seeded random words and flows, not a plan w1_ideal
        #  would emit: the cost is a sum over any flows]
        rng = random.Random(4201)
        for space in (CIRCLE, CANTOR):
            for _ in range(400):
                p1, p2, flows, lw = self._pairs(rng, space)
                got = space.plan_cost(p1, p2, flows, lw)
                assert type(got) is F
                assert got == self._oracle(space, p1, p2, flows, lw)

    def test_cantor_edge_words(self):
        # [DERIVED: words equal after padding cost 0, also when one of
        #  them is empty or all words are; a 24-letter word against its
        #  neighbours at each branch depth]
        for p1, p2 in ((["1"], ["10"]), (["1"], ["100", ""]),
                       ([""], [""]), (["", "0"], ["00"]),
                       (["1" * 24], ["1" * 23, "1" * 23 + "0", "0"]),
                       (["1" * 24, "1"], ["1" * 23 + "01", "1" * 12, ""])):
            flows = [((i, j), 3 + i + 5 * j) for i in range(len(p1))
                     for j in range(len(p2))]
            got = CANTOR.plan_cost(p1, p2, flows, 7)
            assert got == self._oracle(CANTOR, p1, p2, flows, 7), (p1, p2)
        assert CANTOR.plan_cost(["1"], ["10", "100"], [((0, 0), 1),
                                                       ((0, 1), 2)], 3) == 0

    def test_w1_with_words_equal_after_padding(self):
        # [DERIVED: the value of w1 is the oracle cost of its own plan and
        #  the cut formula's, on a pair with "1" against "10" and "", and a
        #  24-letter word]
        long = "1" + "01" * 11 + "1"
        mu1 = IdealMeasure.from_json(CANTOR, [["1", "1/3"], [long, "2/3"]])
        mu2 = IdealMeasure.from_json(
            CANTOR, [["10", "1/6"], ["", "1/2"], [long[:-1], "1/3"]])
        value, plan = w1_ideal(CANTOR, mu1, mu2)
        cost = sum((a * CANTOR.dist(mu1.points[i], mu2.points[j])
                    for i, j, a in plan.flows), F(0))
        assert value == cost == cantor_formula(mu1, mu2)


def big_measure(rng, space, pool, size):
    ws = [rng.randint(1, 20) for _ in range(size)]
    return IdealMeasure(space, tuple(
        (p, f"{w}/{sum(ws)}") for p, w in zip(rng.sample(pool, size), ws)))


def circle_formula(mu1, mu2):
    """min over the step values alpha of the integral of |F - alpha|, F the
    difference of the two CDFs on [0, 1)."""
    jump = {}
    for sign, mu in ((1, mu1), (-1, mu2)):
        for p, w in mu.atoms:
            jump[p % 1] = jump.get(p % 1, 0) + sign * w
    xs = sorted(jump)
    steps, f = [], F(0)
    for x, nxt in zip(xs, xs[1:] + [xs[0] + 1]):
        f += jump[x]
        steps.append((f, nxt - x))
    # integers over one denominator keep the quadratic minimum fast
    den = lcm(*(v.denominator for s in steps for v in s))
    ints = [(int(v * den), int(length * den)) for v, length in steps]
    return min(sum(length * abs(v - alpha) for v, length in ints)
               for alpha, _ in ints) / F(den * den)


def cantor_formula(mu1, mu2):
    """sum over cylinders w, |w| >= 1, of 2^-(|w|+1) |mu1[w] - mu2[w]|; past
    the longest word every cylinder is a point with its zero tail."""
    depth = max(len(p) for mu in (mu1, mu2) for p, _ in mu.atoms)
    diff = {}
    for sign, mu in ((1, mu1), (-1, mu2)):
        for p, w in mu.atoms:
            word = p.ljust(depth, "0")
            for n in range(1, depth + 1):
                diff[word[:n]] = diff.get(word[:n], 0) + sign * w
    total = sum(F(abs(d), 1 << (len(w) + 1)) for w, d in diff.items())
    points = [abs(d) for w, d in diff.items() if len(w) == depth]
    # the zero-tail cylinders of length depth + 1, depth + 2, ... sum to
    # 2^-(depth+1) per point
    return total + sum(points) / (1 << (depth + 1))


def lebesgue_approx(m):
    """Lebesgue as 2^m equal atoms at the centres of the dyadic arcs."""
    n = 1 << m
    return IdealMeasure(CIRCLE, tuple((f"{2 * j + 1}/{2 * n}", f"1/{n}")
                                      for j in range(n)))


def bernoulli_approx(p, m):
    """Bernoulli(p), 0 < p < 1, as the mass of each length-m cylinder
    placed on the cylinder's word."""
    words = (format(bits, f"0{m}b") for bits in range(1 << m))
    return IdealMeasure(CANTOR, tuple((w, str(cylinder_mass(w, p)))
                                      for w in words))


def union_mass(system, balls):
    """The system's exact mass of a finite union of ideal balls."""
    return region_measure(system, system.region(balls))


class TestInstanceOracles:
    def test_union_examples(self):
        # [PAPER: overlapping arcs merge exactly]
        circle = doubling_system()
        balls = [IdealBall(CIRCLE, F(1, 5), F(1, 10)),
                 IdealBall(CIRCLE, F(1, 4), F(1, 10))]
        assert union_mass(circle, balls) == F(1, 4)
        assert union_mass(circle, []) == 0
        shift = shift_system(F(1, 2))
        assert union_mass(shift, [IdealBall(CANTOR, "1", F(3, 4))]) \
            == F(1, 2)

    def test_whole_space_and_one_ball(self):
        # [PAPER: arc length of a single ball; the cover is the whole space]
        circle = doubling_system()
        ball = IdealBall(CIRCLE, F(1, 2), F(1, 8))
        assert union_mass(circle, [ball]) == F(1, 4)
        for system in (circle, Shift(F(1))):
            assert union_mass(system, system.space.cover()) == 1

    def test_support_hit(self):
        # [PAPER: Lebesgue and Bernoulli(1/2) have full support;
        #  Bernoulli(1) gives mass zero to cylinders starting with 0]
        assert union_mass(doubling_system(),
                          [IdealBall(CIRCLE, F(1, 3), F(1, 100))]) > 0
        assert union_mass(shift_system(F(1, 2)),
                          [IdealBall(CANTOR, "0101", F(3, 32))]) > 0
        # shift_system refuses p = 1; the class weighs it all the same
        degenerate = Shift(F(1))
        assert union_mass(degenerate, [IdealBall(CANTOR, "01", F(3, 8))]) \
            == 0
        assert union_mass(degenerate, [IdealBall(CANTOR, "11", F(3, 8))]) > 0

    def test_ideal_approx_fast_cauchy(self):
        # [PAPER: a computable measure is a fast-Cauchy sequence of ideal
        #  measures in W1; here W1 between successive dyadic
        #  discretizations is <= 2^-m]
        for m in range(1, 5):
            d, _ = w1_ideal(CIRCLE, lebesgue_approx(m),
                            lebesgue_approx(m + 1))
            assert d <= F(1, 1 << m)
            d, _ = w1_ideal(CANTOR, bernoulli_approx(F(1, 3), m),
                            bernoulli_approx(F(1, 3), m + 1))
            assert d <= F(1, 1 << m)
