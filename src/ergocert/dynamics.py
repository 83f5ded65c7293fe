"""The built-in ergodic systems and their exact Birkhoff machinery.

Three systems: the doubling map on the circle with Lebesgue measure, the
one-sided Bernoulli shift on Cantor space, and the rigid rotation by an
exact quadratic irrational (default sqrt(2)-1).  Birkhoff averages are
evaluated either as certified interval enclosures along an orbit, or as
whole exact objects (piecewise-linear / cylinder functions) supporting
exact norms and sublevel sets, read from one running sum S_n per system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, cycle, repeat
from operator import add, and_, mul, sub
from typing import Optional, Union

from .arith import (DEFAULT_STEP_BUDGET, SQRT2_MINUS_1, Interval, Quad,
                    floor_root2, fmt_rat, parse_rat, pow2, sign_root2,
                    sqrt_upper)
from .errors import (BudgetExceededError, InputError, PrecisionStallError,
                     UnsupportedPairError)
from .observables import (CYLINDER_BUDGET_LOG2, CylinderFn, FTerm,
                          PiecewiseLinear, bernoulli_fold, pl_inner, pl_sum)
from .regions import ArcSet, CylSet
from .spaces import (CANTOR, CIRCLE, CantorPoint, CirclePoint, IdealBall,
                     Space, ball_arc)

#: hard cap on piecewise-linear segment counts in exact constructions
SEGMENT_BUDGET = 1 << 21
#: correlation terms computed exactly before the geometric tail bound kicks in
CORRELATION_CUTOFF = 120
#: largest octave searched for the minimal p (scanned, then bisected where
#: the bound is l2-upper and nonincreasing)
SCAN_CAP = 2048
#: cap on the doubling p-search
DEFAULT_P_BUDGET = 1 << 34
#: digit window used when scoring partial orbit points of a digit tail
BALANCE_WINDOW = 24
#: cap on the states of the shift's partial-sum law, summed over every n
#: it is pushed to (`Shift._priced`)
LAW_BUDGET = 1 << 26
#: denominators of the continued-fraction convergents of sqrt(2)-1
PELL_DENOMINATORS = [1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860,
                     33461, 80782, 195025]

Observable = Union[PiecewiseLinear, CylinderFn, FTerm]


class System:
    """A built-in measure-preserving system (T, mu).

    Each subclass owns every choice that depends on the map or on the
    invariant measure: the concrete observable class and its integral, the
    orbit enclosures, the exact average A_n, the bound on ||A_p fbar|| by a
    named route (`norm_by`; the checks name the recorded one) and the
    p-search's pick of route (`norm_route`), the p-search schedule, exact
    regions, the region of a list of ideal balls (`region`), the measure
    of a region (`weigh`) and of a deviation window (`deviation_mass`,
    `window_mass`), replay's check of a window (`replay_window`: its err,
    whether it holds a witness ball, and its ball that holds an accepted
    one, each by the checker's own route), the exact validation mode and
    the defaults of exact Borel-Cantelli windows.  Which of a region's
    ideal balls holds a candidate depends on the space alone, so the
    region finds it (`holder`).  The base class holds the routes of the
    two mixing systems, the exact L1 norm (`l1-exact`) and ||A_p fbar||_2
    from the correlations C(m) of fbar (`l2-upper`, which bounds either
    norm), and a doubling p-search that scans the winning octave and
    bisects it where the L2 bound is proved nonincreasing."""

    name: str
    space: Space
    #: how the invariant measure is named
    label: str
    #: observable class the exact machinery works on
    concrete: type
    #: how error messages name the system family
    where: str
    #: validate_as mode that measures a deviation event exactly
    exact_mode: str
    #: smallest deviation level of the default exact BC windows
    bc_delta_floor = Fraction(1, 4)
    #: largest n of the default exact BC windows
    bc_max_n: int
    #: (g's data, n, state) of the last running sum built
    _slot = None

    def selector(self) -> str:
        return self.name

    def as_concrete(self, f: Observable):
        """Resolve an observable to the concrete class of the system; an
        FTerm nested too deep to resolve is an InputError."""
        if isinstance(f, FTerm):
            try:
                return f.concrete(self.concrete)
            except RecursionError:
                raise InputError(
                    "observable expression nested too deep") from None
        if not isinstance(f, self.concrete):
            raise UnsupportedPairError(
                f"{type(f).__name__} observable on {self.where}")
        return f

    def birkhoff_sum(self, g, n: int):
        """S_n g = sum_{i<n} g o T^i in the system's form: (den, den S_n)
        on the shift's cylinders, a PiecewiseLinear (one integer form) on
        the circle, kept in `_slot` (`_kept`)."""
        key = (g.den, g.nums) if isinstance(g, CylinderFn) else g.form
        return self._kept("_slot", key, n,
                          lambda state, m: self._extend(g, state, m, n))

    def _kept(self, slot: str, key, n: int, extend):
        """The state at n of what `slot` keeps, keyed on g's integers (den
        and nums, or its form; `centered` builds a new g on every call):
        the same key at n >= the kept m extends the state at m, else the
        state at 0 is extended (extend(state, m) with state None at 0)."""
        held, m, state = getattr(self, slot) or (None, 0, None)
        if held != key or m > n:
            m, state = 0, None
        if m < n:
            state = extend(state, m)
            setattr(self, slot, (key, n, state))
        return state

    def norm_route(self, g, p: int, norm: str) -> str:
        """The route the p-search takes: `l1-exact` where it is cheap."""
        return ("l1-exact" if norm == "L1" and self.l1_exact_feasible(g, p)
                else "l2-upper")

    def norm_by(self, method: str, g, p: int, norm: str, corr=None):
        """A certified upper bound on ||A_p fbar||_norm by the route `method`,
        None if the system lacks it; `corr` returns `correlations(g)`."""
        if method == "l1-exact" and norm == "L1":
            return l_norm_birkhoff(self, g, p)
        if method != "l2-upper":
            return None
        table = corr() if corr else self.correlations(g)
        return sqrt_upper(l2_sq_enclosure(p, table).hi)

    def search_p(self, bound, threshold: Fraction, settled):
        """(p, w, method) with bound(p) = (w, method) and w < threshold:
        a doubling schedule up to DEFAULT_P_BUDGET, then the least q of a
        winning octave at most SCAN_CAP wide.  A probe that bound rules
        out without computing it returns w = None and fails.  The octave
        is scanned up to the first failing `l2-upper` q with settled(q),
        then bisected: later probes stay `l2-upper` and their bound is
        nonincreasing, so the bisection finds the q the scan would."""
        p = 1
        while True:
            w, method = bound(p)
            if w is not None and w < threshold:
                break
            p *= 2
            if p > DEFAULT_P_BUDGET:
                raise BudgetExceededError(
                    f"p-search exceeded {DEFAULT_P_BUDGET}")
        if p - p // 2 <= SCAN_CAP:
            lo, bisect = p // 2, False  # bound(lo) fails, bound(p) clears
            while p - lo > 1:
                q = (lo + p) // 2 if bisect else lo + 1
                wq, mq = bound(q)
                if wq is not None and wq < threshold:
                    p, w, method = q, wq, mq
                else:
                    lo = q
                    bisect = bisect or (mq == "l2-upper" and settled(q))
        return p, w, method


class Shift(System):
    """One-sided Bernoulli(p) shift on Cantor space (p = prob of 1).

    Two kernels read a depth-k g = nums/den.  The running sum S_n on all
    2^(n+k-1) words (`birkhoff_sum`) gives averages and the regions that
    synthesis draws from.  The law of den S_n under Bernoulli(a/b)
    (`_law`) gives L1 norms and deviation masses: for each word u of the
    last k - 1 symbols, the integer weights a^ones (b - a)^zeros of the
    words of n + k - 1 symbols that end in u, summed by their partial sum
    s = den S_n.  It is pushed forward one symbol at a time (the forward
    recursion of Baum, Petrie, Soules and Weiss, 1970) and holds at most
    min(2^(k-1) (n (max nums - min nums) + 1), 2^(n+k-1)) states, which
    `_priced` sums before it runs.  Replay checks a window on the same
    states by a range test (`law_window`), and builds no word table."""

    name = "shift"
    space = CANTOR
    concrete = CylinderFn
    where = "the shift"
    exact_mode = "EXACT_CYLINDER"
    bc_max_n = 18
    #: (g's nums, n, law) of the last partial-sum law built
    _law_slot = None

    def __init__(self, p: Fraction):
        self.p = p
        self.label = f"bernoulli({fmt_rat(p)})"

    def selector(self) -> str:
        return f"shift:p={self.p.numerator}/{self.p.denominator}"

    def orbit_enclosure(self, g: CylinderFn, x, n: int, m_in: int) -> Interval:
        # exact: the average reads no more than these symbols
        word = x.prefix(n + g.depth - 1 if g.depth else n)
        return Interval.point(sum(g.value_on_word(word[i:])
                                  for i in range(n)) / n)

    def average(self, g: CylinderFn, n: int) -> CylinderFn:
        if not g.depth:
            return g
        den, table = self.birkhoff_sum(g, n)
        return CylinderFn._of(n + g.depth - 1, den * n, table)

    def _extend(self, g: CylinderFn, state, m: int, n: int):
        # (den, den S_n) on the n + k - 1 symbols S_n reads; appending b to
        # word w adds g on its last k: S_{n+1}[2w+b] = S_n[w] + g[(2w+b) % 2^k]
        # (each entry of S_n twice, plus g's nums over and over)
        _refuse_words(g, n)
        den, table = state or (g.den, [0] * (1 << (g.depth - 1)))
        for _ in range(m, n):
            table = list(map(add, chain.from_iterable(zip(table, table)),
                             cycle(g.nums)))
        return den, table

    def _law(self, g: CylinderFn, n: int) -> list:
        """The law of den S_n g, g of depth k >= 1, kept in `_law_slot`:
        per suffix u, (offset, {key: weight}) with s = key + offset."""
        self._priced(g, n)
        return self._kept("_law_slot", g.nums, n, lambda law, m: self._push(
            g.nums, law or [(0, {0: w}) for w in _suffix_weights(g, self.p)],
            m, n))

    def _push(self, nums: list, law: list, m: int, n: int,
              mass: Optional[tuple] = None) -> list:
        # the word x = 2u + c of k symbols appends c to suffix u, adds
        # nums[x] to the sum and ends in suffix x mod 2^(k-1).  The two x
        # that end in suffix t, t and t + 2^(k-1), merge on the first one's
        # offset, every weight times the mass of c over b (b - a or a, or
        # `mass`[c]): a copy of the first row, into which the second adds
        # key by key through dict operations (no Python loop per state)
        half = len(law)
        a, b = self.p.numerator, self.p.denominator
        mass = mass or (b - a, a)
        for _ in range(m, n):
            out = []
            for t in range(half):
                (o0, d0), (o1, d1) = law[t >> 1], law[(t + half) >> 1]
                base, w0, w1 = o0 + nums[t], mass[t & 1], mass[(t + half) & 1]
                merged = dict(zip(d0, _weights(d0.values(), w0)))
                keys = list(map(add, d1, repeat(o1 + nums[t + half] - base)))
                held = map(merged.get, keys, repeat(0))
                merged.update(zip(keys, map(add, held,
                                            _weights(d1.values(), w1))))
                out.append((base, merged))
            law = out
        return law

    def _priced(self, g: CylinderFn, horizon: int) -> None:
        """Refuse a law pushed to `horizon` before it runs: each n up to it
        holds at most h min(2^n, n r + 1) states (h = 2^(k-1) suffixes,
        r = max nums - min nums), and the sum must stay within LAW_BUDGET.
        Once 2^n >= n r + 1 it stays so, and the rest sums in closed
        form.  r counts as 1 at least: a weight gains log2 b bits per
        symbol, so a constant g, whose law keeps h states, still costs
        in proportion to n at each step (at r = 0 the budget would admit
        a horizon of 2^26 steps on weights of as many bits)."""
        h, r = 1 << (g.depth - 1), max(max(g.nums) - min(g.nums), 1)
        total, n = 0, 1
        while n <= horizon and 1 << n < n * r + 1:
            total, n = total + (h << n), n + 1
        if n <= horizon:  # h (i r + 1) for n <= i <= horizon
            total += h * (r * (horizon * (horizon + 1) - n * (n - 1)) // 2
                          + horizon - n + 1)
        if total > LAW_BUDGET:
            raise BudgetExceededError(f"the partial-sum law up to n = "
                                      f"{horizon} needs over {LAW_BUDGET} "
                                      "states")

    @staticmethod
    def _split(law: list, c: int) -> tuple:
        """(weight of the states with |s| > c, the law of the others)."""
        beyond, out = 0, []
        for off, d in law:
            lo, hi = -c - off, c - off
            within = {s: v for s, v in d.items() if lo <= s <= hi}
            beyond += sum(d.values()) - sum(within.values())
            out.append((off, within))
        return beyond, out

    def correlations(self, g: CylinderFn) -> Correlations:
        """C(m) = E[fbar . fbar o sigma^m] for m < depth k, exact (C(m) = 0
        past it, by independence), in integers.  On words u v w with
        |u| = |w| = m, C(m) = E_v[A(v) B(v)]: A = L^m fbar is fbar's table
        with its first m symbols folded away (`bernoulli_fold`), B with its
        last m, each one fold on from m - 1, and A B folds to C(m)."""
        # priced before centering at k 2^(k+1); the folds cost about 2^(k+3)
        k = g.depth
        terms = k or 1
        if terms << (k + 1) > 1 << CYLINDER_BUDGET_LOG2:
            raise BudgetExceededError(f"{terms} correlations of depth {k} "
                                      f"need over 2^{CYLINDER_BUDGET_LOG2}")
        fbar = centered(self, g)
        b, nums = self.p.denominator, []
        A = B = fbar.nums
        for m in range(terms):
            nums.append(bernoulli_fold(list(map(mul, A, B)), self.p, k - m)[0]
                        * b ** (terms - 1 - m))
            A, B = (bernoulli_fold(A, self.p, 1, True),
                    bernoulli_fold(B, self.p, 1))
        return Correlations(nums, 0, fbar.den ** 2 * b ** (k + terms - 1))

    def l1_exact_feasible(self, g: CylinderFn, p: int) -> bool:
        return (p + g.depth - 1 if g.depth else 0) <= 16

    def integral(self, g: CylinderFn) -> Fraction:
        return g.integral(self.p)

    def l1_norm(self, g: CylinderFn, n: int) -> Fraction:
        """||A_n g||_1: sum of |s| times weight over den n b^(n+k-1); at
        n = 1, |g|'s table folded by the word weights (no law is pushed)."""
        g = g.lift(max(g.depth, 1))
        if n == 1:
            self._priced(g, n)
            total = bernoulli_fold(list(map(abs, g.nums)), self.p,
                                   g.depth)[0]
        else:
            total = sum(abs(s + off) * v
                        for off, d in self._law(g, n) for s, v in d.items())
        return Fraction(total, g.den * n
                        * self.p.denominator ** (n + g.depth - 1))

    def sublevel(self, g: CylinderFn, n: int, delta: Fraction) -> CylSet:
        # |A_n g| < delta on s = den S_n: |s| dd < dn den n iff |s| <= c
        if not g.depth:  # A_n g = g
            return CylSet([""] if g.sup_norm() < delta else [])
        den, table = self.birkhoff_sum(g, n)
        dn, dd = delta.numerator, delta.denominator
        c = (dn * den * n - 1) // dd
        return CylSet.from_flags(n + g.depth - 1,
                                 bytes(map(c.__ge__, map(abs, table))))

    def deviation_mass(self, g: CylinderFn, n: int, delta: Fraction,
                       region) -> Fraction:
        """mu{|A_n g| >= delta}, 1 - mu of `sublevel`, read from the law:
        `region` (its builder) is not called.  A region over
        2^CYLINDER_BUDGET_LOG2 cylinders is refused first, so a window is
        accepted only where its region can be built."""
        if g.depth:
            _refuse_words(g, n)
        g = g.lift(max(g.depth, 1))
        beyond, _ = self._split(self._law(g, n), (delta.numerator * g.den * n
                                                  - 1) // delta.denominator)
        return Fraction(beyond, self.p.denominator ** (n + g.depth - 1))

    def replay_window(self, f, n: int, delta: Fraction, witness: IdealBall,
                      ball: IdealBall) -> tuple:
        err, holder = self.law_window(*_window(self, f, n, delta))
        found = holder(ball.cylinder_prefix)
        return (err, holder(witness.cylinder_prefix) is not None,
                found and (found[0], CANTOR.cylinder_ball(found[1])))

    def law_window(self, g: CylinderFn, n: int, delta: Fraction) -> tuple:
        """(err, holder) of the window {|A_n g| < delta}, g centered, on
        the law's states with no word table: err = mu{|A_n g| >= delta},
        1 less the law's weight inside at n, and holder(word) the
        (position, word) of the window's maximal cylinder that holds the
        cylinder of `word`, or None, as `CylSet.holder` finds it.  The
        window is |den S_n| <= c, and the state after i terms in suffix t
        with sum s is inside it (so is every continuation) when s lies in
        span[i][t] = [-c - lo, c - hi], lo and hi the least and the greatest
        sum that the other n - i terms add from t; the holder is the
        shortest prefix inside.  With N(l) the words of length l inside and
        C(v) those of v's length below v, N(l) - 2 N(l - 1) cylinders of
        each length l are maximal, and C(u) - 2 C(u') of u's length lie
        below u (u' is u less its last symbol).  Refused like the region,
        over 2^CYLINDER_BUDGET_LOG2 cylinders, then by the law's price."""
        if g.depth:
            _refuse_words(g, n)
        else:  # A_n g = g: the window at n is the one at n = 1
            n = 1
        g = g.lift(max(g.depth, 1))
        self._priced(g, n)
        k, nums, h = g.depth, g.nums, 1 << (g.depth - 1)
        c = (delta.numerator * g.den * n - 1) // delta.denominator
        # a term from suffix u reads x = 2u + e, adds nums[x] and ends in
        # suffix x mod h: lo and hi by suffix, from i = n down
        lo, hi, span = [0] * h, [0] * h, [[(-c, c)] * h]
        for _ in range(n):
            low, high = (list(map(add, nums, v + v)) for v in (lo, hi))
            lo = list(map(min, low[::2], low[1::2]))
            hi = list(map(max, high[::2], high[1::2]))
            span.insert(0, list(zip(map(sub, repeat(-c), lo),
                                    map(sub, repeat(c), hi))))

        def inside(law: list, i: int) -> int:
            # the words that law, after i terms, counts into the window
            return sum(v for (off, d), (left, right) in zip(law, span[i])
                       for s, v in d.items() if left <= s + off <= right)

        err = 1 - Fraction(inside(self._push(nums, [
            (0, {0: w}) for w in _suffix_weights(g, self.p)], 0, n), n),
            self.p.denominator ** (n + k - 1))
        # the words of m < k - 1 symbols: a binary tree over the suffixes,
        # a word inside when both of its halves are
        tree = [[left <= 0 <= right for left, right in span[0]]]
        while len(tree[0]) > 1:
            tree.insert(0, list(map(and_, tree[0][::2], tree[0][1::2])))
        full, layer = [t.count(True) for t in tree], [(0, {0: 1})] * h
        for i in range(1, n + 1):
            layer = self._push(nums, layer, 0, 1, (1, 1))
            full.append(inside(layer, i))

        def walk(word: str):
            # (i, x, s) for each of the n terms that word reads: the k
            # symbols x of the i-th and the sum s after it
            s = 0
            for i in range(1, min(len(word) - k + 1, n) + 1):
                x = int(word[i - 1:i - 1 + k], 2)
                s += nums[x]
                yield i, x, s

        def held(word: str):
            # whether the window holds each prefix of word
            for m in range(min(len(word), k - 1) + 1):
                yield tree[m][int(word[:m] or "0", 2)]
            for i, x, s in walk(word):
                left, right = span[i][x & (h - 1)]
                yield left <= s <= right

        @cache  # once per holder
        def position(u: str) -> int:
            # C(u[:m]) for each m: in the tree, then the words below
            # u[:m - 1] pushed on by state, and u[:m - 1] + "0" if it is
            # below u[:m]
            less = [tree[m][:int(u[:m] or "0", 2)].count(True)
                    for m in range(min(len(u), k - 1) + 1)]
            v = int(u[:k - 1] or "0", 2)
            law = [(0, {0: 1} if t < v else {}) for t in range(h)] \
                if len(u) >= k else []
            for i, x, s in walk(u):
                law = self._push(nums, law, 0, 1, (1, 1))
                if x & 1:
                    off, d = law[(x - 1) & (h - 1)]
                    key = s - nums[x] + nums[x - 1] - off
                    d[key] = d.get(key, 0) + 1
                less.append(inside(law, i))
            m = len(u)
            return (sum(full[:m]) - 2 * sum(full[:m - 1]) + less[m]
                    - 2 * less[m - 1]) if m else 0

        def holder(word: str) -> Optional[tuple]:
            m = next((m for m, w in enumerate(held(word)) if w), None)
            return None if m is None else (position(word[:m]), word[:m])

        return err, holder

    def region(self, balls: list[IdealBall]) -> CylSet:
        return CylSet([b.cylinder_prefix for b in balls])

    def weigh(self, region: CylSet) -> Fraction:
        return region.measure(self.p)

    def input_bits(self, g: CylinderFn, n: int, m: int) -> int:
        return 0  # cylinder averages read their symbols exactly

    def point_in(self, final: IdealBall, track: list):
        # the ball's word gives the first digits; the digit tail the rest
        window = max((g.depth for g in track), default=1)
        tail = _DigitTail(map(int, final.cylinder_prefix), track, window)
        return CantorPoint(tail.bit)

    def window_mass(self, g: CylinderFn, window: range,
                    delta: Fraction) -> Fraction:
        """Exact mu{max_{n in window} |A_n g| > delta}: the law at the
        window's start, pushed through the window, gives up at each n the
        states with |A_n g| > delta; their weight is carried on, times b
        per symbol.  Priced before it runs: the law's states up to the
        window's end (`_priced`)."""
        g = g.lift(max(g.depth, 1))
        self._priced(g, window[-1])
        b, dn, dd = self.p.denominator, delta.numerator, delta.denominator
        hit, law, m = 0, self._law(g, window.start), window.start
        for n in window:
            law, hit = self._push(g.nums, law, m, n), hit * b ** (n - m)
            beyond, law = self._split(law, dn * g.den * n // dd)
            hit, m = hit + beyond, n
        return Fraction(hit, b ** (m + g.depth - 1))


def _refuse_words(g: CylinderFn, n: int) -> None:
    """Refuse S_n on more than 2^CYLINDER_BUDGET_LOG2 words."""
    d = n + g.depth - 1
    if d > CYLINDER_BUDGET_LOG2:
        raise BudgetExceededError(f"A_{n} needs 2^{d} cylinders")


def _weights(values, w: int):
    """The weights of a law's row, times w."""
    return values if w == 1 else map(mul, values, repeat(w))


def _suffix_weights(g: CylinderFn, p: Fraction) -> list:
    """a^ones (b - a)^zeros of every word of k - 1 symbols, in table order,
    for p = a/b."""
    a, b = p.numerator, p.denominator
    k = g.depth - 1
    return [a ** u.bit_count() * (b - a) ** (k - u.bit_count())
            for u in range(1 << k)]


class CircleMap(System):
    """A Lebesgue-preserving map of the circle; subclasses give the image
    of a real-line interval under T^i, the terms of the average and the
    segment count `_segment_count` that bounds S_n."""

    space = CIRCLE
    label = "lebesgue"
    concrete = PiecewiseLinear
    where = "a circle system"
    exact_mode = "EXACT_ARC"
    #: input bits each map step costs (log2 of the map's expansion)
    bits_per_step = 0

    def orbit_enclosure(self, g: PiecewiseLinear, x, n: int,
                        m_in: int) -> Interval:
        # A_n g over the real-line interval enclosing x
        box = x.enclosure(m_in)
        total = Interval.point(0)
        for i in range(n):
            total = total + g.range_on(*self._image(box.lo, box.hi, i))
        return Interval(total.lo / n, total.hi / n)

    def average(self, g: PiecewiseLinear, n: int) -> PiecewiseLinear:
        return self.birkhoff_sum(g, n).scale(Fraction(1, n))

    def integral(self, g: PiecewiseLinear):
        return g.integral()

    def l1_norm(self, g: PiecewiseLinear, n: int):
        return self.birkhoff_sum(g, n).abs_integral() / n

    def sublevel(self, g: PiecewiseLinear, n: int, delta: Fraction) -> ArcSet:
        # |A_n g| < delta where |S_n g| < n delta
        return self.birkhoff_sum(g, n).arcs_below_abs(n * delta)

    def region(self, balls: list[IdealBall]) -> ArcSet:
        return ArcSet.from_raw([ball_arc(b) for b in balls])

    def weigh(self, region: ArcSet) -> Fraction:
        return region.measure()

    def deviation_mass(self, g: PiecewiseLinear, n: int, delta: Fraction,
                       region) -> Fraction:
        """mu{|A_n g| >= delta}, 1 - mu of the region {|A_n g| < delta}
        that `region()` builds."""
        return 1 - self.weigh(region())

    def replay_window(self, f, n: int, delta: Fraction, witness: IdealBall,
                      ball: IdealBall) -> tuple:
        # from the region as `deviation_region` builds it
        region = deviation_region(self, f, n, delta)
        return (1 - self.weigh(region), region.contains_ball(witness),
                region.holder(ball))

    def input_bits(self, g: PiecewiseLinear, n: int, m: int) -> int:
        return m + 2 + self.bits_per_step * n + _slope_bits(g)

    def point_in(self, final: IdealBall, track: list):
        return CirclePoint.from_rational(final.center)

    def window_mass(self, g: PiecewiseLinear, window: range,
                    delta: Fraction) -> Fraction:
        """Exact mu{max_{n in window} |A_n g| > delta}: the measure of the
        arcs where S_n g > n delta or S_n g < -n delta for some n in the
        window (rounded up when the arcs are irrational), both tails read
        from S_n itself (in integers on its integer form, over Z[sqrt2] on
        the rotation) and every n's arcs merged by one `ArcSet.union`, in
        integers over one denominator (the rotation's Q[sqrt2] ends by
        their exact order keys).
        Priced before it runs: the segment counts `_extend` checks, summed
        over the window, must stay within SEGMENT_BUDGET."""
        if any(t > SEGMENT_BUDGET for t in
               accumulate(self._segment_count(g, n) for n in window)):
            raise BudgetExceededError(
                f"validation over n in [{window.start}, {window.stop - 1}] "
                f"needs more than {SEGMENT_BUDGET} segments")
        tails = []
        for n in window:
            s, level = self.birkhoff_sum(g, n), n * delta
            tails += [s.arcs_above(level), s.arcs_below(-level)]
        mass = ArcSet.union(tails).measure()
        if not isinstance(mass, Fraction):
            mass = mass.approx(60) + pow2(60)
        return mass


class Doubling(CircleMap):
    """x -> 2x mod 1."""

    name = "doubling"
    bc_max_n = 14
    bits_per_step = 1

    def _image(self, lo, hi, i: int):
        sc = 1 << i
        return sc * lo, sc * hi

    def _segment_count(self, g: PiecewiseLinear, n: int) -> int:
        # n capped first: a replayed window may record any n, and past the
        # budget's bit length the count is over budget whatever g is
        return len(g.form.xa) << min(n, SEGMENT_BUDGET.bit_length())

    def _extend(self, g: PiecewiseLinear, s, m: int, n: int):
        # S_(i+1) = g + S_i o T: S_i o T is S_i's rational integer form
        # with the starts copied to x + q on the grid 2q (q = D 2^(i-1), D
        # the lcm of g's breakpoint denominators), and g's form adds on its
        # few breakpoints; see PiecewiseLinear
        if self._segment_count(g, n) > SEGMENT_BUDGET:
            raise BudgetExceededError(f"A_{n} on the doubling map needs "
                                      f"more than {SEGMENT_BUDGET} segments")
        for i in range(m, n):
            s = s.pullback_doubling().add(g) if i else g
        return s

    def correlations(self, g: PiecewiseLinear) -> Correlations:
        # past CORRELATION_CUTOFF terms: the transfer operator halves
        # variation and a zero-mean function is bounded by its variation,
        # so |C(m)| <= ||fbar||_1 Var(fbar) 2^-m
        fbar = centered(self, g)
        den, nums = doubling_correlations(fbar, CORRELATION_CUTOFF)
        return Correlations(nums, fbar.abs_integral() * fbar.total_variation(),
                            den)

    def l1_exact_feasible(self, g: PiecewiseLinear, p: int) -> bool:
        # p first: the p-search asks up to p = DEFAULT_P_BUDGET = 2^34
        return p <= 12 and len(g.form.xa) << p <= 1 << 12

    def point_in(self, final: IdealBall, track: list):
        """The left endpoint's binary digits, continued by a digit tail
        that keeps the tracked orbit sums balanced (the centre when the
        ball is not a dyadic arc or nothing is tracked)."""
        r = final.radius
        depth = r.denominator.bit_length() - 2
        left = (final.center - r) % 1 * (1 << max(depth, 0))
        if not track or r.numerator != 1 \
                or r.denominator & (r.denominator - 1) or depth < 0 \
                or left.denominator != 1:
            return super().point_in(final, track)
        base = [int(c) for c in format(int(left), f"0{depth}b")] \
            if depth else []
        tail = _DigitTail(base, track, BALANCE_WINDOW)

        def approx(m: int) -> Fraction:
            d = m + 2
            v = Fraction(sum(tail.bit(i) << (d - 1 - i) for i in range(d)),
                         1 << d)
            return v + pow2(d + 1)  # midpoint of the remaining digit interval

        return CirclePoint(approx)


class Rotation(CircleMap):
    """x -> x + alpha mod 1 for an exact quadratic irrational alpha."""

    name = "rotation"
    bc_delta_floor = Fraction(1, 128)
    bc_max_n = 200

    def __init__(self, alpha: Quad):
        self.alpha = alpha
        # the angle mod 1 as (sa + sb sqrt2)/D, D the lcm of its two
        # denominators: the orbit i alpha mod 1 is then integers over D
        c = alpha.mod1()
        self._den = D = math.lcm(c.a.denominator, c.b.denominator)
        self._step = (c.a.numerator * (D // c.a.denominator),
                      c.b.numerator * (D // c.b.denominator))

    def _image(self, lo, hi, i: int):
        sh = self.alpha * i
        return lo + sh, hi + sh

    def _segment_count(self, g: PiecewiseLinear, n: int) -> int:
        return len(g.form.xa) * n

    def _orbit(self, m: int, n: int) -> list:
        """(ca, cb) with i alpha mod 1 = (ca + cb sqrt2)/D, for m <= i < n:
        the first is m (sa, sb) less D floor((m sa + floor(m sb sqrt2))/D),
        and each next adds (sa, sb) and takes D away where that reaches
        1."""
        D, (sa, sb) = self._den, self._step
        ca, cb = m * sa, m * sb
        ca -= D * ((ca + floor_root2(cb)) // D)
        out = []
        for _ in range(m, n):
            out.append((ca, cb))
            ca, cb = ca + sa, cb + sb
            if sign_root2(ca - D, cb) >= 0:
                ca -= D
        return out

    def _extend(self, g: PiecewiseLinear, s, m: int, n: int):
        # S_n: one sweep over S_m (g itself at m = 0) and the translates
        # g o R^i, max(m, 1) <= i < n, each filing g's own jumps at its
        # point of the integer orbit (`pl_sum`); no term is built
        if self._segment_count(g, n) > SEGMENT_BUDGET:
            raise BudgetExceededError(f"A_{n} rotation average too large")
        return pl_sum([g if s is None else s], g,
                      self._orbit(max(m, 1), n), self._den)

    def sublevel(self, g: PiecewiseLinear, n: int, delta: Fraction) -> ArcSet:
        # the breakpoints b - i alpha are irrational: every arc shrinks
        # inward to the 2^-48 grid, so the region has rational ends
        return super().sublevel(g, n, delta).to_rational_inner(pow2(48))

    def norm_route(self, g, p: int, norm: str) -> str:
        return "sup-exact"  # L1 is irrational and C(m) does not decay

    def norm_by(self, method: str, g, p: int, norm: str, corr=None):
        return (rotation_sup_bound(self, g, p) if method == "sup-exact"
                else None)

    def search_p(self, bound, threshold: Fraction, settled):
        """Probe the denominators of the continued-fraction convergents of
        the angle only: intermediate p are not competitive and each probe
        costs a full exact average."""
        for p in PELL_DENOMINATORS:
            w, method = bound(p)
            if w < threshold:
                return p, w, method
        raise BudgetExceededError(
            f"no convergent denominator attains norm < {threshold}")


def doubling_system() -> System:
    return Doubling()


def shift_system(p) -> System:
    p = Fraction(p)
    if not 0 < p < 1:
        raise InputError("shift parameter must lie in (0,1)")
    return Shift(p)


def rotation_system(alpha: Optional[Quad] = None) -> System:
    """Rotation by the exact angle alpha (default sqrt(2)-1)."""
    return Rotation(SQRT2_MINUS_1 if alpha is None else alpha)


def parse_system(selector: str) -> System:
    if not isinstance(selector, str):
        raise InputError(f"system must be a string, not {selector!r}")
    s = selector.strip()
    if s == "doubling":
        return doubling_system()
    if s == "rotation":
        return rotation_system()
    if s.startswith("shift:p="):
        try:
            return shift_system(parse_rat(s[len("shift:p="):]))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad shift parameter in {selector!r}: {e}")
    raise InputError(f"unknown system selector {selector!r} "
                     "(expected doubling | shift:p=num/den | rotation)")


def builtin_systems() -> list[System]:
    return [doubling_system(), shift_system(Fraction(1, 2)), rotation_system()]


# ---------------------------------------------------------------------------
# Observables vs systems


def integral(system: System, f: Observable) -> Fraction:
    """Exact integral of f against the invariant measure."""
    return system.integral(system.as_concrete(f))


def centered(system: System, f: Observable):
    """f - integral(f), in concrete form; f's own when integral(f) = 0."""
    g = system.as_concrete(f)
    m = system.integral(g)
    return g if m == 0 else g.add_const(-m)


# ---------------------------------------------------------------------------
# Orbit evaluation with certified enclosures


def birkhoff_eval(system: System, f: Observable, x, n: int,
                  m: int) -> Interval:
    """Certified enclosure of A_n f(x) of width <= 2^-m.

    Input precision starts at the system's structural requirement (n + m
    plus slope overhead on the circle, nothing on the shift, whose
    enclosures are exact) and grows until the width target is met; a
    persistent straddle of a discontinuity raises PRECISION_STALL."""
    if n < 1:
        raise InputError("n must be >= 1")
    g = system.as_concrete(f)
    target = pow2(m)
    m_in = system.input_bits(g, n, m)
    best = None
    for _ in range(DEFAULT_STEP_BUDGET):
        out = system.orbit_enclosure(g, x, n, m_in)
        if best is None:
            best = out
        else:
            hit = best.intersect(out)
            best = hit if hit is not None else out
        if best.width <= target:
            return best
        m_in += 32
    raise PrecisionStallError(
        f"A_{n} enclosure stuck at width {best.width} (target 2^-{m})")


def _slope_bits(g: PiecewiseLinear) -> int:
    return max(0, math.ceil(g.max_slope()).bit_length()) + 2


# ---------------------------------------------------------------------------
# Exact Birkhoff averages as whole objects


def birkhoff_observable(system: System, f: Observable, n: int):
    """A_n f as an exact concrete observable (budget-capped), read from the
    system's one running sum S_n f (`System.birkhoff_sum`)."""
    if n < 1:
        raise InputError("n must be >= 1")
    return system.average(system.as_concrete(f), n)


# ---------------------------------------------------------------------------
# Exact norms of centered Birkhoff averages


def doubling_correlations(fbar: PiecewiseLinear, count: int) -> tuple:
    """(den, nums) with C(m) = nums[m]/den the integral of fbar * (fbar
    composed with T^m) d Leb, for m < count, read as <fbar, g_m> with
    g_m = L^m fbar, L the transfer operator (exact; the iterates keep a
    bounded number of segments).

    The table stops transferring once an iterate repeats up to a scalar:
    g_j = c g_i (i < j) gives C(i + r d + s) = c^r C(i + s) for every r and
    s < d = j - i by linearity, so the rest of the table follows exactly,
    in integers: for c = a/b the transferred head over the lcm of its
    denominators, all of it times b^R (R the last r), and the r-th period
    of the tail times a^r b^(R - r).  A zero iterate (c = 0) ends the
    table in zeros.  The transfer keeps the steps 1/n of fbar's integer
    form, so a repeat shows on equal starts and proportional value and
    increment columns."""
    head, seen, g, rep = [], {}, fbar, None
    for j in range(count):
        earlier = seen.setdefault(tuple(g.form.xa), [])
        rep = next(((i, c) for i, h in earlier
                    if (c := _multiple(g.form, h)) is not None), None)
        if rep:
            break
        earlier.append((j, g.form))
        head.append(pl_inner(fbar, g))
        g = g.transfer_doubling()
    den = math.lcm(*[x.denominator for x in head])
    nums = [x.numerator * (den // x.denominator) for x in head]
    i, c = rep or (count, 0)
    a, b = c.as_integer_ratio()
    if not a:  # no repeat, or a zero iterate
        return den, nums + [0] * (count - len(nums))
    period = nums[i:]
    last = (count - 1 - i) // len(period)
    ups = accumulate(repeat(a, last), mul, initial=1)
    downs = list(accumulate(repeat(b, last), mul, initial=1))
    tail = [x * f for f in map(mul, ups, reversed(downs)) for x in period]
    top = downs[-1]
    return den * top, [x * top for x in nums[:i]] + tail[:count - i]


def _multiple(g, h) -> Optional[Fraction]:
    """c with g = c h, or None, for integer forms on the same starts: c is
    the ratio of their value and increment columns, each over its own e;
    c = 0 when g is zero."""
    gs, hs = g.vu + g.ds, h.vu + h.ds
    p, q = next(((a, b) for a, b in zip(gs, hs) if b), (0, 1))
    c = Fraction(p * h.e, q * g.e)
    return c if all(a * h.e * c.denominator == c.numerator * b * g.e
                    for a, b in zip(gs, hs)) else None


class Correlations:
    """C(0), ..., C(len-1) of a centered observable, given as the integers
    `nums` over one positive denominator `den` (any common one, not
    necessarily the least) and kept as den C(0) and the prefix sums of
    den C(m) and den m C(m), so that any p combines in integers and builds
    each end of its enclosure with one Fraction.  `decay` is a constant
    such that |C(m)| <= decay * 2^-m for every m >= len."""

    def __init__(self, nums: list, decay, den: int):
        self.den = den
        self.c0 = nums[0]
        self.sums = list(accumulate(nums[1:], initial=0))
        self.msums = list(accumulate((m * x for m, x in
                                      enumerate(nums[1:], 1)), initial=0))
        self.decay = decay

    def l2_sq(self, p: int) -> Interval:
        """(1/p^2)[p C(0) + 2 sum_{m=1}^{p-1} (p-m) C(m)], with the terms
        past the table bounded by the geometric tail
        (2/p) decay 2^-(len-1)."""
        cut = min(p, len(self.sums))
        tot = p * self.c0 + 2 * (p * self.sums[cut - 1] - self.msums[cut - 1])
        if cut == p or not self.decay:
            val = Fraction(tot, self.den * p * p)
            return Interval(val, val)
        # both ends over one denominator den p^2 td, td = decay.den 2^(cut-1)
        tn, td = self.decay.numerator, self.decay.denominator << (cut - 1)
        mid, tail, den = tot * td, 2 * tn * self.den * p, self.den * p * p * td
        return Interval(Fraction(mid - tail, den), Fraction(mid + tail, den))

    def nonincreasing_from(self) -> Optional[int]:
        """A p from which l2_sq(p).hi is nonincreasing, or None: past the
        table it is (A p - B)/(den td p^2), tn/td the tail constant (0/1
        without one), whose derivative has the sign of 2B - A p."""
        size = len(self.sums)
        tn, td = ((self.decay.numerator, self.decay.denominator << (size - 1))
                  if self.decay else (0, 1))
        a = (self.c0 + 2 * self.sums[-1]) * td + 2 * tn * self.den
        b = 2 * self.msums[-1] * td
        if a > 0:
            return max(size + 1, -(-2 * b // a))
        return size + 1 if a == 0 and b <= 0 else None


def l2_sq_enclosure(p: int, corr: Correlations) -> Interval:
    """Enclosure of ||A_p fbar||_2^2 for fbar = f - integral f, exact
    (width 0) whenever all correlations are computed, tail-bounded
    otherwise.

    Uses ||A_p fbar||_2^2 = (1/p^2)[p C(0) + 2 sum_{m=1}^{p-1} (p-m) C(m)]
    on the doubling map and the shift, from `corr`, the system's
    correlation table of fbar (`System.correlations`), so f is not
    re-centered: integers over one denominator (`Correlations`), which
    each p combines into one Fraction per end.  The doubling map's stops
    transferring at the first iterate that repeats up to a scalar
    (`doubling_correlations`); the shift's folds one more symbol per m."""
    if p < 1:
        raise InputError("p must be >= 1")
    return corr.l2_sq(p)


def l_norm_birkhoff(system: System, f: Observable, p: int):
    """Exact L1 norm of A_p(f - integral f)."""
    if p < 1:
        raise InputError("p must be >= 1")
    return system.l1_norm(centered(system, f), p)


def rotation_sup_bound(system: System, f: Observable, p: int) -> Fraction:
    """Certified rational upper bound on ||A_p(f - integral f)||_infty for
    the rotation (hence on the L1 and L2 norms as well)."""
    s = birkhoff_observable(system, centered(system, f), p).sup_norm()
    if isinstance(s, Quad):
        return s.approx(60) + pow2(60)
    return s


# ---------------------------------------------------------------------------
# Deviation sets


def deviation_region(system: System, f: Observable, n: int, delta: Fraction):
    """Region {x : |A_n(f - integral f)(x)| < delta} with rational ends: a
    CylSet of runs over the words A_n reads on Cantor space, an ArcSet on
    the circle (the rotation's rounded inward to the 2^-48 grid)."""
    return system.sublevel(*_window(system, f, n, delta))


def _window(system: System, f: Observable, n: int, delta) -> tuple:
    """(f - integral f, n, delta) of a deviation window, refused unless
    delta > 0 and n >= 1."""
    delta = Fraction(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    if n < 1:
        raise InputError("n must be >= 1")
    return centered(system, f), n, delta


# ---------------------------------------------------------------------------
# Digit tails (deterministic extension of a synthesized prefix)


class _DigitTail:
    """Extends a fixed bit prefix one digit at a time.

    With tracked observables the next digit is chosen to keep the running
    orbit sums small: each settled window of `window` digits fixes one
    orbit point up to 2^-window, and g's `window_reader` reads g there as
    an integer over its own denominator.  The sums stay integers, and the
    two digits' scores compare over their lcm.  Otherwise digits are 0."""

    def __init__(self, base, track: list, window: int):
        self.bits, self.word = [], 0  # word: the last window - 1 digits
        self.window = max(1, window)
        readers = [g.window_reader(self.window) for g in track]
        top = math.lcm(*[den for den, _ in readers])
        self.reads = [(top // den, read) for den, read in readers]
        self.sums = [0] * len(readers)
        for b in base:  # settle the orbit points the base digits fix
            self._push(b, self._values(b))

    def _values(self, b: int) -> list[int]:
        """The tracked values at the window digit b completes, if any."""
        word = self.word << 1 | b
        return [read(word) for _, read in self.reads] \
            if len(self.bits) + 1 >= self.window else []

    def _push(self, b: int, vals: list[int]):
        if vals:
            self.sums = [s + v for s, v in zip(self.sums, vals)]
        self.bits.append(b)
        self.word = (self.word << 1 | b) & ((1 << (self.window - 1)) - 1)

    def bit(self, i: int) -> int:
        while len(self.bits) <= i:
            self._choose()
        return self.bits[i]

    def _choose(self):
        vals, b = [self._values(b) for b in (0, 1)], 0
        if vals[0]:
            s0, s1 = (sum(w * abs(s + v) for (w, _), s, v in
                          zip(self.reads, self.sums, vs)) for vs in vals)
            b = int(s1 < s0)
        self._push(b, vals[b])
