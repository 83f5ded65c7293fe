"""Observable classes with exact integration.

Three variants: piecewise-linear functions on the circle (rational values,
rational or Q[sqrt2] breakpoints), cylinder functions on Cantor space, and
the closure of the Lipschitz bump family under max, min and rational linear
combinations.  Everything integrates, clamps and takes sublevel sets in
exact arithmetic; that is what makes rate certificates replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Interval, Quad, fmt_rat, mod1, parse_rat
from .regions import ArcSet, CylSet, cylinder_mass
from .spaces import (CANTOR, CIRCLE, Space, cantor_dist, pos_rational,
                     space_named, unpair)


class PiecewiseLinear:
    """Piecewise-linear function on the circle [0,1).

    Stored as contiguous segments (a, b, va, vb): linear from va at a to vb
    at b, right-continuous at segment starts.  Jumps between segments are
    allowed (f(x)=x as a circle map jumps at 0)."""

    __slots__ = ("segments",)
    space = CIRCLE

    def __init__(self, segments):
        segs = [s for s in segments if s[0] < s[1]]
        if not segs or segs[0][0] != 0 or segs[-1][1] != 1:
            raise ValueError("segments must tile [0,1]")
        for s, t in zip(segs, segs[1:]):
            if s[1] != t[0]:
                raise ValueError("segments must be contiguous")
        # merge collinear continuous neighbours to keep normal forms small
        merged = [segs[0]]
        for a, b, va, vb in segs[1:]:
            pa, pb, pva, pvb = merged[-1]
            if pvb == va and _collinear(pa, pb, pva, pvb, b, vb):
                merged[-1] = (pa, b, pva, vb)
            else:
                merged.append((a, b, va, vb))
        self.segments = merged

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "PiecewiseLinear":
        c = Fraction(c)
        return PiecewiseLinear([(Fraction(0), Fraction(1), c, c)])

    @staticmethod
    def identity() -> "PiecewiseLinear":
        return PiecewiseLinear([(Fraction(0), Fraction(1), Fraction(0), Fraction(1))])

    @staticmethod
    def from_breakpoint_values(xs, vs) -> "PiecewiseLinear":
        """Continuous circular interpolation through (x_i, v_i); xs sorted in
        [0,1)."""
        n = len(xs)
        segs = []
        for i in range(n):
            x0, v0 = xs[i], vs[i]
            x1, v1 = (xs[i + 1], vs[i + 1]) if i + 1 < n else (xs[0] + 1, vs[0])
            segs.append((x0, x1, v0, v1))
        return _rebuild_from_circular(segs)

    @staticmethod
    def hat(s, r, eps) -> "PiecewiseLinear":
        """The Lipschitz bump: 1 on B(s,r), 0 outside B(s,r+eps), linear in
        between (clamped through the circle distance function)."""
        s, r, eps = Fraction(s), Fraction(r), Fraction(eps)
        if r <= 0 or eps <= 0:
            raise ValueError("r and eps must be positive")
        anti = (s + Fraction(1, 2)) % 1
        dist = PiecewiseLinear.from_breakpoint_values(*_sorted_pair_nodes(s, anti))
        g = dist.add_const(-r).max_const(0).scale(Fraction(-1) / eps).add_const(1)
        return g.max_const(0).min_const(1)

    # -- evaluation --------------------------------------------------------

    def eval_right(self, x):
        """f(x) with the right-continuous convention; x in [0,1)."""
        a, b, va, vb = self._segment_at(x)
        if x == a:
            return va
        return va + (vb - va) * (x - a) / (b - a)

    def _segment_at(self, x):
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.segments[mid][0] <= x:
                lo = mid
            else:
                hi = mid - 1
        return self.segments[lo]

    def range_on(self, lo, hi) -> Interval:
        """Exact hull of f over the real-line interval [lo, hi] mod 1."""
        if hi - lo >= 1:
            return self.global_range()
        lo0 = mod1(lo)
        hi0 = lo0 + (hi - lo)
        vals = []
        for a, b, va, vb in self.segments:
            for sh in (0, 1):
                aa, bb = a + sh, b + sh
                s, t = max(aa, lo0), min(bb, hi0)
                if s <= t:
                    vals.append(_lerp(a, b, va, vb, s - sh))
                    vals.append(_lerp(a, b, va, vb, t - sh))
        lo_v, hi_v = min(vals), max(vals)
        # cut values at irrational query endpoints are rounded outward
        if isinstance(lo_v, Quad):
            lo_v = lo_v.approx(64) - Fraction(1, 1 << 64)
        if isinstance(hi_v, Quad):
            hi_v = hi_v.approx(64) + Fraction(1, 1 << 64)
        return Interval(lo_v, hi_v)

    def global_range(self) -> Interval:
        vals = [v for _, _, va, vb in self.segments for v in (va, vb)]
        return Interval(min(vals), max(vals))

    # -- exact integrals and norms ----------------------------------------

    def integral(self):
        tot = 0
        for a, b, va, vb in self.segments:
            tot = tot + (b - a) * (va + vb) / 2
        return tot

    def abs(self) -> "PiecewiseLinear":
        segs = []
        for a, b, va, vb in self.segments:
            if (va < 0 < vb) or (vb < 0 < va):
                c = a + (b - a) * (0 - va) / (vb - va)
                segs.append((a, c, abs(va), 0 * va))
                segs.append((c, b, 0 * va, abs(vb)))
            else:
                segs.append((a, b, abs(va), abs(vb)))
        return PiecewiseLinear(segs)

    def abs_integral(self):
        return self.abs().integral()

    def square_integral(self):
        tot = 0
        for a, b, va, vb in self.segments:
            tot = tot + (b - a) * (va * va + va * vb + vb * vb) / 3
        return tot

    def sup_norm(self) -> Fraction:
        vals = [abs(va) for _, _, va, _ in self.segments]
        vals += [abs(vb) for _, _, _, vb in self.segments]
        return max(vals)

    def total_variation(self) -> Fraction:
        """Total variation around the circle, jumps included."""
        tv = 0
        prev_end = self.segments[-1][3]  # value approaching 0 from the left
        for a, b, va, vb in self.segments:
            tv = tv + abs(va - prev_end) + abs(vb - va)
            prev_end = vb
        return tv

    def max_slope(self) -> Fraction:
        return max(abs((vb - va) / (b - a)) for a, b, va, vb in self.segments)

    # -- algebra -----------------------------------------------------------

    def scale(self, c) -> "PiecewiseLinear":
        c = Fraction(c)
        return PiecewiseLinear([(a, b, c * va, c * vb) for a, b, va, vb in self.segments])

    def add_const(self, c) -> "PiecewiseLinear":
        c = Fraction(c)
        return PiecewiseLinear([(a, b, va + c, vb + c) for a, b, va, vb in self.segments])

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return pl_sum([self, other])

    def min_with(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _lattice(self, other, min)

    def max_with(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _lattice(self, other, max)

    def min_const(self, c) -> "PiecewiseLinear":
        return self.min_with(PiecewiseLinear.constant(c))

    def max_const(self, c) -> "PiecewiseLinear":
        return self.max_with(PiecewiseLinear.constant(c))

    def clamp(self, m) -> "PiecewiseLinear":
        m = Fraction(m)
        return self.min_const(m).max_const(-m)

    def shift(self, c) -> "PiecewiseLinear":
        """Pullback under rotation: x -> f(x + c mod 1)."""
        segs = [(a - c, b - c, va, vb) for a, b, va, vb in self.segments]
        return _rebuild_from_circular(segs)

    def pullback_doubling(self) -> "PiecewiseLinear":
        """x -> f(2x mod 1)."""
        segs = []
        half = Fraction(1, 2)
        for a, b, va, vb in self.segments:
            segs.append((a * half, b * half, va, vb))
        for a, b, va, vb in self.segments:
            segs.append((a * half + half, b * half + half, va, vb))
        return PiecewiseLinear(segs)

    def transfer_doubling(self) -> "PiecewiseLinear":
        """Transfer operator of the doubling map w.r.t. Lebesgue:
        (Lf)(x) = (f(x/2) + f(x/2 + 1/2)) / 2."""
        lo = _stretch(self, Fraction(0), Fraction(1, 2))
        hi = _stretch(self, Fraction(1, 2), Fraction(1))
        return lo.add(hi).scale(Fraction(1, 2))

    # -- sublevel sets -----------------------------------------------------

    def arcs_below_abs(self, delta) -> ArcSet:
        """{x : |f(x)| < delta} as an exact arc set (up to finitely many
        points, which carry no measure)."""
        return self._arcs_between(-delta, delta)

    def arcs_above(self, level) -> ArcSet:
        """{x : f(x) > level} as an exact arc set (up to finitely many
        points)."""
        return self._arcs_between(level, None)

    def _arcs_between(self, lo, hi) -> ArcSet:
        """{x : lo < f(x) < hi}, unbounded above when hi is None."""
        arcs = []
        for a, b, va, vb in self.segments:
            small, big = (va, vb) if va < vb else (vb, va)
            if small > lo and (hi is None or big < hi):
                arcs.append((a, b))
                continue
            if big <= lo or (hi is not None and small >= hi):
                continue
            # the segment meets a level, so it is not constant
            slope = (vb - va) / (b - a)
            xs = sorted([a, b] + [a + (lvl - va) / slope for lvl in (lo, hi)
                                  if lvl is not None and small < lvl < big])
            for u, v in zip(xs, xs[1:]):
                mid = va + slope * ((u + v) / 2 - a)
                if lo < mid and (hi is None or mid < hi):
                    arcs.append((u, v))
        return ArcSet(arcs)

    def __repr__(self):
        return f"PiecewiseLinear({len(self.segments)} segments)"


def _lerp(a, b, va, vb, x):
    if x == a:
        return va
    if x == b:
        return vb
    return va + (vb - va) * (x - a) / (b - a)


def _collinear(a, b, va, vb, c, vc) -> bool:
    # (a,va)-(b,vb) extended hits (c,vc)?
    return (vb - va) * (c - a) == (vc - va) * (b - a)


def _sorted_pair_nodes(s, anti):
    if s < anti:
        return [s, anti], [Fraction(0), Fraction(1, 2)]
    return [anti, s], [Fraction(1, 2), Fraction(0)]


def _rebuild_from_circular(segs) -> PiecewiseLinear:
    """Normalize segments given with arbitrary real positions (interpreted
    mod 1) back into the canonical [0,1] tiling."""
    out = []
    for a, b, va, vb in segs:
        if b <= a:
            continue
        a0 = mod1(a)
        b0 = a0 + (b - a)
        if b0 <= 1:
            out.append((a0, b0, va, vb))
        else:
            cut = _lerp(a0, b0, va, vb, Fraction(1))
            out.append((a0, Fraction(1), va, cut))
            out.append((Fraction(0), b0 - 1, cut, vb))
    out.sort(key=lambda s: (s[0],))
    return PiecewiseLinear(out)


def _stretch(f: PiecewiseLinear, lo, hi) -> PiecewiseLinear:
    """The function x -> f(lo + x*(hi-lo)) on [0,1]."""
    w = hi - lo
    segs = []
    for a, b, va, vb in f.segments:
        s, t = max(a, lo), min(b, hi)
        if s >= t:
            continue
        segs.append(((s - lo) / w, (t - lo) / w,
                     _lerp(a, b, va, vb, s), _lerp(a, b, va, vb, t)))
    return PiecewiseLinear(segs)


def _cells(f: PiecewiseLinear, g: PiecewiseLinear):
    """Walk the merged breakpoint grid of f and g: yields (a, b, fa, fb,
    ga, gb) for each cell [a, b] on which both are linear, with the values
    at a (right limits) and at b (left limits)."""
    fs, gs = f.segments, g.segments
    i = j = 0
    a = fs[0][0]
    while i < len(fs):
        fseg, gseg = fs[i], gs[j]
        b = min(fseg[1], gseg[1])
        yield (a, b, _lerp(*fseg, a), _lerp(*fseg, b),
               _lerp(*gseg, a), _lerp(*gseg, b))
        if fseg[1] == b:
            i += 1
        if gseg[1] == b:
            j += 1
        a = b


def _lattice(f: PiecewiseLinear, g: PiecewiseLinear, pick) -> PiecewiseLinear:
    """Pointwise pick (min or max) of f and g, with exact crossings."""
    segs = []
    for a, b, fa, fb, ga, gb in _cells(f, g):
        da, db = fa - ga, fb - gb
        if (da < 0 < db) or (db < 0 < da):
            x = a + (b - a) * (0 - da) / (db - da)
            fx = _lerp(a, b, fa, fb, x)
            segs.append((a, x, pick(fa, ga), fx))
            segs.append((x, b, fx, pick(fb, gb)))
        else:
            segs.append((a, b, pick(fa, ga), pick(fb, gb)))
    return PiecewiseLinear(segs)


def pl_inner(f: PiecewiseLinear, g: PiecewiseLinear):
    """Exact integral of the product f*g over the circle."""
    tot = 0
    for a, b, fa, fb, ga, gb in _cells(f, g):
        tot = tot + (b - a) * (2 * fa * ga + fa * gb + fb * ga + 2 * fb * gb) / 6
    return tot


def pl_sum(fs: list[PiecewiseLinear]) -> PiecewiseLinear:
    """Pointwise sum of fs in one sweep.

    Every term adds its value and slope at 0, and its jump in value and
    in slope at each of its other breakpoints.  The breakpoints of all
    terms are sorted once and the jumps accumulated from 0 to 1."""
    value = slope = Fraction(0)
    jumps = {}
    for f in fs:
        (a, b, va, vb), *rest = f.segments
        prev = (vb - va) / (b - a)
        value, slope, end = value + va, slope + prev, vb
        for a, b, va, vb in rest:
            s = (vb - va) / (b - a)
            jumps.setdefault(a, []).append((va - end, s - prev))
            end, prev = vb, s
    segs = []
    x = Fraction(0)
    for c in sorted(jumps) + [Fraction(1)]:
        end = value + slope * (c - x)
        segs.append((x, c, value, end))
        x, value = c, end
        for dv, ds in jumps.get(c, ()):
            value, slope = value + dv, slope + ds
    return PiecewiseLinear(segs)


# ---------------------------------------------------------------------------
# Cylinder functions


class CylinderFn:
    """Locally constant function on Cantor space: depends on the first
    `depth` symbols; table indexed by the word read as a binary number."""

    __slots__ = ("depth", "table")
    space = CANTOR

    def __init__(self, depth: int, table):
        if len(table) != 1 << depth:
            raise ValueError("table must have 2^depth entries")
        self.depth = depth
        self.table = [Fraction(v) for v in table]

    @staticmethod
    def constant(c) -> "CylinderFn":
        return CylinderFn(0, [Fraction(c)])

    @staticmethod
    def coordinate(i: int) -> "CylinderFn":
        """Indicator of symbol 1 at position i."""
        d = i + 1
        return CylinderFn(d, [Fraction((w >> (d - 1 - i)) & 1) for w in range(1 << d)])

    @staticmethod
    def word_indicator(word: str) -> "CylinderFn":
        d = len(word)
        idx = int(word, 2) if word else 0
        table = [Fraction(0)] * (1 << d)
        table[idx] = Fraction(1)
        return CylinderFn(d, table)

    @staticmethod
    def hat(s: str, r: Fraction, eps: Fraction) -> "CylinderFn":
        """The Lipschitz bump g_{s,r,eps} as an exact cylinder function.

        The distance to s takes values in {0} union {2^-i}; reading enough
        symbols determines the bump value exactly (a cylinder that agrees
        with s on all its symbols lies within 2^-depth <= r of s, where the
        bump is 1)."""
        depth = max(len(s), 1)
        while Fraction(1, 1 << depth) > r:
            depth += 1
        table = []
        for w in range(1 << depth):
            d = cantor_dist(format(w, f"0{depth}b"), s)
            v = 1 - max(d - r, Fraction(0)) / eps
            table.append(max(Fraction(0), min(Fraction(1), v)))
        return CylinderFn(depth, table)

    def value_on_word(self, w: str) -> Fraction:
        if len(w) < self.depth:
            raise ValueError("word too short")
        idx = int(w[:self.depth], 2) if self.depth else 0
        return self.table[idx]

    def lift(self, depth: int) -> "CylinderFn":
        if depth < self.depth:
            raise ValueError("cannot drop depth")
        reps = 1 << (depth - self.depth)
        return CylinderFn(depth, [v for v in self.table for _ in range(reps)])

    def _zip(self, other: "CylinderFn", op) -> "CylinderFn":
        d = max(self.depth, other.depth)
        a, b = self.lift(d), other.lift(d)
        return CylinderFn(d, [op(x, y) for x, y in zip(a.table, b.table)])

    def add(self, other):
        return self._zip(other, lambda x, y: x + y)

    def min_with(self, other):
        return self._zip(other, min)

    def max_with(self, other):
        return self._zip(other, max)

    def scale(self, c):
        c = Fraction(c)
        return CylinderFn(self.depth, [c * v for v in self.table])

    def add_const(self, c):
        c = Fraction(c)
        return CylinderFn(self.depth, [v + c for v in self.table])

    def clamp(self, m):
        m = Fraction(m)
        return CylinderFn(self.depth, [max(-m, min(m, v)) for v in self.table])

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.table)

    def range_on_prefix(self, partial: str) -> Interval:
        """Range of the function over all infinite words extending
        `partial`."""
        k = self.depth
        if len(partial) >= k:
            return Interval.point(self.value_on_word(partial))
        free = k - len(partial)
        base = int(partial, 2) << free if partial else 0
        vals = [self.table[base + s] for s in range(1 << free)]
        return Interval(min(vals), max(vals))

    def cylinders_below_abs(self, delta) -> CylSet:
        """{x : |f(x)| < delta} as an exact cylinder set."""
        return CylSet([format(w, f"0{self.depth}b") if self.depth else ""
                       for w in range(1 << self.depth)
                       if abs(self.table[w]) < delta])

    def integral(self, p) -> Fraction:
        """Exact expectation under Bernoulli(p).  A cylinder's mass depends
        only on how many of its symbols are 1, so the table is summed per
        count first.  Every expectation on the shift goes through here."""
        p = Fraction(p)
        d = self.depth
        sums = [0] * (d + 1)
        for w, v in enumerate(self.table):
            if v:
                sums[w.bit_count()] += v
        tot = Fraction(0)
        for ones, s in enumerate(sums):
            if s:
                tot += s * cylinder_mass("1" * ones + "0" * (d - ones), p)
        return tot

    def __repr__(self):
        return f"CylinderFn(depth={self.depth})"


# ---------------------------------------------------------------------------
# The Lipschitz family F: bumps closed under max, min, rational lin. comb.


@dataclass(frozen=True)
class FTerm:
    """Expression tree over bump generators and the constant 1."""

    kind: str  # "one" | "gen" | "max" | "min" | "lin"
    args: tuple = ()
    # gen: (space, s_point, r, eps); lin: ((c1, t1), (c2, t2))

    @staticmethod
    def one() -> "FTerm":
        return FTerm("one")

    @staticmethod
    def generator(space: Space, s, r, eps) -> "FTerm":
        return FTerm("gen", (space, s, Fraction(r), Fraction(eps)))

    def sup_norm_bound(self) -> Fraction:
        """Valid upper bound on the sup norm via tree propagation
        (generators are bounded by 1)."""
        lo, hi = self._range_bound()
        return max(abs(lo), abs(hi))

    def _range_bound(self):
        if self.kind == "one":
            return Fraction(1), Fraction(1)
        if self.kind == "gen":
            return Fraction(0), Fraction(1)
        if self.kind in ("max", "min"):
            (l1, h1), (l2, h2) = self.args[0]._range_bound(), self.args[1]._range_bound()
            if self.kind == "max":
                return max(l1, l2), max(h1, h2)
            return min(l1, l2), min(h1, h2)
        lo = hi = Fraction(0)
        for c, t in self.args:
            tl, th = t._range_bound()
            if c >= 0:
                lo, hi = lo + c * tl, hi + c * th
            else:
                lo, hi = lo + c * th, hi + c * tl
        return lo, hi

    def to_piecewise_linear(self) -> PiecewiseLinear:
        return self.concrete(PiecewiseLinear)

    def to_cylinder(self) -> CylinderFn:
        return self.concrete(CylinderFn)

    def concrete(self, cls):
        """The term as an exact `cls` observable; every generator must live
        on `cls.space`."""
        if self.kind == "one":
            return cls.constant(1)
        if self.kind == "gen":
            space, s, r, eps = self.args
            if space is not cls.space:
                raise ValueError(f"not a {cls.space.name} generator")
            return cls.hat(s, r, eps)
        if self.kind in ("max", "min"):
            a, b = (t.concrete(cls) for t in self.args)
            return a.max_with(b) if self.kind == "max" else a.min_with(b)
        out = cls.constant(0)
        for c, t in self.args:
            out = out.add(t.concrete(cls).scale(c))
        return out


def enumerate_F(space: Space, count: int) -> list[FTerm]:
    """Deterministic dovetailed enumeration of the family F.

    Index 0 is the constant 1; index n >= 1 decodes (n-1) as
    tag = (n-1) % 4: 0 generator, 1 max, 2 min, 3 rational linear
    combination of two earlier-indexed terms.  Every term of the closure
    appears at some index."""
    return [_decode_fterm(space, n) for n in range(count)]


_FTERM_CACHE: dict = {}


def _decode_fterm(space: Space, n: int) -> FTerm:
    key = (space, n)
    if key in _FTERM_CACHE:
        return _FTERM_CACHE[key]
    if n == 0:
        out = FTerm.one()
    else:
        tag = (n - 1) % 4
        rest = (n - 1) // 4
        if tag == 0:
            out = _decode_generator(space, rest)
        elif tag in (1, 2):
            a, b = unpair(rest)
            out = FTerm("max" if tag == 1 else "min",
                        (_decode_fterm(space, a % max(n, 1)), _decode_fterm(space, b % max(n, 1))))
        else:
            ci, ti = unpair(rest)
            c1i, c2i = unpair(ci)
            t1i, t2i = unpair(ti)
            c1 = _signed_rational(c1i)
            c2 = _signed_rational(c2i)
            out = FTerm("lin", ((c1, _decode_fterm(space, t1i % max(n, 1))),
                                (c2, _decode_fterm(space, t2i % max(n, 1)))))
    _FTERM_CACHE[key] = out
    return out


def _decode_generator(space: Space, idx: int) -> FTerm:
    si, rest = unpair(idx)
    ri, ei = unpair(rest)
    cap = space.bump_cap
    return FTerm.generator(space, space.ideal_point(si),
                           min(pos_rational(ri), cap),
                           min(pos_rational(ei), cap))


def _signed_rational(i: int) -> Fraction:
    q = pos_rational(i // 2)
    return q if i % 2 == 0 else -q


# ---------------------------------------------------------------------------
# Serialization (variant-tagged JSON; rationals as "num/den" strings)


def observable_to_json(f) -> dict:
    if isinstance(f, PiecewiseLinear):
        segs = []
        for a, b, va, vb in f.segments:
            if not all(isinstance(v, Fraction) for v in (a, b, va, vb)):
                raise ValueError("only rational piecewise-linear data serializes")
            segs.append([fmt_rat(a), fmt_rat(b), fmt_rat(va), fmt_rat(vb)])
        return {"variant": "piecewise_linear", "segments": segs}
    if isinstance(f, CylinderFn):
        return {"variant": "cylinder", "depth": f.depth,
                "table": [fmt_rat(v) for v in f.table]}
    if isinstance(f, FTerm):
        return {"variant": "fterm", "expr": _fterm_to_json(f)}
    raise ValueError(f"not an observable: {f!r}")


def _fterm_to_json(t: FTerm) -> dict:
    if t.kind == "one":
        return {"op": "one"}
    if t.kind == "gen":
        space, s, r, eps = t.args
        return {"op": "gen", "space": space.name,
                "s": space.point_to_json(s),
                "r": fmt_rat(r), "eps": fmt_rat(eps)}
    if t.kind in ("max", "min"):
        return {"op": t.kind, "args": [_fterm_to_json(a) for a in t.args]}
    return {"op": "lin",
            "terms": [[fmt_rat(c), _fterm_to_json(a)] for c, a in t.args]}


def observable_from_json(d: dict):
    v = d.get("variant")
    if v == "piecewise_linear":
        if "segments" in d:
            segs = [(parse_rat(a), parse_rat(b), parse_rat(va), parse_rat(vb))
                    for a, b, va, vb in d["segments"]]
            return PiecewiseLinear(segs)
        xs = [parse_rat(x) for x in d["breakpoints"]]
        vs = [parse_rat(x) for x in d["values"]]
        return PiecewiseLinear.from_breakpoint_values(xs, vs)
    if v == "cylinder":
        return CylinderFn(int(d["depth"]), [parse_rat(x) for x in d["table"]])
    if v == "fterm":
        return _fterm_from_json(d["expr"])
    raise ValueError(f"unknown observable variant {v!r}")


def _fterm_from_json(d: dict) -> FTerm:
    op = d["op"]
    if op == "one":
        return FTerm.one()
    if op == "gen":
        space = space_named(d["space"])
        return FTerm.generator(space, space.point_from_json(d["s"]),
                               parse_rat(d["r"]), parse_rat(d["eps"]))
    if op in ("max", "min"):
        a, b = (_fterm_from_json(x) for x in d["args"])
        return FTerm(op, (a, b))
    if op == "lin":
        return FTerm("lin", tuple((parse_rat(c), _fterm_from_json(x))
                                  for c, x in d["terms"]))
    raise ValueError(f"unknown expression node {op!r}")
