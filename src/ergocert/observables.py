"""Observable classes with exact integration.

Three variants: piecewise-linear functions on the circle (one integer form
each: rational data, or Q[sqrt2] data for irrational shifts and for the
rotation's sums), cylinder functions on Cantor space, and the closure of the
Lipschitz bump family under max, min and rational linear combinations.
Everything integrates and clamps in exact arithmetic, and circle functions
give exact sublevel arcs; that is what makes rate certificates
replayable.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter, mul
from typing import NamedTuple

from .arith import (Interval, Quad, floor_root2, fmt_rat, mod1, parse_int,
                    parse_list, parse_rat, sign_root2)
from .errors import BudgetExceededError
from .regions import ArcSet, cylinder_mass
from .spaces import (CANTOR, CIRCLE, Space, pos_rational,
                     space_named, unpair)

#: hard cap on exact cylinder enumeration (2^(p+k) cylinders)
CYLINDER_BUDGET_LOG2 = 24


class PiecewiseLinear:
    """Piecewise-linear function on the circle [0,1), held as one integer
    form `form` (a `_Form` of ints): segment k starts at
    (xa[k] + xb[k] sqrt2)/n, has value (vu[k] + vw[k] sqrt2)/e there and
    changes by ds[k]/e per step 1/n.  Right-continuous at segment starts;
    jumps between segments are allowed (f(x)=x as a circle map jumps at
    0).  Normal form: no segment has zero length and no two neighbours
    are continuous and collinear.  The checking constructor takes rational
    segments (a, b, va, vb), linear from va at a to vb at b, reads them
    once as integers (positions over the lcm of their denominators,
    values over the lcm of theirs), and checks the tiling and establishes
    the normal form on those integers; every kernel emits it.

    `kind` records what a form holds: a rational form has xb = vw = 0; a
    shifted term (`shift` by an irrational c) has Q[sqrt2] breakpoints and
    Q[sqrt2] values only at 0 and 1 (the cut at c); a sum (`pl_sum` of
    forms not all rational, or with irrational translates) may hold
    Q[sqrt2] anywhere.  The rotation's S_n is such a sum, built from no
    shifted term: `pl_sum` files g's own jumps at each translate's
    positions.  `scale`, `add_const`, `add`, `pl_sum`, `sup_norm`,
    `integral` and the sublevel arcs take every kind.  The lattice,
    `shift`, `pullback_doubling`, `transfer_doubling`, `pl_inner`,
    `abs_integral`, `total_variation` and `window_reader` read xa, vu and
    ds only: they take rational forms and raise ValueError on the others.

    `segments`, the view that JSON output, `range_on` and the evaluations
    read, is built on first read with the types of the form's kind: a
    position is a Fraction exactly when it is rational, every value of a
    rational form is a Fraction and every value of a sum a Quad, and a
    shifted term has Quad values only at 0 and 1."""

    __slots__ = ("segments", "form")
    space = CIRCLE

    def __init__(self, segments):
        if any(type(t) not in (int, Fraction) for s in segments for t in s):
            raise ValueError("piecewise-linear data must be rational")
        # positions as integers over N, values over V: the lcm of their
        # denominators
        N = math.lcm(*[t.denominator for s in segments for t in s[:2]])
        V = math.lcm(*[t.denominator for s in segments for t in s[2:]])
        segs = [(_over(a, N), _over(b, N), _over(va, V), _over(vb, V))
                for a, b, va, vb in segments]
        segs = [s for s in segs if s[0] < s[1]]
        if not segs or segs[0][0] != 0 or segs[-1][1] != N:
            raise ValueError("segments must tile [0,1]")
        for s, t in zip(segs, segs[1:]):
            if s[1] != t[0]:
                raise ValueError("segments must be contiguous")
        # merge collinear continuous neighbours to keep normal forms small
        merged = [segs[0]]
        for a, b, va, vb in segs[1:]:
            pa, pb, pva, pvb = merged[-1]
            if pvb == va and (pvb - pva) * (b - pa) == (vb - pva) * (pb - pa):
                merged[-1] = (pa, b, pva, vb)
            else:
                merged.append((a, b, va, vb))
        # on the steps 1/n of the lcm of the breakpoint denominators, where
        # a segment changes by p/q per step: (vb - va)/V over (b - a) N/n
        # steps; e is the lcm of the reduced denominators of the values and
        # of the p/q, so every division below is exact
        n = math.lcm(*[N // math.gcd(a, N) for a, _, _, _ in merged])
        k = N // n
        incs = [((vb - va) * k, V * (b - a)) for a, b, va, vb in merged]
        e = math.lcm(*[V // math.gcd(va, V) for _, _, va, _ in merged],
                     *[q // math.gcd(p, q) for p, q in incs])
        zeros = [0] * len(merged)
        self.form = _Form(n, e, [a // k for a, _, _, _ in merged], zeros,
                          [va * e // V for _, _, va, _ in merged], zeros,
                          [p * e // q for p, q in incs], _RATIONAL)

    @staticmethod
    def _of(form: "_Form") -> "PiecewiseLinear":
        """Wrap an integer form that is already in normal form."""
        f = object.__new__(PiecewiseLinear)
        f.form = form
        return f

    def __getattr__(self, name):
        # only reached while the slot is empty: the segments view is built
        # on first read
        if name != "segments":
            raise AttributeError(name)
        self.segments = segs = _segments(self.form)
        return segs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "PiecewiseLinear":
        if type(c) not in (int, Fraction):
            c = Fraction(c)
        return PiecewiseLinear._of(_Form(1, c.denominator, [0], [0],
                                         [c.numerator], [0], [0], _RATIONAL))

    @staticmethod
    def identity() -> "PiecewiseLinear":
        return PiecewiseLinear([(Fraction(0), Fraction(1), Fraction(0), Fraction(1))])

    @staticmethod
    def from_breakpoint_values(xs, vs) -> "PiecewiseLinear":
        """Continuous circular interpolation through (x_i, v_i); xs
        increasing and within one turn.  Built unrolled from x_0, then
        shifted back by x_0."""
        if len(xs) != len(vs):
            raise ValueError(f"{len(xs)} breakpoints but {len(vs)} values")
        x0 = xs[0] if xs else 0
        starts = [x - x0 for x in xs]
        ends = starts[1:] + [Fraction(1)]
        return PiecewiseLinear(
            list(zip(starts, ends, vs, vs[1:] + vs[:1]))).shift(-x0)

    @staticmethod
    def hat(s, r, eps) -> "PiecewiseLinear":
        """The Lipschitz bump: 1 on B(s,r), 0 outside B(s,r+eps), linear in
        between (clamped through the circle distance function)."""
        s, r, eps = Fraction(s), Fraction(r), Fraction(eps)
        if r <= 0 or eps <= 0:
            raise ValueError("r and eps must be positive")
        half = Fraction(1, 2)
        dist = PiecewiseLinear.from_breakpoint_values([s, s + half],
                                                      [Fraction(0), half])
        g = dist.add_const(-r).max_const(0).scale(Fraction(-1) / eps).add_const(1)
        return g.max_const(0).min_const(1)

    # -- evaluation --------------------------------------------------------

    def eval_right(self, x):
        """f(x) with the right-continuous convention; x in [0,1)."""
        segs = self.segments
        return _lerp(*segs[bisect_right(segs, x, key=itemgetter(0)) - 1], x)

    def window_reader(self, k: int):
        """(den, read) for a rational f: read(w) = den f((2w + 1)/2^(k+1)),
        mid-way on the arc of the k-digit word w, from f's integer form."""
        f, m = _rational(self), 1 << (k + 1)
        starts, heads = [a * m for a in f.xa], [u * m for u in f.vu]

        def read(w: int) -> int:
            x = (2 * w + 1) * f.n
            i = bisect_right(starts, x) - 1
            return heads[i] + f.ds[i] * (x - starts[i])
        return f.e * m, read

    def range_on(self, lo, hi) -> Interval:
        """Exact hull of f over the real-line interval [lo, hi] mod 1."""
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

    # -- exact integrals and norms ----------------------------------------

    def integral(self):
        """Exact integral, in Z[sqrt2]: segment k, la + lb sqrt2 steps 1/n
        long, adds (la + lb sqrt2)(ra + rb sqrt2) over 2 n e, where
        ra = 2 vu[k] + ds[k] la and rb = 2 vw[k] + ds[k] lb; a Fraction
        when the sqrt2 part is 0."""
        f = self.form
        ta = tb = 0
        for a, b, a1, b1, u, w, d in zip(f.xa, f.xb, f.xa[1:] + [f.n],
                                         f.xb[1:] + [0], f.vu, f.vw, f.ds):
            la, lb = a1 - a, b1 - b
            ra, rb = 2 * u + d * la, 2 * w + d * lb
            ta, tb = ta + la * ra + 2 * lb * rb, tb + la * rb + lb * ra
        return _root2(ta, tb, 2 * f.n * f.e)

    def abs_integral(self) -> Fraction:
        """Exact integral of |f|; a sign change splits a segment in two."""
        return _abs_integral(_rational(self))

    def square_integral(self):
        tot = 0
        for a, b, va, vb in self.segments:
            tot = tot + (b - a) * (va * va + va * vb + vb * vb) / 3
        return tot

    def sup_norm(self):
        """sup |f|: a Fraction for a rational form, else a Quad."""
        f = self.form
        if f.kind == _RATIONAL:
            return Fraction(max(map(abs, chain(f.vu, _ends(f)[0]))), f.e)
        return _sup(f)

    def total_variation(self) -> Fraction:
        """Total variation around the circle, jumps included, for a
        rational f: each segment adds the jump from the end of the one
        before it (at 0, the last one's) and |ds| times its length, over
        e."""
        f = _rational(self)
        tu = _ends(f)[0]
        return Fraction(sum(
            abs(u - t) + abs(d) * (b - a) for u, t, d, a, b in
            zip(f.vu, tu[-1:] + tu, f.ds, f.xa, f.xa[1:] + [f.n])), f.e)

    def max_slope(self) -> Fraction:
        return max(abs((vb - va) / (b - a)) for a, b, va, vb in self.segments)

    # -- algebra -----------------------------------------------------------

    def scale(self, c) -> "PiecewiseLinear":
        c, f = Fraction(c), self.form
        if not c:  # zero, with the value types of f's kind
            return PiecewiseLinear._of(_Form(1, 1, [0], [0], [0], [0], [0],
                                             f.kind))
        p = c.numerator
        return PiecewiseLinear._of(f._replace(
            e=f.e * c.denominator, vu=_times(f.vu, p),
            vw=_times(f.vw, p), ds=_times(f.ds, p)))

    def add_const(self, c) -> "PiecewiseLinear":
        c = Fraction(c)
        f = self.form
        e = math.lcm(f.e, c.denominator)
        k, t = e // f.e, _over(c, e)
        return PiecewiseLinear._of(f._replace(
            e=e, vu=[u * k + t for u in f.vu], vw=_times(f.vw, k),
            ds=_times(f.ds, k)))

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if self.form.kind == other.form.kind == _RATIONAL:
            return PiecewiseLinear._of(_form_plus(self.form, other.form))
        return pl_sum([self, other])

    def min_with(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return PiecewiseLinear._of(_lattice(self, other, False))

    def max_with(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return PiecewiseLinear._of(_lattice(self, other, True))

    def min_const(self, c) -> "PiecewiseLinear":
        return self.min_with(PiecewiseLinear.constant(c))

    def max_const(self, c) -> "PiecewiseLinear":
        return self.max_with(PiecewiseLinear.constant(c))

    def clamp(self, m) -> "PiecewiseLinear":
        m = Fraction(m)
        return self.min_const(m).max_const(-m)

    def shift(self, c) -> "PiecewiseLinear":
        """Pullback under rotation: x -> f(x + c mod 1), for rational f and
        c rational or in Q[sqrt2] (`_shift`); f itself when c = 0 mod 1."""
        f, c = _rational(self), mod1(c)
        return self if c == 0 else PiecewiseLinear._of(_shift(f, c))

    def pullback_doubling(self) -> "PiecewiseLinear":
        """x -> f(2x mod 1); the two copies of f meet at 1/2."""
        return PiecewiseLinear._of(_pullback(_rational(self)))

    def transfer_doubling(self) -> "PiecewiseLinear":
        """Transfer operator of the doubling map w.r.t. Lebesgue:
        (Lf)(x) = (f(x/2) + f(x/2 + 1/2)) / 2."""
        return PiecewiseLinear._of(_transfer(_rational(self)))

    # -- sublevel sets: one classifying pass over the integer form each,
    # building numbers only at arc ends and level crossings (`_arcs`) ------

    def arcs_below_abs(self, delta) -> ArcSet:
        """{x : |f(x)| < delta} as an exact arc set (up to finitely many
        points, which carry no measure)."""
        return _arcs(self.form, -delta, delta)

    def arcs_above(self, level) -> ArcSet:
        """{x : f(x) > level} as an exact arc set (up to finitely many
        points); the band's upper level is missing."""
        return _arcs(self.form, level, None)

    def arcs_below(self, level) -> ArcSet:
        """{x : f(x) < level} as an exact arc set (up to finitely many
        points); the band's lower level is missing."""
        return _arcs(self.form, None, level)


def _lerp(a, b, va, vb, x):
    if x == a:
        return va
    if x == b:
        return vb
    return va + (vb - va) * (x - a) / (b - a)


# -- the integer form of PiecewiseLinear ------------------------------------

#: the value types of a form's segments (see PiecewiseLinear)
_RATIONAL, _SHIFTED, _SUM = "rational", "shifted", "sum"


class _Form(NamedTuple):
    """Segment k starts at (xa[k] + xb[k] sqrt2)/n, has value
    (vu[k] + vw[k] sqrt2)/e there and changes by ds[k]/e per step 1/n;
    all ints, in normal form, never changed in place, and xb = vw = 0
    when `kind` is _RATIONAL (see PiecewiseLinear)."""

    n: int
    e: int
    xa: list
    xb: list
    vu: list
    vw: list
    ds: list
    kind: str


def _rational(f: PiecewiseLinear) -> _Form:
    """f's form, refused with ValueError unless it is rational: a kernel
    that reads only xa, vu and ds would drop the sqrt2 parts of any
    other."""
    if f.form.kind != _RATIONAL:
        raise ValueError("needs rational piecewise-linear data, "
                         f"not a {f.form.kind} form")
    return f.form


def _over(x: Fraction, den: int) -> int:
    """x den, for a den that x's denominator divides."""
    return x.numerator * (den // x.denominator)


def _root2(a: int, b: int, d: int):
    """(a + b sqrt2)/d: a Quad, or a Fraction when b = 0."""
    return Quad(Fraction(a, d), Fraction(b, d)) if b else Fraction(a, d)


def _ends(f: _Form):
    """The value at the end of each segment, as (us, ws)."""
    us = [u + d * (b - a)
          for u, d, a, b in zip(f.vu, f.ds, f.xa, f.xa[1:] + [f.n])]
    if f.kind == _RATIONAL:
        return us, f.vw
    return us, [w + d * (b - a)
                for w, d, a, b in zip(f.vw, f.ds, f.xb, f.xb[1:] + [0])]


def _segments(f: _Form) -> list:
    """The segments of an integer form, with the types of its kind."""
    n, e = f.n, f.e
    tu, tw = _ends(f)
    pts = [_root2(a, b, n) for a, b in zip(f.xa, f.xb)] + [Fraction(1)]
    if f.kind == _SUM:
        heads = [Quad(Fraction(u, e), Fraction(w, e))
                 for u, w in zip(f.vu, f.vw)]
        tails = [Quad(Fraction(u, e), Fraction(w, e)) for u, w in zip(tu, tw)]
    else:
        heads = [Fraction(u, e) for u in f.vu]
        # a continuous breakpoint shares its value between two segments
        tails = [h if t == u else Fraction(t, e) for t, u, h in
                 zip(tu, f.vu[1:] + [None], heads[1:] + [None])]
        if f.kind == _SHIFTED:  # the cut value at 0 and at 1
            heads[0] = Quad(heads[0], Fraction(f.vw[0], e))
            tails[-1] = Quad(tails[-1], Fraction(tw[-1], e))
    return list(zip(pts, pts[1:], heads, tails))


def _common(forms: list) -> list:
    """The forms on common steps 1/n, n the lcm of their n, over the least
    e that their e divide and that makes every increment per step 1/n an
    integer.  A rational form keeps its zero columns."""
    n = math.lcm(*[f.n for f in forms])

    def least(f):
        k = n // f.n
        return f.e if k == 1 else \
            math.lcm(f.e, f.e * k // math.gcd(f.e * k, *f.ds))

    e = math.lcm(*map(least, forms))
    out = []
    for f in forms:
        k, c = n // f.n, e // f.e
        b, w = (1, 1) if f.kind == _RATIONAL else (k, c)
        out.append(f if k == c == 1 else _Form(
            n, e, _times(f.xa, k), _times(f.xb, b), _times(f.vu, c),
            _times(f.vw, w), _times(f.ds, c) if k == 1
            else [d * e // (f.e * k) for d in f.ds], f.kind))
    return out


def _times(col: list, k: int) -> list:
    """The column col times k, col itself when k is 1."""
    return col if k == 1 else [x * k for x in col]


def _cells(f: _Form, g: _Form) -> list:
    """The cells [x, y) between the merged breakpoints of two rational
    forms on common steps, as (x, y, u, du, v, dv): f = u + du (s - x) and
    g = v + dv (s - x) over e for s in [x, y)."""
    fx, gx = f.xa + [f.n], g.xa + [g.n]
    out = []
    i = j = x = 0
    while x < f.n:
        y = min(fx[i + 1], gx[j + 1])
        out.append((x, y, f.vu[i] + f.ds[i] * (x - fx[i]), f.ds[i],
                    g.vu[j] + g.ds[j] * (x - gx[j]), g.ds[j]))
        i += fx[i + 1] == y
        j += gx[j + 1] == y
        x = y
    return out


def _lattice(f: PiecewiseLinear, g: PiecewiseLinear, top: bool) -> _Form:
    """max (top) or min of rational f and g.  Each cell of their common
    steps (`_cells`) where f - g changes sign is cut at x0 + d0/(dv - du)
    steps, d0 = f - g at its start x0; the pieces go on the steps
    1/(n m) over e m, m the lcm of the cut denominators (a slope per
    step stays as it is), and continuous collinear neighbours merge."""
    f, g = _common([_rational(f), _rational(g)])
    pieces = []  # (x, t, u, d): u + d (s - x) over e from s = x + t on
    m = 1
    for x, y, u, du, v, dv in _cells(f, g):
        d0 = u - v
        d1 = d0 + (du - dv) * (y - x)
        if d0 * d1 < 0:
            t = Fraction(d0, dv - du)
            m = math.lcm(m, t.denominator)
            first, second = ((u, du), (v, dv)) if (d0 > 0) == top \
                else ((v, dv), (u, du))
            pieces += [(x, 0, *first), (x, t, *second)]
        else:
            s = d0 + d1
            pieces.append((x, 0, u, du) if s == 0 or (s > 0) == top
                          else (x, 0, v, dv))
    xs, vs, ds = [], [], []
    for x, t, u, d in pieces:
        off = _over(t, m)
        p, val = x * m + off, u * m + d * off
        if not (ds and ds[-1] == d and vs[-1] + d * (p - xs[-1]) == val):
            xs.append(p)
            vs.append(val)
            ds.append(d)
    zeros = [0] * len(xs)
    return _Form(f.n * m, f.e * m, xs, zeros, vs, zeros, ds, _RATIONAL)


def pl_inner(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact integral of the product f*g over the circle, for rational f
    and g: a cell [x, y) of their common steps 1/n (`_cells`), with the
    values u0, u1 of f and v0, v1 of g at its ends over e, adds
    (y - x)(2 u0 v0 + u0 v1 + u1 v0 + 2 u1 v1) over 6 n e^2."""
    f, g = _common([_rational(f), _rational(g)])
    tot = 0
    for x, y, u0, du, v0, dv in _cells(f, g):
        u1, v1 = u0 + du * (y - x), v0 + dv * (y - x)
        tot += (y - x) * (2 * u0 * v0 + u0 * v1 + u1 * v0 + 2 * u1 * v1)
    return Fraction(tot, 6 * f.n * f.e * f.e)


def _pullback(f: _Form) -> _Form:
    """x -> f(2x mod 1) for a rational form, on the steps 1/2n: the starts
    x and x + n carry the same values and increments; the copies are
    joined at 1/2 when f is continuous and collinear across 0."""
    n, k = f.n, len(f.xa)
    xs, vs, ds = f.xa + [x + n for x in f.xa], f.vu + f.vu, f.ds + f.ds
    if ds[k - 1] == ds[0] and vs[k - 1] + ds[k - 1] * (n - xs[k - 1]) == vs[0]:
        del xs[k], vs[k], ds[k]
    zeros = [0] * len(xs)
    return _Form(2 * n, f.e, xs, zeros, vs, zeros, ds, _RATIONAL)


def _transfer(f: _Form) -> _Form:
    """(Lf)(x) = (f(x/2) + f(x/2 + 1/2))/2 for a rational form, on f's own
    steps 1/n: x/2 moves by half a step of f per step of x, so each half
    of f, read from its start, is a form on the steps 1/n over 2e, with
    f's increments; the halves add (`_form_plus`) and the sum is halved
    over 4e."""
    n, x2 = f.n, [2 * x for x in f.xa]
    lo = bisect_left(x2, n)  # the segments starting before 1/2
    h = bisect_right(x2, n) - 1  # the segment holding 1/2
    up = [0] + [x - n for x in x2[h + 1:]]
    zl, zu = [0] * lo, [0] * len(up)
    s = _form_plus(
        _Form(n, 2 * f.e, x2[:lo], zl, [2 * u for u in f.vu[:lo]], zl,
              f.ds[:lo], _RATIONAL),
        _Form(n, 2 * f.e, up, zu, [2 * f.vu[h] + f.ds[h] * (n - x2[h])]
              + [2 * u for u in f.vu[h + 1:]], zu, f.ds[h:], _RATIONAL))
    return s._replace(e=4 * f.e)


def _form_plus(f: _Form, g: _Form) -> _Form:
    """f + g for rational forms on their common steps (`_common`): a
    merge walk over g's segments that bisects f's breakpoints, so a g
    with few breakpoints costs one pass over f."""
    f, g = _common([f, g])
    n, xs, vs, ds = f.n, f.xa, f.vu, f.ds
    out_x, out_v, out_d = [], [], []
    for x0, x1, v0, d0 in zip(g.xa, g.xa[1:] + [n], g.vu, g.ds):
        lo = bisect_left(xs, x0)
        hi = bisect_left(xs, x1, lo)
        if lo < len(xs) and xs[lo] == x0:
            hv, hd = vs[lo] + v0, ds[lo] + d0
            lo += 1
        else:  # x0 cuts f's segment lo - 1
            k = lo - 1
            hv, hd = vs[k] + ds[k] * (x0 - xs[k]) + v0, ds[k] + d0
        # a breakpoint of g where the sum is continuous and collinear goes
        if not (out_x and out_d[-1] == hd
                and out_v[-1] + out_d[-1] * (x0 - out_x[-1]) == hv):
            out_x.append(x0)
            out_v.append(hv)
            out_d.append(hd)
        # on the rest of g's segment f's breakpoints stay, and g adds
        # v0 + d0 (x - x0) at each
        c = v0 - d0 * x0
        run = xs[lo:hi]
        out_x += run
        out_v += [v + c + d0 * x for v, x in zip(vs[lo:hi], run)]
        out_d += [d + d0 for d in ds[lo:hi]] if d0 else ds[lo:hi]
    zeros = [0] * len(out_x)
    return _Form(n, f.e, out_x, zeros, out_v, zeros, out_d, _RATIONAL)


def _shift(f: _Form, c) -> _Form:
    """x -> f(x + c) for a rational form and c in (0, 1), rational or in
    Q[sqrt2], on the steps 1/n, n the lcm of f.n and the denominators of
    c: each breakpoint x moves to x - c (plus 1 before c) with its value
    and increment, and the segment holding c is cut there, its right
    part starting at 0 and its left part ending at 1.  A rational c that
    is a breakpoint cuts nothing, and the form stays rational; an
    irrational c gives a shifted term."""
    a, b = (c.a, c.b) if isinstance(c, Quad) else (c, 0)
    n = math.lcm(f.n, a.denominator, b.denominator)
    k = n // f.n
    xs, vs, ds = [x * k for x in f.xa], [v * k for v in f.vu], f.ds
    ca, cb = _over(a, n), _over(b, n)
    # segment i holds c, as it holds floor(n c) = ca + floor(cb sqrt2)
    i = bisect_right(xs, ca + floor_root2(cb)) - 1
    order = list(range(i + 1, len(xs))) + list(range(i))
    xa = [0] + [xs[j] - ca + (n if j < i else 0) for j in order] \
        + [xs[i] + n - ca]
    xb = [0] + [-cb] * (len(order) + 1)
    vu = [vs[i] + ds[i] * (ca - xs[i])] + [vs[j] for j in order] + [vs[i]]
    vw = [ds[i] * cb] + [0] * (len(order) + 1)
    dd = [ds[i]] + [ds[j] for j in order] + [ds[i]]
    cols = (xa, xb, vu, vw, dd)
    if xs[i] == ca and not cb:  # c is segment i's start: no left part
        for col in cols:
            col.pop()
    # f's start, now at index len(xs) - i, goes where f is continuous and
    # collinear across 0
    last = len(xs) - 1
    if ds[last] == ds[0] and vs[last] + ds[last] * (n - xs[last]) == vs[0]:
        for col in cols:
            del col[len(xs) - i]
    return _Form(n, f.e * k, *cols, _SHIFTED if cb else _RATIONAL)


def _form_sum(forms: list, g: _Form = None, offsets=(), den: int = 1) -> _Form:
    """The sum of integer forms and of the translates x -> g(x + c) of one
    rational form g, one for each c = (ca + cb sqrt2)/den in [0, 1) in
    offsets, in one sweep.  The forms go on common steps 1/n (`_common`),
    g among them on the steps of the lcm of g.n and den when there are
    offsets.  Every form adds its value and increment at 0, and its jumps
    in value and increment at each of its other breakpoints, filed under
    the exact key floor(m (a + b sqrt2)) of its position (a + b sqrt2)/n.
    g's jumps (the one across 0 too, the zero ones dropped) are read once,
    and each translate adds g(c) and g'(c) at 0, from the segment holding
    c (bisected at floor(n c)), and files every jump of g at x - c mod 1:
    its key is g's own key moved by one floor_root2 per translate, and a
    jump at c itself is the value at 0.  With m a power of two above
    2 max|a| + 4 max|b| the keys of different positions differ: integers
    p, q not both 0 have |p + q sqrt2| >= 1/(|p| + 2|q|), as
    |p^2 - 2q^2| >= 1, so two positions differ by more than 1/m in
    a + b sqrt2; one isqrt per distinct b.  The keys are swept in order,
    ending a segment only where the value or the increment changes
    (normal form).  The sum is rational when every form and every c is."""
    if offsets:
        k = math.lcm(g.n, den) // g.n
        *forms, g = _common(forms + [g._replace(
            n=g.n * k, e=g.e * k, xa=_times(g.xa, k), vu=_times(g.vu, k))])
        n, e = g.n, g.e
        k = n // den
        offsets = [(ca * k, cb * k) for ca, cb in offsets]
    else:
        forms = _common(forms)
        n, e = forms[0].n, forms[0].e
    # a translate's positions x - c (+ 1) have |a| < 2n + |ca| and b = -cb
    m = 1 << (2 * max(chain((abs(a) for f in forms for a in f.xa),
                            (2 * n + abs(ca) for ca, _ in offsets)))
              + 4 * max(chain((abs(b) for f in forms for b in f.xb),
                              (abs(cb) for _, cb in offsets)))).bit_length()
    roots = {}  # b -> floor(m b sqrt2)
    jumps = {}  # key -> [a, b, jump in vu, in vw, in ds]
    u = w = d = 0
    for f in forms:
        u, w, d = u + f.vu[0], w + f.vw[0], d + f.ds[0]
        for a0, b0, u0, w0, d0, a, b, u1, w1, d1 in zip(
                f.xa, f.xb, f.vu, f.vw, f.ds,
                f.xa[1:], f.xb[1:], f.vu[1:], f.vw[1:], f.ds[1:]):
            r = roots.get(b)
            if r is None:
                r = roots[b] = floor_root2(m * b)
            du, dw = u1 - u0 - d0 * (a - a0), w1 - w0 - d0 * (b - b0)
            key = m * a + r
            held = jumps.get(key)
            if held is None:
                jumps[key] = [a, b, du, dw, d1 - d0]
            else:
                held[2] += du
                held[3] += dw
                held[4] += d1 - d0
    if offsets:
        xs, vs, ds = g.xa, g.vu, g.ds
        # g's jumps as (x, m x, jump in value, in increment)
        gj = [(x, m * x, v - v0 - d0 * (x - x0), d1 - d0) for x, v, d1, x0,
              v0, d0 in zip(xs, vs, ds, [xs[-1] - n] + xs, vs[-1:] + vs,
                            ds[-1:] + ds)
              if d1 != d0 or v != v0 + d0 * (x - x0)]
        jx = [x for x, _, _, _ in gj]
        for ca, cb in offsets:
            fl = ca + floor_root2(cb)  # floor(n c)
            i = bisect_right(xs, fl) - 1
            u, w, d = u + vs[i] + ds[i] * (ca - xs[i]), w + ds[i] * cb, \
                d + ds[i]
            # the jumps at or before c move to x - c + 1, the rest to x - c
            cut = bisect_right(jx, fl)
            before = gj[:cut - 1] if cut and jx[cut - 1] == ca and not cb \
                else gj[:cut]
            r = floor_root2(-m * cb)
            for s, run in ((n - ca, before), (-ca, gj[cut:])):
                t = m * s + r
                for x, mx, dv, dd in run:
                    key = mx + t
                    held = jumps.get(key)
                    if held is None:
                        jumps[key] = [x + s, -cb, dv, 0, dd]
                    else:
                        held[2] += dv
                        held[4] += dd
    xa, xb, vu, vw, ds = [0], [0], [u], [w], [d]
    pa = pb = 0
    for key in sorted(jumps):
        a, b, du, dw, dd = jumps[key]
        u, w, pa, pb = u + d * (a - pa), w + d * (b - pb), a, b
        if du or dw or dd:  # the value or the slope changes
            u, w, d = u + du, w + dw, d + dd
            xa.append(a)
            xb.append(b)
            vu.append(u)
            vw.append(w)
            ds.append(d)
    kind = _RATIONAL if all(f.kind == _RATIONAL for f in forms) \
        and not any(cb for _, cb in offsets) else _SUM
    return _Form(n, e, xa, xb, vu, vw, ds, kind)


def _abs_integral(f: _Form) -> Fraction:
    """Integral of |f| for a rational form, in one Fraction: a segment that
    keeps its sign adds (b - x)(|v| + |w|) / (2 n e), and one crossing 0
    adds (v^2 + w^2) / (2 n e |d|); the crossing terms are summed per |d|,
    then over L, the lcm of the |d|."""
    n, e = f.n, f.e
    flat = 0
    cross = {}
    for x, b, v, d in zip(f.xa, f.xa[1:] + [n], f.vu, f.ds):
        w = v + d * (b - x)
        if (v < 0 < w) or (w < 0 < v):
            d = abs(d)
            cross[d] = cross.get(d, 0) + v * v + w * w
        else:
            flat += (b - x) * (abs(v) + abs(w))
    L = math.lcm(*cross)
    return Fraction(flat * L + sum(s * (L // d) for d, s in cross.items()),
                    2 * n * e * L)


def _sup(f: _Form) -> Quad:
    """sup |f| over the ends of every segment of an irrational form,
    compared exactly in integers, as a Quad."""
    tu, tw = _ends(f)
    bu = bw = 0
    for u, w in chain(zip(f.vu, f.vw), zip(tu, tw)):
        if sign_root2(u, w) < 0:
            u, w = -u, -w
        if sign_root2(u - bu, w - bw) > 0:
            bu, bw = u, w
    return Quad(Fraction(bu, f.e), Fraction(bw, f.e))


#: a segment's class in `_arcs`; the runs its event loop visits are each
#: run of outside or of inside segments, at its first, and each cut segment
_OUT, _CUT, _IN = 0, 1, 2
_EVENTS = re.compile(b"\x00+|\x02+|\x01")


def _arcs(f: _Form, lo, hi) -> ArcSet:
    """{x : lo < f(x) < hi} for rational levels (a missing level is
    unbounded) in ArcSet's canonical form.  One list pass sorts the
    segments by the values at their ends: inside (both strictly between the
    levels), outside (both at or past one level) or cut (it meets a level;
    never a flat one).  A rational form compares integers: v/e > L iff
    v > floor(L e), and v/e >= L iff v >= ceil(L e).  Any other form
    compares the position of each end (u + w sqrt2)/e, the sum of the exact
    signs of (u q - p e) + w q sqrt2 against both levels p/q, -2 to 2 and
    monotone in the value, with -1 and 1 (a missing level's sign is a
    constant).  One event loop then visits only the cut segments and those
    where the class changes: an inside segment opens an arc at its start
    and an outside one closes it there, and a cut segment's interval starts
    at its start or where it enters the band and ends at its end or where
    it leaves.  So arcs that touch join, and a number is built only at arc
    ends and crossings (Quads unless the form is rational)."""
    n, e, xa, xb, vu, vw, ds, kind = f
    tu, tw = _ends(f)
    if kind == _RATIONAL:
        # key > gt iff the value > lo, key >= ge iff >= lo, key <= le iff
        # <= hi, key < lt iff < hi; a missing level lies beyond every end
        heads, tails = vu, tu
        gt, ge = ((math.floor(lo * e), math.ceil(lo * e)) if lo is not None
                  else (min(min(vu), min(tu)) - 1,) * 2)
        le, lt = ((math.floor(hi * e), math.ceil(hi * e)) if hi is not None
                  else (max(max(vu), max(tu)) + 1,) * 2)
    else:
        # the sum of the value's signs against both levels; a missing
        # level's sign is the constant 1 (no lo: every value lies above
        # it) or -1 (no hi), so a one-sided band reads one sign per end
        if lo is not None and hi is not None:
            (pl, ql), (ph, qh) = lo.as_integer_ratio(), hi.as_integer_ratio()
            heads, tails = ([sign_root2(u * ql - pl * e, w * ql)
                             + sign_root2(u * qh - ph * e, w * qh)
                             for u, w in zip(us, ws)]
                            for us, ws in ((vu, vw), (tu, tw)))
        else:
            (p, q), c = ((hi.as_integer_ratio(), 1) if lo is None
                         else (lo.as_integer_ratio(), -1))
            heads, tails = ([c + sign_root2(u * q - p * e, w * q)
                             for u, w in zip(us, ws)]
                            for us, ws in ((vu, vw), (tu, tw)))
        gt = ge = -1
        le = lt = 1
    cls = bytes([_IN if gt < h < lt and gt < t < lt else
                 _OUT if h <= gt >= t or h >= lt <= t else _CUT
                 for h, t in zip(heads, tails)])

    def crossing(k, level):
        # n x = a + b sqrt2 + (level e - u - w sqrt2) / d
        p, q = level.numerator, level.denominator
        d = ds[k]
        x = Fraction(xa[k] * d * q + p * e - vu[k] * q, n * d * q)
        return x if kind == _RATIONAL else \
            Quad(x, Fraction(xb[k] * d - vw[k], n * d))

    arcs = []
    start = None  # start of the arc that reaches the current segment
    for run in _EVENTS.finditer(cls):
        k = run.start()
        c = cls[k]
        if c == _IN:
            if start is None:
                start = _root2(xa[k], xb[k], n)
            continue
        if c == _OUT:
            if start is not None:
                arcs.append((start, _root2(xa[k], xb[k], n)))
                start = None
            continue
        # a cut segment: does its interval start at its start (at_x) and end
        # at its end (at_b), or at the level it crosses there?
        h, t = heads[k], tails[k]
        if ds[k] > 0:
            at_x, at_b, cut_in, cut_out = h >= ge, t <= le, lo, hi
        else:
            at_x, at_b, cut_in, cut_out = h <= le, t >= ge, hi, lo
        if not at_x:
            if start is not None:
                arcs.append((start, _root2(xa[k], xb[k], n)))
            start = crossing(k, cut_in)
        elif start is None:
            start = _root2(xa[k], xb[k], n)
        if not at_b:
            arcs.append((start, crossing(k, cut_out)))
            start = None
    if start is not None:
        arcs.append((start, Fraction(1)))
    return ArcSet._canonical(arcs)


def pl_sum(fs: list[PiecewiseLinear], g: PiecewiseLinear = None,
           offsets=(), den: int = 1) -> PiecewiseLinear:
    """Pointwise sum of fs and of x -> g(x + c) for each offset
    c = (ca + cb sqrt2)/den in [0, 1), (ca, cb) in offsets, for a rational
    g, in one sweep over their integer forms (`_form_sum`): each
    translate files g's own jumps at its moved positions, so none is
    built."""
    return PiecewiseLinear._of(_form_sum(
        [f.form for f in fs], None if g is None else _rational(g), offsets,
        den))


# ---------------------------------------------------------------------------
# Cylinder functions


class CylinderFn:
    """Locally constant function on Cantor space: depends on the first
    `depth` symbols, and is nums[w]/den on the cylinder of the word w read
    as a binary number.  `nums` holds 2^depth ints, never changed in
    place, and `den` is their least common denominator (gcd(den, *nums) =
    1), which every kernel restores with one gcd (`_of`).  The checking
    constructor takes a table of rationals and converts it once; `table`
    is their view as Fractions, which JSON output reads."""

    __slots__ = ("depth", "den", "nums")
    space = CANTOR

    def __init__(self, depth: int, table):
        # read the depth off the table's length: a claimed depth is never
        # shifted by, so no depth costs memory
        size = len(table)
        if size < 1 or size & (size - 1) or size.bit_length() != depth + 1:
            raise ValueError("table must have 2^depth entries")
        vals = [v if type(v) is Fraction else Fraction(v) for v in table]
        self.depth = depth
        self.den = den = math.lcm(*[v.denominator for v in vals])
        self.nums = [_over(v, den) for v in vals]

    @staticmethod
    def _of(depth: int, den: int, nums: list) -> "CylinderFn":
        """Wrap a fresh list of 2^depth ints over den > 0, unchecked and
        uncopied, on the least denominator."""
        f = object.__new__(CylinderFn)
        g = math.gcd(den, *nums)
        f.depth, f.den = depth, den // g
        f.nums = nums if g == 1 else [x // g for x in nums]
        return f

    @property
    def table(self) -> list:
        return [Fraction(x, self.den) for x in self.nums]

    @staticmethod
    def constant(c) -> "CylinderFn":
        return CylinderFn(0, [Fraction(c)])

    @staticmethod
    def coordinate(i: int) -> "CylinderFn":
        """Indicator of symbol 1 at position i."""
        d = i + 1
        return CylinderFn._of(d, 1, [(w >> (d - 1 - i)) & 1
                                     for w in range(1 << d)])

    @staticmethod
    def word_indicator(word: str) -> "CylinderFn":
        d = len(word)
        nums = [0] * (1 << d)
        nums[int(word, 2) if word else 0] = 1
        return CylinderFn._of(d, 1, nums)

    @staticmethod
    def hat(s: str, r: Fraction, eps: Fraction) -> "CylinderFn":
        """The Lipschitz bump g_{s,r,eps} as an exact cylinder function.

        The distance to s takes values in {0} union {2^-i}; reading enough
        symbols determines the bump value exactly (a cylinder that agrees
        with s on all its symbols lies within 2^-depth <= r of s, where the
        bump is 1)."""
        depth = max(len(s), 1)
        while depth <= CYLINDER_BUDGET_LOG2 and Fraction(1, 1 << depth) > r:
            depth += 1
        if depth > CYLINDER_BUDGET_LOG2:  # priced before the table is built
            raise BudgetExceededError(f"a bump of radius {r} needs more "
                                      f"than 2^{CYLINDER_BUDGET_LOG2} "
                                      "cylinders")
        def bump(d):
            v = 1 - max(d - r, Fraction(0)) / eps
            return max(Fraction(0), min(Fraction(1), v))

        # the words that first differ from s at index i are one run of
        # 2^(depth-i-1) entries at distance 2^-i, appended in order
        t = int(s.ljust(depth, "0"), 2)
        runs = [(t, 1, bump(Fraction(0)))]
        for i in range(depth):
            run = 1 << (depth - i - 1)
            runs.append((((t >> (depth - i - 1)) ^ 1) * run, run,
                         bump(Fraction(1, 1 << i))))
        den = math.lcm(*[v.denominator for _, _, v in runs])
        return CylinderFn._of(depth, den, list(chain.from_iterable(
            repeat(_over(v, den), run) for _, run, v in sorted(runs))))

    def value_on_word(self, w: str) -> Fraction:
        if len(w) < self.depth:
            raise ValueError("word too short")
        idx = int(w[:self.depth], 2) if self.depth else 0
        return Fraction(self.nums[idx], self.den)

    def window_reader(self, k: int):
        """(den, read): read(w) = den f on the words that begin with the
        word w of k >= depth symbols, an integer."""
        nums, cut = self.nums, k - self.depth
        return self.den, lambda w: nums[w >> cut]

    def lift(self, depth: int) -> "CylinderFn":
        if depth < self.depth:
            raise ValueError("cannot drop depth")
        reps = 1 << (depth - self.depth)
        return self if reps == 1 else CylinderFn._of(depth, self.den, list(
            chain.from_iterable(map(repeat, self.nums, repeat(reps)))))

    def _zip(self, other: "CylinderFn", op) -> "CylinderFn":
        # both tables at the common depth, over the common denominator
        d, den = max(self.depth, other.depth), math.lcm(self.den, other.den)
        a, b = (_times(f.lift(d).nums, den // f.den) for f in (self, other))
        return CylinderFn._of(d, den, list(map(op, a, b)))

    def add(self, other):
        return self._zip(other, add)

    def min_with(self, other):
        return self._zip(other, min)

    def max_with(self, other):
        return self._zip(other, max)

    def scale(self, c):
        c = Fraction(c)
        return CylinderFn._of(self.depth, self.den * c.denominator,
                              _times(self.nums, c.numerator))

    def add_const(self, c):
        c = Fraction(c)
        den = math.lcm(self.den, c.denominator)
        k, t = den // self.den, _over(c, den)
        return CylinderFn._of(self.depth, den, [x * k + t for x in self.nums])

    def clamp(self, m):
        m = Fraction(m)
        den = math.lcm(self.den, m.denominator)
        hi = _over(m, den)
        return CylinderFn._of(self.depth, den, [
            max(-hi, min(hi, x)) for x in _times(self.nums, den // self.den)])

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.nums)), self.den)

    def integral(self, p) -> Fraction:
        """Exact expectation under Bernoulli(p)."""
        return table_integral(self.nums, p) / self.den


def bernoulli_fold(table: list, p, count: int, first=False) -> list:
    """A table of 2^d ints, bools or Fractions indexed like
    `CylinderFn.nums`, with the last (or the first) `count` symbols of its
    words folded away.  For p = a/b the one-symbol cylinders weigh
    (b - a)/b and a/b, so a fold t'[u] = (b - a) t[u0] + a t[u1] leaves b
    times the Bernoulli(p) expectation over the folded symbol."""
    w1, b = cylinder_mass("1", p).as_integer_ratio()
    w0, t = b - w1, table
    for _ in range(count):
        h = len(t) >> 1
        t = list(map(add, map(mul, repeat(w0), t[:h] if first else t[::2]),
                     map(mul, repeat(w1), t[h:] if first else t[1::2])))
    return t


def table_integral(table: list, p) -> Fraction:
    """Exact Bernoulli(p) expectation of a table like `CylinderFn.nums`:
    its d symbols folded away (`bernoulli_fold`), over b^d for p = a/b."""
    d = len(table).bit_length() - 1
    return Fraction(bernoulli_fold(table, p, d)[0]) / p.denominator ** d


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


@functools.cache
def _decode_fterm(space: Space, n: int) -> FTerm:
    """The term at index n of `enumerate_F`, decoded once."""
    if n == 0:
        return FTerm.one()
    tag, rest = (n - 1) % 4, (n - 1) // 4
    if tag == 0:
        return _decode_generator(space, rest)
    if tag in (1, 2):
        args = tuple(_decode_fterm(space, i % n) for i in unpair(rest))
        return FTerm("max" if tag == 1 else "min", args)
    cs, ts = map(unpair, unpair(rest))
    return FTerm("lin", tuple(
        (_signed_rational(c), _decode_fterm(space, t % n))
        for c, t in zip(cs, ts)))


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
    if not isinstance(d, dict):
        raise ValueError(f"observable must be an object, not {d!r}")
    v = d.get("variant")
    if v == "piecewise_linear":
        if "segments" in d:
            return PiecewiseLinear([
                tuple(map(parse_rat, parse_list(s, "segment", 4)))
                for s in parse_list(d["segments"], "segments")])
        xs, vs = ([parse_rat(x) for x in parse_list(d[key], key)]
                  for key in ("breakpoints", "values"))
        return PiecewiseLinear.from_breakpoint_values(xs, vs)
    if v == "cylinder":
        return CylinderFn(parse_int(d["depth"], "depth"), [
            parse_rat(x) for x in parse_list(d["table"], "table")])
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
