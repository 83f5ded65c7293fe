"""Plain segment-list references for the piecewise-linear kernels.

A function here is a list of segments (a, b, va, vb): linear from va at a
to vb at b, right-continuous at a, tiling [0, 1] in order.  The data may
be Fractions or Quads, and every function works on them directly in
their own arithmetic, cell by cell, so that the tests compare the
program's integer kernels with code that shares none of their logic:
`value` reads a function at a point and `inner` its L2 products,
`shift` translates by a rational or a Q[sqrt2] offset, the oracle of the
rotation's translates, which the program files inside `pl_sum`, and
`sweep` adds many terms at once, the oracle of their sum.  The
program's Quad divides by rationals only and has no negation, abs or
reflected subtraction (a rational minus a Quad); `div`, `mag` and `sub`
supply them here."""

import math
from fractions import Fraction
from functools import reduce

from ergocert.arith import Quad, mod1

HALF = Fraction(1, 2)


def div(x, y):
    """x / y, exact: a Quad divisor a + b sqrt2 by its inverse
    (a - b sqrt2) / (a^2 - 2 b^2)."""
    if isinstance(y, Quad):
        n = y.a * y.a - 2 * y.b * y.b  # zero only for y = 0
        return x * Quad(y.a / n, -y.b / n)
    return x / y


def mag(x):
    """|x| for a rational or a Quad."""
    return x if x >= 0 else x * -1


def sub(x, y):
    """x - y for rationals and Quads in either place: a rational minus a
    Quad is the rational plus the Quad times -1."""
    if isinstance(y, Quad) and not isinstance(x, Quad):
        return x + y * -1
    return x - y


def lerp(a, b, va, vb, x):
    """The value at x of the segment (a, b, va, vb), exact at its ends."""
    if x == a:
        return va
    if x == b:
        return vb
    return va + div(sub(vb, va) * sub(x, a), sub(b, a))


def value(segs, x):
    """f(x) for x in [0, 1), right-continuous: lerp on the segment that
    holds x."""
    return lerp(*next(s for s in segs if s[0] <= x < s[1]), x)


def types(pairs):
    """The type of every entry, tuple by tuple."""
    return [tuple(map(type, p)) for p in pairs]


def normal(segs):
    """segs in normal form: no zero-length segment, and no two neighbours
    continuous and collinear (they are joined)."""
    out = []
    for a, b, va, vb in segs:
        if not a < b:
            continue
        if out:
            pa, pb, pva, pvb = out[-1]
            if pvb == va and sub(pvb, pva) * sub(b, pa) \
                    == sub(vb, pva) * sub(pb, pa):
                out[-1] = (pa, b, pva, vb)
                continue
        out.append((a, b, va, vb))
    return out


def cells(fs, gs):
    """(a, b, fa, fb, ga, gb) for each cell [a, b] between the merged
    breakpoints of fs and gs, with the values at a (right limits) and at b
    (left limits)."""
    out, i, j, a = [], 0, 0, fs[0][0]
    while i < len(fs):
        f, g = fs[i], gs[j]
        b = min(f[1], g[1])
        out.append((a, b, lerp(*f, a), lerp(*f, b), lerp(*g, a), lerp(*g, b)))
        i, j, a = i + (f[1] == b), j + (g[1] == b), b
    return out


def plus(fs, gs):
    """fs + gs, cell by cell."""
    return normal([(a, b, fa + ga, fb + gb)
                   for a, b, fa, fb, ga, gb in cells(fs, gs)])


def total(terms):
    """The sum of a list of functions, added one at a time."""
    return reduce(plus, terms)


def sweep(terms):
    """The sum of a list of functions in one sorted sweep: each term's
    jumps in value and in slope, filed at its breakpoints, are sorted
    together by position and read left to right from the terms' values and
    slopes at 0, in the ends' own arithmetic."""
    def slope(a, b, va, vb):
        return div(sub(vb, va), sub(b, a))

    value = rise = 0
    jumps = []  # (position, jump in value, jump in slope)
    for segs in terms:
        value, rise = value + segs[0][2], rise + slope(*segs[0])
        jumps += [(t[0], sub(t[2], s[3]), sub(slope(*t), slope(*s)))
                  for s, t in zip(segs, segs[1:])]
    jumps.sort(key=lambda j: j[0])
    out, x = [], Fraction(0)
    for i, (at, dv, dd) in enumerate(jumps + [(Fraction(1), 0, 0)]):
        if at != x:
            end = value + rise * sub(at, x)
            out.append((x, at, value, end))
            value, x = end, at
        value, rise = value + dv, rise + dd
    return normal(out)


def scale(segs, c):
    """c times segs."""
    return normal([(a, b, c * va, c * vb) for a, b, va, vb in segs])


def lattice(fs, gs, pick):
    """Pointwise pick (min or max) of fs and gs: a cell where fs - gs
    changes sign is cut at the crossing."""
    out = []
    for a, b, fa, fb, ga, gb in cells(fs, gs):
        da, db = sub(fa, ga), sub(fb, gb)
        if (da < 0 < db) or (db < 0 < da):
            x = a + div(sub(b, a) * da * -1, sub(db, da))
            fx = lerp(a, b, fa, fb, x)
            out += [(a, x, pick(fa, ga), fx), (x, b, fx, pick(fb, gb))]
        else:
            out.append((a, b, pick(fa, ga), pick(fb, gb)))
    return normal(out)


def inner(fs, gs):
    """The integral of fs * gs, by the exact per-cell formula for a
    product of two linear functions."""
    tot = 0
    for a, b, fa, fb, ga, gb in cells(fs, gs):
        tot = tot + (b - a) * (2 * fa * ga + fa * gb + fb * ga
                               + 2 * fb * gb) / 6
    return tot


def stretch(segs, lo, hi):
    """x -> f(lo + x (hi - lo)) on [0, 1]."""
    w, out = hi - lo, []
    for a, b, va, vb in segs:
        s, t = max(a, lo), min(b, hi)
        if s < t:
            out.append((div(s - lo, w), div(t - lo, w),
                        lerp(a, b, va, vb, s), lerp(a, b, va, vb, t)))
    return normal(out)


def transfer(segs):
    """(Lf)(x) = (f(x/2) + f(x/2 + 1/2)) / 2, the doubling map's transfer
    operator: the two halves of f stretched to [0, 1], added and halved."""
    return scale(plus(stretch(segs, Fraction(0), HALF),
                      stretch(segs, HALF, Fraction(1))), HALF)


def pullback(segs):
    """x -> f(2x mod 1): the segments halved, twice."""
    return normal([(a * HALF + h, b * HALF + h, va, vb)
                   for h in (Fraction(0), HALF) for a, b, va, vb in segs])


def shift(segs, c):
    """x -> f(x + c) for c in [0, 1): the cells between 0, the points
    a - c mod 1 and 1, each read by lerp on the segment of f that its
    midpoint moves into."""
    xs = sorted({Fraction(0)} | {mod1(sub(a, c)) for a, _, _, _ in segs})
    out = []
    for x0, x1 in zip(xs, xs[1:] + [Fraction(1)]):
        h = sub(x1, x0) / 2
        y = mod1(x0 + h + c)
        seg = next(s for s in segs if s[0] <= y < s[1])
        out.append((x0, x1, lerp(*seg, y - h), lerp(*seg, y + h)))
    return normal(out)


def arcs(segs, lo, hi):
    """{x : lo < f(x) < hi} (a missing level is unbounded) as sorted arcs,
    arcs that touch joined, up to finitely many points."""
    out = []

    def add(u, v):
        if out and out[-1][1] == u:
            out[-1] = (out[-1][0], v)
        else:
            out.append((u, v))

    for a, b, va, vb in segs:
        small, big = (va, vb) if va < vb else (vb, va)
        if (lo is None or small > lo) and (hi is None or big < hi):
            add(a, b)
            continue
        if (lo is not None and big <= lo) or (hi is not None and small >= hi):
            continue
        # the segment meets a level, so it is not constant
        slope = div(sub(vb, va), sub(b, a))
        xs = sorted([a, b] + [a + div(sub(lvl, va), slope)
                              for lvl in (lo, hi)
                              if lvl is not None and small < lvl < big])
        for u, v in zip(xs, xs[1:]):
            mid = va + slope * sub((u + v) / 2, a)
            if (lo is None or lo < mid) and (hi is None or mid < hi):
                add(u, v)
    return out


def sup(segs):
    """sup |f|, read at every segment's start, then at every end."""
    return max([mag(va) for _, _, va, _ in segs]
               + [mag(vb) for _, _, _, vb in segs])


def abs_integral(segs):
    """The integral of |f|: a segment that changes sign splits in two."""
    tot = 0
    for a, b, va, vb in segs:
        if (va < 0 < vb) or (vb < 0 < va):
            tot = tot + div((b - a) * (va * va + vb * vb), 2 * mag(vb - va))
        else:
            tot = tot + (b - a) * (mag(va) + mag(vb)) / 2
    return tot


def integral(segs):
    """The integral, by the trapezoid on every segment."""
    tot = 0
    for a, b, va, vb in segs:
        tot = tot + sub(b, a) * (va + vb) / 2
    return tot


def checked_form(segments):
    """The integer form (n, e, xa, xb, vu, vw, ds, kind) of rational
    segments, in Fraction arithmetic: the segments checked to tile [0, 1],
    put in normal form, laid on the steps 1/n of the lcm n of their start
    denominators, with every value and increment over the lcm e of their
    denominators."""
    if any(type(t) not in (int, Fraction) for s in segments for t in s):
        raise ValueError("piecewise-linear data must be rational")
    segs = [s for s in segments if s[0] < s[1]]
    if not segs or segs[0][0] != 0 or segs[-1][1] != 1:
        raise ValueError("segments must tile [0,1]")
    if any(s[1] != t[0] for s, t in zip(segs, segs[1:])):
        raise ValueError("segments must be contiguous")
    segs = normal(segs)
    n = math.lcm(*[Fraction(a).denominator for a, _, _, _ in segs])
    incs = [Fraction(vb - va) / ((b - a) * n) for a, b, va, vb in segs]
    e = math.lcm(*[Fraction(va).denominator for _, _, va, _ in segs],
                 *[d.denominator for d in incs])
    zeros = [0] * len(segs)
    return (n, e, [int(a * n) for a, _, _, _ in segs], zeros,
            [int(va * e) for _, _, va, _ in segs], zeros,
            [int(d * e) for d in incs], "rational")


def total_variation(segs):
    """Total variation around the circle: the jump into each segment from
    the end of the one before it (at 0, the last one), and its rise."""
    tot, prev = 0, segs[-1][3]
    for _, _, va, vb in segs:
        tot = tot + mag(va - prev) + mag(vb - va)
        prev = vb
    return tot
