"""Reference decompositions of exact regions into disjoint ideal balls,
the first-holder scan over a ball list, the exact distance range that
decides circle ball membership, and a Fraction walk over arc unions.

A cylinder union is cut into its maximal cylinders, found by checking
every word up to the union's depth against the union's words and listed
in (length, word) order.  An arc union is cut arc by arc (the arc across
0 glued, last) into its fewest equal parts shorter than 1/2, found by
counting parts up.  The balls are built with the checking constructor,
so the tests compare the program's `holder` with code that shares none
of its logic.  The arc walk cuts [0, 1] at every end in play and reads
each cell at its midpoint, in the ends' own Fraction or Quad arithmetic:
unions, intersections, lengths, the wrap across 0 and the containment of
a ball's closed arc, with no merge and no integer form.  `ends` reads an
arc set's integer form as those Fraction and Quad ends, and `word_point`
is the Cantor point of a finite word."""

from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from math import ceil

from ergocert.arith import Interval, Quad, mod1
from ergocert.regions import ArcSet
from ergocert.spaces import CANTOR, CIRCLE, CantorPoint, IdealBall
from pl_reference import sub
from w1_reference import circle_dist


def cylinder_balls(region):
    """The maximal cylinders of a `CylSet`, in (length, word) order."""
    d = region.depth
    inside = {w for a, b in region.runs for w in range(a, b)}

    def full(w):
        k = d - len(w)
        base = int(w, 2) << k if w else 0
        return all(x in inside for x in range(base, base + (1 << k)))

    every = [format(i, f"0{n}b") if n else ""
             for n in range(d + 1) for i in range(1 << n)]
    return [IdealBall(CANTOR, w, Fraction(3, 1 << (len(w) + 1)))
            for w in every if full(w) and (not w or not full(w[:-1]))]


def ends(region):
    """The arcs of an `ArcSet` as (a, b) pairs, read from its integer form:
    x/den a Fraction, and (x + r sqrt2)/den a Quad where the form keeps a
    root r (0 included)."""
    den = region.den
    return [tuple(Fraction(x, den) if r is None
                  else Quad(Fraction(x, den), Fraction(r, den))
                  for x, r in zip(span, root))
            for span, root in zip(region.spans,
                                  region.roots or repeat((None, None)))]


def arc_balls(region):
    """Each arc of an `ArcSet` in its fewest equal parts shorter than 1/2,
    the arc across 0 (if any) last."""
    arcs = ends(region)
    if len(arcs) >= 2 and arcs[0][0] == 0 and arcs[-1][1] == 1:
        arcs = arcs[1:-1] + [(arcs[-1][0], arcs[0][1] + 1)]
    balls = []
    for a, b in arcs:
        parts = 1
        while (b - a) / parts >= Fraction(1, 2):
            parts += 1
        step = (b - a) / parts
        balls += [IdealBall(CIRCLE, mod1(a + step * i + step / 2), step / 2)
                  for i in range(parts)]
    return balls


def region_balls(region):
    """The reference decomposition of either kind of region."""
    if isinstance(region, ArcSet):
        return arc_balls(region)
    return cylinder_balls(region)


def word_point(w):
    """The Cantor point that reads the word w, then 0 forever."""
    return CantorPoint(lambda i: int(w[i]) if i < len(w) else 0)


def first_holder(space, balls, cand):
    """(position, ball) of the first ball that holds cand strictly, or
    None."""
    return next(((k, b) for k, b in enumerate(balls)
                 if space.inside(cand, b, strict=True)), None)


def circle_dist_interval(c: Fraction, box: Interval) -> Interval:
    """Exact range of t -> circle_dist(c, t) over a real-line interval."""
    if box.width >= 1:
        return Interval(Fraction(0), Fraction(1, 2))
    lo = box.lo % 1
    hi = lo + box.width
    d_lo = circle_dist(c, lo % 1)
    d_hi = circle_dist(c, hi % 1)
    vmin = min(d_lo, d_hi)
    vmax = max(d_lo, d_hi)
    if _hits_mod1(c, lo, hi):
        vmin = Fraction(0)
    if _hits_mod1(c + Fraction(1, 2), lo, hi):
        vmax = Fraction(1, 2)
    return Interval(vmin, vmax)


def _hits_mod1(c: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Is c congruent mod 1 to some t in [lo, hi]?"""
    k = ceil(lo - c)
    return c + k <= hi


def circle_member(ball, box: Interval) -> bool:
    """Every point of the box lies at circle distance < r from the
    centre."""
    return circle_dist_interval(ball.center, box).hi < ball.radius


def cells(points, inside):
    """The arcs of [0, 1] between consecutive points (0 and 1 added) whose
    midpoints pass `inside`, touching ones joined.  A Quad with no sqrt2
    part is read as its Fraction first, so of two equal ends the set keeps
    the same type whatever their order."""
    pts = sorted({x.a if isinstance(x, Quad) and x.b == 0 else x
                  for x in points} | {Fraction(0), Fraction(1)})
    out = []
    for u, v in zip(pts, pts[1:]):
        if inside((u + v) / 2):
            if out and out[-1][1] == u:
                out[-1] = (out[-1][0], v)
            else:
                out.append((u, v))
    return out


def pieces(raw):
    """Arcs given on the real line as arcs of [0, 1]: the whole circle if
    one is a turn long, else each reduced mod 1 and split at 0 (an arc of
    [0, 1] already keeps its ends, types included)."""
    out = []
    for a, b in raw:
        if sub(b, a) >= 1:
            return [(Fraction(0), Fraction(1))]
        if 0 <= a and b <= 1:
            out.append((a, b))
            continue
        a0 = mod1(a)
        b0 = a0 + sub(b, a)
        out += [(a0, b0)] if b0 <= 1 else [(a0, Fraction(1)),
                                           (Fraction(0), b0 - 1)]
    return [(a, b) for a, b in out if a < b]


def _inside(arcs, x):
    return any(a < x < b for a, b in arcs)


def arc_union(raw):
    """The union of arcs of the real line, sorted, disjoint and apart: a
    cell lies in it when more arcs start before its midpoint than end
    before it."""
    arcs = pieces(raw)
    starts, ends = sorted(a for a, _ in arcs), sorted(b for _, b in arcs)
    return cells(starts + ends,
                 lambda x: bisect_left(starts, x) > bisect_left(ends, x))


def arc_meet(xs, ys):
    """The intersection of two arc unions."""
    return cells([x for arc in xs + ys for x in arc],
                 lambda x: _inside(xs, x) and _inside(ys, x))


def arc_length(arcs):
    """The sum of b - a, from 0."""
    return sum((sub(b, a) for a, b in arcs), Fraction(0))


def arc_contains(arcs, ball):
    """Does the union hold the closed arc of a circle ball, up to finitely
    many points: every cell of the ball's pieces, cut at the union's ends,
    lies in the union."""
    held = pieces([(ball.center - ball.radius, ball.center + ball.radius)])
    pts = sorted({x for arc in arcs + held for x in arc}
                 | {Fraction(0), Fraction(1)})
    return all(_inside(arcs, x) for x in
               [(u + v) / 2 for u, v in zip(pts, pts[1:])]
               if _inside(held, x))


def inner(arcs, grain):
    """Each arc shrunk to the grid of step `grain`: a Fraction end stays,
    a Quad start rounds up and a Quad end down, each through Quad.floor;
    arcs left empty drop out."""
    out = []
    for a, b in arcs:
        if isinstance(a, Quad):
            g = grain * (a / grain).floor()
            a = g + grain if g < a else g
        if isinstance(b, Quad):
            b = grain * (b / grain).floor()
        if a < b:
            out.append((a, b))
    return out
