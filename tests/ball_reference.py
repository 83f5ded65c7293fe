"""Reference decompositions of exact regions into disjoint ideal balls,
the first-holder scan over a ball list, and the exact distance range that
decides circle ball membership.

A cylinder union is cut into its maximal cylinders, found by checking
every word up to the union's depth against the union's words and listed
in (length, word) order.  An arc union is cut arc by arc (the arc across
0 glued, last) into its fewest equal parts shorter than 1/2, found by
counting parts up.  The balls are built with the checking constructor,
so the tests compare the program's `holder` with code that shares none
of its logic."""

from fractions import Fraction
from math import ceil

from ergocert.arith import Interval, mod1
from ergocert.regions import ArcSet
from ergocert.spaces import CANTOR, CIRCLE, IdealBall
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


def arc_balls(region):
    """Each arc of an `ArcSet` in its fewest equal parts shorter than 1/2,
    the arc across 0 (if any) last."""
    arcs = list(region.arcs)
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
