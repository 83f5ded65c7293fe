"""Ideal measures, exact W1 transport, exact measures of ball unions.

W1 between ideal measures is exact over the rationals and runs on integers
from the parsed weight to the printed plan.  A measure holds its masses as
integers over lw, the lcm of its reduced weight denominators, and a plan
holds its flows as integers over the lw of the pair; each builds its
Fraction view (`atoms`, `flows`) only when it is read.  Each space couples
integer masses by its own closed form (`Space.transport`), a cut at a
weighted median plus a monotone rearrangement on the circle, greedy
bottom-up matching on the ultrametric Cantor space.  Both work on integers
up to the final value: circle points as integer positions over the lcm of
their denominators, Cantor words sorted once as integers and walked with a
stack of the nodes where they branch.  The value is the plan's cost, which
the space sums in integers into one Fraction (`Space.plan_cost`), on Cantor
space from branch depths.  A finite union of ideal balls is weighed exactly
under a built-in system's invariant measure by the system itself
(`System.region`, then `System.weigh`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .arith import parse_list, parse_ratio
from .dynamics import System
from .errors import InputError
from .spaces import Space


class IdealMeasure:
    """Finite rational convex combination of Dirac measures on ideal points.

    Held as one integer form: `points`, and `masses`, the weights as
    integers over `lw`, the lcm of their reduced denominators.  The
    checking constructor takes atoms, (point, weight) pairs.  A string is
    read as JSON: a point by the space's `point_from_json`, a weight by
    `parse_ratio`; any other point goes to `space.point` and any other
    weight (an int, a Fraction) is read by its ratio.  Each is converted
    once.  The points must be pairwise distinct and the weights positive
    with sum 1, checked on integers (the points by `space.point_key`).
    `atoms`, the ((point, Fraction weight), ...) view, is built on first
    read."""

    def __init__(self, space: Space, atoms):
        from_json, point = space.point_from_json, space.point
        points, nums, dens = [], [], []
        for p, w in atoms:
            points.append(from_json(p) if isinstance(p, str) else point(p))
            if not isinstance(w, (str, int, Fraction)):
                w = Fraction(w)
            n, d = (parse_ratio(w) if isinstance(w, str)
                    else (w.numerator, w.denominator))
            nums.append(n)
            dens.append(d)
        if len(set(map(space.point_key, points))) != len(points):
            raise ValueError("atom points must be pairwise distinct")
        if nums and min(nums) <= 0:
            raise ValueError("weights must be positive")
        lw = lcm(*dens)
        masses = [n * (lw // d) for n, d in zip(nums, dens)]
        if sum(masses) != lw:
            raise ValueError("weights must sum to 1")
        self.space, self.points, self.masses, self.lw = \
            space, tuple(points), tuple(masses), lw

    @cached_property
    def atoms(self) -> tuple:
        return tuple((p, Fraction(m, self.lw))
                     for p, m in zip(self.points, self.masses))

    @staticmethod
    def dirac(space: Space, point) -> "IdealMeasure":
        return IdealMeasure(space, ((point, 1),))

    @staticmethod
    def from_json(space: Space, data: list) -> "IdealMeasure":
        """A list of [point, weight] string pairs; anything else is refused."""
        atoms = [parse_list(atom, "atom", 2)
                 for atom in parse_list(data, "measure")]
        if not all([isinstance(p, str) and isinstance(w, str)
                    for p, w in atoms]):
            raise ValueError("atom points and weights must be strings")
        return IdealMeasure(space, atoms)


class TransportPlan:
    """Nonnegative sparse flow matrix, held as one integer form: `amounts`,
    ((i, j, integer flow), ...), over `lw`.  Built from rational (i, j,
    amount) triples, or from integer ones with their `lw`; `flows`, the
    ((i, j, Fraction), ...) view, is built on first read."""

    def __init__(self, flows, lw: int | None = None):
        if lw is None:
            lw = lcm(*(a.denominator for _, _, a in flows))
            flows = [(i, j, a.numerator * (lw // a.denominator))
                     for i, j, a in flows]
        self.amounts, self.lw = tuple(flows), lw

    @cached_property
    def flows(self) -> tuple:
        return tuple((i, j, Fraction(a, self.lw)) for i, j, a in self.amounts)

    def check_marginals(self, mu1: IdealMeasure, mu2: IdealMeasure) -> bool:
        """Whether every flow is nonnegative and the row and column sums
        are the weights of mu1 and mu2, compared on integers."""
        rows, cols = [0] * len(mu1.masses), [0] * len(mu2.masses)
        for i, j, a in self.amounts:
            rows[i] += a
            cols[j] += a
        return (all(a >= 0 for _, _, a in self.amounts)
                and all(r * mu.lw == m * self.lw
                        for sums, mu in ((rows, mu1), (cols, mu2))
                        for r, m in zip(sums, mu.masses)))

    def to_json(self) -> list:
        """[[i, j, "flow"], ...], each flow reduced by one gcd."""
        lw = self.lw
        return [[i, j, f"{a // g}/{lw // g}" if (g := gcd(a, lw)) != lw
                 else str(a // g)] for i, j, a in self.amounts]


def w1_ideal(space: Space, mu1: IdealMeasure, mu2: IdealMeasure):
    """Exact W1 distance and an optimal transport plan.

    The two mass lists are scaled to lw = lcm(mu1.lw, mu2.lw) and the
    space's closed form couples them; the plan holds the integer flows over
    lw.  The value is the cost of that plan, summed by the space in
    integers into one Fraction (`Space.plan_cost`), so value and plan
    agree by construction."""
    if mu1.space is not space or mu2.space is not space:
        raise ValueError("measures must live on the given space")
    lw = lcm(mu1.lw, mu2.lw)
    src, snk = (list(zip(mu.points, [m * (lw // mu.lw) for m in mu.masses]))
                for mu in (mu1, mu2))
    if sum(mu1.masses) * mu2.lw != sum(mu2.masses) * mu1.lw:
        raise InputError("the two measures must have equal total mass")
    flows = sorted(space.transport(src, snk).items())
    value = space.plan_cost(mu1.points, mu2.points, flows, lw)
    return value, TransportPlan([(i, j, a) for (i, j), a in flows], lw)


# ---------------------------------------------------------------------------
# Exact measures of regions under a system's invariant measure


def region_measure(system: System, region) -> Fraction:
    return system.weigh(region)
