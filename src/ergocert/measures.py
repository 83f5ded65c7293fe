"""Ideal measures, exact W1 transport, exact measures of ball unions.

W1 between ideal measures is exact over the rationals: each space couples
integer masses by its own closed form (`Space.transport`), a cut at a
weighted median plus a monotone rearrangement on the circle, greedy
bottom-up matching on the ultrametric Cantor space.  Both work on integers
up to the final value: circle points as integer positions over the lcm of
their denominators, Cantor words sorted once as integers and walked with a
stack of the nodes where they branch.  The value is the plan's cost under
`Space.dist`, summed in integers per distance denominator.  A finite union
of ideal balls is weighed exactly under a built-in system's invariant
measure by the system itself (`System.region`, then `System.weigh`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import fmt_rat, parse_list, parse_rat
from .dynamics import System
from .errors import InputError
from .spaces import Space


@dataclass(frozen=True)
class IdealMeasure:
    """Finite rational convex combination of Dirac measures on ideal points.

    An atom is a (point, weight) pair.  A string is read as JSON: a point
    by the space's `point_from_json`, a weight by `parse_rat`; any other
    point goes to `space.point` and any other weight (an int, a Fraction)
    to `Fraction`.  Each is converted once.  The points must be pairwise
    distinct and the weights positive with sum 1, checked on the points
    themselves and on integers."""

    space: Space
    atoms: tuple  # ((point, weight), ...)

    def __post_init__(self):
        space = self.space
        atoms = tuple(
            (space.point_from_json(p) if isinstance(p, str)
             else space.point(p),
             parse_rat(w) if isinstance(w, str) else Fraction(w))
            for p, w in self.atoms)
        if len({p for p, _ in atoms}) != len(atoms):
            raise ValueError("atom points must be pairwise distinct")
        if any(w.numerator <= 0 for _, w in atoms):
            raise ValueError("weights must be positive")
        lw = lcm(*(w.denominator for _, w in atoms))
        if sum(w.numerator * (lw // w.denominator) for _, w in atoms) != lw:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)

    @staticmethod
    def dirac(space: Space, point) -> "IdealMeasure":
        return IdealMeasure(space, ((point, Fraction(1)),))

    @staticmethod
    def from_json(space: Space, data: list) -> "IdealMeasure":
        """A list of [point, weight] string pairs; anything else is refused."""
        atoms = tuple(tuple(parse_list(atom, "atom", 2))
                      for atom in parse_list(data, "measure"))
        if not all(isinstance(x, str) for atom in atoms for x in atom):
            raise ValueError("atom points and weights must be strings")
        return IdealMeasure(space, atoms)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative flow matrix with marginals equal to the two atom lists."""

    flows: tuple  # ((i, j, amount), ...) sparse

    def check_marginals(self, mu1: IdealMeasure, mu2: IdealMeasure) -> bool:
        rows = [Fraction(0)] * len(mu1.atoms)
        cols = [Fraction(0)] * len(mu2.atoms)
        for i, j, a in self.flows:
            rows[i] += a
            cols[j] += a
        return (all(a >= 0 for _, _, a in self.flows)
                and rows == [w for _, w in mu1.atoms]
                and cols == [w for _, w in mu2.atoms])

    def to_json(self) -> list:
        return [[i, j, fmt_rat(a)] for i, j, a in self.flows]


def w1_ideal(space: Space, mu1: IdealMeasure, mu2: IdealMeasure):
    """Exact W1 distance and an optimal transport plan.

    The masses become integers over the lcm lw of the weight denominators
    and the space's closed form couples them; the value is the cost of that
    plan under `Space.dist`, so value and plan agree by construction.  The
    cost is summed in integers: each integer flow times the numerator of
    its distance, grouped by the distance's denominator, and one Fraction
    per denominator."""
    if mu1.space is not space or mu2.space is not space:
        raise ValueError("measures must live on the given space")
    lw = lcm(*(w.denominator for _, w in mu1.atoms + mu2.atoms))
    src, snk = ([(p, w.numerator * (lw // w.denominator)) for p, w in mu.atoms]
                for mu in (mu1, mu2))
    if sum(w for _, w in src) != sum(w for _, w in snk):
        raise InputError("the two measures must have equal total mass")
    flows = sorted(space.transport(src, snk).items())
    cost = Counter()
    for (i, j), a in flows:
        d = space.dist(src[i][0], snk[j][0])
        cost[d.denominator] += a * d.numerator
    value = sum(Fraction(c, den * lw) for den, c in cost.items())
    return value, TransportPlan(tuple((i, j, Fraction(a, lw))
                                      for (i, j), a in flows))


# ---------------------------------------------------------------------------
# Exact measures of regions under a system's invariant measure


def region_measure(system: System, region) -> Fraction:
    return system.weigh(region)
