"""Effective Borel-Cantelli sequences and point synthesis.

A BC sequence is a sequence of effective opens U_j with summable measure
bounds err(j); a point avoiding all but finitely many complements satisfies
every tail guarantee.  Sequences built here carry exact region data, so a
member point can be *synthesized* digit by digit: at every step an exact
positive-mass budget certifies that the remaining region is nonempty, and
each refinement records a machine-checkable membership witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .arith import CReal, Interval, Quad, fmt_rat, parse_rat, pow2
from .errors import (BudgetExceededError, InputError, NoMassError,
                     UnsupportedInstanceError)
from .dynamics import (Observable, System, as_concrete, birkhoff_eval,
                       birkhoff_observable, centered, deviation_region,
                       integral, parse_system, region_to_balls)
from .measures import balls_to_region, region_measure, support_hit
from .observables import (CylinderFn, enumerate_F, observable_from_json,
                          observable_to_json)
from .rates import SummableSchedule, as_rate_l1
from .regions import ArcSet, CylSet
from .spaces import (CirclePoint, CantorPoint, EffectiveOpen, IdealBall,
                     Membership, Space, SpaceKind, ball_arc, ball_member,
                     circle_dist, unpair)

#: digit window used when scoring partial orbit points during synthesis
BALANCE_WINDOW = 24
#: cap on candidate balls examined per refinement step
CANDIDATE_BUDGET = 1 << 14
#: extra depth explored below the minimum at each refinement step
DEPTH_SLACK = 20


# ---------------------------------------------------------------------------
# BC sequences


@dataclass
class BCSequence:
    """U_j (j >= 1) with certified complement-measure bounds err(j).

    `tail(u)` is an exact upper bound on sum_{j >= u} err(j); `region` and
    `info`, when present, expose exact region data and window metadata
    (needed for synthesis).  `support_end` marks the last index with a
    possibly nonzero err."""

    space: Space
    opens: Callable[[int], EffectiveOpen]
    err: Callable[[int], Fraction]
    tail: Callable[[int], Fraction]
    region: Optional[Callable[[int], object]] = None
    info: Optional[Callable[[int], dict]] = None
    support_end: Optional[int] = None

    def modulus(self, e: Fraction) -> int:
        """Smallest u with tail(u) < e."""
        e = Fraction(e)
        if e <= 0:
            raise InputError("modulus needs a positive threshold")
        u = 1
        while self.tail(u) >= e:
            u += 1
            if u > 100000:
                raise BudgetExceededError("summability modulus out of reach")
        return u


def _region_full(space: Space):
    return ArcSet.full() if space.kind is SpaceKind.CIRCLE else CylSet.full()


def _region_err(system: System, region) -> tuple[object, Fraction]:
    """Rational-data region together with the exact measure of the
    complement of that (possibly shrunk) region."""
    if isinstance(region, ArcSet) and any(
            not isinstance(e, Fraction) for arc in region.arcs for e in arc):
        region, _ = region.to_rational_inner(pow2(48))
    return region, 1 - region_measure(system.measure.tag, region)


def _complement_mass(system: System, f: Observable, n: int,
                     delta: Fraction) -> Optional[Fraction]:
    """Exact mu{|A_n fbar| >= delta} without materializing the region
    (shift only; circle regions are cheap to build directly)."""
    if system.space.kind is not SpaceKind.CANTOR:
        return None
    a = birkhoff_observable(system, centered(system, f), n)
    return CylinderFn(a.depth, [abs(v) >= delta for v in a.table]
                      ).integral(system.p)


def bc_exact_windows(system: System, f: Observable,
                     caps: Callable[[int], Fraction],
                     deltas: Optional[Callable[[int], Fraction]] = None,
                     count: int = 12,
                     max_n: Optional[int] = None,
                     start_n: int = 1) -> BCSequence:
    """BC sequence of single-time deviation windows with exact errors.

    Window j is U_j = {x : |A_{n_j}(f - integral f)(x)| < delta_j} for the
    smallest feasible n_j (nondecreasing in j) whose exact complement
    measure meets caps(j); when no n within budget meets the cap the window
    degrades to the whole space with err 0 (a valid, vacuous window).
    Windows beyond `count` are the whole space."""
    floor = system.bc_delta_floor
    deltas = deltas or (lambda j: max(floor, pow2(j)))
    max_n = max_n if max_n is not None else system.bc_max_n
    obs_json = observable_to_json(f)
    windows: dict[int, dict] = {}
    state = {"n": max(1, start_n), "dead": False}
    mass_cache: dict[tuple, tuple] = {}

    def _trivial(j: int) -> dict:
        reg = _region_full(system.space)
        return {"trivial": True, "n": None, "delta": None,
                "err": Fraction(0), "region": reg,
                "open": EffectiveOpen.whole(system.space),
                "observable": obs_json}

    def _window(j: int) -> dict:
        if j in windows:
            return windows[j]
        if j > count:
            return _trivial(j)
        cap = Fraction(caps(j))
        delta = Fraction(deltas(j))
        found = None
        if not state["dead"]:
            for n in range(state["n"], max_n + 1):
                key = (n, delta)
                if key not in mass_cache:
                    try:
                        err_fast = _complement_mass(system, f, n, delta)
                        if err_fast is not None and err_fast > cap:
                            mass_cache[key] = ("mass-only", err_fast)
                        else:
                            reg = deviation_region(system, f, n, delta)
                            mass_cache[key] = _region_err(system, reg)
                    except BudgetExceededError:
                        mass_cache[key] = None
                got = mass_cache[key]
                if got is None:
                    break
                reg, err = got
                if reg == "mass-only" and err <= cap:
                    reg = deviation_region(system, f, n, delta)
                    mass_cache[key] = _region_err(system, reg)
                    reg, err = mass_cache[key]
                if err <= cap:
                    found = {"trivial": False, "n": n, "delta": delta,
                             "err": err, "region": reg,
                             "open": EffectiveOpen(
                                 system.space,
                                 exact_prefix=region_to_balls(system.space,
                                                              reg)),
                             "observable": obs_json}
                    state["n"] = n
                    break
        windows[j] = found if found is not None else _trivial(j)
        return windows[j]

    def tail(u: int) -> Fraction:
        return sum((_window(j)["err"] for j in range(max(1, u), count + 1)),
                   Fraction(0))

    return BCSequence(
        space=system.space,
        opens=lambda j: _window(j)["open"],
        err=lambda j: _window(j)["err"],
        tail=tail,
        region=lambda j: _window(j)["region"],
        info=lambda j: {k: _window(j)[k]
                        for k in ("trivial", "n", "delta", "err",
                                  "observable")},
        support_end=count)


# ---------------------------------------------------------------------------
# Literal windows from almost-sure rate certificates


def _cyl_range(g: CylinderFn, partial: str) -> Interval:
    """Range of g over all infinite words extending `partial`."""
    k = g.depth
    if len(partial) >= k:
        v = g.value_on_word(partial)
        return Interval.point(v)
    free = k - len(partial)
    base = int(partial, 2) << free if partial else 0
    vals = [g.table[base + s] for s in range(1 << free)]
    return Interval(min(vals), max(vals))


def window_sup_bound(system: System, fbar, n: int, ball: IdealBall):
    """Certified upper bound on sup over the closed ball of |A_n fbar|."""
    if system.space.kind is SpaceKind.CANTOR:
        w = ball.cylinder_prefix
        tot = Interval.point(0)
        for i in range(n):
            tot = tot + _cyl_range(fbar, w[i:])
        box = Interval(tot.lo / n, tot.hi / n)
    else:
        box = system.box_average(fbar, *ball_arc(ball), n)
    return max(abs(box.lo), abs(box.hi))


def bc_from_rate(system: System, f: Observable,
                 schedule: SummableSchedule) -> BCSequence:
    """BC sequence straight from almost-sure rate certificates.

    U_j = {x : |A_n fbar(x)| < delta_j for all n in [N_j, N_{j+1})} with
    N_j the (monotone) certificate thresholds; mu(U_j^c) <= eps_j by the
    certificates.  The opens are enumerated lazily and soundly: a ball is
    emitted only once interval arithmetic certifies it inside the window,
    with per-step work capped by the enumeration index, so every answer is
    finite-time.  No exact region oracle is attached (the thresholds are
    far beyond exhaustive-region budgets)."""
    fbar = as_concrete(system, centered(system, f))
    certs: dict[int, object] = {}

    def cert(j: int):
        if j not in certs:
            certs[j] = as_rate_l1(system, f, schedule.eps(j),
                                  schedule.delta(j))
        return certs[j]

    def N(j: int) -> int:
        return max([1] + [cert(i).n0_or_m for i in range(1, j + 1)])

    def opens(j: int) -> EffectiveOpen:
        lo = N(j)
        hi = max(N(j + 1), lo + 1)
        delta = Fraction(schedule.delta(j))

        def enumerator(t: int) -> Optional[IdealBall]:
            c, effort = unpair(t)
            if hi - lo > effort:
                return None
            ball = IdealBall.from_index(system.space, c)
            if system.space.kind is SpaceKind.CIRCLE \
                    and ball.radius > pow2(min(hi, 60)):
                return None  # defer: range bounds only sharpen on small balls
            for n in range(lo, hi):
                if window_sup_bound(system, fbar, n, ball) >= delta:
                    return None
            return ball

        return EffectiveOpen(system.space, enumerator=enumerator)

    return BCSequence(space=system.space, opens=opens, err=schedule.eps,
                      tail=schedule.tail, support_end=None)


# ---------------------------------------------------------------------------
# Dovetailed intersection


def _pair_stream(g: int):
    """(i, j) pairs, i <= g, ordered by i+j then i (1-based, infinite)."""
    for s in itertools.count(2):
        for i in range(1, min(g, s - 1) + 1):
            yield i, s - i


def bc_intersect(members: list[BCSequence]) -> BCSequence:
    """Single BC sequence covering every member: pair (i, j) is scheduled at
    dovetail position t with the cap 2^-(i+j); member errors must meet
    their caps (checked on access).  Reported errors are the members' own
    (exact) bounds, which are at most the caps."""
    if not members:
        raise InputError("need at least one member")
    g = len(members)
    space = members[0].space
    if any(m.space.kind is not space.kind for m in members):
        raise InputError("members must share a space")
    pairs: list[tuple[int, int]] = []
    gen = _pair_stream(g)

    def pair_at(t: int) -> tuple[int, int]:
        while len(pairs) < t:
            pairs.append(next(gen))
        return pairs[t - 1]

    def err(t: int) -> Fraction:
        i, j = pair_at(t)
        e = members[i - 1].err(j)
        if e > pow2(i + j):
            raise InputError(
                f"member {i} window {j} has err {e} > 2^-{i + j}")
        return e

    finite = all(m.support_end is not None for m in members)
    if finite:
        smax = max(i + 1 + members[i].support_end for i in range(g))
        support_end = sum(min(g, s - 1) for s in range(2, smax + 1))
    else:
        support_end = None

    def tail(u: int) -> Fraction:
        u = max(1, u)
        if finite:
            tot = Fraction(0)
            t = u
            while True:
                i, j = pair_at(t)
                if i + j > smax:
                    return tot
                tot += err(t)
                t += 1
        s0 = sum(pair_at(u))
        horizon = s0 + 2
        tot = Fraction(0)
        t = u
        while sum(pair_at(t)) <= horizon:
            i, j = pair_at(t)
            tot += pow2(i + j)
            t += 1
        return tot + (horizon + 1) * pow2(horizon)

    has_regions = all(m.region is not None for m in members)

    def region(t: int):
        i, j = pair_at(t)
        return members[i - 1].region(j)

    def info(t: int) -> dict:
        i, j = pair_at(t)
        d = dict(members[i - 1].info(j)) if members[i - 1].info else {}
        d.update({"member": i, "member_window": j})
        return d

    return BCSequence(
        space=space,
        opens=lambda t: members[pair_at(t)[0] - 1].opens(pair_at(t)[1]),
        err=err, tail=tail,
        region=region if has_regions else None,
        info=info, support_end=support_end)


# ---------------------------------------------------------------------------
# Digit tails (deterministic extension of a synthesized prefix)


class _DigitTail:
    """Extends a fixed bit prefix one digit at a time.

    With tracked observables the next digit is chosen to keep the running
    orbit sums small (each settled window of `window` digits fixes one
    orbit point up to 2^-window); otherwise digits are 0."""

    def __init__(self, base: list[int], track: list, window: int,
                 kind: SpaceKind):
        self.bits = list(base)
        self.track = track
        self.window = max(1, window)
        self.kind = kind
        self.sums = [Fraction(0)] * len(track)
        # settle orbit points already fixed by the base prefix
        self._settled = 0
        while self._settled + self.window <= len(self.bits):
            vals = self._values(self._settled, None)
            for gi in range(len(track)):
                self.sums[gi] += vals[gi]
            self._settled += 1

    def _values(self, i: int, extra: Optional[int]) -> list[Fraction]:
        bits = self.bits[i:i + self.window] if extra is None \
            else self.bits[i:] + [extra]
        if self.kind is SpaceKind.CIRCLE:
            y = Fraction(2 * int("".join(map(str, bits)), 2) + 1,
                         1 << (len(bits) + 1))
            return [g.eval_right(y) for g in self.track]
        w = "".join(map(str, bits))
        return [g.value_on_word(w) for g in self.track]

    def bit(self, i: int) -> int:
        while len(self.bits) <= i:
            self._choose()
        return self.bits[i]

    def _choose(self):
        t = len(self.bits)
        i = t + 1 - self.window
        if not self.track or i < 0:
            self.bits.append(0)
            return
        best, best_score = 0, None
        for b in (0, 1):
            vals = self._values(i, b)
            score = sum(abs(self.sums[gi] + vals[gi])
                        for gi in range(len(self.track)))
            if best_score is None or score < best_score:
                best, best_score = b, score
        vals = self._values(i, best)
        for gi in range(len(self.track)):
            self.sums[gi] += vals[gi]
        self.bits.append(best)
        self._settled = i + 1


def _point_from(system: System, final: IdealBall, tail_rule: str,
                track: list):
    """Deterministic point inside the closed final ball."""
    space = system.space
    if space.kind is SpaceKind.CANTOR:
        base = [int(c) for c in final.cylinder_prefix]
        window = max((g.depth for g in track), default=1)
        dt = _DigitTail(base, track, window, space.kind)
        return CantorPoint(dt.bit)
    if not system.shifts_digits or tail_rule == "left" or not track:
        return CirclePoint.from_rational(final.center)
    # dyadic arc -> binary digits of the left endpoint
    r = final.radius
    left = (final.center - r) % 1
    if r.numerator != 1 or r.denominator & (r.denominator - 1):
        return CirclePoint.from_rational(final.center)
    depth = r.denominator.bit_length() - 2
    if depth < 0 or left * (1 << depth) != int(left * (1 << depth)):
        return CirclePoint.from_rational(final.center)
    a = int(left * (1 << depth))
    base = [int(c) for c in format(a, f"0{depth}b")] if depth else []
    dt = _DigitTail(base, track, BALANCE_WINDOW, space.kind)

    def approx(m: int) -> Fraction:
        d = m + 2
        v = Fraction(sum(dt.bit(i) << (d - 1 - i) for i in range(d)), 1 << d)
        return v + pow2(d + 1)  # midpoint of the remaining digit interval

    return CirclePoint(CReal(approx))


def _inside_ball(space: Space, inner: IdealBall, outer: IdealBall,
                 strict: bool) -> bool:
    """Closure of `inner` inside `outer` (open if strict, closed if not)."""
    if space.kind is SpaceKind.CANTOR:
        ki, ko = inner.cylinder_depth, outer.cylinder_depth
        return ki >= ko and inner.cylinder_prefix[:ko] == outer.cylinder_prefix
    gap = outer.radius - circle_dist(inner.center, outer.center) \
        - inner.radius
    return gap > 0 if strict else gap >= 0


def _candidates(space: Space, cur: IdealBall, depth: int):
    """Canonical depth-`depth` refinements whose closure lies in `cur`."""
    if space.kind is SpaceKind.CANTOR:
        w = cur.cylinder_prefix
        free = depth - len(w)
        if free < 0:
            return
        for s in range(1 << free):
            prefix = w + (format(s, f"0{free}b") if free else "")
            yield IdealBall(space, prefix, Fraction(3, 1 << (depth + 1)))
        return
    two = 1 << depth
    lo, hi = ball_arc(cur)
    a0 = math.ceil(lo * two)
    a1 = min(math.floor(hi * two) - 1, a0 + two - 1)
    for a in range(a0, a1 + 1):
        yield IdealBall(space, Fraction(2 * a + 1, 2 * two) % 1,
                        Fraction(1, 2 * two))


# ---------------------------------------------------------------------------
# Synthesis


@dataclass
class SynthPoint:
    """A synthesized point with its full audit trail.

    `balls` is the nested refinement stream (balls[0] is the target);
    `certs` records, per processed window, the witness ball of the window's
    open, the accepted refinement, and the window metadata needed to replay
    the construction from scratch."""

    system_sel: str
    start_index: int
    windows: int
    balls: list
    certs: list
    tail_rule: str
    track: list  # serialized observables steering the digit tail
    point: object = field(default=None, repr=False, compare=False)

    def decimal(self, digits: int = 12) -> str:
        """Decimal (circle) or bit-prefix (Cantor) rendering.

        Circle renderings are certified within 10^-digits: the enclosure
        is taken at precision 2^-m with 2^-m <= 10^-digits / 2, and
        rounding the midpoint adds at most another 10^-digits / 2."""
        if isinstance(self.point, CantorPoint):
            return self.point.prefix(digits)
        m = math.ceil(digits * math.log2(10)) + 4
        mid = self.point.enclosure(m).mid % 1
        v = round(mid * 10**digits)
        return f"0.{v:0{digits}d}"

    def to_json(self) -> dict:
        return {"system": self.system_sel,
                "target": self.balls[0].to_json(),
                "start_index": self.start_index,
                "windows": self.windows,
                "decimal": self.decimal(12),
                "balls": [b.to_json() for b in self.balls],
                "certs": self.certs, "tail_rule": self.tail_rule,
                "track": self.track}

    @staticmethod
    def from_json(d: dict) -> "SynthPoint":
        system = parse_system(d["system"])
        balls = [IdealBall.from_json(b) for b in d["balls"]]
        track = [as_concrete(system, observable_from_json(o))
                 for o in d["track"]]
        sp = SynthPoint(d["system"], d["start_index"], d["windows"], balls,
                        d["certs"], d["tail_rule"], d["track"])
        sp.point = _point_from(system, balls[-1], sp.tail_rule, track)
        return sp


def synthesize_point(system: System, bc: BCSequence, target: IdealBall,
                     windows: int, tail_rule: str = "balanced",
                     track: Optional[list] = None) -> SynthPoint:
    """Point in `target` belonging to U_j for j = k, ..., k + windows - 1.

    k is the summability modulus at half the slack lambda_0 = mu(target)/2.
    Each step refines the current ball inside a single witness ball of the
    next window while an exact measure budget (remaining region mass minus
    the error tail of the unprocessed windows) stays positive, so the
    construction can always continue; running out of mass in the target
    raises NO_MASS."""
    if bc.region is None:
        raise UnsupportedInstanceError(
            "synthesis needs windows with exact region data")
    space = system.space
    tag = system.measure.tag
    if tag is None:
        raise UnsupportedInstanceError("synthesis needs an exact measure")
    remaining = balls_to_region(tag, [target])
    mass = region_measure(tag, remaining)
    if mass == 0:
        raise NoMassError("target ball carries no mass")
    k = bc.modulus(mass / 4)  # tail(k) < lambda_0 / 2, lambda_0 = mass / 2
    support = bc.support_end
    lazy_tail = bc.tail(support + 1) if support is not None else None
    certs = []
    stream = [target]
    cur = target
    if space.kind is SpaceKind.CANTOR:
        depth = cur.cylinder_depth
    else:
        r = cur.radius
        depth = max(0, (r.denominator // r.numerator).bit_length() - 1)
    for step in range(1, windows + 1):
        j = k + step - 1
        remaining = remaining.intersect(_coerce_region(space, bc.region(j)))
        t_next = bc.tail(j + 1)
        u = bc.opens(j)
        if u.exact_prefix is None:
            raise UnsupportedInstanceError(
                f"window {j} has no exact ball list")
        accepted = None
        examined = 0
        for d in range(max(depth + 1, step + 1),
                       max(depth + 1, step + 1) + DEPTH_SLACK):
            for cand in _candidates(space, cur, d):
                examined += 1
                if examined > CANDIDATE_BUDGET:
                    raise BudgetExceededError(
                        f"no admissible refinement for window {j}")
                widx = next((w for w, b in enumerate(u.exact_prefix)
                             if _inside_ball(space, cand, b, strict=True)),
                            None)
                if widx is None:
                    continue
                inter = remaining.intersect(balls_to_region(tag, [cand]))
                m_inter = region_measure(tag, inter)
                lam = m_inter - t_next
                if lam <= 0:
                    lam = _forward_feasible(system, bc, inter, m_inter, j,
                                            support, lazy_tail)
                    if lam is None:
                        continue
                accepted = (cand, widx, d, inter, lam)
                break
            if accepted:
                break
        if accepted is None:
            raise NoMassError(
                f"no refinement with positive budget for window {j}")
        cand, widx, depth, remaining, lam = accepted
        cert = {"index": j, "witness": u.exact_prefix[widx].to_json(),
                "witness_pos": widx, "ball": cand.to_json(),
                "position": step, "precision": depth + 2,
                "lambda": fmt_rat(lam)}
        if bc.info is not None:
            inf = bc.info(j)
            cert.update({kk: (fmt_rat(v) if isinstance(v, Fraction) else v)
                         for kk, v in inf.items()})
        certs.append(cert)
        stream.append(cand)
        cur = cand
    concrete = [as_concrete(system, centered(system, t))
                for t in (track or [])]
    concrete = [g for g in concrete if _nonconstant(g)]
    sp = SynthPoint(system.selector(), k, windows, stream, certs, tail_rule,
                    [observable_to_json(g) for g in concrete])
    sp.point = _point_from(system, cur, tail_rule, concrete)
    return sp


def _forward_feasible(system: System, bc: BCSequence, inter, m_inter,
                      j: int, support: Optional[int],
                      lazy_tail: Optional[Fraction]) -> Optional[Fraction]:
    """Exact fallback when the generic tail bound is too coarse: intersect
    the candidate region with every remaining window directly and return
    the residual budget past the support, or None if it is exhausted."""
    if support is None or m_inter <= lazy_tail:
        return None
    tag = system.measure.tag
    cur = inter
    m_cur = m_inter
    for jj in range(j + 1, support + 1):
        cur = cur.intersect(_coerce_region(system.space, bc.region(jj)))
        m_cur = region_measure(tag, cur)
        if m_cur <= lazy_tail:
            return None
    return m_cur - lazy_tail


def _nonconstant(g) -> bool:
    if isinstance(g, CylinderFn):
        return g.depth > 0 and len(set(g.table)) > 1
    return g.total_variation() != 0 or g.sup_norm() != 0


def _coerce_region(space: Space, region):
    if isinstance(region, (ArcSet, CylSet)):
        return region
    raise UnsupportedInstanceError("window region is not an exact region")


# ---------------------------------------------------------------------------
# Replay


def _region_contains_ball(region, ball: IdealBall) -> bool:
    if isinstance(region, CylSet):
        return region.contains_word_prefix(ball.cylinder_prefix)
    a, b = ball_arc(ball)
    for lo, hi in region.components():
        for shift in (0, 1):
            if _le(lo, a + shift) and _le(b + shift, hi):
                return True
    return region.measure() == 1


def _le(x, y) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x <= y
    return (Quad.of(y) - Quad.of(x)).sign() >= 0


def replay_synth(system: System, sp: SynthPoint, check_eval: bool = False,
                 eval_precision: int = 6) -> dict:
    """Re-verify a synthesized point from its own audit trail.

    Checks exact stream nesting, witness membership of every recorded
    window, containment of each witness in the recomputed deviation region,
    and (optionally) a direct interval evaluation of each window's Birkhoff
    average at the point."""
    space = system.space
    point = sp.point if sp.point is not None \
        else SynthPoint.from_json(sp.to_json()).point
    failures = []
    balls = sp.balls
    for i in range(1, len(balls)):
        if balls[i].radius > pow2(i):
            failures.append(f"ball {i}: radius above 2^-{i}")
        if not _inside_ball(space, balls[i], balls[i - 1], strict=False):
            failures.append(f"ball {i}: not nested in ball {i - 1}")
    checked = 0
    for cert in sp.certs:
        j = cert["index"]
        witness = IdealBall.from_json(cert["witness"])
        ball = IdealBall.from_json(cert["ball"])
        if not _inside_ball(space, ball, witness, strict=True):
            failures.append(f"window {j}: accepted ball escapes witness")
        if ball_member(space, witness, point, cert["precision"]) \
                is not Membership.IN:
            failures.append(f"window {j}: point not certified in witness")
        if cert.get("trivial", True):
            checked += 1
            continue
        obs = observable_from_json(cert["observable"])
        n = cert["n"]
        delta = parse_rat(cert["delta"])
        region = deviation_region(system, obs, n, delta)
        if not _region_contains_ball(region, witness):
            failures.append(f"window {j}: witness outside deviation region")
        if check_eval:
            mean = integral(system, obs)
            box = birkhoff_eval(system, obs, point, n, eval_precision)
            if not (box.hi < mean + delta and box.lo > mean - delta):
                failures.append(
                    f"window {j}: |A_{n} f - mean| not below {delta}")
        checked += 1
    return {"ok": not failures, "checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# Derived constructions


def dense_sequence(system: System, bc: BCSequence, count: int,
                   windows: int = 6) -> list[SynthPoint]:
    """Members of every positive-mass ideal ball, in canonical ball order."""
    out = []
    idx = 0
    while len(out) < count:
        ball = IdealBall.from_index(system.space, idx)
        idx += 1
        if ball.radius > 1:
            continue
        if not support_hit(system.measure, ball):
            continue
        out.append(synthesize_point(system, bc, ball, windows))
    return out


def typical_point(system: System, members: int, windows: int = 8,
                  deltas: Optional[Callable[[int], Fraction]] = None,
                  window_count: int = 12,
                  max_n: Optional[int] = None) -> SynthPoint:
    """Point generic for the first `members` canonical observables at once.

    Builds one exact-window BC sequence per observable with caps 2^-(i+j),
    dovetails them, and synthesizes a member of the intersection; the digit
    tail of the point keeps the running Birkhoff sums of all tracked
    observables balanced beyond the certified windows."""
    if members < 1:
        raise InputError("need at least one observable")
    terms = enumerate_F(system.space, members)
    bcs = [bc_exact_windows(system, terms[i],
                            caps=lambda j, i=i: pow2(i + 1 + j),
                            deltas=deltas, count=window_count, max_n=max_n)
           for i in range(members)]
    bc = bc_intersect(bcs)
    target = _first_mass_ball(system)
    return synthesize_point(system, bc, target, windows, track=list(terms))


def _first_mass_ball(system: System) -> IdealBall:
    idx = 0
    while True:
        ball = IdealBall.from_index(system.space, idx)
        idx += 1
        if ball.radius <= 1 and support_hit(system.measure, ball):
            return ball


def horizon_tolerance(sp: SynthPoint) -> Optional[Fraction]:
    """Delta of the deepest nontrivial certified window (the guarantee
    carried past the synthesis horizon), or None if all were vacuous."""
    deltas = [parse_rat(c["delta"]) for c in sp.certs
              if not c.get("trivial", True)]
    return min(deltas) if deltas else None
