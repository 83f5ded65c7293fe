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

from .arith import fmt_rat, parse_int, parse_rat, pow2
from .errors import (BudgetExceededError, InputError, NoMassError,
                     UnsupportedInstanceError)
from .dynamics import (Observable, System, birkhoff_eval, centered,
                       deviation_region, integral, parse_system)
from .measures import region_measure, support_hit
from .observables import enumerate_F, observable_from_json, observable_to_json
from .rates import SummableSchedule, as_rate_l1
from .regions import ArcSet, CylSet
from .spaces import (CantorPoint, EffectiveOpen, IdealBall, Membership, Space,
                     ball_member, unpair)

#: cap on candidate balls examined per refinement step
CANDIDATE_BUDGET = 1 << 14
#: extra depth explored below the minimum at each refinement step
DEPTH_SLACK = 20
#: exact windows per observable of a typical point
TYPICAL_WINDOWS = 12
#: replay evaluates a window's average to width 2^-EVAL_PRECISION
EVAL_PRECISION = 6


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


def bc_exact_windows(system: System, f: Observable,
                     caps: Callable[[int], Fraction], count: int = 12,
                     max_n: Optional[int] = None) -> BCSequence:
    """BC sequence of single-time deviation windows with exact errors.

    Window j is U_j = {x : |A_{n_j}(f - integral f)(x)| < delta_j}, with
    delta_j = max(system.bc_delta_floor, 2^-j), for the smallest feasible
    n_j (nondecreasing in j) whose exact complement measure 1 - mu(U_j)
    meets caps(j); when no n within budget meets the cap the window
    degrades to the whole space with err 0 (a valid, vacuous window).  The
    `count` windows are computed once, in order; windows beyond `count` are
    the whole space."""
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    max_n = max_n if max_n is not None else system.bc_max_n
    obs_json = observable_to_json(f)
    whole = {"trivial": True, "n": None, "delta": None, "err": Fraction(0),
             "region": system.full_region(),
             "open": EffectiveOpen.whole(system.space),
             "observable": obs_json}
    # per (n, delta): the rational region and its exact complement mass
    regions: dict[tuple, tuple] = {}
    windows: dict[int, dict] = {}
    start = 1
    for j in range(1, count + 1):
        cap = Fraction(caps(j))
        delta = max(system.bc_delta_floor, pow2(j))
        windows[j] = whole
        for n in range(start, max_n + 1):
            if (n, delta) not in regions:
                try:
                    reg, _ = system.rational_region(
                        deviation_region(system, f, n, delta))
                except BudgetExceededError:
                    break
                regions[n, delta] = reg, 1 - region_measure(system.tag, reg)
            reg, err = regions[n, delta]
            if err <= cap:
                windows[j] = {"trivial": False, "n": n, "delta": delta,
                              "err": err, "region": reg,
                              "open": EffectiveOpen(
                                  system.space,
                                  exact_prefix=system.region_balls(reg)),
                              "observable": obs_json}
                start = n
                break

    def tail(u: int) -> Fraction:
        return sum((windows[j]["err"] for j in range(max(1, u), count + 1)),
                   Fraction(0))

    return BCSequence(
        space=system.space,
        opens=lambda j: windows.get(j, whole)["open"],
        err=lambda j: windows.get(j, whole)["err"],
        tail=tail,
        region=lambda j: windows.get(j, whole)["region"],
        info=lambda j: {k: windows.get(j, whole)[k]
                        for k in ("trivial", "n", "delta", "err",
                                  "observable")},
        support_end=count)


# ---------------------------------------------------------------------------
# Literal windows from almost-sure rate certificates


def window_sup_bound(system: System, fbar, n: int, ball: IdealBall):
    """Certified upper bound on sup over the closed ball of |A_n fbar|."""
    box = system.ball_average(fbar, ball, n)
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
    fbar = system.as_concrete(centered(system, f))
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
            if system.coarse_ball_ranges and ball.radius > pow2(min(hi, 60)):
                return None  # defer until the ball is small
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
    if any(m.space is not space for m in members):
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
    track: list  # serialized observables steering the digit tail
    point: object = field(default=None, repr=False, compare=False)

    def decimal(self, digits: int = 12) -> str:
        """Decimal (circle) or bit-prefix (Cantor) rendering.

        Circle renderings are certified within 10^-digits on the circle:
        the enclosure is taken at precision 2^-m with 2^-m <= 10^-digits /
        2, and rounding the midpoint adds at most another 10^-digits / 2
        (a midpoint that rounds up to 1 renders as 0, the same point)."""
        if isinstance(self.point, CantorPoint):
            return self.point.prefix(digits)
        m = math.ceil(digits * math.log2(10)) + 4
        mid = self.point.enclosure(m).mid % 1
        v = round(mid * 10**digits) % 10**digits
        return f"0.{v:0{digits}d}"

    def to_json(self) -> dict:
        return {"system": self.system_sel,
                "target": self.balls[0].to_json(),
                "start_index": self.start_index,
                "windows": self.windows,
                "decimal": self.decimal(12),
                "balls": [b.to_json() for b in self.balls],
                "certs": self.certs, "tail_rule": "balanced",
                "track": self.track}

    @staticmethod
    def from_json(d: dict) -> "SynthPoint":
        system = parse_system(d["system"])
        balls = [IdealBall.from_json(b) for b in d["balls"]]
        if not balls:
            raise ValueError("a synthesized point records at least its "
                             "target ball")
        if any(b.space is not system.space for b in balls):
            raise ValueError(f"a stream ball off {system.space.name}")
        if d["tail_rule"] != "balanced":
            raise ValueError(f"unknown tail_rule {d['tail_rule']!r}")
        track = [system.as_concrete(observable_from_json(o))
                 for o in d["track"]]
        sp = SynthPoint(d["system"],
                        parse_int(d["start_index"], "start_index"),
                        parse_int(d["windows"], "windows"), balls,
                        d["certs"], d["track"])
        sp.point = system.point_in(balls[-1], track)
        return sp


def synthesize_point(system: System, bc: BCSequence, target: IdealBall,
                     windows: int, track: Optional[list] = None) -> SynthPoint:
    """Point in `target` belonging to U_j for j = k, ..., k + windows - 1.

    k is the summability modulus at half the slack lambda_0 = mu(target)/2.
    Each step refines the current ball inside a single witness ball of the
    next window while an exact measure budget (remaining region mass minus
    the error tail of the unprocessed windows) stays positive, so the
    construction can always continue; running out of mass in the target
    raises NO_MASS."""
    if windows < 0:
        raise InputError(f"windows must be >= 0, got {windows}")
    space = system.space
    if target.space is not space:
        raise InputError(f"a {target.space.name} target on {space.name}")
    if bc.region is None:
        raise UnsupportedInstanceError(
            "synthesis needs windows with exact region data")
    tag = system.tag
    remaining = tag.region([target])
    mass = region_measure(tag, remaining)
    if mass == 0:
        raise NoMassError("target ball carries no mass")
    k = bc.modulus(mass / 4)  # tail(k) < lambda_0 / 2, lambda_0 = mass / 2
    support = bc.support_end
    lazy_tail = bc.tail(support + 1) if support is not None else None
    certs = []
    stream = [target]
    cur = target
    depth = space.depth(cur)
    for step in range(1, windows + 1):
        j = k + step - 1
        remaining = remaining.intersect(_coerce_region(bc.region(j)))
        t_next = bc.tail(j + 1)
        u = bc.opens(j)
        if u.exact_prefix is None:
            raise UnsupportedInstanceError(
                f"window {j} has no exact ball list")
        accepted = None
        examined = 0
        witness = space.witness_lookup(u.exact_prefix)
        for d in range(max(depth + 1, step + 1),
                       max(depth + 1, step + 1) + DEPTH_SLACK):
            for cand in space.refinements(cur, d):
                examined += 1
                if examined > CANDIDATE_BUDGET:
                    raise BudgetExceededError(
                        f"no admissible refinement for window {j}")
                widx = witness(cand)
                if widx is None:
                    continue
                inter = remaining.intersect(tag.region([cand]))
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
    # centered, so a nonzero observable is a nonconstant one
    concrete = [system.as_concrete(centered(system, t)) for t in (track or [])]
    concrete = [g for g in concrete if g.sup_norm() != 0]
    sp = SynthPoint(system.selector(), k, windows, stream, certs,
                    [observable_to_json(g) for g in concrete])
    sp.point = system.point_in(cur, concrete)
    return sp


def _forward_feasible(system: System, bc: BCSequence, inter, m_inter,
                      j: int, support: Optional[int],
                      lazy_tail: Optional[Fraction]) -> Optional[Fraction]:
    """Exact fallback when the generic tail bound is too coarse: intersect
    the candidate region with every remaining window directly and return
    the residual budget past the support, or None if it is exhausted."""
    if support is None or m_inter <= lazy_tail:
        return None
    tag = system.tag
    cur = inter
    m_cur = m_inter
    for jj in range(j + 1, support + 1):
        cur = cur.intersect(_coerce_region(bc.region(jj)))
        m_cur = region_measure(tag, cur)
        if m_cur <= lazy_tail:
            return None
    return m_cur - lazy_tail


def _coerce_region(region):
    if isinstance(region, (ArcSet, CylSet)):
        return region
    raise UnsupportedInstanceError("window region is not an exact region")


# ---------------------------------------------------------------------------
# Replay


def replay_synth(system: System, sp: SynthPoint,
                 check_eval: bool = False) -> dict:
    """Re-verify a synthesized point from its own audit trail.

    Checks the window claim (one certificate per window, in sequence from
    `start_index`, and windows + 1 stream balls), exact stream nesting,
    that certificate t records stream ball t + 1 as its accepted ball,
    witness membership of every recorded window, containment of each
    witness in the recomputed deviation region, and (optionally) a direct
    interval evaluation of each window's Birkhoff average at the point,
    to width 2^-EVAL_PRECISION."""
    space = system.space
    point = sp.point if sp.point is not None \
        else SynthPoint.from_json(sp.to_json()).point
    failures = []
    balls = sp.balls
    if len(sp.certs) != sp.windows or len(balls) != sp.windows + 1:
        failures.append(f"{sp.windows} windows claimed, {len(sp.certs)} "
                        f"certificates and {len(balls)} balls recorded")
    for i in range(1, len(balls)):
        if balls[i].radius > pow2(i):
            failures.append(f"ball {i}: radius above 2^-{i}")
        if not space.inside(balls[i], balls[i - 1]):
            failures.append(f"ball {i}: not nested in ball {i - 1}")
    checked = 0
    for t, cert in enumerate(sp.certs):
        j = parse_int(cert["index"], "index")
        if (j, parse_int(cert["position"], "position")) \
                != (sp.start_index + t, t + 1):
            failures.append(f"certificate {t}: not window "
                            f"{sp.start_index + t} at position {t + 1}")
        witness = IdealBall.from_json(cert["witness"])
        ball = IdealBall.from_json(cert["ball"])
        if witness.space is not space or ball.space is not space:
            raise ValueError(f"window {j}: a ball off {space.name}")
        if t + 1 < len(balls) and ball != balls[t + 1]:
            failures.append(f"window {j}: accepted ball is not stream "
                            f"ball {t + 1}")
        if not space.inside(ball, witness, strict=True):
            failures.append(f"window {j}: accepted ball escapes witness")
        precision = parse_int(cert["precision"], "precision")
        if ball_member(space, witness, point, precision) \
                is not Membership.IN:
            failures.append(f"window {j}: point not certified in witness")
        if cert.get("trivial", True):
            checked += 1
            continue
        obs = observable_from_json(cert["observable"])
        n = parse_int(cert["n"], "n")
        delta = parse_rat(cert["delta"])
        region = deviation_region(system, obs, n, delta)
        if not region.contains_ball(witness):
            failures.append(f"window {j}: witness outside deviation region")
        if check_eval:
            mean = integral(system, obs)
            box = birkhoff_eval(system, obs, point, n, EVAL_PRECISION)
            if not (box.hi < mean + delta and box.lo > mean - delta):
                failures.append(
                    f"window {j}: |A_{n} f - mean| not below {delta}")
        checked += 1
    return {"ok": not failures, "checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# Derived constructions


def typical_point(system: System, members: int,
                  windows: int = 8) -> SynthPoint:
    """Point generic for the first `members` canonical observables at once.

    Builds one exact-window BC sequence of TYPICAL_WINDOWS windows per
    observable with caps 2^-(i+j), dovetails them, and synthesizes a member
    of the intersection; the digit tail of the point keeps the running
    Birkhoff sums of all tracked observables balanced beyond the certified
    windows."""
    if members < 1:
        raise InputError("need at least one observable")
    terms = enumerate_F(system.space, members)
    bcs = [bc_exact_windows(system, terms[i],
                            caps=lambda j, i=i: pow2(i + 1 + j),
                            count=TYPICAL_WINDOWS)
           for i in range(members)]
    bc = bc_intersect(bcs)
    target = next(_mass_balls(system))
    return synthesize_point(system, bc, target, windows, track=list(terms))


def _mass_balls(system: System):
    """Canonical ideal balls of radius <= 1 that carry positive mass, in
    index order."""
    for idx in itertools.count():
        ball = IdealBall.from_index(system.space, idx)
        if ball.radius <= 1 and support_hit(system.tag, ball):
            yield ball


def horizon_tolerance(sp: SynthPoint) -> Optional[Fraction]:
    """Delta of the deepest nontrivial certified window (the guarantee
    carried past the synthesis horizon), or None if all were vacuous."""
    deltas = [parse_rat(c["delta"]) for c in sp.certs
              if not c.get("trivial", True)]
    return min(deltas) if deltas else None
