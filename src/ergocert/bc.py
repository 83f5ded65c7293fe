"""Effective Borel-Cantelli sequences and point synthesis.

A BC sequence is a sequence of opens U_j with summable complement masses
err(j); a point avoiding all but finitely many complements satisfies
every tail guarantee.  The sequences built here are finite lists of exact
windows (rational regions with their exact complement masses), so a
member point can be *synthesized* digit by digit: at every step an exact
positive-mass budget certifies that the remaining region is nonempty, and
each refinement records a machine-checkable membership witness, an ideal
ball of the window found from its region.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from fractions import Fraction
from typing import Callable, Optional

from .arith import fmt_rat, parse_int, parse_rat, pow2
from .errors import BudgetExceededError, InputError, NoMassError
from .dynamics import (Observable, System, birkhoff_eval, centered,
                       deviation_region, integral, parse_system)
from .measures import region_measure
from .observables import enumerate_F, observable_from_json, observable_to_json
from .spaces import CantorPoint, IdealBall, Space, ball_member

#: cap on candidate balls examined per refinement step
CANDIDATE_BUDGET = 1 << 14
#: extra depth explored below the minimum at each refinement step
DEPTH_SLACK = 20
#: exact windows per observable of a typical point
TYPICAL_WINDOWS = 12
#: replay evaluates a window's average to width 2^-EVAL_PRECISION
EVAL_PRECISION = 6
#: cap on the windows a BC sequence lists, the windows a point certifies
#: and the observables a typical point dovetails (`--count`, `--windows`
#: and `--members`); each costs at least one exact window
SIZE_BUDGET = 64


def check_size(what: str, size: int) -> None:
    """Refuse a negative size (InputError) or one past SIZE_BUDGET
    (BudgetExceededError), before any window is built."""
    if size < 0:
        raise InputError(f"{what} must be >= 0, got {size}")
    if size > SIZE_BUDGET:
        raise BudgetExceededError(f"{what} {size} is past the budget of "
                                  f"{SIZE_BUDGET}")


# ---------------------------------------------------------------------------
# BC sequences


@dataclass(frozen=True)
class Window:
    """One exact window: its exact complement mass `err`, the metadata a
    synthesis certificate records (`info`), and its region as
    `deviation_region` builds it (the rotation's rounded inward to
    rational ends).  The region is built on first read by `build`, a
    cached builder that tagged copies share, so a window that synthesis
    never reaches is never built.  Its witnesses are found in the region
    on demand (`window_witness`)."""

    err: Fraction
    build: Callable
    info: dict

    @property
    def region(self):
        return self.build()


@dataclass
class BCSequence:
    """U_1, ..., U_J as a list of exact windows; every U_j past the list is
    the whole space with err 0.

    `tails[u - 1]` is the exact sum of err(j) over j >= u, for u <= J + 1.
    Past the list a base sequence repeats `past[0]`; a `dovetailed` one
    (an intersection) takes window t to be `past[i - 1]`, member i's whole
    space, tagged like its listed windows with the dovetail pair (i, j) of
    t."""

    space: Space
    windows: list
    past: list
    dovetailed: bool = False
    tails: list = field(init=False, repr=False)

    def __post_init__(self):
        errs = [w.err for w in reversed(self.windows)]
        tails = itertools.accumulate(errs, initial=Fraction(0))
        self.tails = list(tails)[::-1]

    def window(self, j: int) -> Window:
        """U_j, for j >= 1."""
        if j <= len(self.windows):
            return self.windows[j - 1]
        if not self.dovetailed:
            return self.past[0]
        i, k = next(itertools.islice(_pair_stream(len(self.past)), j - 1,
                                     None))
        return _tagged(self.past[i - 1], i, k)

    def tail(self, u: int) -> Fraction:
        """Exact sum of err(j) over j >= u, for u >= 1."""
        return self.tails[min(u, len(self.tails)) - 1]

    def modulus(self, e: Fraction) -> int:
        """Smallest u with tail(u) < e."""
        e = Fraction(e)
        if e <= 0:
            raise InputError("modulus needs a positive threshold")
        return next(u for u, t in enumerate(self.tails, 1) if t < e)


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
    the whole space.  Each candidate's err is read once per (n, delta),
    by the system's `deviation_mass`: on the shift from the partial-sum
    law, with the region built only if synthesis reads it, on the circle
    as 1 - mu of the region, built at once as an integer form and weighed
    in integers; its Fraction view is built only if something reads it,
    and synthesis and replay read none."""
    check_size("count", count)
    max_n = max_n if max_n is not None else system.bc_max_n
    obs_json = observable_to_json(f)
    fbar = centered(system, f)  # deviation_region re-centers it per build
    cover = system.region(system.space.cover())
    whole = Window(Fraction(0), lambda: cover,
                   {"trivial": True, "n": None, "delta": None,
                    "err": Fraction(0), "observable": obs_json})
    # per (n, delta): the exact complement mass and the region's builder
    regions: dict[tuple, tuple] = {}
    windows = []
    start = 1
    for j in range(1, count + 1):
        cap = Fraction(caps(j))
        delta = max(system.bc_delta_floor, pow2(j))
        window = whole
        for n in range(start, max_n + 1):
            if (n, delta) not in regions:
                build = cache(partial(deviation_region, system, fbar, n,
                                      delta))
                try:
                    err = system.deviation_mass(fbar, n, delta, build)
                except BudgetExceededError:
                    break
                regions[n, delta] = err, build
            err, build = regions[n, delta]
            if err <= cap:
                window = Window(err, build, {"trivial": False, "n": n,
                                             "delta": delta, "err": err,
                                             "observable": obs_json})
                start = n
                break
        windows.append(window)
    return BCSequence(system.space, windows, [whole])


# ---------------------------------------------------------------------------
# Dovetailed intersection


def _pair_stream(g: int):
    """(i, j) pairs, i <= g, ordered by i+j then i (1-based, infinite)."""
    for s in itertools.count(2):
        for i in range(1, min(g, s - 1) + 1):
            yield i, s - i


def _tagged(window: Window, i: int, j: int) -> Window:
    return replace(window, info={**window.info, "member": i,
                                 "member_window": j})


def bc_intersect(members: list[BCSequence]) -> BCSequence:
    """Single BC sequence covering every member: window t is member i's
    window j for the pair (i, j) at dovetail position t, tagged with
    `member` and `member_window`.  The list runs through the last pair
    whose window is on its member's list, and each listed error must meet
    its cap 2^-(i+j).  Reported errors are the members' own (exact) ones,
    which are at most the caps."""
    if not members:
        raise InputError("need at least one member")
    space = members[0].space
    if any(m.space is not space or m.dovetailed for m in members):
        raise InputError("members must be base sequences on one space")
    smax = max(i + len(m.windows) for i, m in enumerate(members, 1))
    windows = []
    for i, j in _pair_stream(len(members)):
        if i + j > smax:
            break
        w = members[i - 1].window(j)
        if w.err > pow2(i + j):
            raise InputError(
                f"member {i} window {j} has err {w.err} > 2^-{i + j}")
        windows.append(_tagged(w, i, j))
    return BCSequence(space, windows, [m.past[0] for m in members],
                      dovetailed=True)


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
        start = parse_int(d["start_index"], "start_index")
        if start < 1:  # windows are numbered from 1 (`BCSequence.modulus`)
            raise ValueError(f"start_index must be >= 1, not {start}")
        sp = SynthPoint(d["system"], start,
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
    check_size("windows", windows)
    space = system.space
    if target.space is not space:
        raise InputError(f"a {target.space.name} target on {space.name}")
    remaining = system.region([target])
    mass = region_measure(system, remaining)
    if mass == 0:
        raise NoMassError("target ball carries no mass")
    k = bc.modulus(mass / 4)  # tail(k) < lambda_0 / 2, lambda_0 = mass / 2
    certs = []
    stream = [target]
    cur = target
    depth = space.depth(cur)
    for step in range(1, windows + 1):
        j = k + step - 1
        win = bc.window(j)
        remaining = remaining.intersect(win.region)
        t_next = bc.tail(j + 1)
        accepted = None
        examined = 0
        witness = window_witness(system, win)
        for d in range(max(depth + 1, step + 1),
                       max(depth + 1, step + 1) + DEPTH_SLACK):
            for cand in space.refinements(cur, d):
                examined += 1
                if examined > CANDIDATE_BUDGET:
                    raise BudgetExceededError(
                        f"no admissible refinement for window {j}")
                found = witness(cand)
                if found is None:
                    continue
                inter = remaining.intersect(system.region([cand]))
                m_inter = region_measure(system, inter)
                lam = m_inter - t_next
                if lam <= 0:
                    lam = _forward_feasible(system, bc, inter, m_inter, j)
                    if lam is None:
                        continue
                accepted = (cand, found, d, inter, lam)
                break
            if accepted:
                break
        if accepted is None:
            raise NoMassError(
                f"no refinement with positive budget for window {j}")
        cand, (pos, ball), depth, remaining, lam = accepted
        cert = {"index": j, "witness": ball.to_json(),
                "witness_pos": pos, "ball": cand.to_json(),
                "position": step, "precision": depth + 2,
                "lambda": fmt_rat(lam)}
        cert.update({kk: (fmt_rat(v) if isinstance(v, Fraction) else v)
                     for kk, v in win.info.items()})
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


def window_witness(system: System, win: Window) -> Callable:
    """cand -> (position, ball) of the ideal ball of `win` that holds cand
    strictly, or None: the region's own numbering of its balls (`holder`),
    or on a whole-space window `cover_witness`."""
    if not win.info["trivial"]:
        return win.region.holder
    return partial(cover_witness, system.space)


def cover_witness(space: Space, cand: IdealBall) -> Optional[tuple]:
    """A whole-space window's witness: (position, ball) of the first cover
    ball that holds cand strictly (the circle's two overlap), or None."""
    return next(((k, b) for k, b in enumerate(space.cover())
                 if space.inside(cand, b, strict=True)), None)


def _forward_feasible(system: System, bc: BCSequence, inter, m_inter,
                      j: int) -> Optional[Fraction]:
    """Exact fallback when the tail bound is too coarse: intersect the
    candidate region with every listed window past j directly and return
    the mass left, or None if none is (the windows past the list are the
    whole space)."""
    for w in bc.windows[j:]:
        if m_inter <= 0:
            return None
        inter = inter.intersect(w.region)
        m_inter = region_measure(system, inter)
    return m_inter if m_inter > 0 else None


# ---------------------------------------------------------------------------
# Replay


def replay_synth(system: System, sp: SynthPoint,
                 check_eval: bool = False) -> dict:
    """Re-verify a synthesized point from its own audit trail.

    Checks the window claim (one certificate per window, in sequence from
    `start_index`, and windows + 1 stream balls), exact stream nesting,
    that certificate t records stream ball t + 1 as its accepted ball,
    witness membership of every recorded window, a positive `lambda`, and
    on a whole-space window n and delta null, err 0 and the witness
    synthesis takes (`cover_witness`).  Every other window is the deviation
    region synthesis drew from, and the system checks it by its own route
    (`System.replay_window`): the witness must lie in it, `err` must be 1
    - mu of it, and (`witness_pos`, `witness`) its ball that holds the
    accepted ball.  The circle maps rebuild the region; the shift reads
    all three on the partial-sum law's states, tested against the range
    of sums that their continuations add, and builds no word table.  `lambda` itself is not re-derived: it needs
    the error tail past the recorded windows.
    Optionally each window's Birkhoff average is evaluated at the point,
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
        # synthesis records depth + 1 (circle) or + 2 (Cantor space); a
        # point costs more to evaluate the finer the precision
        precision = parse_int(cert["precision"], "precision")
        if precision > space.depth(ball) + 2:
            failures.append(f"window {j}: precision {precision} above the "
                            f"accepted ball's depth + 2")
            continue
        if not ball_member(space, witness, point, precision):
            failures.append(f"window {j}: point not certified in witness")
        err = parse_rat(cert["err"])
        pos = parse_int(cert["witness_pos"], "witness_pos")
        if parse_rat(cert["lambda"]) <= 0:
            failures.append(f"window {j}: lambda not positive")
        if cert.get("trivial", True):
            if cert.get("n") is not None or cert.get("delta") is not None:
                failures.append(f"window {j}: a whole-space window records "
                                f"n or delta")
            if err != 0:
                failures.append(f"window {j}: err of a whole-space window "
                                f"is not 0")
            if cover_witness(space, ball) != (pos, witness):
                failures.append(f"window {j}: witness is not the first cover "
                                f"ball that holds the accepted ball")
            checked += 1
            continue
        obs = observable_from_json(cert["observable"])
        n = parse_int(cert["n"], "n")
        delta = parse_rat(cert["delta"])
        # the window synthesis drew from, as the system checks it: its
        # mass gives err, and its ball that holds the accepted one is the
        # recorded witness
        mass, inside, holder = system.replay_window(obs, n, delta, witness,
                                                    ball)
        if not inside:
            failures.append(f"window {j}: witness outside deviation region")
        if err != mass:
            failures.append(f"window {j}: err is not 1 - mu(region)")
        if holder != (pos, witness):
            failures.append(f"window {j}: witness is not the region's ball "
                            f"that holds the accepted ball")
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
    check_size("members", members)  # before any member's windows are built
    check_size("windows", windows)
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
        if ball.radius <= 1 and region_measure(system, system.region([ball])):
            yield ball


def horizon_tolerance(sp: SynthPoint) -> Optional[Fraction]:
    """Delta of the deepest nontrivial certified window (the guarantee
    carried past the synthesis horizon), or None if all were vacuous."""
    deltas = [parse_rat(c["delta"]) for c in sp.certs
              if not c.get("trivial", True)]
    return min(deltas) if deltas else None
