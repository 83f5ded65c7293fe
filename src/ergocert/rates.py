"""Effective-convergence certifier.

Computes m(eps) for L1/L2 norm convergence of Birkhoff averages and
n0(eps, delta) for almost-sure convergence, and emits machine-checkable
certificates: every recorded bound re-verifies from the certificate's own
witnesses by pure exact arithmetic (`check_certificate`), and the a.s.
guarantees can be measured exactly at desk scale (`validate_as`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import fmt_rat, parse_int, parse_rat
from .errors import (BudgetExceededError, ErgocertError, InputError,
                     UnsupportedPairError)
from .dynamics import (CORRELATION_CUTOFF, Observable, System, centered,
                       l2_sq_enclosure, l_norm_birkhoff, parse_system,
                       rotation_sup_bound)
from .observables import observable_from_json, observable_to_json

#: sqrt_upper rounds up to the grid of step 2^-SQRT_BITS
SQRT_BITS = 48


def sqrt_upper(q: Fraction) -> Fraction:
    """Rational u with u >= sqrt(q) and u - sqrt(q) <= 2^-SQRT_BITS."""
    q = Fraction(q)
    if q < 0:
        raise InputError("negative radicand")
    if q == 0:
        return Fraction(0)
    n = (q.numerator << (2 * SQRT_BITS)) // q.denominator
    return Fraction(math.isqrt(n) + 1, 1 << SQRT_BITS)


# ---------------------------------------------------------------------------
# Certified norm upper bounds (deterministic method choice per (system, p))


class NormOracle:
    """Certified upper bounds on ||A_p(f - integral f)|| for any p, for one
    (system, observable) pair; fbar's correlation table is kept.  f itself
    is kept uncentered, so the correlations are priced before centering."""

    def __init__(self, system: System, f: Observable):
        self.system = system
        self.g = system.as_concrete(f)
        self._corr = None  # the system's correlation table of fbar

    def bound(self, p: int, norm: str) -> tuple[Fraction, str]:
        """(w, method) with w a certified upper bound on ||A_p fbar||_norm."""
        method = self.system.norm_method(self.g, p, norm)
        if method == "sup-exact":
            return rotation_sup_bound(self.system, self.g, p), method
        if method == "l1-exact":
            return l_norm_birkhoff(self.system, self.g, p), method
        if self._corr is None:
            self._corr = self.system.correlations(self.g, CORRELATION_CUTOFF)
        sq = l2_sq_enclosure(self.system, self.g, p, self._corr)
        return sqrt_upper(sq.hi), method

    def l2_settled(self, p: int) -> bool:
        """The L2 bound is nonincreasing from p on (after an L2 bound)."""
        start = self._corr.nonincreasing_from()
        return start is not None and p >= start

    def fbar_norm_upper(self, norm: str) -> Fraction:
        """Certified upper bound on ||fbar||_norm (p = 1)."""
        return self.bound(1, norm)[0]


def find_p(oracle: NormOracle, threshold: Fraction,
           norm: str) -> tuple[int, Fraction, str]:
    """Deterministic p-search on the system's schedule
    (`System.search_p`): the smallest probed p whose bound clears the
    threshold."""
    return oracle.system.search_p(lambda p: oracle.bound(p, norm), threshold,
                                  oracle.l2_settled)


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class RateCertificate:
    kind: str  # NORM_L1 | NORM_L2 | AS_BOUNDED | AS_L1
    system_sel: str
    observable: dict  # serialized; certificates are standalone
    epsilon: Fraction
    delta: Optional[Fraction]  # None for NORM kinds
    p: int
    norm_bound: Fraction  # certified upper bound on ||A_p fbar||
    norm_method: str
    n0_or_m: int
    n_factor: Optional[int] = None  # NORM kinds: m = n_factor * p
    fbar_norm: Optional[Fraction] = None  # NORM kinds: bound on ||fbar||
    sup_bound: Optional[Fraction] = None  # AS kinds: bound on ||fbar||_inf
    M: Optional[Fraction] = None  # AS_L1: truncation level
    rho: Optional[Fraction] = None  # AS_L1: exact ||fbar - fbar'_M||_1
    tail_level: Optional[Fraction] = None  # AS_L1: level a for the tail part
    delta_sub: Optional[Fraction] = None  # AS_L1: level of the bounded part
    guarantee: str = ""

    def to_json(self) -> dict:
        d = {"kind": self.kind, "system": self.system_sel,
             "observable": self.observable,
             "epsilon": fmt_rat(self.epsilon),
             "p": self.p, "norm_bound": fmt_rat(self.norm_bound),
             "norm_method": self.norm_method, "n0_or_m": self.n0_or_m,
             "guarantee": self.guarantee}
        if self.delta is not None:
            d["delta"] = fmt_rat(self.delta)
        for name in ("n_factor",):
            if getattr(self, name) is not None:
                d[name] = getattr(self, name)
        for name in ("fbar_norm", "sup_bound", "M", "rho", "tail_level",
                     "delta_sub"):
            if getattr(self, name) is not None:
                d[name] = fmt_rat(getattr(self, name))
        return d

    @staticmethod
    def from_json(d: dict) -> "RateCertificate":
        def opt(name):
            return parse_rat(d[name]) if name in d else None

        if not isinstance(d["system"], str):
            raise ValueError(f"system must be a string, not {d['system']!r}")
        if not isinstance(d["observable"], dict):
            raise ValueError(f"observable must be an object, not "
                             f"{d['observable']!r}")
        return RateCertificate(
            kind=d["kind"], system_sel=d["system"], observable=d["observable"],
            epsilon=parse_rat(d["epsilon"]), delta=opt("delta"),
            p=parse_int(d["p"], "p"), norm_bound=parse_rat(d["norm_bound"]),
            norm_method=d["norm_method"],
            n0_or_m=parse_int(d["n0_or_m"], "n0_or_m"),
            n_factor=(parse_int(d["n_factor"], "n_factor")
                      if "n_factor" in d else None),
            fbar_norm=opt("fbar_norm"), sup_bound=opt("sup_bound"),
            M=opt("M"), rho=opt("rho"), tail_level=opt("tail_level"),
            delta_sub=opt("delta_sub"), guarantee=d.get("guarantee", ""))

    def statement(self) -> str:
        """The guarantee the certificate states, in its own parameters."""
        if self.delta is None:
            return (f"||A_m'(f-int f)||_{self.kind[-2:]} <= "
                    f"{fmt_rat(self.epsilon)} for all m' >= {self.n0_or_m}")
        return (f"mu(sup_(n>={self.n0_or_m}) |A_n(f-int f)| > "
                f"{fmt_rat(self.delta)}) <= {fmt_rat(self.epsilon)}")


def _certificate(system: System, f: Observable, **fields) -> RateCertificate:
    """A certificate for f on the system, with its guarantee text."""
    cert = RateCertificate(
        system_sel=system.selector(),
        observable=observable_to_json(system.as_concrete(f)), **fields)
    cert.guarantee = cert.statement()
    return cert


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def l_rate(system: System, f: Observable, epsilon: Fraction,
           norm: str = "L1") -> RateCertificate:
    """Certificate that ||A_m'(f - integral f)||_norm <= eps for all
    m' >= m, with m = n * p: p attains ||A_p|| < eps/2, and any m' >= m
    splits as m' = n'p + k with n' >= n >= 2||fbar||/eps, so the averaging
    identity gives ||A_{m'}|| <= ||A_p|| + ||fbar||/n' <= eps."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0 or norm not in ("L1", "L2"):
        raise InputError("need eps > 0 and norm in {L1, L2}")
    oracle = NormOracle(system, f)
    p, w, method = find_p(oracle, epsilon / 2, norm)
    nf = oracle.fbar_norm_upper(norm)
    n = max(1, _ceil_frac(2 * nf / epsilon))
    m = n * p
    return _certificate(system, f, kind=f"NORM_{norm}", epsilon=epsilon,
                        delta=None, p=p, norm_bound=w, norm_method=method,
                        n0_or_m=m, n_factor=n, fbar_norm=nf)


def as_rate_bounded(system: System, f: Observable, epsilon: Fraction,
                    delta: Fraction) -> RateCertificate:
    """Certificate that mu(sup_{n>=n0} |A_n(f - integral f)| > delta) <= eps.

    Chain: pick p with ||A_p fbar||_1 <= delta*eps/2; for n >= n0 the
    average A_n fbar differs from A_n(A_p fbar) by the boundary correction
    u/(np) with ||u||_inf <= p(p-1)||fbar||_inf, so n0 >=
    4(p-1)||fbar||_inf/delta makes the correction <= delta/2; the maximal
    ergodic theorem applied to A_p fbar at level delta/2 gives mass
    <= ||A_p fbar||_1/(delta/2) <= eps."""
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    if epsilon <= 0 or delta <= 0:
        raise InputError("need eps, delta > 0")
    oracle = NormOracle(system, f)
    p, w, method = find_p(oracle, delta * epsilon / 2, "L1")
    sup = centered(system, oracle.g).sup_norm()
    n0 = max(1, _ceil_frac(Fraction(4 * (p - 1)) * sup / delta))
    return _certificate(system, f, kind="AS_BOUNDED", epsilon=epsilon,
                        delta=delta, p=p, norm_bound=w, norm_method=method,
                        n0_or_m=n0, sup_bound=sup)


def _tail_l1(system: System, g, M: Fraction) -> Fraction:
    """Exact ||g - clamp(g, M)||_1."""
    return system.l1_norm(g.add(g.clamp(M).scale(-1)), 1)


def as_rate_l1(system: System, f: Observable, epsilon: Fraction,
               delta: Fraction) -> RateCertificate:
    """Almost-sure rate via truncation, for observables known only in L1.

    Internally works at (eps/2, delta/2) so the emitted guarantee reads in
    the caller's parameters.  fbar splits as clamp(fbar, M) + r with
    ||r||_1 <= delta*eps/8; the bounded part gets an AS_BOUNDED certificate
    at level delta_sub, the tail r is controlled by the maximal ergodic
    theorem at level a = ||r||_1/(eps/2), and delta_sub + ||r||_1 + a <= delta
    (the middle term absorbs the integral shift of the truncation)."""
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    if epsilon <= 0 or delta <= 0:
        raise InputError("need eps, delta > 0")
    g = centered(system, f)
    target = delta * epsilon / 8
    M = Fraction(1)
    while _tail_l1(system, g, M) > target:
        M *= 2
        if M > g.sup_norm() * 4 + 4:
            raise BudgetExceededError("truncation scan failed to converge")
    rho = _tail_l1(system, g, M)
    a = rho / (epsilon / 2) if rho > 0 else Fraction(0)
    delta_sub = delta - rho - a
    if delta_sub <= 0:
        raise InputError(
            f"level budget exhausted: delta {fmt_rat(delta)} - tail "
            f"{fmt_rat(rho)} - tail level {fmt_rat(a)} = {fmt_rat(delta_sub)}")
    gm = g.clamp(M)
    sub = as_rate_bounded(system, gm, epsilon / 2, delta_sub)
    return _certificate(system, f, kind="AS_L1", epsilon=epsilon,
                        delta=delta, p=sub.p, norm_bound=sub.norm_bound,
                        norm_method=sub.norm_method, n0_or_m=sub.n0_or_m,
                        sup_bound=sub.sup_bound, M=M, rho=rho, tail_level=a,
                        delta_sub=delta_sub)


# ---------------------------------------------------------------------------
# Standalone certificate checker (replays witnesses, no re-search)


#: the optional certificate fields each kind's check reads
KIND_FIELDS = {"NORM_L1": ("n_factor", "fbar_norm"),
               "NORM_L2": ("n_factor", "fbar_norm"),
               "AS_BOUNDED": ("delta", "sup_bound"),
               "AS_L1": ("delta", "sup_bound", "M", "rho", "tail_level",
                         "delta_sub")}


def check_certificate(cert: RateCertificate) -> tuple[bool, str]:
    """Re-verify a certificate by exact arithmetic at the recorded p only."""
    try:
        system = parse_system(cert.system_sel)
        f = observable_from_json(cert.observable)
        oracle = NormOracle(system, f)
    except (ErgocertError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as e:  # a malformed payload fails verification
        return False, f"payload: {e}"
    missing = [name for name in KIND_FIELDS.get(cert.kind, ())
               if getattr(cert, name) is None]
    if missing:
        return False, f"{cert.kind} needs {', '.join(missing)}"
    if cert.kind in ("NORM_L1", "NORM_L2"):
        norm = cert.kind[-2:]
        w, method = oracle.bound(cert.p, norm)
        if w > cert.norm_bound:
            return False, f"recomputed ||A_p|| bound {w} > recorded {cert.norm_bound}"
        if not cert.norm_bound < cert.epsilon / 2:
            return False, "recorded bound does not clear eps/2"
        nf = oracle.fbar_norm_upper(norm)
        if nf > cert.fbar_norm:
            return False, "recomputed ||fbar|| exceeds recorded value"
        if cert.n_factor < 2 * cert.fbar_norm / cert.epsilon:
            return False, "n does not satisfy n >= 2||fbar||/eps"
        if cert.n0_or_m != cert.n_factor * cert.p:
            return False, "m != n*p"
        return _check_recorded(cert, method)
    if cert.kind == "AS_BOUNDED":
        return _check_as_bounded(oracle, cert, cert.delta, cert.epsilon)
    if cert.kind == "AS_L1":
        g = centered(oracle.system, oracle.g)
        rho = _tail_l1(oracle.system, g, cert.M)
        if rho != cert.rho:
            return False, "recomputed truncation tail differs"
        if rho > cert.delta * cert.epsilon / 8:
            return False, "truncation tail too large"
        a = rho / (cert.epsilon / 2) if rho > 0 else Fraction(0)
        if a != cert.tail_level:
            return False, "tail level mismatch"
        if cert.delta_sub + rho + a > cert.delta or cert.delta_sub <= 0:
            return False, "level budget does not add up"
        gm = g.clamp(cert.M)
        sub_oracle = NormOracle(oracle.system, gm)
        return _check_as_bounded(sub_oracle, cert, cert.delta_sub,
                                 cert.epsilon / 2)
    return False, f"unknown kind {cert.kind}"


def _check_as_bounded(oracle: NormOracle, cert: RateCertificate,
                      delta: Fraction, epsilon: Fraction) -> tuple[bool, str]:
    w, method = oracle.bound(cert.p, "L1")
    if w > cert.norm_bound:
        return False, f"recomputed ||A_p||_1 bound {w} > recorded"
    if not cert.norm_bound < delta * epsilon / 2:
        return False, "recorded bound does not clear delta*eps/2"
    sup = centered(oracle.system, oracle.g).sup_norm()
    if sup > cert.sup_bound:
        return False, "recomputed sup bound exceeds recorded value"
    need = max(1, _ceil_frac(Fraction(4 * (cert.p - 1)) * cert.sup_bound / delta))
    if cert.n0_or_m < need:
        return False, f"n0 {cert.n0_or_m} below required {need}"
    return _check_recorded(cert, method)


def _check_recorded(cert: RateCertificate, method: str) -> tuple[bool, str]:
    """The recorded method and guarantee text match the recomputation."""
    if method != cert.norm_method:
        return False, f"recorded norm_method differs from {method}"
    if cert.guarantee != cert.statement():
        return False, "guarantee text differs from the certified parameters"
    return True, "ok"


# ---------------------------------------------------------------------------
# Exact validation of a.s. certificates


@dataclass
class ValidationReport:
    mode: str
    horizon: int
    n_start: int
    measured_mass: Fraction
    epsilon: Fraction
    delta: Fraction
    passed: bool
    window_empty: bool = False

    def to_json(self) -> dict:
        return {"mode": self.mode, "horizon": self.horizon,
                "n_start": self.n_start,
                "measured_mass": fmt_rat(self.measured_mass),
                "epsilon": fmt_rat(self.epsilon),
                "delta": fmt_rat(self.delta), "passed": self.passed,
                "window_empty": self.window_empty}


#: exact validation modes, with the systems that support them
EXACT_MODES = {"EXACT_CYLINDER": "the shift", "EXACT_ARC": "a circle system"}


def validate_as(system: System, f: Observable, cert: RateCertificate,
                horizon: int, mode: Optional[str] = None) -> ValidationReport:
    """Measure mu{x : max_{n_start <= n <= horizon} |A_n(f-int f)(x)| > delta}
    and compare against the certified eps.

    `mode` defaults to the system's exact mode; a mode the system does
    not support is refused first, also over an empty window.  n_start is
    max(1, n0); when n0 exceeds the horizon the certified event does not
    restrict the window at all, so the window is empty and the measured
    mass is 0 (reported with window_empty set, instead of rejecting the
    call: desk-scale horizons are routinely far below the pessimistic n0
    of the maximal-ergodic route)."""
    if cert.delta is None:
        raise InputError("only a.s. certificates validate against a horizon")
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    mode = system.exact_mode if mode is None else mode
    if mode not in EXACT_MODES:
        raise InputError(f"unknown validation mode {mode!r}")
    if mode != system.exact_mode:
        raise UnsupportedPairError(f"{mode} needs {EXACT_MODES[mode]}")
    n0 = cert.n0_or_m
    if n0 > horizon:
        return ValidationReport(mode, horizon, n0, Fraction(0), cert.epsilon,
                                cert.delta, True, window_empty=True)
    window = range(max(1, n0), horizon + 1)
    mass = system.window_mass(centered(system, f), window, cert.delta)
    return ValidationReport(mode, horizon, window.start, mass, cert.epsilon,
                            cert.delta, mass <= cert.epsilon)

