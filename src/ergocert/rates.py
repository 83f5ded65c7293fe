"""Effective-convergence certifier.

Computes m(eps) for L1/L2 norm convergence of Birkhoff averages and
n0(eps, delta) for almost-sure convergence, and emits machine-checkable
certificates: every recorded bound re-verifies from the certificate's own
witnesses by pure exact arithmetic (`check_certificate`), and the a.s.
guarantees can be measured exactly at desk scale (`validate_as`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from fractions import Fraction

from .arith import fmt_rat, parse_int, parse_rat
from .errors import (BudgetExceededError, ErgocertError, InputError,
                     UnsupportedPairError)
from .dynamics import (Observable, System, centered, l2_sq_enclosure,
                       l_norm_birkhoff, parse_system)
from .observables import observable_from_json, observable_to_json


# ---------------------------------------------------------------------------
# Certified norm upper bounds across a p-search


class NormOracle:
    """`System.norm_by` at the route `System.norm_route` picks, across a
    p-search for one (system, f): one integer table of fbar's correlations
    (`System.correlations`), priced on the uncentered f, and ||fbar||_inf,
    each computed once.  The search
    probes through `screened`, which rules out from the table an exact-L1
    probe that cannot clear; the checker follows the recorded route."""

    def __init__(self, system: System, f: Observable):
        self.system = system
        self.g = system.as_concrete(f)
        self.corr = cache(lambda: system.correlations(self.g))
        self.fbar_sup = cache(lambda: centered(system, self.g).sup_norm())

    def bound(self, p: int, norm: str) -> tuple[Fraction, str]:
        """(w, method) with w a certified upper bound on ||A_p fbar||_norm."""
        method = self.system.norm_route(self.g, p, norm)
        return self.system.norm_by(method, self.g, p, norm, self.corr), method

    def screened(self, p: int, norm: str, threshold: Fraction) -> tuple:
        """bound(p, norm), or (None, "l1-exact") with no S_p or law built
        when that probe is `l1-exact` and cannot clear the threshold:
        |A_p fbar| <= ||fbar||_inf everywhere, so ||A_p fbar||_1 >=
        ||A_p fbar||_2^2 / ||fbar||_inf, and the table encloses the square
        norm from below (exactly at every p where l1-exact is feasible).
        p = 1 is not screened: A_1 fbar = fbar, whose L1 norm costs less
        than the table.  The table is priced before fbar is centered for
        its sup norm."""
        if p > 1 and self.system.norm_route(self.g, p, norm) == "l1-exact":
            sq = l2_sq_enclosure(p, self.corr()).lo
            if sq > 0 and sq >= threshold * self.fbar_sup():
                return None, "l1-exact"
        return self.bound(p, norm)

    def l2_settled(self, p: int) -> bool:
        """The L2 bound is nonincreasing from p on."""
        start = self.corr().nonincreasing_from()
        return start is not None and p >= start


def find_p(oracle: NormOracle, threshold: Fraction,
           norm: str) -> tuple[int, Fraction, str]:
    """Deterministic p-search on the system's schedule
    (`System.search_p`): the smallest probed p whose bound clears the
    threshold.  Each probe goes through `NormOracle.screened`, so an
    exact-L1 probe that the correlation table shows cannot clear fails
    without building S_p; (p, w, method) come from a probe that ran, so
    the result is the one of probing `NormOracle.bound` alone."""
    return oracle.system.search_p(
        lambda p: oracle.screened(p, norm, threshold), threshold,
        oracle.l2_settled)


# ---------------------------------------------------------------------------
# Certificates: one class per kind, each re-checked at its recorded p only


def _json_fields(cls) -> tuple:
    """(attribute, JSON key, type name) of each field of the dataclass cls,
    a kind's own fields after the common ones; system_sel is "system"."""
    return tuple((f.name, "system" if f.name == "system_sel" else f.name,
                  f.type) for f in fields(cls))


def _to_json(obj) -> dict:
    """A dataclass as JSON: each Fraction field as "num/den"."""
    return {key: fmt_rat(v) if typ == "Fraction" else v
            for name, key, typ in _json_fields(type(obj))
            for v in (getattr(obj, name),)}


def _parse(typ: str, key: str, v):
    """One JSON field of a certificate, checked against its type."""
    if typ == "Fraction":
        return parse_rat(v)
    if typ == "int":
        return parse_int(v, key)
    expect = {"str": (str, "a string"), "dict": (dict, "an object")}[typ]
    if not isinstance(v, expect[0]):
        raise ValueError(f"{key} must be {expect[1]}, not {v!r}")
    return v


@dataclass(kw_only=True)
class RateCertificate:
    """The fields every kind records.  A payload of an unknown kind, or one
    missing a field of its kind, parses to this class, whose check fails."""

    kind: str  # NORM_L1 | NORM_L2 | AS_BOUNDED | AS_L1
    system_sel: str
    observable: dict  # serialized; certificates are standalone
    epsilon: Fraction
    p: int
    norm_bound: Fraction  # certified upper bound on ||A_p fbar||
    norm_method: str
    n0_or_m: int
    guarantee: str = ""
    missing = ()  # the fields of its kind that a parsed payload lacks
    #: (field, least value, whether the least value is out too) of each
    #: parameter with a domain, refused before anything is recomputed
    domain = (("epsilon", 0, True), ("p", 1, False), ("n0_or_m", 1, False),
              ("norm_bound", 0, False))
    to_json = _to_json

    @staticmethod
    def from_json(d: dict) -> "RateCertificate":
        """The certificate of d's kind (`KINDS`), parsed field by field."""
        cls = KINDS.get(d["kind"], RateCertificate)
        own = _json_fields(cls)[len(_json_fields(RateCertificate)):]
        missing = tuple(key for _, key, _ in own if key not in d)
        cls = RateCertificate if missing else cls
        cert = cls(**{name: _parse(typ, key, d[key])
                      for name, key, typ in _json_fields(cls) if key in d})
        cert.missing = missing
        return cert

    def check(self, system: System, g) -> tuple[bool, str]:
        """(ok, detail) for g, the certificate's observable on the system."""
        if self.kind in KINDS:
            return False, f"{self.kind} needs {', '.join(self.missing)}"
        return False, f"unknown kind {self.kind}"

    def _refuse_out_of_domain(self) -> None:
        """InputError on the first recorded parameter out of its domain."""
        for name, least, strict in self.domain:
            v = getattr(self, name)
            if v < least or strict and v == least:
                raise InputError(
                    f"{name} must be {'>' if strict else '>='} {least}")

    def _recorded(self) -> tuple[bool, str]:
        """The recorded guarantee text matches the certified parameters."""
        if self.guarantee != self.statement():
            return False, "guarantee text differs from the certified parameters"
        return True, "ok"


@dataclass(kw_only=True)
class NormCertificate(RateCertificate):
    """||A_m'(f - int f)||_norm <= eps for all m' >= m = n_factor * p
    (NORM_L1, NORM_L2)."""

    n_factor: int
    fbar_norm: Fraction  # certified upper bound on ||fbar||
    delta = None  # a norm guarantee has no deviation level
    domain = RateCertificate.domain + (("n_factor", 1, False),
                                       ("fbar_norm", 0, False))

    def statement(self) -> str:
        return (f"||A_m'(f-int f)||_{self.kind[-2:]} <= "
                f"{fmt_rat(self.epsilon)} for all m' >= {self.n0_or_m}")

    def check(self, system: System, g) -> tuple[bool, str]:
        self._refuse_out_of_domain()
        norm = self.kind[-2:]
        corr = cache(lambda: system.correlations(g))
        w = system.norm_by(self.norm_method, g, self.p, norm, corr)
        if w is None:
            return False, (f"{system.name} has no {norm} route "
                           f"{self.norm_method!r}")
        if w > self.norm_bound:
            return False, f"recomputed ||A_p|| bound {w} > recorded {self.norm_bound}"
        if not self.norm_bound < self.epsilon / 2:
            return False, "recorded bound does not clear eps/2"
        nf = (l_norm_birkhoff(system, g, 1) if norm == "L1"  # exact, uncapped
              else system.norm_by(self.norm_method, g, 1, norm, corr))
        if nf > self.fbar_norm:
            return False, "recomputed ||fbar|| exceeds recorded value"
        if self.n_factor < 2 * self.fbar_norm / self.epsilon:
            return False, "n does not satisfy n >= 2||fbar||/eps"
        if self.n0_or_m != self.n_factor * self.p:
            return False, "m != n*p"
        return self._recorded()


@dataclass(kw_only=True)
class AsBoundedCertificate(RateCertificate):
    """mu(sup_(n>=n0) |A_n(f - int f)| > delta) <= eps for bounded f, by
    the maximal ergodic inequality applied to A_p fbar (AS_BOUNDED)."""

    delta: Fraction
    sup_bound: Fraction  # certified upper bound on ||fbar||_inf
    domain = RateCertificate.domain + (("delta", 0, True),
                                       ("sup_bound", 0, False))

    def statement(self) -> str:
        return (f"mu(sup_(n>={self.n0_or_m}) |A_n(f-int f)| > "
                f"{fmt_rat(self.delta)}) <= {fmt_rat(self.epsilon)}")

    def check(self, system: System, g) -> tuple[bool, str]:
        self._refuse_out_of_domain()
        return self._check_bounded(system, g, self.delta, self.epsilon)

    def _check_bounded(self, system, g, delta, epsilon) -> tuple[bool, str]:
        """The bounded chain for g at level delta and mass epsilon."""
        w = system.norm_by(self.norm_method, g, self.p, "L1")
        if w is None:
            return False, f"{system.name} has no L1 route {self.norm_method!r}"
        if w > self.norm_bound:
            return False, f"recomputed ||A_p||_1 bound {w} > recorded"
        if not self.norm_bound < delta * epsilon / 2:
            return False, "recorded bound does not clear delta*eps/2"
        if centered(system, g).sup_norm() > self.sup_bound:
            return False, "recomputed sup bound exceeds recorded value"
        need = max(1, math.ceil(4 * (self.p - 1) * self.sup_bound / delta))
        if self.n0_or_m < need:
            return False, f"n0 {self.n0_or_m} below required {need}"
        return self._recorded()


@dataclass(kw_only=True)
class AsL1Certificate(AsBoundedCertificate):
    """The a.s. guarantee for f known only in L1 (AS_L1): fbar = clamp(fbar,
    M) + r, the clamp certified at (delta_sub, eps/2), r at tail_level."""

    M: Fraction  # truncation level
    rho: Fraction  # exact ||fbar - clamp(fbar, M)||_1
    tail_level: Fraction  # rho/(eps/2), checked multiplied out: eps may be 0
    delta_sub: Fraction  # level of the bounded part
    domain = AsBoundedCertificate.domain + (
        ("M", 0, True), ("rho", 0, False), ("tail_level", 0, False))

    def check(self, system: System, g) -> tuple[bool, str]:
        self._refuse_out_of_domain()
        fbar = centered(system, g)
        rho = _tail_l1(system, fbar, self.M)
        if rho != self.rho:
            return False, "recomputed truncation tail differs"
        if rho > self.delta * self.epsilon / 8:
            return False, "truncation tail too large"
        if self.tail_level * self.epsilon / 2 != rho:
            return False, "tail level mismatch"
        if not 0 < self.delta_sub <= self.delta - rho - self.tail_level:
            return False, "level budget does not add up"
        return self._check_bounded(system, fbar.clamp(self.M), self.delta_sub,
                                   self.epsilon / 2)


#: the certificate class of each kind
KINDS = {"NORM_L1": NormCertificate, "NORM_L2": NormCertificate,
         "AS_BOUNDED": AsBoundedCertificate, "AS_L1": AsL1Certificate}


def check_certificate(cert: RateCertificate) -> tuple[bool, str]:
    """Re-verify a certificate by exact arithmetic at the recorded p only;
    a recorded parameter out of its domain raises InputError first."""
    try:
        system = parse_system(cert.system_sel)
        g = system.as_concrete(observable_from_json(cert.observable))
    except (ErgocertError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as e:  # a malformed payload fails verification
        return False, f"payload: {e}"
    return cert.check(system, g)


def _certificate(system: System, f: Observable, **values) -> RateCertificate:
    """f's certificate on the system, in its kind's class, with its text."""
    cert = KINDS[values["kind"]](
        system_sel=system.selector(),
        observable=observable_to_json(system.as_concrete(f)), **values)
    cert.guarantee = cert.statement()
    return cert


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
    nf = oracle.bound(1, norm)[0]
    n = max(1, math.ceil(2 * nf / epsilon))
    return _certificate(system, f, kind=f"NORM_{norm}", epsilon=epsilon,
                        p=p, norm_bound=w, norm_method=method, n0_or_m=n * p,
                        n_factor=n, fbar_norm=nf)


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
    sup = oracle.fbar_sup()
    n0 = max(1, math.ceil(4 * (p - 1) * sup / delta))
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
    M = Fraction(1)
    while (rho := _tail_l1(system, g, M)) > delta * epsilon / 8:
        M *= 2
        if M > g.sup_norm() * 4 + 4:
            raise BudgetExceededError("truncation scan failed to converge")
    a = rho / (epsilon / 2)
    delta_sub = delta - rho - a
    if delta_sub <= 0:
        raise InputError(
            f"level budget exhausted: delta {fmt_rat(delta)} - tail "
            f"{fmt_rat(rho)} - tail level {fmt_rat(a)} = {fmt_rat(delta_sub)}")
    sub = as_rate_bounded(system, g.clamp(M), epsilon / 2, delta_sub)
    return _certificate(system, f, kind="AS_L1", epsilon=epsilon,
                        delta=delta, p=sub.p, norm_bound=sub.norm_bound,
                        norm_method=sub.norm_method, n0_or_m=sub.n0_or_m,
                        sup_bound=sub.sup_bound, M=M, rho=rho, tail_level=a,
                        delta_sub=delta_sub)


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
    window_empty: bool
    to_json = _to_json


#: exact validation modes, with the systems that support them
EXACT_MODES = {"EXACT_CYLINDER": "the shift", "EXACT_ARC": "a circle system"}


def validate_as(system: System, f: Observable, cert: RateCertificate,
                horizon: int, mode: str | None = None) -> ValidationReport:
    """Measure mu{x : max_{n_start <= n <= horizon} |A_n(f-int f)(x)| > delta}
    and compare against the certified eps.

    `mode` defaults to the system's exact mode; a mode the system does
    not support is refused first, also over an empty window.  n_start is
    max(1, n0); when n0 exceeds the horizon the certified event does not
    restrict the window at all, so the window is empty and the measured
    mass is 0 (reported with window_empty set, instead of rejecting the
    call: horizons are often below the pessimistic n0 of the
    maximal-ergodic route).  The system weighs the window
    (`window_mass`): the circle maps from the arcs of every S_n, the
    shift from the law of its partial sums, priced before it runs, which
    reaches past n0 (the word "01" at delta = eps = 1/4: n0 = 3084)."""
    if cert.delta is None:
        raise InputError("only a.s. certificates validate against a horizon")
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    mode = system.exact_mode if mode is None else mode
    if mode not in EXACT_MODES:
        raise InputError(f"unknown validation mode {mode!r}")
    if mode != system.exact_mode:
        raise UnsupportedPairError(f"{mode} needs {EXACT_MODES[mode]}")
    window = range(max(1, cert.n0_or_m), horizon + 1)
    mass = (system.window_mass(centered(system, f), window, cert.delta)
            if window else Fraction(0))
    return ValidationReport(mode, horizon, window.start, mass, cert.epsilon,
                            cert.delta, mass <= cert.epsilon, not window)

