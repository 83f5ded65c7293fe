"""Rate certificates: emission, standalone re-checking, horizon
validation, and summable schedules."""

import ast
import json
import random
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from ergocert import dynamics, rates
from ergocert.arith import Quad, pow2, sqrt_upper
from ergocert.dynamics import (CORRELATION_CUTOFF, SCAN_CAP,
                               doubling_correlations, doubling_system,
                               l_norm_birkhoff,
                               birkhoff_observable, centered, l2_sq_enclosure,
                               rotation_system, shift_system)
from ergocert.errors import BudgetExceededError, InputError
from ergocert.observables import (CylinderFn, PiecewiseLinear,
                                  observable_from_json)
from ergocert.rates import (NormOracle, RateCertificate, as_rate_bounded,
                            as_rate_l1, check_certificate, find_p, l_rate,
                            validate_as)
from ergocert.regions import ArcSet, cylinder_mass
import cyl_reference as cref
import pl_reference as ref
from test_dynamics import _random_pl

SHIFT = shift_system(F(1, 2))
DBL = doubling_system()
ROT = rotation_system()
FIRSTBIT = CylinderFn.coordinate(0)
HAT = PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def emit_all(eps=F(1, 4), delta=F(1, 4)):
    for system, f in ((SHIFT, FIRSTBIT), (DBL, HAT), (ROT, HAT)):
        yield l_rate(system, f, eps, "L1")
        yield l_rate(system, f, eps, "L2")
        yield as_rate_bounded(system, f, eps, delta)
        yield as_rate_l1(system, f, eps, delta)


class TestEmission:
    def test_norm_guarantee_holds_on_shift(self):
        # [DERIVED: the certified bound is re-measured exactly beyond n0]
        cert = l_rate(SHIFT, FIRSTBIT, F(1, 2), "L1")
        m = cert.n0_or_m
        assert m <= 12  # keep the exact re-measurement enumerable
        for extra in (0, 1, 3):
            assert l_norm_birkhoff(SHIFT, FIRSTBIT, m + extra) \
                <= cert.epsilon

    def test_all_certificates_check(self):
        # [DERIVED: every emitted certificate passes the standalone checker]
        for cert in emit_all():
            ok, msg = check_certificate(cert)
            assert ok, msg

    def test_json_roundtrip(self):
        # [TRIVIAL]
        for cert in emit_all():
            d = cert.to_json()
            assert RateCertificate.from_json(d).to_json() == d

    def test_bad_inputs(self):
        # [TRIVIAL]
        with pytest.raises(InputError):
            l_rate(SHIFT, FIRSTBIT, F(0))
        with pytest.raises(InputError):
            l_rate(SHIFT, FIRSTBIT, F(1, 4), "L7")
        # truncation tail rho = 2 exceeds delta: no level budget is left
        with pytest.raises(InputError, match="level budget"):
            as_rate_l1(SHIFT, FIRSTBIT.scale(8), 64, F(1, 4))

    def test_tampered_certificate_rejected(self):
        # [DERIVED: the checker recomputes the norm, so a lowered bound or
        # shortened n0 must fail]
        cert = as_rate_l1(SHIFT, FIRSTBIT, F(1, 4), F(1, 4))
        bad = RateCertificate.from_json(cert.to_json())
        bad.n0_or_m = 1
        ok, _ = check_certificate(bad)
        assert not ok
        # the method and the guarantee text are compared with what the
        # checker recomputes
        for field, value in (("norm_method", "made-up"),
                             ("guarantee", "mu(anything) <= 0")):
            bad = RateCertificate.from_json(cert.to_json())
            setattr(bad, field, value)
            ok, _ = check_certificate(bad)
            assert not ok, field

    def test_recorded_p_checked_at_flat_memory(self):
        # [DERIVED: the checker follows the recorded l1-exact route, and
        #  the doubling map prices S_p's segments with n capped before it
        #  shifts by n, so a recorded p of 10^8 is over budget without
        #  allocating 2^p bits; the search's feasibility test weighs p
        #  before it shifts by p, and its answer is unchanged for every
        #  p >= 1]
        for f in (HAT, PiecewiseLinear.identity(),
                  PiecewiseLinear.constant(F(1, 3))):
            segs = max(len(f.segments), 1)
            for p in range(1, 40):
                assert DBL.l1_exact_feasible(f, p) \
                    == (segs << p <= 1 << 12)
        data = json.loads(
            (CORPUS / "cert_doubling_hat_a_norm-l1_1-4.json").read_text())
        data["p"] = 10 ** 8
        cert = RateCertificate.from_json(data)
        assert cert.norm_method == "l1-exact"
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="segments"):
                check_certificate(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


#: a spike of height 8(16 + 1/64)/7 on the cylinder 111: its centered
#: value 16 + 1/64 exceeds M = 16, so the certificate's truncation tail
#: rho = 1/512 is positive
SPIKE = CylinderFn(3, [F(0)] * 7 + [8 * (16 + F(1, 64)) / 7])


class TestCheckerRejections:
    """Each check of `check_certificate` on one field weakened by hand."""

    @pytest.mark.parametrize("name, field, value, detail", [
        ("shift1-2_first_bit_norm-l1_1-4", "norm_bound", "1/16",
         "recomputed ||A_p|| bound 63/512 > recorded 1/16"),
        ("shift1-2_first_bit_norm-l1_1-4", "norm_bound", "1/8",
         "recorded bound does not clear eps/2"),
        ("shift1-2_first_bit_norm-l1_1-4", "fbar_norm", "1/4",
         "recomputed ||fbar|| exceeds recorded value"),
        ("shift1-2_first_bit_norm-l1_1-4", "n_factor", 3,
         "n does not satisfy n >= 2||fbar||/eps"),
        ("shift1-2_first_bit_norm-l1_1-4", "kind", "NORM_L3",
         "unknown kind NORM_L3"),
        ("shift1-2_first_bit_as-bounded_1-4_1-2", "norm_bound", "1/32",
         "recomputed ||A_p||_1 bound 17456337014905/281474976710656 > "
         "recorded"),
        ("shift1-2_first_bit_as-bounded_1-4_1-2", "norm_bound", "1/16",
         "recorded bound does not clear delta*eps/2"),
        ("shift1-2_first_bit_as-bounded_1-4_1-2", "sup_bound", "1/4",
         "recomputed sup bound exceeds recorded value")])
    def test_corpus_certificate_weakened(self, name, field, value, detail):
        # [DERIVED: the checker recomputes each recorded quantity, so a
        #  single weakened field fails with that check's detail]
        d = json.loads((CORPUS / f"cert_{name}.json").read_text())
        assert check_certificate(RateCertificate.from_json(d)) == (True, "ok")
        d[field] = value
        assert check_certificate(RateCertificate.from_json(d)) \
            == (False, detail)

    @pytest.mark.parametrize("field, value, detail", [
        ("rho", "1/1024", "recomputed truncation tail differs"),
        ("delta", "1/64", "truncation tail too large"),
        ("tail_level", "1/64", "tail level mismatch"),
        ("delta_sub", "0", "level budget does not add up")])
    def test_truncation_weakened(self, field, value, detail):
        # [DERIVED: rho = 1/512 > delta eps/8 once delta = 1/64; the tail
        #  level is rho/(eps/2) = 1/128]
        d = as_rate_l1(SHIFT, SPIKE, F(1, 2), F(1, 2)).to_json()
        assert (d["rho"], d["M"], d["tail_level"]) == ("1/512", "16", "1/128")
        d[field] = value
        assert check_certificate(RateCertificate.from_json(d)) \
            == (False, detail)


    def test_norm_certificate_with_an_as_claim(self):
        # [DERIVED: a norm certificate given a delta and an a.s. guarantee
        #  text still states its kind's norm guarantee, which the text no
        #  longer matches]
        d = json.loads(
            (CORPUS / "cert_shift1-2_first_bit_norm-l1_1-4.json").read_text())
        d.update(delta="1/4",
                 guarantee="mu(sup_(n>=40) |A_n(f-int f)| > 1/4) <= 1/4")
        cert = RateCertificate.from_json(d)
        assert cert.delta is None
        assert check_certificate(cert) == (
            False, "guarantee text differs from the certified parameters")


#: names of the p-search and of its choice of norm route, which the
#: checker must not reach
SEARCH_NAMES = {"find_p", "NormOracle", "search_p", "l2_settled",
                "nonincreasing_from", "Correlations", "screened",
                "norm_route", "l1_exact_feasible"}


class TestCheckerIndependence:
    def test_checker_reaches_no_search_code(self):
        # [DERIVED: from check_certificate and every class of the kind
        #  table, follow each module-level name of rates.py they read; no
        #  name or attribute read on the way is search code, so a bug in
        #  the search cannot certify itself]
        tree = ast.parse(Path(rates.__file__).read_text())
        defs = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update((t.id, node) for t in node.targets
                            if isinstance(t, ast.Name))
        todo = ["check_certificate",
                *(cls.__name__ for cls in rates.KINDS.values())]
        seen, read = set(), set()
        while todo:
            name = todo.pop()
            if name in seen or name not in defs:
                continue
            seen.add(name)
            for n in ast.walk(defs[name]):
                if isinstance(n, ast.Name):
                    read.add(n.id)
                    todo.append(n.id)
                elif isinstance(n, ast.Attribute):
                    read.add(n.attr)
        assert {"RateCertificate", "KINDS", "AsL1Certificate",
                "_tail_l1"} <= seen
        assert not read & SEARCH_NAMES, read & SEARCH_NAMES


#: every System class: the emitter's route policy lives on these
SYSTEM_CLASSES = (dynamics.System, dynamics.Shift, dynamics.CircleMap,
                  dynamics.Doubling, dynamics.Rotation)


def _corpus_certificates() -> dict:
    """The stored certificates, by file name."""
    return {p.name: RateCertificate.from_json(json.loads(p.read_text()))
            for p in sorted(CORPUS.glob("cert_*.json"))}


class TestRecordedRoute:
    """The checker recomputes each bound by the route the certificate
    records, whatever route the emitter would pick today."""

    def test_checker_never_asks_the_policy(self, monkeypatch):
        # [DERIVED: with the emitter's policy raising on every system
        #  class, each of the 69 stored certificates still checks ok]
        def policy(*args):
            raise AssertionError("the checker asked the emitter's policy")

        for cls in SYSTEM_CLASSES:
            for name in ("norm_route", "l1_exact_feasible"):
                monkeypatch.setattr(cls, name, policy, raising=False)
        certs = _corpus_certificates()
        assert len(certs) == 69
        for name, cert in certs.items():
            assert check_certificate(cert) == (True, "ok"), name

    @pytest.mark.parametrize("cap", [8, 24])
    def test_shift_cap_moves_without_breaking_replay(self, monkeypatch,
                                                     cap):
        # [DERIVED: with the shift's exact-L1 cap moved from 16 to 8 or to
        #  24 the emitter would now pick another route for some stored
        #  certificate at its recorded p, and all 69 still check ok]
        monkeypatch.setattr(
            dynamics.Shift, "l1_exact_feasible",
            lambda self, g, p: (p + g.depth - 1 if g.depth else 0) <= cap)
        moved = 0
        for name, cert in _corpus_certificates().items():
            system = dynamics.parse_system(cert.system_sel)
            g = system.as_concrete(observable_from_json(cert.observable))
            norm = "L2" if cert.kind == "NORM_L2" else "L1"
            moved += system.norm_route(g, cert.p, norm) != cert.norm_method
            assert check_certificate(cert) == (True, "ok"), name
        assert moved

    @pytest.mark.parametrize("name, method, verdict", [
        ("cert_shift1-2_w01_as-bounded_1-4_1-2.json", "l1-exact",
         (True, "ok")),
        ("cert_shift1-2_first_bit_norm-l1_1-4.json", "l2-upper",
         (False, f"recomputed ||A_p|| bound {sqrt_upper(F(1, 40))} > "
                 "recorded 63/512")),
        ("cert_shift1-2_first_bit_norm-l1_1-4.json", "sup-exact",
         (False, "shift has no L1 route 'sup-exact'")),
        ("cert_rotation_hat_a_as-bounded_1-4_1-2.json", "l2-upper",
         (False, "rotation has no L1 route 'l2-upper'")),
        ("cert_shift1-2_w01_norm-l2_1-8.json", "l1-exact",
         (False, "shift has no L2 route 'l1-exact'")),
        ("cert_doubling_hat_a_as-bounded_1-4_1-2.json", "l1-exact",
         BudgetExceededError)])
    def test_rewritten_route_is_judged_by_that_route(self, name, method,
                                                     verdict):
        # [DERIVED: a norm_method rewritten to another route the system has
        #  is judged by that route's number: the exact L1 norm of the "01"
        #  average at p = 18 is below its recorded L2 bound, and the L2
        #  bound of the first bit at p = 10 is sqrt(C(0)/p) = sqrt(1/40) on
        #  the fair shift, above its recorded exact 63/512; a route the
        #  system lacks for the norm is refused by name; exact L1 at p = 30
        #  on the doubling map is over its segment price]
        d = {**json.loads((CORPUS / name).read_text()), "norm_method": method}
        cert = RateCertificate.from_json(d)
        if verdict is BudgetExceededError:
            with pytest.raises(BudgetExceededError, match="segments"):
                check_certificate(cert)
        else:
            assert check_certificate(cert) == verdict


class TestNormOracle:
    def test_doubling_l2_matches_enclosure(self):
        # [DERIVED: the p-search reuses one correlation table for every p;
        # it must agree with a fresh enclosure on both sides of the cutoff]
        oracle = NormOracle(DBL, HAT)
        for p in (1, 2, 5, 119, 120, 121, 200):
            fbar = centered(DBL, HAT)
            den, nums = doubling_correlations(fbar, min(p, CORRELATION_CUTOFF))
            fresh = dynamics.Correlations(
                nums, fbar.abs_integral() * fbar.total_variation(), den)
            expect = sqrt_upper(l2_sq_enclosure(p, fresh).hi)
            assert oracle.bound(p, "L2") == (expect, "l2-upper")


    def test_deep_shift_observable_refused_before_centering(self,
                                                            monkeypatch):
        # [DERIVED: a depth-20 observable's table is priced at 20 2^21
        #  products (it costs about 2^23), over 2^24: every bound is
        #  refused with BUDGET_EXCEEDED before anything centers it (2^20
        #  Fraction sums)]
        deep = CylinderFn.hat("01", F(1, 1 << 20), F(1, 4))
        calls = []
        for module in (dynamics, rates):
            monkeypatch.setattr(module, "centered",
                                lambda *args: calls.append(args))
        for norm in ("L1", "L2"):
            with pytest.raises(BudgetExceededError, match="depth 20"):
                NormOracle(SHIFT, deep).bound(1, norm)
        assert not calls


def _scan_p(oracle, threshold, norm):
    """The p-search as a plain linear scan: the doubling schedule, then
    every q of a winning octave of at most SCAN_CAP in turn."""
    p = 1
    while True:
        w, method = oracle.bound(p, norm)
        if w < threshold:
            break
        p *= 2
    if p > 1 and p - p // 2 <= SCAN_CAP:
        for q in range(p // 2 + 1, p):
            wq, mq = oracle.bound(q, norm)
            if wq < threshold:
                return q, wq, mq
    return p, w, method


def _counted(oracle):
    """The oracle, counting its bound calls in the returned list."""
    calls, bound = [0], oracle.bound

    def counting(p, norm):
        calls[0] += 1
        return bound(p, norm)

    oracle.bound = counting
    return calls


class TestSearch:
    def test_matches_linear_scan(self):
        # [DERIVED: oracle = an in-test copy of the linear octave scan, on
        #  seeded observables and thresholds on the doubling map and three
        #  shifts under both norms; the bisection must be reached]
        rng = random.Random(2010)
        cases = []
        for _ in range(10):
            cases.append((DBL, _random_pl(rng, rng.randint(7, 16))))
            for prob in (F(1, 2), F(1, 3), F(2, 5)):
                k = rng.randint(1, 5)
                cases.append((shift_system(prob), CylinderFn(
                    k, [F(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(1 << k)])))
        saved = 0
        for system, f in cases:
            if not centered(system, f).sup_norm():
                continue  # no positive threshold to clear
            oracle = NormOracle(system, f)
            calls = _counted(oracle)
            for norm in ("L1", "L2"):
                top = oracle.bound(1, norm)[0]
                for _ in range(4):
                    threshold = top / rng.randint(2, 40)
                    calls[0] = 0
                    want = _scan_p(oracle, threshold, norm)
                    scanned, calls[0] = calls[0], 0
                    assert find_p(oracle, threshold, norm) == want
                    saved += scanned - calls[0]
        assert saved > 10000

    def test_octaves_where_the_method_switches(self):
        # [DERIVED: oracle = the linear scan on L1 octaves that cross the
        #  switch from l1-exact to l2-upper (past p = 12 on the doubling
        #  map for one segment, past 17 - depth on the shift), at thresholds
        #  equal to and just above each bound of the octave (8, 16]]
        fs = [(DBL, PiecewiseLinear.identity()), (DBL, HAT),
              (DBL, PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 16))),
              (SHIFT, FIRSTBIT), (shift_system(F(1, 3)), SPIKE),
              (shift_system(F(2, 5)), CylinderFn.coordinate(1))]
        methods = set()
        for system, f in fs:
            oracle = NormOracle(system, f)
            for q in range(8, 17):
                w, method = oracle.bound(q, "L1")
                methods.add(method)
                for threshold in (w, w + pow2(100)):
                    assert find_p(oracle, threshold, "L1") \
                        == _scan_p(oracle, threshold, "L1")
        assert methods == {"l1-exact", "l2-upper"}

    def test_corpus_certificate_inputs(self):
        # [DERIVED: the certificate a plain bisection got wrong: p = 9 by
        #  l1-exact, found again by the search and by the scan]
        data = json.loads(
            (CORPUS / "cert_doubling_hat_b_norm-l1_1-4.json").read_text())
        oracle = NormOracle(DBL, observable_from_json(data["observable"]))
        threshold = F(data["epsilon"]) / 2
        want = (data["p"], F(data["norm_bound"]), data["norm_method"])
        assert _scan_p(oracle, threshold, "L1") == want
        assert find_p(oracle, threshold, "L1") == want

    def test_screen_rules_out_probes_without_building_s_p(self,
                                                          monkeypatch):
        # [DERIVED: oracle = the linear scan over the unscreened bound, on
        #  doubling hats and the identity and on shift observables at the
        #  search thresholds of the exact strata; each screened probe fails
        #  the unscreened bound, builds no S_p (no l_norm_birkhoff call),
        #  and the screen rules out 55 probes here (none at p = 1, whose
        #  probe costs less than the table); a constant f, whose fbar is
        #  0, clears at p = 1, and is not screened at p = 2 either]
        exact_l1 = [0]
        norm_l1 = dynamics.l_norm_birkhoff

        def counting(*args):
            exact_l1[0] += 1
            return norm_l1(*args)

        monkeypatch.setattr(dynamics, "l_norm_birkhoff", counting)
        fs = [(DBL, HAT), (DBL, PiecewiseLinear.hat(F(1, 4), F(1, 8),
                                                     F(1, 16))),
              (DBL, PiecewiseLinear.identity()),
              (shift_system(F(1, 3)), CylinderFn.coordinate(1)),
              (SHIFT, FIRSTBIT), (SHIFT, CylinderFn.word_indicator("01")),
              (DBL, PiecewiseLinear.constant(F(1, 3)))]
        screened = 0
        for system, f in fs:
            for threshold in (F(1, 32), F(1, 64), F(1, 128)):
                oracle = NormOracle(system, f)
                probes, screen = [], oracle.screened

                def recording(p, norm, threshold):
                    probes.append((p, *screen(p, norm, threshold)))
                    return probes[-1][1:]

                oracle.screened = recording
                want = _scan_p(oracle, threshold, "L1")
                exact_l1[0] = 0
                assert find_p(oracle, threshold, "L1") == want
                out = [p for p, w, _ in probes if w is None]
                assert all(m == "l1-exact" for p, w, m in probes
                           if w is None)
                assert exact_l1[0] == sum(m == "l1-exact" and w is not None
                                          for _, w, m in probes)
                assert all(oracle.bound(p, "L1")[0] >= threshold
                           for p in out)
                screened += len(out)
        assert screened >= 50
        # fbar = 0 has ||fbar||_inf = 0: the bound 0 clears, unscreened
        zero = NormOracle(DBL, PiecewiseLinear.constant(F(1, 3)))
        assert zero.screened(2, "L1", F(1, 4)) == (0, "l1-exact")

    def test_wide_octave_returns_its_power_of_two(self):
        # [DERIVED: 1/p first clears 1/5000 at 5001, in the octave
        #  (4096, 8192], wider than SCAN_CAP: the search keeps 8192]
        def bound(p):
            return F(1, p), "l2-upper"

        assert 8192 - 4096 > SCAN_CAP
        assert DBL.search_p(bound, F(1, 5000), lambda q: True) \
            == (8192, F(1, 8192), "l2-upper")
        oracle = NormOracle(DBL, HAT)
        threshold = oracle.bound(5000, "L2")[0]
        assert find_p(oracle, threshold, "L2") \
            == _scan_p(oracle, threshold, "L2") \
            == (8192, *oracle.bound(8192, "L2"))


class TestScreenInequality:
    def test_l2_square_over_sup_bounds_l1(self):
        # [DERIVED: oracle = A_p fbar built by the references alone (the
        #  pullbacks of pl_reference on the doubling map, the running sums
        #  of cyl_reference on the shift); |A_p fbar| <= ||fbar||_inf gives
        #  ||A_p fbar||_2^2 <= ||fbar||_inf ||A_p fbar||_1, and the lower
        #  end the search's screen reads is that square norm exactly, next
        #  to the oracle's ||fbar||_inf]
        rng = random.Random(38)
        cases = []
        for _ in range(4):
            f = _random_pl(rng, rng.randint(5, 8))
            m = ref.integral(f.segments)
            fbar = ref.plus(f.segments, [(F(0), F(1), -m, -m)])
            terms, avgs = [fbar], []
            for p in range(1, 6):
                avgs.append(ref.scale(ref.total(terms), F(1, p)))
                terms.append(ref.pullback(terms[-1]))
            cases.append((DBL, f, ref.sup(fbar), [
                (ref.inner(a, a), ref.abs_integral(a)) for a in avgs]))
        for prob in (F(1, 2), F(1, 3), F(2, 5)):
            for _ in range(3):
                k = rng.randint(1, 4)
                t = [F(rng.randint(-4, 4), rng.randint(1, 4))
                     for _ in range(1 << k)]
                m = cref.integral(t, prob)
                tbar = [v - m for v in t]
                norms = []
                for p in range(1, 7):
                    a = cref.average(tbar, p)
                    ws = cref.words(cref.depth(a))
                    norms.append((
                        sum(cref.mass(w, prob) * v * v for w, v in zip(ws, a)),
                        sum(cref.mass(w, prob) * abs(v)
                            for w, v in zip(ws, a))))
                cases.append((shift_system(prob), CylinderFn(k, t),
                              cref.sup(tbar), norms))
        for system, f, sup, norms in cases:
            oracle = NormOracle(system, f)
            assert oracle.fbar_sup() == sup
            for p, (sq, l1) in enumerate(norms, 1):
                assert sq <= sup * l1
                assert l2_sq_enclosure(p, oracle.corr()).lo == sq


class TestMaximalInequality:
    def test_exact_maximal_mass(self):
        # [DERIVED: oracle = full depth-12 enumeration of the running
        # maximum; mu(max_{n<=N}|A_n fbar| > d) <= ||fbar||_1 / d]
        fbar = centered(SHIFT, FIRSTBIT)
        horizon = 12
        d_max = horizon + fbar.depth - 1
        avgs = [birkhoff_observable(SHIFT, fbar, n).lift(d_max)
                for n in range(1, horizon + 1)]
        l1 = l_norm_birkhoff(SHIFT, FIRSTBIT, 1)
        for delta in (F(1, 4), F(1, 2), F(3, 4)):
            mass = F(0)
            for w in range(1 << d_max):
                word = format(w, f"0{d_max}b")
                if max(abs(a.value_on_word(word)) for a in avgs) > delta:
                    mass += cylinder_mass(word, F(1, 2))
            assert mass <= l1 / delta

    def test_exact_window_mass(self):
        # [DERIVED: oracle = depth-12 enumeration of the running maximum
        #  over the window 8 <= n <= 12; 23/128 as recorded before any
        #  rewrite of the shift's window kernel]
        fbar = centered(SHIFT, FIRSTBIT)
        window, delta = range(8, 13), F(1, 4)
        d_max = window.stop - 1 + fbar.depth - 1
        avgs = [birkhoff_observable(SHIFT, fbar, n).lift(d_max)
                for n in window]
        mass = F(0)
        for w in range(1 << d_max):
            word = format(w, f"0{d_max}b")
            if max(abs(a.value_on_word(word)) for a in avgs) > delta:
                mass += cylinder_mass(word, F(1, 2))
        assert SHIFT.window_mass(fbar, window, delta) == mass == F(23, 128)

    def test_exact_window_mass_and_l1_at_biased_p(self):
        # [DERIVED: oracle = per-word enumeration, weighted by
        #  cylinder_mass, of the averages summed from fbar's own table; at
        #  p != 1/2 the two symbols weigh differently, so a swapped weight
        #  in the kernels' folds shows]
        rng = random.Random(31)
        table = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(8)]
        window = range(3, 9)
        for prob in (F(1, 3), F(2, 5)):
            system = shift_system(prob)
            for f, delta in ((CylinderFn.word_indicator("01"), F(1, 8)),
                             (CylinderFn(3, table), F(3, 4))):
                fbar = centered(system, f)
                k = fbar.depth
                d_max = window.stop - 1 + k - 1
                mass = F(0)
                for w in range(1 << d_max):
                    word = format(w, f"0{d_max}b")
                    avgs = [sum(fbar.table[int(word[i:i + k], 2)]
                                for i in range(n)) / n for n in window]
                    if max(map(abs, avgs)) > delta:
                        mass += cylinder_mass(word, prob)
                assert 0 < mass < 1
                assert system.window_mass(fbar, window, delta) == mass
                for n in window:
                    d = n + k - 1
                    l1 = sum(cylinder_mass(word, prob) * abs(sum(
                        fbar.table[int(word[i:i + k], 2)]
                        for i in range(n))) / n
                        for word in (format(w, f"0{d}b")
                                     for w in range(1 << d)))
                    assert system.l1_norm(fbar, n) == l1

    def test_circle_window_mass_matches_envelope(self):
        # [DERIVED: oracle = mu of the envelope max_n |A_n fbar| over the
        # window, built from the averages by the segment-list lattice
        # (pl_reference) and rounded up to 2^-60 when its arcs are
        # irrational; the hat and seeded random piecewise-linear functions
        # with jumps on both circle maps (doubling at small n), at a delta
        # of a quarter of sup |fbar|; on the rotation some window has arcs
        # of different n that overlap, and arcs of different n that touch
        # at a Q[sqrt2] end, so the merge must join them]
        rng = random.Random(26)
        cases = [(DBL, centered(DBL, HAT), range(2, 7), F(1, 8)),
                 (ROT, centered(ROT, HAT), range(5, 30), F(1, 16))]
        for _ in range(3):
            for system, window in ((DBL, range(1, 6)), (ROT, range(2, 9))):
                fbar = centered(system, _random_pl(rng, rng.choice([6, 8,
                                                                    12])))
                cases.append((system, fbar, window, fbar.sup_norm() / 4))
        joined = 0
        for system, fbar, window, delta in cases:
            env, arcs = None, []
            for n in window:
                a = birkhoff_observable(system, fbar, n).segments
                a = ref.lattice(a, ref.scale(a, -1), max)
                arcs += [(n, arc) for arc in ref.arcs(a, delta, None)]
                env = a if env is None else ref.lattice(env, a, max)
            mass = ArcSet(ref.arcs(env, delta, None)).measure()
            if isinstance(mass, Quad):
                mass = mass.approx(60) + pow2(60)
            assert 0 < mass < 1
            assert system.window_mass(fbar, window, delta) == mass
            overlap = any(m != n and a < c < b
                          for n, (a, b) in arcs for m, (c, _) in arcs)
            touch = any(m != n and b == c and isinstance(b, Quad) and b.b
                        for n, (_, b) in arcs for m, (c, _) in arcs)
            joined += system is ROT and overlap and touch
        assert joined


class TestValidation:
    def test_window_empty_below_n0(self):
        # [DERIVED: pessimistic n0 exceeds a desk-scale horizon, so the
        # certified event is vacuous there and validation reports that]
        cert = as_rate_l1(SHIFT, FIRSTBIT, F(1, 4), F(1, 4))
        rep = validate_as(SHIFT, FIRSTBIT, cert, 16, "EXACT_CYLINDER")
        assert rep.window_empty and rep.passed and rep.measured_mass == 0

    def test_exact_validation_past_n0(self):
        # [DERIVED: the "01" AS_L1 certificate at delta = eps = 1/4 states
        # n0 = 3084.  Over [3084, 3086], |A_n fbar| > 1/4 asks for more
        # than n/2 occurrences of "01" among n, which only the alternating
        # word 0101...01 of 3086 symbols has (at n = 3085): the measured
        # mass is exactly 2^-3086, positive and within eps]
        f = CylinderFn.word_indicator("01")
        cert = as_rate_l1(SHIFT, f, F(1, 4), F(1, 4))
        assert cert.n0_or_m == 3084
        rep = validate_as(SHIFT, f, cert, 3086, "EXACT_CYLINDER")
        assert rep.n_start == 3084 and not rep.window_empty
        assert 0 < rep.measured_mass == pow2(3086) <= cert.epsilon
        assert rep.passed

    def test_exact_cylinder_mass_within_eps(self):
        # [DERIVED: forcing the window open by shrinking n0 still respects
        # the maximal-inequality budget at this small depth]
        cert = as_rate_l1(SHIFT, FIRSTBIT, F(1, 2), F(1, 2))
        cert.n0_or_m = 8
        rep = validate_as(SHIFT, FIRSTBIT, cert, 12, "EXACT_CYLINDER")
        assert not rep.window_empty
        assert rep.measured_mass <= F(1)
        assert isinstance(rep.measured_mass, F)

    def test_exact_arc_mode(self):
        # [DERIVED: doubling-map validation via arc envelopes]
        cert = as_rate_l1(DBL, HAT, F(1, 2), F(1, 2))
        cert.n0_or_m = min(cert.n0_or_m, 4)
        rep = validate_as(DBL, HAT, cert, 6, "EXACT_ARC")
        assert rep.measured_mass >= 0
        assert rep.measured_mass == F(3, 64)  # recorded from the arc kernel
        # without a mode the system's exact mode is used
        default = validate_as(DBL, HAT, cert, 6)
        assert default.mode == "EXACT_ARC"
        assert default.measured_mass == rep.measured_mass

    def test_norm_cert_rejected_for_horizon(self):
        # [TRIVIAL]
        cert = l_rate(SHIFT, FIRSTBIT, F(1, 4))
        with pytest.raises(InputError):
            validate_as(SHIFT, FIRSTBIT, cert, 8)
