"""End-to-end acceptance gate.

Each test covers one deliverable guarantee and prints a single
machine-readable pass/fail line to the terminal (bypassing capture), so a
full run reads as a checklist.  Exact checks carry zero tolerance; the
only approximate comparisons are the ones whose tolerances are part of
the guarantee itself.
"""

import time
from fractions import Fraction as F

from ergocert.arith import pow2
from ergocert.bc import (bc_exact_windows, horizon_tolerance, replay_synth,
                         synthesize_point, typical_point)
from ergocert.dynamics import (birkhoff_eval, birkhoff_observable, centered,
                               doubling_system, integral, l_norm_birkhoff,
                               rotation_system, shift_system)
from ergocert.measures import w1_ideal
from ergocert.observables import (CylinderFn, PiecewiseLinear,
                                  observable_from_json)
from ergocert.rates import as_rate_l1, check_certificate, validate_as
from ergocert.regions import cylinder_mass
from ergocert.spaces import CANTOR, CIRCLE, IdealBall

SHIFT = shift_system(F(1, 2))
DBL = doubling_system()
ROT = rotation_system()
FIRSTBIT = CylinderFn.coordinate(0)


def report(capsys, ok: bool, label: str, detail: str, t0: float):
    line = (f"[{'PASS' if ok else 'FAIL'}] {label}: {detail} "
            f"({time.time() - t0:.1f}s)")
    with capsys.disabled():
        print(line)
    assert ok, line


def test_certificate_replay_suite(capsys):
    # every emitted a.s. certificate across 3 systems x 3 observables x a
    # 3x3 (eps, delta) grid re-verifies through the standalone checker
    t0 = time.time()
    suite = [
        (SHIFT, [FIRSTBIT, CylinderFn.word_indicator("01"),
                 CylinderFn.coordinate(1)]),
        (DBL, [PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8)),
               PiecewiseLinear.identity(),
               PiecewiseLinear.hat(F(1, 4), F(1, 8), F(1, 16))]),
        (ROT, [PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8)),
               PiecewiseLinear.hat(F(0), F(1, 8), F(1, 8)),
               PiecewiseLinear.hat(F(1, 3), F(1, 6), F(1, 12))]),
    ]
    grid = (F(1, 2), F(1, 4), F(1, 8))
    total = good = 0
    for system, fs in suite:
        for f in fs:
            for eps in grid:
                for delta in grid:
                    cert = as_rate_l1(system, f, eps, delta)
                    ok, _ = check_certificate(cert)
                    total += 1
                    good += ok
    elapsed_ok = time.time() - t0 < 300
    report(capsys, good == total and elapsed_ok, "certificate replay",
           f"{good}/{total} certificates re-verified, under 5 min", t0)


def test_exact_validation_of_as_certificates(capsys):
    # exact horizon-16 cylinder measurement of the certified deviation
    # event stays within the certified eps, zero tolerance
    t0 = time.time()
    obs = [FIRSTBIT, CylinderFn.word_indicator("01")]
    ok = True
    for f in obs:
        cert = as_rate_l1(SHIFT, f, F(1, 4), F(1, 4))
        rep = validate_as(SHIFT, f, cert, 16, "EXACT_CYLINDER")
        ok = ok and rep.passed and rep.measured_mass <= cert.epsilon
    elapsed_ok = time.time() - t0 < 120
    report(capsys, ok and elapsed_ok, "exact a.s. validation",
           "horizon-16 deviation mass <= certified eps for both "
           "observables, under 2 min", t0)


def test_maximal_ergodic_inequality(capsys):
    # exact mu(max_{n<=12} |A_n fbar| > delta) <= ||fbar||_1 / delta,
    # measured by full depth-12 enumeration
    t0 = time.time()
    fbar = centered(SHIFT, FIRSTBIT)
    horizon = 12
    depth = horizon + fbar.depth - 1
    avgs = [birkhoff_observable(SHIFT, fbar, n).lift(depth)
            for n in range(1, horizon + 1)]
    l1 = l_norm_birkhoff(SHIFT, FIRSTBIT, 1)
    ok = True
    for delta in (F(1, 4), F(1, 2), F(3, 4)):
        mass = F(0)
        for w in range(1 << depth):
            word = format(w, f"0{depth}b")
            if max(abs(a.value_on_word(word)) for a in avgs) > delta:
                mass += cylinder_mass(word, F(1, 2))
        ok = ok and mass <= l1 / delta
    report(capsys, ok, "maximal ergodic inequality",
           "exact mass <= ||fbar||_1/delta for delta in {1/4, 1/2, 3/4}",
           t0)


def test_inequality_chain(capsys):
    # exact ||A_{np+k}||_1 <= ||A_p||_1 + ||fbar||_1/n for all p <= 4,
    # n <= 4, k < p, on the shift and the doubling map
    t0 = time.time()
    ok = True
    checked = 0
    for system, f in ((SHIFT, FIRSTBIT), (DBL, PiecewiseLinear.identity())):
        fbar_l1 = l_norm_birkhoff(system, f, 1)
        cache: dict = {}

        def norm(m):
            if m not in cache:
                cache[m] = l_norm_birkhoff(system, f, m)
            return cache[m]

        for p in range(1, 5):
            for n in range(1, 5):
                for k in range(p):
                    ok = ok and norm(n * p + k) <= norm(p) + fbar_l1 / n
                    checked += 1
        cache.clear()
    report(capsys, ok, "inequality chain",
           f"{checked} exact norm comparisons, zero tolerance", t0)


def test_w1_oracle_equivalence(capsys):
    # solver value equals the brute-force minimum over transport-polytope
    # vertices on 200 random small instances
    import random

    from test_measures import rand_measure, vertex_minimum
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    for i in range(200):
        space = CIRCLE if i % 2 == 0 else CANTOR
        mu1, mu2 = rand_measure(rng, space), rand_measure(rng, space)
        value, plan = w1_ideal(space, mu1, mu2)
        ok = ok and plan.check_marginals(mu1, mu2)
        ok = ok and value == vertex_minimum(space, mu1, mu2)
    elapsed_ok = time.time() - t0 < 60
    report(capsys, ok and elapsed_ok, "W1 oracle equivalence",
           "200/200 instances match the vertex enumeration, under 1 min",
           t0)


def test_pseudorandom_point_typicality(capsys):
    # a point generic for the first 3 canonical observables on the
    # doubling map: every certified window replays by interval
    # evaluation, and the horizon-2^10 average of each tracked observable
    # stays within the carried window tolerance plus 2^-10
    t0 = time.time()
    sp = typical_point(DBL, members=3, windows=6)
    rep = replay_synth(DBL, sp, check_eval=True)
    ok = rep["ok"]
    tol = horizon_tolerance(sp) + pow2(10)
    for ob in sp.track:
        f = observable_from_json(ob)
        box = birkhoff_eval(DBL, f, sp.point, 1 << 10, 10)
        mean = integral(DBL, f)
        dev = max(abs(box.lo - mean), abs(box.hi - mean))
        ok = ok and dev <= tol
    elapsed_ok = time.time() - t0 < 600
    report(capsys, ok and elapsed_ok, "pseudorandom point typicality",
           "windows replay and horizon-1024 averages meet the carried "
           "tolerance, under 10 min", t0)


def test_rotation_cross_check(capsys):
    # a synthesized rotation point averages the bump g_{1/2,1/4,1/8} to
    # within 10^-2 of its integral 5/8 at n = 10^4
    t0 = time.time()
    hat = PiecewiseLinear.hat(F(1, 2), F(1, 4), F(1, 8))
    bc = bc_exact_windows(ROT, hat, caps=lambda j: pow2(j), count=6)
    sp = synthesize_point(ROT, bc, IdealBall(CIRCLE, F(1, 2), F(1, 2)),
                          windows=4, track=[hat])
    ok = replay_synth(ROT, sp)["ok"]
    box = birkhoff_eval(ROT, hat, sp.point, 10 ** 4, 8)
    dev = max(abs(box.lo - F(5, 8)), abs(box.hi - F(5, 8)))
    ok = ok and dev < F(1, 100)
    elapsed_ok = time.time() - t0 < 60
    report(capsys, ok and elapsed_ok, "rotation cross-check",
           f"|A_10000 - 5/8| = {float(dev):.2e} < 1e-2, under 1 min", t0)


def test_float_collapse_contrast(capsys):
    # IEEE doubles send the orbit of 1/10 to exactly 0 within 64 doubling
    # steps; the exact orbit is eventually periodic with period dividing
    # ord(2 mod 5) = 4 and never reaches 0
    t0 = time.time()
    xf = 0.1
    hit = None
    for i in range(1, 65):
        xf = (2.0 * xf) % 1.0
        if xf == 0.0:
            hit = i
            break
    seen: dict = {}
    xr = F(1, 10)
    period = None
    never_zero = True
    for i in range(200):
        never_zero = never_zero and xr != 0
        if xr in seen:
            period = i - seen[xr]
            break
        seen[xr] = i
        xr = (2 * xr) % 1
    ok = hit is not None and period is not None and 4 % period == 0 \
        and never_zero
    report(capsys, ok, "float collapse contrast",
           f"float orbit hits 0 at step {hit}; exact orbit has period "
           f"{period} and never vanishes", t0)


def test_borel_cantelli_machinery(capsys):
    # with exact cylinder windows of depth <= 12, the measure of every
    # tail intersection dominates 1 - sum of the remaining certified
    # errors, zero tolerance
    t0 = time.time()
    bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                          count=6, max_n=12)
    ok = True
    J = 6
    for k in range(1, 4):
        inter = None
        for j in range(k, J + 1):
            r = bc.window(j).region
            inter = r if inter is None else inter.intersect(r)
        mass = inter.measure(F(1, 2))
        tail = sum(bc.window(j).err for j in range(k, J + 1))
        ok = ok and mass >= 1 - tail
    report(capsys, ok, "Borel-Cantelli machinery",
           "exact tail-intersection masses dominate 1 - summed errors "
           "for k <= 3, J <= 6", t0)
