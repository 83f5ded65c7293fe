"""Every function defined in src/, and every statement in it, is one the
program runs.

A function, method or dunder (nested ones included) that no command line
reaches is code the program carries without using; so is a statement that
no command line runs inside a function that does run: a second input
form, a fallback, a coercion no caller needs.  The gate runs the fixed
argv lines of LINES through `cli.main`, in order, in one new interpreter
under `sys.settrace`, and records every src/ function that starts and the
lines that run in it; each line must end with its expected exit code.

Functions: one that never ran fails the gate unless perfbench/ reads its
name (it is timed, traced or called there) or KEPT keeps it, with the
reason why.  Matching by the running code, not by name, means a dead
method cannot hide behind a live one of the same spelling.

Statements: in each function that started, a statement that never ran
fails the gate unless it is a refusal or KEPT_BRANCHES names its function,
with the reason why.  A statement is known by its first line and counts
once, however many lines it spans; it ran when a line event fell on one
of its own lines or a statement nested in it ran.  A compound statement
written on one line shares it with its body, so each counts as run when
the other does.  A refusal is a `raise` or `return NotImplemented`, a
check-failure report (`return False, ...` or `failures.append(...)`), a
statement inside an `except` handler, or a statement of a block that ends
in a refusal, a `continue` after a report included.  A function's own body
is no such block: one that ends in a raise still does its work before it.
Refusals answer inputs from outside the program, which the tests feed.
The gate sees statements, not the branches of an expression (`x if c
else y`, `and`, `or`).
A KEPT or KEPT_BRANCHES entry whose name no longer needs it, or is gone,
fails too.  A function that never starts is the function gate's alone."""

import ast
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergocert"
PERFBENCH = ROOT / "perfbench"
CORPUS = PERFBENCH / "corpus"

#: functions no argv line reaches, each kept on purpose
KEPT = {
    "bc.horizon_tolerance":
        "tests/test_acceptance.py reads a point's carried tolerance with it",
    "spaces.cantor_dist":
        "Cantor space's metric (`dist`): W1 costs a plan from branch "
        "depths, and the tests hold that sum to this metric",
    "dynamics.Shift.average":
        "the acceptance test's exact shift average, through "
        "birkhoff_observable; the program averages only on the circle",
    "arith.Quad.__hash__":
        "a Quad defines ==, so without it a Quad is unhashable; it must "
        "hash like the Fraction it equals",
}

#: functions with a statement that no argv line runs and that is no
#: refusal (see the module docstring), each kept on purpose
KEPT_BRANCHES = {
    "arith.Quad.__eq__":
        "Quad == Quad: the tests compare sums' Q[sqrt2] segments with "
        "pl_reference's; the program compares a Quad with rationals only",
    "arith.Quad.__mul__":
        "Quad times Quad, which pl_reference's arithmetic reads (20 tests "
        "fail without it); the program multiplies a Quad by rationals only",
    "arith.Quad.floor":
        "soundness guard: the loops correct a floor read from a 2^-4 "
        "approximation that lands across an integer, which no Quad the "
        "program builds does",
    "cli._cmd_validate":
        "soundness guard: the exit of a validation whose measured mass "
        "exceeds the certified epsilon, which a sound certificate never "
        "reaches",
    "regions.ArcSet.contains_ball":
        "a ball across 0 lies in an arc set only when the set is the whole "
        "circle; the witnesses synthesis records never cross 0, a forged "
        "one may",
    "dynamics.CircleMap.window_mass":
        "the rounding of a rotation window's Q[sqrt2] mass: every "
        "rotation certificate's n0 leaves its tails empty (ROADMAP AI)",
    "regions.ArcSet.measure":
        "the Q[sqrt2] length of the rotation's unrounded tails, read only "
        "by `CircleMap.window_mass` (above)",
    "regions._joined":
        "the union of the rotation's unrounded tails, built only for "
        "`CircleMap.window_mass` (above)",
    "measures.TransportPlan.__init__":
        "the plan from rational (i, j, amount) triples, which "
        "perfbench/checks.py builds",
    "observables._form_sum":
        "forms that share a breakpoint, and translates whose jumps meet: "
        "pl_sum of several forms or of rational offsets, which the tests "
        "hold to pl_reference; the program sums one form and the "
        "translates by multiples of an irrational angle",
    "observables._segments":
        "the Q[sqrt2] segments of a sum, the view by which the tests hold "
        "the rotation's S_n to pl_reference",
}

FIRSTBIT = '{"variant": "cylinder", "depth": 1, "table": ["0", "1"]}'
HAT_DBL = ('{"variant": "piecewise_linear", "segments": '
           '[["0", "1/4", "0", "0"], ["1/4", "3/8", "0", "1"],'
           ' ["3/8", "5/8", "1", "1"], ["5/8", "3/4", "1", "0"],'
           ' ["3/4", "1", "0", "0"]]}')
HAT_ROT = ('{"variant": "piecewise_linear", "segments": '
           '[["0", "1/8", "0", "0"], ["1/8", "1/4", "0", "1"],'
           ' ["1/4", "3/4", "1", "1"], ["3/4", "7/8", "1", "0"],'
           ' ["7/8", "1", "0", "0"]]}')
TINY_HAT = ('{"variant": "piecewise_linear", "segments": '
            '[["0", "1/8", "0", "0"], ["1/8", "1/4", "0", "1/100"],'
            ' ["1/4", "3/4", "1/100", "1/100"],'
            ' ["3/4", "7/8", "1/100", "0"], ["7/8", "1", "0", "0"]]}')
IDENTITY = ('{"variant": "piecewise_linear", "breakpoints": ["0", "1"], '
            '"values": ["0", "1"]}')
#: x1 - x2, a coboundary: its correlations sum to zero variance
COBOUNDARY = ('{"variant": "cylinder", "depth": 2, '
              '"table": ["0", "-1", "1", "0"]}')
#: circular interpolation from 1/4: two collinear segments, and collinear
#: across 1/4, where the unrolled function starts
BENT = ('{"variant": "piecewise_linear", "breakpoints": '
        '["1/4", "1/2", "3/4", "7/8"], "values": ["0", "1", "2", "-3/2"]}')
NARROW = ('{"variant": "piecewise_linear", "segments": '
          '[["0", "31/64", "0", "0"], ["31/64", "1/2", "0", "1"],'
          ' ["1/2", "33/64", "1", "0"], ["33/64", "1", "0", "0"]]}')


def _gen(space, s, r, eps="1/4"):
    return {"op": "gen", "space": space, "s": s, "r": r, "eps": eps}


def _fterm(expr) -> str:
    return json.dumps({"variant": "fterm", "expr": expr})


FTERM_CANTOR = _fterm(_gen("cantor", "01", "1/16384"))
#: 0 times a bump, plus 1: a constant, so A_p fbar = 0
FTERM_ZERO = _fterm({"op": "lin", "terms": [
    ["0", _gen("circle", "1/3", "1/8")], ["1", {"op": "one"}]]})
FTERM_CIRCLE = _fterm({"op": "lin", "terms": [
    ["1/2", {"op": "max", "args": [_gen("circle", "1/3", "1/8"),
                                   _gen("circle", "2/3", "1/8")]}],
    ["-1", {"op": "min", "args": [{"op": "one"},
                                  _gen("circle", "0", "1/4")]}]]})
CIRCLE_TARGET = '{"space": "circle", "center": "3/4", "radius": "1/8"}'
DYADIC_TARGET = '{"space": "circle", "center": "5/8", "radius": "3/8"}'
CANTOR_TARGET = '{"space": "cantor", "center": "1", "radius": "3/4"}'
SYSTEMS = {"doubling": HAT_DBL, "rotation": HAT_ROT, "shift:p=1/2": FIRSTBIT}
KINDS = {"norm-l1": ["--eps", "1/4"], "norm-l2": ["--eps", "1/8"],
         "as-bounded": ["--eps", "1/4", "--delta", "1/2"],
         "as-l1": ["--eps", "1/4", "--delta", "1/4"]}


def _per_kind_and_system() -> list:
    """rate, replay and validate of each kind on each system; an a.s.
    certificate is also measured against a horizon."""
    lines = []
    for system, obs in SYSTEMS.items():
        for kind, args in KINDS.items():
            art = f"{{tmp}}/{system.split(':')[0]}_{kind}.json"
            lines += [(0, ["rate", "--system", system, "--observable", obs,
                           "--kind", kind, *args, "--output", art]),
                      (0, ["replay", "--artifact", art]),
                      (0, ["validate", "--certificate", art])]
            if kind.startswith("as-"):
                lines.append((0, ["validate", "--certificate", art,
                                  "--horizon", "8"]))
    return lines


#: (expected exit code, argv); {tmp} is a directory `_inputs` fills and
#: {corpus} is perfbench/corpus
LINES = [
    # the CI console-script lines (the 10^4-atom W1 pairs at 100 atoms)
    (0, ["systems"]),
    (1, ["replay", "--artifact", "{tmp}/p-3.json"]),
    (1, ["replay", "--artifact", "{tmp}/forged.json"]),
    (1, ["validate", "--certificate", "{tmp}/forged.json",
         "--horizon", "16"]),
    (1, ["replay", "--artifact", "{tmp}/route_missing.json"]),
    (0, ["replay", "--artifact", "{tmp}/route_l1.json"]),
    (1, ["rate", "--kind", "bogus", "--system", "doubling", "--observable",
         "x", "--eps", "1"]),
    (1, ["validate", "--certificate",
         "{corpus}/cert_rotation_hat_a_as-l1_1-4_1-4.json", "--horizon", "8",
         "--mode", "SAMPLED"]),
    (0, ["typical", "--system", "doubling", "--members", "2", "--windows",
         "3", "--output", "{tmp}/t.json"]),
    (0, ["replay", "--artifact", "{tmp}/t.json"]),
    (0, ["synthesize", "--system", "rotation", "--observable", TINY_HAT,
         "--target", CIRCLE_TARGET, "--count", "6", "--windows", "4",
         "--output", "{tmp}/circle.json"]),
    (0, ["replay", "--artifact", "{tmp}/circle.json"]),
    (0, ["synthesize", "--system", "doubling", "--observable", IDENTITY,
         "--target", DYADIC_TARGET, "--count", "6", "--windows", "4",
         "--output", "{tmp}/doubling.json"]),
    (0, ["replay", "--artifact", "{tmp}/doubling.json"]),
    (1, ["rate", "--system", "shift:p=1/2", "--observable",
         '{"variant":"cylinder","depth":100000000000,"table":["0"]}',
         "--eps", "1/4"]),
    (0, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system",
         "shift:p=1/2", "--observable", "{tmp}/cyl12.json"]),
    (0, ["rate", "--kind", "as-l1", "--eps", "1/4", "--delta", "1/4",
         "--system", "shift:p=1/3", "--observable", "{tmp}/cyl12.json"]),
    (0, ["rate", "--kind", "norm-l1", "--eps", "1/4", "--system",
         "shift:p=1/2", "--observable", "{tmp}/cyl17.json", "--output",
         "{tmp}/cyl17.out"]),
    (0, ["replay", "--artifact", "{tmp}/cyl17.out"]),
    (0, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system",
         "shift:p=1/2", "--observable", FTERM_CANTOR]),
    (0, ["validate", "--certificate",
         "{corpus}/cert_shift1-3_first_bit_as-bounded_1-4_1-2.json",
         "--horizon", "319"]),
    (2, ["validate", "--certificate",
         "{corpus}/cert_shift1-3_first_bit_as-bounded_1-4_1-2.json",
         "--horizon", "100000000"]),
    (0, ["w1", "--space", "circle", "--mu1", "{tmp}/w1_circle1.json",
         "--mu2", "{tmp}/w1_circle2.json"]),
    (0, ["w1", "--space", "cantor", "--mu1", "{tmp}/w1_cantor1.json",
         "--mu2", "{tmp}/w1_cantor2.json"]),
    *[(2, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system",
           "shift:p=1/2", "--observable", _fterm(_gen("cantor", "01", r))])
      for r in ("1/1048576", "1/16777216")],
    *[(1, ["replay", "--artifact", f"{{tmp}}/{point}_{field}.json"])
      for point in ("synth_doubling_hat_a", "synth_shift1-3_first_bit")
      for field in ("err", "lambda", "witness_pos")],
    # every kind on every system
    *_per_kind_and_system(),
    # a horizon past n0 on the shift measures the window (n0 = 2)
    (0, ["rate", "--kind", "as-bounded", "--system", "shift:p=1/2",
         "--observable", FIRSTBIT, "--eps", "1", "--delta", "1",
         "--output", "{tmp}/n0_2.json"]),
    (0, ["validate", "--certificate", "{tmp}/n0_2.json", "--horizon", "10"]),
    (0, ["validate", "--certificate", "{tmp}/n0_2.json", "--horizon", "10",
         "--mode", "EXACT_CYLINDER"]),
    # a horizon past n0 on the doubling map measures the narrow bump's
    # window from each S_n's two one-sided tails (`arcs_above`,
    # `arcs_below`)
    (0, ["rate", "--kind", "as-bounded", "--eps", "1", "--delta", "1/4",
         "--system", "doubling", "--observable", NARROW, "--output",
         "{tmp}/narrow.json"]),
    (0, ["validate", "--certificate", "{tmp}/narrow.json", "--horizon",
         "12"]),
    # the rotation's n0 = 52: the circle window measured, then priced
    (0, ["validate", "--certificate",
         "{corpus}/cert_rotation_hat_c_as-bounded_1-4_1-2.json",
         "--horizon", "52"]),
    (2, ["validate", "--certificate",
         "{corpus}/cert_rotation_hat_c_as-bounded_1-4_1-2.json",
         "--horizon", "100000"]),
    # synthesize, typical and w1 on each system and space
    (0, ["synthesize", "--system", "doubling", "--observable", HAT_DBL,
         "--target", CIRCLE_TARGET, "--output", "{tmp}/s_dbl.json"]),
    (0, ["replay", "--artifact", "{tmp}/s_dbl.json", "--fast"]),
    (0, ["synthesize", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
         "--target", CANTOR_TARGET, "--output", "{tmp}/s_shift.json"]),
    (0, ["replay", "--artifact", "{tmp}/s_shift.json"]),
    (0, ["typical", "--system", "rotation", "--members", "2", "--windows",
         "3"]),
    (0, ["typical", "--system", "shift:p=1/2", "--members", "5"]),
    (0, ["rate", "--kind", "norm-l1", "--eps", "1/4", "--system", "doubling",
         "--observable", FTERM_CIRCLE]),
    (0, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system", "doubling",
         "--observable", IDENTITY]),
    (0, ["demo-float"]),
    # the corpus, as CI replays it
    *[(0, ["replay", "--artifact", f"{{corpus}}/{name}"])
      for name in ("synth_doubling_hat_a.json", "synth_rotation_hat_a.json",
                   "synth_shift1-3_first_bit.json", "typical_rotation.json")],
    # input, usage and budget errors
    (1, []),
    (1, ["rate", "--system", "doubling"]),
    (1, ["validate", "--certificate", "x", "--horizon", "abc"]),
    (1, ["demo-float", "--steps", "-3"]),
    (1, ["rate", "--system", "lorenz", "--observable", HAT_DBL,
         "--eps", "1/4"]),
    (1, ["rate", "--system", "shift:p=3/2", "--observable", FIRSTBIT,
         "--eps", "1/4"]),
    (1, ["rate", "--system", "doubling", "--observable", FIRSTBIT,
         "--eps", "1/4"]),
    (1, ["rate", "--system", "doubling", "--observable", "{", "--eps",
         "1/4"]),
    (1, ["rate", "--system", "doubling", "--observable",
         "{tmp}/missing.json", "--eps", "1/4"]),
    (1, ["rate", "--system", "doubling", "--observable", HAT_DBL,
         "--eps", "0"]),
    (1, ["rate", "--system", "doubling", "--observable", HAT_DBL,
         "--eps", "1/0"]),
    (1, ["rate", "--system", "doubling", "--observable", HAT_DBL,
         "--eps", "1/4", "--kind", "as-l1"]),
    (1, ["rate", "--system", "doubling", "--observable",
         '{"variant": "spline"}', "--eps", "1/4"]),
    (1, ["validate", "--certificate", "{tmp}/doubling_norm-l1.json",
         "--horizon", "8"]),
    (1, ["replay", "--artifact", "{tmp}/negative.json"]),
    (1, ["replay", "--artifact", '{"x": 1}']),
    (1, ["replay", "--artifact", "{tmp}/missing.json"]),
    (1, ["systems", "--output", "{tmp}/missing/x.json"]),
    (1, ["synthesize", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
         "--target", CANTOR_TARGET, "--windows", "-1"]),
    (1, ["synthesize", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
         "--target", CIRCLE_TARGET]),
    (1, ["typical", "--system", "doubling", "--members", "0"]),
    (1, ["w1", "--space", "circle", "--mu1", '[["0", "1"]]',
         "--mu2", '[["1/2", "1/2"]]']),
    # strings and objects where JSON lists belong, a double out of range
    # and JSON nested past the parser's recursion limit
    (1, ["w1", "--space", "cantor", "--mu1", '["01"]',
         "--mu2", '[["0", "1"]]']),
    (1, ["w1", "--space", "circle", "--mu1", '{"01": "x"}',
         "--mu2", '[["0", "1"]]']),
    (1, ["rate", "--system", "shift:p=1/2", "--observable",
         '{"variant": "cylinder", "depth": 2, "table": "0110"}',
         "--eps", "1/4", "--delta", "1/4"]),
    (1, ["rate", "--system", "doubling", "--observable",
         '{"variant": "piecewise_linear", "segments": ["0111"]}',
         "--eps", "1/4", "--delta", "1/4"]),
    (1, ["rate", "--system", "doubling", "--observable",
         '{"variant": "piecewise_linear", "breakpoints": "01", '
         '"values": "01"}', "--eps", "1/4", "--delta", "1/4"]),
    (1, ["demo-float", "--x0", "1e400"]),
    (1, ["w1", "--space", "cantor", "--mu1", "{tmp}/deep.json",
         "--mu2", '[["0", "1"]]']),
    (1, ["rate", "--system", "doubling", "--observable",
         "{tmp}/deep_fterm.json", "--eps", "1/4", "--kind", "norm-l2"]),
    # W1 weights: a zero denominator, a negative weight, weights summing
    # to 3/2 and one circle point spelled two ways are refused; weights in
    # spellings other than the plain reduced one are read
    *[(1, ["w1", "--space", space, "--mu1", mu1, "--mu2", '[["0", "1"]]'])
      for space, mu1 in (
          ("circle", '[["0", "1/0"]]'),
          ("circle", '[["0", "-1/2"], ["1/2", "3/2"]]'),
          ("cantor", '[["0", "1"], ["1", "1/2"]]'),
          ("circle", '[["1/2", "1/2"], ["2/4", "1/2"]]'))],
    (0, ["w1", "--space", "circle",
         "--mu1", '[["0", " 1/2 "], ["1/3", "0.5"]]',
         "--mu2", '[["1/4", "2/4"], ["3/4", "+1/2"]]']),
    # input cases that take a branch no line above takes: both orbits of
    # 1/2 reach 0, the float one at the last step; a zero coefficient and
    # a coboundary, whose averages have norm 0; a breakpoint form merged
    # and rotated back to its first breakpoint; a shift window of a
    # constant and of depth 2, replayed; no window, so the point comes
    # from the target ball itself; a point whose first enclosure of an
    # average straddles the identity's jump at 0, so replay refines it;
    # ideal points past index 0, with a
    # candidate that a later window leaves no mass; windows past a typical
    # sequence's list; an L2 certificate naming the L1 route; Cantor radii
    # of no cylinder
    (0, ["demo-float", "--x0", "1/2", "--steps", "1"]),
    (0, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system", "doubling",
         "--observable", FTERM_ZERO]),
    (0, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system",
         "shift:p=1/2", "--observable", COBOUNDARY]),
    (0, ["rate", "--kind", "norm-l2", "--eps", "1/4", "--system", "doubling",
         "--observable", BENT]),
    *[line for table, name in ((COBOUNDARY, "cob"), (
        '{"variant": "cylinder", "depth": 0, "table": ["1"]}', "const"))
      for line in (
          (0, ["synthesize", "--system", "shift:p=1/2", "--observable", table,
               "--target", CANTOR_TARGET, "--output", f"{{tmp}}/{name}.json"]),
          (0, ["replay", "--artifact", f"{{tmp}}/{name}.json"]))],
    (0, ["synthesize", "--system", "doubling", "--observable", HAT_DBL,
         "--target", CIRCLE_TARGET, "--windows", "0"]),
    (0, ["synthesize", "--system", "doubling", "--observable", IDENTITY,
         "--target", CIRCLE_TARGET, "--output", "{tmp}/jump.json"]),
    (0, ["replay", "--artifact", "{tmp}/jump.json"]),
    (0, ["typical", "--system", "doubling", "--members", "6", "--windows",
         "30"]),
    (0, ["typical", "--system", "doubling", "--members", "2", "--windows",
         "30"]),
    (0, ["typical", "--system", "shift:p=1/2", "--members", "14",
         "--windows", "1"]),
    (1, ["replay", "--artifact", "{tmp}/route_l2.json"]),
    *[(1, ["synthesize", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
           "--target", json.dumps({"space": "cantor", "center": "1",
                                   "radius": r})])
      for r in ("1/2", "3/10")],
]


def _inputs(tmp: Path) -> None:
    """The files LINES reads from {tmp}, built from the corpus as the CI
    lines build them."""
    def load(name):
        return json.loads((CORPUS / name).read_text())

    def dump(name, data):
        (tmp / name).write_text(json.dumps(data))

    dump("p-3.json", {**load("cert_shift1-2_coord1_norm-l2_1-8.json"),
                      "p": -3})
    dump("forged.json", {**load("cert_shift1-2_first_bit_norm-l1_1-4.json"),
                         "delta": "1/4", "guarantee":
                         "mu(sup_(n>=40) |A_n(f-int f)| > 1/4) <= 1/4"})
    dump("route_missing.json", {
        **load("cert_rotation_hat_a_as-bounded_1-4_1-2.json"),
        "norm_method": "l2-upper"})
    dump("route_l2.json", {**load("cert_shift1-2_coord1_norm-l2_1-8.json"),
                           "norm_method": "l1-exact"})
    dump("route_l1.json", {**load("cert_shift1-2_w01_as-bounded_1-4_1-2.json"),
                           "norm_method": "l1-exact"})
    dump("negative.json", {
        **load("cert_shift1-2_w01_as-bounded_1-4_1-2.json"),
        "epsilon": "-1/4", "delta": "-1/2", "n0_or_m": 1,
        "guarantee": "mu(sup_(n>=1) |A_n(f-int f)| > -1/2) <= -1/4"})
    (tmp / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (tmp / "deep_fterm.json").write_text(
        '{"variant": "fterm", "expr": ' + '{"op": "max", "args": [' * 5000
        + '{"op": "one"}' + ', {"op": "one"}]}' * 5000 + "}")
    r = random.Random(12)
    dump("cyl12.json", {"variant": "cylinder", "depth": 12, "table": [
        f"{r.randint(-9, 9)}/{r.randint(1, 9)}" for _ in range(1 << 12)]})
    r = random.Random(17)
    dump("cyl17.json", {"variant": "cylinder", "depth": 17, "table": [
        f"{r.randint(-9, 9)}/{r.randint(1, 9)}" for _ in range(1 << 17)]})
    for s in ("circle", "cantor"):
        for k in (1, 2):
            r = random.Random(s + str(k))
            pts = ([f"{x}/1048576" for x in r.sample(range(1 << 20), 100)]
                   if s == "circle" else list(dict.fromkeys(
                       format(r.getrandbits(m), f"0{m}b")
                       for m in (r.randint(1, 24) for _ in range(300))))[:100])
            ws = [r.randint(1, 20) for _ in pts]
            dump(f"w1_{s}{k}.json", [[p, str(Fraction(w, sum(ws)))]
                                     for p, w in zip(pts, ws)])
    for point in ("synth_doubling_hat_a", "synth_shift1-3_first_bit"):
        for field, value in (("err", "1/2"), ("lambda", "-5"),
                             ("witness_pos", 999)):
            d = load(f"{point}.json")
            for c in d["certs"]:
                if field != "err" or not c["trivial"]:
                    c[field] = value
            dump(f"{point}_{field}.json", d)


#: runs the argv lines of a JSON list on stdin through `main` of the
#: module argv[2], imported from the directory argv[1], under a trace hook
#: on the frames of code under argv[1]
_RUNNER = r"""
import contextlib, importlib, io, json, sys
root = sys.argv[1]
sys.path.insert(0, root)
lines = json.load(sys.stdin)
started, ran = set(), set()

def line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(root):
        started.add((code.co_filename, code.co_firstlineno))
        return line

sys.settrace(call)
main = importlib.import_module(sys.argv[2]).main
codes = []
for argv in lines:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "called": sorted(started),
                  "ran": sorted(ran)}))
"""


def run_lines(argvs: list, src: Path, entry: str) -> dict:
    """{"codes", "called", "ran"} of `argvs` run in order through
    `entry`.main, `entry` a module of the package `src`, in a new
    interpreter: called holds (file, first line) of every function of
    `src` that started, ran (file, line) of every line event in them."""
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(src.parent), entry],
        input=json.dumps(argvs), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _functions(src: Path) -> list:
    """(qualified name, file, {(file, line)}, statements) of every function
    in `src`, methods and nested functions included, each file named as the
    code imported from `src` names it.  A code object's first line is its
    first decorator's, so a decorated function is known by that line and
    by its `def` line; statements is `_statements` of its body."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {child.lineno} | {d.lineno
                                          for d in child.decorator_list}
                out.append((f"{prefix}.{name}", path,
                            {(path, line) for line in lines},
                            _statements(child.body)))
            walk(child, path, f"{prefix}.{name}" if name else prefix)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem)
    return out


def _refuses(block) -> bool:
    """Whether `block` ends in a refusal: a raise, `return NotImplemented`,
    or a check-failure report, `return False, ...` or
    `failures.append(...)`, with or without a `continue` after it."""
    if isinstance(block[-1], ast.Continue) and len(block) > 1:
        block = block[:-1]
    last = block[-1]
    value = getattr(last, "value", None)
    target = getattr(value, "func", None)
    if isinstance(last, ast.Raise):
        return True
    if isinstance(last, ast.Return):
        return (isinstance(value, ast.Name) and value.id == "NotImplemented"
                or isinstance(value, ast.Tuple) and bool(value.elts)
                and isinstance(value.elts[0], ast.Constant)
                and value.elts[0].value is False)
    return (isinstance(last, ast.Expr) and isinstance(value, ast.Call)
            and isinstance(target, ast.Attribute) and target.attr == "append"
            and isinstance(target.value, ast.Name)
            and target.value.id == "failures")


def _blocks(stmt) -> list:
    """(block, whether it is an except handler's) of each statement list
    nested in `stmt`, a nested function's or class's body included."""
    return ([(getattr(stmt, f), False) for f in ("body", "orelse",
                                                 "finalbody")
             if getattr(stmt, f, None)]
            + [(h.body, True) for h in getattr(stmt, "handlers", ())]
            + [(c.body, False) for c in getattr(stmt, "cases", ())])


def _own_lines(stmt) -> set:
    """The lines of `stmt` outside the statements nested in it: all of a
    simple statement, however many lines it spans, and the header of a
    compound one, decorators included."""
    first = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", ())])
    lines = set(range(first, stmt.end_lineno + 1))
    for block, _ in _blocks(stmt):
        for inner in block:
            lines -= set(range(inner.lineno, inner.end_lineno + 1))
    return lines


def _statements(block, exempt=False) -> list:
    """(statement, own lines, exempt, nested) of each statement of `block`,
    a function's body, that runs code (a docstring or `global` runs none),
    nested the same list of the statements inside it; a nested function's
    or class's body is its own.  A statement is exempt when it is a
    refusal (`_refuses`), in an except handler, or in a block nested in a
    statement that ends in a refusal.
    A function's body that ends in a raise is no refusal: the statements
    before it are the function's work, the raise its last resort."""
    return [(s, _own_lines(s), exempt or _refuses([s]),
             [] if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
             else [n for inner, handler in _blocks(s)
                   for n in _statements(inner, exempt or handler
                                        or _refuses(inner))])
            for s in block
            if not isinstance(s, (ast.Global, ast.Nonlocal))
            and not (isinstance(s, ast.Expr)
                     and isinstance(s.value, ast.Constant))]


def _missed(statements, ran: set, out: list) -> bool:
    """Whether any of `statements` ran; appends to `out` the first line of
    each that never ran and is not exempt.  A statement ran when a line
    event fell on its own lines or a statement nested in it ran (a `try:`
    line has no event of its own)."""
    any_ran = False
    for stmt, own, exempt, nested in statements:
        here = _missed(nested, ran, out) | bool(own & ran)
        if not (here or exempt):
            out.append(stmt.lineno)
        any_ran |= here
    return any_ran


def unreached(out: dict, src: Path) -> dict:
    """{qualified name: first lines} of the statements that never ran under
    `run_lines`' answer `out` and are no refusal, in each function of
    `src` that started."""
    started = set(map(tuple, out["called"]))
    ran = {}
    for f, line in out["ran"]:
        ran.setdefault(f, set()).add(line)
    found = {}
    for q, path, keys, statements in _functions(src):
        missed = []
        if keys & started:
            _missed(statements, ran.get(path, set()), missed)
        if missed:
            found[q] = sorted(missed)
    return found


def _refs(node, attributes_only=False) -> set:
    """Names read inside `node`: attribute names and, unless
    `attributes_only`, bare names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                and not attributes_only:
            out.add(n.id)
    return out


def _bench_refs(perfbench: Path) -> set:
    """Names perfbench/ reads in code as an attribute or as a bare name it
    imports from ergocert, or names as a dotted target string such as
    "spaces.ball_member"; a local of the same spelling and prose in
    comments and docstrings do not count."""
    out = set()
    for path in perfbench.glob("*.py"):
        tree = ast.parse(path.read_text())
        out |= _refs(tree, attributes_only=True)
        out |= {a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)
                and (n.module or "").split(".")[0] == "ergocert"
                for a in n.names}
        out |= {part for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and all(w.isidentifier() for w in n.value.split("."))
                for part in n.value.split(".")}
    return out


def never_ran(called, src: Path, perfbench: Path) -> set:
    """Qualified names of the functions of `src` absent from `called`
    whose name perfbench does not read."""
    ran = set(map(tuple, called))
    bench = _bench_refs(perfbench)
    return {q for q, _, keys, _ in _functions(src)
            if not keys & ran and q.rsplit(".", 1)[1] not in bench}


def _substituted(argv: list, tmp: Path) -> list:
    return [a.replace("{tmp}", str(tmp)).replace("{corpus}", str(CORPUS))
            for a in argv]


def untaken(found: dict, kept: dict) -> tuple:
    """(unkept, stale) for `unreached`'s answer `found` and a KEPT_BRANCHES
    `kept`: unkept holds found's functions that kept does not name with a
    non-empty reason, and their lines; stale the names kept holds that
    found lacks."""
    return ({q: lines for q, lines in found.items()
             if not kept.get(q, "").strip()},
            sorted(set(kept) - set(found)))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """`run_lines`' answer on LINES: one run for both gates."""
    tmp = tmp_path_factory.mktemp("lines")
    _inputs(tmp)
    return run_lines([_substituted(a, tmp) for _, a in LINES], SRC,
                     "ergocert.cli")


def test_no_test_only_surface(traced):
    # [DERIVED: every function of src/ runs under the argv lines, or
    #  perfbench reads it, or it is kept on purpose in KEPT, with a
    #  reason; every kept name is defined and still never runs]
    wrong = [(argv, code, got) for (code, argv), got
             in zip(LINES, traced["codes"]) if got != code]
    assert wrong == [], "argv lines that end with another exit code"
    found = never_ran(traced["called"], SRC, PERFBENCH)
    assert sorted(found - set(KEPT)) == [], \
        "functions no argv line runs: delete them, add the line that " \
        "reaches them, or keep them in KEPT with a reason"
    assert sorted(set(KEPT) - found) == [], \
        "kept names that now run, or are gone: drop them from KEPT"
    assert all(reason.strip() for reason in KEPT.values())


def test_no_untaken_branch(traced):
    # [DERIVED: in every src/ function that starts under the argv lines,
    #  every statement runs, or is a refusal, or its function is kept on
    #  purpose in KEPT_BRANCHES, with a reason; every kept function still
    #  has a statement that needs it]
    unkept, stale = untaken(unreached(traced, SRC), KEPT_BRANCHES)
    assert unkept == {}, \
        "statements no argv line runs (function: first lines): delete " \
        "them, add the line that reaches them, or keep their function in " \
        "KEPT_BRANCHES with a reason"
    assert stale == [], \
        "kept functions whose statements all run now, or are gone: drop " \
        "them from KEPT_BRANCHES"


def unread_imports(src: Path) -> list:
    """(module, name) of every name a module of `src` binds by a
    module-level import and never reads; `from __future__` binds none."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [(a.asname or a.name).split(".")[0] for n in tree.body
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 and getattr(n, "module", None) != "__future__"
                 for a in n.names]
        read = _refs(tree)
        out += [(path.stem, name) for name in bound if name not in read]
    return out


def test_no_unread_import():
    # [DERIVED: every name a module of src/ or tests/ imports at module
    #  level is read there; an import the code no longer uses is a dead
    #  line]
    assert unread_imports(SRC) == []
    assert unread_imports(ROOT / "tests") == []


def test_unread_imports_are_found(tmp_path):
    # [DERIVED: a module-level import read nowhere is flagged, whether
    #  plain, aliased or from a package; one read as a bare name or as the
    #  base of an attribute is not]
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport re as regex\n"
        "from operator import add, itemgetter\n"
        "def f(x):\n    return add(math.floor(x), 1)\n")
    assert unread_imports(tmp_path) == [("a", "os"), ("a", "regex"),
                                        ("a", "itemgetter")]


def _traced_package(tmp_path, modules: dict, bench: dict = {}) -> tuple:
    """(`run_lines`' answer, package dir, bench dir) for a package `pkg` of
    `modules` and a bench of `bench`, each {stem: source}, after
    `pkg.cli.main([])`."""
    src, perf = tmp_path / "pkg", tmp_path / "bench"
    for d, files in ((src, modules), (perf, bench)):
        d.mkdir()
        for stem, text in files.items():
            (d / f"{stem}.py").write_text(text)
    return run_lines([[]], src, "pkg.cli"), src, perf


def _package(tmp_path, modules: dict, bench: dict = {}) -> set:
    """The function gate's answer on `_traced_package`."""
    out, src, perf = _traced_package(tmp_path, modules, bench)
    return never_ran(out["called"], src, perf)


def test_gate_flags_what_never_runs(tmp_path):
    # [DERIVED: a function, method, dunder or nested function that never
    #  starts is flagged, private ones too; recursion inside a function
    #  that never starts is no caller]
    found = _package(tmp_path, {
        "cli": "from pkg.a import Box, used\n"
               "def main(argv):\n    return used() + Box().size()\n",
        "a": "def used():\n    return _private()\n"
             "def _private():\n"
             "    def inner():\n        return 0\n"
             "    def spare():\n        return 1\n"
             "    return inner()\n"
             "def orphan():\n    return used()\n"
             "def loop(n):\n    return loop(n - 1) if n else 0\n"
             "class Box:\n"
             "    def __init__(self):\n        self.v = 1\n"
             "    def __repr__(self):\n        return 'Box'\n"
             "    def size(self):\n        return self.v\n",
    })
    assert found == {"a._private.spare", "a.orphan", "a.loop",
                     "a.Box.__repr__"}


def test_gate_flags_a_dead_method_named_like_a_live_one(tmp_path):
    # [DERIVED: a method no one calls is flagged even when a live method
    #  of another class has its name, which a name matcher reads as a
    #  caller; an alias runs the code it names]
    found = _package(tmp_path, {
        "cli": "from pkg.a import Circle, Shift\n"
               "def main(argv):\n"
               "    return Circle().average() + (1 + Shift())\n",
        "a": "class Circle:\n"
             "    def average(self):\n        return 1\n"
             "class Shift:\n"
             "    def average(self):\n        return 2\n"
             "    def plus(self, o):\n        return o\n"
             "    __radd__ = plus\n",
    })
    assert found == {"a.Shift.average"}


def test_gate_counts_bench_targets(tmp_path):
    # [DERIVED: perfbench reads a name in code or as a dotted target
    #  string, never in a comment]
    found = _package(tmp_path, {
        "cli": "def main(argv):\n    return 0\n",
        "a": "def traced():\n    return 1\n"
             "def timed():\n    return 1\n"
             "def noted():\n    return 1\n",
    }, bench={
        "run": "# a.noted is named only in this comment\n"
               "TARGETS = ['a.traced']\n"
               "import a\nt = a.timed\n",
    })
    assert found == {"a.noted"}


def test_gate_ignores_a_bench_local_of_the_same_name(tmp_path):
    # [DERIVED: a bare name in perfbench reads a package name only when
    #  perfbench imports it from ergocert; a local variable of the same
    #  spelling keeps no method alive]
    found = _package(tmp_path, {
        "cli": "def main(argv):\n    return 0\n",
        "a": "class Ball:\n"
             "    def index(self):\n        return 0\n"
             "def imported():\n    return 1\n",
    }, bench={
        "run": "from ergocert.a import imported\n"
               "index = [0]\nindex[0] += imported()\n",
    })
    assert found == {"a.Ball.index"}


#: a module whose every unreached statement is named by its trailing
#: comment: "# untaken" or, for a refusal, "# refusal"
BRANCHY = '''def f(x):
    """A docstring runs no code."""
    if x > 5:
        x += 1  # untaken
    if x > 100: raise ValueError(x)
    if x < 0:
        print(x)  # refusal
        raise ValueError("negative")  # refusal
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0  # refusal
    if x == 7:
        return NotImplemented  # refusal
    return y


def check(items):
    failures = []
    for i in items:
        if i < 0:
            failures.append(i)  # refusal
            continue  # refusal
    if len(items) > 3:
        failures.append("long")  # refusal
    if not items:
        return False, "empty"  # refusal
    return True, failures


def outer():
    def inner(flag):
        if flag:
            return 1  # untaken
        return 0
    return inner(False)


def long(x):
    if x > 5:
        x = (x +  # untaken
             1 +
             2)
    return (x +
            1)


def first(xs):
    for x in xs:
        if x > 0:
            return x
        print(x)  # untaken
    raise LookupError(xs)  # refusal


def never():
    return 0
'''


def _marked(text: str, mark: str) -> list:
    return [i for i, line in enumerate(text.splitlines(), 1)
            if line.endswith(f"# {mark}")]


def test_line_gate_flags_a_branch_no_line_takes(tmp_path):
    # [DERIVED: in a function that starts, an if body that never runs is
    #  flagged, under the nested function's name when it is nested; a
    #  multi-line statement counts once, by its first line, whether it
    #  runs or not; a one-line `if ...: raise` runs when its test does; a
    #  raise, an except body and a block ending in a raise,
    #  `return NotImplemented`, `return False, ...` or
    #  `failures.append(...)`, with or without `continue`, are refusals,
    #  but a function's body ending in a raise is not; a function that
    #  never starts is left to the function gate]
    out, src, _ = _traced_package(tmp_path, {
        "cli": "from pkg.a import f, check, outer, long, first\n"
               "def main(argv):\n"
               "    f(2), f(1), check([1]), outer(), long(2), first([1])\n"
               "    return 0\n",
        "a": BRANCHY,
    })
    untaken_lines = _marked(BRANCHY, "untaken")
    assert unreached(out, src) == {"a.f": untaken_lines[:1],
                                   "a.outer.inner": untaken_lines[1:2],
                                   "a.long": untaken_lines[2:3],
                                   "a.first": untaken_lines[3:]}
    assert len(_marked(BRANCHY, "refusal")) == 9


def test_line_gate_refuses_a_stale_kept_branch():
    # [DERIVED: KEPT_BRANCHES keeps a function's unreached statements only
    #  with a non-empty reason; an entry whose function has none, or that
    #  names no function, is stale]
    found = {"a.f": [4], "a.g": [9]}
    assert untaken(found, {"a.f": "a reason", "a.g": "another"}) == ({}, [])
    assert untaken(found, {"a.f": "a reason", "a.g": " "}) == \
        ({"a.g": [9]}, [])
    assert untaken(found, {"a.f": "a reason", "a.g": "x", "a.h": "x",
                           "a.gone": "x"}) == ({}, ["a.gone", "a.h"])
