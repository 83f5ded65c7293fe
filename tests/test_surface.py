"""Every function defined in src/ is one the program runs.

A function, method or dunder (nested ones included) that no command line
reaches is code the program carries without using.  The gate runs the
fixed argv lines of LINES through `cli.main`, in order, in one new
interpreter under `sys.setprofile`, and records every src/ function that
starts; each line must end with its expected exit code.  A function that
never ran fails the gate unless perfbench/ reads its name (it is timed,
traced or called there) or KEPT keeps it, with the reason why.  Matching
by the running code, not by name, means a dead method cannot hide behind
a live one of the same spelling."""

import ast
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergocert"
PERFBENCH = ROOT / "perfbench"
CORPUS = PERFBENCH / "corpus"

#: functions no argv line reaches, each kept on purpose
KEPT = {
    "bc.horizon_tolerance":
        "tests/test_acceptance.py reads a point's carried tolerance with it",
    "arith.Interval.contains":
        "a fixture of the tests of live code (enclosures hold the value)",
    "measures.IdealMeasure.dirac":
        "a fixture of the tests of live code (single-atom W1 examples)",
    "spaces.cantor_dist":
        "Cantor space's metric (`dist`): W1 costs a plan from branch "
        "depths, and the tests hold that sum to this metric",
    "spaces.CantorPoint.from_word":
        "a fixture of the tests of live code (membership, exact orbits)",
    "observables.PiecewiseLinear.square_integral":
        "the tests' exact L2 reference for the piecewise-linear kernels",
    "observables.PiecewiseLinear.eval_right":
        "the tests' pointwise reference for the piecewise-linear kernels",
    "dynamics.Shift.average":
        "the acceptance test's exact shift average, through "
        "birkhoff_observable; the program averages only on the circle",
    "regions.CylSet.prefixes":
        "the tests read a region's maximal cylinders with it; the program "
        "weighs and finds them without a list",
    "arith.Quad.__hash__":
        "a Quad defines ==, so without it a Quad is unhashable; it must "
        "hash like the Fraction it equals",
    "arith.Quad.__rsub__":
        "tests/pl_reference.py subtracts Quads from rationals",
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


def _gen(space, s, r, eps="1/4"):
    return {"op": "gen", "space": space, "s": s, "r": r, "eps": eps}


def _fterm(expr) -> str:
    return json.dumps({"variant": "fterm", "expr": expr})


FTERM_CANTOR = _fterm(_gen("cantor", "01", "1/16384"))
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


#: runs argv lines (JSON on stdin) through `main` of the module argv[2],
#: imported from the directory argv[1], under a profile hook
_RUNNER = r"""
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
lines = json.load(sys.stdin)
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(hook)
main = importlib.import_module(sys.argv[2]).main
codes = []
for argv in lines:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(
    {(c.co_filename, c.co_firstlineno) for c in seen})}))
"""


def run_lines(argvs: list, path: Path, entry: str) -> dict:
    """{"codes", "called"} of `argvs` run in order through `entry`.main
    in a new interpreter: called holds (file, first line) of every
    function that started."""
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(path), entry],
        input=json.dumps(argvs), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def defined(src: Path) -> list:
    """(qualified name, {(file, line)}) of every function in `src`,
    methods and nested functions included.  A code object's first line is
    its first decorator's, so a decorated function is known by that line
    and by its `def` line."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {child.lineno} | {d.lineno
                                          for d in child.decorator_list}
                out.append((f"{prefix}.{name}",
                            {(path, line) for line in lines}))
            walk(child, path, f"{prefix}.{name}" if name else prefix)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path.resolve()), path.stem)
    return out


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
    ran = {(str(Path(f).resolve()), line) for f, line in called}
    bench = _bench_refs(perfbench)
    return {q for q, keys in defined(src)
            if not keys & ran and q.rsplit(".", 1)[1] not in bench}


def _substituted(argv: list, tmp: Path) -> list:
    return [a.replace("{tmp}", str(tmp)).replace("{corpus}", str(CORPUS))
            for a in argv]


def test_no_test_only_surface(tmp_path):
    # [DERIVED: every function of src/ runs under the argv lines, or
    #  perfbench reads it, or it is kept on purpose in KEPT, with a
    #  reason; every kept name is defined and still never runs]
    _inputs(tmp_path)
    out = run_lines([_substituted(a, tmp_path) for _, a in LINES],
                    SRC.parent, "ergocert.cli")
    wrong = [(argv, code, got) for (code, argv), got
             in zip(LINES, out["codes"]) if got != code]
    assert wrong == [], "argv lines that end with another exit code"
    found = never_ran(out["called"], SRC, PERFBENCH)
    assert sorted(found - set(KEPT)) == [], \
        "functions no argv line runs: delete them, add the line that " \
        "reaches them, or keep them in KEPT with a reason"
    assert sorted(set(KEPT) - found) == [], \
        "kept names that now run, or are gone: drop them from KEPT"
    assert all(reason.strip() for reason in KEPT.values())


def _package(tmp_path, modules: dict, bench: dict = {}) -> set:
    """The gate's answer on a package `pkg` of `modules` and a bench of
    `bench`, each {stem: source}, after `pkg.cli.main([])`."""
    src, perf = tmp_path / "pkg", tmp_path / "bench"
    for d, files in ((src, modules), (perf, bench)):
        d.mkdir()
        for stem, text in files.items():
            (d / f"{stem}.py").write_text(text)
    out = run_lines([[]], tmp_path, "pkg.cli")
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
