"""The public surface of src/ is what the program calls.

A public function, class or method that only tests call is code the
program carries without using.  This guard scans every module of the
package and fails on such a name, so that surface does not grow back."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergocert"
PERFBENCH = ROOT / "perfbench"

#: public names with no caller in src/ or perfbench/, each kept on purpose
KEPT = (
    # tests/test_acceptance.py imports it to read a point's carried tolerance
    "bc.horizon_tolerance",
    # fixtures of the tests of live code; deleting them would only move
    # the same code into the tests
    "arith.Interval.contains",
    "measures.IdealMeasure.dirac",
    "spaces.CantorPoint.from_word",
    # the tests' exact L2 reference for the piecewise-linear kernels
    "observables.PiecewiseLinear.square_integral",
    # the tests' pointwise reference for the same kernels (the digit tail,
    # its last caller in the program, reads the integer form instead)
    "observables.PiecewiseLinear.eval_right",
)


def _refs(node, attributes_only=False) -> Counter:
    """Names read inside `node`: attribute names and, unless
    `attributes_only`, bare names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                and not attributes_only:
            out[n.id] += 1
    return out


def _bench_refs(perfbench: Path) -> set:
    """Names perfbench/ reads in code as an attribute or as a bare name it
    imports from ergocert, or names as a dotted target string such as
    "spaces.ball_member"; a local of the same spelling and prose in
    comments and docstrings do not count."""
    out = set()
    for path in perfbench.glob("*.py"):
        tree = ast.parse(path.read_text())
        out |= set(_refs(tree, attributes_only=True))
        out |= {a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)
                and (n.module or "").split(".")[0] == "ergocert"
                for a in n.names}
        out |= {part for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and all(w.isidentifier() for w in n.value.split("."))
                for part in n.value.split(".")}
    return out


def _unreferenced(src: Path = SRC, perfbench: Path = PERFBENCH) -> set:
    """Qualified public names (module.name or module.Class.method) read
    nowhere in `src` outside their own definition and nowhere in
    `perfbench`.  A method counts as read through an attribute, or through
    a bare name in a class body (an alias such as `__radd__ = __add__`)."""
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        names += _refs(tree)
        attrs += _refs(tree, attributes_only=True)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, ast.Assign):
                        attrs += _refs(stmt.value)
    bench = _bench_refs(perfbench)
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node, names, False))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{m.name}", m, attrs, True)
                         for m in node.body
                         if isinstance(m, ast.FunctionDef)]
    out = set()
    for qual, node, seen, attributes_only in defs:
        name = node.name
        if name.startswith("_"):  # private, or a dunder method
            continue
        if seen[name] <= _refs(node, attributes_only)[name] \
                and name not in bench:
            out.add(qual)
    return out


def test_no_test_only_surface():
    # [DERIVED: every public name has a caller in the program, or is kept
    #  on purpose in KEPT, and every kept name still lacks one]
    found = _unreferenced()
    assert sorted(found - set(KEPT)) == [], \
        "public names only tests call: delete them, or keep them in KEPT"
    assert sorted(set(KEPT) - found) == [], \
        "kept names that now have a caller: drop them from KEPT"


def _tree(tmp_path, modules: dict, bench: dict = {}) -> set:
    """The guard's answer on a package of `modules` and a bench of
    `bench`, each {stem: source}."""
    src, perf = tmp_path / "src", tmp_path / "bench"
    for d, files in ((src, modules), (perf, bench)):
        d.mkdir()
        for stem, text in files.items():
            (d / f"{stem}.py").write_text(text)
    return _unreferenced(src, perf)


def test_guard_flags_test_only_names(tmp_path):
    # [DERIVED: a public function, class or method that nothing in the
    #  package reads is flagged; private and dunder names are not]
    found = _tree(tmp_path, {
        "a": "def used():\n    return 1\n"
             "def orphan():\n    return used()\n"
             "def _private():\n    return 0\n"
             "class Box:\n"
             "    def __init__(self):\n        self.v = 1\n"
             "    def size(self):\n        return self.v\n"
             "    def spare(self):\n        return self.size()\n",
        "b": "from a import Box\nx = Box()\n",
    })
    assert found == {"a.orphan", "a.Box.spare"}


def test_guard_ignores_a_name_read_only_inside_itself(tmp_path):
    # [DERIVED: recursion is not a caller; a method is read through an
    #  attribute only, so a module-level name of the same spelling does
    #  not count for it]
    found = _tree(tmp_path, {
        "a": "def loop(n):\n    return loop(n - 1) if n else 0\n"
             "class Walk:\n"
             "    def step(self):\n        return self.step()\n"
             "def go():\n    return step\n"
             "step = go()\nw = Walk()\n",
    })
    assert found == {"a.loop", "a.Walk.step"}


def test_guard_counts_aliases_and_bench_targets(tmp_path):
    # [DERIVED: a class-body alias reads a method; perfbench reads a name
    #  in code or as a dotted target string, never in a comment]
    found = _tree(tmp_path, {
        "a": "class Q:\n"
             "    def plus(self, o):\n        return o\n"
             "    __radd__ = plus\n"
             "def traced():\n    return 1\n"
             "def timed():\n    return 1\n"
             "def noted():\n    return 1\n"
             "x = Q()\n",
    }, bench={
        "run": "# a.noted is named only in this comment\n"
               "TARGETS = ['a.traced']\n"
               "import a\nt = a.timed\n",
    })
    assert found == {"a.noted"}


def test_guard_ignores_a_bench_local_of_the_same_name(tmp_path):
    # [DERIVED: a bare name in perfbench reads a package name only when
    #  perfbench imports it from ergocert; a local variable of the same
    #  spelling keeps no method alive]
    found = _tree(tmp_path, {
        "a": "class Ball:\n"
             "    def index(self):\n        return 0\n"
             "def imported():\n    return 1\n"
             "b = Ball()\n",
    }, bench={
        "run": "from ergocert.a import imported\n"
               "index = [0]\nindex[0] += imported()\n",
    })
    assert found == {"a.Ball.index"}
