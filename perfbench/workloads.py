"""The two workloads, as stratified batches of CLI operations.

``exact`` mixes the certify part (the ``rate`` p-search) with the replay
part (``replay``/``validate`` of the stored corpus): the rates, dynamics,
observables and arith layers.  ``construct`` mixes the synthesize part
(``synthesize``/``typical``) with the transport part (``w1``): the bc,
regions, measures and spaces layers.  ``exact`` never runs W1 and
``construct`` never runs the p-search, so each is the other's control.
Two workloads rather than four let each run measure twice as long on the
same time budget.

A part's batch holds a fixed number of operations per stratum: ``count``
once, or ``count`` per round for ``rounds`` rounds.  Every seed therefore
runs the same mix; the seed draws the concrete inputs inside each stratum
and the order of the whole batch.  Strata are chosen so that the inputs
of one stratum cost about the same, which keeps the median and the tail
percentile inside one cost class rather than on the step between two.
The W1 strata go further: each seed moves one fixed list of measure pairs
by a seeded isometry of the space, so the seed changes the atoms but not
the work.

The number of rounds is sized to make a part take about its share of
``--seconds`` at the commit that introduced the benchmark, on a 2-vCPU
x86 machine under Python 3.11 (the synthesize part about 11 s of its 18:
its output checks replay every point and cost as much again).  The batch
is then fixed: a faster program finishes it sooner, and the same seed
always gives the same operations, outputs and output hash.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

from pools import (SHIFTS, eps_delta_pairs, observable_pools, pool_of,
                   rate_argv, synthesize_argv, typical_argv)


@dataclass
class Op:
    label: str  # the drawn input, e.g. system/observable/kind
    argv: list
    check: str  # which output check applies (see checks.py)
    context: dict = field(default_factory=dict)
    stratum: str = ""


@dataclass
class Stratum:
    name: str
    count: int
    make: object  # (rng, env) -> Op
    once: bool = False  # count per batch instead of per round


@dataclass
class Workload:
    name: str
    # nominal seconds per round, the once strata included
    nominal_round_s: float
    strata: list

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def batch(self, seed: int, seconds: float, env: dict) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        rounds = self.rounds_for(seconds)
        ops = []
        for s in self.strata:
            for _ in range(s.count if s.once else s.count * rounds):
                op = s.make(rng, env)
                op.stratum = s.name
                ops.append(op)
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# certify: the rate verb


def _rate(system_choices, names, kind, products=None, eps_choices=None):
    """Stratum maker for ``rate``: system and observable drawn from the
    given choices; a.s. kinds draw (eps, delta) among the grid pairs of a
    drawn product, norm kinds draw eps."""

    def make(rng, env):
        system = rng.choice(system_choices)
        name = rng.choice(names)
        obs = env["pools"][pool_of(system)][name]
        k = rng.choice(kind) if isinstance(kind, tuple) else kind
        if k.startswith("as"):
            eps, delta = rng.choice(eps_delta_pairs(rng.choice(products)))
        else:
            eps, delta = rng.choice(eps_choices), None
        return Op(f"{system}/{name}/{k}/{eps}/{delta}",
                  rate_argv(system, obs, k, eps, delta), "certificate",
                  {"system": system, "kind": k, "eps": eps, "delta": delta})

    return make


NORMS = ("norm-l1", "norm-l2")

# Each stratum fixes the system, observable, kind and eps*delta, which fix
# the p-search and so the cost; the seed draws (eps, delta) among the grid
# pairs of that product, the shift parameter where both cost the same,
# and the order.
CERTIFY = Workload("certify", nominal_round_s=5.0, strata=[
    # the first-bit a.s. certificate: its p = 16 l1-exact probe enumerates
    # 2^16 cylinders (about 3.5 s, ROADMAP B)
    Stratum("shift-first-bit-as-l1", 1,
            _rate(SHIFTS, ("first_bit",), "as-l1",
                  products=(F(1, 8), F(1, 16), F(1, 32))), once=True),
    # rotation at p = 29 (about 0.9 s); once, so that with the replay
    # part's largest operations it leaves six above the tail class
    Stratum("rotation-hat-a-as-l1-p29", 1,
            _rate(("rotation",), ("hat_a",), "as-l1", products=(F(1, 16),)),
            once=True),
    # the mid class, 0.2-0.6 s: rotation at p = 12, then doubling hats and
    # identity
    Stratum("rotation-hat-a-as-l1-p12", 1,
            _rate(("rotation",), ("hat_a",), "as-l1", products=(F(1, 8),))),
    Stratum("rotation-hat-b-as-l1-p12", 1,
            _rate(("rotation",), ("hat_b",), "as-l1", products=(F(1, 8),))),
    Stratum("rotation-hat-c-as-bounded-p12", 1,
            _rate(("rotation",), ("hat_c",), "as-bounded",
                  products=(F(1, 8),))),
    Stratum("rotation-hat-a-norm-p12", 1,
            _rate(("rotation",), ("hat_a",), NORMS, eps_choices=("1/8",))),
    Stratum("doubling-hat-a-as-l1", 1,
            _rate(("doubling",), ("hat_a",), "as-l1", products=(F(1, 16),))),
    Stratum("doubling-hat-b-as-l1", 1,
            _rate(("doubling",), ("hat_b",), "as-l1", products=(F(1, 16),))),
    Stratum("doubling-identity-as-l1", 1,
            _rate(("doubling",), ("identity",), "as-l1",
                  products=(F(1, 32),))),
    Stratum("doubling-hat-b-as-bounded", 1,
            _rate(("doubling",), ("hat_b",), "as-bounded",
                  products=(F(1, 16),))),
    # the p = 1/3 coordinate(1) scans (about 0.65 s) and the slow replays
    # make the tail class: 12 operations, the tail percentile in its middle
    Stratum("shift13-coord1-as-l1", 2,
            _rate(("shift:p=1/3",), ("coord1",), "as-l1",
                  products=(F(1, 32),))),
    # the cheap class, 2-40 ms: short l2-upper searches.  Six per round
    # put the median in the middle of the rotation p = 12 class rather
    # than on its step up to the doubling one.
    Stratum("shift-w01-as-l1", 3,
            _rate(SHIFTS, ("w01",), "as-l1", products=(F(1, 16),))),
    Stratum("shift13-w01-as-bounded", 1,
            _rate(("shift:p=1/3",), ("w01",), "as-bounded",
                  products=(F(1, 16),))),
    Stratum("shift12-w01-norm-l2", 1,
            _rate(("shift:p=1/2",), ("w01",), "norm-l2",
                  eps_choices=("1/2", "1/4", "1/8"))),
    Stratum("doubling-hat-a-norm-l2", 1,
            _rate(("doubling",), ("hat_a",), "norm-l2",
                  eps_choices=("1/2", "1/4", "1/8"))),
])


# ---------------------------------------------------------------------------
# replay: replay and validate over the stored corpus


#: its p = 9 l1-exact probe makes it ten times slower than the other
#: doubling certificates, about as slow as the rotation ones at p = 29
SLOW_DOUBLING = "cert_doubling_hat_b_norm-l1_1-4.json"


def _replay(select, validate=False):
    """Stratum maker over the corpus files for which ``select(file name,
    recorded p)`` holds; replay cost follows the recorded p."""

    def make(rng, env):
        fname = rng.choice(sorted(k for k in env["corpus"]
                                  if select(k, env["p"][k])))
        text = env["corpus"][fname]
        if validate:
            return Op(f"validate/{fname}",
                      ["validate", "--certificate", text], "validate",
                      {"artifact": fname})
        return Op(f"replay/{fname}", ["replay", "--artifact", text], "replay",
                  {"artifact": fname})

    return make


def _validate_arc(rng, env):
    from corpus import ARC_CERT_FILE
    return Op(f"validate-exact-arc/{ARC_CERT_FILE}",
              ["validate", "--certificate", env["corpus"][ARC_CERT_FILE],
               "--horizon", "59", "--mode", "EXACT_ARC"], "validate",
              {"artifact": ARC_CERT_FILE})


def _rotation(p):
    return lambda k, q: k.startswith("cert_rotation") and q == p


def _rotation_as_p12(k, q):
    """The a.s. rotation certificates at p = 12 (0.2 s); the norm ones at
    p = 12 replay in 0.13-0.22 s and would blur the tail class."""
    return _rotation(12)(k, q) and "_as-" in k


# Replay costs measured per corpus file: the shift certificates replay in
# 2-4 ms except the norm-l1 ones (an l1-exact probe, 17-37 ms), which sit
# with the doubling identity certificates (about 30 ms); the doubling hat
# certificates and the rotation ones at p = 5 take 50-75 ms.


def _shift_fast(k, q):
    return k.startswith("cert_shift") and "_norm-l1_" not in k


def _light(k, q):
    return ((k.startswith("cert_shift") and "_norm-l1_" in k)
            or (k.startswith("cert_doubling_identity")
                and "_norm-l1_" not in k))


def _circle(k, q):
    return ((k.startswith("cert_doubling") and not _light(k, q)
             and k != SLOW_DOUBLING) or _rotation(5)(k, q))


REPLAY = Workload("replay", nominal_round_s=10.0, strata=[
    # exact arc validation of the rotation hat certificate, n0 = 55 at
    # horizon 59 (about 6.5 s).  EXACT_CYLINDER is not timed: at every
    # reachable horizon it is window_empty today (ROADMAP E).
    Stratum("validate-exact-arc", 1, _validate_arc),
    # the shift 1/3 first-bit point is the largest replay (its window
    # tables set peak memory), so every round has it.  The rotation and
    # doubling points (0.4-1.9 s) would swing the batch time with the
    # draw and are not timed; corpus.py --check replays every stored file.
    Stratum("replay-synth-shift13", 1,
            _replay(lambda k, q: k == "synth_shift1-3_first_bit.json")),
    Stratum("replay-synth-light", 1,
            _replay(lambda k, q: k.startswith(("typical_",
                                               "synth_shift1-2")))),
    Stratum("replay-slow-cert", 2,
            _replay(lambda k, q: _rotation(29)(k, q) or k == SLOW_DOUBLING)),
    # the a.s. rotation certificates at p = 12 hold the tail
    Stratum("replay-rotation-cert-p12", 2, _replay(_rotation_as_p12)),
    Stratum("validate-rotation-cert-p12", 1,
            _replay(_rotation_as_p12, validate=True)),
    # the circle class around the median
    Stratum("replay-circle-cert", 9, _replay(_circle)),
    Stratum("validate-circle-cert", 3, _replay(_circle, validate=True)),
    Stratum("replay-light-cert", 3, _replay(_light)),
    Stratum("replay-shift-cert", 6, _replay(_shift_fast)),
    Stratum("validate-shift-cert", 2, _replay(_shift_fast, validate=True)),
])


# ---------------------------------------------------------------------------
# synthesize: the synthesize and typical verbs

CIRCLE_TARGETS = [("1/2", "1/2"), ("1/4", "1/4"), ("3/4", "1/4"),
                  ("3/8", "1/8"), ("5/8", "1/8")]
CANTOR_TARGETS = [("", 0), ("0", 1), ("1", 1)]


def _target(system: str, rng) -> dict:
    if system.startswith("shift"):
        word, depth = rng.choice(CANTOR_TARGETS)
        return {"space": "cantor", "center": word,
                "radius": f"3/{1 << (depth + 1)}"}
    center, radius = rng.choice(CIRCLE_TARGETS)
    return {"space": "circle", "center": center, "radius": radius}


def _synth(systems, name, scale):
    """Synthesize with the pool observable scaled by ``scale``: the
    amplitude sets how deep the certified windows go (n_j), and so the
    cost.  Full-scale observables take 3-47 s per point, too few
    operations for a median and a tail in one run."""

    def make(rng, env):
        system = rng.choice(systems)
        obs = env["scaled"][(pool_of(system), name, scale)]
        target = _target(system, rng)
        return Op(f"synthesize/{system}/{name}*{scale}/"
                  f"{target['center']}~{target['radius']}",
                  synthesize_argv(system, obs, target), "synth",
                  {"system": system, "target": target})

    return make


def _typical(system):
    def make(rng, env):
        return Op(f"typical/{system}", typical_argv(system), "synth",
                  {"system": system})

    return make


SYNTH_SCALES = [("rotation", "hat_a", "3/4"), ("doubling", "identity", "3/4"),
                ("doubling", "hat_a", "3/4"), ("shift", "first_bit", "3/4"),
                ("shift", "coord1", "3/4"), ("shift", "w01", "1")]

SYNTHESIZE = Workload("synthesize", nominal_round_s=1.67, strata=[
    # rotation windows have Quad endpoints (to_rational_inner); 1-2 s each
    Stratum("synth-rotation", 1, _synth(("rotation",), "hat_a", "3/4"),
            once=True),
    Stratum("typical-rotation", 1, _typical("rotation"), once=True),
    Stratum("synth-shift13-first-bit", 1,
            _synth(("shift:p=1/3",), "first_bit", "3/4"), once=True),
    # the identity points (about 0.3 s) hold the tail
    Stratum("synth-doubling-identity", 1,
            _synth(("doubling",), "identity", "3/4")),
    # the mid class, 0.1-0.15 s, around the median
    Stratum("synth-doubling-hat", 2, _synth(("doubling",), "hat_a", "3/4")),
    Stratum("synth-shift-coord1", 1,
            _synth(("shift:p=1/2",), "coord1", "3/4")),
    # the cheap class, 5-100 ms
    Stratum("synth-shift12-first-bit", 1,
            _synth(("shift:p=1/2",), "first_bit", "3/4")),
    Stratum("synth-shift-w01", 1, _synth(SHIFTS, "w01", "1")),
    Stratum("typical-doubling", 1, _typical("doubling"), once=True),
])


# ---------------------------------------------------------------------------
# transport: the w1 verb


#: Cantor atoms are words of at most this many letters
CANTOR_DEPTH = 10


def _base_atoms(space: str, atoms: int, index: int) -> list:
    """The ``index``-th base measure of a size: [(point, weight)], drawn
    from a fixed seed.  Circle points are k/1024 as integers k; Cantor
    points are distinct zero-padded words of at most CANTOR_DEPTH letters,
    as CANTOR_DEPTH-bit integers."""
    rng = random.Random(f"w1-base:{space}:{atoms}:{index}")
    if space == "circle":
        points = rng.sample(range(1024), atoms)
    else:
        points = set()
        while len(points) < atoms:
            length = rng.randint(1, CANTOR_DEPTH)
            points.add(rng.getrandbits(length) << (CANTOR_DEPTH - length))
        points = sorted(points)
    weights = [rng.randint(1, 16) for _ in range(atoms)]
    return list(zip(points, weights))


def _moved(space: str, base: list, motion: tuple) -> list:
    """A base measure moved by an isometry of its space, as CLI atoms.

    A circle motion (sign, shift) maps k/1024 to (sign*k + shift)/1024; a
    Cantor motion (mask,) flips the bits of the padded word where the mask
    has ones, and drops the trailing zeros of the result.  Atoms keep
    their order and distances between moved atoms equal those between the
    base atoms, so a solve does the same exact arithmetic on every
    motion."""
    total = sum(w for _, w in base)
    if space == "circle":
        sign, shift = motion
        points = [f"{(sign * k + shift) % 1024}/1024" for k, _ in base]
    else:
        (mask,) = motion
        points = [format(k ^ mask, f"0{CANTOR_DEPTH}b").rstrip("0")
                  for k, _ in base]
    return [[p, str(F(w, total))] for p, (_, w) in zip(points, base)]


def _motion(rng, space: str) -> tuple:
    if space == "circle":
        return rng.choice((1, -1)), rng.randrange(1024)
    return (rng.getrandbits(CANTOR_DEPTH),)


def _w1(space: str, sizes):
    """Stratum maker for ``w1``.  The n-th operation of the stratum solves
    the n-th pair of base measures (sizes taken in turn) moved by a seeded
    isometry: every seed draws other atoms, but the same distance
    structure, so the stratum costs the same on every seed."""

    def make(rng, env):
        index = env.setdefault(("w1", space, sizes), [0])
        n = index[0]
        index[0] += 1
        atoms = sizes[n % len(sizes)]
        motion = _motion(rng, space)
        mu1, mu2 = (_moved(space, _base_atoms(space, atoms, 2 * n + k),
                           motion) for k in (0, 1))
        return Op(f"w1/{space}/{atoms}",
                  ["w1", "--space", space, "--mu1", json.dumps(mu1),
                   "--mu2", json.dumps(mu2)], "w1",
                  {"space": space, "mu1": mu1, "mu2": mu2})

    return make


TRANSPORT = Workload("transport", nominal_round_s=1.55, strata=[
    # the largest pair on each space (circle about 4 s, Cantor about 1.7 s)
    Stratum("w1-circle-48", 1, _w1("circle", (48,)), once=True),
    Stratum("w1-cantor-48", 1, _w1("cantor", (48,)), once=True),
    Stratum("w1-circle-32", 1, _w1("circle", (32,)), once=True),
    # the Cantor 32-atom solves (about 0.45 s) hold the tail
    Stratum("w1-cantor-32", 1, _w1("cantor", (32,))),
    # the mid class, 0.1-0.3 s, around the median; Cantor solves run
    # about 1.5x faster at equal size, hence the larger size
    Stratum("w1-circle-18", 2, _w1("circle", (18,))),
    Stratum("w1-cantor-22", 2, _w1("cantor", (22,))),
    Stratum("w1-circle-small", 1, _w1("circle", (4, 8, 12))),
    Stratum("w1-cantor-small", 1, _w1("cantor", (4, 8, 12))),
])

@dataclass
class Mix:
    """A workload made of parts that split the run time evenly; each part
    keeps its own strata, and the batch is their union in a seeded order."""

    name: str
    parts: list

    def batch(self, seed: int, seconds: float, env: dict) -> list[Op]:
        ops = [op for part in self.parts
               for op in part.batch(seed, seconds / len(self.parts), env)]
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Mix("exact", [CERTIFY, REPLAY]),
                                 Mix("construct", [SYNTHESIZE, TRANSPORT]))}


def environment(workload: Mix) -> dict:
    """Inputs that the operations of a workload draw from (part of the
    timed set-up)."""
    env = {}
    for part in workload.parts:
        env.update(_part_environment(part.name))
    return env


def _part_environment(name: str) -> dict:
    if name in ("certify", "synthesize"):
        pools = observable_pools()
        env = {"pools": pools}
        if name == "synthesize":
            from ergocert.observables import (observable_from_json,
                                              observable_to_json)
            env["scaled"] = {
                (pool, obs, scale): json.dumps(observable_to_json(
                    observable_from_json(json.loads(pools[pool][obs]))
                    .scale(F(scale))))
                for pool, obs, scale in SYNTH_SCALES}
        return env
    if name == "replay":
        from corpus import load
        corpus = load()
        return {"corpus": corpus,
                "p": {k: json.loads(v).get("p") for k, v in corpus.items()}}
    return {}
