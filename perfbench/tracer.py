"""Outside-in tracing of ergocert's public functions.

The tracer wraps functions from outside the program: it replaces each
listed function or method in the module or class that defines it, and in
every ergocert module that imported it by name (``from .dynamics import
l_norm_birkhoff`` makes a second binding that patching ``dynamics`` alone
would miss).  ``uninstall`` puts every original back.

A span wrapper counts calls and accumulates self time: the wall time of
the call minus the time covered by nested wrapped calls.  Time spent in
private helpers therefore lands in the nearest wrapped caller.  A counter
wrapper only counts calls; it is used for the hot leaf functions
(``cylinder_mass``, ``Quad.sign``, ``Quad.approx``) where a per-call span
would cost more than the call.

The program is single-threaded, so one span stack serves every call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "ergocert"


@dataclass
class Target:
    """One traced function, named ``<module>.<qualname>``."""

    name: str
    span: bool = True
    # workloads on which the function must run at least once
    exercised_by: tuple = ()
    # derives extra counts from (tracer, args, result)
    on_result: Optional[Callable] = field(default=None, repr=False)


def _bump(tracer, key: str, amount: int = 1) -> None:
    tracer.counts[key] += amount


def _norm_method(tracer, args, result) -> None:
    _, method = result
    _bump(tracer, "rates.NormOracle.bound." + method.replace("-", "_"))
    if tracer.depth_of("rates.find_p"):
        _bump(tracer, "rates.find_p.probes")


def _cells_out(tracer, args, result) -> None:
    table = getattr(result, "table", None)
    cells = len(table) if table is not None else len(result.segments)
    _bump(tracer, "dynamics.birkhoff_observable.cells_out", cells)


def _segments_out(tracer, args, result) -> None:
    _bump(tracer, "observables.pl_sum.segments_out", len(result.segments))


def _w1_sizes(tracer, args, result) -> None:
    _, mu1, mu2 = args[:3]
    _bump(tracer, "measures.w1_ideal.atoms_in",
          len(mu1.atoms) + len(mu2.atoms))
    _bump(tracer, "measures.w1_ideal.flows_out", len(result[1].flows))


# the parts of the two workloads (see workloads.py)
C = R = "exact"
S = T = "construct"

TARGETS = [
    Target("rates.find_p", exercised_by=(C,)),
    Target("rates.NormOracle.bound", exercised_by=(C, R),
           on_result=_norm_method),
    Target("rates.check_certificate", exercised_by=(R,)),
    Target("rates.validate_as", exercised_by=(R,)),
    Target("rates.as_rate_l1", exercised_by=(C,)),
    Target("rates.as_rate_bounded", exercised_by=(C,)),
    Target("rates.l_rate", exercised_by=(C,)),
    Target("dynamics.l_norm_birkhoff", exercised_by=(C,)),
    Target("dynamics.l2_sq_enclosure", exercised_by=(C,)),
    Target("dynamics.rotation_sup_bound", exercised_by=(C, R)),
    Target("dynamics.birkhoff_observable", exercised_by=(C, R),
           on_result=_cells_out),
    Target("dynamics.deviation_region", exercised_by=(R, S)),
    Target("dynamics.birkhoff_eval", exercised_by=(R,)),
    Target("dynamics.doubling_correlations", exercised_by=(C,)),
    Target("dynamics.centered", exercised_by=(C, R, S)),
    Target("observables.pl_sum", exercised_by=(C, R, S),
           on_result=_segments_out),
    Target("observables.PiecewiseLinear.add", exercised_by=(C,)),
    Target("observables.PiecewiseLinear.min_with", exercised_by=(C,)),
    Target("observables.PiecewiseLinear.max_with", exercised_by=(C, R)),
    Target("observables.PiecewiseLinear.pullback_doubling",
           exercised_by=(C, S)),
    Target("observables.PiecewiseLinear.transfer_doubling",
           exercised_by=(C,)),
    Target("observables.PiecewiseLinear.shift", exercised_by=(C, R, S)),
    Target("observables.PiecewiseLinear.abs_integral", exercised_by=(C,)),
    Target("observables.PiecewiseLinear.sup_norm", exercised_by=(C, R)),
    Target("observables.PiecewiseLinear.arcs_below_abs",
           exercised_by=(S,)),
    Target("observables.CylinderFn.integral", exercised_by=(C, S)),
    Target("observables.CylinderFn.clamp", exercised_by=(C,)),
    Target("regions.cylinder_mass", span=False, exercised_by=(C,)),
    Target("regions.ArcSet.intersect", exercised_by=(S,)),
    Target("regions.CylSet.intersect", exercised_by=(S,)),
    Target("regions.ArcSet.measure", exercised_by=(S,)),
    Target("regions.CylSet.measure", exercised_by=(S,)),
    Target("regions.ArcSet.to_rational_inner", exercised_by=(S,)),
    Target("arith.Quad.sign", span=False, exercised_by=(C, R, S)),
    Target("arith.Quad.approx", span=False, exercised_by=(C, R, S)),
    Target("measures.w1_ideal", exercised_by=(T,), on_result=_w1_sizes),
    Target("measures.region_measure", exercised_by=(S,)),
    Target("spaces.Space.dist", exercised_by=(T,)),
    Target("spaces.ball_member", exercised_by=(R,)),
    Target("spaces.IdealBall.from_index", exercised_by=(S,)),
    Target("bc.bc_exact_windows", exercised_by=(S,)),
    Target("bc.bc_intersect", exercised_by=(S,)),
    Target("bc.synthesize_point", exercised_by=(S,)),
    Target("bc.replay_synth", exercised_by=(R,)),
    Target("bc.typical_point", exercised_by=(S,)),
    Target("bc.BCSequence.modulus", exercised_by=(S,)),
    Target("cli.main", exercised_by=(C, R, S, T)),
]

#: counts derived from results, reported next to the call counts
DERIVED_COUNTS = [
    "rates.NormOracle.bound.l1_exact",
    "rates.NormOracle.bound.l2_upper",
    "rates.NormOracle.bound.sup_exact",
    "dynamics.birkhoff_observable.cells_out",
    "observables.pl_sum.segments_out",
    "measures.w1_ideal.atoms_in",
    "measures.w1_ideal.flows_out",
]


def _resolve(name: str):
    """(owner, attribute) for ``<module>.<qualname>``: the module, or the
    class that defines the method."""
    modname, _, qual = name.partition(".")
    owner = importlib.import_module(f"{PACKAGE}.{modname}")
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Patches every function of ``TARGETS`` while installed and
    aggregates what they do."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # [name, child_seconds] per open span
        self._undo: list = []  # (owner, attribute, original raw value)

    def depth_of(self, name: str) -> int:
        """How many spans of ``name`` are open."""
        return sum(1 for frame in self._stack if frame[0] == name)

    # -- wrappers ---------------------------------------------------------

    def _span(self, target: Target, fn):
        name, on_result = target.name, target.on_result
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _counter(self, target: Target, fn):
        name, calls = target.name, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for target in TARGETS:
            owner, attr = _resolve(target.name)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            make = self._span if target.span else self._counter
            wrapped = make(target, fn)
            new = staticmethod(wrapped) if isinstance(raw, staticmethod) \
                else wrapped
            self._set(owner, attr, new)
            if isinstance(owner, type):
                continue  # methods are reached through their class
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn and module is not owner:
                        self._set(module, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def stale_bindings(self) -> list[str]:
        """Bindings that still reach an unwrapped original while installed
        (empty when patching found every module-level import)."""
        originals = {id(raw.__func__ if isinstance(raw, staticmethod)
                        else raw): f"{owner.__name__}.{attr}"
                     for owner, attr, raw in self._undo}
        stale = []
        for module in _package_modules():
            for key, value in vars(module).items():
                if id(value) in originals:
                    stale.append(f"{module.__name__}.{key} -> "
                                 f"{originals[id(value)]}")
        return stale

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for t in TARGETS:
            out[t.name + ".calls"] = self.calls[t.name]
            if t.span:
                out[t.name + ".self_s"] = self.self_s[t.name]
        for key in DERIVED_COUNTS:
            out[key] = self.counts[key]
        probes = self.counts["rates.find_p.probes"]
        out["rates.find_p.accept_ratio"] = (
            self.calls["rates.find_p"] / probes if probes else 0.0)
        return out

    def uncovered(self, workload: str) -> list[str]:
        """Targets the workload should exercise but never called."""
        return [t.name for t in TARGETS
                if workload in t.exercised_by and not self.calls[t.name]]
