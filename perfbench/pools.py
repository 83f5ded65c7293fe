"""Observable pools and CLI invocation shared by the workloads and the
replay-corpus generator.

The pools are the acceptance-suite observables: the first bit, the "01"
indicator and coordinate(1) on the shift; two hats and the identity on the
doubling map; three hats on the rotation.  Observables cross into the CLI
as inline JSON, exactly as a user would pass them.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F

SHIFTS = ("shift:p=1/2", "shift:p=1/3")
GRID = ("1/2", "1/4", "1/8")


def observable_pools() -> dict:
    """{pool name: {observable name: inline JSON}}."""
    from ergocert.observables import (CylinderFn, PiecewiseLinear,
                                      observable_to_json)

    def js(f) -> str:
        return json.dumps(observable_to_json(f))

    return {
        "shift": {"first_bit": js(CylinderFn.coordinate(0)),
                  "w01": js(CylinderFn.word_indicator("01")),
                  "coord1": js(CylinderFn.coordinate(1))},
        "doubling": {"hat_a": js(PiecewiseLinear.hat(F(1, 2), F(1, 8),
                                                     F(1, 8))),
                     "identity": js(PiecewiseLinear.identity()),
                     "hat_b": js(PiecewiseLinear.hat(F(1, 4), F(1, 8),
                                                     F(1, 16)))},
        "rotation": {"hat_a": js(PiecewiseLinear.hat(F(1, 2), F(1, 4),
                                                     F(1, 8))),
                     "hat_b": js(PiecewiseLinear.hat(F(0), F(1, 8),
                                                     F(1, 8))),
                     "hat_c": js(PiecewiseLinear.hat(F(1, 3), F(1, 6),
                                                     F(1, 12)))},
    }


def pool_of(system: str) -> str:
    return "shift" if system.startswith("shift") else system


def eps_delta_pairs(product: F) -> list[tuple[str, str]]:
    """The (eps, delta) grid pairs with eps * delta == product.  For the
    a.s. kinds on bounded observables the p-search target is
    delta * eps / 4, so every pair of one product costs the same search."""
    return [(e, d) for e in GRID for d in GRID if F(e) * F(d) == product]


def rate_argv(system: str, observable: str, kind: str, eps: str,
              delta: str | None = None) -> list[str]:
    argv = ["rate", "--system", system, "--observable", observable,
            "--eps", eps, "--kind", kind]
    if delta is not None:
        argv += ["--delta", delta]
    return argv


def synthesize_argv(system: str, observable: str, target: dict) -> list[str]:
    return ["synthesize", "--system", system, "--observable", observable,
            "--target", json.dumps(target, sort_keys=True),
            "--count", "6", "--windows", "4"]


def typical_argv(system: str) -> list[str]:
    return ["typical", "--system", system, "--members", "3", "--windows", "6"]


def invoke(main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI verb in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
