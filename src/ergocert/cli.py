"""Command-line front end: certificates, validation, synthesis, W1, demos.

All artifacts are JSON; rationals cross the boundary as "num/den" strings,
never floats.  Exit codes: 0 success, 1 input error (a malformed command
line or an unwritable output path included) or failed check, 2 budget
exceeded (with partial progress reported when available).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

from .arith import fmt_rat, parse_rat, pow2
from .bc import (SynthPoint, bc_exact_windows, check_size, replay_synth,
                 synthesize_point, typical_point)
from .dynamics import builtin_systems, parse_system
from .errors import BudgetExceededError, ErgocertError, InputError
from .measures import IdealMeasure, w1_ideal
from .observables import observable_from_json
from .rates import (RateCertificate, as_rate_bounded, as_rate_l1,
                    check_certificate, l_rate, validate_as)
from .spaces import IdealBall, space_named

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


def _plan_columns(value) -> tuple | None:
    """The columns of a list of flat [int, int, str] rows (a transport
    plan), or None; other lists are told from their first item."""
    head = value[0]
    if type(head) is not list or tuple(map(type, head)) != (int, int, str) \
            or set(map(type, value)) != {list} or set(map(len, value)) != {3}:
        return None
    i, j, flows = columns = tuple(zip(*value))
    return columns if set(map(type, i + j)) == {int} \
        and set(map(type, flows)) == {str} else None


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    non-empty dicts with string keys, lists, tuples, strings, ints, bools
    and None, the values every payload holds, written by one recursive walk:
    json runs its pure-Python encoder whenever an indent is given.  A list
    of flat [int, int, str] rows (a transport plan) is written by one
    %-template per row, read column by column; any other list writes its
    plain string and int items (a table) in place, with no call per item.
    `pad` is the newline and indent that close the value."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, dict):
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _escape(k) + ": " + _dumps(v, inner)
            for k, v in sorted(value.items())]) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        columns = _plan_columns(value)
        if columns:
            cell = inner + "  "
            row = "[" + cell + "%d," + cell + "%d," + cell + "%s" + inner + "]"
            i, j, flows = columns
            items = [row % r for r in zip(i, j, map(_escape, flows))]
        else:
            items = [_escape(v) if type(v) is str else
                     int.__repr__(v) if type(v) is int else _dumps(v, inner)
                     for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def _emit(args, payload: dict) -> None:
    text = _dumps(payload)
    if getattr(args, "output", None):
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _load_json_arg(spec: str, what: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    s = spec.strip()
    if not s.startswith(("{", "[")):
        try:
            s = Path(spec).read_text()
        except OSError as e:
            raise InputError(f"cannot read {what} from {spec!r}: {e}")
    try:
        return json.loads(s)
    except (json.JSONDecodeError, RecursionError) as e:  # or nested too deep
        raise InputError(f"malformed {what} JSON: {e}")


def _load_observable(spec: str):
    data = _load_json_arg(spec, "observable")
    try:
        return observable_from_json(data)
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"bad observable field: {e}")


def _frac(s: str, what: str) -> Fraction:
    try:
        q = parse_rat(s)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad {what} {s!r}: {e}")
    if not 0 < q <= 1:
        raise InputError(f"{what} must lie in (0, 1]")
    return q


# ---------------------------------------------------------------------------
# Verbs


def _cmd_systems(args) -> int:
    out = []
    for s in builtin_systems():
        out.append({"selector": s.selector(), "space": s.space.name,
                    "map": s.name, "measure": s.label})
    _emit(args, {"systems": out})
    return EXIT_OK


def _cmd_rate(args) -> int:
    system = parse_system(args.system)
    f = _load_observable(args.observable)
    eps = _frac(args.eps, "eps")
    if args.kind in ("norm-l1", "norm-l2"):
        cert = l_rate(system, f, eps,
                      "L1" if args.kind == "norm-l1" else "L2")
    else:
        if args.delta is None:
            raise InputError("a.s. certificates need --delta")
        delta = _frac(args.delta, "delta")
        maker = as_rate_bounded if args.kind == "as-bounded" else as_rate_l1
        cert = maker(system, f, eps, delta)
    _emit(args, cert.to_json())
    return EXIT_OK


def _cmd_validate(args) -> int:
    data = _load_json_arg(args.certificate, "certificate")
    cert = RateCertificate.from_json(data)
    ok, msg = check_certificate(cert)
    report = {"certificate_check": {"ok": ok, "detail": msg}}
    code = EXIT_OK if ok else EXIT_INPUT
    if ok and args.horizon is not None:
        system = parse_system(cert.system_sel)
        f = observable_from_json(cert.observable)
        vr = validate_as(system, f, cert, args.horizon, args.mode)
        report["horizon_validation"] = vr.to_json()
        if not vr.passed:
            code = EXIT_INPUT
    _emit(args, report)
    return code


def _cmd_synthesize(args) -> int:
    system = parse_system(args.system)
    f = _load_observable(args.observable)
    target = IdealBall.from_json(_load_json_arg(args.target, "target ball"))
    check_size("windows", args.windows)  # before any window is built
    if target.space is not system.space:
        raise InputError(f"a {target.space.name} target on {args.system}")
    bc = bc_exact_windows(system, f, caps=lambda j: pow2(j), count=args.count)
    sp = synthesize_point(system, bc, target, windows=args.windows,
                          track=[f])
    _emit(args, sp.to_json())
    return EXIT_OK


def _cmd_typical(args) -> int:
    system = parse_system(args.system)
    sp = typical_point(system, members=args.members, windows=args.windows)
    _emit(args, sp.to_json())
    return EXIT_OK


def _cmd_w1(args) -> int:
    space = space_named(args.space)
    mu1 = IdealMeasure.from_json(space, _load_json_arg(args.mu1, "mu1"))
    mu2 = IdealMeasure.from_json(space, _load_json_arg(args.mu2, "mu2"))
    value, plan = w1_ideal(space, mu1, mu2)
    _emit(args, {"value": fmt_rat(value), "plan": plan.to_json()})
    return EXIT_OK


def _cmd_replay(args) -> int:
    data = _load_json_arg(args.artifact, "artifact")
    if "balls" in data:
        sp = SynthPoint.from_json(data)
        system = parse_system(data["system"])
        rep = replay_synth(system, sp, check_eval=not args.fast)
        rt = sp.to_json() == data
        rep["roundtrip"] = rt
        _emit(args, rep)
        return EXIT_OK if rep["ok"] and rt else EXIT_INPUT
    if "kind" in data:
        cert = RateCertificate.from_json(data)
        ok, msg = check_certificate(cert)
        rt = cert.to_json() == data
        _emit(args, {"ok": ok, "detail": msg, "roundtrip": rt})
        return EXIT_OK if ok and rt else EXIT_INPUT
    raise InputError("unrecognized artifact (expected a certificate or a "
                     "synthesized point)")


def _cmd_demo_float(args) -> int:
    # The one place binary floating point is allowed: show the collapse.
    x0 = parse_rat(args.x0)
    steps = args.steps
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")
    try:
        xf = float(x0)
    except OverflowError:
        raise InputError(f"x0 {args.x0!r} is out of a double's range")
    hit_zero = None
    float_orbit = []  # the first iterates, which are printed
    for i in range(steps):
        if i < 8:
            float_orbit.append(xf)
        if xf == 0.0 and hit_zero is None:
            hit_zero = i
        xf = (2.0 * xf) % 1.0
    if xf == 0.0 and hit_zero is None:
        hit_zero = steps
    seen: dict[Fraction, int] = {}
    xr = x0 % 1
    period = None
    preperiod = None
    exact_hits_zero = False
    for i in range(steps + 1):
        if xr == 0:
            exact_hits_zero = True
        if xr in seen:
            preperiod = seen[xr]
            period = i - seen[xr]
            break
        seen[xr] = i
        xr = (2 * xr) % 1
    _emit(args, {
        "x0": fmt_rat(x0),
        "steps": steps,
        "float_orbit_first": [repr(v) for v in float_orbit],
        "float_hits_zero_at": hit_zero,
        "exact_orbit_period": period,
        "exact_orbit_preperiod": preperiod,
        "exact_orbit_hits_zero": exact_hits_zero,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every parse starts from a new
    namespace, so calls share no state.  A malformed command line is an
    input error (exit 1 with a typed JSON error), not argparse's exit 2,
    which means a budget here."""
    ap = argparse.ArgumentParser(
        prog="ergodic-certify",
        description="Certified Birkhoff-average rates and pseudorandom "
                    "points in exact arithmetic")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("systems", help="list built-in systems")
    p.set_defaults(fn=_cmd_systems)

    p = sub.add_parser("rate", help="emit a convergence-rate certificate")
    p.add_argument("--system", required=True)
    p.add_argument("--observable", required=True,
                   help="inline JSON or path to a JSON file")
    p.add_argument("--eps", required=True)
    p.add_argument("--delta")
    p.add_argument("--kind", default="as-l1",
                   choices=["norm-l1", "norm-l2", "as-bounded", "as-l1"])
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("validate", help="re-check a certificate (and "
                       "optionally measure it against a horizon)")
    p.add_argument("--certificate", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--mode", choices=["EXACT_CYLINDER", "EXACT_ARC"],
                   help="default: the exact mode of the certificate's system")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("synthesize",
                       help="synthesize a point in a target ball")
    p.add_argument("--system", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--target", required=True, help="ball JSON")
    p.add_argument("--windows", type=int, default=4)
    p.add_argument("--count", type=int, default=6,
                   help="certified deviation windows to construct")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("typical", help="synthesize a typical point")
    p.add_argument("--system", required=True)
    p.add_argument("--members", type=int, default=3)
    p.add_argument("--windows", type=int, default=6)
    p.set_defaults(fn=_cmd_typical)

    p = sub.add_parser("w1", help="exact W1 distance between ideal measures")
    p.add_argument("--space", required=True, choices=["circle", "cantor"])
    p.add_argument("--mu1", required=True)
    p.add_argument("--mu2", required=True)
    p.set_defaults(fn=_cmd_w1)

    p = sub.add_parser("replay", help="re-verify an emitted artifact")
    p.add_argument("--artifact", required=True)
    p.add_argument("--fast", action="store_true",
                   help="skip interval re-evaluation of window averages")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("demo-float",
                       help="contrast IEEE-double and exact orbits")
    p.add_argument("--x0", default="1/10")
    p.add_argument("--steps", type=int, default=64)
    p.set_defaults(fn=_cmd_demo_float)

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write the artifact to this path")
    for parser in (ap, *sub.choices.values()):
        parser.error = functools.partial(_usage_error, parser.prog)
    return ap


def _usage_error(prog: str, message: str):
    raise InputError(f"{prog}: {message}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (InputError, ValueError, KeyError, TypeError,
            ZeroDivisionError, OSError) as e:
        print(json.dumps({"error": "input", "detail": str(e)}),
              file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as e:
        print(json.dumps({"error": "budget_exceeded", "detail": str(e)}),
              file=sys.stderr)
        return EXIT_BUDGET
    except ErgocertError as e:
        print(json.dumps({"error": type(e).__name__, "detail": str(e)}),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
