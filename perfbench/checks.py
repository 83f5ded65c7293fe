"""Output checks, one per operation, and the exact work counts read from
each output.

Each check returns ``(problem or None, work)``.  The checks re-derive what
they can without the code path under test: artifacts must re-verify
through the standalone checker and replay, parse back to byte-identical
JSON, and carry the inputs they were asked for; a W1 plan must have the
input marginals and a value equal to the sum of flow times distance,
recomputed here.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ergocert.bc import SynthPoint, replay_synth
from ergocert.dynamics import parse_system
from ergocert.measures import IdealMeasure, TransportPlan
from ergocert.rates import RateCertificate, check_certificate
from ergocert.spaces import CANTOR, CIRCLE, IdealBall

KINDS = {"as-l1": "AS_L1", "as-bounded": "AS_BOUNDED", "norm-l1": "NORM_L1",
         "norm-l2": "NORM_L2"}


def _emitted(payload: dict) -> str:
    """The CLI's byte form of a payload (indent 2, sorted keys, newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def certificate(op, text: str):
    data = json.loads(text)
    cert = RateCertificate.from_json(data)
    work = {"p": cert.p, "n0": cert.n0_or_m, "norm_method": cert.norm_method}
    ctx = op.context
    if _emitted(cert.to_json()) != text:
        return "certificate does not round-trip byte-for-byte", work
    if (cert.system_sel != ctx["system"] or cert.kind != KINDS[ctx["kind"]]
            or cert.epsilon != Fraction(ctx["eps"])
            or cert.delta != (Fraction(ctx["delta"]) if ctx["delta"]
                              else None)):
        return "certificate does not carry the requested parameters", work
    ok, detail = check_certificate(cert)
    return (None if ok else f"check_certificate: {detail}"), work


def synth(op, text: str):
    data = json.loads(text)
    sp = SynthPoint.from_json(data)
    work = {"windows": sp.windows, "balls": len(sp.balls),
            "certified_windows": sum(1 for c in sp.certs
                                     if not c.get("trivial", True)),
            "max_n": max((c["n"] for c in sp.certs if c.get("n")),
                         default=0)}
    if _emitted(sp.to_json()) != text:
        return "synthesized point does not round-trip byte-for-byte", work
    target = op.context.get("target")
    if target and IdealBall.from_json(data["target"]) != \
            IdealBall.from_json(target):
        return "synthesized point ignores the requested target", work
    report = replay_synth(parse_system(data["system"]), sp, check_eval=True)
    if not report["ok"]:
        return f"replay_synth: {report['failures'][:3]}", work
    return None, work


def w1(op, text: str):
    data = json.loads(text)
    space = CIRCLE if op.context["space"] == "circle" else CANTOR
    mu1 = IdealMeasure.from_json(space, op.context["mu1"])
    mu2 = IdealMeasure.from_json(space, op.context["mu2"])
    flows = tuple((i, j, Fraction(a)) for i, j, a in data["plan"])
    work = {"atoms": len(mu1.atoms) + len(mu2.atoms), "flows": len(flows)}
    if not TransportPlan(flows).check_marginals(mu1, mu2):
        return "plan marginals differ from the input measures", work
    cost = sum((a * space.dist(mu1.atoms[i][0], mu2.atoms[j][0])
                for i, j, a in flows), Fraction(0))
    if cost != Fraction(data["value"]):
        return f"value {data['value']} != plan cost {cost}", work
    return None, work


def replay(op, text: str):
    data = json.loads(text)
    work = {"checked": data.get("checked", 1)}
    if not (data.get("ok") and data.get("roundtrip")):
        return f"replay rejected the artifact: {data}", work
    return None, work


def validate(op, text: str):
    data = json.loads(text)
    horizon = data.get("horizon_validation", {})
    work = {"horizon": horizon.get("horizon"),
            "window_empty": horizon.get("window_empty")}
    if not data["certificate_check"]["ok"]:
        return f"validate: {data['certificate_check']['detail']}", work
    if horizon and horizon.get("passed") is not True:
        return f"horizon validation did not pass: {horizon}", work
    return None, work


CHECKS = {"certificate": certificate, "synth": synth, "w1": w1,
          "replay": replay, "validate": validate}
