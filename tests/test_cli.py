"""CLI verbs, exit codes, artifact round-trips."""

import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import bc, cli, rates
from ergocert.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from ergocert.dynamics import Rotation, System
from ergocert.errors import InputError
from ergocert.observables import FTerm
from ergocert.rates import RateCertificate, check_certificate

FIRSTBIT = '{"variant": "cylinder", "depth": 1, "table": ["0", "1"]}'
HAT = ('{"variant": "piecewise_linear", "segments": '
       '[["0", "1/8", "0", "0"], ["1/8", "1/4", "0", "1"],'
       ' ["1/4", "3/4", "1", "1"], ["3/4", "7/8", "1", "0"],'
       ' ["7/8", "1", "0", "0"]]}')
NARROW = ('{"variant": "piecewise_linear", "segments": '
          '[["0", "31/64", "0", "0"], ["31/64", "1/2", "0", "1"],'
          ' ["1/2", "33/64", "1", "0"], ["33/64", "1", "0", "0"]]}')
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestVerbs:
    def test_systems(self, capsys):
        code, out = run(capsys, "systems")
        assert code == EXIT_OK
        assert out["systems"] == [
            {"selector": "doubling", "space": "circle", "map": "doubling",
             "measure": "lebesgue"},
            {"selector": "shift:p=1/2", "space": "cantor", "map": "shift",
             "measure": "bernoulli(1/2)"},
            {"selector": "rotation", "space": "circle", "map": "rotation",
             "measure": "lebesgue"}]

    def test_rate_and_replay(self, capsys, tmp_path):
        art = tmp_path / "cert.json"
        code = main(["rate", "--system", "shift:p=1/2", "--observable",
                     FIRSTBIT, "--eps", "1/4", "--delta", "1/4",
                     "--kind", "as-l1", "--output", str(art)])
        assert code == EXIT_OK
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_OK and out["ok"] and out["roundtrip"]

    def test_validate_horizon(self, capsys, tmp_path):
        art = tmp_path / "cert.json"
        main(["rate", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
              "--eps", "1/4", "--delta", "1/4", "--output", str(art)])
        code, out = run(capsys, "validate", "--certificate", str(art),
                        "--horizon", "16")
        assert code == EXIT_OK
        assert out["certificate_check"]["ok"]
        assert out["horizon_validation"]["passed"]
        # without --mode the rotation certificate is measured in its
        # system's exact mode (EXACT_ARC), over a nonempty window
        rot = CORPUS / "cert_rotation_hat_c_as-bounded_1-4_1-2.json"
        code, out = run(capsys, "validate", "--certificate", str(rot),
                        "--horizon", "52")
        assert code == EXIT_OK
        assert out["horizon_validation"]["mode"] == "EXACT_ARC"
        assert out["horizon_validation"]["passed"]
        assert not out["horizon_validation"]["window_empty"]
        # a window over the segment budget is refused before it runs
        code = main(["validate", "--certificate", str(rot),
                     "--horizon", "100000"])
        assert code == EXIT_BUDGET
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "budget_exceeded"
        # on the shift the window is weighed by the partial-sum law: n0 =
        # 299 measured to 319, past 2^24 cylinders, and a horizon of 10^8
        # priced past the law's budget and refused before it runs
        shift = CORPUS / "cert_shift1-3_first_bit_as-bounded_1-4_1-2.json"
        code, out = run(capsys, "validate", "--certificate", str(shift),
                        "--horizon", "319")
        rep = out["horizon_validation"]
        assert code == EXIT_OK and rep["n_start"] == 299
        assert 0 < Fraction(rep["measured_mass"]) <= Fraction(1, 4)
        code = main(["validate", "--certificate", str(shift),
                     "--horizon", "100000000"])
        assert code == EXIT_BUDGET
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "budget_exceeded"
        # a horizon below 1 measures no window: an input error with a JSON
        # diagnostic, never a vacuous pass
        cert = CORPUS / "cert_shift1-2_w01_as-bounded_1-4_1-2.json"
        for horizon in ("-3", "0"):
            code = main(["validate", "--certificate", str(cert),
                         "--horizon", horizon])
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            assert json.loads(streams.err)["error"] == "input"

    def test_validate_merges_arcs_of_many_n(self, capsys, tmp_path):
        # a narrow hat on the doubling map certified from n0 = 1: over the
        # window n = 1..12 the 11 exceed arcs of n = 1, 2, 3 overlap and
        # merge into 7, weighed exactly
        art = tmp_path / "narrow.json"
        code = main(["rate", "--kind", "as-bounded", "--eps", "1",
                     "--delta", "1/4", "--system", "doubling",
                     "--observable", NARROW, "--output", str(art)])
        cert = json.loads(art.read_text())
        assert code == EXIT_OK and cert["p"] == cert["n0_or_m"] == 1
        code, out = run(capsys, "validate", "--certificate", str(art),
                        "--horizon", "12")
        assert code == EXIT_OK and out["certificate_check"]["ok"]
        rep = out["horizon_validation"]
        assert rep["passed"] and not rep["window_empty"]
        assert rep["measured_mass"] == "45/1024"

    def test_w1(self, capsys):
        mu = '[["1/4", "1"]]'
        nu = '[["3/4", "1"]]'
        code, out = run(capsys, "w1", "--space", "circle",
                        "--mu1", mu, "--mu2", nu)
        assert code == EXIT_OK and out["value"] == "1/2"

    def test_synthesize_and_replay(self, capsys, tmp_path):
        art = tmp_path / "point.json"
        target = '{"space": "cantor", "center": "1", "radius": "3/4"}'
        code = main(["synthesize", "--system", "shift:p=1/2", "--observable",
                     FIRSTBIT, "--target", target, "--windows", "3",
                     "--count", "4", "--output", str(art)])
        assert code == EXIT_OK
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_OK and out["ok"] and out["roundtrip"]

    def test_demo_float(self, capsys):
        code, out = run(capsys, "demo-float", "--x0", "1/10",
                        "--steps", "64")
        assert code == EXIT_OK
        assert out["float_hits_zero_at"] is not None
        assert out["float_hits_zero_at"] <= 64
        assert not out["exact_orbit_hits_zero"]
        assert 4 % out["exact_orbit_period"] == 0

    def test_demo_float_prints_the_first_iterates(self, capsys):
        # only the first 8 float iterates are kept, and fewer steps print
        # fewer
        for steps, want in ((64, 8), (3, 3), (0, 0)):
            code, out = run(capsys, "demo-float", "--x0", "1/10",
                            "--steps", str(steps))
            assert code == EXIT_OK
            assert out["float_orbit_first"] == \
                ["0.1", "0.2", "0.4", "0.8", "0.6000000000000001",
                 "0.20000000000000018", "0.40000000000000036",
                 "0.8000000000000007"][:want]

    def test_calls_share_no_state(self, capsys, tmp_path):
        # the parser is built once per process: an --output of one call
        # must not carry over into the next
        art = tmp_path / "systems.json"
        assert main(["systems", "--output", str(art)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        code, out = run(capsys, "systems")
        assert code == EXIT_OK
        assert out == json.loads(art.read_text())


class TestCorpus:
    def test_stored_artifacts_replay(self, capsys):
        # [DERIVED: artifacts emitted by an earlier version must still
        # replay, so every file of the stored benchmark corpus is replayed]
        names = json.loads((CORPUS / "MANIFEST.json").read_text())["files"]
        assert names
        failed = [name for name in sorted(names)
                  if main(["replay", "--artifact", str(CORPUS / name)])
                  != EXIT_OK]
        capsys.readouterr()
        assert not failed


#: payload-shaped values: non-ASCII strings, ints, bools and None, nested
#: in non-empty dicts, lists and tuples (which json writes as lists)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, min_size=1, max_size=4),
    max_leaves=24)


class TestEmitter:
    # [DERIVED: oracle = json.dumps(indent=2, sort_keys=True), the bytes
    # every verb wrote before its direct emitter]

    def test_every_corpus_file_reemitted(self):
        paths = sorted(CORPUS.glob("*.json"))
        assert paths
        for path in paths:
            data = json.loads(path.read_text())
            assert cli._dumps(data) \
                == json.dumps(data, indent=2, sort_keys=True), path.name

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) \
            == json.dumps(value, indent=2, sort_keys=True)

    def test_plans_and_rows_off_the_template(self):
        # [DERIVED: plans of 0, 1 and many [int, int, str] rows, alone and
        #  nested in a payload, and lists whose rows must not take the
        #  one-template path: 2 or 4 items, a bool, None, a nested list, a
        #  tuple row or a dict, in the first row or later; a flow that
        #  needs escaping takes the template and is escaped; a float is no
        #  payload value and is refused]
        rng = random.Random(42)
        many = [[rng.randrange(64), rng.randrange(64),
                 f"{rng.randint(1, 99)}/{rng.randint(100, 999)}"]
                for _ in range(200)]
        plans = [[], [[0, 0, "1"]], many, [[-1, 10 ** 30, ""]],
                 [[0, 1, "é\n\""], [2, 3, "\u2028"]]]
        off = [[0, 1], [0, 1, "2", 3], [True, 1, "2"], [0, False, "2"],
               [0, None, "2"], [0, 1, ["2"]], [0, 1, None],
               (0, 1, "2"), [0, 1, 2], ["0", 1, "2"],
               {"0": 1, "2": 3}]
        values = plans + [{"plan": p, "value": "1/2"} for p in plans]
        for row in off:
            values += [[row], [row, [0, 1, "2"]], [[0, 1, "2"], row],
                       many[:5] + [row] + many[5:9]]
        for value in values:
            assert cli._dumps(value) \
                == json.dumps(value, indent=2, sort_keys=True), value
        with pytest.raises(TypeError):
            cli._dumps([[0, 1.5, "2"]])
        # the plans take the template, no list with such a row does
        assert all(cli._plan_columns(p) for p in plans[1:])
        assert not any(cli._plan_columns(v) for v in values[2 * len(plans):])


def _edit_certs(which, **fields):
    """A forgery that sets `fields` on the certificates `which` selects."""
    def forge(data):
        for cert in data["certs"]:
            if which(cert):
                cert.update(fields)
    return forge


def _start_at_minus_3(data):
    """A forgery that numbers the windows from -3."""
    data["start_index"] = -3
    for t, cert in enumerate(data["certs"]):
        cert["index"] = t - 3


class TestExitCodes:
    def test_malformed_observable_names_field(self, capsys):
        code = main(["rate", "--system", "shift:p=1/2", "--observable",
                     '{"variant": "cylinder", "depth": 1}', "--eps", "1/4",
                     "--delta", "1/4"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "table" in err  # diagnostic names the missing field

    def test_unknown_variant(self, capsys):
        code = main(["rate", "--system", "shift:p=1/2", "--observable",
                     '{"variant": "nope"}', "--eps", "1/4",
                     "--delta", "1/4"])
        assert code == EXIT_INPUT
        # a generator on a space that does not exist
        torus = ('{"variant": "fterm", "expr": {"op": "gen", "space": '
                 '"torus", "s": "1/2", "r": "1/4", "eps": "1/8"}}')
        code = main(["rate", "--system", "doubling", "--observable", torus,
                     "--eps", "1/4", "--delta", "1/4"])
        assert code == EXIT_INPUT
        # JSON numbers where rational strings belong: a binary float
        # breakpoint, and integers
        for system, obs in (
                ("doubling", '{"variant": "piecewise_linear", "segments": '
                             '[[0, 0.1, 0, 1], [0.1, 1, 1, 0]]}'),
                ("shift:p=1/2", '{"variant": "cylinder", "depth": 1, '
                                '"table": [0, 1]}'),
                # a depth that is not a JSON integer
                *(("shift:p=1/2", '{"variant": "cylinder", "depth": %s, '
                                  '"table": ["0", "1"]}' % depth)
                  for depth in ("1.9", '"1"', "true")),
                # more values than breakpoints, and no JSON object at all
                ("doubling", '{"variant": "piecewise_linear", "breakpoints":'
                             ' ["0", "1/2"], "values": ["0", "1", "5"]}'),
                ("doubling", '[1]')):
            code = main(["rate", "--system", system, "--kind", "norm-l2",
                         "--observable", obs, "--eps", "1/8"])
            assert code == EXIT_INPUT

    @pytest.mark.parametrize("name, change", [
        # a certificate whose observable is not a JSON object, or whose
        # system selector is not a string
        *(("cert_shift1-2_w01_as-bounded_1-4_1-2.json", change)
          for change in ({"observable": [1]}, {"observable": "x"},
                         {"system": 5}, {"system": None})),
        # a synthesized point with the same faults, without even its
        # target ball, with a stream ball on the circle, or with a tail
        # rule other than "balanced"
        *(("synth_shift1-2_w01.json", change)
          for change in ({"system": 5}, {"system": None}, {"balls": []},
                         {"balls": [{"space": "circle", "center": "1/2",
                                     "radius": "3/16"}]},
                         {"tail_rule": "left"}, {"tail_rule": 7}))])
    def test_malformed_artifact_is_an_input_error(self, capsys, tmp_path,
                                                  name, change):
        art = tmp_path / name
        art.write_text(json.dumps({**json.loads((CORPUS / name).read_text()),
                                   **change}))
        verbs = [["replay", "--artifact", str(art)]]
        if name.startswith("cert_"):
            verbs.append(["validate", "--certificate", str(art)])
        for argv in verbs:
            code = main(argv)
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            assert json.loads(streams.err)["error"] == "input"

    @pytest.mark.parametrize("name", [
        "cert_shift1-2_coord1_norm-l2_1-8.json",
        "cert_doubling_hat_a_norm-l2_1-8.json"])
    @pytest.mark.parametrize("p", [0, -3, -200])
    def test_l2_certificate_with_p_below_1(self, capsys, tmp_path, name, p):
        # the L2 route refuses p < 1 as the L1 route does, before any
        # index into the correlation table or any square root
        art = tmp_path / name
        art.write_text(json.dumps({**json.loads((CORPUS / name).read_text()),
                                   "p": p}))
        for argv in (["replay", "--artifact", str(art)],
                     ["validate", "--certificate", str(art)]):
            code = main(argv)
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            assert json.loads(streams.err) == {"error": "input",
                                               "detail": "p must be >= 1"}

    @pytest.mark.parametrize("name, field", [
        *(("cert_shift1-2_w01_as-bounded_1-4_1-2.json", field)
          for field in ("sup_bound", "delta")),
        *(("cert_shift1-2_w01_norm-l1_1-4.json", field)
          for field in ("n_factor", "fbar_norm")),
        *(("cert_shift1-2_w01_as-l1_1-4_1-4.json", field)
          for field in ("M", "rho", "tail_level", "delta_sub"))])
    def test_missing_field_is_a_failed_check(self, capsys, tmp_path, name,
                                             field):
        # a field the certificate's kind needs fails the check before any
        # comparison reads it
        data = json.loads((CORPUS / name).read_text())
        del data[field]
        ok, msg = check_certificate(RateCertificate.from_json(data))
        assert not ok and field in msg, msg
        art = tmp_path / name
        art.write_text(json.dumps(data))
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_INPUT and not out["ok"]

    def test_norm_certificate_with_an_as_claim_fails(self, capsys,
                                                     tmp_path):
        # a norm certificate given a delta and an a.s. guarantee text: its
        # kind, not the delta, decides the guarantee, so the text differs
        # from it and both verbs fail the certificate
        name = "cert_shift1-2_first_bit_norm-l1_1-4.json"
        art = tmp_path / name
        art.write_text(json.dumps({
            **json.loads((CORPUS / name).read_text()), "delta": "1/4",
            "guarantee": "mu(sup_(n>=40) |A_n(f-int f)| > 1/4) <= 1/4"}))
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_INPUT and not out["ok"] and not out["roundtrip"]
        code, out = run(capsys, "validate", "--certificate", str(art),
                        "--horizon", "16")
        assert code == EXIT_INPUT
        assert out == {"certificate_check": {
            "ok": False,
            "detail": "guarantee text differs from the certified parameters"}}

    def test_negative_levels_fail_both_verbs(self, capsys, tmp_path):
        # a certificate whose eps and delta are negative, n0 1 and text
        # rewritten to match: its bound chain holds vacuously, so only the
        # domain of its parameters refuses it, as an input error on both
        # verbs, as p < 1 is
        name = "cert_shift1-2_w01_as-bounded_1-4_1-2.json"
        data = {**json.loads((CORPUS / name).read_text()),
                "epsilon": "-1/4", "delta": "-1/2", "n0_or_m": 1}
        data["guarantee"] = RateCertificate.from_json(data).statement()
        assert data["guarantee"] \
            == "mu(sup_(n>=1) |A_n(f-int f)| > -1/2) <= -1/4"
        art = tmp_path / name
        art.write_text(json.dumps(data))
        for argv in (["replay", "--artifact", str(art)],
                     ["validate", "--certificate", str(art), "--horizon",
                      "4"]):
            code = main(argv)
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            assert json.loads(streams.err) == {
                "error": "input", "detail": "epsilon must be > 0"}

    @pytest.mark.parametrize("name, field, value, windows, detail", [
        ("synth_doubling_hat_a.json", "err", "1/2", "region",
         "err is not 1 - mu(region)"),
        ("synth_doubling_hat_a.json", "err", "-1", "region",
         "err is not 1 - mu(region)"),
        ("synth_shift1-3_first_bit.json", "err", "0", "region",
         "err is not 1 - mu(region)"),
        ("synth_doubling_hat_a.json", "err", "1/4", "whole",
         "err of a whole-space window is not 0"),
        ("synth_doubling_hat_a.json", "lambda", "-5", "all",
         "lambda not positive"),
        ("synth_rotation_hat_a.json", "lambda", "0", "all",
         "lambda not positive"),
        ("synth_doubling_hat_a.json", "witness_pos", 999, "all",
         "witness is not the region's ball"),
        ("synth_shift1-3_first_bit.json", "witness_pos", 1, "region",
         "witness is not the region's ball"),
    ])
    def test_synth_point_with_a_false_record_fails(self, capsys, tmp_path,
                                                   name, field, value,
                                                   windows, detail):
        # a synthesized point whose recorded err, lambda or witness
        # position is false on every window of a class (those with a
        # region, the whole-space ones, or all) fails replay
        data = json.loads((CORPUS / name).read_text())
        hit = [c for c in data["certs"] if windows == "all"
               or c["trivial"] == (windows == "whole")]
        assert hit and any(c[field] != value for c in hit)
        for c in hit:
            c[field] = value
        art = tmp_path / name
        art.write_text(json.dumps(data))
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_INPUT and not out["ok"]
        assert any(detail in f for f in out["failures"]), out["failures"]

    @pytest.mark.parametrize("name, forge, detail", [
        ("synth_doubling_identity.json",
         _edit_certs(lambda c: c["trivial"], witness_pos=999),
         "witness is not the first cover ball that holds the accepted ball"),
        ("synth_doubling_identity.json",
         _edit_certs(lambda c: c["index"] == 5, witness={
             "space": "circle", "center": "1/2", "radius": "1/3"}),
         "witness is not the first cover ball that holds the accepted ball"),
        ("synth_shift1-3_first_bit.json",
         _edit_certs(lambda c: c["index"] == 3, trivial=True, err="0"),
         "a whole-space window records n or delta"),
        ("synth_shift1-3_first_bit.json", _start_at_minus_3,
         '{"error": "input", "detail": '
         '"start_index must be >= 1, not -3"}')],
        ids=["whole-space-witness-pos", "other-cover-ball",
             "relabelled-whole-space", "start-index-below-1"])
    def test_forged_synth_point_is_refused(self, capsys, tmp_path, name,
                                           forge, detail):
        # a whole-space window records n and delta null, err 0 and the
        # first cover ball that holds the accepted ball as its witness,
        # and windows are numbered from 1: each forgery fails replay
        data = json.loads((CORPUS / name).read_text())
        forge(data)
        art = tmp_path / name
        art.write_text(json.dumps(data))
        code = main(["replay", "--artifact", str(art)])
        streams = capsys.readouterr()
        assert code == EXIT_INPUT
        assert detail in streams.out + streams.err, streams

    @pytest.mark.parametrize("name, field, value, detail", [
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "epsilon", "0", "> 0"),
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "p", 0, ">= 1"),
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "n0_or_m", 0, ">= 1"),
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "norm_bound", "-1/8",
         ">= 0"),
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "n_factor", -2, ">= 1"),
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "fbar_norm", "-1", ">= 0"),
        ("cert_shift1-2_w01_as-bounded_1-4_1-2.json", "delta", "0", "> 0"),
        ("cert_shift1-2_w01_as-bounded_1-4_1-2.json", "sup_bound", "-1",
         ">= 0"),
        ("cert_shift1-2_w01_as-l1_1-4_1-4.json", "epsilon", "-1/4", "> 0"),
        ("cert_shift1-2_w01_as-l1_1-4_1-4.json", "M", "0", "> 0"),
        ("cert_shift1-2_w01_as-l1_1-4_1-4.json", "rho", "-1/64", ">= 0"),
        ("cert_shift1-2_w01_as-l1_1-4_1-4.json", "tail_level", "-1",
         ">= 0")])
    def test_parameter_out_of_domain_is_refused_first(self, monkeypatch,
                                                      name, field, value,
                                                      detail):
        # every kind refuses each parameter out of its domain before it
        # recomputes anything, and names it
        def recompute(*args):
            raise AssertionError("recomputed before the domain check")

        for owner, step in ((System, "norm_by"), (Rotation, "norm_by"),
                            (rates, "l_norm_birkhoff"), (rates, "centered"),
                            (rates, "_tail_l1")):
            monkeypatch.setattr(owner, step, recompute)
        data = {**json.loads((CORPUS / name).read_text()), field: value}
        with pytest.raises(InputError) as err:
            check_certificate(RateCertificate.from_json(data))
        assert str(err.value) == f"{field} must be {detail}"

    @pytest.mark.parametrize("name, field, value", [
        ("cert_shift1-2_first_bit_norm-l1_1-4.json", "sup_bound", "1/2"),
        ("cert_shift1-2_coord1_norm-l2_1-8.json", "delta", "1/4"),
        ("cert_shift1-2_w01_as-bounded_1-4_1-2.json", "M", "1"),
        ("cert_shift1-2_w01_as-l1_1-4_1-4.json", "fbar_norm", "1/2")])
    def test_field_of_another_kind_fails_the_round_trip(self, capsys,
                                                        tmp_path, name,
                                                        field, value):
        # a certificate reads and re-emits only the fields of its kind: the
        # check passes on them, and the added field fails the round trip
        art = tmp_path / name
        art.write_text(json.dumps({**json.loads((CORPUS / name).read_text()),
                                   field: value}))
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_INPUT
        assert out == {"ok": True, "detail": "ok", "roundtrip": False}

    def test_norm_certificate_refuses_a_horizon(self, capsys):
        # a horizon measures an a.s. guarantee only: on a norm certificate
        # it is an input error, not a check that drops the horizon
        code = main(["validate", "--certificate",
                     str(CORPUS / "cert_shift1-2_w01_norm-l2_1-8.json"),
                     "--horizon", "16"])
        streams = capsys.readouterr()
        assert code == EXIT_INPUT and not streams.out
        assert json.loads(streams.err) == {
            "error": "input",
            "detail": "only a.s. certificates validate against a horizon"}

    def test_negative_windows(self, capsys, tmp_path):
        # a negative window count is refused by both verbs, and so is a
        # negative count of BC windows; zero windows is a point that
        # replays
        synth = ["synthesize", "--system", "shift:p=1/2", "--observable",
                 FIRSTBIT, "--target", '{"space": "cantor", "center": "1", '
                 '"radius": "3/4"}', "--count", "4"]
        for argv in ([*synth, "--windows", "-1"],
                     [*synth, "--windows", "2", "--count", "-1"],
                     ["typical", "--system", "shift:p=1/2", "--windows",
                      "-2"]):
            code = main(argv)
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            assert json.loads(streams.err)["error"] == "input"
        art = tmp_path / "point.json"
        assert main([*synth, "--windows", "0", "--output", str(art)]) \
            == EXIT_OK
        code, out = run(capsys, "replay", "--artifact", str(art))
        assert code == EXIT_OK and out["ok"] and out["roundtrip"]

    def test_refused_before_any_window_is_built(self, capsys, monkeypatch):
        # a negative window count, or a target on the other space, is
        # refused before the BC windows are built: the builder never runs
        def build(*args, **kwargs):
            raise AssertionError("windows built before the refusal")

        monkeypatch.setattr(cli, "bc_exact_windows", build)
        monkeypatch.setattr(bc, "bc_exact_windows", build)
        synth = ["synthesize", "--system", "shift:p=1/2", "--observable",
                 FIRSTBIT, "--target"]
        cantor = '{"space": "cantor", "center": "1", "radius": "3/4"}'
        circle = '{"space": "circle", "center": "1/2", "radius": "1/4"}'
        for argv in ([*synth, cantor, "--windows", "-1"],
                     [*synth, circle, "--windows", "2"],
                     ["typical", "--system", "doubling", "--windows", "-1"]):
            code = main(argv)
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out, argv
            assert json.loads(streams.err)["error"] == "input"

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        # an --output path that cannot be written (a missing directory, or
        # a directory) ends in exit 1 with a JSON error, not a traceback
        for path in (tmp_path / "missing" / "x.json", tmp_path):
            code = main(["systems", "--output", str(path)])
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            err = json.loads(streams.err)
            assert err["error"] == "input" and str(path) in err["detail"]

    def test_ball_on_the_wrong_space(self, capsys, tmp_path):
        # a target, or a replayed certificate's ball, on the other space
        # than the system's is an input error that names the space
        for system, obs, target in (
                ("shift:p=1/2", FIRSTBIT,
                 {"space": "circle", "center": "1/2", "radius": "1/4"}),
                ("doubling", HAT,
                 {"space": "cantor", "center": "1", "radius": "3/4"})):
            code = main(["synthesize", "--system", system, "--observable",
                         obs, "--target", json.dumps(target), "--windows",
                         "2", "--count", "4"])
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            err = json.loads(streams.err)
            assert err["error"] == "input"
            assert target["space"] in err["detail"], err
        data = json.loads((CORPUS / "synth_shift1-2_w01.json").read_text())
        for key in ("witness", "ball"):
            bad = json.loads(json.dumps(data))
            bad["certs"][0][key] = {"space": "circle", "center": "5/8",
                                    "radius": "3/16"}
            art = tmp_path / f"{key}.json"
            art.write_text(json.dumps(bad))
            code = main(["replay", "--artifact", str(art)])
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out
            assert json.loads(streams.err)["error"] == "input"

    def test_non_binary_cantor_word(self, capsys):
        for word in ("2", "01x"):
            code = main(["w1", "--space", "cantor", "--mu1",
                         json.dumps([[word, "1"]]), "--mu2", '[["0", "1"]]'])
            assert code == EXIT_INPUT

    def _refused(self, capsys, *argv):
        code = main(list(argv))
        streams = capsys.readouterr()
        assert code == EXIT_INPUT and not streams.out, argv
        assert json.loads(streams.err)["error"] == "input", argv

    @pytest.mark.parametrize("space", ["cantor", "circle"])
    def test_measure_is_a_list_of_pairs(self, capsys, space):
        # a string atom would unpack as its characters, an object as its
        # keys: each shape but a list of two-element lists is refused
        for mu1 in ('["01"]', '{"01": "x"}', '[["0", "1", "1"]]', '[]',
                    '[["0"]]', '[{"0": "1"}]'):
            self._refused(capsys, "w1", "--space", space, "--mu1", mu1,
                          "--mu2", '[["0", "1"]]')

    def test_observable_lists_are_lists(self, capsys):
        # a string where a list belongs would be read character by
        # character (the table [0, 1, 1, 0], the constant 1, breakpoints
        # 0 and 1)
        for system, obs in (
                ("shift:p=1/2", {"variant": "cylinder", "depth": 2,
                                 "table": "0110"}),
                ("doubling", {"variant": "piecewise_linear",
                              "segments": ["0111"]}),
                ("doubling", {"variant": "piecewise_linear",
                              "segments": "0111"}),
                ("doubling", {"variant": "piecewise_linear",
                              "breakpoints": "01", "values": "01"}),
                ("doubling", {"variant": "piecewise_linear",
                              "breakpoints": ["0", "1"], "values": "01"})):
            self._refused(capsys, "rate", "--system", system, "--observable",
                          json.dumps(obs), "--eps", "1/4", "--delta", "1/4")

    def test_demo_float_out_of_range(self, capsys):
        for x0 in ("1e400", "-1e400"):
            self._refused(capsys, "demo-float", "--x0", x0)

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.loads recurses once per level: a list nested 100,000 deep
        # (from a file, as from the command line), and a generator term
        # nested 5,000 deep
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        for mu1 in (str(deep), deep.read_text()):
            self._refused(capsys, "w1", "--space", "cantor", "--mu1", mu1,
                          "--mu2", '[["0", "1"]]')
        expr = '{"op": "one"}'
        for _ in range(5000):
            expr = f'{{"op": "max", "args": [{expr}, {{"op": "one"}}]}}'
        self._refused(capsys, "rate", "--system", "doubling", "--observable",
                      f'{{"variant": "fterm", "expr": {expr}}}', "--eps",
                      "1/4", "--kind", "norm-l2")

    def test_term_too_deep_to_resolve(self, capsys, monkeypatch):
        # [DERIVED: a term that parses but nests past the recursion limit
        #  when resolved (System.as_concrete) is a typed input error, not
        #  a RecursionError traceback]
        term = FTerm.one()
        for _ in range(3000):
            term = FTerm("max", (term, FTerm.one()))
        monkeypatch.setattr(cli, "observable_from_json", lambda d: term)
        self._refused(capsys, "rate", "--system", "doubling", "--observable",
                      '{"variant": "fterm"}', "--eps", "1/4", "--kind",
                      "norm-l2")

    def test_bad_eps(self, capsys):
        code = main(["rate", "--system", "shift:p=1/2", "--observable",
                     FIRSTBIT, "--eps", "3/2", "--delta", "1/4"])
        assert code == EXIT_INPUT

    def test_bad_system(self, capsys):
        code = main(["rate", "--system", "lorenz", "--observable",
                     FIRSTBIT, "--eps", "1/4", "--delta", "1/4"])
        assert code == EXIT_INPUT
        # a target ball on a space that does not exist
        code = main(["synthesize", "--system", "shift:p=1/2", "--observable",
                     FIRSTBIT, "--target", '{"space": "torus", "center": '
                     '"1", "radius": "3/4"}', "--windows", "3", "--count",
                     "4"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("argv", [
        ["rate", "--kind", "bogus", "--system", "doubling", "--observable",
         "x", "--eps", "1"],
        ["validate", "--certificate", "x", "--horizon", "abc"],
        ["demo-float", "--steps", "-3"],
        # the sampled estimate is gone: no such mode
        ["validate", "--certificate",
         str(CORPUS / "cert_rotation_hat_a_as-l1_1-4_1-4.json"),
         "--horizon", "8", "--mode", "SAMPLED"],
        # a Bernoulli parameter outside (0, 1)
        ["rate", "--system", "shift:p=3/2", "--observable", FIRSTBIT,
         "--eps", "1/4"],
        # a negative number of windows to construct
        ["synthesize", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
         "--target", '{"space": "cantor", "center": "1", "radius": "3/4"}',
         "--count", "-1"]])
    def test_usage_errors_are_input_errors(self, capsys, argv):
        # exit 2 means a computation budget; a malformed command line is
        # an input error with a typed JSON diagnostic
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert json.loads(err)["error"] == "input"

    def test_unsupported_mode_exits_1_on_any_window(self, capsys):
        # n0 = 280: the shift's mode on a rotation certificate is refused
        # over the empty window below n0 as it is past n0
        cert = CORPUS / "cert_rotation_hat_a_as-l1_1-4_1-4.json"
        for horizon in ("8", "300"):
            code = main(["validate", "--certificate", str(cert), "--horizon",
                         horizon, "--mode", "EXACT_CYLINDER"])
            streams = capsys.readouterr()
            assert code == EXIT_INPUT and not streams.out, horizon
            assert json.loads(streams.err)["error"] == "UnsupportedPairError"

    def test_unreadable_artifact(self, capsys):
        code = main(["replay", "--artifact", "/nonexistent/a.json"])
        assert code == EXIT_INPUT

    def test_budget_exceeded(self, capsys):
        code = main(["rate", "--system", "doubling", "--observable", HAT,
                     "--eps", "1/1099511627776", "--kind", "norm-l1"])
        assert code == EXIT_BUDGET

    def test_tampered_artifact_fails_replay(self, capsys, tmp_path):
        art = tmp_path / "cert.json"
        main(["rate", "--system", "shift:p=1/2", "--observable", FIRSTBIT,
              "--eps", "1/4", "--delta", "1/4", "--output", str(art)])
        data = json.loads(art.read_text())
        data["n0_or_m"] = 1
        art.write_text(json.dumps(data))
        code = main(["replay", "--artifact", str(art)])
        assert code == EXIT_INPUT
        # certificate integers that are not JSON integers
        cert = json.loads((CORPUS / "cert_shift1-2_w01_as-bounded_1-4_1-2"
                                    ".json").read_text())
        for field, value in (("p", "18"), ("p", 18.4), ("n0_or_m", "102"),
                             ("n0_or_m", 102.0), ("n0_or_m", True)):
            art.write_text(json.dumps({**cert, field: value}))
            assert main(["replay", "--artifact", str(art)]) == EXIT_INPUT
            assert main(["validate", "--certificate", str(art)]) \
                == EXIT_INPUT
        # a synthesized point whose window claim its certificates do not
        # back: more windows than certificates, a shifted start, a cut
        # certificate list, counts that are not JSON integers, and accepted
        # balls that are not the stream's next ball
        point = json.loads((CORPUS / "synth_shift1-2_w01.json").read_text())
        first, *rest = point["certs"]
        for change in ({"windows": 40}, {"start_index": 1},
                       {"start_index": 99}, {"certs": [first]},
                       {"windows": "4"}, {"start_index": 4.0},
                       *({"certs": [{**first, field: value}, *rest]}
                         for field, value in (("index", 4.0),
                                              ("position", True),
                                              ("precision", 5.5),
                                              ("n", True), ("n", 4.0),
                                              ("n", "4"),
                                              ("ball", {"center": "1011",
                                                        "radius": "3/32",
                                                        "space": "cantor"}),
                                              ("ball", {"center": "10111",
                                                        "radius": "3/64",
                                                        "space": "cantor"})))):
            art.write_text(json.dumps({**point, **change}))
            assert main(["replay", "--artifact", str(art)]) == EXIT_INPUT

    def test_malformed_payload_is_a_failed_check(self, capsys, tmp_path,
                                                 monkeypatch):
        # a zero denominator in the system selector and an unknown
        # observable variant are verification failures, not crashes
        from ergocert import rates
        cert = json.loads((CORPUS / "cert_shift1-2_w01_as-bounded_1-4_1-2"
                                    ".json").read_text())
        art = tmp_path / "cert.json"
        for change in ({"system": "shift:p=1/0"},
                       {"observable": {"variant": "spline"}}):
            art.write_text(json.dumps({**cert, **change}))
            ok, msg = rates.check_certificate(
                rates.RateCertificate.from_json({**cert, **change}))
            assert not ok and msg.startswith("payload: "), msg
            code, out = run(capsys, "replay", "--artifact", str(art))
            assert code == EXIT_INPUT
            assert not out["ok"] and out["detail"].startswith("payload: ")
        # a programming error in the checker is not read as a bad payload
        def broken(d):
            raise AttributeError("a bug")
        monkeypatch.setattr(rates, "observable_from_json", broken)
        with pytest.raises(AttributeError):
            rates.check_certificate(rates.RateCertificate.from_json(cert))


def capped(*argv, timeout=30):
    """(exit code, stdout, stderr) of the CLI run in a subprocess under a
    1 GB address-space cap and a timeout of `timeout` seconds."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "ergocert.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap, env={**os.environ,
                                               "PYTHONPATH": path})
    return done.returncode, done.stdout, done.stderr


def max_chain(levels: int) -> str:
    """An fterm observable: `levels` nested maxima of the constant 1."""
    return ('{"variant": "fterm", "expr": ' + '{"op": "max", "args": ['
            * levels + '{"op": "one"}' + ', {"op": "one"}]}' * levels + "}")


@pytest.mark.parametrize("levels", [470, 490, 494])
def test_nested_max_chain_ends_in_an_answer(tmp_path, levels):
    # [DERIVED: around the depth where json.loads stops, a max chain that
    #  parses is resolved or refused with a typed error; 490 levels once
    #  ended in a RecursionError traceback from FTerm.concrete]
    obs = tmp_path / "chain.json"
    obs.write_text(max_chain(levels))
    code, out, err = capped("rate", "--system", "doubling", "--kind",
                            "norm-l2", "--eps", "1/4", "--observable",
                            str(obs))
    assert "Traceback" not in err
    if levels <= 470 or code == EXIT_OK:
        assert code == EXIT_OK and json.loads(out)["norm_bound"] == "0"
    else:
        assert code == EXIT_INPUT and json.loads(err)["error"] == "input"


class TestPricedBeforeBuilt:
    """Sizes read from the input are priced before anything that size is
    built: each case ends in its exit code and a JSON answer, never a
    MemoryError traceback or a run past the timeout."""

    def test_huge_cylinder_depth(self):
        code, out, err = capped(
            "rate", "--system", "shift:p=1/2", "--eps", "1/4",
            "--observable", '{"variant": "cylinder", '
                            '"depth": 100000000000, "table": ["0"]}')
        assert code == EXIT_INPUT and "Traceback" not in err
        assert json.loads(err)["error"] == "input"

    def test_deep_cantor_bump(self):
        # radius 2^-26: a table of 2^26 cylinders
        code, out, err = capped(
            "rate", "--system", "shift:p=1/2", "--kind", "norm-l1",
            "--eps", "1/4", "--observable",
            '{"variant": "fterm", "expr": {"op": "gen", "space": "cantor",'
            ' "s": "", "r": "1/67108864", "eps": "1/4"}}')
        assert code == EXIT_BUDGET and "Traceback" not in err
        assert json.loads(err)["error"] == "budget_exceeded"

    def test_huge_window_n(self, tmp_path):
        point = json.loads((CORPUS / "synth_doubling_hat_a.json").read_text())
        point["certs"][0]["n"] = 10 ** 11
        art = tmp_path / "point.json"
        art.write_text(json.dumps(point))
        code, out, err = capped("replay", "--fast", "--artifact", str(art))
        assert code == EXIT_BUDGET and "Traceback" not in err
        assert json.loads(err)["error"] == "budget_exceeded"

    @pytest.mark.parametrize("n", [25, 10 ** 8])
    def test_huge_shift_window_n(self, capsys, tmp_path, n):
        # the first bit's window at n reads words of n symbols: past 2^24
        # words it is refused before the law's states are pushed, as its
        # region was, so n = 10^8 fails at once and at flat memory
        point = json.loads(
            (CORPUS / "synth_shift1-3_first_bit.json").read_text())
        point["certs"][0]["n"] = n
        art = tmp_path / "point.json"
        art.write_text(json.dumps(point))
        code, out, err = capped("replay", "--artifact", str(art))
        assert code == EXIT_BUDGET and "Traceback" not in err
        assert json.loads(err)["error"] == "budget_exceeded"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        assert main(["replay", "--artifact", str(art)]) == EXIT_BUDGET
        assert time.perf_counter() - start < 0.5
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss \
            < 8 << 10  # kB
        assert json.loads(capsys.readouterr().err)["error"] \
            == "budget_exceeded"

    @pytest.mark.parametrize("argv", [
        ["synthesize", "--count", "1000000"],
        ["synthesize", "--windows", "100000000"],
        ["typical", "--windows", "100000000"],
        ["typical", "--members", "100000000"]])
    def test_huge_synthesis_sizes(self, argv):
        # the windows a sequence lists, the windows a point certifies and
        # the observables a typical point dovetails are priced before any
        # window is built; each of these ran past 15 s with no answer
        verb, *sizes = argv
        synth = ["--observable", '{"variant": "piecewise_linear", '
                 '"segments": [["0", "1", "0", "3/4"]]}', "--target",
                 '{"space": "circle", "center": "3/8", "radius": "1/8"}']
        code, out, err = capped(verb, "--system", "doubling", *sizes,
                                *(synth if verb == "synthesize" else ()),
                                timeout=10)
        assert code == EXIT_BUDGET and not out and "Traceback" not in err
        assert json.loads(err)["error"] == "budget_exceeded"

    def test_huge_precision(self, tmp_path):
        # a failed window, reported in the replay's own JSON
        point = json.loads((CORPUS / "synth_doubling_hat_a.json").read_text())
        point["certs"][0]["precision"] = 10 ** 6
        art = tmp_path / "point.json"
        art.write_text(json.dumps(point))
        code, out, err = capped("replay", "--artifact", str(art))
        assert code == EXIT_INPUT and "Traceback" not in err
        report = json.loads(out)
        assert not report["ok"]
        assert any("precision 1000000" in f for f in report["failures"])
