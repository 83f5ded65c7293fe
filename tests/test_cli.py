"""CLI verbs, exit codes, artifact round-trips."""

import json
from pathlib import Path

import pytest

from ergocert.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main

FIRSTBIT = '{"variant": "cylinder", "depth": 1, "table": ["0", "1"]}'
HAT = ('{"variant": "piecewise_linear", "segments": '
       '[["0", "1/8", "0", "0"], ["1/8", "1/4", "0", "1"],'
       ' ["1/4", "3/4", "1", "1"], ["3/4", "7/8", "1", "0"],'
       ' ["7/8", "1", "0", "0"]]}')
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


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
                                '"table": [0, 1]}')):
            code = main(["rate", "--system", system, "--kind", "norm-l2",
                         "--observable", obs, "--eps", "1/8"])
            assert code == EXIT_INPUT

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
