"""Certified window sequences, their intersections, and point synthesis."""

import itertools
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from ergocert import bc, dynamics
from ergocert.arith import pow2
from ergocert.bc import (BCSequence, bc_exact_windows, bc_intersect,
                         horizon_tolerance, replay_synth, SynthPoint,
                         synthesize_point, typical_point, Window,
                         window_witness)
from ergocert.cli import EXIT_OK, main
from ergocert.dynamics import (Shift, deviation_region, doubling_system,
                               parse_system, rotation_system, shift_system)
from ergocert.errors import InputError
from ergocert.measures import region_measure
from ergocert.observables import (CylinderFn, PiecewiseLinear,
                                  observable_from_json, observable_to_json)
from ergocert.spaces import CANTOR, CIRCLE, CirclePoint, IdealBall
import ball_reference as bref

SHIFT = shift_system(F(1, 2))
DBL = doubling_system()
ROT = rotation_system()
FIRSTBIT = CylinderFn.coordinate(0)
HAT = PiecewiseLinear.hat(F(1, 2), F(1, 8), F(1, 8))
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


class TestExactWindows:
    def test_shift_window_errors(self):
        # [DERIVED: frozen exact complement masses for geometric caps]
        bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                              count=4)
        got = [(w.info["n"], w.err) for w in map(bc.window, range(1, 5))]
        assert got == [(2, F(1, 2)), (3, F(1, 4)), (7, F(1, 8)),
                       (14, F(235, 4096))]
        for j in range(1, 5):
            assert bc.window(j).err <= pow2(j)
        assert bc.window(9).err == 0  # beyond count: the whole space
        # the second member of test_intersection_tail_sound: coordinate 1
        # at caps 2^-(2+j); the fourth window finds no n <= 18
        bc = bc_exact_windows(SHIFT, CylinderFn.coordinate(1),
                              caps=lambda j: pow2(2 + j), count=4)
        got = [(w.info["n"], w.info["delta"], w.err)
               for w in map(bc.window, range(1, 5))]
        assert got == [(4, F(1, 2), F(1, 8)), (14, F(1, 4), F(235, 4096)),
                       (18, F(1, 4), F(253, 8192)), (None, None, 0)]
        assert bc.window(4).info["trivial"]
        assert not bc.window(3).info["trivial"]

    def test_doubling_first_window(self):
        # [DERIVED: frozen exact arc mass of the first deviation window]
        bc = bc_exact_windows(DBL, HAT, caps=lambda j: pow2(j), count=3)
        assert bc.window(1).info["n"] == 1 and bc.window(1).err == F(9, 32)
        for j in range(1, 4):
            assert bc.window(j).err <= pow2(j)

    def test_rotation_caps_met(self):
        # [DERIVED: rationalized rotation windows still meet their caps]
        bc = bc_exact_windows(ROT, PiecewiseLinear.hat(F(1, 2), F(1, 4),
                                                       F(1, 8)),
                              caps=lambda j: pow2(j), count=3)
        for j in range(1, 4):
            assert bc.window(j).err <= pow2(j)

    def test_tail_dominates_errs(self):
        # [DERIVED: tail(u) >= sum of remaining certified errors]
        bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                              count=4)
        for u in range(1, 6):
            assert sum(bc.window(j).err for j in range(u, 12)) <= bc.tail(u)

    def test_opens_have_certified_mass(self):
        # [DERIVED: mu(U_j) >= 1 - err(j), measured from the exact prefix]
        bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                              count=3)
        for j in range(1, 4):
            w = bc.window(j)
            assert region_measure(SHIFT, SHIFT.region(
                bref.region_balls(w.region))) >= 1 - w.err


    def test_shift_regions_built_only_when_read(self, monkeypatch):
        # [DERIVED: on the shift every candidate's err comes from the
        # partial-sum law, so no region is built until one is read; a read
        # builds it once per (n, delta), tagged copies share it, and its
        # 1 - mu is the recorded err (replay's route)]
        built = []

        def counted(system, f, n, delta):
            built.append((n, delta))
            return deviation_region(system, f, n, delta)

        monkeypatch.setattr(bc, "deviation_region", counted)
        # a cap of 1/2 takes the same (n, delta) for several j
        loose = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: F(1, 2),
                                 count=6)
        capped = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j + 1),
                                  count=4)
        assert not built
        keys = 0
        for seq in (loose, capped):
            listed = [w for w in seq.windows if not w.info["trivial"]]
            for w in listed:
                assert w.err == 1 - region_measure(SHIFT, w.region)
            keys += len({(w.info["n"], w.info["delta"]) for w in listed})
        assert len(built) == keys < len(loose.windows) + len(capped.windows)
        before = len(built)
        tagged = bc_intersect([capped])
        assert all(t.region is w.region
                   for t, w in zip(tagged.windows, capped.windows))
        assert len(built) == before

    def test_doubling_views_built_only_when_read(self, monkeypatch):
        # [DERIVED: on the doubling map every candidate window is built
        #  once to be weighed, as an integer form; synthesis weighs, meets
        #  and searches the windows it reads in integers, so no window's
        #  Fraction view is built, read or not: the identity scaled by
        #  3/4, whose windows reach n = 11 and set construct's tail]
        built = []

        def counted(system, f, n, delta):
            built.append(deviation_region(system, f, n, delta))
            return built[-1]

        monkeypatch.setattr(bc, "deviation_region", counted)
        f = PiecewiseLinear([(F(0), F(1), F(0), F(3, 4))])
        seq = bc_exact_windows(DBL, f, caps=lambda j: pow2(j), count=6)
        sp = synthesize_point(DBL, seq, IdealBall(CIRCLE, F(3, 8), F(1, 8)),
                              windows=4, track=[f])
        read = {id(seq.window(c["index"]).region) for c in sp.certs
                if not c["trivial"]}
        assert len(built) > len(read) > 0
        assert {id(r) for r in built} >= read
        assert [r for r in built if "arcs" in vars(r)] == []

    def test_shift_replay_builds_no_table(self, monkeypatch, capsys):
        # [DERIVED: replay checks every shift window on the law's states
        #  (`Shift.law_window`): replaying each shift point of the corpus
        #  builds no running sum over the words and no region]
        def built(*args):
            pytest.fail("replay built a word table")

        monkeypatch.setattr(Shift, "birkhoff_sum", built)
        monkeypatch.setattr(dynamics, "deviation_region", built)
        monkeypatch.setattr(bc, "deviation_region", built)
        points = [p for p in sorted(CORPUS.glob("*.json"))
                  if "certs" in (d := json.loads(p.read_text()))
                  and d["system"].startswith("shift")]
        assert len(points) == 2
        for path in points:
            assert main(["replay", "--artifact", str(path)]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            assert out["ok"] and out["checked"] == 4, path.name

    def test_accepted_balls_lie_in_every_earlier_window(self):
        # [DERIVED: oracle = exact measure; on every synthesized and
        #  typical point of the corpus, stream ball t + 1 lies in the
        #  deviation region of every non-trivial window up to t's,
        #  mu(region & ball) = mu(ball), so the intersection synthesis
        #  keeps of the windows so far holds the whole accepted ball]
        pairs = 0
        for path in sorted(CORPUS.glob("synth_*.json")) \
                + sorted(CORPUS.glob("typical_*.json")):
            d = json.loads(path.read_text())
            system = parse_system(d["system"])
            regions = []
            for t, cert in enumerate(d["certs"]):
                if not cert["trivial"]:
                    regions.append(deviation_region(
                        system, observable_from_json(cert["observable"]),
                        cert["n"], F(cert["delta"])))
                ball = system.region([IdealBall.from_json(cert["ball"])])
                for region in regions:
                    assert region_measure(system, region.intersect(ball)) \
                        == region_measure(system, ball), (path.name, t)
                    pairs += 1
        assert pairs == 83


class TestIntersect:
    def test_cap_violation_rejected(self):
        # [DERIVED: a member whose error misses its dovetail cap must raise]
        cover = SHIFT.region(CANTOR.cover())
        half = Window(F(1, 2), lambda: cover, {})
        fat = BCSequence(CANTOR, [half] * 4, [half])
        with pytest.raises(InputError):
            bc_intersect([fat, fat])

    def test_intersection_tail_sound(self):
        # [DERIVED: reported errors never exceed the dovetail caps and the
        # tail dominates their sum]
        bcs = [bc_exact_windows(SHIFT, f,
                                caps=lambda j, i=i: pow2(i + 1 + j), count=4)
               for i, f in enumerate([FIRSTBIT, CylinderFn.coordinate(1)])]
        inter = bc_intersect(bcs)
        errs = [inter.window(t).err for t in range(1, 9)]
        assert all(e >= 0 for e in errs)
        for u in range(1, 6):
            assert sum(inter.window(t).err
                       for t in range(u, len(inter.windows) + 1)) \
                <= inter.tail(u)

    def test_past_the_list_is_the_tagged_whole_space(self):
        # [DERIVED: past its list an intersection's window t is the whole
        #  space with err 0, still recording the member and member window
        #  of the dovetail pair at t, as the listed windows do]
        bcs = [bc_exact_windows(SHIFT, f,
                                caps=lambda j, i=i: pow2(i + 1 + j), count=2)
               for i, f in enumerate([FIRSTBIT, CylinderFn.coordinate(1)])]
        inter = bc_intersect(bcs)
        # pairs (i, j) with i + j <= 4: (1,1) (1,2) (2,1) (1,3) (2,2)
        assert len(inter.windows) == 5
        assert [(w.info["member"], w.info["member_window"])
                for w in map(inter.window, range(1, 9))] \
            == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (1, 4), (2, 3),
                (1, 5)]
        for t in (6, 7, 8):
            w = inter.window(t)
            assert w.err == 0 and w.info["trivial"]
            witness = window_witness(SHIFT, w)
            for word in ("", "0", "1", "0110", "1111111"):
                assert witness(CANTOR.cylinder_ball(word)) \
                    == (0, CANTOR.cover()[0])
            assert w.info["observable"] == \
                bcs[w.info["member"] - 1].window(9).info["observable"]
        assert inter.tail(6) == inter.tail(100) == 0
        assert inter.modulus(F(1, 1 << 40)) == 6


class TestSynthesis:
    def test_shift_synthesize_and_replay(self):
        # [DERIVED: every certified window replays; serialization
        # round-trips to an identical artifact and identical point]
        bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                              count=6)
        target = IdealBall(CANTOR, "1", F(3, 4))
        sp = synthesize_point(SHIFT, bc, target, windows=4, track=[FIRSTBIT])
        rep = replay_synth(SHIFT, sp, check_eval=True)
        assert rep["ok"], rep
        d = sp.to_json()
        sp2 = SynthPoint.from_json(d)
        assert sp2.to_json() == d
        assert sp2.point.prefix(20) == sp.point.prefix(20)
        assert horizon_tolerance(sp) is not None

    def test_doubling_synthesize_and_replay(self):
        bc = bc_exact_windows(DBL, HAT, caps=lambda j: pow2(j), count=5)
        target = IdealBall.from_index(DBL.space, 3)
        sp = synthesize_point(DBL, bc, target, windows=4, track=[HAT])
        rep = replay_synth(DBL, sp, check_eval=True)
        assert rep["ok"], rep
        # the decimal rendering is certified to the printed digits
        assert len(sp.decimal(10).split(".")[1]) == 10
        # a point just below 1 is within 10^-12 of 0 on the circle
        near_one = replace(sp, point=CirclePoint.from_rational(1 - pow2(45)))
        assert near_one.decimal(12) == "0.000000000000"
        assert near_one.decimal(10) == "0.0000000000"

    def test_whole_circle_window_records_the_three_part_split(self, capsys,
                                                              tmp_path):
        # [DERIVED: the rotation hat scaled by 1/100 deviates from its mean
        #  by less than every delta at n = 1, so each window's region is
        #  the whole circle, non-trivial with err 0; its witness comes from
        #  the full circle's split into three parts of radius 1/6, not from
        #  the two overlapping balls of the cover, and the output replays]
        hat = ('{"variant": "piecewise_linear", "segments": '
               '[["0", "1/8", "0", "0"], ["1/8", "1/4", "0", "1/100"], '
               '["1/4", "3/4", "1/100", "1/100"], '
               '["3/4", "7/8", "1/100", "0"], ["7/8", "1", "0", "0"]]}')
        code = main(["synthesize", "--system", "rotation", "--observable",
                     hat, "--target",
                     '{"space":"circle","center":"3/4","radius":"1/8"}',
                     "--count", "6", "--windows", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        certs = json.loads(out)["certs"]
        assert len(certs) == 4
        for cert in certs:
            assert not cert["trivial"] and cert["err"] == "0"
            assert cert["witness"] == {"space": "circle", "center": "5/6",
                                       "radius": "1/6"}
            assert cert["witness_pos"] == 2
        art = tmp_path / "point.json"
        art.write_text(out)
        assert main(["replay", "--artifact", str(art)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_whole_window_takes_the_first_cover_ball(self):
        # [DERIVED: the circle's two cover balls overlap on (1/6, 1/3); a
        #  whole-space window records the first that holds the candidate,
        #  ball 0, for every refinement of a target inside the overlap]
        bc = bc_exact_windows(DBL, HAT, caps=lambda j: pow2(j), count=0)
        target = IdealBall(CIRCLE, F(1, 4), F(1, 16))
        sp = synthesize_point(DBL, bc, target, windows=3)
        assert len(sp.certs) == 3
        for cert in sp.certs:
            assert cert["trivial"] and cert["witness_pos"] == 0
            assert cert["witness"] == CIRCLE.cover()[0].to_json()
        assert replay_synth(DBL, sp)["ok"]

    def test_replay_detects_tampering(self):
        # [DERIVED: moving the final ball off the certified chain fails]
        bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                              count=4)
        sp = synthesize_point(SHIFT, bc, IdealBall(CANTOR, "1", F(3, 4)),
                              windows=3)
        d = sp.to_json()
        d["balls"][-1]["center"] = d["balls"][-1]["center"][:-1] + (
            "0" if d["balls"][-1]["center"].endswith("1") else "1")
        bad = SynthPoint.from_json(d)
        rep = replay_synth(SHIFT, bad)
        assert not rep["ok"]

    def test_replay_bounds_the_recorded_precision(self):
        # [DERIVED: a window's precision may reach the accepted ball's
        #  depth + 2, what synthesis records on Cantor space, and no more]
        bc = bc_exact_windows(SHIFT, FIRSTBIT, caps=lambda j: pow2(j),
                              count=4)
        sp = synthesize_point(SHIFT, bc, IdealBall(CANTOR, "1", F(3, 4)),
                              windows=2)
        d = sp.to_json()
        first = d["certs"][0]
        depth = CANTOR.depth(IdealBall.from_json(first["ball"]))
        assert first["precision"] == depth + 2
        assert replay_synth(SHIFT, SynthPoint.from_json(d))["ok"]
        first["precision"] = depth + 3
        rep = replay_synth(SHIFT, SynthPoint.from_json(d))
        assert not rep["ok"]
        assert rep["failures"] == [f"window {first['index']}: precision "
                                   f"{depth + 3} above the accepted ball's "
                                   "depth + 2"]

    @pytest.mark.parametrize("where, field, value, details", [
        ("balls", "radius", "3/4", ["ball 1: radius above 2^-1"]),
        ("certs", "witness", {"space": "cantor", "center": "0",
                              "radius": "3/4"},
         ["window 4: accepted ball escapes witness"]),
        # A_7 f is 2/7 at the point, 1/28 from the mean 1/4
        ("certs", "delta", "1/32",
         ["window 4: witness outside deviation region",
          "window 4: |A_7 f - mean| not below 1/32"])])
    def test_replay_rejects_a_weakened_field(self, where, field, value,
                                             details):
        # [DERIVED: one field of the first ball or certificate after the
        #  target, weakened by hand, fails with that check's detail]
        d = json.loads((CORPUS / "synth_shift1-2_w01.json").read_text())
        d[where][1 if where == "balls" else 0][field] = value
        rep = replay_synth(SHIFT, SynthPoint.from_json(d), check_eval=True)
        assert not rep["ok"]
        assert all(x in rep["failures"] for x in details), rep["failures"]

    def test_points_dense_in_support(self, capsys, tmp_path):
        # [PAPER: pseudorandom points are dense in the support: the CLI
        #  synthesizes one in each of the first positive-mass canonical
        #  balls, and each replays and stays nested in its target]
        balls = (IdealBall.from_index(CANTOR, i) for i in itertools.count())
        mass_balls = (b for b in balls
                      if b.radius <= 1
                      and region_measure(SHIFT, SHIFT.region([b])) > 0)
        for k, target in enumerate(itertools.islice(mass_balls, 3)):
            art = tmp_path / f"point{k}.json"
            code = main(["synthesize", "--system", SHIFT.selector(),
                         "--observable",
                         json.dumps(observable_to_json(FIRSTBIT)),
                         "--target", json.dumps(target.to_json()),
                         "--windows", "2", "--count", "4",
                         "--output", str(art)])
            assert code == EXIT_OK
            assert main(["replay", "--artifact", str(art)]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["ok"]
            sp = SynthPoint.from_json(json.loads(art.read_text()))
            assert sp.balls[0] == target
            assert CANTOR.inside(sp.balls[-1], target)


class TestTypical:
    def test_typical_point_shift_quick(self):
        # [DERIVED: small multi-observable synthesis replays end to end]
        sp = typical_point(SHIFT, members=2, windows=3)
        assert replay_synth(SHIFT, sp, check_eval=True)["ok"]
        d = sp.to_json()
        assert SynthPoint.from_json(d).to_json() == d
