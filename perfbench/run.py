"""Benchmark of the ``ergodic-certify`` verbs, driven in-process.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each workload (see workloads.py) is a closed loop with concurrency 1: one
process calls ``ergocert.cli.main([...])`` for one operation at a time and
starts the next when it returns.  An operation fails on a non-zero exit
code, an exception, or a failed output check (checks.py); checks run
outside the timed region.

Timings are scaled to a nominal host speed (calibrate.py): a fixed
reference computation is timed between operations and every 0.25 s inside
them, and each latency and set-up time is multiplied by the nominal
reference time over the local one.  The shared 2-vCPU host the
benchmark was made on changes speed by up to 1.6x within seconds; there,
over ten seeds, the scaled ops_per_s, op_p50_ms and op_tail_ms spread
(interquartile range over median) 1.5-6.5% where the measured ones spread
9-19%.  The measured figures are printed next to the scaled ones, and
every op line carries both.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs every operation both untraced and traced
(tracer.py), checks that tracing changed no output byte and that every
wrapped function ran on the workloads that should exercise it, and
reports the per-layer metrics and the tracing overhead (traced minus
untraced time over the batch).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
from pools import invoke
from tracer import DERIVED_COUNTS, Tracer
from workloads import WORKLOADS, environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 9
#: the tail percentile is the highest one with this many operations beyond
TAIL_BEYOND = 10
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}


def _import_program():
    """Import the CLI from this checkout's ``src`` (never an installed
    copy); exit 2 when the checkout holds no program."""
    if not (SRC / "ergocert" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'ergocert'} is missing",
              file=sys.stderr)
        sys.exit(2)
    for name in [n for n in sys.modules
                 if n == "ergocert" or n.startswith("ergocert.")]:
        del sys.modules[name]
    import ergocert.cli
    if SRC not in Path(ergocert.cli.__file__).resolve().parents:
        print(f"imported {ergocert.cli.__file__}, not the checkout's copy",
              file=sys.stderr)
        sys.exit(2)
    return ergocert.cli


def setup(workload, seed: int, seconds: float):
    """Import the program and build the batch; returns (cli, batch).
    Repeated from a clean module table so each repeat pays the same
    imports."""
    cli = _import_program()
    return cli, workload.batch(seed, seconds, environment(workload))


def scaled_setup(workload, seed: int, seconds: float):
    """Set up ``SETUP_REPEATS`` times, timed against the host clock
    (calibrate.py); returns (median scaled seconds, cli, batch) of the
    last.  Each repeat starts from a collected heap that no longer holds
    the previous repeat's modules and batch."""
    clock = calibrate.HostClock()
    timings, program = [], None
    for _ in range(SETUP_REPEATS):
        program = None
        gc.collect()
        clock.sample()
        program, took, span = clock.timed(
            lambda: setup(workload, seed, seconds))
        timings.append((took, span))
    for _ in range(calibrate.NEIGHBOURS):
        clock.sample()
    setup_s = statistics.median(
        calibrate.scale(s, clock.local_reference(span))
        for s, span in timings)
    cli, batch = program
    return setup_s, cli, batch


def _invoke(cli, op):
    try:
        return invoke(cli.main, op.argv)
    except Exception:  # a crash is a failed operation, not a stop
        return None, "", traceback.format_exc(limit=3)


def call(cli, op, clock=None):
    """One timed operation: (exit code or None on a crash, stdout, stderr,
    seconds, span).  With a host clock the seconds are net of the
    reference timings taken inside, and ``span`` locates them."""
    if clock is not None:
        (code, text, err), seconds, span = clock.timed(lambda: _invoke(cli, op))
        return code, text, err, seconds, span
    t0 = time.perf_counter()
    code, text, err = _invoke(cli, op)
    return code, text, err, time.perf_counter() - t0, None


def traced_call(cli, op, tracer):
    """``call`` with the tracer installed; adds the derived counts the call
    produced."""
    before = dict(tracer.counts)
    tracer.install()
    try:
        result = call(cli, op)
    finally:
        tracer.uninstall()
    delta = {k: tracer.counts[k] - before.get(k, 0) for k in DERIVED_COUNTS
             if tracer.counts[k] != before.get(k, 0)}
    return result, delta


def run_batch(cli, ops, checks, tracer=None):
    """Run the batch once and check every output (a repeated output reuses
    the verdict of its first check).  With a tracer every operation also
    runs traced, alternately after and before the untraced call so that
    warm-up favours neither, and must emit the same bytes.  The untraced
    calls are timed against the host clock (calibrate.py): each record
    carries the measured ``ms`` (net of the reference timings inside), the
    local reference ``ref_ms`` and the ``scaled_ms`` derived from them.
    Returns per-op records and the untraced outputs."""
    records, outputs, verdicts, spans = [], [], {}, []
    clock = calibrate.HostClock()
    for _ in range(calibrate.NEIGHBOURS - 1):
        clock.sample()
    for i, op in enumerate(ops):
        clock.sample()
        traced = None
        if tracer is not None and i % 2:
            traced = traced_call(cli, op, tracer)
        code, text, err, seconds, span = call(cli, op, clock)
        spans.append(span)
        if tracer is not None and traced is None:
            traced = traced_call(cli, op, tracer)
        problem, work = None, {}
        if code != 0:
            problem = f"exit {code}: {err.strip()[-300:]}"
        else:
            key = (op.check, tuple(op.argv), text)
            if key not in verdicts:
                try:
                    verdicts[key] = checks[op.check](op, text)
                except Exception:
                    verdicts[key] = (traceback.format_exc(limit=3), {})
            problem, work = verdicts[key]
        rec = {"stratum": op.stratum, "input": op.label, "ms": seconds * 1e3}
        if traced is not None:
            (t_code, t_text, _, t_seconds, _), delta = traced
            if problem is None and (t_code, t_text) != (code, text):
                problem = "the traced call emitted other output"
            work = {**work, **delta}
            rec["traced_ms"] = t_seconds * 1e3
        rec.update(work=work, failed=problem is not None)
        if problem:
            rec["problem"] = problem
        records.append(rec)
        outputs.append(text)
    for _ in range(calibrate.NEIGHBOURS):
        clock.sample()
    for rec, span in zip(records, spans):
        rec["ref_ms"] = clock.local_reference(span)
        rec["scaled_ms"] = calibrate.scale(rec["ms"], rec["ref_ms"])
    return records, outputs


def output_sha256(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def end_to_end(records, setup_s: float) -> tuple[dict, str]:
    """The end-to-end metrics; timings are scaled to the nominal host
    (calibrate.py)."""
    lat = sorted(rec["scaled_ms"] for rec in records)
    n = len(lat)
    failed = sum(rec["failed"] for rec in records)
    tail_rank = max(0, n - TAIL_BEYOND - 1)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": lat[tail_rank],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_ratio": (n - failed) / n,
    }
    pct = 100 * (tail_rank + 1) / n
    raw = sorted(rec["ms"] for rec in records)
    note = (f"op_tail_ms is p{pct:.1f} of {n} operations "
            f"({n - tail_rank - 1} beyond it); fail_ratio {failed}/{n}\n"
            f"times scaled to a {calibrate.REFERENCE_NOMINAL_MS} ms reference;"
            f" measured: median reference "
            f"{statistics.median(rec['ref_ms'] for rec in records):.3f} ms, "
            f"op_p50 {statistics.median(raw):.3f} ms, op_tail "
            f"{raw[tail_rank]:.3f} ms, ops_per_s {n / (sum(raw) / 1e3):.4f}")
    return metrics, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    setup_s, cli, batch = scaled_setup(workload, args.seed, args.seconds)
    import checks
    tracer = None
    problems = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        problems += [f"unwrapped binding {b}" for b in tracer.stale_bindings()]
        tracer.uninstall()
    records, outputs = run_batch(cli, batch, checks.CHECKS, tracer)
    failed = sum(rec["failed"] for rec in records)
    digest = output_sha256(outputs)

    if tracer is not None:
        untraced_s = sum(rec["ms"] for rec in records) / 1e3
        traced_s = sum(rec["traced_ms"] for rec in records) / 1e3
        problems += [f"never called on {workload.name}: {name}"
                     for name in tracer.uncovered(workload.name)]
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        note = (f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s = "
                f"{traced_s - untraced_s:.3f} s tracing overhead")
        units = None
    else:
        metrics, note = end_to_end(records, setup_s)
        units = END_TO_END_UNITS

    for rec in records:
        print("op " + json.dumps(rec, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} ops {len(records)} "
          f"failed {failed}")
    print(f"output_sha256 {digest}")
    print(note)
    for name, value in metrics.items():
        unit = units[name] if units else _layer_unit(name)
        print(f"  {name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units[name] if units else _layer_unit(name)}
                    for name, value in metrics.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_all(args) -> int:
    """Run every workload untraced in its own process, one after another,
    and print one table of the end-to-end metrics."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines
                                 if not line.startswith("op ")))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])
    first = next(iter(rows.values()))["metrics"]
    table = [(name, m["unit"], {w: r["metrics"][name]["value"]
                                for w, r in rows.items()})
             for name, m in first.items()]
    table += [
        ("op_tail_pct", "%", {w: 100 * max(1, r["attempted"] - TAIL_BEYOND)
                              / r["attempted"] for w, r in rows.items()}),
        ("operations", "count", {w: r["attempted"] for w, r in rows.items()}),
        ("fail_ratio", "ratio", {w: r["failed"] / r["attempted"]
                                 for w, r in rows.items()})]
    print(f"{'metric':<24}" + "".join(f"{w:>14}" for w in rows) + "  unit")
    for name, unit, values in table:
        print(f"{name:<24}" + "".join(f"{values[w]:>14.6g}" for w in rows)
              + f"  {unit}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
