#!/usr/bin/env python3
"""gallaikit benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload k3-roundtrip --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; gallaikit is imported from ./src.
The workload's inputs are made from --seed. Whole rounds of the workload's
operations run while the longest round so far still ends within --seconds
(and at least MIN_ROUNDS rounds), the outputs of the first round are checked,
and every later round must give the same outputs. Operations are timed at a
reference machine speed (clock.py). The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, from rounds run with spans around gallaikit's functions.
See README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported: single-threaded runs

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import UNIT_REF_S, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
SETUP_SAMPLES = 9
# The child calibrates right before and right after importing gallaikit's
# CLI, on the vCPU it runs on; clock imports only signal and time.
SETUP_CODE = ("import time; t0 = time.monotonic(); import clock; c0 = clock.calibrate(); "
              "t1 = time.monotonic(); import gallaikit.cli; t2 = time.monotonic(); "
              "print(t0, t1, t2, c0, clock.calibrate())")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import gallaikit from ./src, and only from there."""
    if not (SRC / "gallaikit" / "__init__.py").is_file():
        fail(f"no gallaikit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import gallaikit.cli
    if Path(gallaikit.__file__).resolve().parent != (SRC / "gallaikit").resolve():
        fail(f"gallaikit was imported from {gallaikit.__file__}, not from {SRC}")
    return gallaikit.cli


def measure_setup() -> float:
    """Median time, at the reference speed, from starting a fresh interpreter
    to having imported gallaikit's CLI (numpy and mpmath included), over
    SETUP_SAMPLES starts. Each start is rescaled by the calibrations its
    child makes around the import (clock.py), and their time is left out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        t0, t1, t2, before, after = map(float, out.stdout.split())
        seconds = (t2 - start) - (t1 - t0)
        samples.append(seconds * UNIT_REF_S / ((before + after) / 2))
    return statistics.median(samples)


def digest(op, outcome) -> str:
    h = hashlib.sha256()
    h.update(f"{outcome.rc}\n{outcome.stdout}\n{outcome.result!r}".encode())
    for path in op.outputs:
        if not path.exists():
            h.update(b"missing")    # the checks report the missing file
            continue
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Runner:
    """Runs rounds of a workload's operations and keeps what the checks need."""

    def __init__(self, workload, cli, recorder, outcome, clock):
        self.wl = workload
        self.cli = cli
        self.clock = clock
        self.recorder = recorder
        self.outcome = outcome
        self.first: dict[str, object] = {}      # outcomes of round 0
        self.digests: dict[str, str] = {}
        self.wall: dict[str, list[float]] = {}  # bare wall times, for the log
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def run_op(self, op):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        done = {"rc": None, "result": None}

        def call():
            try:
                if op.argv is not None:
                    done["rc"] = self.cli.main(op.argv)
                else:
                    done["result"] = op.call()
                    done["rc"] = 0
            except Exception:       # a crash is a failed operation, not a crashed benchmark
                traceback.print_exc()

        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            seconds, wall = self.clock.time(call)
        self.wall.setdefault(op.name, []).append(wall)
        return self.outcome(done["rc"], seconds, out.getvalue(), err.getvalue(), done["result"])

    def round(self, round_no: int, times: dict[str, list[float]]) -> None:
        """One round; appends the time of each operation, at the reference
        speed (see clock.py), to times[op]."""
        for op in self.wl.ops:
            if self.recorder is not None:
                self.recorder.begin_op(round_no, op.name)
            outcome = self.run_op(op)
            times.setdefault(op.name, []).append(outcome.seconds)
            self.attempted += 1
            if outcome.rc != 0:
                self.failures.append(f"round {round_no} {op.name}: exit {outcome.rc}: "
                                     f"{outcome.stderr.strip()[-300:]}")
                continue
            d = digest(op, outcome)
            if op.name not in self.first:
                self.first[op.name] = outcome
                self.digests[op.name] = d
            elif self.digests[op.name] != d:
                self.problems.append(f"round {round_no} {op.name}: output differs from round 0")


def job_seconds(times: dict[str, list[float]]) -> float:
    """The workload's job time: each operation's median over the rounds,
    summed, so that an operation the calibration did not keep steady moves
    one sample of one operation."""
    return sum(statistics.median(ts) for ts in times.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_program()
    sys.path.insert(0, str(HERE))
    from spans import MEMORY, Recorder
    from workloads import WORKLOADS, Outcome
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")

    clock = Clock()
    setup_s = None if args.trace else measure_setup()
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)

    recorder = Recorder() if args.trace else None
    runner = Runner(wl, cli, recorder, Outcome, clock)
    plain: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    traced_rounds = []
    start = time.monotonic()
    longest = 0.0   # a round starts only if the longest so far would end in time
    i = 0
    while i < MIN_ROUNDS + args.trace or time.monotonic() - start + longest < args.seconds:
        round_start = time.monotonic()
        # the traced run alternates plain and traced rounds, for the overhead
        if args.trace and i % 2:
            recorder.install()
            try:
                runner.round(i, traced)
            finally:
                recorder.uninstall()
            traced_rounds.append(i)
        else:
            runner.round(i, plain)
        longest = max(longest, time.monotonic() - round_start)
        i += 1
    if args.trace:
        recorder.install_memory()
        try:
            runner.round(i, {})
        finally:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # failed operations are counted, not checked: the checks cover the rest
    problems = list(runner.problems)
    try:
        problems += wl.check(runner.first) + wl.self_test(runner.first)
    except (OSError, ValueError, IndexError, KeyError) as ex:   # malformed output
        problems.append(f"outputs could not be checked: {ex!r}")
    for p in (runner.failures + problems)[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.trace:
        layers = [recorder.round_metrics(r) for r in traced_rounds]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values.update({name: recorder.peaks_mb[name] for _, _, name in MEMORY})
        values["bench.trace_overhead_s"] = job_seconds(traced) - job_seconds(plain)
        recorder.write(workdir / "trace.json")
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": setup_s, "run_s": job_seconds(plain),
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    for name, ts in plain.items():
        print(f"perfbench:   {name}: {statistics.median(ts):.4f} s", file=sys.stderr)
    wall = "" if args.trace else f" wall_job_s={job_seconds(runner.wall):.3f}"
    print(f"perfbench: {args.workload} seed={args.seed} rounds={i} "
          f"job_s={job_seconds(plain):.3f}{wall} "
          f"unit_ms={1000 * statistics.median(clock.units):.3f}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
