#!/usr/bin/env python3
"""Benchmark of the four stagecraft commands: verify, synthesize, converse, oracle.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-replay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # every workload, one table

A run generates the workload's pool of configs from ``--seed``, then
calls ``stagecraft.cli.main(argv)`` on the pool's items in order, pass
after pass, for ``--seconds`` seconds: a closed loop with one caller,
in one process and one thread.  Every item's outputs are checked (see
``workloads.check_item``) and must be byte-identical each time the item
runs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are calibrated.  On a shared machine the speed of a core can
change by half within seconds, which no number of repeats averages out.
So after every item the run times ``calibration()``, a fixed loop of the
scalar numpy calls the commands make, and scales the item's wall time by
``CALIBRATION_NOMINAL_S`` over the mean of the loop's times just before
and just after the item.  A reported millisecond is a millisecond on a
core where the loop takes ``CALIBRATION_NOMINAL_S``; the raw wall times
are printed beside the calibrated ones.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: import of ``stagecraft`` plus generating the configs, the
  median over this process and ``SETUP_PROBES`` fresh interpreters;
* ``items_per_s``: the median over whole passes of items per second of
  item time (the harness's own checks and the calibration are not timed);
* ``item_p50_ms`` and ``item_tail_ms``: the median item time, and the
  highest whole percentile with at least ten items beyond it, over the
  items of whole passes; the percentile and the item count are printed
  beside it;
* ``peak_rss_mb``: the process's peak resident memory (not calibrated).

``fail_frac`` (failed items over attempted items) is printed with the
others; in the JSON object it is ``failed`` over ``attempted``, since a
metric there must never read 0.

``--trace 1`` spends the first third of the time untraced and the rest
with the spans of ``tracing.py`` installed, and reports the per-layer
metrics of ``tracing.LAYER_UNITS``, counted over whole traced passes and
divided by the items in them.  The spans of the first traced pass are
written to ``bench/_runs/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, "_runs")
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402  (stdlib only; numpy is first imported with stagecraft)

DEFAULT_SEED = 1
SETUP_PROBES = 6
CALIBRATION_STEPS = 400
CALIBRATION_NOMINAL_S = 0.005
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def machine_record() -> dict:
    """Where the numbers came from: cores, CPU, versions and the code's identity."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    package = os.path.join(SRC, "stagecraft")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fp:
                source.update(name.encode() + b"\0" + fp.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


def calibration() -> float:
    """Wall seconds of a fixed loop of scalar numpy calls, like those of ``cmpfn``."""
    import numpy as np

    values = np.linspace(0.25, 4.0, 16)
    total = 0.0
    start = perf_counter()
    for k in range(CALIBRATION_STEPS):
        x = np.asarray(values[k % 16], dtype=float)
        if np.any(x < 0) or not np.all(np.isfinite(x)):
            raise ArithmeticError("calibration input left its domain")
        total += float(x ** 1.5) + 0.5 * k
    return perf_counter() - start


def timed_setup(workload: str, seed: int, work_dir: str) -> tuple:
    """Import stagecraft and generate the pool; returns (calibrated seconds, pool)."""
    start = perf_counter()
    import stagecraft.cli  # noqa: F401

    pool = workloads.generate(workload, seed, work_dir)
    elapsed = perf_counter() - start
    speed = statistics.median(calibration() for _ in range(5))
    return elapsed * CALIBRATION_NOMINAL_S / speed, pool


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def run_item(item) -> tuple:
    """One CLI call, as ``stagecraft <command> --config ... --out ... --seed ...``."""
    import stagecraft.cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = stagecraft.cli.main(item.argv())
        elapsed = perf_counter() - start
    return elapsed, code, stdout.getvalue()


class Measurement:
    """Item times and failures of one timed stretch of passes over the pool."""

    def __init__(self):
        self.times = []  # calibrated
        self.wall_times = []
        self.whole = 0  # items in whole passes: a prefix of times and wall_times
        self.pass_rates = []  # calibrated
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def workload_digest(self, pool) -> str:
        return hashlib.sha256("".join(self.digests[item.index] for item in pool
                                      if item.index in self.digests).encode()).hexdigest()


def measure(pool, seconds: float, into: Measurement, tracer=None, on_pass=None) -> None:
    """Run whole passes over the pool until ``seconds`` have gone by.

    The first pass always completes.  After it, an untraced run stops
    at the first item that ends past the deadline; a traced run stops at
    a pass boundary, so that its counts cover whole passes.
    """
    deadline = perf_counter() + seconds
    passes = 0
    speed = calibration()
    while True:
        pass_time = 0.0
        for item in pool:
            if tracer is not None:
                tracer.begin_item(item.index)
            elapsed, code, stdout = run_item(item)
            before, speed = speed, calibration()
            calibrated = elapsed * CALIBRATION_NOMINAL_S / (0.5 * (before + speed))
            into.attempted += 1
            into.times.append(calibrated)
            into.wall_times.append(elapsed)
            pass_time += calibrated
            reason = workloads.check_item(item, code, stdout)
            digest = workloads.artifact_digest(item.out_dir) if os.path.isdir(item.out_dir) else ""
            if reason is None and into.digests.setdefault(item.index, digest) != digest:
                reason = "artifacts differ from the item's first run"
            if reason is not None:
                into.failures.append(f"item {item.index} ({item.label}): {reason}")
            if tracer is None and passes and perf_counter() >= deadline:
                return
        passes += 1
        into.whole = len(into.times)
        into.pass_rates.append(len(pool) / pass_time)
        if on_pass is not None:
            on_pass()
        if perf_counter() >= deadline:
            return


def tail(times: list) -> tuple:
    """(percentile, value): the highest whole percentile, at least 50, that has
    ``TAIL_MIN_BEYOND`` items beyond it, interpolated linearly between ranks."""
    n = len(times)
    chosen = max(50, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))
    ordered = sorted(times)
    rank = chosen / 100.0 * (n - 1)
    low = int(rank)
    high = min(low + 1, n - 1)
    return chosen, ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def report_items(workload: str, pool, run: Measurement) -> None:
    print(f"pool: {len(pool)} items, {len(run.pass_rates)} whole passes, "
          f"{run.attempted} items attempted, {len(run.failures)} failed")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    print(f"artifacts_sha256 {workload}: {run.workload_digest(pool)}")


def end_to_end(args, work_dir: str) -> int:
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    own_setup, pool = timed_setup(args.workload, args.seed, work_dir)
    setups.append(own_setup)
    print("machine:", json.dumps(machine_record()))
    run_item(pool[0])  # warm-up: first calls and lazy imports

    run = Measurement()
    measure(pool, args.seconds, run)
    # every pool item weighs the same: the items of a cut-off last pass are
    # checked and counted as attempted, but not timed
    times, wall_times = run.times[:run.whole], run.wall_times[:run.whole]
    percentile, tail_s = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(run.pass_rates),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report_items(args.workload, pool, run)
    _, wall_tail = tail(wall_times)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "items_per_s": f"median of {len(run.pass_rates)} passes; wall "
                       f"{len(wall_times) / sum(wall_times):.6g}",
        "item_p50_ms": f"wall {1e3 * statistics.median(wall_times):.6g}",
        "item_tail_ms": f"p{percentile:g} of {len(times)} items; wall {1e3 * wall_tail:.6g}",
    }
    for name, value in metrics.items():
        print(f"{name:14s} {value:12.6g} {END_TO_END_UNITS[name]:9s} {notes.get(name, '')}")
    failed = len(run.failures)
    print(f"{'fail_frac':14s} {failed / run.attempted:12.6g} {'fraction':9s} "
          f"{failed} of {run.attempted} items")
    emit(failed == 0, run.attempted, failed, metrics, END_TO_END_UNITS)
    return 0


def traced(args, work_dir: str) -> int:
    import tracing

    _, pool = timed_setup(args.workload, args.seed, work_dir)
    print("machine:", json.dumps(machine_record()))
    run_item(pool[0])

    run = Measurement()
    start = perf_counter()
    measure(pool, args.seconds / 3.0, run)
    untraced_rate = statistics.median(run.pass_rates)
    untraced_passes = len(run.pass_rates)

    tracer = tracing.Tracer()
    whole = []

    def on_pass():
        whole.append(tracer.snapshot())
        tracer.keep_spans = False

    tracer.install()
    try:
        measure(pool, max(args.seconds - (perf_counter() - start), 0.0), run,
                tracer=tracer, on_pass=on_pass)
    finally:
        tracer.uninstall()
    traced_rate = statistics.median(run.pass_rates[untraced_passes:])
    stats, counters = whole[-1]
    metrics = tracing.layer_metrics(stats, counters, 1.0 - traced_rate / untraced_rate)

    report_items(args.workload, pool, run)
    print(f"traced: {len(whole)} whole passes, {counters['items']} items; "
          f"untraced {untraced_rate:.4g} items/s, traced {traced_rate:.4g} items/s")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {tracing.LAYER_UNITS[name]}")
    print("share of cli.main time (inclusive; nested spans overlap):")
    for name, share in sorted(tracing.shares(stats).items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {share:8.1%}")

    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"trace-{args.workload}.jsonl")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "machine": machine_record(),
                             "fields": ["id", "name", "start", "end", "parent", "item"]}) + "\n")
        for span_id, name_index, begin, end, parent, item in tracer.spans:
            fp.write(f"[{span_id},\"{tracer.names[name_index]}\",{begin:.9f},{end:.9f},"
                     f"{parent},{item}]\n")
    print(f"spans: {len(tracer.spans)} from the first traced pass in {os.path.relpath(path, ROOT)}")
    failed = len(run.failures)
    emit(failed == 0, run.attempted, failed, metrics, tracing.LAYER_UNITS)
    return 0


def all_workloads(args) -> int:
    """Each workload in its own process; one table of every end-to-end metric."""
    print("machine:", json.dumps(machine_record()))
    rows = []
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        rows.append((workload, result))
    print(f"{'workload':22s} {'metric':14s} {'value':>12s} unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:22s} {name:14s} {metric['value']:12.6g} {metric['unit']}")
        print(f"{workload:22s} {'fail_frac':14s} "
              f"{result['failed'] / result['attempted']:12.6g} fraction")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stagecraft", "__init__.py")):
        print(f"error: no stagecraft sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the benchmark measures the single-threaded default of verify
    if os.environ.pop("STAGECRAFT_THREADS", None) is not None:
        print("note: STAGECRAFT_THREADS was set and has been cleared", file=sys.stderr)

    if args.workload == "all":
        return all_workloads(args)
    os.makedirs(RUNS_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    try:
        if args.setup_probe:
            print(timed_setup(args.workload, args.seed, work_dir)[0])
            return 0
        print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        return (traced if args.trace else end_to_end)(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
