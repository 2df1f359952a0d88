#!/usr/bin/env python3
"""Benchmark of the rashenum package: one workload per process.

    python3 bench/run.py --workload deep-d4 --seed 123 --seconds 40 --trace 0

Run from the repository root. The workload's data file is generated from
the seed under ``.bench_work/`` and reaches the package only through
``load_dataset``. ``setup_s`` is the median, over fresh interpreters, of
``import rashenum`` plus loading that file. The process then runs one pass
over every stage (see ``workloads.py``) that also checks the outputs,
repeats passes until a further ``--seconds`` of wall time have elapsed, and
reports the median of each figure over all passes. Times are
CPU seconds of the measuring process (``workloads.CLOCK``), scaled to a
reference machine speed by a calibration kernel timed before every setup
probe and every timed stage (``calibrate.py``); the ``detail`` line gives the
unscaled figures and the factors.

``--trace 1`` instead alternates untraced and traced passes and reports the
per-layer metrics of the first traced pass, plus the tracing overhead on
``enumerate_s``. The last line of standard output is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a ``detail``
line before it gives counts, check kinds and the share of checks failed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# compute_counts calls numpy matmul: keep BLAS on the benchmark's one thread
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

SETUP_PROBE = """\
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import rashenum
rashenum.load_dataset(sys.argv[2])
print(time.process_time() - start)
"""

END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("first_group_s", "s"),
    ("enumerate_s", "s"), ("trees_per_s", "1/s"),
    ("materialize_trees_per_s", "1/s"), ("multiplier_s", "s"),
    ("pareto_s", "s"), ("lofo_s", "s"), ("peak_rss_mb", "MB"),
)


def measure_setup(data_path, calibration, probes=SETUP_PROBES):
    """Median seconds of ``import rashenum`` + ``load_dataset`` of the data
    file in fresh interpreters; interpreter start-up itself is not timed."""
    env = {**os.environ, **PINNED_ENV}
    times = []
    for _ in range(probes):
        calibration.sample()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(data_path)],
            capture_output=True, text=True, env=env, check=True,
            timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_passes(dataset, wl, seconds, checker, calibration):
    """A checked pass, then passes until the next would overrun ``seconds``,
    with a calibration sample before every stage.

    The checks can take longer than a pass's timed stages, so the window
    starts after the checked pass; its timings still count as a sample.
    The shortest pass so far predicts the next.
    """
    from workloads import run_pass

    passes = [run_pass(dataset, wl, checker, between=calibration.sample)]
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(dataset, wl, between=calibration.sample))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + min(durations) > seconds:
            return passes


def traced_passes(data_path, dataset, wl, seconds, checker):
    """A checked untraced pass, then traced and untraced passes in turn
    until ``seconds`` are used; layer values of the first traced pass,
    overhead from the medians of both kinds."""
    import rashenum
    from tracing import Instrumentation, Tracer, check_fired, layer_values
    from workloads import run_pass

    plain = [run_pass(dataset, wl, checker)]
    traced = []
    first = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer = Tracer()
        with Instrumentation(tracer) as inst:
            loaded = rashenum.load_dataset(data_path)
            traced.append(run_pass(loaded, wl, min_stage_s=0))
            inst.harvest()
        if first is None:
            first = tracer
        plain.append(run_pass(dataset, wl))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    check_fired(first)
    overhead = (statistics.median(p["enumerate_s"] for p in traced)
                / statistics.median(p["enumerate_s"] for p in plain) - 1.0)
    return plain, layer_values(first, overhead)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rashenum" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import datagen
    from calibrate import Calibration
    from checks import Checker
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r};"
              f" choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    data_path = WORK / f"{wl.name}-{args.seed}.txt"
    datagen.write_murtree(data_path, *wl.make_data(args.seed))

    setup_cal = Calibration()
    setup_s = measure_setup(data_path, setup_cal)
    import rashenum
    dataset = rashenum.load_dataset(data_path)
    checker = Checker()
    scaled = {}
    if args.trace:
        passes, metrics = traced_passes(data_path, dataset, wl,
                                        args.seconds, checker)
        from tracing import LAYER_METRICS
        units = dict(LAYER_METRICS)
    else:
        calibration = Calibration()
        passes = timed_passes(dataset, wl, args.seconds, checker,
                              calibration)
        raw = {name: statistics.median(p[name] for p in passes)
               for name, _ in END_TO_END[1:-1]}
        factor = calibration.factor()
        # a faster machine shortens times and raises rates
        metrics = {name: raw[name] * factor if unit == "s"
                   else raw[name] / factor
                   for name, unit in END_TO_END[1:-1]}
        metrics["setup_s"] = setup_s * setup_cal.factor()
        scaled = {"unscaled": raw, "factor": factor,
                  "setup_factor": setup_cal.factor()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
        units = dict(END_TO_END)
    attempted, failed = checker.totals()
    first = passes[0]
    detail = {
        "workload": wl.name, "seed": args.seed, "passes": len(passes),
        "trees": first["trees"], "groups": first["groups"],
        "materialized": first["materialized"], "records": first["records"],
        "front": first["front"], "fail_share": failed / attempted,
        "checks": checker.summary(), "failures": checker.examples,
        "setup_s": setup_s, **scaled,
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
