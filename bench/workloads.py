"""Benchmark workloads and the pass that runs each one through the public API.

A pass runs the workload's dataset through these timed stages:

1. ``RashomonEnumeration(...)`` and ``groups()`` under the workload's stop
   rule (solve, first group, whole enumeration);
2. ``enum.trees(limit)`` plus ``serialize_tree``, the CLI's jsonl path;
3. ``find_min_multiplier`` for each target;
4. an ``epsilon`` enumeration through ``evaluate_secondary`` and
   ``pareto_front``, then ``batched_constrained_search`` with |gap| <= delta;
5. ``lofo_importance``.

Every workload runs every stage, so every end-to-end metric exists on every
workload; the analysis stages run at ``analysis_depth``, which is 2 (cheap)
everywhere but on ``analyses``. Why each workload exists is recorded in
``BENCHMARK.json``; sizes keep one pass to a few seconds, so a 40-second run
holds several passes to take medians over.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import rashenum

import checks
import datagen

LAMBDA = 0.01
MIN_STAGE_S = 0.5
# CPU seconds of this process (user + system). The package is single-threaded
# and CPU-bound, so on an idle machine this equals wall time; on a shared one
# it leaves out the time other tenants hold the core. On a shared 2-core
# Xeon, wall-clock figures of one seed moved 20-30% from run to run.
CLOCK = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    data: tuple            # ("planted", n, F, noise) or ("latent", n)
    depth: int
    stop: dict             # keyword stop rule for RashomonEnumeration
    materialize: int
    analysis_depth: int
    targets: tuple
    pareto_epsilon: float
    delta: float
    lofo_size: int
    lofo_features: tuple = None

    def make_data(self, seed):
        """(X, labels) drawn from ``seed``."""
        if self.data[0] == "planted":
            _, n, f, noise = self.data
            return datagen.planted(n, f, seed, noise)
        return datagen.latent(self.data[1], seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "deep-d4",
        ("planted", 1000, 12, 0.1), depth=4,
        stop={"max_trees": 100_000}, materialize=50_000, analysis_depth=2,
        targets=(10, 100), pareto_epsilon=0.5, delta=0.01, lofo_size=100,
        lofo_features=tuple(range(8))),
    Workload(
        "analyses",
        ("latent", 4000), depth=3,
        stop={"max_trees": 30_000}, materialize=10_000, analysis_depth=3,
        targets=(10, 100, 1000), pareto_epsilon=0.1, delta=0.01,
        lofo_size=200, lofo_features=(0, 8)),
    Workload(
        "smoke",
        ("planted", 200, 6, 0.1), depth=3,
        stop={"max_trees": 200}, materialize=100, analysis_depth=2,
        targets=(10,), pareto_epsilon=0.5, delta=0.05, lofo_size=20,
        lofo_features=(0, 1)),
)}


def timed(stage, min_seconds):
    """Seconds per call of ``stage()`` and its last result.

    Stages 2-5 are repeated until their calls add up to ``min_seconds``, so
    a stage of a few tens of milliseconds is not measured by a single call.
    Every call starts after a full garbage collection, so the cyclic garbage
    an earlier call left (engines, nodes, helpers) is not collected on a
    later call's clock.
    """
    calls, total = 0, 0.0
    while not calls or total < min_seconds:
        gc.collect()
        t0 = CLOCK()
        result = stage()
        total += CLOCK() - t0
        calls += 1
    return total / calls, result


def run_pass(dataset, wl, checker=None, min_stage_s=MIN_STAGE_S,
             between=lambda: None):
    """The dataset through every stage; returns its figures.

    With a checker, the outputs are checked outside the timed regions. A
    traced pass sets ``min_stage_s`` to 0, so each stage runs once and the
    per-layer counts do not depend on how fast the stages ran. ``between``
    is called untimed before every stage.
    """
    out = {}
    between()
    gc.collect()
    t0 = CLOCK()
    enum = rashenum.RashomonEnumeration(dataset, wl.depth, lam=LAMBDA,
                                       **wl.stop)
    out["solve_s"] = CLOCK() - t0
    emitted = []
    for em in enum.groups():
        if not emitted:
            out["first_group_s"] = CLOCK() - t0
        emitted.append(em)
    out["enumerate_s"] = CLOCK() - t0
    out["trees"] = emitted[-1].cumulative
    out["groups"] = len(emitted)
    out["trees_per_s"] = out["trees"] / out["enumerate_s"]
    if checker is not None:
        checks.check_enumeration(checker, dataset, enum, emitted)
    del emitted

    between()
    seconds, lines = timed(lambda: [
        rashenum.serialize_tree(tree)
        for tree, _ in enum.trees(limit=wl.materialize)], min_stage_s)
    out["materialized"] = len(lines)
    out["materialize_trees_per_s"] = len(lines) / seconds
    if checker is not None:
        checks.check_materialized(checker, lines, wl.materialize,
                                  out["trees"])
    del lines, enum

    depth = wl.analysis_depth
    between()
    out["multiplier_s"], results = timed(lambda: [
        (target, rashenum.find_min_multiplier(dataset, depth, LAMBDA, target))
        for target in wl.targets], min_stage_s)
    if checker is not None:
        checks.check_multipliers(checker, results)

    def constraint(objective):
        return abs(objective[1]) <= wl.delta

    def pareto():
        spec = rashenum.eq_opportunity_spec(dataset, 0, 1)
        penum = rashenum.RashomonEnumeration(dataset, depth, lam=LAMBDA,
                                            epsilon=wl.pareto_epsilon)
        records = list(rashenum.evaluate_secondary(penum.groups(), spec))
        front = rashenum.pareto_front(
            ((cost, abs(spec.finalize(stat)[1])), witness)
            for cost, stat, witness in records)
        best = rashenum.batched_constrained_search(
            dataset, depth, LAMBDA, spec, constraint,
            epsilon=wl.pareto_epsilon)
        return spec, penum.config, records, front, best

    between()
    out["pareto_s"], pareto_out = timed(pareto, min_stage_s)
    spec, config, records, front, best = pareto_out
    out["records"] = len(records)
    out["front"] = len(front)
    if checker is not None:
        checker.check("pareto", bool(front), "empty front")
        checks.check_constrained(checker, dataset, config, spec, constraint,
                                 records, best)
    del records

    between()
    out["lofo_s"], lofo = timed(lambda: rashenum.lofo_importance(
        dataset, depth, LAMBDA, set_size=wl.lofo_size,
        features=wl.lofo_features), min_stage_s)
    if checker is not None:
        checks.check_lofo(checker, lofo, config.equality_tolerance)
    return out
