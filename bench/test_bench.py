"""Tests of the benchmark's own code: tracing, checks and the command line.

    python -m pytest bench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rashenum
from calibrate import REFERENCE_S, Calibration
from checks import Checker, check_enumeration
from run import END_TO_END
from tracing import LAYER_METRICS, Instrumentation, Tracer, check_fired

BENCH = Path(__file__).resolve().parent


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    t = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 10]))
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    assert t.inclusive["a"] == 10
    assert t.self_time["a"] == 7
    assert t.inclusive["b"] == 3 and t.self_time["b"] == 3
    assert t.calls == {"a": 1, "b": 2}


def test_recursion_counts_inclusive_time_once():
    # a(0..10) -> a(2..6) -> c(3..4)
    t = Tracer(clock=fake_clock([0, 2, 3, 4, 6, 10]))
    t.enter("a")
    t.enter("a")
    t.enter("c")
    t.exit()
    t.exit()
    t.exit()
    assert t.inclusive["a"] == 10
    assert t.self_time["a"] == (4 - 1) + (10 - 4)
    assert t.self_time["c"] == 1
    assert t.calls["a"] == 2


def test_calibration_factor_uses_the_median_kernel_time():
    cal = Calibration(clock=fake_clock([0, 1, 1, 3, 3, 3.5]))
    for _ in range(3):
        cal.sample()
    assert cal.samples == [1, 2, 0.5]
    assert cal.factor() == REFERENCE_S / 1


def small_enumeration():
    ds = rashenum.generate_dataset(120, 5, seed=3)
    enum = rashenum.RashomonEnumeration(ds, 2, lam=0.01, max_trees=300)
    return ds, enum, list(enum.groups())


def test_checks_pass_on_real_output():
    ds, enum, emitted = small_enumeration()
    checker = Checker()
    check_enumeration(checker, ds, enum, emitted)
    attempted, failed = checker.totals()
    assert attempted >= 4 * len(emitted) - 1
    assert failed == 0


def test_wrong_cost_counts_as_one_failure():
    ds, enum, emitted = small_enumeration()
    last = emitted[-1]
    emitted[-1] = dataclasses.replace(last, total_cost=last.total_cost + 0.5)
    checker = Checker()
    check_enumeration(checker, ds, enum, emitted)
    assert checker.totals()[1] == 1
    assert checker.failed == {"rescore": 1}
    assert checker.examples and checker.examples[0].startswith("rescore")


def test_instrumentation_wraps_every_binding_and_restores():
    originals = {
        (rashenum.depth2, "compute_counts"): rashenum.depth2.compute_counts,
        (rashenum.optdp, "compute_counts"): rashenum.optdp.compute_counts,
        (rashenum.engine, "count_trees"): rashenum.engine.count_trees,
        (rashenum, "lofo_importance"): rashenum.lofo_importance,
        (rashenum.engine.SearchNode, "get_nth"):
            rashenum.engine.SearchNode.__dict__["get_nth"],
        (rashenum.RashomonEnumeration, "__init__"):
            rashenum.RashomonEnumeration.__dict__["__init__"],
    }
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, attr
        ds, enum, emitted = small_enumeration()
        inst.harvest()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    assert tracer.calls["depth2.compute_counts"] > 0
    assert tracer.counts["engine.enumerations"] == 1
    assert tracer.counts["engine.nodes_created"] == \
        enum.engine.stats["nodes_created"]


def test_guard_names_silent_entry_points():
    with pytest.raises(RuntimeError, match="analysis.lofo_importance"):
        check_fired(Tracer())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, expected", [("0", END_TO_END),
                                             ("1", LAYER_METRICS)])
def test_smoke_prints_every_metric_with_its_unit(trace, expected):
    done = run_bench(BENCH.parent, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == dict(expected)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
