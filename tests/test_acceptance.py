"""Acceptance suite: ten oracle- and property-based criteria.

Each test prints one machine-greppable `ACCEPTANCE n: PASS/FAIL` line.
The shared corpus (200 seeded instances, depth/lambda/suppression grid,
three epsilon values each) is enumerated once and reused across criteria.
"""
import os
import resource
import time

import numpy as np
import pytest

from rashenum import (BinaryDataset, RashomonEnumeration, materialize,
                      load_dataset, Engine, ObjectiveConfig,
                      batched_constrained_search, eq_opportunity_spec,
                      find_min_multiplier, generate_dataset, lofo_importance,
                      pareto_front)
from rashenum.engine import BranchHelper
from rashenum.objective import value_le
from rashenum.posteval import stat_of_tree
from corpus import corpus, canonical
from oracle import (oracle_pareto, oracle_rashomon, oracle_structure_count,
                    oracle_structures, oracle_tree_cost)

CORPUS_SIZE = 200


def finish(n, desc, errors):
    status = "PASS" if not errors else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {desc}")
    assert not errors, f"criterion {n}: {errors[:5]}"


class Run:
    """One enumeration run plus its exhaustive-oracle reference."""

    def __init__(self, case, epsilon, expect, emitted):
        self.case = case
        self.epsilon = epsilon
        self.expect = expect            # [(total cost, tree)] from the oracle
        self.emitted = emitted          # [(value, total, count, [trees])]


@pytest.fixture(scope="module")
def corpus_runs():
    runs = []
    for case in corpus(CORPUS_SIZE):
        ds = case.dataset
        structures = oracle_structures(ds, case.depth, case.suppress)
        for eps in case.epsilons:
            expect, _, _ = oracle_rashomon(structures, case.lam, eps)
            enum = RashomonEnumeration(
                ds, case.depth, lam=case.lam, epsilon=eps,
                suppress_trivial=case.suppress, tolerance=case.tolerance)
            emitted = [(em.value, em.total_cost, em.count,
                        list(materialize(em.group)))
                       for em in enum.groups()]
            runs.append(Run(case, eps, expect, emitted))
    return runs


def test_criterion_01_oracle_equivalence(corpus_runs):
    errors = []
    for run in corpus_runs:
        task = run.case.dataset.task
        expect = sorted((round(c, 9), canonical(t, task))
                        for c, t in run.expect)
        got = sorted((round(total, 9), canonical(t, task))
                     for _, total, _, trees in run.emitted for t in trees)
        if expect != got:
            errors.append((run.case.seed, run.epsilon, len(expect), len(got)))
    finish(1, f"oracle equivalence on {len(corpus_runs)} runs over "
              f"{CORPUS_SIZE} seeded datasets", errors)


def test_criterion_02_in_order_and_anytime(corpus_runs):
    errors = []
    for run in corpus_runs:
        values = [v for v, _, _, _ in run.emitted]
        if any(b <= a for a, b in zip(values, values[1:])):
            errors.append(("order", run.case.seed, run.epsilon))
    # anytime: a fresh enumeration stopped after k groups equals the full
    # run's first k groups, for every k (sampled when there are many groups)
    for run in corpus_runs:
        if run.epsilon != 1.0:
            continue
        case = run.case
        n = len(run.emitted)
        ks = range(1, n + 1) if n <= 5 else sorted({1, 2, n // 2, n})
        for k in ks:
            enum = RashomonEnumeration(
                case.dataset, case.depth, lam=case.lam, epsilon=1.0,
                suppress_trivial=case.suppress, tolerance=case.tolerance)
            prefix = []
            for em in enum.groups():
                prefix.append((round(em.value, 9),
                               sorted(map(repr, materialize(em.group)))))
                if len(prefix) == k:
                    break
            full = [(round(v, 9), sorted(map(repr, trees)))
                    for v, _, _, trees in run.emitted[:k]]
            if prefix != full:
                errors.append(("prefix", case.seed, k))
    finish(2, "groups strictly increase; stopped-at-k prefixes equal the "
              "full run", errors)


def test_criterion_03_depth2_crosscheck():
    errors = []
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        ns = int(rng.integers(10, 28))
        nf = int(rng.integers(3, 6))
        task = "regression" if checked % 7 == 3 else "classification"
        X = rng.integers(0, 2, size=(ns, nf))
        if task == "classification":
            ds = BinaryDataset.from_arrays(X, rng.integers(0, 2, size=ns))
        else:
            ds = BinaryDataset.from_arrays(
                X, rng.normal(size=ns), task="regression").normalize_labels()
        members = int(rng.integers(1, 1 << ns))
        from rashenum.dataset import DataView
        view = DataView(ds, members)
        depth = int(rng.integers(1, 3))
        # large bounds make the nodes merge far down their side lists
        ub = float(rng.choice([0.05, 0.4, 5.0]))
        cfg = dict(task=task, lam=0.01, equality_tolerance=1e-9)

        def groups_of(use_depth2):
            eng = Engine(ds, ObjectiveConfig(**cfg), use_depth2=use_depth2)
            node = eng.node(view, depth, ub)
            out, i = [], 0
            while (g := node.get_nth(i)) is not None:
                out.append((round(g.value, 9),
                            sorted(repr(canonical(t, task))
                                   for t in materialize(g))))
                i += 1
            return out

        if groups_of(True) != groups_of(False):
            errors.append((checked, ns, nf, depth, ub, task))
        checked += 1
    finish(3, "depth-two side-list nodes equal generic recursion on 500 "
              "random subproblems (small to large bounds)", errors)


def test_criterion_04_value_faithfulness(corpus_runs):
    errors = []
    for run in corpus_runs:
        ds = run.case.dataset
        tol = 1e-9 if ds.task == "classification" else 1e-6
        for _, total, _, trees in run.emitted:
            for tree in trees:
                direct = oracle_tree_cost(ds, tree, run.case.lam)
                if abs(direct - total) > tol:
                    errors.append((run.case.seed, run.epsilon, total, direct))
    finish(4, "every materialized tree re-scores to its group's total cost "
              "(1e-9 classification, 1e-6 regression)", errors)


def test_criterion_05_counting(corpus_runs):
    errors = []
    for run in corpus_runs:
        if sum(c for _, _, c, _ in run.emitted) != len(run.expect):
            errors.append((run.case.seed, run.epsilon))
    # constructed instance with more than 2^64 trees: independent
    # structure-count recursion vs the engine's arbitrary-precision counts
    rng = np.random.default_rng(42)
    X = rng.integers(0, 2, size=(20, 24))
    ds = BinaryDataset.from_arrays(X, np.zeros(20, dtype=int))
    expect = oracle_structure_count(ds, 5)
    enum = RashomonEnumeration(ds, 5, lam=0.0, epsilon=0.0, use_depth2=False)
    got = sum(em.count for em in enum.groups())
    if not (expect == got and expect > 2 ** 64):
        errors.append(("big", expect, got))
    finish(5, f"counts exact on all runs; constructed instance holds "
              f"{got:.3e} > 2^64 trees", errors)


def test_criterion_06_lazy_cartesian_sums():
    class StaticNode:
        def __init__(self, values, ub):
            self.values, self.ub = values, ub

        def get_nth(self, i):
            if i < len(self.values) and value_le(self.values[i], self.ub,
                                                 1e-9):
                g = type("G", (), {})()
                g.value = self.values[i]
                return g
            return None

        def raise_ub(self, new_ub):
            self.ub = max(self.ub, new_ub)

    errors = []
    rng = np.random.default_rng(7)
    for trial in range(1000):
        la = sorted(set(np.round(rng.uniform(0, 1, rng.integers(1, 51)), 3)))
        lb = sorted(set(np.round(rng.uniform(0, 1, rng.integers(1, 51)), 3)))
        ub = float(rng.uniform(la[0] + lb[0], 2.2))
        left = StaticNode(la, ub - lb[0])
        right = StaticNode(lb, ub - la[0])
        helper = BranchHelper(0, la[0], lb[0], lambda: left, lambda: right,
                              lam=0.0, tol=1e-9)
        got = []
        while helper.cq and value_le(helper.next_value(), ub, 1e-9):
            _, pairs = helper.pop_and_explore()
            got.extend(round(la[l] + lb[r], 9) for l, r in pairs)
        expect = sorted(round(a + b, 9) for a in la for b in lb
                        if a + b <= ub + 1e-9)
        if got != expect:
            errors.append((trial, len(got), len(expect)))
    finish(6, "helper mechanism reproduces 1000 sorted bounded Cartesian "
              "sums", errors)


def test_criterion_07_multiplier_table():
    errors = []
    # shape: non-decreasing epsilon across 10^1..10^4 on synthetic data
    for seed in (1, 2, 3):
        ds = generate_dataset(80, 8, seed=seed, noise=0.2)
        eps = [find_min_multiplier(ds, 3, 0.01, 10 ** p).epsilon
               for p in (1, 2, 3, 4)]
        if any(b < a - 1e-12 for a, b in zip(eps, eps[1:])):
            errors.append(("monotone", seed, eps))
    # exactness vs the sorted-cost oracle on small instances
    for seed in (11, 12, 13, 14):
        rng = np.random.default_rng(seed)
        ds = BinaryDataset.from_arrays(rng.integers(0, 2, size=(20, 4)),
                                       rng.integers(0, 2, size=20))
        costs = sorted(loss + 0.01 * leaves for loss, leaves, _
                       in oracle_structures(ds, 2, False))
        for target in (1, 4, 16, 64):
            if target > len(costs):
                continue
            res = find_min_multiplier(ds, 2, 0.01, target)
            expect = max(costs[target - 1] / costs[0] - 1.0, 0.0)
            if abs(res.epsilon - expect) > 1e-9:
                errors.append(("oracle", seed, target, res.epsilon, expect))
    # conditional reproduction of the published monk1 row, if data provided
    monk1 = next((p for p in ("data/monk1.txt", "data/monk1_bin.txt",
                              "data/monk1.csv")
                  if os.path.exists(p)), None)
    note = "monk1 data not provided, row skipped"
    if monk1 is not None:
        ds = load_dataset(monk1)
        got = [round(find_min_multiplier(ds, 4, 0.01, 10 ** p).epsilon, 2)
               for p in (1, 2, 3, 4)]
        note = f"monk1 row {got}"
        if got != [0.00, 0.14, 0.29, 0.43]:
            errors.append(("monk1", got))
    finish(7, f"multiplier table non-decreasing and oracle-exact ({note})",
           errors)


def test_criterion_08_fairness_search_and_pareto():
    errors = []
    rng = np.random.default_rng(88)
    checked = 0
    for seed in range(40):
        X = rng.integers(0, 2, size=(16, 3))
        y = rng.integers(0, 2, size=16)
        ds = BinaryDataset.from_arrays(X, y)
        spec = eq_opportunity_spec(ds, 0, 1)
        try:
            spec.finalize((0, 0, 0))
        except Exception:
            continue  # a sensitive group has no positives
        checked += 1
        delta = 0.01
        res = batched_constrained_search(
            ds, 2, 0.01, spec, lambda obj: abs(obj[1]) <= delta)
        best = None
        points = []
        for loss, leaves, tree in oracle_structures(ds, 2, False):
            cost = loss + 0.01 * leaves
            acc, disc = spec.finalize(stat_of_tree(tree, ds.full_view(),
                                                   spec))
            points.append(((-acc, abs(disc)), tree))
            if abs(disc) <= delta and (best is None or cost < best):
                best = cost
        if res is None:
            if best is not None:
                errors.append(("missed", seed, best))
        elif best is None or abs(res.total_cost - best) > 1e-9:
            errors.append(("cost", seed, res.total_cost, best))
        expect_front = [c for c, _ in oracle_pareto(points)]
        got_front = [p.coordinates for p in pareto_front(points)]
        if expect_front != got_front:
            errors.append(("front", seed))
        if checked >= 12:
            break
    finish(8, f"constrained search (delta=0.01) and Pareto fronts match "
              f"brute force on {checked} instances", errors)


def test_criterion_09_lofo_sanity():
    errors = []
    rng = np.random.default_rng(5)
    X = rng.integers(0, 2, size=(60, 6))
    y = X[:, 2].copy()
    flip = rng.random(60) < 0.05
    y[flip] = 1 - y[flip]
    ds = BinaryDataset.from_arrays(X, y)
    res = lofo_importance(ds, 2, 0.01, 200)
    others = [res.scores[f] for f in res.scores if f != 2]
    if not res.scores[2] > max(others):
        errors.append(("not-largest", res.scores))
    if not all(s >= -1e-9 for s in res.scores.values()):
        errors.append(("negative", res.scores))
    finish(9, "separating feature attains the strictly largest LOFO score; "
              "all scores nonnegative", errors)


def test_criterion_10_scalability_smoke():
    errors = []
    ds = generate_dataset(1000, 15, seed=123, noise=0.1)
    start = time.monotonic()
    enum = RashomonEnumeration(ds, 4, lam=0.01, max_trees=100_000)
    total = 0
    for em in enum.groups():
        total = em.cumulative
    elapsed = time.monotonic() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if total < 100_000:
        errors.append(("trees", total))
    if elapsed >= 60:
        errors.append(("time", elapsed))
    if peak_mb >= 1024:
        errors.append(("memory", peak_mb))
    finish(10, f"1000x15, depth 4, 10^5 trees: {total} trees in "
               f"{elapsed:.1f}s, peak {peak_mb:.0f} MB", errors)
