"""Output checks behind the benchmark's ``attempted`` and ``failed`` counts.

Every check is counted under a kind, so a run can say which property
failed and how often. The checks re-derive each property from the
program's public API; none of them loosens the package's own tolerance.
"""
from __future__ import annotations

from collections import Counter

import rashenum

# groups up to this many trees are materialised in full to check their count
SMALL_GROUP = 2000
MAX_EXAMPLES = 5


class Checker:
    """Checks attempted and failed per kind, with the first few failures."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.examples = []

    def check(self, kind, ok, detail=""):
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            if len(self.examples) < MAX_EXAMPLES:
                self.examples.append(f"{kind}: {detail}")

    def totals(self):
        return sum(self.attempted.values()), sum(self.failed.values())

    def summary(self):
        return {kind: [self.attempted[kind], self.failed[kind]]
                for kind in sorted(self.attempted)}


def check_enumeration(checker, dataset, enum, emitted):
    """Re-score, order, bound, cumulative and count checks per group."""
    tol = enum.config.equality_tolerance
    running = 0
    previous = None
    for em in emitted:
        tree = next(iter(rashenum.materialize(em.group, 1)), None)
        cost = (None if tree is None
                else rashenum.evaluate_cost(tree, dataset, enum.config))
        checker.check("rescore", cost is not None
                      and abs(cost - em.total_cost) <= tol,
                      f"group {em.index}: re-score {cost!r}"
                      f" vs total {em.total_cost!r}")
        if previous is not None:
            checker.check("order", em.total_cost >= previous - tol,
                          f"group {em.index}: {em.total_cost!r}"
                          f" after {previous!r}")
        checker.check("bound", em.total_cost <= enum.theta + tol,
                      f"group {em.index}: {em.total_cost!r}"
                      f" above theta {enum.theta!r}")
        running += em.count
        checker.check("cumulative", em.cumulative == running,
                      f"group {em.index}: {em.cumulative} != {running}")
        if em.count <= SMALL_GROUP:
            n = sum(1 for _ in rashenum.materialize(em.group))
            checker.check("count", n == em.count,
                          f"group {em.index}: counted {em.count},"
                          f" materialised {n}")
        previous = em.total_cost


def check_materialized(checker, lines, limit, total_trees):
    expected = min(limit, total_trees)
    checker.check("materialize", len(lines) == expected
                  and len(set(lines)) == expected,
                  f"{len(lines)} trees ({len(set(lines))} distinct),"
                  f" expected {expected}")


def check_multipliers(checker, results):
    for target, res in results:
        checker.check("multiplier", res.achieved_count >= target
                      and (res.epsilon is None or res.epsilon >= 0),
                      f"target {target}: achieved {res.achieved_count},"
                      f" epsilon {res.epsilon!r}")


def check_constrained(checker, dataset, config, spec, constraint, records,
                      result):
    """The constrained search returns the cheapest record meeting the
    constraint, and its tree re-scores to its cost and statistic."""
    tol = config.equality_tolerance
    feasible = [cost for cost, stat, _ in records
                if constraint(spec.finalize(stat))]
    if not feasible:
        checker.check("constrained", result is None,
                      "found a tree no record admits")
        return
    if result is None:
        checker.check("constrained", False, "no tree found")
        return
    stat = rashenum.posteval.stat_of_tree(result.tree, dataset.full_view(),
                                          spec)
    cost = rashenum.evaluate_cost(result.tree, dataset, config)
    checker.check("constrained",
                  constraint(result.objective)
                  and tuple(spec.finalize(stat)) == tuple(result.objective)
                  and abs(result.total_cost - min(feasible)) <= tol
                  and abs(cost - result.total_cost) <= tol,
                  f"result cost {result.total_cost!r} (re-score {cost!r}),"
                  f" objective {result.objective!r},"
                  f" cheapest feasible {min(feasible)!r}")


def check_lofo(checker, result, tol):
    curves = [("baseline", result.baseline), *result.curves.items()]
    for name, curve in curves:
        costs = curve.costs
        ok = all(b >= a - tol for a, b in zip(costs, costs[1:]))
        checker.check("lofo", ok and len(costs) == curve.padded_length,
                      f"curve {name} decreases or is short")
