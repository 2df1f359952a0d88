import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rashenum import (BinaryDataset, BranchEntry, RashomonEnumeration,
                      count_trees, enumerate_rashomon,
                      evaluate_cost, features_used, generate_dataset,
                      materialize, num_leaves, ObjectiveConfig, OptimalSolver)
from rashenum import engine as engine_module
from rashenum.engine import BranchHelper
from rashenum.groups import SideGroup
from rashenum.objective import DEFAULT_TOLERANCE, value_le
from conftest import plain_numbers, random_dataset
from corpus import canonical, strip_predictions
from oracle import oracle_rashomon, oracle_structures


class StaticNode:
    """Stand-in child node: a fixed ascending value list under a bound."""

    def __init__(self, values, ub):
        self.values = list(values)
        self.ub = ub

    def get_nth(self, index):
        if index < len(self.values) and value_le(self.values[index], self.ub,
                                                 1e-9):
            class G:
                pass
            g = G()
            g.value = self.values[index]
            return g
        return None

    def raise_ub(self, new_ub):
        self.ub = max(self.ub, new_ub)


def drain(helper, ub):
    got = []
    while helper.cq and value_le(helper.next_value(), ub, 1e-9):
        value, pairs = helper.pop_and_explore()
        for l, r in pairs:
            got.append((helper.left_node.values[l] +
                        helper.right_node.values[r]))
    return got


def make_helper(left_values, right_values, ub, lam=0.0):
    left = StaticNode(left_values, ub - right_values[0] - lam)
    right = StaticNode(right_values, ub - left_values[0] - lam)
    h = BranchHelper(0, left_values[0], right_values[0],
                     lambda: left, lambda: right, lam=lam, tol=1e-9)
    h._child(0)
    h._child(1)
    return h


class TestLazyCartesianSum:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_reproduces_sorted_bounded_sums(self, data):
        la = sorted(set(data.draw(st.lists(
            st.floats(0, 1).map(lambda v: round(v, 3)), min_size=1,
            max_size=50))))
        lb = sorted(set(data.draw(st.lists(
            st.floats(0, 1).map(lambda v: round(v, 3)), min_size=1,
            max_size=50))))
        ub = data.draw(st.floats(0, 2.2))
        helper = make_helper(la, lb, ub)
        got = drain(helper, ub)
        expect = sorted(round(a + b, 9) for a in la for b in lb
                        if a + b <= ub + 1e-9)
        assert [round(v, 9) for v in got] == expect

    def test_equal_valued_pairs_pop_together(self):
        helper = make_helper([0.0, 1.0], [0.0, 1.0], ub=10.0)
        value, pairs = helper.pop_and_explore()
        assert value == 0.0 and pairs == [(0, 0)]
        value, pairs = helper.pop_and_explore()
        assert value == 1.0 and sorted(pairs) == [(0, 1), (1, 0)]
        value, pairs = helper.pop_and_explore()
        assert value == 2.0 and pairs == [(1, 1)]

    def test_blocked_pairs_resume_after_bound_raise(self):
        la, lb = [0.0, 0.4], [0.0, 0.5]
        helper = make_helper(la, lb, ub=0.45)
        got = drain(helper, 0.45)
        assert [round(v, 2) for v in got] == [0.0, 0.4]
        assert helper.blocked  # (0, 1) hit the right child's bound
        helper.on_parent_raised(2.0)
        got = drain(helper, 2.0)
        assert [round(v, 2) for v in got] == [0.5, 0.9]

    def test_lambda_added_per_combination(self):
        helper = make_helper([0.0, 0.2], [0.0], ub=10.0, lam=0.05)
        value, pairs = helper.pop_and_explore()
        assert value == pytest.approx(0.05)


class TestEnumerationApi:
    def test_requires_some_stopping_rule(self, tiny_dataset):
        with pytest.raises(ValueError, match="epsilon"):
            RashomonEnumeration(tiny_dataset, 2, lam=0.01)

    @pytest.mark.parametrize("kwargs", [
        {"lam": math.inf, "epsilon": 0.1}, {"lam": math.nan, "epsilon": 0.1},
        {"epsilon": math.nan}, {"epsilon": math.inf},
        {"theta": math.nan}, {"theta": math.inf},
        {"epsilon": 0.1, "max_trees": 0}, {"epsilon": 0.1, "max_trees": -3},
        {"epsilon": 0.1, "tolerance": math.nan}],
        ids=["lam-inf", "lam-nan", "epsilon-nan", "epsilon-inf", "theta-nan",
             "theta-inf", "max_trees-0", "max_trees-neg", "tolerance-nan"])
    def test_invalid_numbers_rejected(self, kwargs):
        """NaN/inf bounds once ran forever or yielded nothing; max_trees < 1
        still emitted a group. Each now fails before any enumeration."""
        ds = generate_dataset(100, 5, seed=1)
        with pytest.raises(ValueError):
            RashomonEnumeration(ds, 2, **{"lam": 0.01, **kwargs})

    def test_negative_depth_rejected(self, tiny_dataset):
        """The enumerator and the solver reject a negative or fractional
        depth with one message each; a numpy integer passes."""
        solver = OptimalSolver(tiny_dataset, ObjectiveConfig())
        view = tiny_dataset.full_view()
        for depth, message in ((-1, "depth must be >= 0"),
                               (2.5, "depth must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RashomonEnumeration(tiny_dataset, depth, lam=0.01,
                                    epsilon=0.1)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                solver.solve(view, depth)
        enum = RashomonEnumeration(tiny_dataset, np.int64(2), lam=0.01,
                                   epsilon=0.1)
        assert enum.depth == 2
        assert solver.solve(view, np.int64(2)) == solver.solve(view, 2)

    def test_bad_excluded_feature(self, tiny_dataset):
        with pytest.raises(IndexError):
            RashomonEnumeration(tiny_dataset, 2, lam=0.01, epsilon=0.1,
                                excluded_features=(9,))

    def test_epsilon_zero_yields_only_optima(self, tiny_dataset):
        enum = enumerate_rashomon(tiny_dataset, 2, lam=0.01, epsilon=0.0)
        emitted = list(enum.groups())
        assert len(emitted) == 1
        assert emitted[0].total_cost == pytest.approx(enum.optimal_total)

    def test_max_trees_stops_after_covering_group(self, tiny_dataset):
        enum = enumerate_rashomon(tiny_dataset, 2, lam=0.01, max_trees=3)
        emitted = list(enum.groups())
        assert emitted[-1].cumulative >= 3
        # the run stops at the first group reaching the target
        assert emitted[-1].cumulative - emitted[-1].count < 3

    def test_explicit_theta_override(self, tiny_dataset):
        enum = enumerate_rashomon(tiny_dataset, 2, lam=0.01, theta=0.23)
        for em in enum.groups():
            assert em.total_cost <= 0.23 + 1e-9

    def test_trees_limit_and_order(self, tiny_dataset):
        enum = enumerate_rashomon(tiny_dataset, 2, lam=0.01, epsilon=1.0)
        pairs = list(enum.trees(limit=5))
        assert len(pairs) == 5
        costs = [c for _, c in pairs]
        assert costs == sorted(costs)

    def test_groups_iterable_is_replayable(self, tiny_dataset):
        enum = enumerate_rashomon(tiny_dataset, 2, lam=0.01, epsilon=0.5)
        first = [(em.value, em.count) for em in enum.groups()]
        second = [(em.value, em.count) for em in enum.groups()]
        assert first == second


class TestEngineEquivalences:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cache_and_depth2_transparent(self, seed):
        """The generic recursion gives the table path's groups. Depth 3
        shares no node, so node sharing is checked at depth 4 in
        ``test_shared_nodes_equal_oracle``."""
        ds = random_dataset(seed + 600, 18, 4)

        def run(**kw):
            enum = RashomonEnumeration(ds, 3, lam=0.01, epsilon=0.8, **kw)
            return [(round(em.value, 9),
                     sorted(map(repr, materialize(em.group))))
                    for em in enum.groups()]

        assert run(use_depth2=False) == run()

    @pytest.mark.parametrize("epsilon", [0.2, 0.5])
    @pytest.mark.parametrize("suppress", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_shared_nodes_equal_oracle(self, seed, suppress, epsilon):
        """At depth 4 a depth-2 subproblem is reached along two paths (f
        then g, and g then f), so the node cache shares it, and a later
        path can raise its bound; the whole set still equals the oracle's."""
        ds = random_dataset(seed, 14, 4)
        enum = RashomonEnumeration(ds, 4, lam=0.01, epsilon=epsilon,
                                   suppress_trivial=suppress, tolerance=1e-9)
        got = sorted((round(em.total_cost, 9), t) for em in enum.groups()
                     for t in materialize(em.group))
        assert enum.engine.stats["cache_hits"] > 0
        expect, _, _ = oracle_rashomon(oracle_structures(ds, 4, suppress),
                                       0.01, epsilon)
        assert got == sorted((round(c, 9), t) for c, t in expect)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_strictly_increase_and_counts_match(self, seed):
        ds = random_dataset(seed + 700, 22, 4)
        enum = RashomonEnumeration(ds, 3, lam=0.01, epsilon=1.0)
        prev = None
        for em in enum.groups():
            assert prev is None or em.value > prev
            prev = em.value
            assert em.count == len(list(materialize(em.group)))
            assert em.count == count_trees(em.group)

    def test_every_tree_rescored_matches_group_cost(self):
        ds = random_dataset(800, 20, 4)
        cfg = ObjectiveConfig(lam=0.01)
        enum = RashomonEnumeration(ds, 3, lam=0.01, epsilon=0.6)
        for em in enum.groups():
            for tree in materialize(em.group):
                assert evaluate_cost(tree, ds, cfg) == pytest.approx(
                    em.total_cost, abs=1e-9)

    def test_suppression_removes_only_trivial_extensions(self):
        ds = random_dataset(801, 16, 3)

        def trees(suppress):
            enum = RashomonEnumeration(ds, 2, lam=0.01, epsilon=1.0,
                                       suppress_trivial=suppress)
            return {repr(t) for em in enum.groups()
                    for t in materialize(em.group)}

        def has_trivial(tree):
            if tree[0] == "leaf":
                return False
            l, r = tree[2], tree[3]
            if l[0] == "leaf" and r[0] == "leaf" and l[1] == r[1]:
                return True
            return has_trivial(l) or has_trivial(r)

        full = trees(False)
        kept = trees(True)
        # suppression can relabel tied leaves, so compare sizes, not subsets
        assert len(kept) <= len(full)
        assert any(has_trivial(eval(t)) for t in full - kept) or full == kept
        assert not any(has_trivial(eval(t)) for t in kept)


def held_groups(engine):
    """Every solution group reachable from the engine's cached nodes, side
    groups included (they hold no entries)."""
    seen = set()
    stack = [g for node in engine.node_cache.values() for g in node.ssl]
    while stack:
        group = stack.pop()
        if id(group) in seen:
            continue
        seen.add(id(group))
        yield group
        for entry in getattr(group, "entries", ()):
            if isinstance(entry, BranchEntry):
                for pair in entry.pairs:
                    stack += [pair.left, pair.right]


class TestDepthTwoNodes:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_side_lists_read_once_and_merged(self, monkeypatch, depth):
        """A depth <= 2 node reads its side lists off the count table once
        and merges them lazily: no node calls generate_depth2 twice, and no
        held side group holds a tree with more than one split."""
        calls = []
        original = engine_module.generate_depth2

        def counting(counts, config, node_depth, *args):
            calls.append((id(counts), node_depth))
            return original(counts, config, node_depth, *args)

        monkeypatch.setattr(engine_module, "generate_depth2", counting)
        enum = RashomonEnumeration(generate_dataset(120, 7, 3), depth,
                                   lam=0.01, max_trees=3000)
        assert list(enum.groups())
        assert calls and len(calls) == len(set(calls))
        splits = [num_leaves(tree) - 1 for group in held_groups(enum.engine)
                  if isinstance(group, SideGroup)
                  for tree, _ in group.iter_trees()]
        assert splits and max(splits) == 1

    @pytest.mark.parametrize("depth", [2, 3])
    def test_side_list_ends_never_block(self, depth):
        """A pair past the end of a fixed side list can never combine, so a
        depth <= 2 node's helpers mark it visited and block nothing."""
        enum = RashomonEnumeration(generate_dataset(120, 7, 3), depth,
                                   lam=0.01, max_trees=3000)
        assert list(enum.groups())
        helpers = [h for node in enum.engine.node_cache.values()
                   if node.depth <= 2 for h in node._branches or ()]
        assert helpers and not any(h.blocked for h in helpers)
        past_end = [(l, r) for h in helpers if h.left_node is not None
                    and h.right_node is not None for l, r in h.visited
                    if l >= len(h.left_node.ssl) or r >= len(h.right_node.ssl)]
        assert past_end

    @pytest.mark.parametrize("suppress", [False, True])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_table_trees_hold_python_numbers(self, task, suppress):
        """Every tree materialised from a table node's side groups holds
        int features and int/float predictions, never numpy scalars, and
        ``count_trees(group, avoid)`` leaves out exactly the stumps on
        ``avoid``. A side group yields the same trees each time it is
        read; under suppression every stump in it, relabelled ones
        included, keeps two distinct leaf labels."""
        ds = generate_dataset(150, 6, 4, task=task, num_classes=3
                              if task == "classification" else 2)
        enum = RashomonEnumeration(ds, 3, lam=0.01, max_trees=2000,
                                   suppress_trivial=suppress)
        assert list(enum.groups())
        children = [child for node in enum.engine.node_cache.values()
                    if node.depth <= 2 for h in node._branches or ()
                    for child in (h.left_node, h.right_node)
                    if child is not None]
        sides = [child.get_nth(i) for child in children
                 for i in range(len(child.ssl))]
        assert any(tree[0] == "split" for g in sides
                   for tree, _ in g.iter_trees())
        for group in sides:
            trees = list(group.iter_trees())
            assert list(group.iter_trees()) == trees
            if suppress:
                assert all(tree[2] != tree[3] for tree, _ in trees
                           if tree[0] == "split")
        if suppress and task == "classification":
            relabelled = [tree for child in children for group in child.ssl
                          for p, (tree, _) in enumerate(group.iter_trees(),
                                                        group.start)
                          if p != child.at
                          and child.lefts[p] == child.rights[p]]
            assert relabelled
            assert all(tree[2] != tree[3] for tree in relabelled)
        for group in [*sides, *held_groups(enum.engine)]:
            trees = list(materialize(group))
            assert all(plain_numbers(t) for t in trees)
            for f in range(ds.num_features):
                assert count_trees(group, f) == sum(
                    f not in features_used(t) for t in trees)


class TestFeatureSubsets:
    @pytest.mark.parametrize("suppress", [False, True])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("kept", [0, 1])
    def test_empty_and_one_feature_sets(self, kept, depth, task, suppress):
        """Excluding every feature, or every feature but one, leaves the
        leaf and at most the one split: the whole set equals the oracle's
        over the kept features, at every depth, table nodes included."""
        ds = random_dataset(31 + kept, 14, 4, num_classes=2, task=task)
        for left in [()] if not kept else [(f,) for f in range(4)]:
            excluded = [f for f in range(4) if f not in left]
            enum = RashomonEnumeration(ds, depth, lam=0.01, epsilon=1e6,
                                       suppress_trivial=suppress,
                                       excluded_features=excluded,
                                       tolerance=1e-9)
            got = sorted((round(em.total_cost, 9), canonical(t, task))
                         for em in enum.groups()
                         for t in materialize(em.group))
            expect, _, _ = oracle_rashomon(
                oracle_structures(ds, depth, suppress, features=left),
                0.01, 1e6)
            assert got == sorted((round(c, 9), canonical(t, task))
                                 for c, t in expect)


def shifted_regression(seed, offset):
    base = generate_dataset(120, 7, seed, task="regression")
    return BinaryDataset(base.columns, base.labels + offset, "regression")


@functools.lru_cache(maxsize=None)
def regression_groups(seed, depth, offset):
    """(value, count, sorted tree structures) per group of a shifted run."""
    enum = RashomonEnumeration(shifted_regression(seed, offset), depth,
                               lam=0.01, max_trees=1000)
    return [(em.value, em.count,
             sorted(map(repr, map(strip_predictions,
                                  materialize(em.group)))))
            for em in enum.groups()]


class TestLabelScale:
    """Regression cells are centred on the dataset's label mean, so a shift
    of every label changes no value beyond rounding. Uncentred sums of
    squares lost whole units to cancellation at offset 1e6."""

    @pytest.mark.parametrize("offset", [1e3, 1e6, -1e6])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_label_shift_keeps_groups(self, seed, depth, offset):
        base = regression_groups(seed, depth, 0.0)
        shifted = regression_groups(seed, depth, offset)
        assert [g[1:] for g in shifted] == [g[1:] for g in base]
        assert [g[0] for g in shifted] == pytest.approx(
            [g[0] for g in base], abs=1e-8)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_large_offset_rescores(self, seed):
        """Each group's first trees re-score to the group total within the
        default regression tolerance. The tie window is narrowed to 1e-9 so
        that only the value arithmetic is measured: the default window lets
        tied values drift by up to its width per level on its own."""
        ds = shifted_regression(seed, 1e6)
        enum = RashomonEnumeration(ds, 3, lam=0.01, max_trees=2000,
                                   tolerance=1e-9)
        for em in enum.groups():
            for tree in materialize(em.group, 3):
                assert abs(evaluate_cost(tree, ds, enum.config)
                           - em.total_cost) <= DEFAULT_TOLERANCE["regression"]
