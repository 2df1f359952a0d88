import math

import numpy as np
import pytest

from rashenum import ObjectiveConfig, leaf_cost, split
from rashenum.depth2 import compute_counts, depth2_optimal, generate_depth2
from rashenum.objective import best_leaf, view_cell
from rashenum.groups import LeafEntry
from conftest import random_dataset
from corpus import strip_predictions
from oracle import oracle_structures


def brute_best(ds, depth, lam):
    structures = oracle_structures(ds, depth, suppress=False)
    return min(loss + lam * (leaves - 1) for loss, leaves, _ in structures)


class TestCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_classification_cells_sum_to_total(self, seed):
        """Every quad cell equals the class counts of the view it stands
        for, exactly, and the four cells partition the samples."""
        ds = random_dataset(seed, 20, 4, num_classes=3)
        counts = compute_counts(ds.full_view(), ObjectiveConfig())
        for i in range(ds.num_features):
            for j in range(ds.num_features):
                cells = counts.quad(i, j)
                assert sum(int(c.sum()) for c in cells) == 20
                not_i, has_i = split(ds.full_view(), i)
                views = (split(not_i, j)[1], split(not_i, j)[0],
                         split(has_i, j)[1], split(has_i, j)[0])
                for cell, view in zip(cells, views):
                    assert cell.dtype == np.int64
                    assert cell.tolist() == view_cell(view).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_side_counts_match_direct_split(self, seed):
        ds = random_dataset(seed + 50, 24, 4)
        counts = compute_counts(ds.full_view(), ObjectiveConfig())
        assert counts.total().tolist() == view_cell(ds.full_view()).tolist()
        for f in range(ds.num_features):
            for satisfied, view in zip((False, True),
                                       split(ds.full_view(), f)):
                cell = counts.side(f, satisfied)
                assert cell.tolist() == view_cell(view).tolist()
                assert best_leaf(ds, cell) == leaf_cost(view)

    def test_regression_cells(self):
        ds = random_dataset(11, 18, 3, task="regression")
        counts = compute_counts(ds.full_view(), ObjectiveConfig("regression"))
        for f in range(ds.num_features):
            for satisfied, view in zip((False, True),
                                       split(ds.full_view(), f)):
                cell = counts.side(f, satisfied)
                assert cell == pytest.approx(view_cell(view), abs=1e-9)
                got, want = best_leaf(ds, cell), leaf_cost(view)
                assert got.value == pytest.approx(want.value, abs=1e-9)
                assert got.prediction == pytest.approx(want.prediction,
                                                       abs=1e-9)


class TestOptimal:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_matches_brute_force(self, seed, depth):
        ds = random_dataset(seed + 100, 16, 4)
        cfg = ObjectiveConfig(lam=0.02)
        counts = compute_counts(ds.full_view(), cfg)
        value, tree = depth2_optimal(counts, cfg, depth,
                                     range(ds.num_features))
        assert value == pytest.approx(brute_best(ds, depth, 0.02), abs=1e-12)

    def test_tie_rule_pins_exact_tree(self):
        """Ties keep the earlier candidate: the leaf, the one-split trees,
        then per root the side leaves unless a split is strictly better.
        Fewer branching nodes do not win: a tied 2-split tree rooted at
        feature 1 exists, yet root 0's 3-split tree comes first."""
        ds = random_dataset(33, 14, 3)
        cfg = ObjectiveConfig(lam=0.0)
        value, tree = depth2_optimal(compute_counts(ds.full_view(), cfg), cfg,
                                     2, range(ds.num_features))
        assert value == pytest.approx(4 / 14, abs=1e-12)
        assert tree == ("split", 0, ("split", 2, ("leaf", 0), ("leaf", 1)),
                        ("split", 1, ("leaf", 1), ("leaf", 0)))
        assert ("split", 1, ("split", 2, ("leaf", 0), ("leaf", 1)),
                ("leaf", 0)) in [
            t for loss, _, t in oracle_structures(ds, 2, False)
            if loss == pytest.approx(value, abs=1e-12)]

    def test_regression_optimal(self):
        ds = random_dataset(7, 14, 3, task="regression")
        cfg = ObjectiveConfig("regression", lam=0.1)
        counts = compute_counts(ds.full_view(), cfg)
        value, _ = depth2_optimal(counts, cfg, 2, range(ds.num_features))
        assert value == pytest.approx(brute_best(ds, 2, 0.1), abs=1e-8)


def entry_tree(entry):
    return ("leaf", entry.prediction) if isinstance(entry, LeafEntry) \
        else entry.tree


def check_complete(ds, cfg, hi, suppress):
    """Generated (tree, value) pairs == the oracle's depth<=2 trees <= hi.

    Regression trees are compared by structure (leaf means are float-fuzzy)
    and all values within a tolerance far below any gap between them.
    """
    shape = strip_predictions if ds.task == "regression" else (lambda t: t)
    items = generate_depth2(compute_counts(ds.full_view(), cfg), cfg, 2,
                            range(ds.num_features), None, hi, suppress)
    got = sorted((shape(entry_tree(e)), v) for v, _, e in items)
    expect = sorted(
        (shape(tree), loss + cfg.lam * (leaves - 1))
        for loss, leaves, tree in oracle_structures(ds, 2, suppress)
        if loss + cfg.lam * (leaves - 1) <= hi + cfg.equality_tolerance)
    assert [t for t, _ in got] == [t for t, _ in expect]
    assert [v for _, v in got] == pytest.approx([v for _, v in expect],
                                                abs=1e-9)


class TestGenerate:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("suppress", [False, True])
    def test_complete_under_bound(self, seed, suppress):
        """Generated set == all depth<=2 trees with value <= bound."""
        check_complete(random_dataset(seed + 200, 15, 4),
                       ObjectiveConfig(lam=0.01), 0.8, suppress)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("suppress", [False, True])
    @pytest.mark.parametrize("task,num_classes,hi", [
        ("classification", 3, 0.55), ("regression", 2, 12.0)],
        ids=["3-class", "regression"])
    def test_complete_under_bound_other_tasks(self, seed, suppress, task,
                                              num_classes, hi):
        """As above for regression cells and for 3-class data, where
        suppression relabels a leaf to a tied alternative class."""
        check_complete(random_dataset(seed + 200, 15, 4, num_classes, task),
                       ObjectiveConfig(task, lam=0.01), hi, suppress)

    def test_band_generation_is_disjoint_and_exhaustive(self):
        """(lo, hi] bands partition the full generation."""
        ds = random_dataset(301, 15, 4)
        cfg = ObjectiveConfig(lam=0.01)
        counts = compute_counts(ds.full_view(), cfg)
        full = generate_depth2(counts, cfg, 2, range(ds.num_features),
                               None, 1.0, False)
        lo_band = generate_depth2(counts, cfg, 2, range(ds.num_features),
                                  None, 0.3, False)
        hi_band = generate_depth2(counts, cfg, 2, range(ds.num_features),
                                  0.3, 1.0, False)
        def keys(items):
            return sorted(k for _, k, _ in items)
        assert keys(lo_band) + keys(hi_band) == keys(full) or \
            sorted(keys(lo_band) + keys(hi_band)) == sorted(keys(full))

    def test_depth_zero_only_leaf(self):
        ds = random_dataset(5, 10, 3)
        cfg = ObjectiveConfig()
        counts = compute_counts(ds.full_view(), cfg)
        items = generate_depth2(counts, cfg, 0, range(ds.num_features),
                                None, math.inf, False)
        assert len(items) == 1
