import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rashenum import (BinaryDataset, Engine, ObjectiveConfig, OptimalSolver,
                      generate_dataset, leaf_cost, materialize, split)
from rashenum.depth2 import (compute_counts, depth2_optimal, generate_depth2,
                             split_counts, stacked_depth2)
from rashenum.groups import LeafEntry
from rashenum.objective import LeafSolution, best_leaf, view_cell
from conftest import plain_numbers, random_dataset
from corpus import strip_predictions
from oracle import (oracle_structures, reference_depth2_optimal,
                    reference_side_lists)


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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_classification_counts_equal_integer_products(self, seed,
                                                          num_classes):
        """The popcounts equal int64 ``M.T @ M`` per class, on the full
        view and on both sides of a split."""
        ds = random_dataset(seed + 70, 90, 7, num_classes)
        for view in (ds.full_view(), *split(ds.full_view(), seed)):
            counts = compute_counts(view)
            idx = view.member_indices()
            rows = [ds.X[idx][ds.labels[idx] == k].astype(np.int64)
                    for k in range(num_classes)]
            for got, want in ((counts.q0, [len(M) for M in rows]),
                              (counts.q1, [M.sum(axis=0) for M in rows]),
                              (counts.q2, [M.T @ M for M in rows])):
                assert got.dtype == np.int64
                assert np.array_equal(got, np.array(want, dtype=np.int64))

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


@st.composite
def depth2_cases(draw):
    """(counts, config, depth, features) on small data, so values tie."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n = draw(st.sampled_from(range(1, 41)))      # uniform, unlike integers()
    num_features = draw(st.sampled_from(range(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(n, num_features))
    if task == "classification":
        y = rng.integers(0, draw(st.integers(2, 3)), size=n)
    else:
        y = rng.integers(0, 3, size=n) * 0.5   # few distinct leaf SSEs
    if draw(st.booleans()):  # labels from two features: pure cells, ties
        planted = X[:, 0] ^ X[:, -1]
        if task == "regression":
            planted = planted * 0.5
        y = np.where(rng.random(n) < 0.1, y, planted)
    ds = BinaryDataset.from_arrays(X, y, task=task)
    view = ds.full_view()
    side = draw(st.sampled_from([None, False, True]))
    if side is not None:
        cut = split(view, draw(st.integers(0, num_features - 1)))[side]
        view = cut if cut.members else view
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
    features = draw(st.permutations(range(num_features)))
    features = features[:draw(st.sampled_from(range(num_features + 1)))]
    return (compute_counts(view), ObjectiveConfig(task, lam=lam),
            draw(st.sampled_from([0, 1, 2])), features)


def exact(x):
    """A number with its type and, for a float, its bits."""
    return type(x).__name__, x.hex() if isinstance(x, float) else x


def scalar_item(item):
    """(value, feature, left, right, alternatives) of a scalar side item:
    a ``LeafSolution`` or a (value, feature, left, right) stump tuple."""
    if isinstance(item, LeafSolution):
        return (exact(item.value), None, exact(item.prediction), None,
                item.alternatives)
    value, feature, left, right = item
    return exact(value), exact(feature), exact(left), exact(right), None


def table_item(value, entry):
    """The same row for an opened table item and its group entry."""
    if isinstance(entry, LeafEntry):
        return (exact(value), None, exact(entry.prediction), None,
                entry.alternatives)
    return (exact(value), exact(entry.feature), exact(entry.left),
            exact(entry.right), None)


def table_side_lists(counts, config, depth, features, suppress):
    """``generate_depth2``'s side lists opened in full: (feature, (left
    optimum, rows), (right optimum, rows)) per root."""
    out = []
    for f, *sides in generate_depth2(counts, config, depth, features,
                                     suppress):
        opened = []
        for side in sides:
            values, make = side.open()
            opened.append((exact(side.value), [
                table_item(v, e)
                for v, e in zip(values, make(0, len(values)))]))
        out.append((exact(f), *opened))
    return out


class TestReferenceIdentity:
    @settings(max_examples=400, deadline=None)
    @given(depth2_cases(), st.booleans())
    def test_side_lists_equal_scalar_sweep(self, case, suppress):
        """Every root's side lists, read off the table, equal the scalar
        sweep's item for item: the value bits, the stable order, the
        sub-split feature, both predictions (relabelled under suppression)
        and the leaf's tied alternatives, plus each side's optimum."""
        expect = [(exact(f), *((scalar_item(items[0])[0],
                                [scalar_item(item) for item in items])
                               for items in (lefts, rights)))
                  for f, lefts, rights in reference_side_lists(*case,
                                                               suppress)]
        assert table_side_lists(*case, suppress) == expect

    @settings(max_examples=500, deadline=None)
    @given(depth2_cases())
    def test_equals_scalar_sweep(self, case):
        """The array-wide optimum is the scalar sweep's (value, tree),
        exactly: same floats, same tie rule, plain Python numbers."""
        got = depth2_optimal(*case)
        assert got == reference_depth2_optimal(*case)
        assert type(got[0]) is float and plain_numbers(got[1])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("n", [8, 14, 30])
    def test_equals_scalar_sweep_grid(self, task, n):
        """As above on planted data, where sides are often pure and a
        sub-split ties its side's leaf at lambda 0: every side of every
        root split, full and reduced feature sets."""
        for seed in range(6):
            ds = generate_dataset(n, 6, seed, task=task)
            views = [ds.full_view()] + [
                side for f in range(6) for side in split(ds.full_view(), f)
                if side.members]
            for view, lam, features in itertools.product(
                    views, (0.0, 0.01), (range(6), [0, 2, 3, 5], [4, 1])):
                case = (compute_counts(view), ObjectiveConfig(task, lam=lam),
                        2, features)
                assert depth2_optimal(*case) == reference_depth2_optimal(*case)


@st.composite
def pass_cases(draw, tasks=("classification", "regression")):
    """(view, features) for a depth-3 sibling pass: sizes on and off the
    64-bit word boundary, either task, 2-3 classes, constant columns (whose
    split leaves one child empty) and feature subsets of any size."""
    task = draw(st.sampled_from(tasks))
    n = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 127, 129]),
                       st.integers(2, 200)))
    num_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(n, num_features))
    for j in range(num_features):
        if draw(st.integers(0, 3)) == 0:
            X[:, j] = draw(st.integers(0, 1))
    if task == "classification":
        y = rng.integers(0, draw(st.integers(2, 3)), size=n)
    elif draw(st.booleans()):
        y = rng.normal(size=n)
    else:
        y = rng.integers(0, 3, size=n) * 0.5   # few distinct leaf SSEs
    ds = BinaryDataset.from_arrays(X, y, task=task)
    view = ds.full_view()
    if draw(st.booleans()):
        cut = split(view, draw(st.integers(0, num_features - 1)))[
            draw(st.integers(0, 1))]
        view = cut if cut.members else view
    features = draw(st.permutations(range(num_features)))
    size = draw(st.sampled_from([0, 1, num_features]))
    return view, features[:size]


def integer_counts(view):
    """Classification (q0, q1, q2) as int64 products of the view's rows,
    apart from the popcount kernel."""
    ds = view.dataset
    idx = view.member_indices()
    rows = [ds.X[idx][ds.labels[idx] == k].astype(np.int64)
            for k in range(ds.num_classes)]
    return (np.array([len(M) for M in rows], dtype=np.int64),
            np.array([M.sum(axis=0) for M in rows], dtype=np.int64),
            np.array([M.T @ M for M in rows], dtype=np.int64))


def same_counts(got, want):
    """Equal count arrays: dtype and values, bit for bit."""
    return all(a.dtype == b.dtype and a.shape == b.shape
               and a.tobytes() == b.tobytes()
               for a, b in zip((got.q0, got.q1, got.q2),
                               (want.q0, want.q1, want.q2)))


class TestSiblingPass:
    @settings(max_examples=300, deadline=None)
    @given(pass_cases(tasks=("classification",)))
    def test_split_counts_equal_direct_counts(self, case):
        """Both children of every root, constant roots included, counted
        from the parent equal ``compute_counts`` of the child and the
        integer products of its rows: int64, exact, an empty child all
        zeros."""
        view, features = case
        stacks = split_counts(view, compute_counts(view), features)
        for k, f in enumerate(features):
            for side, child in enumerate(split(view, f)):
                want = compute_counts(child)
                for got, arr, ints in zip(stacks, (want.q0, want.q1, want.q2),
                                          integer_counts(child)):
                    assert got.dtype == arr.dtype == np.int64
                    assert np.array_equal(got[k, side], arr)
                    assert np.array_equal(arr, ints)

    @settings(max_examples=300, deadline=None)
    @given(pass_cases(), st.sampled_from([0.0, 0.01, 0.3]))
    def test_children_equal_direct_counts_and_reference(self, case, lam):
        """After a depth-3 solve, every child of a non-constant root is a
        cached depth-2 solve whose counts equal ``compute_counts(child)``
        bit for bit, whose table is built for the solver's features, and
        whose (value, tree) is ``reference_depth2_optimal``'s exactly."""
        view, features = case
        ds = view.dataset
        cfg = ObjectiveConfig(ds.task, lam=lam)
        solver = OptimalSolver(ds, cfg, features)
        solver.solve(view, 3)
        for f in features:
            if view.feature_is_constant(f):
                continue
            for child in split(view, f):
                want = compute_counts(child)
                counts = solver.counts_cache[child.members]
                assert same_counts(counts, want)
                assert counts.table.features == tuple(features)
                res = solver.cache[(child.members, 2)]
                expect = reference_depth2_optimal(want, cfg, 2, features)
                assert (exact(res.value), res.tree) == (exact(expect[0]),
                                                        expect[1])
                assert plain_numbers(res.tree)
        assert solver.stats["solves"] == len(solver.cache)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_stacked_optima_equal_reference(self, task):
        """Tables and optima of an arbitrary stack of views, not siblings,
        equal the scalar sweep view by view."""
        ds = generate_dataset(90, 6, 3, task=task, num_classes=3
                              if task == "classification" else 2)
        views = [side for f in range(6) for side in split(ds.full_view(), f)]
        views += [split(views[3], 5)[0], ds.full_view()]
        stats = [compute_counts(v) for v in views]
        cfg = ObjectiveConfig(task, lam=0.01)
        for features in (range(6), [4, 1, 3]):
            q = [np.stack([getattr(c, name) for c in stats])
                 for name in ("q0", "q1", "q2")]
            tables, values = stacked_depth2(ds, *q, cfg, features)
            for counts, table, value in zip(stats, tables, values):
                expect = reference_depth2_optimal(counts, cfg, 2, features)
                assert exact(value.item()) == exact(expect[0])
                counts.table = table
                assert depth2_optimal(counts, cfg, 2, features) == expect


def drain(node):
    """(tree, group value) of every tree a search node emits, in order."""
    out, index = [], 0
    while (group := node.get_nth(index)) is not None:
        out += [(tree, group.value) for tree in materialize(group)]
        index += 1
    return out


def check_complete(ds, cfg, hi, suppress):
    """A depth-2 search node's (tree, value) pairs under the bound hi ==
    the oracle's depth<=2 trees <= hi.

    Regression trees are compared by structure (leaf means are float-fuzzy)
    and all values within a tolerance far below any gap between them.
    """
    shape = strip_predictions if ds.task == "regression" else (lambda t: t)
    node = Engine(ds, cfg, suppress_trivial=suppress).node(ds.full_view(), 2,
                                                           hi)
    got = sorted((shape(tree), v) for tree, v in drain(node))
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
        """Emitted set == all depth<=2 trees with value <= bound."""
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

    def test_depth_zero_only_leaf(self):
        ds = random_dataset(5, 10, 3)
        node = Engine(ds, ObjectiveConfig()).node(ds.full_view(), 0, math.inf)
        assert [tree[0] for tree, _ in drain(node)] == ["leaf"]
