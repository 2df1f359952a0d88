import numpy as np
import pytest
from hypothesis import given, strategies as st

from rashenum import (ObjectiveConfig, evaluate_cost, features_used,
                      num_leaves, parse_tree, predict, serialize_tree,
                      tree_depth)
from conftest import random_dataset
from oracle import oracle_structures, oracle_tree_cost

STUMP = ("split", 0, ("leaf", 0), ("leaf", 1))
DEEP = ("split", 1, ("leaf", 1), ("split", 0, ("leaf", 0), ("leaf", 1)))


class TestShape:
    def test_num_leaves(self):
        assert num_leaves(("leaf", 0)) == 1
        assert num_leaves(STUMP) == 2
        assert num_leaves(DEEP) == 3

    def test_depth(self):
        assert tree_depth(("leaf", 0)) == 0
        assert tree_depth(STUMP) == 1
        assert tree_depth(DEEP) == 2

    def test_features_used(self):
        assert features_used(("leaf", 3)) == set()
        assert features_used(DEEP) == {0, 1}


class TestPredict:
    def test_leaf_ignores_input(self):
        assert predict(("leaf", 7), [0, 1]) == 7

    def test_satisfied_goes_right(self):
        assert predict(STUMP, [1]) == 1
        assert predict(STUMP, [0]) == 0

    def test_short_vector_rejected(self):
        with pytest.raises(IndexError):
            predict(DEEP, [1])


class TestSerialization:
    @given(st.recursive(
        st.integers(0, 3).map(lambda v: ("leaf", v)),
        lambda sub: st.tuples(st.just("split"), st.integers(0, 5), sub, sub),
        max_leaves=8))
    def test_roundtrip(self, tree):
        assert parse_tree(serialize_tree(tree)) == tree

    def test_format(self):
        assert serialize_tree(STUMP) == \
            '{"feature":0,"left":{"predict":0},"right":{"predict":1}}'

    def test_numpy_scalars(self):
        """numpy features and predictions serialize as plain numbers."""
        tree = ("split", np.int64(2), ("leaf", np.int64(0)),
                ("leaf", np.float64(0.5)))
        assert serialize_tree(tree) == \
            '{"feature":2,"left":{"predict":0},"right":{"predict":0.5}}'


class TestEvaluateCost:
    def test_matches_independent_recomputation(self):
        ds = random_dataset(3, 25, 4)
        cfg = ObjectiveConfig(lam=0.03)
        for loss, leaves, tree in oracle_structures(ds, 2, suppress=False):
            assert evaluate_cost(tree, ds, cfg) == pytest.approx(
                oracle_tree_cost(ds, tree, 0.03), abs=1e-12)

    def test_regression_cost(self):
        ds = random_dataset(9, 20, 3, task="regression")
        cfg = ObjectiveConfig("regression", lam=0.02)
        for loss, leaves, tree in oracle_structures(ds, 1, suppress=False):
            assert evaluate_cost(tree, ds, cfg) == pytest.approx(
                oracle_tree_cost(ds, tree, 0.02), abs=1e-9)
