import pytest
from hypothesis import given, strategies as st

from rashenum import (ObjectiveConfig, combine, leaf_cost, rashomon_bound,
                      split, total_cost, value_le, values_equal)
from rashenum.objective import DEFAULT_TOLERANCE


class TestConfig:
    def test_default_tolerances(self):
        assert ObjectiveConfig("classification").equality_tolerance == \
            DEFAULT_TOLERANCE["classification"]
        assert ObjectiveConfig("regression").equality_tolerance == \
            DEFAULT_TOLERANCE["regression"]

    def test_override_tolerance(self):
        cfg = ObjectiveConfig("regression", equality_tolerance=1e-9)
        assert cfg.equality_tolerance == 1e-9

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ObjectiveConfig("ranking")
        with pytest.raises(ValueError):
            ObjectiveConfig(lam=-0.1)
        with pytest.raises(ValueError):
            ObjectiveConfig(equality_tolerance=0.0)


class TestLeafCost:
    def test_majority_leaf(self, tiny_dataset):
        sol = leaf_cost(tiny_dataset.full_view())
        assert sol.prediction == 1
        assert sol.value == pytest.approx(2 / 5)

    def test_tie_picks_lowest_label_with_alternatives(self):
        from rashenum import parse_dataset
        ds = parse_dataset("0 0\n1 1\n0 1\n1 0\n")
        sol = leaf_cost(ds.full_view())
        assert sol.prediction == 0
        assert sol.alternatives == (1,)

    def test_pure_view_costs_zero(self, pure_dataset):
        sol = leaf_cost(pure_dataset.full_view())
        assert sol.value == 0.0
        assert sol.prediction == 1

    def test_misclassifications_normalized_by_full_dataset(self, tiny_dataset):
        left, right = split(tiny_dataset.full_view(), 0)
        total_mis = (leaf_cost(left).value + leaf_cost(right).value)
        # both sides share the full-dataset denominator, so sums are coherent
        assert total_mis * tiny_dataset.num_samples == pytest.approx(round(
            total_mis * tiny_dataset.num_samples))

    def test_regression_sse_around_mean(self):
        from rashenum import parse_dataset
        ds = parse_dataset("1.0 0\n3.0 1\n", task="regression")
        sol = leaf_cost(ds.full_view())
        assert sol.value == pytest.approx(2.0)  # (1-2)^2 + (3-2)^2
        assert sol.prediction == pytest.approx(2.0)


class TestArithmetic:
    def test_combine_adds_lambda(self):
        assert combine(0.1, 0.2, 0.05) == pytest.approx(0.35)

    def test_total_cost_adds_root_lambda(self):
        # a leaf (value carries no lambda) totals exactly one lambda
        assert total_cost(0.0, 0.01) == pytest.approx(0.01)

    def test_tree_pays_lambda_per_leaf(self):
        lam = 0.01
        stump = combine(0.0, 0.0, lam)  # two leaves
        assert total_cost(stump, lam) == pytest.approx(2 * lam)

    def test_rashomon_bound(self):
        assert rashomon_bound(0.2, 0.5) == pytest.approx(0.3)
        assert rashomon_bound(0.2, 0.0) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            rashomon_bound(0.2, -0.1)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_value_le_consistent_with_equality(self, a, b):
        tol = 1e-9
        if values_equal(a, b, tol):
            assert value_le(a, b, tol) and value_le(b, a, tol)
        if a <= b:
            assert value_le(a, b, tol)

    @given(st.floats(-1, 1))
    def test_values_equal_reflexive(self, a):
        assert values_equal(a, a, 1e-9)
