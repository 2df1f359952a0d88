import numpy as np
import pytest

import rashenum.analysis
from rashenum import (BinaryDataset, RashomonEnumeration, find_min_multiplier,
                      find_min_multipliers, generate_dataset, lofo_importance,
                      parse_dataset)
from conftest import count_enumerations, random_dataset
from oracle import oracle_structures


class TestFindMinMultiplier:
    def test_target_one_is_zero(self, tiny_dataset):
        res = find_min_multiplier(tiny_dataset, 2, 0.01, 1)
        assert res.epsilon == pytest.approx(0.0)
        assert res.achieved_count >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_in_target(self, seed):
        ds = random_dataset(seed + 1000, 24, 4)
        eps = [find_min_multiplier(ds, 2, 0.01, t).epsilon
               for t in (1, 10, 100, 1000)]
        assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_sorted_cost_oracle(self, seed):
        ds = random_dataset(seed + 1010, 18, 4)
        lam = 0.02
        costs = sorted(loss + lam * leaves for loss, leaves, _
                       in oracle_structures(ds, 2, False))
        for target in (1, 3, 7, 25):
            if target > len(costs):
                continue
            res = find_min_multiplier(ds, 2, lam, target)
            expect = max(costs[target - 1] / costs[0] - 1.0, 0.0)
            assert res.epsilon == pytest.approx(expect, abs=1e-9)
            assert res.achieved_count >= target

    def test_rerun_at_returned_epsilon_reaches_target(self):
        ds = random_dataset(1020, 20, 4)
        target = 50
        res = find_min_multiplier(ds, 2, 0.01, target)
        enum = RashomonEnumeration(ds, 2, lam=0.01, epsilon=res.epsilon)
        total = sum(em.count for em in enum.groups())
        assert total >= target

    def test_zero_optimum_is_undefined(self):
        ds = parse_dataset("1 1\n0 0\n1 1\n0 0\n")
        res = find_min_multiplier(ds, 1, 0.0, 1)
        assert res.epsilon is None

    def test_bad_target(self, tiny_dataset):
        with pytest.raises(ValueError):
            find_min_multiplier(tiny_dataset, 2, 0.01, 0)


class TestFindMinMultipliers:
    @pytest.mark.parametrize("suppress", [False, True])
    def test_equals_per_target_calls(self, suppress):
        ds = random_dataset(1040, 24, 5)
        targets = [100, 1, 10, 10, 3, 5000]
        got = find_min_multipliers(ds, 2, 0.01, targets,
                                   suppress_trivial=suppress)
        assert got == [find_min_multiplier(ds, 2, 0.01, t,
                                           suppress_trivial=suppress)
                       for t in targets]

    def test_bad_targets(self, tiny_dataset):
        for targets in ([], [3, 0]):
            with pytest.raises(ValueError):
                find_min_multipliers(tiny_dataset, 2, 0.01, targets)


def separating_dataset():
    """Feature 2 almost perfectly separates; the rest are coin flips."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 2, size=(60, 6))
    y = X[:, 2].copy()
    flip = rng.random(60) < 0.05
    y[flip] = 1 - y[flip]
    return BinaryDataset.from_arrays(X, y)


class TestLofo:
    def test_separating_feature_scores_strictly_largest(self):
        ds = separating_dataset()
        res = lofo_importance(ds, 2, 0.01, 200)
        ranking = res.ranking()
        assert ranking[0] == 2
        others = [res.scores[f] for f in res.scores if f != 2]
        assert res.scores[2] > max(others)

    def test_scores_nonnegative(self):
        ds = random_dataset(1030, 30, 5)
        res = lofo_importance(ds, 2, 0.01, 100)
        assert all(s >= -1e-9 for s in res.scores.values())

    def test_unused_feature_scores_zero(self):
        # feature 3 duplicates... instead: add a constant feature column
        rng = np.random.default_rng(8)
        X = rng.integers(0, 2, size=(30, 4))
        X[:, 3] = 0  # constant: never splittable, absent from every tree
        y = rng.integers(0, 2, size=30)
        ds = BinaryDataset.from_arrays(X, y)
        res = lofo_importance(ds, 2, 0.01, 50)
        assert res.scores[3] == pytest.approx(0.0, abs=1e-12)

    def test_curves_padded_to_baseline_length(self):
        ds = random_dataset(1031, 20, 4)
        res = lofo_importance(ds, 2, 0.01, 40)
        n = res.baseline.padded_length
        assert len(res.baseline.costs) == n
        for curve in res.curves.values():
            assert len(curve.costs) == n
            assert all(c <= curve.theta + 1e-9 for c in curve.costs)
            assert curve.costs == sorted(curve.costs)

    def test_feature_subset_and_validation(self):
        ds = random_dataset(1032, 16, 4)
        res = lofo_importance(ds, 2, 0.01, 20, features=[1, 2])
        assert set(res.scores) == {1, 2}
        with pytest.raises(IndexError):
            lofo_importance(ds, 2, 0.01, 20, features=[9])
        with pytest.raises(ValueError):
            lofo_importance(ds, 2, 0.01, 0)

    @pytest.mark.parametrize("suppress", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curves_match_excluded_feature_enumerations(self, seed,
                                                        suppress):
        # reference: one enumeration per feature with the feature excluded,
        # bounded by theta_base, padded to the baseline length
        ds = generate_dataset(150, 6, seed)
        res = lofo_importance(ds, 3, 0.01, 300, suppress_trivial=suppress)
        theta, length = res.baseline.theta, res.baseline.padded_length
        for f, curve in res.curves.items():
            enum = RashomonEnumeration(ds, 3, lam=0.01, theta=theta,
                                       excluded_features=(f,),
                                       suppress_trivial=suppress)
            expect = []
            for em in enum.groups():
                expect.extend([em.total_cost] * em.count)
                if len(expect) >= length:
                    break
            expect = [min(c, theta) for c in expect[:length]]
            expect.extend([theta] * (length - len(expect)))
            assert curve.costs == pytest.approx(expect, abs=1e-9)


class TestOneEnumeration:
    @pytest.fixture
    def built(self, monkeypatch):
        return count_enumerations(monkeypatch, rashenum.analysis)

    def test_lofo_builds_one_engine(self, built):
        lofo_importance(random_dataset(1050, 30, 5), 2, 0.01, 50)
        assert len(built) == 1

    def test_multipliers_build_one_engine(self, built):
        find_min_multipliers(random_dataset(1051, 30, 5), 2, 0.01,
                             [1, 10, 100, 1000])
        assert len(built) == 1
        assert built[0]["max_trees"] == 1000
