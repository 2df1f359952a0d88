import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rashenum import (BinaryDataset, ObjectiveConfig, OptimalSolver,
                      RashomonEnumeration, evaluate_cost, generate_dataset,
                      total_cost)
from conftest import plain_numbers, random_dataset
from oracle import oracle_structures, reference_solve


def brute_optimum(ds, depth, lam):
    return min(loss + lam * leaves
               for loss, leaves, _ in oracle_structures(ds, depth, False))


class TestOptimalSolver:
    def test_pure_dataset_single_leaf(self, pure_dataset):
        solver = OptimalSolver(pure_dataset, ObjectiveConfig(lam=0.01))
        res = solver.solve(pure_dataset.full_view(), 3)
        assert res.tree == ("leaf", 1)
        assert total_cost(res.value, 0.01) == pytest.approx(0.01)

    def test_xor_needs_depth_two(self, xor_dataset):
        solver = OptimalSolver(xor_dataset, ObjectiveConfig(lam=0.01))
        res = solver.solve(xor_dataset.full_view(), 2)
        assert total_cost(res.value, 0.01) == pytest.approx(0.04)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_task_mismatch_rejected(self, task):
        """The task is the dataset's: a regression objective over class
        labels, or the reverse, is refused before any solve."""
        ds = generate_dataset(30, 4, seed=2, task=task)
        other = {"classification": "regression",
                 "regression": "classification"}[task]
        with pytest.raises(ValueError, match="task"):
            OptimalSolver(ds, ObjectiveConfig(other))

    def test_depth_zero_majority_leaf(self, tiny_dataset):
        solver = OptimalSolver(tiny_dataset, ObjectiveConfig(lam=0.01))
        res = solver.solve(tiny_dataset.full_view(), 0)
        assert res.tree == ("leaf", 1)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_brute_force(self, seed, depth):
        ds = random_dataset(seed + 400, 8 + seed * 3, 4)
        lam = 0.02
        solver = OptimalSolver(ds, ObjectiveConfig(lam=lam))
        res = solver.solve(ds.full_view(), depth)
        expect = brute_optimum(ds, depth, lam)
        assert total_cost(res.value, lam) == pytest.approx(expect, abs=1e-12)
        assert evaluate_cost(res.tree, ds, ObjectiveConfig(lam=lam)) == \
            pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("use_depth2", [True, False])
    def test_depth2_fast_path_agrees(self, use_depth2):
        ds = random_dataset(77, 30, 5)
        solver = OptimalSolver(ds, ObjectiveConfig(lam=0.01),
                               use_depth2=use_depth2)
        res = solver.solve(ds.full_view(), 3)
        assert total_cost(res.value, 0.01) == pytest.approx(
            brute_optimum(ds, 3, 0.01), abs=1e-12)

    def test_regression(self):
        ds = random_dataset(13, 16, 3, task="regression")
        lam = 0.2
        solver = OptimalSolver(ds, ObjectiveConfig("regression", lam=lam))
        res = solver.solve(ds.full_view(), 2)
        assert total_cost(res.value, lam) == pytest.approx(
            brute_optimum(ds, 2, lam), abs=1e-8)


class TestBoundsAndCache:
    def test_cache_hit_on_repeat(self):
        ds = random_dataset(22, 20, 4)
        solver = OptimalSolver(ds, ObjectiveConfig(lam=0.01))
        view = ds.full_view()
        first = solver.solve(view, 3)
        hits_before = solver.stats["cache_hits"]
        second = solver.solve(view, 3)
        assert second is first
        assert solver.stats["cache_hits"] == hits_before + 1

    def test_each_subproblem_solved_once(self):
        enum = RashomonEnumeration(generate_dataset(200, 8, 1), 4, lam=0.01,
                                   max_trees=2000)
        for _ in enum.groups():
            pass
        solver = enum.engine.solver
        assert solver.stats["solves"] == len(solver.cache)

    def test_excluded_features_respected(self):
        from rashenum import features_used
        ds = random_dataset(24, 20, 4)
        solver = OptimalSolver(ds, ObjectiveConfig(lam=0.01), features=[1, 3])
        res = solver.solve(ds.full_view(), 2)
        assert features_used(res.tree) <= {1, 3}


@st.composite
def solve_cases(draw):
    """(dataset, config, features) on small data, so values tie."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n = draw(st.integers(1, 60))
    num_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(n, num_features))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, num_features - 1))] = draw(st.integers(0, 1))
    if task == "classification":
        y = rng.integers(0, draw(st.integers(2, 3)), size=n)
    else:
        y = rng.integers(0, 3, size=n) * 0.5
    ds = BinaryDataset.from_arrays(X, y, task=task)
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
    features = draw(st.permutations(range(num_features)))
    features = features[:draw(st.sampled_from(range(num_features + 1)))]
    return ds, ObjectiveConfig(task, lam=lam), features


def exact(res):
    return res.value.hex(), res.tree


class TestSiblingPassSolves:
    @settings(max_examples=200, deadline=None)
    @given(solve_cases(), st.sampled_from([3, 4]))
    def test_equals_reference_recursion(self, case, depth):
        """Depth-3 and depth-4 solves, whose depth-3 subproblems run the
        sibling pass, give the former per-child recursion's (value, tree)
        exactly."""
        ds, cfg, features = case
        res = OptimalSolver(ds, cfg, features).solve(ds.full_view(), depth)
        value, tree = reference_solve(ds, cfg, depth, features)
        assert exact(res) == (value.hex(), tree)
        assert plain_numbers(res.tree)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_equals_reference_recursion_grid(self, task, depth):
        for seed in range(3):
            ds = generate_dataset(300, 7, seed, task=task)
            for lam, features in ((0.0, range(7)), (0.01, range(7)),
                                  (0.01, [6, 2, 4, 0])):
                cfg = ObjectiveConfig(task, lam=lam)
                res = OptimalSolver(ds, cfg, features).solve(ds.full_view(),
                                                              depth)
                value, tree = reference_solve(ds, cfg, depth, list(features))
                assert exact(res) == (value.hex(), tree)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_each_child_counted_once(self, task, depth):
        """Every child a pass caches counts as one solve, before and after
        an enumeration reuses the solver."""
        ds = generate_dataset(200, 8, 5, task=task)
        enum = RashomonEnumeration(ds, depth, lam=0.01, max_trees=2000)
        solver = enum.engine.solver
        assert solver.stats["solves"] == len(solver.cache)
        for _ in enum.groups():
            pass
        assert solver.stats["solves"] == len(solver.cache)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_pass_in_one_root_chunks(self, task, monkeypatch):
        """With a byte budget of one, the pass runs one root per chunk and
        one count row at a time, and still equals the reference."""
        import rashenum.depth2 as depth2
        monkeypatch.setattr(depth2, "_BUDGET", 1)
        ds = generate_dataset(150, 6, 4, task=task)
        assert len(depth2.sibling_chunks(ds, range(6), range(6))) == 6
        cfg = ObjectiveConfig(task, lam=0.01)
        for depth in (3, 4):
            solver = OptimalSolver(ds, cfg)
            res = solver.solve(ds.full_view(), depth)
            value, tree = reference_solve(ds, cfg, depth, list(range(6)))
            assert exact(res) == (value.hex(), tree)
            assert solver.stats["solves"] == len(solver.cache)
