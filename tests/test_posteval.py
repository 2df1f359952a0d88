import pytest

from rashenum import (RashomonEnumeration, UndefinedMetricError,
                      batched_constrained_search, eq_opportunity_spec,
                      evaluate_secondary, materialize, pareto_front,
                      parse_dataset)
from rashenum.posteval import ParetoFront, stat_of_tree
from conftest import random_dataset
from oracle import oracle_pareto, oracle_structures


def fairness_dataset():
    """Feature 0 is the sensitive attribute; labels depend partly on it."""
    rows = [
        # label sensitive other other
        "1 0 1 0", "1 0 1 1", "1 0 0 1", "0 0 0 0", "0 0 1 0",
        "1 1 1 1", "1 1 0 1", "0 1 0 0", "0 1 1 0", "0 1 0 1",
        "1 0 1 0", "0 1 1 1",
    ]
    return parse_dataset("\n".join(rows))


class TestEqOpportunitySpec:
    def test_leaf_stat_counts(self):
        # leaf predicting 1 over a view with 3 group-0 and 2 group-1
        # positives, one misclassified sample -> (1, 3, 2)
        rows = ["1 0", "1 0", "1 0", "1 1", "1 1", "0 1"]
        ds = parse_dataset("\n".join(rows))
        spec = eq_opportunity_spec(ds, 0, 1)
        assert spec.leaf_stat(ds.full_view(), 1) == (1, 3, 2)

    def test_negative_prediction_counts_no_true_positives(self):
        ds = fairness_dataset()
        spec = eq_opportunity_spec(ds, 0, 1)
        mis, tp0, tp1 = spec.leaf_stat(ds.full_view(), 0)
        assert (tp0, tp1) == (0, 0)

    def test_combine_is_elementwise_add(self):
        ds = fairness_dataset()
        spec = eq_opportunity_spec(ds, 0, 1)
        assert spec.combine_stat((1, 3, 2), (0, 1, 0)) == (1, 4, 2)

    def test_perfect_fair_classifier(self):
        rows = ["1 0 1", "0 0 0", "1 1 1", "0 1 0"]
        ds = parse_dataset("\n".join(rows))
        spec = eq_opportunity_spec(ds, 0, 1)
        stat = stat_of_tree(("split", 1, ("leaf", 0), ("leaf", 1)),
                            ds.full_view(), spec)
        accuracy, disc = spec.finalize(stat)
        assert accuracy == 1.0 and disc == 0.0

    def test_predicting_only_group0_positives_maximizes_discrimination(self):
        # feature 1 marks exactly the group-0 positives
        rows = ["1 0 1", "0 0 0", "1 1 0", "0 1 0"]
        ds = parse_dataset("\n".join(rows))
        spec = eq_opportunity_spec(ds, 0, 1)
        stat = stat_of_tree(("split", 1, ("leaf", 0), ("leaf", 1)),
                            ds.full_view(), spec)
        _, disc = spec.finalize(stat)
        assert disc == pytest.approx(1.0)

    def test_zero_positive_group_is_surfaced(self):
        rows = ["1 0", "0 0", "0 1", "0 1"]  # group 1 has no positives
        ds = parse_dataset("\n".join(rows))
        spec = eq_opportunity_spec(ds, 0, 1)
        with pytest.raises(UndefinedMetricError):
            spec.finalize((0, 1, 0))

    def test_rejects_bad_arguments(self):
        ds = fairness_dataset()
        with pytest.raises(IndexError):
            eq_opportunity_spec(ds, 9, 1)
        with pytest.raises(ValueError):
            eq_opportunity_spec(ds, 0, 5)


class TestEvaluateSecondary:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_dag_equals_per_tree_evaluation(self, seed):
        ds = random_dataset(seed + 900, 18, 4)
        spec = eq_opportunity_spec(ds, 0, 1)
        enum = RashomonEnumeration(ds, 3, lam=0.01, epsilon=0.8)
        emitted = list(enum.groups())
        dag = {}
        for cost, stat, witness in evaluate_secondary(emitted, spec):
            dag.setdefault(round(cost, 9), set()).add(stat)
            assert stat_of_tree(witness, ds.full_view(), spec) == stat
        brute = {}
        for em in emitted:
            for tree in materialize(em.group):
                brute.setdefault(round(em.total_cost, 9), set()).add(
                    stat_of_tree(tree, ds.full_view(), spec))
        assert dag == brute

    def test_combo_cap_fallback_is_exact(self):
        ds = random_dataset(905, 18, 4)
        spec = eq_opportunity_spec(ds, 0, 1)
        enum = RashomonEnumeration(ds, 3, lam=0.01, epsilon=0.8)
        emitted = list(enum.groups())
        wide = {(round(c, 9), s) for c, s, _
                in evaluate_secondary(emitted, spec, combo_cap=4096)}
        narrow = {(round(c, 9), s) for c, s, _
                  in evaluate_secondary(emitted, spec, combo_cap=1)}
        assert wide == narrow

    def test_suppressed_enumeration_stats_match(self):
        ds = random_dataset(906, 16, 3)
        spec = eq_opportunity_spec(ds, 0, 1)
        enum = RashomonEnumeration(ds, 2, lam=0.01, epsilon=1.0,
                                   suppress_trivial=True)
        emitted = list(enum.groups())
        dag = {(round(c, 9), s) for c, s, _
               in evaluate_secondary(emitted, spec)}
        brute = {(round(em.total_cost, 9),
                  stat_of_tree(t, ds.full_view(), spec))
                 for em in emitted for t in materialize(em.group)}
        assert dag == brute


class TestParetoFront:
    def test_single_dominating_point(self):
        front = pareto_front([((1, 1), ("leaf", 0)), ((2, 2), ("leaf", 1))])
        assert [p.coordinates for p in front] == [(1, 1)]

    def test_antichain_all_kept(self):
        pts = [((1, 3), ("leaf", 0)), ((2, 2), ("leaf", 1)),
               ((3, 1), ("leaf", 0))]
        front = pareto_front(pts)
        assert [p.coordinates for p in front] == [(1, 3), (2, 2), (3, 1)]

    def test_ties_keep_first_witness(self):
        front = pareto_front([((1, 1), ("leaf", 7)), ((1, 1), ("leaf", 8))])
        assert len(front) == 1
        assert front[0].witness == ("leaf", 7)

    def test_incremental_absorbs_batches(self):
        front = ParetoFront()
        for coords in [(3, 3), (1, 4), (2, 2)]:
            front.add(coords, ("leaf", 0))
        assert [p.coordinates for p in front.points()] == [(1, 4), (2, 2)]
        front.add((0, 0), ("leaf", 1))
        assert [p.coordinates for p in front.points()] == [(0, 0)]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadratic_oracle(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        pts = [(tuple(np.round(rng.uniform(0, 1, 2), 2)), ("leaf", 0))
               for _ in range(60)]
        expect = [c for c, _ in oracle_pareto(pts)]
        got = [p.coordinates for p in pareto_front(pts)]
        assert got == expect


class TestConstrainedSearch:
    def test_trivially_satisfiable_returns_optimum(self):
        ds = fairness_dataset()
        spec = eq_opportunity_spec(ds, 0, 1)
        res = batched_constrained_search(ds, 2, 0.01, spec,
                                         lambda obj: True)
        enum = RashomonEnumeration(ds, 2, lam=0.01, epsilon=0.0)
        assert res.total_cost == pytest.approx(enum.optimal_total)

    def test_unsatisfiable_returns_none(self):
        ds = fairness_dataset()
        spec = eq_opportunity_spec(ds, 0, 1)
        res = batched_constrained_search(ds, 1, 0.01, spec,
                                         lambda obj: False, epsilon=0.3)
        assert res is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_most_accurate_fair_tree(self, seed):
        ds = random_dataset(seed + 950, 16, 3)
        spec = eq_opportunity_spec(ds, 0, 1)
        delta = 0.01
        res = batched_constrained_search(
            ds, 2, 0.01, spec, lambda obj: abs(obj[1]) <= delta)
        best = None
        for loss, leaves, tree in oracle_structures(ds, 2, False):
            cost = loss + 0.01 * leaves
            obj = spec.finalize(stat_of_tree(tree, ds.full_view(), spec))
            if abs(obj[1]) <= delta and (best is None or cost < best):
                best = cost
        if res is None:
            assert best is None
        else:
            assert res.total_cost == pytest.approx(best, abs=1e-9)
            assert abs(res.objective[1]) <= delta
