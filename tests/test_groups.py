import pytest
from hypothesis import given, settings, strategies as st

from rashenum import (BranchEntry, LeafEntry, Pair, RashomonEnumeration,
                      SolutionGroup, count_trees, features_used,
                      generate_dataset, materialize)


def group_of(*entries, value=0.0):
    return SolutionGroup(value, list(entries))


def stump(feature, left, right):
    """A one-split subtree: a branch entry over two one-leaf groups."""
    return BranchEntry(feature, [Pair(group_of(LeafEntry(left)),
                                      group_of(LeafEntry(right)))])


class TestCounting:
    def test_leaf_and_tree_entries_count_one_each(self):
        g = group_of(LeafEntry(0), stump(0, 0, 1))
        assert count_trees(g) == 2

    def test_branch_entry_counts_products(self):
        left = group_of(LeafEntry(0), LeafEntry(1))
        right = group_of(LeafEntry(0), LeafEntry(1), LeafEntry(2))
        g = group_of(BranchEntry(4, [Pair(left, right)]))
        assert count_trees(g) == 6

    def test_count_matches_materialization(self):
        left = group_of(LeafEntry(0), stump(1, 0, 1))
        right = group_of(LeafEntry(1), LeafEntry(0))
        g = group_of(LeafEntry(2), BranchEntry(0, [Pair(left, right)]))
        trees = list(materialize(g))
        assert len(trees) == count_trees(g) == 5
        assert len(set(map(repr, trees))) == len(trees)

    def test_arbitrary_precision(self):
        # chain of doublings: 2^80 trees, counted exactly
        g = group_of(LeafEntry(0), LeafEntry(1))
        for f in range(80):
            g = group_of(BranchEntry(f, [Pair(g, group_of(LeafEntry(0)))]),
                         BranchEntry(f, [Pair(g, group_of(LeafEntry(1)))]))
        assert count_trees(g) == 2 ** 81


class TestFilteredPairs:
    def test_same_label_leaf_pair_excluded(self):
        left = group_of(LeafEntry(1))
        right = group_of(LeafEntry(1))
        pair = Pair(left, right, filtered=True)
        assert pair.count() == 0
        assert list(pair.iter_subtrees(0)) == []

    def test_relabels_left_leaf_first(self):
        left = group_of(LeafEntry(1, alternatives=(0,)))
        right = group_of(LeafEntry(1))
        pair = Pair(left, right, filtered=True)
        assert pair.count() == 1
        assert list(pair.iter_subtrees(2)) == \
            [("split", 2, ("leaf", 0), ("leaf", 1))]

    def test_relabels_right_when_left_has_no_alternative(self):
        left = group_of(LeafEntry(1))
        right = group_of(LeafEntry(1, alternatives=(2,)))
        pair = Pair(left, right, filtered=True)
        assert list(pair.iter_subtrees(2)) == \
            [("split", 2, ("leaf", 1), ("leaf", 2))]

    def test_unfiltered_keeps_trivial_extension(self):
        pair = Pair(group_of(LeafEntry(1)), group_of(LeafEntry(1)))
        assert pair.count() == 1
        assert list(pair.iter_subtrees(0)) == \
            [("split", 0, ("leaf", 1), ("leaf", 1))]

    def test_distinct_label_leaves_unaffected(self):
        pair = Pair(group_of(LeafEntry(0)), group_of(LeafEntry(1)),
                    filtered=True)
        assert pair.count() == 1


class TestSharing:
    def test_shared_subgroup_not_mutated_by_materialization(self):
        shared = group_of(LeafEntry(0), LeafEntry(1))
        a = group_of(BranchEntry(0, [Pair(shared, group_of(LeafEntry(0)))]))
        b = group_of(BranchEntry(1, [Pair(shared, group_of(LeafEntry(1)))]))
        before = list(materialize(a))
        list(materialize(b))
        assert list(materialize(a)) == before
        assert count_trees(shared) == 2

    def test_materialize_limit(self):
        g = group_of(*[LeafEntry(i) for i in range(5)])
        assert len(list(materialize(g, 3))) == 3
        with pytest.raises(ValueError):
            list(materialize(g, -1))


class TestAvoidedFeatureCount:
    def test_branch_on_avoided_feature_counts_zero(self):
        child = group_of(LeafEntry(0), LeafEntry(1))
        g = group_of(LeafEntry(0), BranchEntry(2, [Pair(child, child)]),
                     stump(1, 0, 1))
        assert [count_trees(g, f) for f in (None, 1, 2, 3)] == [6, 5, 2, 6]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           task=st.sampled_from(["classification", "regression"]),
           suppress=st.booleans())
    def test_matches_materialized_trees(self, seed, depth, task, suppress):
        ds = generate_dataset(30, 4, seed, task=task)
        enum = RashomonEnumeration(ds, depth, lam=0.02, max_trees=300,
                                   suppress_trivial=suppress)
        for emitted in enum.groups():
            trees = list(materialize(emitted.group))
            for f in range(ds.num_features):
                expect = sum(f not in features_used(t) for t in trees)
                assert count_trees(emitted.group, f) == expect
            assert count_trees(emitted.group) == len(trees)
