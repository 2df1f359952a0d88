"""Grouped solution structure: all subtree solutions sharing one value.

A SolutionGroup holds entries that are either a bare leaf or a branch entry
referencing pairs of child groups; a SideGroup, a depth-two side list's
group, holds leaves and one-split subtrees. References form a DAG, so tree
counts are products and sums over the structure, kept in arbitrary
precision.
"""
from __future__ import annotations

from collections import Counter
from itertools import islice

from .objective import distinct_leaf_labels


class LeafEntry:
    """A single-leaf solution; alternatives are value-tied other labels."""

    __slots__ = ("prediction", "alternatives")

    def __init__(self, prediction, alternatives=()):
        self.prediction = prediction
        self.alternatives = tuple(alternatives)

    def tree(self):
        return ("leaf", self.prediction)


class TreeEntry:
    """A depth-1 subtree of a depth-two side list: its split feature and
    its two leaf predictions. The ``tree`` tuple is built on first access
    and kept, so an entry never materialised holds no tuple."""

    __slots__ = ("feature", "left", "right", "tree")

    def __init__(self, feature, left, right):
        self.feature = feature
        self.left = left
        self.right = right

    def __getattr__(self, name):  # only reached while a slot is unset
        if name != "tree":
            raise AttributeError(name)
        self.tree = ("split", self.feature, ("leaf", self.left),
                     ("leaf", self.right))
        return self.tree


class Pair:
    """One (left group, right group) combination under a branch entry.

    When filtered is set, leaf+leaf combinations follow the suppression
    rule ``objective.distinct_leaf_labels``: a shared label is relabeled to
    a tied alternative (left leaf first) or, lacking one, excluded.
    """

    __slots__ = ("left", "right", "filtered")

    def __init__(self, left, right, filtered=False):
        self.left = left
        self.right = right
        self.filtered = filtered

    def count(self, avoid=None) -> int:
        total = count_trees(self.left, avoid) * count_trees(self.right, avoid)
        if self.filtered:
            total -= self._excluded()
        return total

    def _excluded(self) -> int:
        return sum(distinct_leaf_labels(le.prediction, le.alternatives,
                                        re.prediction, re.alternatives) is None
                   for le in self.left.leaf_entries()
                   for re in self.right.leaf_entries())

    def iter_subtrees(self, feature):
        for lt, lalts in self.left.iter_trees():
            for rt, ralts in self.right.iter_trees():
                if self.filtered and lt[0] == "leaf" and rt[0] == "leaf":
                    labels = distinct_leaf_labels(lt[1], lalts, rt[1], ralts)
                    if labels is None:
                        continue
                    yield ("split", feature, ("leaf", labels[0]),
                           ("leaf", labels[1]))
                else:
                    yield ("split", feature, lt, rt)


class BranchEntry:
    __slots__ = ("feature", "pairs")

    def __init__(self, feature, pairs=None):
        self.feature = feature
        self.pairs = list(pairs) if pairs else []


class SolutionGroup:
    """All solutions of one subproblem sharing a single objective value."""

    __slots__ = ("value", "entries", "view", "_count")

    def __init__(self, value, entries=None, view=None):
        self.value = value
        self.entries = list(entries) if entries else []
        self.view = view
        self._count = {}

    def extend(self, entries):
        self.entries.extend(entries)
        self._count.clear()

    def leaf_entries(self):
        return [e for e in self.entries if isinstance(e, LeafEntry)]

    def iter_trees(self):
        """Yield (tree, leaf alternatives or None), deterministic order."""
        for entry in self.entries:
            if isinstance(entry, LeafEntry):
                yield entry.tree(), entry.alternatives
            elif isinstance(entry, TreeEntry):
                yield entry.tree, None
            else:
                for pair in entry.pairs:
                    for tree in pair.iter_subtrees(entry.feature):
                        yield tree, None

    def __repr__(self):
        return (f"{type(self).__name__}(value={self.value}, "
                f"entries={len(self.entries)})")


class SideGroup(SolutionGroup):
    """A depth-two side list's group: ``LeafEntry`` and ``TreeEntry`` items
    only, each one tree. Its count is its length, less the subtrees on the
    feature to avoid; the subtrees per feature are tallied on the first
    count that avoids one."""

    __slots__ = ("_stumps",)

    def __init__(self, value, entries=None, view=None):
        super().__init__(value, entries, view)
        self._stumps = None

    def count(self, avoid=None) -> int:
        if avoid is None:
            return len(self.entries)
        if self._stumps is None:
            self._stumps = Counter(e.feature for e in self.entries
                                   if type(e) is TreeEntry)
        return len(self.entries) - self._stumps[avoid]


def count_trees(group: SolutionGroup, avoid=None) -> int:
    """Exact number of distinct trees in a group (memoized, big ints).

    With avoid set, counts only the trees that never split on that feature.
    """
    if type(group) is SideGroup:
        return group.count(avoid)
    total = group._count.get(avoid)
    if total is not None:
        return total
    total = 0
    for entry in group.entries:
        kind = type(entry)
        if kind is LeafEntry:
            total += 1
        elif kind is TreeEntry:
            total += entry.feature != avoid
        elif entry.feature != avoid:
            for pair in entry.pairs:
                total += pair.count(avoid)
    group._count[avoid] = total
    return total


def materialize(group: SolutionGroup, limit=None):
    """Yield up to limit distinct trees from a group, deterministically."""
    it = (tree for tree, _ in group.iter_trees())
    if limit is None:
        return it
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return islice(it, limit)
