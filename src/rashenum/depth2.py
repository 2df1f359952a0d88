"""Depth-two fast path: frequency counts, root side lists, the optimum.

Single and pairwise cell statistics (``CellStats``, one channel layout for
both tasks, after the depth-two solver of MurTree) are precomputed once per
subproblem; every depth <= 1 solution under a root split then follows from
cell lookups and the leaf kernel ``objective.best_leaf``, without recursive
dataset splitting. One sub-split kernel, ``_subtrees``, computes the
depth-1 subtrees under both sides of a root split, each sub-split once; the
optimum (``depth2_optimal``) and the search node's side lists
(``generate_depth2``) read its lists. A depth <= 2 tree is one (root, left
side, right side) combination, each side a leaf or a depth-1 subtree, so no
tree is emitted twice.
"""
from __future__ import annotations

from operator import itemgetter

import numpy as np

from .groups import LeafEntry, TreeEntry
from .objective import LeafSolution, best_leaf, distinct_leaf_labels


class CellStats:
    """Single and pairwise per-channel feature sums within a view.

    A cell is a channel vector laid out as ``objective.view_cell``: class
    counts, or the count, sum and sum of squares of centred labels.
    """

    def __init__(self, q0, q1, q2, dataset):
        self.q0 = q0      # (C,)
        self.q1 = q1      # (C, F)
        self.q2 = q2      # (C, F, F)
        self.dataset = dataset

    def total(self):
        return self.q0

    def side(self, i, satisfied):
        return self.q1[:, i] if satisfied else self.q0 - self.q1[:, i]

    def quad(self, i, j):
        """Cells ((~i, j), (~i, ~j), (i, j), (i, ~j))."""
        fi_fj = self.q2[:, i, j]
        fi = self.q1[:, i]
        fj = self.q1[:, j]
        return (fj - fi_fj, self.q0 - fi - fj + fi_fj, fi_fj, fi - fi_fj)


def compute_counts(view, config=None):
    """Cell statistics of a view; ``config`` is not read (the task is the
    dataset's)."""
    ds = view.dataset
    idx = view.member_indices()
    X = ds.X[idx]
    if ds.task == "classification":  # channel k: the samples of class k
        y = ds.labels[idx]
        rows = [X[y == k].astype(np.int64) for k in range(ds.num_classes)]
        return CellStats(np.array([len(M) for M in rows], dtype=np.int64),
                         np.array([M.sum(axis=0) for M in rows]),
                         np.array([M.T @ M for M in rows]), ds)
    yc = ds.labels[idx] - ds.label_mean   # channels 1, yc, yc^2 per sample
    W = np.stack((np.ones_like(yc), yc, yc * yc))
    Xf = X.astype(np.float64)
    q2 = np.stack([Xf.T @ (Xf * w[:, None]) for w in W])
    return CellStats(W.sum(axis=1), W @ Xf, q2, ds)


def _stump(lam, suppress, feature, lsol, rsol):
    """Depth-1 split from its two leaf solutions: (value, feature, left
    prediction, right prediction), or None when suppression rejects it."""
    pl, pr = lsol.prediction, rsol.prediction
    if suppress:
        labels = distinct_leaf_labels(pl, lsol.alternatives,
                                      pr, rsol.alternatives)
        if labels is None:
            return None
        pl, pr = labels
    return lsol.value + rsol.value + lam, feature, pl, pr


def _leaves(ds, neg, pos):
    """Leaf solutions of a split's two cells, or None when one is empty."""
    lsol, rsol = best_leaf(ds, neg), best_leaf(ds, pos)
    return None if lsol is None or rsol is None else (lsol, rsol)


def _roots(counts, features):
    """(feature, left leaf, right leaf) per feature whose sides are non-empty."""
    roots = []
    for i in features:
        sols = _leaves(counts.dataset, counts.side(i, False),
                       counts.side(i, True))
        if sols is not None:
            roots.append((i, *sols))
    return roots


def _subtrees(counts, lam, features, i, suppress):
    """Depth-1 subtrees under each side of root i, in ascending feature order.

    Returns (lefts, rights), lists of _stump tuples. Each sub-split costs one
    quad lookup and two leaf-kernel calls; degenerate ones are left out.
    """
    lefts, rights = [], []
    for j in features:
        if j == i:
            continue
        a, b, c, d = counts.quad(i, j)
        for out, neg, pos in ((lefts, b, a), (rights, d, c)):  # j false left
            sols = _leaves(counts.dataset, neg, pos)
            if sols is not None:
                sub = _stump(lam, suppress, j, *sols)
                if sub is not None:
                    out.append(sub)
    return lefts, rights


def generate_depth2(counts, config, depth, features, suppress):
    """Both side lists of every root split of a depth <= 2 subproblem.

    Returns (feature, lefts, rights) per root feature whose sides are both
    non-empty. A side list is complete and sorted by (value, feature or -1
    for the leaf): the side's ``LeafSolution`` and, at depth 2, its depth-1
    subtrees as ``_stump`` tuples. The search node merges the two lists
    lazily, so no tree is built here.
    """
    if depth < 1:
        return []
    roots = []
    for i, lsol, rsol in _roots(counts, features):
        lefts, rights = (_subtrees(counts, config.lam, features, i, suppress)
                         if depth >= 2 else ((), ()))
        # stable sort: the leaf, then subtrees by feature, among equal values
        roots.append((i, sorted([lsol, *lefts], key=itemgetter(0)),
                      sorted([rsol, *rights], key=itemgetter(0))))
    return roots


def side_tree(item):
    """The tree of one side-list item: a LeafSolution or a _stump tuple."""
    if isinstance(item, LeafSolution):
        return ("leaf", item.prediction)
    return ("split", item[1], ("leaf", item[2]), ("leaf", item[3]))


def side_entry(item):
    """The solution-group entry of one side-list item; a leaf keeps its
    tied alternatives for the parent pair's suppression filter."""
    if isinstance(item, LeafSolution):
        return LeafEntry(item.prediction, item.alternatives)
    return TreeEntry(side_tree(item))


def depth2_optimal(counts, config, depth, features):
    """Optimal (value, tree) for a depth<=2 subproblem, straight from counts.

    Candidates are taken in this order, each replacing the incumbent only
    when strictly better: the leaf; every one-split tree, by root feature;
    then per root feature, the tree whose sides are each the side's leaf
    unless some depth-1 subtree beats it strictly (the lowest such feature
    among the best).
    """
    lam = config.lam
    v0, p0, _ = best_leaf(counts.dataset, counts.total())
    best_v, best = v0, None
    roots = _roots(counts, features) if depth >= 1 else []
    for i, lsol, rsol in roots:
        v = lsol.value + rsol.value + lam
        if v < best_v:
            best_v, best = v, (i, lsol, rsol)
    if depth >= 2:
        for i, lsol, rsol in roots:
            lefts, rights = _subtrees(counts, lam, features, i, False)
            # min keeps the first of equal values: the leaf, then low features
            left = min([lsol, *lefts], key=itemgetter(0))
            right = min([rsol, *rights], key=itemgetter(0))
            v = left[0] + right[0] + lam
            if v < best_v:
                best_v, best = v, (i, left, right)
    if best is None:
        return best_v, ("leaf", p0)
    i, left, right = best
    return best_v, ("split", i, side_tree(left), side_tree(right))
