"""Depth-two fast path: frequency counts, root side lists, the optimum.

Single and pairwise cell statistics (``CellStats``, one channel layout for
both tasks, after the depth-two solver of MurTree) are precomputed once per
subproblem; every depth <= 1 solution under a root split then follows from
cell lookups, without recursive dataset splitting. The optimum
(``depth2_optimal``) is taken array-wide over the whole table: the leaf
value of every cell, every side's best sub-split and every root's best
tree at once, with the floats and the tie rule of the scalar leaf kernel
``objective.best_leaf``. The search node's side lists (``generate_depth2``)
come from one scalar sub-split kernel, ``_subtrees``, which calls
``best_leaf`` per cell and keeps each cell's tied labels for suppression.
A depth <= 2 tree is one (root, left side, right side) combination, each
side a leaf or a depth-1 subtree, so no tree is emitted twice.
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
    dataset's).

    Classification counts are float64 matrix products (BLAS) cast back to
    int64: a sum of 0/1 products is exact in float64 while it stays below
    2^53, so they equal the integer products.
    """
    ds = view.dataset
    idx = view.member_indices()
    X = ds.X[idx]
    if ds.task == "classification":  # channel k: the samples of class k
        y = ds.labels[idx]
        rows = [X[y == k].astype(np.float64) for k in range(ds.num_classes)]
        q1 = np.array([M.sum(axis=0) for M in rows]).astype(np.int64)
        q2 = np.array([M.T @ M for M in rows]).astype(np.int64)
        return CellStats(np.array([len(M) for M in rows], dtype=np.int64),
                         q1, q2, ds)
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
    """Depth-1 subtrees under each side of root i, in ``features`` order.

    Returns (lefts, rights), lists of _stump tuples, for the side lists of
    ``generate_depth2`` (the optimum does not call it). Each sub-split costs
    one quad lookup and two leaf-kernel calls; degenerate ones are left out.
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


def _leaf_values(ds, cells):
    """The leaf value of every cell in a (channel, ...) array, with the float
    operations of ``objective.best_leaf``; ``inf`` where a cell is empty."""
    if ds.task == "classification":
        size = cells.sum(axis=0)
        values = (size - cells.max(axis=0)) / ds.num_samples
        return np.where(size > 0, values, np.inf)
    n, s, ss = cells
    with np.errstate(divide="ignore", invalid="ignore"):  # empty cells
        sse = np.maximum(ss - s * s / n, 0.0)
    return np.where(n == 0, np.inf, sse)


def _prediction(ds, cell):
    """A non-empty cell's leaf prediction, as ``best_leaf`` makes it."""
    if ds.task == "classification":
        return int(cell.argmax())   # the lowest majority label
    return (ds.label_mean + cell[1] / cell[0]).item()


def depth2_optimal(counts, config, depth, features):
    """Optimal (value, tree) for a depth<=2 subproblem, straight from counts.

    Array-wide over the count table, with the float operations of
    ``best_leaf``: the leaf value of every root side and of every (root,
    sub-split) cell, then every side's best sub-split, in one pass; no
    Python loop runs over features or cells. Candidates are taken in this
    order, each replacing the incumbent only when strictly better: the
    leaf; every one-split tree, by root feature; then per root feature, the
    tree whose sides are each the side's leaf unless some depth-1 subtree
    beats it strictly (the lowest such feature among the best). "Lowest"
    is the order in which ``features`` lists them.
    """
    ds, lam = counts.dataset, config.lam
    q0 = counts.total()
    best_v, best = _leaf_values(ds, q0).item(), None
    feats = list(features)
    if depth < 1 or not feats:
        return best_v, ("leaf", _prediction(ds, q0))
    idx = np.array(feats)
    fi = counts.q1[:, idx]                              # (C, K)
    # (2, K): each root's left (feature unsatisfied) and right side
    leaves = _leaf_values(ds, np.stack((q0[:, None] - fi, fi), axis=1))
    one = leaves[0] + leaves[1] + lam                   # inf: a side is empty
    r = int(one.argmin())
    if one[r] < best_v:
        best_v, best = one[r].item(), (feats[r], None, None)
    if depth >= 2:
        roots = np.arange(len(feats))
        fi, fj = fi[:, :, None], fi[:, None, :]
        fij = counts.q2[:, idx[:, None], idx]
        # the (neg, pos) cells of sub-split j under root i's left, right side
        vals = _leaf_values(ds, np.stack(
            (q0[:, None, None] - fi - fj + fij, fj - fij, fi - fij, fij),
            axis=1))                                    # (4, K, K)
        subs = vals[0::2] + vals[1::2] + lam            # (2, K, K)
        subs[:, roots, roots] = np.inf                  # j == i
        j = subs.argmin(axis=2)                         # first of the best
        sub = subs[[[0], [1]], roots, j]
        better = sub < leaves                           # the leaf wins ties
        sides = np.where(better, sub, leaves)
        two = sides[0] + sides[1] + lam
        r = int(two.argmin())
        if two[r] < best_v:
            picks = [feats[k] if b else None
                     for k, b in zip(j[:, r].tolist(), better[:, r])]
            best_v, best = two[r].item(), (feats[r], *picks)
    if best is None:
        return best_v, ("leaf", _prediction(ds, q0))
    i, left, right = best
    return best_v, ("split", i, _side_tree(counts, i, False, left),
                    _side_tree(counts, i, True, right))


def _side_tree(counts, i, satisfied, j):
    """The tree on one side of root i: its leaf, or the sub-split on j."""
    ds = counts.dataset
    if j is None:
        return ("leaf", _prediction(ds, counts.side(i, satisfied)))
    a, b, c, d = counts.quad(i, j)
    neg, pos = (d, c) if satisfied else (b, a)
    return ("split", j, ("leaf", _prediction(ds, neg)),
            ("leaf", _prediction(ds, pos)))
