"""Depth-two fast path: frequency counts, the side table, the optimum.

Single and pairwise cell statistics (``CellStats``, one channel layout for
both tasks, after the depth-two solver of MurTree) are precomputed once per
subproblem; every depth <= 1 solution under a root split then follows from
cell lookups, without recursive dataset splitting. The side table
(``SideTable``, cached on the ``CellStats``) holds them array-wide: the leaf
value and prediction of every root side, and the value and two leaf
predictions of every (side, root, sub-split) stump, with the floats and the
tie rule of the scalar leaf kernel ``objective.best_leaf``. The optimum
(``depth2_optimal``) and the search node's side lists (``generate_depth2``)
both read it; a side list is a sorted slice of the table, built when a
search node first opens the side. A depth <= 2 tree is one (root, left
side, right side) combination, each side a leaf or a depth-1 subtree, so no
tree is emitted twice.
"""
from __future__ import annotations

import numpy as np

from .groups import LeafEntry, TreeEntry
from .objective import LeafSolution, distinct_leaf_labels


class CellStats:
    """Single and pairwise per-channel feature sums within a view.

    A cell is a channel vector laid out as ``objective.view_cell``: class
    counts, or the count, sum and sum of squares of centred labels.
    ``table`` caches the view's ``SideTable``.
    """

    def __init__(self, q0, q1, q2, dataset):
        self.q0 = q0      # (C,)
        self.q1 = q1      # (C, F)
        self.q2 = q2      # (C, F, F)
        self.dataset = dataset
        self.table = None

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


def _leaves(ds, cells):
    """The leaf value and prediction of every cell in a (channel, ...) array,
    with the float operations and tie rule of ``objective.best_leaf``: the
    value is ``inf`` (and the prediction meaningless) where a cell is empty.

    Classification walks the few class channels once for the size, the
    majority count and the label together: on depth-two tables that is
    cheaper than three numpy reductions over the channel axis.
    """
    if ds.task == "classification":
        size, top = np.array(cells[0]), np.array(cells[0])   # copies
        label = np.zeros(size.shape, np.min_scalar_type(len(cells) - 1))
        for k in range(1, len(cells)):   # the lowest majority label wins
            count = cells[k]
            size += count
            label[count > top] = k
            np.maximum(top, count, out=top)
        values = (size - top) / ds.num_samples
        return np.where(size > 0, values, np.inf), label
    n, s, ss = cells
    with np.errstate(divide="ignore", invalid="ignore"):  # empty cells
        sse = np.maximum(ss - s * s / n, 0.0)
        return np.where(n == 0, np.inf, sse), ds.label_mean + s / n


def _alternatives(ds, cell):
    """A non-empty cell's value-tied labels after its prediction, as
    ``best_leaf`` lists them; none for regression."""
    if ds.task != "classification":
        return ()
    counts = cell.tolist()
    best = max(counts)
    return tuple(k for k, c in enumerate(counts) if c == best)[1:]


def table_leaf(counts):
    """The view's own leaf as a ``LeafSolution``, off its counts."""
    ds, q0 = counts.dataset, counts.total()
    value, prediction = _leaves(ds, q0)
    return LeafSolution(value.item(), prediction.item(), _alternatives(ds, q0))


def _stump_cells(counts, idx):
    """(C, 4, K, K): the (neg, pos) cells of sub-split j under root i's
    left side, then its right side, for i and j in ``idx``."""
    q0 = counts.q0
    fi = counts.q1[:, idx]
    fi, fj = fi[:, :, None], fi[:, None, :]
    fij = counts.q2[:, idx[:, None], idx]
    return np.stack((q0[:, None, None] - fi - fj + fij, fj - fij, fi - fij,
                     fij), axis=1)


class SideTable:
    """Every depth <= 1 solution on either side of every root split of one
    view, over one feature list, as arrays indexed (side, root[, sub-split]).

    Side 0 is a root's left side (feature unsatisfied), side 1 its right;
    roots and sub-splits are positions in ``features``. The leaf arrays are
    built at once, the stump arrays on the first depth-2 read (``stumps``).
    A stump's value leaves out lambda: ``neg + pos``, so adding lambda
    gives the scalar ``neg + pos + lambda`` bit for bit. It is ``inf``
    where the sub-split is the root or leaves a cell empty.
    """

    def __init__(self, counts, features):
        ds = counts.dataset
        self.features = features
        self.idx = np.array(features, dtype=np.intp)
        q0 = counts.q0
        fi = counts.q1[:, self.idx]                     # (C, K)
        sides = np.stack((q0[:, None] - fi, fi), axis=1)
        self.leaf, self.leaf_pred = _leaves(ds, sides)  # (2, K) each
        self.stump = None      # (2, K, K) values without lambda
        self.pred = None       # (4, K, K) neg, pos prediction per side
        self._rejected = None

    def stumps(self, counts):
        """Build the stump arrays once; returns the table."""
        if self.stump is None:
            ds = counts.dataset
            cells = _stump_cells(counts, self.idx)
            vals, self.pred = _leaves(ds, cells)
            stump = vals[0::2] + vals[1::2]
            roots = np.arange(len(self.idx))
            stump[:, roots, roots] = np.inf             # j == i
            self.stump = stump
        return self

    def rejected(self, counts):
        """(2, K, K): the stumps suppression rejects, whose two leaves share
        one label and neither has a tied label to move to (cached)."""
        if self._rejected is None:
            same = self.pred[0::2] == self.pred[1::2]
            if counts.dataset.task == "classification":
                cells = _stump_cells(counts, self.idx)
                tied = (cells == cells.max(axis=0)).sum(axis=0) > 1
                same &= ~(tied[0::2] | tied[1::2])
            self._rejected = same
        return self._rejected


def side_table(counts, features, depth):
    """The view's ``SideTable`` over ``features`` (a tuple), with its stumps
    when ``depth`` >= 2; built on first use and cached on ``counts``."""
    table = counts.table
    if table is None or table.features != features:
        table = counts.table = SideTable(counts, features)
    return table.stumps(counts) if depth >= 2 else table


class _Sides:
    """What a depth <= 2 node's side lists share: the counts, the table,
    lambda (None at depth 1, where a side list is its leaf) and whether
    suppression is on."""

    __slots__ = ("counts", "table", "lam", "suppress")

    def __init__(self, counts, table, lam, suppress):
        self.counts = counts
        self.table = table
        self.lam = lam
        self.suppress = suppress

    def stumps(self, s=slice(None), k=slice(None)):
        """Stump values with lambda, ``inf`` where suppression rejects one:
        of side s of root k, or of the whole table."""
        values = self.table.stump[s, k] + self.lam
        if self.suppress:
            values[self.table.rejected(self.counts)[s, k]] = np.inf
        return values


class SideList:
    """One side of a root split: its optimum now, its items when opened.

    The items are the side's leaf and, at depth 2, its depth-1 subtrees
    whose cells are both non-empty (and, under suppression, that keep two
    distinct labels), read off the table.
    """

    __slots__ = ("sides", "root", "side", "value")

    def __init__(self, sides, root, side, value):
        self.sides = sides
        self.root = root
        self.side = side
        self.value = value        # the least item value

    def open(self):
        """The items in value order, stable: the leaf, then subtrees in
        features order, among equal values.

        Returns (values, make): every item's value, and a function building
        the solution-group entries of items [start, end).
        """
        sides, k, s = self.sides, self.root, self.side
        t = sides.table
        leaf = t.leaf[s, k:k + 1]
        if sides.lam is None:
            return leaf.tolist(), lambda start, end: [self._leaf()]
        row = sides.stumps(s, k)
        keep = np.flatnonzero(row < np.inf)
        values = np.concatenate((leaf, row[keep]))
        order = np.argsort(values, kind="stable")
        subs = np.concatenate(([-1], keep))[order]      # -1: the leaf
        lefts, rights = t.pred[2 * s, k, subs], t.pred[2 * s + 1, k, subs]
        at = int(order.argmin())                        # the leaf's place
        # under suppression, the subtrees whose leaves share one label
        same = ([p for p in np.flatnonzero(lefts == rights).tolist()
                 if p != at] if sides.suppress else ())
        feats, lefts, rights = (t.idx[subs].tolist(), lefts.tolist(),
                                rights.tolist())

        def make(start, end):
            out = list(map(TreeEntry, feats[start:end], lefts[start:end],
                           rights[start:end]))
            if start <= at < end:
                out[at - start] = self._leaf()
            for p in same:
                if start <= p < end:
                    self._relabel(out[p - start], subs[p])
            return out

        return values[order].tolist(), make

    def _leaf(self):
        """The side's leaf entry; it keeps its tied alternatives for the
        parent pair's suppression filter."""
        counts, k, s = self.sides.counts, self.root, self.side
        t = self.sides.table
        return LeafEntry(t.leaf_pred[s, k].item(), _alternatives(
            counts.dataset, counts.side(t.features[k], bool(s))))

    def _relabel(self, entry, sub):
        """Move a subtree off its shared label to a tied one, as
        ``distinct_leaf_labels`` does; the subtrees without one were left
        out of the list (``SideTable.rejected``)."""
        counts, t, s = self.sides.counts, self.sides.table, self.side
        a, b, c, d = counts.quad(t.features[self.root], t.features[sub])
        neg, pos = (d, c) if s else (b, a)
        ds = counts.dataset
        entry.left, entry.right = distinct_leaf_labels(
            entry.left, _alternatives(ds, neg), entry.right,
            _alternatives(ds, pos))


def generate_depth2(counts, config, depth, features, suppress):
    """Both side lists of every root split of a depth <= 2 subproblem.

    Returns (feature, left, right) per root feature whose sides are both
    non-empty, each side a ``SideList``: its optimum, the least of its leaf
    and its subtrees, read off the view's table now, and its items, a
    sorted table slice, when a search node opens it. The search node
    merges the two lists lazily, so no tree is built here.
    """
    feats = tuple(features)
    if depth < 1 or not feats:
        return []
    t = side_table(counts, feats, depth)
    sides = _Sides(counts, t, config.lam if depth >= 2 else None, suppress)
    optima = t.leaf
    if depth >= 2:
        optima = np.minimum(optima, sides.stumps().min(axis=2))
    roots = np.flatnonzero((t.leaf < np.inf).all(axis=0))
    return [(feats[k], SideList(sides, k, 0, lo), SideList(sides, k, 1, ro))
            for k, lo, ro in zip(roots.tolist(), optima[0, roots].tolist(),
                                 optima[1, roots].tolist())]


def depth2_optimal(counts, config, depth, features):
    """Optimal (value, tree) for a depth<=2 subproblem, straight from counts.

    Array-wide over the view's side table, with the float operations of
    ``best_leaf``: every side's best sub-split and every root's best tree
    at once; no Python loop runs over features or cells. Candidates are
    taken in this order, each replacing the incumbent only when strictly
    better: the leaf; every one-split tree, by root feature; then per root
    feature, the tree whose sides are each the side's leaf unless some
    depth-1 subtree beats it strictly (the lowest such feature among the
    best). "Lowest" is the order in which ``features`` lists them.
    """
    lam = config.lam
    value, prediction = _leaves(counts.dataset, counts.total())
    best_v, best = value.item(), None
    feats = tuple(features)
    if depth < 1 or not feats:
        return best_v, ("leaf", prediction.item())
    t = side_table(counts, feats, depth)
    leaves = t.leaf                                     # (2, K)
    one = leaves[0] + leaves[1] + lam                   # inf: a side is empty
    r = int(one.argmin())
    if one[r] < best_v:
        best_v, best = one[r].item(), (r, -1, -1)
    if depth >= 2:
        roots = np.arange(len(feats))
        subs = t.stump + lam                            # (2, K, K)
        j = subs.argmin(axis=2)                         # first of the best
        sub = subs[[[0], [1]], roots, j]
        better = sub < leaves                           # the leaf wins ties
        sides = np.where(better, sub, leaves)
        two = sides[0] + sides[1] + lam
        r = int(two.argmin())
        if two[r] < best_v:
            picks = np.where(better[:, r], j[:, r], -1).tolist()
            best_v, best = two[r].item(), (r, *picks)
    if best is None:
        return best_v, ("leaf", prediction.item())
    r, left, right = best
    return best_v, ("split", feats[r], _side_tree(t, r, 0, left),
                    _side_tree(t, r, 1, right))


def _side_tree(table, k, s, sub):
    """The tree on side s of root k: its leaf, or the sub-split at sub."""
    if sub < 0:
        return ("leaf", table.leaf_pred[s, k].item())
    return ("split", table.features[sub],
            ("leaf", table.pred[2 * s, k, sub].item()),
            ("leaf", table.pred[2 * s + 1, k, sub].item()))
