"""Depth-two fast path: frequency counts, the side table, the optimum.

Single and pairwise cell statistics (``CellStats``, one channel layout for
both tasks, after the depth-two solver of MurTree) are precomputed once per
subproblem; every depth <= 1 solution under a root split then follows from
cell lookups, without recursive dataset splitting. Classification counts
are popcounts over the dataset's packed columns and class masks, as in
DL8.5; regression sums are float products. The children of a depth-three
subproblem are counted in one pass from their parent (``split_counts``):
each right child's pairs by popcount, the rest read off the parent.

The side table (``SideTable``, cached on the ``CellStats``) holds every
depth <= 1 solution array-wide: the leaf value and prediction of every root
side, and the value and two leaf predictions of every (side, root,
sub-split) stump, with the floats and the tie rule of the scalar leaf
kernel ``objective.best_leaf``. Tables and optima are built for a stack of
sibling views at once (``stacked_depth2``); one view is a stack of one. The
optimum (``depth2_optimal``) and the search node's side lists
(``generate_depth2``) both read the table; a side list is a sorted slice of
it, built when a search node first opens the side. A depth <= 2 tree is one
(root, left side, right side) combination, each side a leaf or a depth-1
subtree, so no tree is emitted twice.
"""
from __future__ import annotations

import numpy as np

from .groups import LeafEntry, TreeEntry
from .objective import LeafSolution, distinct_leaf_labels

# bytes of transient arrays one counting or table pass may hold at once
_BUDGET = 2 << 20


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


def _popcount(words):
    """The set bits of every (..., W) word row, as int64. (``einsum`` sums
    the uint8 bit counts into int64 faster than ``sum(dtype=...)`` does.)"""
    return np.einsum("...w->...", np.bitwise_count(words), dtype=np.int64)


def _pair_counts(rows, cols):
    """(..., F) int64: the set bits of ``rows[...] & cols[f]`` for (..., W)
    rows and (F, W) columns. Rows go in chunks, so the (rows, F, W)
    temporary stays within the byte budget."""
    flat = rows.reshape(-1, rows.shape[-1])
    out = np.empty((len(flat), len(cols)), dtype=np.int64)
    step = max(1, _BUDGET // (9 * cols.size))
    for start in range(0, len(flat), step):
        out[start:start + step] = _popcount(flat[start:start + step, None]
                                            & cols)
    return out.reshape(rows.shape[:-1] + (len(cols),))


def compute_counts(view, config=None):
    """Cell statistics of a view; ``config`` is not read (the task is the
    dataset's).

    Classification counts are popcounts of the view's members of each class
    and the packed feature columns: exact integers at any size.
    """
    ds = view.dataset
    if ds.task == "classification":  # channel k: the members of class k
        rows = ds.class_words & view.member_words()         # (C, W)
        pairs = rows[:, None] & ds.words                    # (C, F, W)
        return CellStats(_popcount(rows), _popcount(pairs),
                         _pair_counts(pairs, ds.words), ds)
    idx = view.member_indices()
    yc = ds.labels[idx] - ds.label_mean   # channels 1, yc, yc^2 per sample
    W = np.stack((np.ones_like(yc), yc, yc * yc))
    Xf = ds.X[idx].astype(np.float64)
    q2 = np.stack([Xf.T @ (Xf * w[:, None]) for w in W])
    return CellStats(W.sum(axis=1), W @ Xf, q2, ds)


def split_counts(view, counts, roots):
    """The count arrays (q0, q1, q2) of both children of a classification
    view on each feature in ``roots``, stacked (root, side, ...) in
    ``CellStats`` layout: side 0 is the left child (feature unsatisfied),
    side 1 the right.

    A right child's pairs are popcounts of the view's class members on the
    root column; its singles and size are the parent's pairs and singles on
    the root. The left child is the parent minus the right, exact in
    integers.
    """
    ds = view.dataset
    roots = np.asarray(roots, dtype=np.intp)
    rows = ((ds.class_words & view.member_words())[None]
            & ds.words[roots, None])                        # (K, C, W)
    right = (counts.q1[:, roots].T, counts.q2[:, roots].swapaxes(0, 1),
             _pair_counts(rows[:, :, None] & ds.words, ds.words))
    return tuple(np.stack((whole - part, part), axis=1)
                 for whole, part in zip((counts.q0, counts.q1, counts.q2),
                                        right))


def sibling_chunks(ds, roots, features):
    """``roots`` in runs whose children's transient arrays fit the byte
    budget together. Per root: two children's table builds (their cells and
    the leaf kernel's temporaries, some C + 8 arrays of (4, K, K)), three
    stacked copies of their pair counts, and the right child's (C, F, W)
    packed pair rows."""
    c = ds.num_classes if ds.task == "classification" else 3
    k, f, w = len(features), ds.num_features, (ds.num_samples + 63) // 64
    per_root = 8 * (2 * (c + 8) * 4 * k * k + 6 * c * f * f + c * f * w)
    step = max(1, _BUDGET // per_root)
    return [roots[i:i + step] for i in range(0, len(roots), step)]


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


def _stump_cells(q0, q1, q2, idx):
    """(C, S, 4, K, K): for a stack of S views, the (neg, pos) cells of
    sub-split j under root i's left side, then its right side, for i and j
    in ``idx``."""
    fi = q1[:, :, idx].swapaxes(0, 1)                       # (C, S, K)
    fi, fj = fi[..., :, None], fi[..., None, :]
    fij = q2[:, :, idx[:, None], idx].swapaxes(0, 1)        # (C, S, K, K)
    q0 = q0.T[..., None, None]
    return np.stack((q0 - fi - fj + fij, fj - fij, fi - fij, fij), axis=2)


def _side_arrays(ds, q0, q1, q2, idx, stumps):
    """The side-table arrays of a stack of views, each with a leading stack
    axis: ``leaf`` and ``leaf_pred`` (S, 2, K), then, with ``stumps``,
    ``stump`` (S, 2, K, K) and ``pred`` (S, 4, K, K), else None twice."""
    fi = q1[:, :, idx].swapaxes(0, 1)                       # (C, S, K)
    leaf, leaf_pred = _leaves(ds, np.stack((q0.T[..., None] - fi, fi),
                                           axis=2))
    if not stumps:
        return leaf, leaf_pred, None, None
    vals, pred = _leaves(ds, _stump_cells(q0, q1, q2, idx))
    stump = vals[:, 0::2] + vals[:, 1::2]
    roots = np.arange(len(idx))
    stump[:, :, roots, roots] = np.inf                      # j == i
    return leaf, leaf_pred, stump, pred


class SideTable:
    """Every depth <= 1 solution on either side of every root split of one
    view, over one feature list, as arrays indexed (side, root[, sub-split]).

    Side 0 is a root's left side (feature unsatisfied), side 1 its right;
    roots and sub-splits are positions in ``features``. A table built for
    depth 1 has no stump arrays. A stump's value leaves out lambda:
    ``neg + pos``, so adding lambda gives the scalar ``neg + pos + lambda``
    bit for bit. It is ``inf`` where the sub-split is the root or leaves a
    cell empty.
    """

    def __init__(self, features, leaf, leaf_pred, stump, pred):
        self.features = features
        self.idx = np.array(features, dtype=np.intp)
        self.leaf = leaf            # (2, K)
        self.leaf_pred = leaf_pred  # (2, K)
        self.stump = stump          # (2, K, K) values without lambda, or None
        self.pred = pred            # (4, K, K) neg, pos prediction per side
        self._rejected = None

    def rejected(self, counts):
        """(2, K, K): the stumps suppression rejects, whose two leaves share
        one label and neither has a tied label to move to (cached)."""
        if self._rejected is None:
            same = self.pred[0::2] == self.pred[1::2]
            if counts.dataset.task == "classification":
                cells = _stump_cells(counts.q0[None], counts.q1[None],
                                     counts.q2[None], self.idx)[:, 0]
                tied = (cells == cells.max(axis=0)).sum(axis=0) > 1
                same &= ~(tied[0::2] | tied[1::2])
            self._rejected = same
        return self._rejected


def _optima(leaf_value, leaf, stump, lam):
    """The depth <= 2 optimum of every view of a stack: (value, root, left
    pick, right pick) arrays, with root -1 where the view's leaf wins and a
    pick -1 where a side keeps its leaf, else the sub-split's position.

    Inputs: the views' leaf values (S,), their tables' ``leaf`` (S, 2, K)
    and ``stump`` (S, 2, K, K), or None for depth 1. Candidates are taken in
    this order, each replacing the incumbent only when strictly better: the
    leaf; every one-split tree, by root; then per root, the tree whose sides
    are each the side's leaf unless some depth-1 subtree beats it strictly
    (the lowest such sub-split among the best).
    """
    views = np.arange(len(leaf_value))
    one = leaf[:, 0] + leaf[:, 1] + lam             # inf: a side is empty
    root = one.argmin(axis=1)
    best = one[views, root]
    win = best < leaf_value
    value = np.where(win, best, leaf_value)
    root = np.where(win, root, -1)
    picks = np.full((len(views), 2), -1)
    if stump is not None:
        subs = stump + lam
        j = subs.argmin(axis=3)                     # first of the best
        rows = subs.reshape(-1, subs.shape[3])
        sub = rows[np.arange(len(rows)), j.ravel()].reshape(j.shape)
        better = sub < leaf                         # the leaf wins ties
        sides = np.where(better, sub, leaf)
        two = sides[:, 0] + sides[:, 1] + lam
        r = two.argmin(axis=1)
        best = two[views, r]
        win = best < value
        value = np.where(win, best, value)
        root = np.where(win, r, root)
        picks[win] = np.where(better[views, :, r], j[views, :, r], -1)[win]
    return value, root, picks


def stacked_depth2(ds, q0, q1, q2, config, features):
    """Depth-2 side tables and optimal values of a stack of sibling views,
    given their count arrays in ``CellStats`` layout behind a leading stack
    axis: (one ``SideTable`` per view, values (S,)). Each table's arrays are
    its slice of the stack's."""
    feats = tuple(features)
    arrays = _side_arrays(ds, q0, q1, q2, np.array(feats, dtype=np.intp),
                          True)
    tables = [SideTable(feats, *(a[s] for a in arrays))
              for s in range(len(q0))]
    value = _optima(_leaves(ds, q0.T)[0], arrays[0], arrays[2], config.lam)[0]
    return tables, value


def side_table(counts, features, depth):
    """The view's ``SideTable`` over ``features`` (a tuple), with its stumps
    when ``depth`` >= 2: a stack of one, built on first use and cached on
    ``counts``."""
    table = counts.table
    if (table is None or table.features != features
            or (depth >= 2 and table.stump is None)):
        arrays = _side_arrays(counts.dataset, counts.q0[None],
                              counts.q1[None], counts.q2[None],
                              np.array(features, dtype=np.intp), depth >= 2)
        table = counts.table = SideTable(features, *(
            None if a is None else a[0] for a in arrays))
    return table


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

    The optimum of a stack of one (``_optima``) over the view's side table,
    with the float operations of ``best_leaf``: no Python loop runs over
    features or cells. Ties keep the earlier candidate: the leaf; every
    one-split tree, by root feature; then per root feature, the tree whose
    sides are each the side's leaf unless some depth-1 subtree beats it
    strictly (the lowest feature among the best). "Lowest" is the order in
    which ``features`` lists them.
    """
    value, prediction = _leaves(counts.dataset, counts.total())
    feats = tuple(features)
    if depth < 1 or not feats:
        return value.item(), ("leaf", prediction.item())
    t = side_table(counts, feats, depth)
    best, root, picks = _optima(value[None], t.leaf[None],
                                t.stump[None] if depth >= 2 else None,
                                config.lam)
    r = root.item()
    if r < 0:
        return best.item(), ("leaf", prediction.item())
    left, right = picks[0].tolist()
    return best.item(), ("split", feats[r], _side_tree(t, r, 0, left),
                         _side_tree(t, r, 1, right))


def _side_tree(table, k, s, sub):
    """The tree on side s of root k: its leaf, or the sub-split at sub."""
    if sub < 0:
        return ("leaf", table.leaf_pred[s, k].item())
    return ("split", table.features[sub],
            ("leaf", table.pred[2 * s, k, sub].item()),
            ("leaf", table.pred[2 * s + 1, k, sub].item()))
