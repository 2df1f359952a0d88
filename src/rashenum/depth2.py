"""Depth-two fast path: frequency counts and 0/1/2/3-branching-node solutions.

Single and pairwise cell statistics are precomputed once per subproblem;
every depth-two tree's value then follows from cell lookups, without
recursive dataset splitting. One kernel, ``_subtrees``, computes the depth-1
subtrees under both sides of a root split, each sub-split once; the optimum
(``depth2_optimal``) and every generation round (``generate_depth2``) read
its lists. A tree is one (root, left side, right side) combination, each
side a leaf or a depth-1 subtree, so no tree is emitted twice.
"""
from __future__ import annotations

from operator import itemgetter

import numpy as np

from .objective import value_le


class ClassCounts:
    """Per-class single and pairwise feature counts within a view."""

    def __init__(self, q0, q1, q2, full_size):
        self.q0 = q0      # (K,)
        self.q1 = q1      # (K, F)
        self.q2 = q2      # (K, F, F)
        self.full_size = full_size
        self.task = "classification"

    def total(self):
        return self.q0

    def side(self, i, satisfied):
        return self.q1[:, i] if satisfied else self.q0 - self.q1[:, i]

    def quad(self, i, j):
        """Cells ((~i, j), (~i, ~j), (i, j), (i, ~j)) as class-count vectors."""
        fi_fj = self.q2[:, i, j]
        fi = self.q1[:, i]
        fj = self.q1[:, j]
        return (fj - fi_fj, self.q0 - fi - fj + fi_fj, fi_fj, fi - fi_fj)


class RegStats:
    """(count, sum, sum of squares) cell statistics for regression."""

    def __init__(self, n0, s0, ss0, n1, s1, ss1, n2, s2, ss2):
        self.n0, self.s0, self.ss0 = n0, s0, ss0
        self.n1, self.s1, self.ss1 = n1, s1, ss1
        self.n2, self.s2, self.ss2 = n2, s2, ss2
        self.task = "regression"

    def total(self):
        return (self.n0, self.s0, self.ss0)

    def side(self, i, satisfied):
        if satisfied:
            return (self.n1[i], self.s1[i], self.ss1[i])
        return (self.n0 - self.n1[i], self.s0 - self.s1[i], self.ss0 - self.ss1[i])

    def quad(self, i, j):
        nij, sij, ssij = self.n2[i, j], self.s2[i, j], self.ss2[i, j]
        a = (self.n1[j] - nij, self.s1[j] - sij, self.ss1[j] - ssij)
        b = (self.n0 - self.n1[i] - self.n1[j] + nij,
             self.s0 - self.s1[i] - self.s1[j] + sij,
             self.ss0 - self.ss1[i] - self.ss1[j] + ssij)
        c = (nij, sij, ssij)
        d = (self.n1[i] - nij, self.s1[i] - sij, self.ss1[i] - ssij)
        return a, b, c, d


def compute_counts(view, config):
    """Exact cell statistics for a view (classification counts or regression sums)."""
    ds = view.dataset
    idx = view.member_indices()
    X = ds.X[idx]
    if config.task == "classification":
        y = ds.labels[idx]
        K, F = ds.num_classes, ds.num_features
        q0 = np.zeros(K, dtype=np.int64)
        q1 = np.zeros((K, F), dtype=np.int64)
        q2 = np.zeros((K, F, F), dtype=np.int64)
        for k in range(K):
            Mk = X[y == k].astype(np.int64)
            q0[k] = Mk.shape[0]
            if Mk.shape[0]:
                q1[k] = Mk.sum(axis=0)
                q2[k] = Mk.T @ Mk
        return ClassCounts(q0, q1, q2, ds.num_samples)
    y = ds.labels[idx].astype(np.float64)
    Xf = X.astype(np.float64)
    Xi = X.astype(np.int64)
    n0 = int(X.shape[0])
    s0, ss0 = float(y.sum()), float((y * y).sum())
    n1 = Xi.sum(axis=0)
    s1 = Xf.T @ y
    ss1 = Xf.T @ (y * y)
    n2 = Xi.T @ Xi
    s2 = Xf.T @ (Xf * y[:, None])
    ss2 = Xf.T @ (Xf * (y * y)[:, None])
    return RegStats(n0, s0, ss0, n1, s1, ss1, n2, s2, ss2)


def cell_size(counts, cell) -> int:
    if counts.task == "classification":
        return int(cell.sum())
    return int(cell[0])


def cell_leaf(counts, cell):
    """Best leaf for a cell: (value, prediction, tied alternative predictions)."""
    if counts.task == "classification":
        tot = int(cell.sum())
        best = int(cell.max())
        winners = [k for k in range(len(cell)) if cell[k] == best]
        return (tot - best) / counts.full_size, winners[0], tuple(winners[1:])
    n, s, ss = cell
    if n == 0:
        return 0.0, 0.0, ()
    mean = float(s) / n
    return max(float(ss) - float(s) * float(s) / n, 0.0), mean, ()


def _stump(lam, suppress, feature, lsol, rsol):
    """Depth-1 split from its two leaf solutions: (value, feature, left
    prediction, right prediction), or None when suppression rejects it.

    Under suppression a leaf pair sharing a label is relabeled to a tied
    alternative (left first) or, lacking one, rejected.
    """
    pl, pr = lsol[1], rsol[1]
    if suppress and pl == pr:
        if lsol[2]:
            pl = lsol[2][0]
        elif rsol[2]:
            pr = rsol[2][0]
        else:
            return None
    return lsol[0] + rsol[0] + lam, feature, pl, pr


def _stump_tree(stump):
    return ("split", stump[1], ("leaf", stump[2]), ("leaf", stump[3]))


def _roots(counts, features):
    """(feature, left leaf, right leaf) per feature whose sides are non-empty."""
    roots = []
    for i in features:
        neg, pos = counts.side(i, False), counts.side(i, True)
        if cell_size(counts, neg) and cell_size(counts, pos):
            roots.append((i, cell_leaf(counts, neg), cell_leaf(counts, pos)))
    return roots


def _subtrees(counts, lam, features, i, suppress):
    """Depth-1 subtrees under each side of root i, in ascending feature order.

    Returns (lefts, rights), lists of _stump tuples. Each sub-split costs one
    quad lookup and two cell_leaf calls; degenerate ones are left out.
    """
    lefts, rights = [], []
    for j in features:
        if j == i:
            continue
        a, b, c, d = counts.quad(i, j)
        for out, neg, pos in ((lefts, b, a), (rights, d, c)):  # j false left
            if cell_size(counts, neg) and cell_size(counts, pos):
                sub = _stump(lam, suppress, j, cell_leaf(counts, neg),
                             cell_leaf(counts, pos))
                if sub is not None:
                    out.append(sub)
    return lefts, rights


def generate_depth2(counts, config, depth, features, lo, hi, suppress):
    """All depth<=2 trees with value in (lo, hi]; lo None means unbounded below.

    Returns a list of (value, order_key, entry) where entry is a LeafEntry
    or TreeEntry; order_key makes emission deterministic. A split tree pairs
    a left and a right side, each its leaf or a depth-1 subtree; each side's
    tree is built once and shared by every tree using it.
    """
    from .groups import LeafEntry, TreeEntry

    lam = config.lam
    tol = config.equality_tolerance

    def in_range(v):
        return (lo is None or v > lo + tol) and value_le(v, hi, tol)

    def sides(sol, subs):
        """(value, feature or -1 for the leaf, tree) of one side, ascending;
        no tree above the bound can use a subtree above it."""
        return sorted([(sol[0], -1, ("leaf", sol[1]))]
                      + [(s[0], s[1], _stump_tree(s)) for s in subs
                         if value_le(s[0], hi, tol)])

    items = []
    v0, p0, a0 = cell_leaf(counts, counts.total())
    if in_range(v0):
        items.append((v0, (v0, 0, -1, -1, -1), LeafEntry(p0, a0)))
    if depth < 1:
        return items

    for i, lsol, rsol in _roots(counts, features):
        subs = (_subtrees(counts, lam, features, i, suppress) if depth >= 2
                else ((), ()))
        lefts, rights = sides(lsol, subs[0]), sides(rsol, subs[1])
        for lv, jl, ltree in lefts:
            for rv, jr, rtree in rights:
                v = lv + rv + lam
                if not value_le(v, hi, tol):
                    break  # rights ascending: no later combination can fit
                if not in_range(v):
                    continue
                tree = ("split", i, ltree, rtree)
                if jl == jr == -1:  # one split: suppression relabels or drops
                    stump = _stump(lam, suppress, i, lsol, rsol)
                    if stump is None:
                        continue
                    tree = _stump_tree(stump)
                items.append((v, (v, 1 + (jl >= 0) + (jr >= 0), i, jl, jr),
                              TreeEntry(tree)))
    return items


def depth2_optimal(counts, config, depth, features):
    """Optimal (value, tree) for a depth<=2 subproblem, straight from counts.

    Candidates are taken in this order, each replacing the incumbent only
    when strictly better: the leaf; every one-split tree, by root feature;
    then per root feature, the tree whose sides are each the side's leaf
    unless some depth-1 subtree beats it strictly (the lowest such feature
    among the best).
    """
    lam = config.lam
    v0, p0, _ = cell_leaf(counts, counts.total())
    best_v, best = v0, None
    roots = _roots(counts, features) if depth >= 1 else []
    for i, lsol, rsol in roots:
        v = lsol[0] + rsol[0] + lam
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

    def side_tree(s):  # a cell_leaf solution or a _stump tuple
        return ("leaf", s[1]) if len(s) == 3 else _stump_tree(s)

    i, left, right = best
    return best_v, ("split", i, side_tree(left), side_tree(right))
