"""Independent brute-force reference implementations for the test suite.

Everything here is written from first principles against the objective
definition (loss plus a per-leaf penalty) and deliberately shares no logic
with the package's solver or enumeration engine: trees are enumerated by
plain exhaustive recursion over sample subsets. The exceptions are
``reference_depth2_optimal`` and ``reference_side_lists``: the scalar sweep
that ``depth2_optimal`` and ``generate_depth2`` once were, one
``best_leaf`` call per cell, kept to pin the array-wide side table's
floats, order and tie rule exactly; and ``reference_solve``, the solver's
former recursion, one split and one count table per child, kept to pin the
depth-3 sibling pass.
"""
from __future__ import annotations

from operator import itemgetter

import numpy as np

from rashenum.dataset import DataView
from rashenum.depth2 import compute_counts
from rashenum.objective import (LeafSolution, best_leaf, distinct_leaf_labels,
                                view_cell)


def _subset_indices(dataset, members):
    return [i for i in range(dataset.num_samples) if (members >> i) & 1]


def _leaf_solution(dataset, members):
    """(loss, prediction, tied alternative predictions) for one subset."""
    idx = _subset_indices(dataset, members)
    if dataset.task == "classification":
        if not idx:
            return 0.0, 0, ()
        counts = [0] * dataset.num_classes
        for i in idx:
            counts[int(dataset.labels[i])] += 1
        best = max(counts)
        winners = [k for k, c in enumerate(counts) if c == best]
        loss = (len(idx) - best) / dataset.num_samples
        return loss, winners[0], tuple(winners[1:])
    if not idx:
        return 0.0, 0.0, ()
    y = dataset.labels[idx]
    mean = float(y.mean())
    return float(np.sum((y - mean) ** 2)), mean, ()


def _split_members(dataset, members, feature):
    col = dataset.columns[feature]
    right = members & col
    return members & ~right, right


def oracle_structures(dataset, depth, suppress, features=None):
    """All trees on the full dataset within a depth budget.

    Returns a list of (loss, num_leaves, tree). Splits must separate the
    subset (no empty side); each structure carries its canonical labeling
    (lowest tied class); with suppress, same-prediction leaf pairs are
    relabeled (left leaf first, lowest tied alternative) or dropped.
    """
    if features is None:
        features = range(dataset.num_features)
    features = list(features)
    memo = {}

    def rec(members, d):
        key = (members, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        loss, pred, alts = _leaf_solution(dataset, members)
        out = [(loss, 1, ("leaf", pred), alts)]
        if d > 0:
            for f in features:
                left, right = _split_members(dataset, members, f)
                if left == 0 or right == 0:
                    continue
                for lloss, lleaves, ltree, lalts in rec(left, d - 1):
                    for rloss, rleaves, rtree, ralts in rec(right, d - 1):
                        lt, rt = ltree, rtree
                        if (suppress and lt[0] == "leaf" and rt[0] == "leaf"
                                and lt[1] == rt[1]):
                            if lalts:
                                lt = ("leaf", lalts[0])
                            elif ralts:
                                rt = ("leaf", ralts[0])
                            else:
                                continue
                        out.append((lloss + rloss, lleaves + rleaves,
                                    ("split", f, lt, rt), ()))
        memo[key] = out
        return out

    full = (1 << dataset.num_samples) - 1
    return [(loss, leaves, tree) for loss, leaves, tree, _ in rec(full, depth)]


def oracle_rashomon(structures, lam, epsilon, normalize_by=1):
    """Sorted [(total cost, tree)] of the Rashomon set from a structure list."""
    costed = [(loss + lam * leaves, tree) for loss, leaves, tree in structures]
    optimum = min(c for c, _ in costed)
    theta = (1.0 + epsilon) * optimum
    kept = [(c, t) for c, t in costed if c <= theta + 1e-12]
    kept.sort(key=lambda ct: ct[0])
    return kept, optimum, theta


def oracle_structure_count(dataset, depth, features=None) -> int:
    """Number of tree structures (non-separating splits excluded), exact.

    Independent of the solution-group DAG: a direct big-integer recursion
    count(S, d) = 1 + sum over separating features of count(L) * count(R).
    """
    if features is None:
        features = range(dataset.num_features)
    features = list(features)
    memo = {}

    def rec(members, d):
        key = (members, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 1
        if d > 0:
            for f in features:
                left, right = _split_members(dataset, members, f)
                if left == 0 or right == 0:
                    continue
                total += rec(left, d - 1) * rec(right, d - 1)
        memo[key] = total
        return total

    return rec((1 << dataset.num_samples) - 1, depth)


def oracle_tree_cost(dataset, tree, lam) -> float:
    """Direct objective of one tree: loss over the dataset plus lam per leaf."""

    def rec(members, t):
        if t[0] == "leaf":
            idx = _subset_indices(dataset, members)
            if dataset.task == "classification":
                mis = sum(1 for i in idx if int(dataset.labels[i]) != t[1])
                return mis / dataset.num_samples, 1
            if not idx:
                return 0.0, 1
            y = dataset.labels[idx]
            return float(np.sum((y - t[1]) ** 2)), 1
        left, right = _split_members(dataset, members, t[1])
        ll, nl = rec(left, t[2])
        rl, nr = rec(right, t[3])
        return ll + rl, nl + nr

    loss, leaves = rec((1 << dataset.num_samples) - 1, tree)
    return loss + lam * leaves


def oracle_pareto(points):
    """Quadratic-time non-dominated filter over (coordinates, payload)."""

    def dominates(a, b):
        return (all(x <= y for x, y in zip(a, b))
                and any(x < y for x, y in zip(a, b)))

    front = []
    seen = set()
    for coords, payload in points:
        coords = tuple(coords)
        if coords in seen:
            continue
        if any(dominates(other, coords)
               for other, _ in points if tuple(other) != coords):
            continue
        seen.add(coords)
        front.append((coords, payload))
    return sorted(front, key=lambda cp: cp[0])


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
    """Depth-1 subtrees under each side of root i, in ``features`` order:
    (lefts, rights), lists of ``_stump`` tuples. Each sub-split costs one
    quad lookup and two leaf-kernel calls; degenerate ones are left out."""
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


def side_tree(item):
    """The tree of one side-list item: a LeafSolution or a _stump tuple."""
    if isinstance(item, LeafSolution):
        return ("leaf", item.prediction)
    return ("split", item[1], ("leaf", item[2]), ("leaf", item[3]))


def reference_side_lists(counts, config, depth, features, suppress):
    """``generate_depth2`` as a scalar sweep: (feature, lefts, rights) per
    root feature whose sides are both non-empty, each side list sorted
    stably by value (the side's ``LeafSolution`` first, then ``_stump``
    tuples in ``features`` order, among equal values)."""
    if depth < 1:
        return []
    out = []
    for i, lsol, rsol in _roots(counts, features):
        lefts, rights = (_subtrees(counts, config.lam, features, i, suppress)
                         if depth >= 2 else ((), ()))
        out.append((i, sorted([lsol, *lefts], key=itemgetter(0)),
                    sorted([rsol, *rights], key=itemgetter(0))))
    return out


def reference_depth2_optimal(counts, config, depth, features):
    """``depth2_optimal`` as a scalar sweep: one ``best_leaf`` call per cell.

    Candidates in order, each replacing the incumbent only when strictly
    better: the leaf; every one-split tree by root feature; then per root
    feature, each side's leaf unless a depth-1 subtree beats it strictly.
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


def reference_solve(dataset, config, depth, features):
    """Optimal (value, tree) of the full view by the solver's former
    recursion: a depth <= 2 subproblem is ``reference_depth2_optimal`` on
    its own count table; a deeper one keeps its leaf unless some split on a
    non-constant feature, tried in ``features`` order, has a strictly lower
    ``(l + r) + lam``, skipping the right child where ``l + lam`` cannot
    beat the incumbent."""
    lam = config.lam
    memo = {}

    def rec(members, d):
        key = (members, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        view = DataView(dataset, members)
        if d <= 2:
            out = reference_depth2_optimal(compute_counts(view), config, d,
                                           features)
        else:
            leaf = best_leaf(dataset, view_cell(view))
            best_v, best_t = leaf.value, ("leaf", leaf.prediction)
            for f in features:
                left, right = _split_members(dataset, members, f)
                if not left or not right:
                    continue
                lv, lt = rec(left, d - 1)
                if lv + lam >= best_v:
                    continue
                rv, rt = rec(right, d - 1)
                if lv + rv + lam < best_v:
                    best_v, best_t = lv + rv + lam, ("split", f, lt, rt)
            out = best_v, best_t
        memo[key] = out
        return out

    return rec(dataset.full_mask, depth)
