"""Optimal sparse tree solver: exact memoized DP over (view, depth) subproblems.

Subproblem optima are memoized under the view's member-set fingerprint, so
each subproblem is solved once. Depth <= 2 dispatches to the frequency-count
fast path. A depth-3 subproblem solves the depth-2 children of all its root
splits in one array pass: their counts come from the parent's
(``depth2.split_counts``, classification) or one count per child
(regression), and their side tables and optima are built stacked
(``depth2.stacked_depth2``). Each child is cached as a solve of its own,
its tree built by ``depth2_optimal`` on first access. The solver takes no
bound; bounds live in the enumerator's search nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import fingerprint, split
from .depth2 import (CellStats, compute_counts, depth2_optimal, sibling_chunks,
                     split_counts, stacked_depth2)
from .objective import leaf_cost


@dataclass
class OptResult:
    value: float
    tree: tuple


class _PassResult(OptResult):
    """A depth-2 child solved in a depth-3 pass: its tree is built by
    ``depth2_optimal`` on its cached side table at first access. It holds
    no reference to the solver, so a dropped solver is freed at once."""

    def __init__(self, value, counts, config, features):
        self.value = value
        self._source = (counts, config, features)

    def __getattr__(self, name):  # only reached while ``tree`` is unset
        if name != "tree":
            raise AttributeError(name)
        counts, config, features = self.__dict__.pop("_source")
        self.tree = depth2_optimal(counts, config, 2, features)[1]
        return self.tree


class OptimalSolver:
    def __init__(self, dataset, config, features=None, use_depth2=True):
        if config.task != dataset.task:
            raise ValueError(f"objective task {config.task!r} does not match "
                             f"the {dataset.task} dataset")
        self.dataset = dataset
        self.config = config
        self.features = list(features) if features is not None else list(
            range(dataset.num_features))
        self.use_depth2 = use_depth2
        self.cache = {}       # key -> OptResult
        self.counts_cache = {}
        self.stats = {"solves": 0, "cache_hits": 0}

    def counts(self, view):
        key = view.members
        hit = self.counts_cache.get(key)
        if hit is None:
            hit = compute_counts(view)
            self.counts_cache[key] = hit
        return hit

    def solve(self, view, depth) -> OptResult:
        """Optimal subtree value for (view, depth); value convention: no root lambda."""
        key = fingerprint(view, depth)
        res = self.cache.get(key)
        if res is not None:
            self.stats["cache_hits"] += 1
            return res
        res = self._solve(view, depth)
        self.cache[key] = res
        return res

    def _solve(self, view, depth):
        self.stats["solves"] += 1
        cfg = self.config
        lam = cfg.lam
        if depth <= 2 and self.use_depth2:
            value, tree = depth2_optimal(self.counts(view), cfg, depth, self.features)
            return OptResult(value, tree)
        leaf = leaf_cost(view)
        best_v, best_t = leaf.value, ("leaf", leaf.prediction)
        if depth == 0:
            return OptResult(best_v, best_t)
        if depth == 3 and self.use_depth2:
            return self._solve_pass(view, leaf)
        for f in self.features:
            if view.feature_is_constant(f):
                continue
            left_view, right_view = split(view, f)
            lres = self.solve(left_view, depth - 1)
            if lres.value + lam >= best_v:
                continue
            rres = self.solve(right_view, depth - 1)
            v = lres.value + rres.value + lam
            if v < best_v:
                best_v, best_t = v, ("split", f, lres.tree, rres.tree)
        return OptResult(best_v, best_t)

    def _solve_pass(self, view, leaf):
        """Depth 3: both depth-2 children of every non-constant root, solved
        stacked in chunks. The leaf stands unless some root's ``(l + r) +
        lam`` is strictly lower; the first such root in ``features`` order
        among the least wins."""
        ds = self.dataset
        roots = [f for f in self.features if not view.feature_is_constant(f)]
        if not roots:
            return OptResult(leaf.value, ("leaf", leaf.prediction))
        classify = ds.task == "classification"
        if classify:    # read here only, so not cached
            parent = (self.counts_cache.get(view.members)
                      or compute_counts(view))
        kids = []                       # left, right per root
        for chunk in sibling_chunks(ds, roots, self.features):
            views = [side for f in chunk for side in split(view, f)]
            if classify:
                q = [a.reshape(-1, *a.shape[2:])
                     for a in split_counts(view, parent, chunk)]
            else:
                stats = [self.counts(v) for v in views]
                q = [np.stack([getattr(c, name) for c in stats])
                     for name in ("q0", "q1", "q2")]
            tables, values = stacked_depth2(ds, *q, self.config,
                                            self.features)
            kids += [self._child(v, values[s], [a[s] for a in q], tables[s])
                     for s, v in enumerate(views)]
        lefts, rights = (np.array([k.value for k in kids[s::2]])
                         for s in (0, 1))
        two = lefts + rights + self.config.lam
        r = int(two.argmin())
        if not two[r] < leaf.value:
            return OptResult(leaf.value, ("leaf", leaf.prediction))
        return OptResult(two[r].item(), ("split", roots[r], kids[2 * r].tree,
                                         kids[2 * r + 1].tree))

    def _child(self, view, value, q, table):
        """One child of a depth-3 pass as a depth-2 solve: a cached result
        stands; otherwise it is cached, and so are its counts (a cached
        ``CellStats`` is kept) with the pass's side table."""
        key = fingerprint(view, 2)
        res = self.cache.get(key)
        if res is not None:
            self.stats["cache_hits"] += 1
            return res
        self.stats["solves"] += 1
        counts = self.counts_cache.get(view.members)
        if counts is None:
            counts = self.counts_cache[view.members] = CellStats(*q, self.dataset)
        counts.table = table
        res = self.cache[key] = _PassResult(value.item(), counts,
                                            self.config, self.features)
        return res
