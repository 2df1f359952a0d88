"""Optimal sparse tree solver: exact memoized DP over (view, depth) subproblems.

Subproblem optima are memoized under the view's member-set fingerprint, so
each subproblem is solved once. Depth <= 2 dispatches to the frequency-count
fast path. The solver takes no bound; bounds live in the enumerator's search
nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dataset import fingerprint, split
from .depth2 import compute_counts, depth2_optimal
from .objective import leaf_cost


@dataclass
class OptResult:
    value: float
    tree: tuple


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
