"""Objective value arithmetic: the leaf kernel, branching cost, Rashomon bound.

Every leaf value, label and suppression choice is defined here:
``best_leaf`` for a view's cell, ``distinct_leaf_labels`` for sibling
leaves. The depth-two side table (``depth2``) repeats ``best_leaf``'s float
operations and tie rule array-wide over its cells, and the tests pin the two
to each other. ``trees.evaluate_cost`` re-scores trees independently of
both.

Value convention: a subtree's value covers its loss plus one lambda per
branching node strictly inside it. Leaves carry no lambda; every combine
adds one; the final tree cost adds one more at the root, so a tree with N
leaves pays exactly N * lambda.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DEFAULT_TOLERANCE = {"classification": 1e-9, "regression": 1e-4}


@dataclass
class ObjectiveConfig:
    task: str = "classification"
    lam: float = 0.01
    equality_tolerance: float = field(default=None)

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.equality_tolerance is None:
            self.equality_tolerance = DEFAULT_TOLERANCE[self.task]
        if not 0 < self.equality_tolerance < math.inf:
            raise ValueError("equality tolerance must be finite and > 0")


class LeafSolution(NamedTuple):
    value: float
    prediction: object
    alternatives: tuple = ()  # value-tied alternative predictions (classification)


def view_cell(view) -> np.ndarray:
    """A view's cell: its class counts (int64), or for regression
    ``(n, sum(y - mean), sum((y - mean)^2))`` around the dataset mean."""
    ds = view.dataset
    if ds.task == "classification":
        return np.array([(view.members & mask).bit_count()
                         for mask in ds.class_masks], dtype=np.int64)
    yc = ds.labels[view.member_indices()] - ds.label_mean
    return np.array([yc.size, yc.sum(), (yc * yc).sum()], dtype=np.float64)


def best_leaf(dataset, cell):
    """The leaf kernel: best single leaf for one cell, or None when it is empty.

    Classification value is the misclassification count divided by the FULL
    dataset size; the lowest majority label wins, other majority labels are
    its tied alternatives. Regression value is the SSE ``max(ss - s^2/n, 0)``
    over labels centred on the dataset mean, so it does not cancel at large
    label offsets; the prediction is ``mean + s/n``.
    """
    if dataset.task == "classification":
        counts = cell.tolist()
        size = sum(counts)
        if not size:
            return None
        best = max(counts)
        winners = [k for k, c in enumerate(counts) if c == best]
        return LeafSolution((size - best) / dataset.num_samples, winners[0],
                            tuple(winners[1:]))
    n, s, ss = cell.tolist()
    if not n:
        return None
    return LeafSolution(max(ss - s * s / n, 0.0), dataset.label_mean + s / n)


def leaf_cost(view) -> LeafSolution:
    """The leaf kernel on a view's cell."""
    return best_leaf(view.dataset, view_cell(view))


def distinct_leaf_labels(lpred, lalts, rpred, ralts):
    """Sibling leaf labels under suppression: a shared label moves to the
    left leaf's first tied alternative, else the right's, else None (the
    split is rejected)."""
    if lpred != rpred:
        return lpred, rpred
    if lalts:
        return lalts[0], rpred
    if ralts:
        return lpred, ralts[0]
    return None


def combine(left_value: float, right_value: float, lam: float) -> float:
    """Value of a split given its child subtree values (adds the branching cost)."""
    return left_value + right_value + lam


def total_cost(root_value: float, lam: float) -> float:
    """Full-tree objective from a root subtree value (adds the last leaf's lambda)."""
    return root_value + lam


def rashomon_bound(optimal_total_cost: float, epsilon: float) -> float:
    """Inclusive cutoff theta = (1 + epsilon) * optimum."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if optimal_total_cost < 0:
        raise ValueError("optimal cost must be >= 0")
    return (1.0 + epsilon) * optimal_total_cost


def values_equal(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def value_le(a: float, b: float, tol: float) -> bool:
    """a <= b up to the value-equality tolerance."""
    return a <= b + tol
