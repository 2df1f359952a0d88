"""Objective value arithmetic: leaf costs, branching cost, Rashomon bound.

Value convention: a subtree's value covers its loss plus one lambda per
branching node strictly inside it. Leaves carry no lambda; every combine
adds one; the final tree cost adds one more at the root, so a tree with N
leaves pays exactly N * lambda.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class LeafSolution:
    value: float
    prediction: object
    alternatives: tuple = ()  # value-tied alternative predictions (classification)


def leaf_cost(view, config: ObjectiveConfig) -> LeafSolution:
    """Best single-leaf solution for a view.

    Classification value is the misclassification count divided by the FULL
    dataset size; regression value is the sum of squared errors around the
    view mean.
    """
    ds = view.dataset
    if config.task == "classification":
        if view.size == 0:
            return LeafSolution(0.0, 0)
        counts = [
            (view.members & ds.class_masks[k]).bit_count()
            for k in range(ds.num_classes)
        ]
        best = max(counts)
        winners = [k for k, c in enumerate(counts) if c == best]
        value = (view.size - best) / ds.num_samples
        return LeafSolution(value, winners[0], tuple(winners[1:]))
    if view.size == 0:
        return LeafSolution(0.0, 0.0)
    y = ds.labels[view.member_indices()]
    mean = float(y.mean())
    sse = float(np.sum((y - mean) ** 2))
    return LeafSolution(max(sse, 0.0), mean)


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
