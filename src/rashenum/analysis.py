"""Analyses derived from enumerations: minimum multiplier and LOFO importance.

Each analysis is one pass over one enumeration stream. The minimum
multiplier is the smallest epsilon whose Rashomon bound admits a target
number of trees; every target is read off the cumulative counts of one
stream. LOFO (leave-one-feature-out) importance scores a feature by how
much the sorted objective curve's area grows when the feature is banned
from splits; each curve counts the trees of the baseline stream that never
split on the feature.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import DEFAULT_EPSILON, RashomonEnumeration
from .groups import count_trees


@dataclass
class RashomonCurve:
    """Sorted per-rank total costs of an enumerated set, padded to a fixed length."""

    costs: list          # cost at each tree rank, non-decreasing
    theta: float
    padded_length: int

    def area(self) -> float:
        return float(sum(self.costs))


@dataclass
class MultiplierResult:
    epsilon: float       # None when the optimal cost is 0 (any epsilon ties)
    achieved_count: int  # may overshoot the target via final-group ties
    optimal_total: float
    last_total: float


def find_min_multipliers(dataset, depth, lam, targets, **enum_kwargs):
    """Smallest epsilon whose Rashomon set holds at least each target count.

    One enumeration, capped at the largest target, serves every target: the
    stream does not depend on its cap, so each target is read off the
    cumulative counts of its prefix. Results come in the order of targets.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must not be empty")
    if min(targets) < 1:
        raise ValueError("target_count must be >= 1")
    enum = RashomonEnumeration(dataset, depth, lam=lam, epsilon=DEFAULT_EPSILON,
                               max_trees=max(targets), **enum_kwargs)
    emitted = list(enum.groups())
    results = []
    for target in targets:
        last = next((em for em in emitted if em.cumulative >= target),
                    emitted[-1])
        epsilon = None
        if enum.optimal_total != 0:
            epsilon = max(last.total_cost / enum.optimal_total - 1.0, 0.0)
        results.append(MultiplierResult(epsilon, last.cumulative,
                                        enum.optimal_total, last.total_cost))
    return results


def find_min_multiplier(dataset, depth, lam, target_count, **enum_kwargs):
    """Smallest epsilon whose Rashomon set holds at least target_count trees.

    Grouped emission may overshoot the target; the achieved count is
    reported alongside. Undefined (epsilon None) when the optimum costs 0.
    """
    return find_min_multipliers(dataset, depth, lam, [target_count],
                                **enum_kwargs)[0]


@dataclass
class LofoResult:
    baseline: RashomonCurve
    curves: dict          # feature -> RashomonCurve (feature excluded)
    scores: dict          # feature -> area increase (>= 0: curves are subsets)

    def ranking(self):
        """Features from most to least important (score desc, index asc)."""
        return sorted(self.scores, key=lambda f: (-self.scores[f], f))


def _curve(emitted, avoid, length, theta) -> RashomonCurve:
    """Costs of the first length trees of emitted that never split on avoid,
    clamped to theta and padded with it."""
    costs = []
    for em in emitted:
        take = min(count_trees(em.group, avoid), length - len(costs))
        costs.extend([min(em.total_cost, theta)] * take)
    costs.extend([theta] * (length - len(costs)))
    return RashomonCurve(costs, theta, length)


def lofo_importance(dataset, depth, lam, set_size, features=None,
                    **enum_kwargs) -> LofoResult:
    """Leave-one-feature-out importance over the top set_size trees.

    Baseline: enumerate the set_size best trees; theta_base is the last
    tree's cost. Groups come in order and the last one costs theta_base, so
    the set with feature f excluded under theta_base is the trees of that
    same stream that never split on f. Each curve is read off the stream by
    counting them, and padded at theta_base to the baseline length.
    Score = area(curve without feature) - area(baseline), unit rank spacing.
    """
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    features = list(range(dataset.num_features) if features is None
                    else features)
    for f in features:
        if not 0 <= f < dataset.num_features:
            raise IndexError(f"feature index {f} out of range")
    enum = RashomonEnumeration(dataset, depth, lam=lam,
                               epsilon=DEFAULT_EPSILON,
                               max_trees=set_size, **enum_kwargs)
    emitted = list(enum.groups())
    theta_base = emitted[-1].total_cost
    length = min(set_size, emitted[-1].cumulative)
    baseline = _curve(emitted, None, length, theta_base)
    curves = {f: _curve(emitted, f, length, theta_base) for f in features}
    scores = {f: curve.area() - baseline.area() for f, curve in curves.items()}
    return LofoResult(baseline, curves, scores)
