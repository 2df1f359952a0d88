"""Post-hoc secondary objectives over an enumerated Rashomon set.

A secondary objective is separable: a per-leaf statistic tuple plus an
associative combine step, finalized into objective coordinates. Evaluation
walks the emitted solution-group DAG bottom-up, deduplicating statistic
tuples per group. A pair combines each distinct record of its left group
with each of its right group's, never more steps than the pair has trees,
so the cost follows the number of distinct statistics, not of trees, and no
group is walked tree by tree; a depth-two side group, whose trees are its
leaf and one-split subtrees, is read through ``iter_trees``. A pair's
groups are evaluated on the two sides of its split. Includes the
equality-of-opportunity statistic, a Pareto front, and a group-by-group
constrained search for the most accurate tree meeting a secondary
constraint.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dataset import BinaryDataset, split
from .engine import DEFAULT_EPSILON, RashomonEnumeration
from .groups import LeafEntry, SideGroup
from .objective import distinct_leaf_labels
from .trees import num_leaves


class UndefinedMetricError(ValueError):
    """A secondary metric is undefined for this run (e.g. a group has no positives)."""


@dataclass(frozen=True)
class SecondaryObjectiveSpec:
    """Separable secondary objective: leaf statistic, combine, finalize."""

    leaf_stat: callable      # (DataView, prediction) -> StatTuple
    combine_stat: callable   # (StatTuple, StatTuple) -> StatTuple
    finalize: callable       # StatTuple -> tuple of objective coordinates


@dataclass(frozen=True)
class _Record:
    """One distinct statistic within a group, with a witness tree.

    leaf_info is (prediction, alternatives) when the witness is a bare leaf
    entry, so suppression-relabeling in parent combinations stays possible.
    """

    stat: tuple
    witness: tuple
    leaf_info: tuple = None


def stat_of_tree(tree, view, spec: SecondaryObjectiveSpec):
    """Direct recursive statistic of one tree over a view."""
    if tree[0] == "leaf":
        return tuple(spec.leaf_stat(view, tree[1]))
    left_view, right_view = split(view, tree[1])
    return tuple(spec.combine_stat(stat_of_tree(tree[2], left_view, spec),
                                   stat_of_tree(tree[3], right_view, spec)))


def _group_records(group, view, spec, memo):
    """Distinct (stat, witness, leaf_info) records for one solution group
    on its view; a pair's groups are on the two sides of its split."""
    key = id(group)
    hit = memo.get(key)
    if hit is not None:
        return hit
    records = {}

    def put(rec):
        records.setdefault((rec.stat, rec.leaf_info), rec)

    if type(group) is SideGroup:    # leaves and one-split trees
        for tree, alternatives in group.iter_trees():
            leaf_info = (tree[1], alternatives) if tree[0] == "leaf" else None
            put(_Record(stat_of_tree(tree, view, spec), tree, leaf_info))
    else:
        for entry in group.entries:
            if isinstance(entry, LeafEntry):
                stat = tuple(spec.leaf_stat(view, entry.prediction))
                put(_Record(stat, ("leaf", entry.prediction),
                            (entry.prediction, entry.alternatives)))
            else:
                views = split(view, entry.feature)
                for pair in entry.pairs:
                    lrecs = _group_records(pair.left, views[0], spec, memo)
                    rrecs = _group_records(pair.right, views[1], spec, memo)
                    for lrec in lrecs:
                        for rrec in rrecs:
                            combined = _combine_pair(entry.feature, pair, views,
                                                     lrec, rrec, spec)
                            if combined is not None:
                                put(combined)
    out = tuple(records.values())
    memo[key] = out
    return out


def _combine_pair(feature, pair, views, lrec, rrec, spec):
    """Combine child records under one branch pair, honoring suppression."""
    lstat, lwit = lrec.stat, lrec.witness
    rstat, rwit = rrec.stat, rrec.witness
    if (pair.filtered and lrec.leaf_info is not None
            and rrec.leaf_info is not None):
        labels = distinct_leaf_labels(*lrec.leaf_info, *rrec.leaf_info)
        if labels is None:
            return None
        lpred, rpred = labels
        if lpred != lrec.leaf_info[0]:
            lwit = ("leaf", lpred)
            lstat = tuple(spec.leaf_stat(views[0], lpred))
        if rpred != rrec.leaf_info[0]:
            rwit = ("leaf", rpred)
            rstat = tuple(spec.leaf_stat(views[1], rpred))
    return _Record(tuple(spec.combine_stat(lstat, rstat)),
                   ("split", feature, lwit, rwit))


def evaluate_secondary(groups, spec: SecondaryObjectiveSpec):
    """Yield (primary total cost, StatTuple, witness tree) over emitted groups.

    One record per distinct statistic tuple per group, in emission order.
    """
    memo = {}
    for emitted in groups:
        seen = set()
        for rec in _group_records(emitted.group, emitted.group.view, spec,
                                  memo):
            if rec.stat in seen:
                continue
            seen.add(rec.stat)
            yield emitted.total_cost, rec.stat, rec.witness


def eq_opportunity_spec(dataset: BinaryDataset, sensitive_feature,
                        positive_class) -> SecondaryObjectiveSpec:
    """Equality-of-opportunity statistic for binary sensitive groups.

    Stat = (misclassifications, true positives predicted in group 0, in
    group 1); group 1 = sensitive feature satisfied. Finalize = (accuracy,
    TPR_0 - TPR_1) with each group's positives counted over the full
    training set; positive means group 1 is disadvantaged.
    """
    if dataset.task != "classification":
        raise UndefinedMetricError("equality of opportunity needs classification")
    if not 0 <= sensitive_feature < dataset.num_features:
        raise IndexError(f"feature index {sensitive_feature} out of range")
    if not 0 <= positive_class < dataset.num_classes:
        raise ValueError(f"positive class {positive_class} out of range")
    sens_col = dataset.columns[sensitive_feature]
    pos_mask = dataset.class_masks[positive_class]
    pos_g1 = (pos_mask & sens_col).bit_count()
    pos_g0 = pos_mask.bit_count() - pos_g1
    n = dataset.num_samples

    def leaf_stat(view, prediction):
        hit = (view.members & dataset.class_masks[prediction]).bit_count()
        mis = view.size - hit
        if prediction != positive_class:
            return (mis, 0, 0)
        tp = view.members & pos_mask
        tp1 = (tp & sens_col).bit_count()
        return (mis, tp.bit_count() - tp1, tp1)

    def combine_stat(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def finalize(stat):
        if pos_g0 == 0 or pos_g1 == 0:
            raise UndefinedMetricError(
                "a sensitive group has no positive samples; TPR undefined")
        mis, tp0, tp1 = stat
        return (1.0 - mis / n, tp0 / pos_g0 - tp1 / pos_g1)

    return SecondaryObjectiveSpec(leaf_stat, combine_stat, finalize)


@dataclass
class ParetoPoint:
    coordinates: tuple
    witness: tuple
    tree_size: int


class ParetoFront:
    """Incremental coordinate-wise-minimization Pareto front.

    Equal coordinates keep the first witness seen.
    """

    def __init__(self):
        self._points = []

    def add(self, coordinates, witness):
        coordinates = tuple(coordinates)
        for p in self._points:
            if _dominates(p.coordinates, coordinates) or p.coordinates == coordinates:
                return False
        self._points = [p for p in self._points
                        if not _dominates(coordinates, p.coordinates)]
        size = num_leaves(witness) if witness is not None else 0
        self._points.append(ParetoPoint(coordinates, witness, size))
        return True

    def points(self):
        return sorted(self._points, key=lambda p: p.coordinates)


def _dominates(a, b) -> bool:
    """True when a is at least as small everywhere and strictly smaller somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(points) -> list:
    """Non-dominated subset of (coordinates, witness) points, minimizing."""
    front = ParetoFront()
    for coordinates, witness in points:
        front.add(coordinates, witness)
    return front.points()


@dataclass
class ConstrainedSearchResult:
    tree: tuple
    objective: tuple
    total_cost: float
    trees_considered: int


def batched_constrained_search(dataset, depth, lam, spec, constraint,
                               epsilon=None, **enum_kwargs):
    """First tree (in primary-objective order) whose finalized secondary
    objective satisfies the constraint; None when the Rashomon set is
    exhausted without a match.

    The scan goes group by group and stops at the first match; because
    groups are emitted in non-decreasing primary order, the returned tree is
    primary-optimal among all satisfying trees within the bound.
    """
    if epsilon is None:
        epsilon = DEFAULT_EPSILON
    enum = RashomonEnumeration(dataset, depth, lam=lam, epsilon=epsilon,
                               **enum_kwargs)
    memo = {}
    considered = 0
    for emitted in enum.groups():
        for rec in _group_records(emitted.group, emitted.group.view, spec,
                                  memo):
            if constraint(spec.finalize(rec.stat)):
                return ConstrainedSearchResult(
                    rec.witness, tuple(spec.finalize(rec.stat)),
                    emitted.total_cost, considered + emitted.count)
        considered += emitted.count
    return None
