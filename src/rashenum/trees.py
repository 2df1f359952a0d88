"""Tree models as nested tuples, prediction, direct scoring, serialization.

A tree is ("leaf", prediction) or ("split", feature, left, right). A sample
goes right when the split feature is satisfied.
"""
from __future__ import annotations

import json

import numpy as np

from .dataset import BinaryDataset, DataView, split as split_view
from .objective import ObjectiveConfig


def leaf(prediction):
    return ("leaf", prediction)


def split(feature, left, right):
    return ("split", feature, left, right)


def is_leaf(tree) -> bool:
    return tree[0] == "leaf"


def num_leaves(tree) -> int:
    if is_leaf(tree):
        return 1
    return num_leaves(tree[2]) + num_leaves(tree[3])


def depth(tree) -> int:
    if is_leaf(tree):
        return 0
    return 1 + max(depth(tree[2]), depth(tree[3]))


def predict(tree, x):
    """Classify/regress a single 0/1 feature vector."""
    while not is_leaf(tree):
        f = tree[1]
        if f >= len(x):
            raise IndexError(f"feature vector too short for feature {f}")
        tree = tree[3] if x[f] else tree[2]
    return tree[1]


def features_used(tree):
    if is_leaf(tree):
        return set()
    return {tree[1]} | features_used(tree[2]) | features_used(tree[3])


def evaluate_cost(tree, dataset: BinaryDataset, config: ObjectiveConfig) -> float:
    """Directly re-score a tree: loss over the dataset plus lambda per leaf."""
    loss = _loss(tree, dataset.full_view(), dataset, config)
    return loss + config.lam * num_leaves(tree)


def _loss(tree, view: DataView, dataset, config):
    if is_leaf(tree):
        if config.task == "classification":
            hit = (view.members & dataset.class_masks[tree[1]]).bit_count()
            return (view.size - hit) / dataset.num_samples
        if view.size == 0:
            return 0.0
        y = dataset.labels[view.member_indices()]
        return float(np.sum((y - tree[1]) ** 2))
    lv, rv = split_view(view, tree[1])
    return _loss(tree[2], lv, dataset, config) + _loss(tree[3], rv, dataset, config)


def to_dict(tree):
    if is_leaf(tree):
        pred = tree[1]
        if isinstance(pred, np.generic):  # numpy scalars as Python numbers
            pred = pred.item()
        return {"predict": pred}
    feature = tree[1]
    if isinstance(feature, np.integer):
        feature = int(feature)
    return {"feature": feature, "left": to_dict(tree[2]),
            "right": to_dict(tree[3])}


def from_dict(d):
    if "predict" in d:
        return ("leaf", d["predict"])
    return ("split", d["feature"], from_dict(d["left"]), from_dict(d["right"]))


def serialize_tree(tree) -> str:
    return json.dumps(to_dict(tree), separators=(",", ":"))


def parse_tree(text: str):
    return from_dict(json.loads(text))
