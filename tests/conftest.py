from __future__ import annotations

import numpy as np
import pytest

from rashenum import BinaryDataset, RashomonEnumeration, parse_dataset


@pytest.fixture
def tiny_dataset() -> BinaryDataset:
    """5 samples, 2 informative features, binary labels."""
    return parse_dataset("1 0 1\n0 1 0\n1 1 1\n0 0 0\n1 0 0\n")


@pytest.fixture
def xor_dataset() -> BinaryDataset:
    """Labels are the XOR of the two features; depth 2 separates perfectly."""
    rows = []
    for a in (0, 1):
        for b in (0, 1):
            for _ in range(3):
                rows.append(f"{a ^ b} {a} {b}")
    return parse_dataset("\n".join(rows))


@pytest.fixture
def pure_dataset() -> BinaryDataset:
    """All samples share one label; the optimal tree is a single leaf."""
    return parse_dataset("1 0 1\n1 1 0\n1 1 1\n1 0 0\n")


def count_enumerations(monkeypatch, *modules):
    """Record the keyword arguments of every RashomonEnumeration that the
    given modules construct."""
    built = []

    class Counting(RashomonEnumeration):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "RashomonEnumeration", Counting)
    return built


def random_dataset(seed, num_samples, num_features, num_classes=2,
                   task="classification") -> BinaryDataset:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(num_samples, num_features))
    if task == "classification":
        y = rng.integers(0, num_classes, size=num_samples)
        return BinaryDataset.from_arrays(X, y, task=task)
    y = rng.normal(size=num_samples)
    return BinaryDataset.from_arrays(X, y, task=task).normalize_labels()


def plain_numbers(tree):
    """Every feature is a Python int, every prediction an int or float."""
    if tree[0] == "leaf":
        return type(tree[1]) in (int, float)
    return (type(tree[1]) is int and plain_numbers(tree[2])
            and plain_numbers(tree[3]))
