"""Seeded benchmark inputs, written as MurTree-format text files.

The program under test only ever sees these files, through
``rashenum.load_dataset``. Generation uses numpy alone, so producing the
inputs neither imports nor times the package.

``planted`` draws i.i.d. coin-flip features and labels from a hidden
depth-2 tree of fixed shape: three distinct features chosen by the seed,
leaf labels (0, 1 | 1, 0). The package's own ``generate_dataset`` draws the
hidden tree's shape from the seed as well (repeated features, constant
leaves), which changes a run's cost by up to 4x from one seed to the next;
fixing the shape keeps every seed on the same kind of Rashomon set.

``latent`` observes four latent bits through noisy copies and labels
samples by ``(z0 and z1) or z2``, so trees of equal cost disagree on the
sensitive feature and the secondary objectives have real work to do.
"""
from __future__ import annotations

import numpy as np


def planted(num_samples, num_features, seed, noise):
    """Features X (n, F) of 0/1 and labels from a fixed-shape hidden tree.

    Each label is resampled uniformly with probability ``noise`` (the
    package generator's convention).
    """
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(num_samples, num_features), dtype=np.int64)
    root, left, right = rng.choice(num_features, size=3, replace=False)
    labels = np.where(X[:, root] == 0, X[:, left], 1 - X[:, right])
    resample = rng.random(num_samples) < noise
    labels[resample] = rng.integers(0, 2, size=int(resample.sum()))
    return X, labels


def latent(num_samples, seed, copies=4, bit_flip=0.15, label_flip=0.1):
    """Four latent bits, each seen through ``copies`` features with flips."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, size=(num_samples, 4), dtype=np.int64)
    X = np.repeat(z, copies, axis=1)
    X ^= (rng.random(X.shape) < bit_flip).astype(np.int64)
    labels = (z[:, 0] & z[:, 1]) | z[:, 2]
    labels ^= (rng.random(num_samples) < label_flip).astype(np.int64)
    return X, labels


def write_murtree(path, X, labels):
    """Label-first whitespace rows: the format ``load_dataset`` reads."""
    rows = (" ".join(map(str, [label, *row]))
            for label, row in zip(labels.tolist(), X.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
