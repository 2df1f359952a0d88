"""Bitset-backed binary datasets, label storage, and sample-subset views.

Feature columns are stored as Python integers used as bitsets (bit i set
means sample i satisfies the feature), alongside a dense boolean matrix for
regression counting; the columns and class masks are also packed into
``uint64`` word arrays, on first use, for popcount counting. Subsets of
samples are represented by ``DataView``, which is just a member bitset over
the parent dataset.
"""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DataError(ValueError):
    """Raised for unparseable or inconsistent input data."""


def _bits_from_bools(flags) -> int:
    """The bitset whose bit i is set when ``flags[i]`` is truthy."""
    packed = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _words(bitsets, n) -> np.ndarray:
    """The (len(bitsets), ceil(n / 64)) little-endian ``uint64`` words of
    n-bit bitsets: bit i of a bitset is bit i % 64 of word i // 64."""
    width = 8 * ((n + 63) // 64)
    raw = b"".join(b.to_bytes(width, "little") for b in bitsets)
    return np.frombuffer(raw, dtype="<u8").reshape(len(bitsets), -1)


def _bool_matrix(columns, n) -> np.ndarray:
    """The (n, len(columns)) boolean matrix of bitset columns."""
    width = (n + 7) // 8
    raw = b"".join(col.to_bytes(width, "little") for col in columns)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(
        len(columns), width), axis=1, count=n, bitorder="little")
    return bits.T.astype(bool, order="C")


class BinaryDataset:
    """Immutable dataset of binary features plus labels.

    task is "classification" (integer labels in [0, num_classes)) or
    "regression" (real labels). label_mean is the regression label mean,
    the centre of every regression cell statistic (None for classification).
    """

    def __init__(self, columns, labels, task, feature_names=None):
        columns = list(columns)
        if not columns:
            raise DataError("dataset needs at least one feature")
        if task == "classification":
            labels = np.asarray(labels, dtype=np.int64)
            if labels.size and labels.min() < 0:
                raise DataError("classification labels must be nonnegative")
            self.num_classes = max(2, int(labels.max()) + 1) if labels.size else 2
            self.label_mean = None
        elif task == "regression":
            labels = np.asarray(labels, dtype=np.float64)
            if not np.isfinite(labels).all():
                raise DataError("regression labels must be finite")
            self.label_mean = float(labels.mean()) if labels.size else 0.0
        else:
            raise DataError(f"unknown task {task!r}")
        n = len(labels)
        if n < 1:
            raise DataError("dataset needs at least one sample")
        self.task = task
        self.num_samples = n
        self.num_features = len(columns)
        self.columns = tuple(columns)
        self.labels = labels
        self.full_mask = (1 << n) - 1
        for j, col in enumerate(self.columns):
            if col >> n:
                raise DataError(f"feature column {j} longer than num_samples")
        self.feature_names = (
            list(feature_names)
            if feature_names is not None
            else [f"f{j}" for j in range(self.num_features)]
        )
        # dense matrix for the frequency-count fast path
        self.X = _bool_matrix(self.columns, n)
        if task == "classification":
            self.class_masks = [
                _bits_from_bools(labels == k) for k in range(self.num_classes)
            ]
        else:
            self.class_masks = None

    @cached_property
    def words(self) -> np.ndarray:
        """(F, W) ``uint64``: the feature columns, packed (built on first use)."""
        return _words(self.columns, self.num_samples)

    @cached_property
    def class_words(self) -> np.ndarray:
        """(C, W) ``uint64``: the class masks, packed (built on first use)."""
        return _words(self.class_masks, self.num_samples)

    @classmethod
    def from_arrays(cls, X, labels, task="classification", feature_names=None):
        X = np.asarray(X)
        bad = (X != 0) & (X != 1)
        if bad.any():
            raise DataError("feature values must be 0/1")
        cols = [_bits_from_bools(X[:, j] != 0) for j in range(X.shape[1])]
        return cls(cols, labels, task, feature_names)

    def full_view(self) -> "DataView":
        return DataView(self, self.full_mask)

    def normalize_labels(self) -> "BinaryDataset":
        """Return a copy with regression labels standardized to zero mean, unit std."""
        if self.task != "regression":
            raise DataError("label normalization only applies to regression")
        y = self.labels
        std = float(y.std())
        y2 = (y - y.mean()) / std if std > 0 else y - y.mean()
        return BinaryDataset(self.columns, y2, "regression", self.feature_names)

    def __repr__(self):
        return (
            f"BinaryDataset({self.num_samples} samples, "
            f"{self.num_features} features, {self.task})"
        )


@dataclass(frozen=True)
class DataView:
    """A subset of a dataset's samples, as a member bitset."""

    dataset: BinaryDataset
    members: int

    @cached_property
    def size(self) -> int:
        return self.members.bit_count()

    def member_indices(self) -> np.ndarray:
        n = self.dataset.num_samples
        raw = self.members.to_bytes((n + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.nonzero(bits[:n])[0]

    def member_words(self) -> np.ndarray:
        """(W,) ``uint64``: the member bitset, packed like ``dataset.words``."""
        return _words((self.members,), self.dataset.num_samples)[0]

    def feature_is_constant(self, feature: int) -> bool:
        inter = self.members & self.dataset.columns[feature]
        return inter == 0 or inter == self.members


def split_side(view: DataView, feature: int, satisfied: bool) -> DataView:
    """One side of a view's split on a feature: the members that satisfy it,
    or those that do not."""
    if not 0 <= feature < view.dataset.num_features:
        raise IndexError(f"feature index {feature} out of range")
    col = view.dataset.columns[feature]
    members = view.members & (col if satisfied else ~col)
    return DataView(view.dataset, members)


def split(view: DataView, feature: int):
    """Partition a view on one feature: (feature unsatisfied, feature satisfied)."""
    return split_side(view, feature, False), split_side(view, feature, True)


def fingerprint(view: DataView, depth: int):
    """Cache key for a (sample subset, remaining depth) subproblem.

    The member bitset itself is the key, so equal keys imply equal subsets
    and no collision resolution is ever needed.
    """
    return (view.members, depth)


def _dedup_columns(columns, names, full_mask):
    """Drop duplicate and complement-of-existing columns, keeping lowest index."""
    seen = {}
    keep_cols, keep_names = [], []
    for j, col in enumerate(columns):
        if col in seen or (col ^ full_mask) in seen:
            continue
        seen[col] = j
        keep_cols.append(col)
        keep_names.append(names[j])
    return keep_cols, keep_names


def load_dataset(path, fmt="auto", task="classification", label_col=None,
                 normalize=False) -> BinaryDataset:
    """Load a dataset from disk.

    fmt "murtree": whitespace-separated values, first token per line is the
    label. fmt "csv": header row, label column named by label_col. "auto"
    picks csv for .csv paths.
    """
    with open(path) as fh:
        text = fh.read()
    if fmt == "auto":
        fmt = "csv" if str(path).endswith(".csv") else "murtree"
    ds = parse_dataset(text, fmt=fmt, task=task, label_col=label_col)
    if normalize and task == "regression":
        ds = ds.normalize_labels()
    return ds


def parse_dataset(text, fmt="murtree", task="classification", label_col=None):
    if fmt == "murtree":
        rows, labels = _parse_murtree(text, task)
        names = [f"f{j}" for j in range(len(rows[0]))]
    elif fmt == "csv":
        rows, labels, names = _parse_csv(text, task, label_col)
    else:
        raise DataError(f"unknown format {fmt!r}")
    n = len(rows)
    width = len(rows[0])
    for ln, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"line {ln + 1}: expected {width} features, got {len(row)}")
    flags = np.array(rows, dtype=bool)
    cols = [_bits_from_bools(flags[:, j]) for j in range(width)]
    full_mask = (1 << n) - 1
    cols, names = _dedup_columns(cols, names, full_mask)
    if not cols:
        raise DataError("all feature columns removed as duplicates/complements")
    return BinaryDataset(cols, labels, task, names)


def _parse_label(tok, task, ln):
    try:
        if task == "classification":
            v = int(tok)
            if v < 0:
                raise ValueError
            return v
        return float(tok)
    except ValueError:
        raise DataError(f"line {ln}: bad label {tok!r}") from None


def _parse_feature(tok, ln):
    if tok == "0":
        return 0
    if tok == "1":
        return 1
    raise DataError(f"line {ln}: non-binary feature value {tok!r}")


def _parse_murtree(text, task):
    rows, labels = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks:
            continue
        labels.append(_parse_label(toks[0], task, ln))
        rows.append([_parse_feature(t, ln) for t in toks[1:]])
    if not rows:
        raise DataError("empty file")
    if not rows[0]:
        raise DataError("no feature columns")
    return rows, labels


def _parse_csv(text, task, label_col):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file") from None
    if label_col is None:
        label_col = header[0]
    if label_col not in header:
        raise DataError(f"label column {label_col!r} not in header")
    li = header.index(label_col)
    names = [h for i, h in enumerate(header) if i != li]
    rows, labels = [], []
    for ln, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(header):
            raise DataError(f"line {ln}: expected {len(header)} fields, got {len(rec)}")
        labels.append(_parse_label(rec[li], task, ln))
        rows.append([_parse_feature(t.strip(), ln) for i, t in enumerate(rec) if i != li])
    if not rows:
        raise DataError("no data rows")
    return rows, labels, names


def serialize_dataset(ds: BinaryDataset) -> str:
    """MurTree-format text for a dataset (label first, then 0/1 features)."""
    lines = []
    for i in range(ds.num_samples):
        label = ds.labels[i]
        ltxt = str(int(label)) if ds.task == "classification" else repr(float(label))
        bits = " ".join("1" if ds.X[i, j] else "0" for j in range(ds.num_features))
        lines.append(f"{ltxt} {bits}")
    return "\n".join(lines) + "\n"


def binarize_numeric(X, labels, task="classification", thresholds_per_column=4,
                     column_names=None) -> BinaryDataset:
    """Expand numeric columns into quantile threshold indicators (value <= t).

    Thresholds are taken at empirical quantiles with lower interpolation and
    deduplicated; constant columns contribute no features (warning).
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    if column_names is None:
        column_names = [f"x{j}" for j in range(m)]
    cols, names = [], []
    k = thresholds_per_column
    for j in range(m):
        vals = np.sort(X[:, j])
        cand = []
        for q in range(1, k + 1):
            t = float(np.quantile(vals, q / (k + 1), method="lower"))
            cand.append(t)
        emitted = set()
        for t in sorted(set(cand)):
            bits = _bits_from_bools(X[:, j] <= t)
            if bits == 0 or bits == (1 << n) - 1:
                continue  # constant indicator
            if bits in emitted:
                continue
            emitted.add(bits)
            cols.append(bits)
            names.append(f"{column_names[j]}<={t:g}")
        if not emitted:
            warnings.warn(f"column {column_names[j]} produced no threshold features")
    if not cols:
        raise DataError("binarization produced no features")
    cols, names = _dedup_columns(cols, names, (1 << n) - 1)
    return BinaryDataset(cols, labels, task, names)
