"""Tabular dataset ingestion, splitting and feature standardization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ClassTooSmall,
    ConfigError,
    ParseError,
    RaggedRows,
    UnknownLabelColumn,
)
from .operators import STD_FLOOR

SPLIT_NAMES = ("train", "val", "test")


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(y), n_classes))
    out[np.arange(len(y)), y] = 1.0
    return out


@dataclass
class Dataset:
    """Feature matrix, integer labels in [0, C), and named index splits."""

    X: np.ndarray
    y: np.ndarray
    n_classes: int
    splits: dict = field(default_factory=dict)
    feature_names: list | None = None
    label_names: list | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise ConfigError("X must be [N, D] and y [N]")
        if not np.isfinite(self.X).all():
            raise ConfigError("features must be finite")
        if not self.splits:
            self.splits = {"train": np.arange(self.X.shape[0])}

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def has_split(self, name: str) -> bool:
        return name in self.splits and len(self.splits[name]) > 0

    def X_split(self, name: str) -> np.ndarray:
        return self.X[self.splits[name]]

    def y_split(self, name: str) -> np.ndarray:
        return self.y[self.splits[name]]

    def targets(self, name: str) -> np.ndarray:
        """One-hot targets for a split."""
        return one_hot(self.y_split(name), self.n_classes)


def load_csv(path: str, label_column="label", header: bool = True) -> Dataset:
    """Load a rectangular CSV with one label column, every row in the train
    split.

    Labels are mapped to 0..C-1 in first-appearance order.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row]
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    names = None
    if header:
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows after the header")
    if isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_idx < width:
            raise UnknownLabelColumn(f"label column index {label_column} out of range")
    else:
        if names is None:
            raise UnknownLabelColumn(
                "label column given by name but the file has no header")
        if label_column not in names:
            raise UnknownLabelColumn(f"label column {label_column!r} not in header")
        label_idx = names.index(label_column)
    if width < 2:
        raise ConfigError(f"{path}: no feature columns, only the label column")
    columns = [c for c in range(width) if c != label_idx]

    label_order: dict = {}
    labels = [label_order.setdefault(row[label_idx].strip(), len(label_order))
              for row in rows]
    features = np.empty((len(rows), width - 1))
    for r, row in enumerate(rows):
        for j, c in enumerate(columns):
            try:
                value = float(row[c])
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ParseError(
                    f"{path}: {kind} value {row[c]!r} at row "
                    f"{r + (2 if header else 1)}, column {c + 1}")
            features[r, j] = value
    return Dataset(features, np.asarray(labels), len(label_order),
                   feature_names=names and [names[c] for c in columns],
                   label_names=list(label_order))


def apply_feature_standardization(ds: Dataset) -> Dataset:
    """Z-score all features with mean/std fitted on the train split only,
    std floored at STD_FLOOR; a feature whose mean, std or any standardized
    value is not finite is a ConfigError that names it."""
    X_train = ds.X_split("train")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X_train.mean(axis=0)
        std = X_train.std(axis=0)
        X = (ds.X - mean) / np.maximum(std, STD_FLOOR)
    bad = np.flatnonzero(~(np.isfinite(X).all(axis=0) & np.isfinite(mean)
                           & np.isfinite(std)))
    if bad.size:
        j = int(bad[0])
        name = repr(ds.feature_names[j]) if ds.feature_names else f"at index {j}"
        raise ConfigError(f"feature {name} cannot be standardized: its mean, "
                          "std or a standardized value is not finite")
    return replace(ds, X=X)


def split_dataset(ds: Dataset, fractions, seed: int = 0,
                  stratified: bool = True) -> Dataset:
    """Assign train/val/test index sets; stratified and seeded.

    ``fractions`` maps split names to fractions summing to 1 (missing names
    count as 0).  Per-class sample counts are apportioned by largest
    remainder so exact proportions are honored whenever possible.
    """
    fracs = {name: float(fractions.get(name, 0.0)) for name in SPLIT_NAMES}
    if not all(f >= 0 for f in fracs.values()):
        raise ConfigError(f"split fractions must be non-negative, got {fracs}")
    if abs(sum(fracs.values()) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {sum(fracs.values())}")
    rng = np.random.default_rng(seed)
    active = sum(f > 0 for f in fracs.values())
    groups = ([np.flatnonzero(ds.y == cls) for cls in range(ds.n_classes)]
              if stratified else [np.arange(ds.n_samples)])
    assigned = {name: [] for name in SPLIT_NAMES}
    for cls, idx in enumerate(groups):
        if stratified and len(idx) < active:
            raise ClassTooSmall(
                f"class {cls} has {len(idx)} samples, cannot stratify "
                f"across {active} splits")
        rng.shuffle(idx)
        for name, chunk in zip(SPLIT_NAMES, _apportion(len(idx), fracs)):
            assigned[name].extend(idx[:chunk])
            idx = idx[chunk:]
    splits = {name: np.sort(np.asarray(members, dtype=int))
              for name, members in assigned.items() if members}
    train_classes = set(ds.y[splits["train"]]) if "train" in splits else set()
    if len(train_classes) != ds.n_classes:
        raise ClassTooSmall("every class must appear in the train split")
    return replace(ds, splits=splits)


def _apportion(total: int, fracs: dict) -> list:
    """Integer counts per split name order, largest-remainder rounding."""
    raw = [total * fracs[name] for name in SPLIT_NAMES]
    counts = [int(np.floor(v)) for v in raw]
    remainder = total - sum(counts)
    order = sorted(range(len(SPLIT_NAMES)),
                   key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts
