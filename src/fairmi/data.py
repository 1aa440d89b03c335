"""Dataset ingestion, synthetic data, and batching.

CSV is the interchange format: a header row, one named group column, an
optional label column, and numeric feature columns in header order. Group
and label values may be arbitrary strings; they are mapped to dense ids in
order of first appearance, which keeps repeated loads of the same file
byte-stable. Features are standardized per column by default.

This module owns CSV parsing and its checks: ``load_csv`` and the CLI's
label-only ``metrics`` input both go through ``read_csv`` and ``label_ids``.

Ground-truth labels ride along for evaluation only: the trainer receives a
view without them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    groups: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple | None = None
    group_names: tuple | None = None
    label_names: tuple | None = None

    def __post_init__(self):
        x = self.features
        g = self.groups
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
            raise DataError("features must be a non-empty 2-d array")
        if not np.all(np.isfinite(x)):
            raise DataError("features must be finite")
        if g.shape != (x.shape[0],):
            raise DataError("need exactly one group id per row")
        if g.min() < 0:
            raise DataError("group ids must be non-negative")
        counts = np.bincount(g)
        if np.any(counts == 0):
            raise DataError("group ids must be dense (no empty group)")
        if self.labels is not None and self.labels.shape != (x.shape[0],):
            raise DataError("need exactly one label per row when labels are present")

    def __len__(self):
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_groups(self) -> int:
        return int(self.groups.max()) + 1

    def train_view(self) -> "TrainView":
        """Label-free view handed to the trainer's loss path."""
        return TrainView(features=self.features, groups=self.groups)


@dataclass(frozen=True)
class TrainView:
    features: np.ndarray
    groups: np.ndarray

    def __len__(self):
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_groups(self) -> int:
        return int(self.groups.max()) + 1


def standardize(features: np.ndarray) -> np.ndarray:
    """Per-column zero mean, unit variance; constant columns become zero."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (features - mean) / std


def read_csv(path):
    """Header and data rows of a CSV file; blank lines are skipped.

    Rejects an empty file, repeated column names, a header with no data
    rows, and a row whose cell count differs from the header's (naming the
    row, counted in the file without its blank lines).
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DataError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if not rows:
        raise DataError(f"{path}: header only, no data rows")
    if set(map(len, rows)) != {len(header)}:
        r, row = next((r, row) for r, row in enumerate(rows, start=2) if len(row) != len(header))
        raise DataError(f"{path}: row {r} has {len(row)} cells, header has {len(header)}")
    return header, rows


def label_ids(path, header, rows, name: str, role: str):
    """Dense int64 ids of column ``name`` by first appearance, and its distinct values in that order.

    ``header`` and ``rows`` come from ``read_csv(path)``. Rejects a missing
    column and a blank or whitespace-only cell, naming the row and the
    column; ``role`` says what the column holds ("group", "label", ...).
    """
    if name not in header:
        raise DataError(f"{path}: no column named {name!r}")
    i = header.index(name)
    ids = {}
    out = [ids.setdefault(row[i], len(ids)) for row in rows]
    if any(not value.strip() for value in ids):
        r = next(r for r, row in enumerate(rows, start=2) if not row[i].strip())
        raise DataError(f"{path}: row {r} is missing its {role} value in column {name!r}")
    return np.asarray(out, dtype=np.int64), tuple(ids)


def load_csv(path, group_column: str, label_column: str | None = None,
             standardize_features: bool = True) -> Dataset:
    """Load a dataset from CSV.

    All columns except the group and label columns must be numeric features.
    Besides ``read_csv``'s and ``label_ids``' rules, rejects a file with no
    feature columns and non-numeric or non-finite feature cells (naming the
    row and column of a non-numeric one).
    """
    header, rows = read_csv(path)
    f_idx = [i for i, name in enumerate(header) if name not in (group_column, label_column)]
    if not f_idx:
        raise DataError(f"{path}: no feature columns left")
    groups, group_names = label_ids(path, header, rows, group_column, "group")
    labels, label_names = (None, None)
    if label_column is not None:
        labels, label_names = label_ids(path, header, rows, label_column, "label")

    features = np.empty((len(rows), len(f_idx)))
    for r, row in enumerate(rows, start=2):
        for j, i in enumerate(f_idx):
            try:
                features[r - 2, j] = float(row[i])
            except ValueError:
                raise DataError(
                    f"{path}: row {r}, column {header[i]!r}: non-numeric value {row[i]!r}"
                ) from None
    if not np.all(np.isfinite(features)):
        raise DataError(f"{path}: non-finite feature values")

    if standardize_features:
        features = standardize(features)
    return Dataset(
        features=features,
        groups=groups,
        labels=labels,
        feature_names=tuple(header[i] for i in f_idx),
        group_names=group_names,
        label_names=label_names,
    )


def save_csv(dataset: Dataset, path):
    """Write features, group, and (if present) label columns.

    Group/label cells carry the original values when the dataset kept them,
    else the dense ids; floats use shortest round-trip formatting.
    """
    names = dataset.feature_names or tuple(f"f{i}" for i in range(dataset.dim))
    header = list(names) + ["group"] + (["label"] if dataset.labels is not None else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            g = dataset.groups[i]
            row.append(str(dataset.group_names[g]) if dataset.group_names else str(int(g)))
            if dataset.labels is not None:
                l = dataset.labels[i]
                row.append(str(dataset.label_names[l]) if dataset.label_names else str(int(l)))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian mixture with one cell per (class, group) pair.

    Class means sit at the vertices of a regular simplex with pairwise
    distance class_sep; group t is displaced by t * group_shift along a fixed
    unit direction orthogonal to the class-mean subspace, so the group effect
    is a pure nuisance direction. Isotropic noise everywhere.
    """

    classes: int
    groups: int
    per_cell_count: int
    class_sep: float
    group_shift: float
    dim: int
    noise_sd: float
    seed: int

    def __post_init__(self):
        if self.classes < 1 or self.groups < 1 or self.per_cell_count < 1:
            raise DataError("classes, groups, and per_cell_count must be positive")
        if self.class_sep <= 0.0:
            raise DataError("class_sep must be positive")
        if self.noise_sd < 0.0:
            raise DataError("noise_sd must be non-negative")
        needed = (self.classes - 1) + (1 if self.groups >= 2 else 0)
        if self.dim < max(needed, 1):
            raise DataError(
                f"dim={self.dim} too small to separate {self.classes} classes "
                f"and {self.groups} groups"
            )


def _simplex(k: int, sep: float) -> np.ndarray:
    """k points in k-1 dims, pairwise distance sep, centered at the origin."""
    if k == 1:
        return np.zeros((1, 0))
    verts = np.eye(k) * (sep / np.sqrt(2.0))
    verts -= verts.mean(axis=0)
    u, s, _ = np.linalg.svd(verts, full_matrices=False)
    return (u * s)[:, : k - 1]


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw the mixture; rows come out cell by cell (class-major, group-minor)."""
    rng = np.random.default_rng(spec.seed)
    class_coords = _simplex(spec.classes, spec.class_sep)
    nuisance_axis = spec.classes - 1  # first axis orthogonal to the class subspace
    blocks, labels, groups = [], [], []
    for c in range(spec.classes):
        mean_c = np.zeros(spec.dim)
        mean_c[: class_coords.shape[1]] = class_coords[c]
        for t in range(spec.groups):
            mean = mean_c.copy()
            if spec.groups >= 2:
                mean[nuisance_axis] += t * spec.group_shift
            blocks.append(rng.normal(mean, spec.noise_sd, size=(spec.per_cell_count, spec.dim)))
            labels.append(np.full(spec.per_cell_count, c, dtype=np.int64))
            groups.append(np.full(spec.per_cell_count, t, dtype=np.int64))
    return Dataset(
        features=np.concatenate(blocks, axis=0),
        groups=np.concatenate(groups),
        labels=np.concatenate(labels),
    )


def minibatches(dataset, batch_size: int, epoch_seed) -> list[np.ndarray]:
    """Seeded random permutation chopped into index batches (last may be short)."""
    n = len(dataset)
    if batch_size < 1:
        raise DataError("batch_size must be positive")
    perm = np.random.default_rng(epoch_seed).permutation(n)
    return [perm[i: i + batch_size] for i in range(0, n, batch_size)]
