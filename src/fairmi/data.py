"""Dataset ingestion, synthetic data, and batching.

CSV is the interchange format: a header row, one named group column, an
optional label column, and numeric feature columns in header order. Group
and label values may be arbitrary strings; they are mapped to dense ids in
order of first appearance, which keeps repeated loads of the same file
byte-stable. Features are standardized per column by default.

This module owns CSV parsing and its checks: ``load_csv`` and the CLI's
label-only ``metrics`` input both go through ``read_csv`` and ``label_ids``.
``read_csv`` returns data rows as tuples, which the cyclic garbage collector
stops tracking, so full collections never walk a large file's rows.

Ground-truth labels ride along for evaluation only: the trainer receives a
view without them.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from itertools import chain
from operator import itemgetter

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
        if self.labels is not None and self.labels.shape != (x.shape[0],):
            raise DataError("need exactly one label per row when labels are present")
        for name, ids in (("groups", g), ("labels", self.labels)):
            if ids is not None and not np.issubdtype(ids.dtype, np.integer):
                raise DataError(f"{name} must be an integer id array, got dtype {ids.dtype}")
            if ids is not None and ids.min() < 0:
                raise DataError(f"{name} must be non-negative ids")
        if np.any(np.bincount(g) == 0):
            raise DataError("group ids must be dense (no empty group)")

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
    out = features - mean
    out /= std
    return out


def _file_line(path, index):
    """Line of ``path`` on which data row ``index`` of ``read_csv`` starts.

    Error paths only: it reads the file again, counting blank lines and the
    line breaks inside quoted cells, which ``read_csv`` does not keep.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        starts, start = [], 1
        for row in reader:
            if row:
                starts.append(start)
            start = reader.line_num + 1
    return starts[index + 1]  # the header is the first non-blank record


def read_csv(path):
    """Header list and data rows of a UTF-8 CSV file; blank lines and a byte-order mark are skipped.

    Each data row is a tuple of ``str``: the cyclic garbage collector stops
    tracking such a tuple at its first young collection, while a list of a
    large file's rows would be walked again by every full collection.

    Rejects an empty file, repeated column names, a header with no data
    rows, and a row whose cell count differs from the header's. Messages
    name a row by the file line it starts on, blank lines included, so the
    header on line 1 is followed by row 2 in a file without blank lines.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = filter(None, csv.reader(fh))
        header = next(records, None)
        rows = list(map(tuple, records))
    if header is None:
        raise DataError(f"{path}: empty file")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if not rows:
        raise DataError(f"{path}: header only, no data rows")
    if set(map(len, rows)) != {len(header)}:
        r, row = next((r, row) for r, row in enumerate(rows) if len(row) != len(header))
        raise DataError(f"{path}: row {_file_line(path, r)} has {len(row)} cells, header has {len(header)}")
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
        r = next(r for r, row in enumerate(rows) if not row[i].strip())
        raise DataError(f"{path}: row {_file_line(path, r)} is missing its {role} value in column {name!r}")
    return np.asarray(out, dtype=np.int64), tuple(ids)


def load_csv(path, group_column: str, label_column: str | None = None,
             standardize_features: bool = True) -> Dataset:
    """Load a dataset from CSV.

    All columns except the group and label columns must be numeric features.
    A feature cell is read by Python's ``float()``, so surrounding
    whitespace, digit-group underscores and non-ASCII decimal digits are
    accepted. Besides ``read_csv``'s and ``label_ids``' rules, rejects a file
    with no feature columns and non-numeric or non-finite feature cells,
    naming the row and column of the first one in row-major order.
    """
    header, rows = read_csv(path)
    f_idx = [i for i, name in enumerate(header) if name not in (group_column, label_column)]
    if not f_idx:
        raise DataError(f"{path}: no feature columns left")
    groups, group_names = label_ids(path, header, rows, group_column, "group")
    labels, label_names = (None, None)
    if label_column is not None:
        labels, label_names = label_ids(path, header, rows, label_column, "label")

    # one pass of Python's float() over the cells, row-major; itemgetter
    # gives the cell itself, not a 1-tuple, for a single feature column
    cells = map(itemgetter(*f_idx), rows)
    if len(f_idx) > 1:
        cells = chain.from_iterable(cells)
    try:
        features = np.fromiter(map(float, cells), np.float64, len(rows) * len(f_idx))
    except ValueError:  # error path: find the first bad cell
        for r, row in enumerate(rows):
            for i in f_idx:
                try:
                    float(row[i])
                except ValueError:
                    raise DataError(
                        f"{path}: row {_file_line(path, r)}, column {header[i]!r}: non-numeric value {row[i]!r}"
                    ) from None
    features = features.reshape(len(rows), len(f_idx))
    if not np.all(np.isfinite(features)):
        r, j = np.argwhere(~np.isfinite(features))[0]
        i = f_idx[j]
        raise DataError(
            f"{path}: row {_file_line(path, r)}, column {header[i]!r}: non-finite value {rows[r][i]!r}"
        )

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
    else the dense ids; floats use shortest round-trip formatting. The file
    is UTF-8, as ``read_csv`` expects.
    """
    names = dataset.feature_names or tuple(f"f{i}" for i in range(dataset.dim))
    header = list(names) + ["group"] + (["label"] if dataset.labels is not None else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
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

def record_from_dict(cls, raw: dict, error, what: str):
    """Build dataclass ``cls`` from a dict of its fields; ``error`` names unknown and missing keys."""
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls)
               if f.name not in raw and f.default is MISSING and f.default_factory is MISSING]
    problems = [f"{kind} {what} keys: {', '.join(names)}"
                for kind, names in (("unknown", unknown), ("missing", missing)) if names]
    if problems:
        raise error("; ".join(problems))
    return cls(**raw)


def check_scalar_fields(record, error):
    """Reject a dataclass's bad ``int`` and ``float`` fields by name, raising ``error``.

    An ``int`` field must hold an integer other than a bool; a ``float``
    field a finite real number, an integer included.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        is_bool = isinstance(value, bool)
        if f.type in ("int", int) and (is_bool or not isinstance(value, numbers.Integral)):
            raise error(f"{f.name} must be an integer, got {value!r}")
        if f.type in ("float", float) and (is_bool or not isinstance(value, numbers.Real)
                                           or not math.isfinite(value)):
            raise error(f"{f.name} must be a finite number, got {value!r}")


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
        check_scalar_fields(self, DataError)
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
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
