"""Dataset ingestion, synthetic data, and batching.

CSV is the interchange format: a header row, one named group column, an
optional label column, and numeric feature columns in header order. Group
and label values may be arbitrary strings; they are mapped to dense ids in
order of first appearance, which keeps repeated loads of the same file
byte-stable. Features are standardized per column by default.

This module owns CSV parsing and its checks: ``load_csv`` and the CLI's
label-only ``metrics`` input both go through ``read_csv``, which reads a
file ``CHUNK_ROWS`` rows at a time, so its memory is one chunk plus the
output arrays whatever the file's length.

A chunk's rows are csv's lists, which the cyclic garbage collector tracks
while the chunk lives; the reader drops a chunk before it reads the next.
512 rows keep one chunk under CPython's young-generation threshold of 700
net allocations, so a read runs no collection at all. Reading the three
label columns of a 200,000-row file with 300,000 other lists alive (Python
3.11, 1 BLAS thread, 12 alternating reads each) took 255 ms median with no
collection at 512 rows, 253 ms with 195 young collections (8.5 ms) at 1024
and 265 ms with 196 (7.8 ms) at 2048. A whole ``fairmi metrics`` call on
the file (16 alternating calls each) took 279, 320 and 329 ms. At 8192 rows
a read also runs a full collection (55 ms of GC).

Ground-truth labels ride along for evaluation only: the trainer receives a
view without them.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, islice
from operator import itemgetter

import numpy as np


# Rows per chunk of ``read_csv``: see the module docstring for the sweep.
CHUNK_ROWS = 512


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    groups: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple | None = None  # None: f0, f1, ..., as save_csv writes them
    group_names: tuple | None = None
    label_names: tuple | None = None
    # (mean, std) per feature column that turned the file's features into
    # these, as ``feature_transform`` gives them; None when they are raw
    transform: tuple | None = None

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
        if self.feature_names is None:
            object.__setattr__(self, "feature_names", tuple(f"f{i}" for i in range(x.shape[1])))
        if len(self.feature_names) != x.shape[1]:
            raise DataError(f"need one name per feature column: {len(self.feature_names)} names "
                            f"for {x.shape[1]} columns")
        for name, ids in (("groups", g), ("labels", self.labels)):
            if ids is not None and not np.issubdtype(ids.dtype, np.integer):
                raise DataError(f"{name} must be an integer id array, got dtype {ids.dtype}")
            if ids is not None and ids.min() < 0:
                raise DataError(f"{name} must be non-negative ids")
        # n dense ids reach at most n - 1; checked first, so no count array is sized by a stray id
        if g.max() >= g.size or np.any(np.bincount(g) == 0):
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


def feature_transform(features: np.ndarray) -> tuple:
    """Per-column (mean, std) that ``standardize`` uses; a constant column's std is 1.0."""
    std = features.std(axis=0)
    return features.mean(axis=0), np.where(std == 0.0, 1.0, std)


def _transformed(features, transform):
    mean, std = transform
    out = features - mean
    out /= std
    return out


def standardize(features: np.ndarray) -> np.ndarray:
    """Per-column zero mean, unit variance; constant columns become zero."""
    return _transformed(features, feature_transform(features))


def apply_transform(dataset: Dataset, transform) -> Dataset:
    """``dataset``'s raw features mapped through ``transform``, which the result records.

    ``transform`` is a (mean, std) pair from ``feature_transform``, or None
    for features used raw. New data is scored in a model's training
    feature space this way: the operations are those of ``standardize``,
    so the training file itself maps bit for bit onto its training features.
    """
    if dataset.transform is not None:
        raise DataError("features are transformed already; load them raw (standardize_features=False)")
    if transform is None:
        return dataset
    width = len(transform[0])
    if width != dataset.dim:
        raise DataError(f"the transform is for {width} features, the data has {dataset.dim}")
    return replace(dataset, features=_transformed(dataset.features, transform), transform=transform)


def _file_line(path, index):
    """Line of ``path`` on which data row ``index`` starts.

    Error paths only: it reads the file again, counting blank lines and the
    line breaks inside quoted cells, which the chunked reader does not keep.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        start, skip = 1, index + 1  # the header is the first non-blank record
        for row in reader:
            if row:
                if not skip:
                    return start
                skip -= 1
            start = reader.line_num + 1


def read_csv(path, columns, features: bool = False):
    """Label columns, and optionally every other column as features, of a UTF-8 CSV file.

    ``columns`` lists ``(name, role)`` pairs; ``role`` says what the column
    holds ("group", "label", ...) in error messages. Each column is mapped
    to dense int64 ids by first appearance. Returns ``(labels,
    feature_names, features)``: ``labels`` holds one ``(ids, distinct
    values)`` pair per column; with ``features`` the other columns' names
    and a float64 array of their cells read by ``float()``, else two Nones.

    Blank lines and a byte-order mark are skipped. Rows are read
    ``CHUNK_ROWS`` at a time, so memory holds one chunk besides the output
    arrays. A column named in ``columns`` for two roles fails before the
    file is opened. Header faults come next: an empty file, repeated column
    names, a header with no data rows, no feature columns (with
    ``features``), a missing column. Then each chunk is checked in turn for
    a cell count that differs from the header's, a blank or whitespace-only
    label cell (column by column), a non-numeric feature cell and a
    non-finite one (row-major); the first fault of the first chunk with one
    is reported. Messages name a row by the file line it starts on, blank
    lines included, so the header on line 1 is followed by row 2 in a file
    without blank lines.
    """
    roles = {}
    for name, role in columns:
        if name in roles:
            raise DataError(f"{path}: column {name!r} is named for two roles, {roles[name]} and {role}")
        roles[name] = role
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = filter(None, csv.reader(fh))
        header = next(records, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        chunk = list(islice(records, CHUNK_ROWS))
        if not chunk:
            raise DataError(f"{path}: header only, no data rows")
        f_idx = None
        if features:
            names = {name for name, _ in columns}
            f_idx = [i for i, name in enumerate(header) if name not in names]
            if not f_idx:
                raise DataError(f"{path}: no feature columns left")
        for name, _ in columns:
            if name not in header:
                raise DataError(f"{path}: no column named {name!r}")
        # per column: index, name, role, value -> id dict, id blocks
        cols = [(header.index(name), name, role, {}, []) for name, role in columns]
        feature_blocks = []
        start = 0  # data row index of the chunk's first row
        while chunk:
            if set(map(len, chunk)) != {len(header)}:
                r, row = next((r, row) for r, row in enumerate(chunk) if len(row) != len(header))
                raise DataError(
                    f"{path}: row {_file_line(path, start + r)} has {len(row)} cells, header has {len(header)}"
                )
            for i, name, role, ids, blocks in cols:
                seen = len(ids)
                blocks.append(np.array([ids.setdefault(row[i], len(ids)) for row in chunk], np.int64))
                # a blank value is new in the chunk where it first appears
                if any(not value.strip() for value in islice(reversed(ids), len(ids) - seen)):
                    r = next(r for r, row in enumerate(chunk) if not row[i].strip())
                    raise DataError(
                        f"{path}: row {_file_line(path, start + r)} is missing its {role} value in column {name!r}"
                    )
            if f_idx is not None:
                feature_blocks.append(_parse_features(path, header, f_idx, chunk, start))
            start += len(chunk)
            del chunk  # so that only one chunk's rows are alive at a time
            chunk = list(islice(records, CHUNK_ROWS))
    labels = [(np.concatenate(blocks), tuple(ids)) for _, _, _, ids, blocks in cols]
    if f_idx is None:
        return labels, None, None
    return labels, tuple(header[i] for i in f_idx), np.concatenate(feature_blocks)


def _parse_features(path, header, f_idx, chunk, start):
    """Float64 block of the ``f_idx`` cells of ``chunk``, whose first row is data row ``start``."""
    # one pass of Python's float() over the cells, row-major; itemgetter
    # gives the cell itself, not a 1-tuple, for a single feature column
    cells = map(itemgetter(*f_idx), chunk)
    if len(f_idx) > 1:
        cells = chain.from_iterable(cells)
    try:
        block = np.fromiter(map(float, cells), np.float64, len(chunk) * len(f_idx))
    except ValueError:  # error path: find the first bad cell
        for r, row in enumerate(chunk):
            for i in f_idx:
                try:
                    float(row[i])
                except ValueError:
                    raise DataError(
                        f"{path}: row {_file_line(path, start + r)}, column {header[i]!r}: "
                        f"non-numeric value {row[i]!r}"
                    ) from None
    block = block.reshape(len(chunk), len(f_idx))
    if not np.all(np.isfinite(block)):
        r, j = np.argwhere(~np.isfinite(block))[0]
        i = f_idx[j]
        raise DataError(
            f"{path}: row {_file_line(path, start + r)}, column {header[i]!r}: non-finite value {chunk[r][i]!r}"
        )
    return block


def load_csv(path, group_column: str, label_column: str | None = None,
             standardize_features: bool = True) -> Dataset:
    """Load a dataset from CSV through ``read_csv``.

    All columns except the group and label columns must be numeric features.
    A feature cell is read by Python's ``float()``, so surrounding
    whitespace, digit-group underscores and non-ASCII decimal digits are
    accepted. ``read_csv`` names the row and column of a bad cell. With
    ``standardize_features`` the result records the (mean, std) it applied.
    """
    columns = [(group_column, "group")]
    if label_column is not None:
        columns.append((label_column, "label"))
    id_columns, feature_names, features = read_csv(path, columns, features=True)
    (groups, group_names), *rest = id_columns
    labels, label_names = rest[0] if rest else (None, None)
    transform = None
    if standardize_features:
        transform = feature_transform(features)
        features = _transformed(features, transform)
    return Dataset(
        features=features,
        groups=groups,
        labels=labels,
        feature_names=feature_names,
        group_names=group_names,
        label_names=label_names,
        transform=transform,
    )


def save_csv(dataset: Dataset, path):
    """Write features, group, and (if present) label columns.

    Group/label cells carry the original values when the dataset kept them,
    else the dense ids; floats use shortest round-trip formatting. The file
    is UTF-8, as ``read_csv`` expects.
    """
    header = list(dataset.feature_names) + ["group"] + (["label"] if dataset.labels is not None else [])
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


def check_ranges(record, error, at_least=(), above=()):
    """Reject a field out of its range by name and value, raising ``error``.

    ``at_least`` holds (field, minimum) pairs and ``above`` (field, bound)
    pairs, the bound itself excluded; fields are checked in that order. The
    fields are numbers by then, so a numpy scalar prints as its value.
    """
    for name, low in at_least:
        if getattr(record, name) < low:
            raise error(f"{name} must be >= {low}, got {getattr(record, name)}")
    for name, low in above:
        if getattr(record, name) <= low:
            raise error(f"{name} must be > {low}, got {getattr(record, name)}")


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
        check_ranges(self, DataError,
                     at_least=(("classes", 1), ("groups", 1), ("per_cell_count", 1), ("noise_sd", 0)),
                     above=(("class_sep", 0),))
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
