"""Fully-connected autoencoder with a shared encoder and per-group decoders.

The encoder maps features to a latent code through tanh hidden layers and a
linear final layer. Each sensitive group owns a disjoint decoder branch that
mirrors the encoder; a sample is reconstructed only by the branch of its own
group, so group-specific appearance can be absorbed by the branch instead of
the shared code.

Parameters live in one :class:`ModelParams` record, a dict of arrays keyed
by their `_layout` names in checkpoint order. The trainer's optimizer updates
its record's arrays in place, so the record `fit` returns holds copies of
them. It also carries a :class:`Scoring`: the final cluster centers, the
training feature transform and the feature names. A checkpoint is such a
record: it stores the scoring after the weights, and a record without one
is neither saved nor loaded.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import check_array, check_centers, check_number, check_seed, check_tau, check_widths

CHECKPOINT_MAGIC = b"FCMI"
CHECKPOINT_VERSION = 2


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Scoring:
    """What scoring new rows takes besides the weights.

    ``centers`` (k x latent width) and ``tau`` give the soft assignment of
    the training latents the last epoch log was measured with.
    ``transform`` is the (mean, std) pair per input column the training
    features were standardized with, None when they were used raw, and
    ``feature_names`` the training feature columns in order.
    ``trainer.evaluate`` scores a dataset only when its columns are these
    names, and maps a raw one through ``transform``.
    """

    centers: np.ndarray
    tau: float
    transform: tuple | None
    feature_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "centers", check_centers(self.centers, "scoring centers", ModelError))
        object.__setattr__(self, "tau", check_tau(self.tau, "scoring tau", ModelError))
        if self.transform is not None:  # kept as given: fit's scoring holds the dataset's own pair
            check_array(self.transform, "scoring transform", ModelError, (2, None))
            check_array(self.transform[1], "scoring transform std", ModelError, (None,), above=0)

    @property
    def k(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class ModelParams:
    """Encoder stack plus one mirrored decoder stack per group.

    `arrays` maps every `_layout` name to its array, in checkpoint order:
    each weight is d_in x d_out and each bias d_out, held as
    `data.check_array` returns it, so a float64 array is the one given.
    Treated as immutable during evaluation. `scoring` is None only on a
    record that never went through `fit`, such as one from `init_params`:
    it cannot be scored or saved.
    """

    layer_dims: tuple
    group_count: int
    arrays: dict
    scoring: Scoring | None = None

    def __post_init__(self):
        dims, group_count = _check_dims(self.layer_dims, self.group_count)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "group_count", group_count)
        layout = list(_layout(dims, self.group_count))
        names = [name for name, _ in layout]
        for i, (got, want) in enumerate(itertools.zip_longest(self.arrays, names)):
            if got != want:
                raise ModelError(f"parameter {i} is named {got!r} where the layout has {want!r}")
        object.__setattr__(self, "arrays", {name: check_array(self.arrays[name], name, ModelError, shape)
                                            for name, shape in layout})
        s = self.scoring
        if s is not None:
            shapes = [("centers", s.centers.shape[1:], (dims[-1],))]
            shapes += [(f"transform {part}", np.shape(a), (dims[0],))
                       for part, a in zip(("mean", "std"), s.transform or ())]
            shapes.append(("feature names", (len(s.feature_names),), (dims[0],)))
            for what, got, want in shapes:
                if got != want:
                    raise ModelError(f"scoring {what} have shape {got} where the layers need {want}")

    def all_arrays(self):
        """The (W, b) pairs in layout order: the encoder's, then each branch's."""
        arrays = iter(self.arrays.values())
        return zip(arrays, arrays)


def _check_dims(layer_dims, group_count):
    """The >= 2 widths as a tuple of ints and the group count as an int, once each is checked by name."""
    dims = check_widths(tuple(layer_dims), "layer_dims", 2, ModelError)
    check_number(group_count, "group_count", ModelError, least=1, integer=True)
    return dims, int(group_count)


def _layout(layer_dims, group_count: int):
    """Yield the (name, shape) of every parameter array in checkpoint order.

    Encoder layers first, then each group's branch, whose widths mirror the
    encoder's; W (d_in x d_out) precedes b (d_out) in every layer.
    """
    for base, chain in [("enc", layer_dims)] + [(f"dec.{t}", layer_dims[::-1]) for t in range(group_count)]:
        for i, (din, dout) in enumerate(zip(chain[:-1], chain[1:])):
            yield f"{base}.{i}.W", (din, dout)
            yield f"{base}.{i}.b", (dout,)


def init_params(layer_dims, group_count: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases; deterministic per seed.

    `layer_dims` runs from the input width to the latent width; decoder
    branches mirror it. All branches get distinct draws from one stream.
    """
    dims, group_count = _check_dims(layer_dims, group_count)
    check_seed(seed, "seed", ModelError)
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _layout(dims, group_count):
        if len(shape) == 2:
            limit = np.sqrt(6.0 / sum(shape))
            arrays[name] = rng.uniform(-limit, limit, size=shape)
        else:
            arrays[name] = np.zeros(shape)
    return ModelParams(dims, group_count, arrays)


def encode(params: ModelParams, x: np.ndarray) -> np.ndarray:
    z = check_array(x, "features", ModelError, (None, params.layer_dims[0]))
    depth = len(params.layer_dims) - 1  # the encoder's pairs come first
    for i, (w, b) in enumerate(itertools.islice(params.all_arrays(), depth), start=1):
        z = z @ w  # a fresh array per layer, so the in-place steps never touch x
        z += b
        if i != depth:
            np.tanh(z, out=z)  # hidden layers only; the final layer stays linear
    return z


# ---------------------------------------------------------------------------
# graph builders (training path)

def param_input_nodes(layer_dims, group_count: int) -> dict[str, ad.Node]:
    """One named autodiff input per parameter array."""
    return {name: ad.input_node(name, shape) for name, shape in _layout(layer_dims, group_count)}


def _stack_graph(z, names, nodes):
    last = len(names) - 1
    for i, base in enumerate(names):
        z = ad.add(ad.matmul(z, nodes[f"{base}.W"]), nodes[f"{base}.b"])
        if i != last:
            z = ad.tanh(z)
    return z


def encoder_graph(x_node: ad.Node, nodes: dict, layer_dims) -> ad.Node:
    depth = len(layer_dims) - 1
    return _stack_graph(x_node, [f"enc.{i}" for i in range(depth)], nodes)


def reconstruction_graph(x_node: ad.Node, h_node: ad.Node, nodes: dict, layer_dims,
                         groups: np.ndarray) -> ad.Node:
    """Mean squared reconstruction error with per-group decoder routing.

    Groups absent from the batch contribute nothing, so their branch
    parameters receive exactly zero gradient.
    """
    groups = np.asarray(groups)
    n = groups.shape[0]
    depth = len(layer_dims) - 1
    total = None
    for t in np.unique(groups):
        idx = np.flatnonzero(groups == t)
        h_t = ad.select_rows(h_node, idx)
        x_t = ad.select_rows(x_node, idx)
        rec_t = _stack_graph(h_t, [f"dec.{int(t)}.{i}" for i in range(depth)], nodes)
        err = ad.subtract(x_t, rec_t)
        sse_t = ad.sum_all(ad.multiply(err, err))
        total = sse_t if total is None else ad.add(total, sse_t)
    return ad.scale(total, 1.0 / n)


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout (all integers u32 little-endian, all floats f64 little-endian):
#   bytes 0..3   magic "FCMI"
#   u32          version, 2
#   u32          number of encoder layer dims L
#   L x u32      layer dims, input width first, latent width last
#   u32          group count T
#   then each parameter array as raw f64, in `_layout` order:
#   encoder layer 0 W, encoder layer 0 b, ..., encoder layer L-2 W/b,
#   branch 0 layer 0 W/b ... branch T-1 last layer W/b (branches mirror dims).
#   then the scoring block:
#   u32          k >= 2, the center count
#   f64          tau
#   u32          1 when a feature transform follows, else 0
#   u32          feature name count, equal to the input width
#   k x latent   centers, row by row
#   input x 2    the transform's means, then its stds (when present)
#   input x u32  byte length of each name
#   the names as UTF-8, back to back

_SCORING_HEAD = "<IdII"


def _scoring_bytes(scoring):
    names = [name.encode("utf-8") for name in scoring.feature_names]
    arrays = [scoring.centers, *(scoring.transform or ())]
    return [struct.pack(_SCORING_HEAD, scoring.k, scoring.tau, scoring.transform is not None, len(names)),
            *(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays),
            struct.pack(f"<{len(names)}I", *map(len, names)), *names]


def save_checkpoint(params: ModelParams, path):
    if params.scoring is None:
        raise ModelError("the record holds no trained centers (it never went through fit): "
                         "save a record that fit returned")
    dims = params.layer_dims
    header = struct.pack(
        f"<4sII{len(dims)}II",
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(dims), *dims, params.group_count,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for a in params.arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        fh.writelines(_scoring_bytes(params.scoring))


class _Cursor:
    """A checkpoint's bytes read front to back; a read past the end names the part it needed."""

    def __init__(self, blob):
        self.blob, self.at = blob, 0

    def need(self, size, part):
        if len(self.blob) - self.at < size:
            raise ModelError(f"checkpoint ends in its {part}: it holds {len(self.blob)} bytes "
                             f"where {self.at + size} are needed")

    def unpack(self, fmt, part):
        size = struct.calcsize(fmt)
        self.need(size, part)
        self.at += size
        return struct.unpack_from(fmt, self.blob, self.at - size)

    def floats(self, count, part):
        self.unpack(f"{8 * count}x", part)  # pad bytes: checked and skipped, not copied
        return np.frombuffer(self.blob, "<f8", count, self.at - 8 * count).astype(np.float64)


def load_checkpoint(path) -> ModelParams:
    """Read a version 2 checkpoint: the weights and the scoring that `fit` gave them."""
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    magic, version, ndims = cur.unpack("<4sII", "head")
    if magic != CHECKPOINT_MAGIC:
        raise ModelError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {version}")
    *dims, group_count = cur.unpack(f"<{ndims}II", "dim list")
    # size the weights before walking the layout, whose cost grows with the group count
    dims, group_count = _check_dims(dims, group_count)
    encoder = sum(math.prod(shape) for _, shape in _layout(dims, 0))
    branch = sum(math.prod(shape) for _, shape in _layout(dims, 1)) - encoder
    cur.need(8 * (encoder + group_count * branch), "weights")
    arrays = {name: cur.floats(math.prod(shape), "weights").reshape(shape)
              for name, shape in _layout(dims, group_count)}
    return ModelParams(dims, group_count, arrays, _read_scoring(cur, dims))


def _read_scoring(cur, dims):
    """The scoring block, which must run from the cursor to the end of the file."""
    k, tau, has_transform, n_names = cur.unpack(_SCORING_HEAD, "scoring head")
    width = dims[0]
    if has_transform > 1 or n_names != width:
        raise ModelError(f"scoring block flags a transform as {has_transform} and holds {n_names} "
                         f"feature names, where 0 or 1 and {width} are allowed")
    centers = cur.floats(k * dims[-1], "centers").reshape(k, dims[-1])
    transform = (cur.floats(width, "transform"), cur.floats(width, "transform")) if has_transform else None
    lengths = cur.unpack(f"<{width}I", "name lengths")
    raw = cur.unpack("".join(f"{length}s" for length in lengths), "feature names")
    if cur.at != len(cur.blob):
        raise ModelError(f"checkpoint holds {len(cur.blob)} bytes where its scoring block implies {cur.at}")
    try:
        names = tuple(name.decode("utf-8") for name in raw)
    except UnicodeDecodeError as e:  # e.object is the first name that failed
        raise ModelError(f"checkpoint feature name {raw.index(e.object)} is not UTF-8: {e}") from e
    return Scoring(centers, tau, transform, names)
