"""Fully-connected autoencoder with a shared encoder and per-group decoders.

The encoder maps features to a latent code through tanh hidden layers and a
linear final layer. Each sensitive group owns a disjoint decoder branch that
mirrors the encoder; a sample is reconstructed only by the branch of its own
group, so group-specific appearance can be absorbed by the branch instead of
the shared code.

Parameters live in one :class:`ModelParams` record, a dict of arrays keyed
by their `_layout` names in checkpoint order. The trainer's optimizer updates
its record's arrays in place, so every record the trainer hands out holds
copies of them.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

CHECKPOINT_MAGIC = b"FCMI"
CHECKPOINT_VERSION = 1


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Encoder stack plus one mirrored decoder stack per group.

    `arrays` maps every `_layout` name to its array, in checkpoint order:
    each weight is d_in x d_out and each bias d_out. Treated as immutable
    during evaluation.
    """

    layer_dims: tuple
    group_count: int
    arrays: dict

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        _check_dims(dims, self.group_count)
        layout = list(_layout(dims, self.group_count))
        names = [name for name, _ in layout]
        for i, (got, want) in enumerate(itertools.zip_longest(self.arrays, names)):
            if got != want:
                raise ModelError(f"parameter {i} is named {got!r} where the layout has {want!r}")
        for name, shape in layout:
            a = self.arrays[name]
            if a.shape != shape:
                raise ModelError(f"{name} has shape {a.shape}, wanted {shape}")
            if not (np.issubdtype(a.dtype, np.floating) and np.all(np.isfinite(a))):
                raise ModelError(f"{name} is non-finite or not a float array")

    def all_arrays(self):
        """The (W, b) pairs in layout order: the encoder's, then each branch's."""
        arrays = iter(self.arrays.values())
        return zip(arrays, arrays)


def _check_dims(dims, group_count: int):
    if len(dims) < 2 or min(dims) < 1 or group_count < 1:
        raise ModelError("need an input and a latent width, every width >= 1, and >= 1 group; "
                         f"got widths {list(dims)} and {group_count} groups")


def _layout(layer_dims, group_count: int):
    """Yield the (name, shape) of every parameter array in checkpoint order.

    Encoder layers first, then each group's branch, whose widths mirror the
    encoder's; W (d_in x d_out) precedes b (d_out) in every layer.
    """
    dims = [int(d) for d in layer_dims]
    for base, chain in [("enc", dims)] + [(f"dec.{t}", dims[::-1]) for t in range(group_count)]:
        for i, (din, dout) in enumerate(zip(chain[:-1], chain[1:])):
            yield f"{base}.{i}.W", (din, dout)
            yield f"{base}.{i}.b", (dout,)


def init_params(layer_dims, group_count: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases; deterministic per seed.

    `layer_dims` runs from the input width to the latent width; decoder
    branches mirror it. All branches get distinct draws from one stream.
    """
    dims = [int(d) for d in layer_dims]
    _check_dims(dims, group_count)
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
    x = np.asarray(x, dtype=np.float64)
    width = params.layer_dims[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ModelError(f"expected (n, {width}) features, got {x.shape}")
    z = x
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
        sse_t = ad.sum_all(ad.square(ad.subtract(x_t, rec_t)))
        total = sse_t if total is None else ad.add(total, sse_t)
    return ad.scale(total, 1.0 / n)


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout (all integers u32 little-endian, all floats f64 little-endian):
#   bytes 0..3   magic "FCMI"
#   u32          version (currently 1)
#   u32          number of encoder layer dims L
#   L x u32      layer dims, input width first, latent width last
#   u32          group count T
#   then each parameter array as raw f64, in `_layout` order:
#   encoder layer 0 W, encoder layer 0 b, ..., encoder layer L-2 W/b,
#   branch 0 layer 0 W/b ... branch T-1 last layer W/b (branches mirror dims).

def save_checkpoint(params: ModelParams, path):
    dims = params.layer_dims
    header = struct.pack(
        f"<4sII{len(dims)}II",
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(dims), *dims, params.group_count,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for a in params.arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    head = struct.calcsize("<4sII")
    if len(blob) < head:
        raise ModelError("checkpoint truncated before header")
    magic, version, ndims = struct.unpack_from("<4sII", blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise ModelError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {version}")
    off = head
    if len(blob) < off + 4 * (ndims + 1):
        raise ModelError("checkpoint truncated in dim list")
    dims = list(struct.unpack_from(f"<{ndims}I", blob, off))
    off += 4 * ndims
    (group_count,) = struct.unpack_from("<I", blob, off)
    off += 4

    # size the file before walking the layout, whose cost grows with the group count
    _check_dims(dims, group_count)
    encoder = sum(math.prod(shape) for _, shape in _layout(dims, 0))
    branch = sum(math.prod(shape) for _, shape in _layout(dims, 1)) - encoder
    expected = off + 8 * (encoder + group_count * branch)
    if len(blob) != expected:
        raise ModelError(f"checkpoint holds {len(blob)} bytes where its header implies {expected}")
    arrays = {}
    for name, shape in _layout(dims, group_count):
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        off += 8 * count
    return ModelParams(dims, group_count, arrays)
