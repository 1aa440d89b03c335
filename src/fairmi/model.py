"""Fully-connected autoencoder with a shared encoder and per-group decoders.

The encoder maps features to a latent code through tanh hidden layers and a
linear final layer. Each sensitive group owns a disjoint decoder branch that
mirrors the encoder; a sample is reconstructed only by the branch of its own
group, so group-specific appearance can be absorbed by the branch instead of
the shared code.

Parameters live either as a :class:`ModelParams` record (numpy arrays) or as
a flat name->array dict; converting between the two copies no array. The
trainer's optimizer updates its flat dict in place, so every record the
trainer hands out is built from copies of those arrays.
"""

from __future__ import annotations

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

    Each stack is a list of (weight, bias) pairs; weight is d_in x d_out and
    bias is d_out. Treated as immutable during evaluation.
    """

    encoder: list
    branches: list

    def __post_init__(self):
        if len(self.encoder) < 1:
            raise ModelError("encoder needs at least one layer")
        if len(self.branches) < 1:
            raise ModelError("need at least one decoder branch")
        for t, branch in enumerate(self.branches):
            if len(branch) != len(self.encoder):
                raise ModelError(f"branch {t} depth differs from encoder")
        arrays = (a for layer in self.all_arrays() for a in layer)
        for (name, shape), a in zip(_layout(self.layer_dims, self.group_count), arrays):
            if a.shape != shape:
                raise ModelError(f"{name} has shape {a.shape}, wanted {shape}")
            if not (np.issubdtype(a.dtype, np.floating) and np.all(np.isfinite(a))):
                raise ModelError(f"{name} is non-finite or not a float array")

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [w.shape[1] for w, _ in self.encoder]

    @property
    def input_dim(self) -> int:
        return self.encoder[0][0].shape[0]

    @property
    def group_count(self) -> int:
        return len(self.branches)

    def all_arrays(self):
        for w, b in self.encoder:
            yield w, b
        for branch in self.branches:
            for w, b in branch:
                yield w, b


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
    if len(dims) < 2:
        raise ModelError("layer_dims needs at least an input and a latent width")
    if any(d < 1 for d in dims):
        raise ModelError("layer widths must be positive")
    if group_count < 1:
        raise ModelError("group_count must be >= 1")
    rng = np.random.default_rng(seed)
    flat = {}
    for name, shape in _layout(dims, group_count):
        if len(shape) == 2:
            limit = np.sqrt(6.0 / sum(shape))
            flat[name] = rng.uniform(-limit, limit, size=shape)
        else:
            flat[name] = np.zeros(shape)
    return params_from_flat(flat, dims, group_count)


def _run_stack(layers, x):
    z = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = z @ w  # a fresh array per layer, so the in-place steps never touch x
        z += b
        if i != last:
            np.tanh(z, out=z)  # hidden layers only; the final layer stays linear
    return z


def encode(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ModelError(f"expected (n, {params.input_dim}) features, got {x.shape}")
    return _run_stack(params.encoder, x)


# ---------------------------------------------------------------------------
# flat parameter dict <-> ModelParams (shared storage, no copies)

def flatten_params(params: ModelParams) -> dict[str, np.ndarray]:
    arrays = (a for layer in params.all_arrays() for a in layer)
    return {name: a for (name, _), a in zip(_layout(params.layer_dims, params.group_count), arrays)}


def params_from_flat(flat: dict[str, np.ndarray], layer_dims, group_count: int) -> ModelParams:
    arrays = iter([flat[name] for name, _ in _layout(layer_dims, group_count)])
    layers = list(zip(arrays, arrays))  # (W, b) pairs in layout order
    depth = len(layer_dims) - 1
    return ModelParams(
        encoder=layers[:depth],
        branches=[layers[i: i + depth] for i in range(depth, len(layers), depth)],
    )


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
        for w, b in params.all_arrays():
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


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
    if ndims < 2 or group_count < 1:
        raise ModelError("checkpoint header describes no usable model")

    flat = {}
    for name, shape in _layout(dims, group_count):
        count = math.prod(shape)
        if off + 8 * count > len(blob):
            raise ModelError("checkpoint truncated in weight data")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        flat[name] = arr.reshape(shape).astype(np.float64)
        off += 8 * count
    if off != len(blob):
        raise ModelError("checkpoint has trailing bytes")
    return params_from_flat(flat, dims, group_count)
