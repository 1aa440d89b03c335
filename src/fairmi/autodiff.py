"""Reverse-mode automatic differentiation over dense float64 arrays.

A computation graph is built once from named input placeholders and constant
nodes, evaluated with :func:`forward`, and differentiated with
:func:`backward`. The op set is intentionally small: exactly what the
encoder/decoder networks and the clustering/fairness objectives need
(2-d matrix products, bias addition, elementwise maps, row-wise softmax and
L2 normalization, full reductions, row selection). Shapes are inferred and
checked at build time so a malformed graph fails before any numerics run.
The numerical guards live here only, as numpy kernels that the ops run and
the numpy estimators call directly.

All arrays are float64. Gradients are accumulated in a fixed reverse
topological order, so repeated runs are bitwise reproducible. Gradients are
values: a node's first contribution becomes its gradient, and each later one
makes a new array, ``grad + g``, so no gradient is ever written in place and
one array may serve several nodes. A ``select_rows`` scatter writes into a
fresh zero array, or into a copy of the gradient the node already has. The
arrays :func:`backward` returns are never shared.

Buffers live only as long as they are needed, so a training step holds its
saved activations and a gradient frontier rather than every array of its
graph. :func:`forward` drops a computed value once its last consumer has
run, unless backward reads it (the ``_READS_*`` table beside
:func:`_accumulate`) or it is the root or 0-d. :func:`backward` drops each
node's gradient once that node has passed it on, so only input nodes keep
one. Backward never drops a value, so it can run again on the same forward.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

# Floor of the guarded log in entropy sums, so 0 * log(clamp) is exactly 0.0,
# and the jitter added to a zero row before it is normalized.
GUARD_EPS = 1e-12


def guarded_log(x: np.ndarray) -> np.ndarray:
    """log(max(x, GUARD_EPS)), elementwise."""
    return np.log(np.maximum(x, GUARD_EPS))


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / row norms, row norms); a zero row gets a GUARD_EPS jitter and a warning first."""
    norms = np.sqrt((x * x).sum(axis=1))
    zero = norms == 0.0
    if zero.any():
        logger.warning("unit_rows: %d zero-norm rows jittered by %g", int(zero.sum()), GUARD_EPS)
        x = x.copy()
        x[zero] += GUARD_EPS
        norms = np.sqrt((x * x).sum(axis=1))
    return x / norms[:, None], norms


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of each row of a 2-d array, shifted by the row max."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class GraphError(ValueError):
    """Malformed graph, shape mismatch, missing binding, or domain violation."""


class Node:
    """One vertex of a computation graph.

    ``value`` is populated by :func:`forward` and ``grad`` by
    :func:`backward`. After forward, ``value`` is left only on inputs,
    constants, the root, 0-d nodes and the nodes whose value backward reads;
    other values are dropped to None, since nothing reads them again. After
    backward, only input nodes hold a ``grad``: they hold the gradients that
    backward returns. A ``grad`` is a value too: it may be the very array
    another node received, and backward replaces it rather than adding into
    it. Nodes are plain records; all numeric state lives in numpy arrays. Do
    not mutate a node's value or grad in place.
    """

    __slots__ = ("op", "parents", "name", "shape", "factor", "indices", "value", "grad", "cache")

    def __init__(self, op, parents=(), name=None, shape=None, factor=None, indices=None):
        self.op = op
        self.parents = tuple(parents)
        self.name = name          # input nodes only
        self.shape = shape        # inferred at build time for every node
        self.factor = factor      # scale nodes only
        self.indices = indices    # select_rows nodes only
        self.value = None
        self.grad = None
        self.cache = None         # op-specific forward intermediates

    def __repr__(self):
        tag = f" '{self.name}'" if self.name is not None else ""
        return f"<Node {self.op}{tag} shape={self.shape}>"


def _as_shape(shape):
    if shape is None:
        raise GraphError("input nodes must declare a shape")
    return tuple(int(s) for s in shape)


def input_node(name: str, shape) -> Node:
    """Named placeholder; bound to an array of exactly `shape` at forward time."""
    if not name:
        raise GraphError("input nodes need a non-empty name")
    return Node("input", name=name, shape=_as_shape(shape))


def constant(value) -> Node:
    """Input with a fixed binding (centers, one-hot maps, ones rows, scalars)."""
    arr = np.asarray(value, dtype=np.float64)
    node = Node("const", shape=arr.shape)
    node.value = arr
    return node


def _binary_shapes(op, a: Node, b: Node):
    if a.shape == b.shape:
        return a.shape
    raise GraphError(f"{op} needs matching shapes, got {a.shape} vs {b.shape} at {a!r}")


def matmul(a: Node, b: Node) -> Node:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul needs (m,k)x(k,n) 2-d operands, got {a.shape} x {b.shape}")
    return Node("matmul", (a, b), shape=(a.shape[0], b.shape[1]))


def add(a: Node, b: Node) -> Node:
    """Elementwise sum; also accepts matrix + 1-d bias over the last axis."""
    if len(a.shape) == 2 and len(b.shape) == 1 and b.shape[0] == a.shape[1]:
        return Node("add_bias", (a, b), shape=a.shape)
    return Node("add", (a, b), shape=_binary_shapes("add", a, b))


def subtract(a: Node, b: Node) -> Node:
    return Node("subtract", (a, b), shape=_binary_shapes("subtract", a, b))


def multiply(a: Node, b: Node) -> Node:
    return Node("multiply", (a, b), shape=_binary_shapes("multiply", a, b))


def tanh(a: Node) -> Node:
    return Node("tanh", (a,), shape=a.shape)


def log_guarded(a: Node) -> Node:
    """:func:`guarded_log` as a graph op: the clamped log used inside entropy sums."""
    return Node("log_guarded", (a,), shape=a.shape)


def softmax_rows(a: Node) -> Node:
    if len(a.shape) != 2:
        raise GraphError(f"softmax_rows needs a 2-d operand, got shape {a.shape}")
    return Node("softmax_rows", (a,), shape=a.shape)


def normalize_rows(a: Node) -> Node:
    """:func:`unit_rows` as a graph op; zero rows get the GUARD_EPS jitter first."""
    if len(a.shape) != 2:
        raise GraphError(f"normalize_rows needs a 2-d operand, got shape {a.shape}")
    return Node("normalize_rows", (a,), shape=a.shape)


def sum_all(a: Node) -> Node:
    return Node("sum", (a,), shape=())


def scale(a: Node, factor: float) -> Node:
    """Multiply by a python constant (not a graph value)."""
    f = float(factor)
    if not np.isfinite(f):
        raise GraphError("scale factor must be finite")
    return Node("scale", (a,), shape=a.shape, factor=f)


def select_rows(a: Node, indices) -> Node:
    """Gather rows by a fixed index list (decoder routing, batch slicing)."""
    if len(a.shape) != 2:
        raise GraphError(f"select_rows needs a 2-d operand, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise GraphError("select_rows indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise GraphError(f"select_rows indices out of range for {a.shape[0]} rows")
    return Node("select_rows", (a,), shape=(int(idx.size), a.shape[1]), indices=idx)


def topo_order(root: Node) -> list[Node]:
    """Ancestors-first ordering of the graph below `root` (deterministic)."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def _compute(node: Node) -> np.ndarray:
    vals = [p.value for p in node.parents]
    op = node.op
    if op == "matmul":
        return vals[0] @ vals[1]
    if op == "add":
        return vals[0] + vals[1]
    if op == "add_bias":
        return vals[0] + vals[1][None, :]
    if op == "subtract":
        return vals[0] - vals[1]
    if op == "multiply":
        return vals[0] * vals[1]
    if op == "tanh":
        return np.tanh(vals[0])
    if op == "log_guarded":
        return guarded_log(vals[0])
    if op == "softmax_rows":
        return softmax(vals[0])
    if op == "normalize_rows":
        rows, node.cache = unit_rows(vals[0])
        return rows
    if op == "sum":
        return np.asarray(vals[0].sum())
    if op == "scale":
        return vals[0] * node.factor
    if op == "select_rows":
        return vals[0][node.indices]
    raise GraphError(f"unknown op {op!r}")


def forward(root: Node, inputs: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Evaluate the graph below `root` with the given input bindings.

    Every input node in the graph must have a binding of exactly its declared
    shape; extra bindings are ignored. Returns the root value. A computed
    value is dropped once its last consumer has run, unless it is kept (see
    :func:`_kept`).
    """
    inputs = inputs or {}
    order = topo_order(root)
    consumers, kept = _kept(order)
    for node in order:
        if node.op == "input":
            if node.name not in inputs:
                raise GraphError(f"missing binding for {node!r}")
            val = np.asarray(inputs[node.name], dtype=np.float64)
            if val.shape != node.shape:
                raise GraphError(
                    f"binding shape {val.shape} does not match declared {node.shape} at {node!r}"
                )
            if not np.all(np.isfinite(val)):
                raise GraphError(f"non-finite binding at {node!r}")
            node.value = val
        elif node.op == "const":
            pass
        else:
            node.value = _compute(node)
            for parent in node.parents:
                consumers[parent] -= 1
                if not consumers[parent] and parent not in kept:
                    parent.value = None
    return root.value


# The values each op's backward reads besides its gradient: those of its
# operands, or its own output. _accumulate and this table change together, and a
# test reads both off the source to hold them to it.
_READS_OPERANDS = frozenset({"matmul", "multiply", "log_guarded"})
_READS_OUTPUT = frozenset({"tanh", "softmax_rows", "normalize_rows"})


def _kept(order):
    """Consumer count of every node in `order`, and the nodes whose value forward keeps.

    Kept: inputs, constants, 0-d values (the loss terms a caller reads), and
    every value that backward reads by the table above. The root has no
    consumer, so forward never drops it either.
    """
    consumers = dict.fromkeys(order, 0)
    kept = set()
    for node in order:
        if not node.parents or node.shape == () or node.op in _READS_OUTPUT:
            kept.add(node)
        for parent in node.parents:
            consumers[parent] += 1
            if node.op in _READS_OPERANDS:
                kept.add(parent)
    return consumers, kept


def _accumulate(node: Node, send):
    """Pass the gradient of `node` to its parents through ``send(parent, g, rows=None)``.

    A pass-through op sends the node's own gradient on unchanged. ``rows``
    scatters ``g`` into those rows of the parent's gradient.
    """
    g = node.grad
    ps = node.parents
    op = node.op
    if op == "matmul":
        send(ps[0], g @ ps[1].value.T)
        send(ps[1], ps[0].value.T @ g)
    elif op == "add":
        send(ps[0], g)
        send(ps[1], g)
    elif op == "add_bias":
        send(ps[0], g)
        send(ps[1], g.sum(axis=0))
    elif op == "subtract":
        send(ps[0], g)
        send(ps[1], -g)
    elif op == "multiply":
        send(ps[0], g * ps[1].value)
        send(ps[1], g * ps[0].value)
    elif op == "tanh":
        d = node.value * node.value  # g * (1 - y*y), step by step in one buffer
        np.subtract(1.0, d, out=d)
        d *= g
        send(ps[0], d)
    elif op == "log_guarded":
        x = ps[0].value
        send(ps[0], g * np.where(x > GUARD_EPS, 1.0 / np.maximum(x, GUARD_EPS), 0.0))
    elif op == "softmax_rows":
        y = node.value
        inner = (g * y).sum(axis=1, keepdims=True)
        send(ps[0], y * (g - inner))
    elif op == "normalize_rows":
        y = node.value
        norms = node.cache
        inner = (g * y).sum(axis=1, keepdims=True)
        send(ps[0], (g - y * inner) / norms[:, None])
    elif op == "sum":
        send(ps[0], np.full(ps[0].shape, g))  # scalar broadcast over the operand
    elif op == "scale":
        send(ps[0], g * node.factor)
    elif op == "select_rows":
        send(ps[0], g, rows=node.indices)


def backward(root: Node) -> dict[str, np.ndarray]:
    """Backpropagate from a scalar root; returns gradients for every input node.

    forward() must have run on this graph first. The input nodes keep these
    gradients on their ``grad`` field; every other node's is dropped once
    the node has passed it on. The returned input gradients never share
    storage: one that is the very array of an earlier one is copied.
    """
    if root.value is None:
        raise GraphError("backward before forward: root has no value")
    if root.value.shape != ():
        raise GraphError(f"backward needs a scalar root, got shape {root.value.shape}")
    order = topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones(())

    def send(parent, g, rows=None):
        if rows is not None:
            total = np.zeros(parent.shape) if parent.grad is None else parent.grad.copy()
            np.add.at(total, rows, g)
        else:
            total = g if parent.grad is None else parent.grad + g
        parent.grad = total

    for node in reversed(order):
        if node.parents:
            _accumulate(node, send)
        if node.op != "input":
            node.grad = None  # every contribution to it has been sent on
    grads, returned = {}, set()
    for node in order:
        if node.op == "input":
            if id(node.grad) in returned:
                node.grad = node.grad.copy()
            returned.add(id(node.grad))
            grads[node.name] = node.grad
    return grads
