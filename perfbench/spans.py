"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the eight ``fairmi`` modules with
timing wrappers at runtime and restores them on ``uninstall``. Nothing in
``src/`` knows about it. A wrapper is put wherever the original function
object is bound, so names pulled in with ``from X import f`` (for example
``trainer.minibatches`` or ``metrics.group_cluster_mi``) are timed at the
place they are looked up.

A span's self time is its duration minus the time of the spans it called.
Spans are aggregated by (phase, key) in memory; the benchmark sets the phase
("setup", "fit", "eval", "metrics") around each timed call.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("data", "autodiff", "model", "clustering", "objectives", "metrics", "trainer", "cli")


def _kmeans_restarts(args, kwargs):
    return kwargs.get("restarts", args[5] if len(args) > 5 else 1)


def _kmeans_key(args, kwargs):
    return "clustering.kmeans.restarts" if _kmeans_restarts(args, kwargs) > 1 else "clustering.kmeans.refresh"


def _kmeans_rows(args, kwargs, result):
    return len(args[0]) * _kmeans_restarts(args, kwargs)


# (module, function, span key or key function, rows function or None)
SPANS = (
    ("data", "load_csv", "data.load_csv", lambda a, k, r: r.n),
    ("data", "minibatches", "data.minibatches", None),
    ("data", "generate_synthetic", "data.generate_synthetic", None),
    ("autodiff", "forward", "autodiff.forward", None),
    ("autodiff", "backward", "autodiff.backward", None),
    ("model", "param_input_nodes", "model.graph_build", None),
    ("model", "encoder_graph", "model.graph_build", None),
    ("model", "reconstruction_graph", "model.graph_build", None),
    ("model", "encode", "model.encode", lambda a, k, r: r.shape[0]),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("clustering", "kmeans", _kmeans_key, _kmeans_rows),
    ("clustering", "soft_assign", "clustering.soft_assign", None),
    ("clustering", "soft_assign_graph", "clustering.soft_assign_graph", None),
    ("objectives", "clustering_loss_graph", "objectives.graph_build", None),
    ("objectives", "group_cluster_mi_graph", "objectives.graph_build", None),
    ("objectives", "total_loss_graph", "objectives.graph_build", None),
    ("objectives", "group_cluster_mi", "objectives.group_cluster_mi", None),
    ("objectives", "conditional_mi", "objectives.conditional_mi", None),
    ("metrics", "accuracy", "metrics.accuracy", None),
    ("metrics", "nmi", "metrics.nmi", None),
    ("metrics", "balance", "metrics.balance", None),
    ("metrics", "mnce", "metrics.mnce", None),
    ("metrics", "full_report", "metrics.full_report", None),
    ("trainer", "adam_step", "trainer.adam_step", None),
    ("trainer", "fit", "trainer.fit", None),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("cli", "run", "cli.run", None),
)

# Walking a step's graph costs about as much as a small matmul, so only every
# COUNT_EVERY-th backward pass is counted; the walk runs after the backward
# span has closed.
COUNT_EVERY = 8


class Stat:
    __slots__ = ("self_s", "calls", "rows")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.rows = 0


def graph_counts(root, topo_order):
    """Nodes, matmul flops (forward + backward) and computed bytes of one step.

    Bytes are computed from the inferred node shapes, not measured: each
    computed node writes its value once in forward, and backward allocates
    one gradient buffer per node, all float64.
    """
    nodes = topo_order(root)
    flops = 0
    elements = 0
    for node in nodes:
        size = 1
        for d in node.shape:
            size *= d
        elements += size  # gradient buffer
        if node.op not in ("input", "const"):
            elements += size  # forward value
        if node.op == "matmul":
            (m, k), (_, n) = node.parents[0].shape, node.parents[1].shape
            flops += 6 * m * k * n  # one product forward, two in backward
    return len(nodes), flops, 8 * elements


class Tracer:
    """Install timing wrappers on the fairmi modules and aggregate spans."""

    def __init__(self, package="fairmi"):
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        self.package = importlib.import_module(package)
        self.phase = "setup"
        self.stats = defaultdict(Stat)
        self.step_counts = []  # (phase, nodes, flops, bytes) of sampled steps
        self._stack = []
        self._backward_calls = 0
        self._patches = []

    def install(self):
        if self._patches:
            return
        namespaces = [self.package, *self.modules.values()]
        for module_name, func_name, key, rows in SPANS:
            original = getattr(self.modules[module_name], func_name)
            wrapper = self._wrap(original, key, rows)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches = []

    def _wrap(self, fn, key, rows):
        tracer = self
        stack = self._stack
        stats = self.stats
        is_backward = fn is self.modules["autodiff"].backward
        topo_order = self.modules["autodiff"].topo_order

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span = key(args, kwargs) if callable(key) else key
                stat = stats[(tracer.phase, span)]
                stat.self_s += dt - child
                stat.calls += 1
            if rows is not None:
                stat.rows += rows(args, kwargs, result)
            if is_backward:
                tracer._backward_calls += 1
                if tracer._backward_calls % COUNT_EVERY == 1:
                    tracer.step_counts.append((tracer.phase, *graph_counts(args[0], topo_order)))
            return result

        return wrapper

    def totals(self, phases, key):
        """Summed Stat of one span key over the given phases."""
        out = Stat()
        for phase in phases:
            stat = self.stats.get((phase, key))
            if stat is not None:
                out.self_s += stat.self_s
                out.calls += stat.calls
                out.rows += stat.rows
        return out

    def module_self_s(self, phases, module):
        return sum(stat.self_s for (phase, key), stat in self.stats.items()
                   if phase in phases and key.split(".", 1)[0] == module)

    def seen(self):
        """Span keys that recorded at least one call, in any phase."""
        return {key for (_, key), stat in self.stats.items() if stat.calls}
