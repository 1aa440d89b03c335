"""Tools shared by the tests: a finite-difference gradient check, a traced peak and a
writer of a checkpoint's header and weights."""

import struct
import tracemalloc

import numpy as np

from fairmi.autodiff import GraphError


def grad_check(scalar_fn, point: np.ndarray, step: float) -> float:
    """Compare an analytic gradient against central finite differences.

    `scalar_fn(x)` must return `(value, grad)` with `grad` shaped like `x`.
    Returns max over coordinates of |analytic - central| / max(1, |central|).
    """
    if step <= 0.0:
        raise GraphError("grad_check step must be positive")
    point = np.asarray(point, dtype=np.float64)
    _, grad = scalar_fn(point)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != point.shape:
        raise GraphError(f"gradient shape {grad.shape} does not match point {point.shape}")
    flat = point.ravel()
    gflat = grad.ravel()
    worst = 0.0
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        plus = float(scalar_fn(bumped.reshape(point.shape))[0])
        bumped[i] = flat[i] - step
        minus = float(scalar_fn(bumped.reshape(point.shape))[0])
        central = (plus - minus) / (2.0 * step)
        if not np.isfinite(central):
            raise GraphError(f"non-finite finite-difference at coordinate {i}")
        err = abs(gflat[i] - central) / max(1.0, abs(central))
        if err > worst:
            worst = err
    return worst


def traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, over one call of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def weights_blob(params, version=2) -> bytes:
    """A checkpoint's header and weights for ``params``, up to where the scoring block starts,
    built independently of save_checkpoint."""
    dims = params.layer_dims
    head = struct.pack(f"<4sII{len(dims)}II", b"FCMI", version, len(dims), *dims, params.group_count)
    return head + b"".join(a.astype("<f8").tobytes() for a in params.arrays.values())
