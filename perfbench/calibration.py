"""Host-speed calibration for the end-to-end timings.

The speed of a shared two-core host drifts by up to 1.6x over minutes: the
loops below took 10-11 ms in one half hour and 15-16 ms in the next, and
fairmi calls slowed by a like factor. Wall times from runs minutes apart then
differ by more than any change worth measuring. So the benchmark runs fixed
loops before and after every set-up and op, for a twentieth of its time on
each side, and reports end-to-end timings in reference seconds: measured
seconds times ``REFERENCE_MS`` over the mean loop time of the same stretch
of the run (its set-ups, or its ops), without the fastest and slowest fifth
of the loops. The loops use no fairmi code, so a change to the program moves
the timings and not the scale.

Two loops, because fits and large-array calls do not slow alike. The
``vector`` loop (mid-size arrays, a k-means assignment step, dict updates)
scales ``eval_s`` and ``metrics_s``: over five runs of score_heldout the
run means of ``fairmi metrics`` ranged over 34% measured and 15% scaled.
Fits (small-batch steps and a 10-restart k-means on 900 rows per epoch) do
not follow it: over five 25 s processes of identical fits the means ranged
over 8% measured and 14% scaled by it. A loop of the kind of ``fit`` below
(a small autoencoder step with Adam, Lloyd on 900 rows, in plain numpy)
narrowed that range to 4%. So each workload scales its large-array calls
(score_heldout's ``eval_s`` and ``metrics_s``) by the ``vector`` loop and
everything else, fits, epochs, set-up and calls on 900 rows, by the ``fit``
loop. Neither loop follows every drift: in some stretches all timings rose
by 10-20% over minutes while the loop times held, so ten-seed spreads of the
fit-based timings still reach 0.08-0.15 of their median.

Means, not medians, of the loop times: the host switches between a fast and
a slow state within seconds, and an op's time follows the share of time spent
slow, which the median of 10 ms loops misses. The measured seconds and the
loop times are printed with every result.
"""

from time import perf_counter

import numpy as np

REFERENCE_MS = 10.0

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 64))
_W = _rng.standard_normal((64, 64))
_X = _rng.standard_normal((2000, 16))

_F = _rng.standard_normal((900, 16))
_LAYERS = [_rng.standard_normal(shape) * 0.3 for shape in ((16, 32), (32, 8), (8, 32), (32, 16))]


def vector_ms():
    """Time a fixed mix of small dense layers, a k-means assignment step on
    2,000 rows and interpreter-bound dict updates."""
    centers = _X[:3]
    t0 = perf_counter()
    for _ in range(20):
        h = np.tanh(_A @ _W)
        (h * (1.0 - h * h)).T @ _A
        ((_X[:, None, :] - centers[None]) ** 2).sum(axis=2).argmin(axis=1)
        table = {}
        for i in range(300):
            table[i] = i * 0.5
    return 1e3 * (perf_counter() - t0)


def fit_ms():
    """Time one epoch of a small tanh autoencoder on 900 rows (forward,
    backward and an Adam update per batch of 128), then four short Lloyd runs
    on its 8-d codes."""
    t0 = perf_counter()
    layers = [w.copy() for w in _LAYERS]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in layers]
    for start in range(0, len(_F), 128):
        x = _F[start:start + 128]
        acts = [x]
        for w in layers:
            acts.append(np.tanh(acts[-1] @ w))
        g = 2.0 * (acts[-1] - x) / len(x)
        for i in range(len(layers) - 1, -1, -1):
            g = g * (1.0 - acts[i + 1] ** 2)
            grad = acts[i].T @ g
            g = g @ layers[i].T
            m, v = moments[i]
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad ** 2
            moments[i] = (m, v)
            layers[i] = layers[i] - 1e-3 * m / (np.sqrt(v) + 1e-8)
    h = np.tanh(np.tanh(_F @ layers[0]) @ layers[1])
    for r in range(4):
        centers = h[[r, r + 300, r + 600]]
        for _ in range(6):
            labels = ((h[:, None, :] - centers[None]) ** 2).sum(axis=2).argmin(axis=1)
            centers = np.stack([h[labels == k].mean(axis=0) if np.any(labels == k) else centers[k]
                                for k in range(3)])
    return 1e3 * (perf_counter() - t0)


LOOPS = {"vector": vector_ms, "fit": fit_ms}
