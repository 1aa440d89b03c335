"""Center computation and cluster assignment.

Centers come from plain Euclidean k-means (k-means++ seeding, Lloyd updates,
deterministic per seed). A call may also start from given centers, as
training does from the centers of the epoch before. The runs of one call,
the given start and then the seeded restarts, go one at a time, and the
lowest inertia wins. Squared distances use
the expanded form ||x||^2 - 2 x.c + ||c||^2 through BLAS, clamped at 0, and
the per-cluster sums come from a BLAS product with the one-hot labels.
Assignments are soft: cosine similarity of each latent row to each center,
sharpened by a temperature softmax, on the numpy and the graph path alike
through ``autodiff``'s kernels. An assignment is a plain (N, K) array whose
rows sum to one; its row argmax is the hard partition. Centers are treated
as constants by the training graph; gradients flow only through the latent
rows.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .data import check_array, check_centers, check_number, check_seed, check_tau

logger = logging.getLogger(__name__)

MAX_ITER = 100  # Lloyd iterations per kmeans call
TOL = 1e-6  # a run stops once no center moves this far


class ClusteringError(ValueError):
    pass


def _center_directions(centers, tau):
    """Unit rows of a finite 2-d matrix of K >= 2 centers, once tau is checked."""
    check_tau(tau, "temperature tau", ClusteringError)
    return ad.unit_rows(check_centers(centers, "centers", ClusteringError))[0]


def _plus_plus_seed(x_t, k, rng):
    """k-means++ centers drawn from the columns of ``x_t``, the (d, n) transposed points.

    Each distance pass runs its numpy loops over the n points, not over d.
    """
    n = x_t.shape[1]
    centers = np.empty((k, x_t.shape[0]))
    centers[0] = x_t[:, rng.integers(n)]
    d2 = ((x_t - centers[0][:, None]) ** 2).sum(axis=0)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            # all remaining mass sits on chosen centers; fall back to uniform
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = x_t[:, idx]
        if j < k - 1:  # the last center's distances would never be read
            d2 = np.minimum(d2, ((x_t - centers[j][:, None]) ** 2).sum(axis=0))
    return centers


def _reseed_empty(x, centers, labels, point_d2, counts):
    """Move each empty cluster onto the farthest point of a cluster that keeps a member, in place."""
    for k in np.flatnonzero(counts == 0):
        far = int(np.where(counts[labels] > 1, point_d2, -1.0).argmax())
        counts[labels[far]] -= 1
        counts[k] = 1
        centers[k] = x[far]
        labels[far] = k
        point_d2[far] = 0.0
        logger.debug("kmeans: re-seeded empty cluster %d to point %d", k, far)


def _lloyd(x, x_t, x_sq, centers, max_iter, tol):
    """One Lloyd run from the (k, d) start ``centers``; returns (centers, labels, inertia).

    ``x_t`` is ``x`` transposed into a contiguous (d, n) array and ``x_sq``
    the squared norms of its rows, as ``kmeans`` builds them once per call.
    The run stops once no center moves ``tol``. The labels and the inertia
    come from the last assignment step, and the centers are the means of
    those labels' rows. An empty cluster is re-seeded by ``_reseed_empty``.
    """
    centers = centers.copy()
    k = centers.shape[0]
    clusters = np.arange(k)[:, None]
    for _ in range(max_iter):
        # (k, n) squared distances ||c||^2 - 2 c.x + ||x||^2; scaling by -2 is exact
        d2 = (centers * -2.0) @ x_t
        d2 += x_sq
        d2 += (centers * centers).sum(axis=1)[:, None]
        nearest = d2.min(axis=0)
        # the lowest-index nearest center wins a tie: the last write is the lowest j
        labels = np.full(nearest.shape, k - 1, dtype=np.intp)
        for j in range(k - 2, -1, -1):
            np.putmask(labels, d2[j] == nearest, j)
        point_d2 = np.maximum(nearest, 0.0)
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            _reseed_empty(x, centers, labels, point_d2, counts)
        # per-cluster sums: one (k, n) x (n, d) product with the one-hot labels
        members = (labels == clusters).astype(np.float64)
        new_centers = (members @ x) / counts[:, None]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, labels, float(point_d2.sum())


def kmeans(features: np.ndarray, k: int, seed, restarts: int = 1, init=None):
    """Euclidean k-means; returns the (k, d) centers and the hard labels, as arrays.

    Deterministic for a fixed seed: an integer >= 0 or a non-empty tuple or
    list of them (numpy integers count, bools and None do not).
    With restarts > 1, restart r is seeded from seed + (r,). ``init``, a
    finite (k, d) array, adds a run started from those centers ahead of the
    seeded restarts, as a warm start. The runs go one at a time, and the
    lowest-inertia one wins (``init``, then the first restart, on a tie);
    use restarts where a stray local minimum would corrupt a reported metric.
    """
    x = check_array(features, "features", ClusteringError, (None, None))
    check_number(k, "k", ClusteringError, least=2, integer=True)
    check_number(restarts, "restarts", ClusteringError, least=1, integer=True)
    check_seed(seed, "seed", ClusteringError)
    if x.shape[0] < k:
        raise ClusteringError(f"need at least k={k} points, got {x.shape[0]}")
    if np.all(np.ptp(x, axis=0) == 0.0):
        raise ClusteringError("all points identical: clustering is degenerate")
    starts = [] if init is None else [check_array(init, "init", ClusteringError, (k, x.shape[1]))]
    if restarts == 1:
        seeds = [seed]
    else:
        base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
        seeds = [base + (r,) for r in range(restarts)]
    x_t = np.ascontiguousarray(x.T)
    x_sq = (x * x).sum(axis=1)
    starts += [_plus_plus_seed(x_t, k, np.random.default_rng(s)) for s in seeds]
    runs = (_lloyd(x, x_t, x_sq, start, MAX_ITER, TOL) for start in starts)
    centers, labels, _ = min(runs, key=lambda run: run[2])  # the first run wins a tie
    return centers, labels


def soft_assign(h: np.ndarray, centers: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax over cosine similarities to the (K, d) centers: an (N, K) array."""
    dirs = _center_directions(centers, tau)
    h = check_array(h, "latents", ClusteringError, (None, dirs.shape[1]))
    sims = ad.unit_rows(h)[0] @ dirs.T
    return ad.softmax(sims * (1.0 / tau))  # the graph path's scale, so both assign bit for bit


def soft_assign_graph(h_node: ad.Node, centers: np.ndarray, tau: float) -> ad.Node:
    """Differentiable version of :func:`soft_assign`; centers enter as constants."""
    dirs = ad.constant(_center_directions(centers, tau).T)
    sims = ad.matmul(ad.normalize_rows(h_node), dirs)
    return ad.softmax_rows(ad.scale(sims, 1.0 / tau))
