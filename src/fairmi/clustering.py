"""Center computation and cluster assignment.

Centers come from plain Euclidean k-means (k-means++ seeding, Lloyd updates,
deterministic per seed). All restarts of one call run as one batched Lloyd
pass, and a restart ends exactly as it would alone. Squared distances use
the expanded form ||x||^2 - 2 x.c + ||c||^2 through BLAS, clamped at 0, and
the per-cluster sums come from a BLAS product with the one-hot labels.
Assignments are soft: cosine similarity of each latent row to each center,
sharpened by a temperature softmax, on the numpy and the graph path alike
through ``autodiff``'s kernels. Centers are treated as constants by the
training graph; gradients flow only through the latent rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

logger = logging.getLogger(__name__)

MAX_ITER = 100  # Lloyd iterations per kmeans call
TOL = 1e-6  # a restart stops once no center moves this far


class ClusteringError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterCenters:
    """K x latent_dim center matrix."""

    centers: np.ndarray

    def __post_init__(self):
        c = self.centers
        if c.ndim != 2 or c.shape[0] < 2:
            raise ClusteringError("need a 2-d center matrix with K >= 2")
        if not np.all(np.isfinite(c)):
            raise ClusteringError("centers must be finite")

    @property
    def k(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class SoftAssignment:
    """Row-stochastic N x K assignment matrix plus the temperature that made it.

    Softmax output keeps every entry strictly inside (0, 1); the container
    also accepts one-hot matrices.
    """

    probs: np.ndarray
    tau: float

    def __post_init__(self):
        p = self.probs
        if p.ndim != 2 or p.shape[1] < 1:
            raise ClusteringError("assignment matrix must be 2-d")
        _check_temperature(self.tau)
        if not np.all(np.isfinite(p)):
            raise ClusteringError("assignment entries must be finite")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ClusteringError("assignment entries must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise ClusteringError("assignment rows must sum to 1")

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    def hard(self) -> np.ndarray:
        return self.probs.argmax(axis=1)


def _check_temperature(tau):
    if not 0.0 < tau < np.inf:
        raise ClusteringError(f"temperature must be a finite number > 0, got {tau}")


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
            # the draw of rng.choice(n, p=d2 / total), without its per-call checks
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
        centers[j] = x_t[:, idx]
        if j < k - 1:  # the last center's distances would never be read
            d2 = np.minimum(d2, ((x_t - centers[j][:, None]) ** 2).sum(axis=0))
    return centers


def _reseed_empty(x, restart, centers, labels, point_d2):
    """Move each empty cluster of one restart onto its farthest point, in place."""
    for k in range(centers.shape[0]):
        if not np.any(labels == k):
            far = int(point_d2.argmax())
            centers[k] = x[far]
            labels[far] = k
            point_d2[far] = -1.0
            logger.debug("kmeans: restart %d re-seeded empty cluster %d to point %d", restart, k, far)
    np.maximum(point_d2, 0.0, out=point_d2)


def _lloyd(x, x_t, centers, max_iter, tol):
    """Lloyd updates of R restarts at once; returns (centers, labels, inertia histories).

    ``x_t`` is ``x`` transposed into a contiguous (d, n) array, as
    ``kmeans`` builds it for the seeding too. ``centers`` holds the (R, k,
    d) initial centers; the result is the (R, k, d) final centers, the
    (R, n) labels and one inertia list per restart, recorded after each
    assignment step. A restart is frozen once its centers move less than
    ``tol``, and ends exactly as it would alone: its products keep their
    single-restart shapes. An empty cluster is re-seeded to the point
    currently farthest from its assigned center.
    """
    centers = centers.copy()
    n_restarts, k, _ = centers.shape
    x_sq = (x * x).sum(axis=1)
    clusters = np.arange(k)[:, None]
    labels = np.empty((n_restarts, x.shape[0]), dtype=np.intp)
    history = [[] for _ in range(n_restarts)]
    active = np.arange(n_restarts)
    for _ in range(max_iter):
        c = centers[active]
        # (A, k, n) squared distances ||c||^2 - 2 c.x + ||x||^2, one
        # (k, d) x (d, n) product per active restart; scaling by -2 is exact
        d2 = np.matmul(c * -2.0, x_t)
        d2 += x_sq
        d2 += (c * c).sum(axis=2)[:, :, None]
        nearest = d2.min(axis=1)
        # the lowest-index nearest center wins a tie: the last write is the lowest j
        lab = np.full(nearest.shape, k - 1, dtype=np.intp)
        for j in range(k - 2, -1, -1):
            np.putmask(lab, d2[:, j] == nearest, j)
        point_d2 = np.maximum(nearest, 0.0)
        members = (lab[:, None, :] == clusters).astype(np.float64)
        counts = members.sum(axis=2)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            _reseed_empty(x, active[a], c[a], lab[a], point_d2[a])
            members[a] = lab[a] == clusters
            counts[a] = members[a].sum(axis=1)
        for r, inertia in zip(active, point_d2.sum(axis=1)):
            history[r].append(float(inertia))
        # per-cluster sums: one (k, n) x (n, d) product per active restart
        new_centers = np.matmul(members, x) / counts[:, :, None]
        shift = np.sqrt(((new_centers - c) ** 2).sum(axis=2)).max(axis=1)
        centers[active] = new_centers
        labels[active] = lab
        active = active[~(shift < tol)]
        if active.size == 0:
            break
    return centers, labels, history


def kmeans(features: np.ndarray, k: int, seed, restarts: int = 1):
    """Euclidean k-means; returns (ClusterCenters, hard labels).

    Deterministic for a fixed seed (seed may be an int or a tuple of ints).
    With restarts > 1, restart r is seeded from seed + (r,), all restarts run
    as one batched Lloyd pass, and the lowest-inertia solution wins (the
    first restart on a tie), bit for bit the result of the best
    single-restart call; use this where a stray local minimum would corrupt
    a reported metric.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ClusteringError("features must be 2-d")
    if k < 2:
        raise ClusteringError("k must be >= 2")
    if x.shape[0] < k:
        raise ClusteringError(f"need at least k={k} points, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ClusteringError("features must be finite")
    if np.all(np.ptp(x, axis=0) == 0.0):
        raise ClusteringError("all points identical: clustering is degenerate")
    if restarts < 1:
        raise ClusteringError("restarts must be >= 1")
    if restarts == 1:
        seeds = [seed]
    else:
        base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
        seeds = [base + (r,) for r in range(restarts)]
    x_t = np.ascontiguousarray(x.T)
    centers0 = np.stack([_plus_plus_seed(x_t, k, np.random.default_rng(s)) for s in seeds])
    centers, labels, history = _lloyd(x, x_t, centers0, MAX_ITER, TOL)
    final = [h[-1] for h in history]
    best = final.index(min(final))  # the first restart wins a tie
    return ClusterCenters(centers=centers[best]), labels[best]


def soft_assign(h: np.ndarray, centers: ClusterCenters, tau: float) -> SoftAssignment:
    """Temperature softmax over cosine similarities to the centers."""
    h = np.asarray(h, dtype=np.float64)
    _check_temperature(tau)
    if h.ndim != 2 or h.shape[1] != centers.centers.shape[1]:
        raise ClusteringError("latent width does not match the centers")
    sims = ad.unit_rows(h)[0] @ ad.unit_rows(centers.centers)[0].T
    return SoftAssignment(probs=ad.softmax(sims / tau), tau=tau)


def soft_assign_graph(h_node: ad.Node, centers: ClusterCenters, tau: float) -> ad.Node:
    """Differentiable version of :func:`soft_assign`; centers enter as constants."""
    _check_temperature(tau)
    dirs = ad.constant(ad.unit_rows(centers.centers)[0].T)
    sims = ad.matmul(ad.normalize_rows(h_node), dirs)
    return ad.softmax_rows(ad.scale(sims, 1.0 / tau))
