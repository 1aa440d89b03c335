"""Evaluation metrics for fairness-aware clustering.

Quality side: clustering accuracy under the best one-to-one cluster-to-class
matching, and normalized mutual information. Fairness side: Balance (worst
within-cluster group ratio) and the normalized conditional entropy of the
groups given the cluster (worst cluster again). A harmonic combination lets
one number trade the two sides off.

NMI normalization: mutual information divided by the square root of the
product of the two label entropies (the geometric-mean convention). Counting
estimators throughout; all entropies in nats.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .objectives import _mutual_information, _xlogx

logger = logging.getLogger(__name__)


class MetricError(ValueError):
    pass


def _labels(a, name):
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.size == 0:
        raise MetricError(f"{name} must be a non-empty 1-d label array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise MetricError(f"{name} must be integer labels")
    if arr.min() < 0:
        raise MetricError(f"{name} must be non-negative ids")
    return arr.astype(np.int64)


def _present_rows(table, name):
    """Rows of a cluster-by-group table for clusters that have members."""
    sizes = table.sum(axis=1)
    if not sizes.all():
        empty = np.flatnonzero(sizes == 0).tolist()
        logger.warning("%s: cluster ids %s are empty and excluded", name, empty)
    return table[sizes > 0]


def contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = _labels(a, "a")
    b = _labels(b, "b")
    if a.shape != b.shape:
        raise MetricError("label arrays must have the same length")
    na, nb = int(a.max()) + 1, int(b.max()) + 1
    return np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)


def _entropy_from_counts(counts):
    # 0.0 - s, not -s: a point mass gives +0.0, never -0.0
    return float(0.0 - _xlogx(counts / counts.sum()).sum())


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction correct under the best one-to-one cluster-class matching."""
    # deferred: scipy.optimize takes most of a fresh process's import time,
    # and only scoring against ground truth needs it
    from scipy.optimize import linear_sum_assignment

    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / np.asarray(pred).size)


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information, geometric-mean normalization.

    Two constant labelings are a perfect match (1.0); one constant labeling
    against a varying one shares no information (0.0).
    """
    table = contingency(pred, truth).astype(np.float64)
    n = table.sum()
    h_pred = _entropy_from_counts(table.sum(axis=1))
    h_truth = _entropy_from_counts(table.sum(axis=0))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    value = _mutual_information(table / n) / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))


def balance(pred: np.ndarray, groups: np.ndarray) -> float:
    """Worst within-cluster ratio of smallest to largest group count.

    The fairlet balance of Chierichetti et al. (NeurIPS 2017): raw counts,
    not fractions scaled by the population mix, so on a 2:1 population a
    cluster that mirrors the population scores 0.5. A cluster missing any
    group scores 0 and therefore zeroes the minimum.
    """
    counts = _present_rows(contingency(pred, groups), "balance")
    return float((counts.min(axis=1) / counts.max(axis=1)).min())


def mnce(pred: np.ndarray, groups: np.ndarray) -> float:
    """Worst-cluster conditional group entropy, normalized by the global one.

    1.0 means every cluster reproduces the overall group mix exactly (the
    partition is independent of the groups); 0.0 means some cluster contains
    a single group. Rejects single-group data (the normalizer would be 0).
    """
    table = contingency(pred, groups)
    h_global = _entropy_from_counts(table.sum(axis=0))
    if h_global == 0.0:
        raise MetricError("single-group data: normalized conditional entropy is undefined")
    worst = min(_entropy_from_counts(counts) for counts in _present_rows(table, "mnce"))
    return float(worst / h_global)


def f_beta(quality: float, fairness: float, beta: float) -> float:
    """Weighted harmonic mean of a quality score and a fairness score.

    beta > 1 weights fairness more, beta < 1 weights quality more; beta = 1
    is the balanced harmonic mean. Zero if either side is zero.
    """
    if not (0.0 <= quality <= 1.0 and 0.0 <= fairness <= 1.0):
        raise MetricError("scores must lie in [0, 1]")
    if not 0.0 <= beta < math.inf:
        raise MetricError(f"beta must be a finite number >= 0, got {beta!r}")
    if quality == 0.0 or fairness == 0.0:
        return 0.0
    b2 = beta * beta
    return float((1.0 + b2) * quality * fairness / (b2 * quality + fairness))


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation: quality, fairness, and information diagnostics.

    acc and nmi are None when no ground truth was supplied. mi_gc is the
    group-cluster mutual information of the (hard) partition; cmi_xcg is the
    cluster information left after removing what the groups explain.
    """

    acc: float | None
    nmi: float | None
    bal: float
    mnce: float
    f_beta: float | None
    mi_gc: float
    cmi_xcg: float
    n: int
    k: int
    t: int


def full_report(pred, groups, truth=None, beta: float = 1.0) -> MetricsReport:
    """Assemble every metric for one predicted partition.

    `truth` is optional; without it the quality metrics and the combined
    score are None. `beta` is the quality/fairness trade-off weight.
    """
    pred = _labels(pred, "pred")
    groups = _labels(groups, "groups")
    bal = balance(pred, groups)
    fair = mnce(pred, groups)
    report_acc = report_nmi = combined = None
    if truth is not None:
        truth = _labels(truth, "truth")
        report_acc = accuracy(pred, truth)
        report_nmi = nmi(pred, truth)
        combined = f_beta(report_nmi, fair, beta)
    table = contingency(groups, pred)
    missing = np.flatnonzero(table.sum(axis=1) == 0)
    if missing.size:
        raise MetricError(f"groups: ids {missing.tolist()} have no members")
    # a hard partition has zero assignment entropy, so I(X;C|G) = H(C) - I(G;C)
    mi_gc = _mutual_information(table / pred.size)
    return MetricsReport(
        acc=report_acc,
        nmi=report_nmi,
        bal=bal,
        mnce=fair,
        f_beta=combined,
        mi_gc=mi_gc,
        cmi_xcg=_entropy_from_counts(table.sum(axis=0)) - mi_gc,
        n=int(pred.size),
        k=int(np.unique(pred).size),
        t=table.shape[0],
    )


def report_to_dict(report: MetricsReport) -> dict:
    def r6(v):
        return None if v is None else round(float(v), 6)

    return {
        "acc": r6(report.acc),
        "nmi": r6(report.nmi),
        "bal": r6(report.bal),
        "mnce": r6(report.mnce),
        "f_beta": r6(report.f_beta),
        "mi_gc": r6(report.mi_gc),
        "cmi_xcg": r6(report.cmi_xcg),
        "n": report.n,
        "k": report.k,
        "t": report.t,
    }


def write_report(report: MetricsReport, path):
    """Write the report as JSON; a NaN or infinite field raises before the file is opened."""
    text = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
