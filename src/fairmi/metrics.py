"""Evaluation metrics for fairness-aware clustering.

Quality side: clustering accuracy under the best one-to-one cluster-to-class
matching, and normalized mutual information. Fairness side: Balance (worst
within-cluster group ratio) and the normalized conditional entropy of the
groups given the cluster (worst cluster again). A harmonic combination lets
one number trade the two sides off.

Every metric is a function of a count table: ``accuracy`` and ``nmi`` read
the cluster x class table, ``balance`` and ``mnce`` the cluster x group one,
and ``contingency`` is the one place label arrays become counts, so
``full_report`` counts each pair of labelings once.

NMI normalization: mutual information divided by the square root of the
product of the two label entropies (the geometric-mean convention). Counting
estimators throughout; all entropies in nats.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields

import numpy as np

from .data import check_array, check_dense, check_number
from .objectives import _at_least_zero, _entropy, _mutual_information

logger = logging.getLogger(__name__)


class MetricError(ValueError):
    pass


def _counts(table, name):
    """The 2-d table of non-negative integer counts with a positive total that ``name`` scores."""
    table = check_array(table, f"{name}: table", MetricError, (None, None), integer=True, least=0)
    if table.sum() == 0:
        raise MetricError(f"{name}: table must hold non-negative counts with a positive total")
    return table


def _present_rows(table, name):
    """Rows of a cluster-by-group table for clusters that have members."""
    sizes = table.sum(axis=1)
    if not sizes.all():
        empty = np.flatnonzero(sizes == 0).tolist()
        logger.warning("%s: cluster ids %s are empty and excluded", name, empty)
    return table[sizes > 0]


def contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts of each (a id, b id) pair, indexed by id; when that table would hold more than
    4n + 65,536 cells, by rank among the ids present, which is the same on ids with no gap."""
    a = check_array(a, "a", MetricError, (None,), integer=True, least=0)
    b = check_array(b, "b", MetricError, a.shape, integer=True, least=0)
    na, nb = int(a.max()) + 1, int(b.max()) + 1
    if na * nb > 4 * a.size + 65_536:
        a, b = (np.unique(ids, return_inverse=True)[1] for ids in (a, b))
        na, nb = int(a.max()) + 1, int(b.max()) + 1
    return np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)


def _max_matching(table):
    """Rows and columns of a one-to-one matching with the largest total count.

    Shortest augmenting paths (Crouse, IEEE TAES 2016) on the costs
    ``table.max() - table``, one row at a time, through the transpose when rows
    outnumber columns. Counts are integers far below 2**53, so every dual and
    path length is exact in float64.
    """
    transposed = table.shape[0] > table.shape[1]
    cost = table.T if transposed else table
    cost = (cost.max() - cost).astype(np.float64)
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    col_of = np.full(n_rows, -1)
    row_of = np.full(n_cols, -1)
    for start in range(n_rows):
        # Dijkstra over columns on the reduced costs, until a free column is reached
        dist = np.full(n_cols, np.inf)
        via = np.zeros(n_cols, dtype=np.int64)
        seen = np.zeros(n_cols, dtype=bool)
        reached = []
        row, reach = start, 0.0
        while True:
            reduced = cost[row] - v
            reduced += reach - u[row]
            shorter = reduced < dist
            dist[shorter] = reduced[shorter]
            via[shorter] = row
            col = int(np.where(seen, np.inf, dist).argmin())
            reach = dist[col]
            seen[col] = True
            if row_of[col] < 0:
                break
            row = row_of[col]
            reached.append(row)
        u[start] += reach
        u[reached] += reach - dist[col_of[reached]]
        v[seen] -= reach - dist[seen]
        while True:  # flip the path's edges, back to the start row
            row = via[col]
            row_of[col] = row
            col_of[row], col = col, col_of[row]
            if row == start:
                break
    rows = np.arange(n_rows)
    return (col_of, rows) if transposed else (rows, col_of)


def accuracy(table: np.ndarray) -> float:
    """Fraction correct under the best one-to-one matching in a cluster x class table."""
    table = _counts(table, "accuracy")
    rows, cols = _max_matching(table)
    return float(table[rows, cols].sum() / table.sum())


def nmi(table: np.ndarray) -> float:
    """Normalized mutual information of a cluster x class table, geometric-mean normalization.

    Two constant labelings are a perfect match (1.0); one constant labeling
    against a varying one shares no information (0.0).
    """
    table = _counts(table, "nmi").astype(np.float64)
    n = table.sum()
    h_pred = _entropy(table.sum(axis=1) / n)
    h_truth = _entropy(table.sum(axis=0) / n)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    value = _mutual_information(table / n) / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))


def balance(table: np.ndarray) -> float:
    """Worst within-cluster ratio of smallest to largest group count in a cluster x group table.

    The fairlet balance of Chierichetti et al. (NeurIPS 2017): raw counts,
    not fractions scaled by the population mix, so on a 2:1 population a
    cluster that mirrors the population scores 0.5. A cluster missing any
    group scores 0 and therefore zeroes the minimum. Group ids need not be
    dense: only the groups present count.
    """
    counts = _present_rows(_counts(table, "balance"), "balance")
    counts = counts[:, counts.any(axis=0)]  # a gap in the ids would be an all-zero column
    return float((counts.min(axis=1) / counts.max(axis=1)).min())


def mnce(table: np.ndarray) -> float:
    """Worst-cluster conditional group entropy of a cluster x group table, over the global one.

    1.0 means every cluster reproduces the overall group mix exactly (the
    partition is independent of the groups); 0.0 means some cluster contains
    a single group. Rejects single-group data (the normalizer would be 0).
    """
    table = _counts(table, "mnce")
    h_global = _entropy(table.sum(axis=0) / table.sum())
    if h_global == 0.0:
        raise MetricError("single-group data: normalized conditional entropy is undefined")
    worst = min(_entropy(counts / counts.sum()) for counts in _present_rows(table, "mnce"))
    return float(worst / h_global)


def f_beta(quality: float, fairness: float, beta: float) -> float:
    """Weighted harmonic mean of a quality score and a fairness score.

    beta > 1 weights fairness more, beta < 1 weights quality more; beta = 1
    is the balanced harmonic mean. Zero if either side is zero.
    """
    for name, value in (("quality", quality), ("fairness", fairness), ("beta", beta)):
        check_number(value, name, MetricError, least=0)
    if quality > 1.0 or fairness > 1.0:
        raise MetricError("scores must lie in [0, 1]")
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
    pred = check_array(pred, "pred", MetricError, (None,), integer=True, least=0)
    groups = check_array(groups, "groups", MetricError, pred.shape, integer=True, least=0)
    check_dense(groups, "groups", MetricError)
    by_group = contingency(pred, groups)
    # balance and mnce skip empty clusters; drop them here so the warning is logged once
    present = _present_rows(by_group, "full_report")
    bal = balance(present)
    fair = mnce(present)
    report_acc = report_nmi = combined = None
    if truth is not None:
        by_class = contingency(pred, check_array(truth, "truth", MetricError, pred.shape, integer=True, least=0))
        report_acc = accuracy(by_class)
        report_nmi = nmi(by_class)
        combined = f_beta(report_nmi, fair, beta)
    # groups x clusters in C order: the element order of the sums fixes mi_gc's bits
    table = np.ascontiguousarray(by_group.T)
    # a hard partition has zero assignment entropy, so I(X;C|G) = H(C) - I(G;C)
    mi_gc = _mutual_information(table / pred.size)
    return MetricsReport(
        acc=report_acc,
        nmi=report_nmi,
        bal=bal,
        mnce=fair,
        f_beta=combined,
        mi_gc=mi_gc,
        cmi_xcg=_at_least_zero(_entropy(table.sum(axis=0) / pred.size) - mi_gc),
        n=int(pred.size),
        k=int(np.count_nonzero(table.sum(axis=0))),
        t=table.shape[0],
    )


def report_to_dict(report: MetricsReport) -> dict:
    """The report's fields in declaration order: ints as they are, reals at 6 decimals, None as None."""
    def value(f):
        v = getattr(report, f.name)
        return v if v is None or f.type == "int" else round(float(v), 6)

    return {f.name: value(f) for f in fields(MetricsReport)}


def write_report(report: MetricsReport, path):
    """Write the report as JSON; a NaN or infinite field raises before the file is opened."""
    text = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
