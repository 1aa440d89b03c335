"""Independent reference values for a scored partition.

Counts come from one ``np.bincount`` over joint ids and every information
quantity from entropies of those counts, so none of the program's metric
code is reused. ``bal`` is only range-checked: which balance definition is
right is still an open question for the program.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

TOLERANCE = 1e-9


def _table(a, b):
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)


def _entropy(counts):
    counts = counts[counts > 0]
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _mutual_info(table):
    return _entropy(table.sum(axis=1)) + _entropy(table.sum(axis=0)) - _entropy(table.ravel())


def expected(pred, groups, truth=None):
    """Reference acc, nmi, mnce and mi_gc for hard labels (nats)."""
    gc = _table(groups, pred)  # groups x clusters
    h_g = _entropy(gc.sum(axis=1))
    out = {
        "mnce": min(_entropy(gc[:, k]) for k in range(gc.shape[1])) / h_g,
        "mi_gc": _mutual_info(gc),
        "n": int(len(pred)),
        "k": int(gc.shape[1]),
    }
    if truth is not None:
        pt = _table(pred, truth)
        rows, cols = linear_sum_assignment(pt, maximize=True)
        out["acc"] = float(pt[rows, cols].sum() / len(pred))
        h_p, h_t = _entropy(pt.sum(axis=1)), _entropy(pt.sum(axis=0))
        if h_p == 0.0 or h_t == 0.0:
            out["nmi"] = 1.0 if h_p == h_t else 0.0
        else:
            out["nmi"] = min(max(_mutual_info(pt) / np.sqrt(h_p * h_t), 0.0), 1.0)
    return out


def check_report(report, pred, groups, truth=None):
    """Return a list of mismatches between a MetricsReport and the oracle."""
    ref = expected(pred, groups, truth)
    problems = []
    for name, want in ref.items():
        got = getattr(report, name)
        if got is None or abs(got - want) > TOLERANCE:
            problems.append(f"{name}: report {got!r}, oracle {want!r}")
    if not 0.0 <= report.bal <= 1.0:
        problems.append(f"bal {report.bal!r} outside [0, 1]")
    return problems


class ReportCapture:
    """Keep the arguments and result of the latest ``metrics.full_report`` call.

    Installed for the whole run, traced or not, so the oracle sees the
    partition behind each report at full precision (report files carry six
    decimals). It times nothing.
    """

    def __init__(self, metrics_module):
        self.last = None
        original = metrics_module.full_report

        def full_report(pred, groups, truth=None, beta=1.0):
            report = original(pred, groups, truth, beta)
            self.last = (np.asarray(pred), np.asarray(groups),
                         None if truth is None else np.asarray(truth), report)
            return report

        metrics_module.full_report = full_report

    def take(self):
        last, self.last = self.last, None
        if last is None:
            raise RuntimeError("no full_report call was captured")
        return last
