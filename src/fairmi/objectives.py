"""Training objectives and information estimators over soft assignments.

An assignment is an (N, K) array whose rows sum to one, as
``clustering.soft_assign`` returns it; one-hot rows score a hard partition.

Three loss terms drive training, each defined once by the graph builder that
training differentiates:

- reconstruction: mean squared reconstruction error per sample, through the
  sample's group decoder (``model.reconstruction_graph``).
- clustering_loss_graph: pushes the cluster marginal toward uniform while
  making individual assignments confident (negative cluster entropy plus the
  mean per-sample assignment entropy).
- group_cluster_mi_graph: mutual information between the sensitive group and
  the cluster variable over one batch; the fairness penalty.

total_loss_graph weighs the three into the training objective.

The numpy estimators score an assignment without building a graph:
group_cluster_mi is the leakage diagnostic mi_gc, and conditional_mi
estimates how much information the assignments carry about the samples
beyond what the groups already explain; it is a diagnostic, not a training
signal, and decomposes exactly into cluster entropy, assignment entropy and
mi_gc.

All logarithms are natural. Probabilities inside entropy sums go through
``autodiff``'s guarded log, on the numpy and the graph path alike, so that
zero cells contribute exactly zero.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import check_array, check_dense, check_number


class ObjectiveError(ValueError):
    pass


def _xlogx(p):
    # p * log(p) with 0 contributing exactly 0
    return p * ad.guarded_log(p)


def _entropy(p):
    """Entropy of a probability array, summed over every cell (nats)."""
    # 0.0 - s, not -s: a point mass gives +0.0, never -0.0
    return float(0.0 - _xlogx(p).sum())


def _check_assignment(assign):
    """The (N, K) float array of a row-stochastic assignment; one-hot rows are allowed."""
    p = check_array(assign, "assignment", ObjectiveError, (None, None))
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ObjectiveError("assignment entries must lie in [0, 1]")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ObjectiveError("assignment rows must sum to 1")
    return p


def _check_groups(groups, n_groups, rows=None):
    """``groups`` as int64 ids once each is an integer id below ``n_groups``, itself an integer >= 1,
    and there is one per row where ``rows`` is given."""
    check_number(n_groups, "n_groups", ObjectiveError, least=1, integer=True)
    groups = check_array(groups, "groups", ObjectiveError, (rows,), integer=True, least=0)
    if groups.max() >= n_groups:
        raise ObjectiveError(f"group ids must lie in [0, {n_groups})")
    return groups


def _group_onehot(groups, n_groups):
    # (n_groups, n) indicator: row t marks the members of group t
    onehot = np.zeros((n_groups, groups.shape[0]))
    onehot[groups, np.arange(groups.shape[0])] = 1.0
    return onehot


def _at_least_zero(v):
    """Information quantity ``v``, as +0.0 where rounding of either sign leaves it at or below 0."""
    return v if v > 0.0 else 0.0  # max(v, 0.0) would keep -0.0


def _mutual_information(joint):
    """I(A;B) of a 2-d joint table: sum p log p minus the two marginal terms, at least +0.0."""
    v = float(_xlogx(joint).sum() - _xlogx(joint.sum(axis=1)).sum() - _xlogx(joint.sum(axis=0)).sum())
    return _at_least_zero(v)


def group_cluster_mi(assign: np.ndarray, groups, n_groups: int) -> float:
    """Mutual information between group and cluster under the empirical joint.

    This is the fairness penalty: zero exactly when the joint factorizes,
    i.e. when cluster assignments carry no information about the group.
    Rejects datasets with an empty group; mini-batch training uses the graph
    builder below, which lets a batch-empty group contribute zero instead.
    """
    p = _check_assignment(assign)
    groups = _check_groups(groups, n_groups, p.shape[0])
    check_dense(groups, "groups", ObjectiveError, n_groups)
    return _mutual_information(_group_onehot(groups, n_groups) @ p / p.shape[0])


def conditional_mi(assign: np.ndarray, mi_gc: float) -> float:
    """Cluster information not explained by the groups.

    Computed as H(C) - H(C|X) - ``mi_gc``: the entropy of the column mean,
    minus the mean row entropy, minus the group-cluster mutual information
    of the same assignment (``group_cluster_mi``), which the caller has
    already computed; the decomposition is exact by construction. At least +0.0.
    """
    p = _check_assignment(assign)
    check_number(mi_gc, "mi_gc", ObjectiveError)
    return _at_least_zero(float(_entropy(p.mean(axis=0)) - _entropy(p) / p.shape[0] - mi_gc))


# ---------------------------------------------------------------------------
# graph builders (training path). Each takes the assignment node produced by
# clustering.soft_assign_graph plus batch constants, and returns a scalar node.

def _xlogx_sum_graph(p: ad.Node) -> ad.Node:
    """sum of p * log(p) over every cell: the graph mirror of :func:`_xlogx`."""
    return ad.sum_all(ad.multiply(p, ad.log_guarded(p)))


def clustering_loss_graph(c_node: ad.Node, n: int) -> ad.Node:
    """Negative cluster entropy plus mean assignment entropy over one batch.

    Minimizing it spreads mass evenly across clusters while making each row's
    assignment confident: balanced one-hot rows over K clusters reach -ln K,
    while uniform rows, or rows all on one cluster, score 0.
    """
    ones_row = ad.constant(np.ones((1, n)))
    p = ad.scale(ad.matmul(ones_row, c_node), 1.0 / n)
    neg_h_c = _xlogx_sum_graph(p)
    h_cx = ad.scale(_xlogx_sum_graph(c_node), -1.0 / n)
    return ad.add(neg_h_c, h_cx)


def group_cluster_mi_graph(c_node: ad.Node, groups, n_groups: int) -> ad.Node:
    """Differentiable group-cluster mutual information over one batch.

    Uses the expansion sum p_gc log p_gc - sum p_g log p_g - sum p_c log p_c,
    valid because assignment rows sum to one, so the joint's row sums equal
    the constant group marginal. A group missing from the batch has p_g = 0
    and contributes exactly zero. Gradients flow through the assignments
    only; groups are constants.
    """
    groups = _check_groups(groups, n_groups)
    n = groups.shape[0]
    onehot = _group_onehot(groups, n_groups)
    p_g = np.bincount(groups, minlength=n_groups) / n
    neg_h_g = float(_xlogx(p_g).sum())

    p_gc = ad.scale(ad.matmul(ad.constant(onehot), c_node), 1.0 / n)
    ones_row = ad.constant(np.ones((1, n)))
    p_c = ad.scale(ad.matmul(ones_row, c_node), 1.0 / n)
    joint_term = _xlogx_sum_graph(p_gc)
    cluster_term = _xlogx_sum_graph(p_c)
    return ad.subtract(ad.subtract(joint_term, ad.constant(np.asarray(neg_h_g))), cluster_term)


def total_loss_graph(rec_node: ad.Node, clu_node: ad.Node, fair_node: ad.Node,
                     alpha: float, beta_fair: float) -> ad.Node:
    """rec + alpha * clu + beta_fair * fair; the weights must be finite numbers >= 0."""
    check_number(alpha, "alpha", ObjectiveError, least=0)
    check_number(beta_fair, "beta_fair", ObjectiveError, least=0)
    return ad.add(rec_node, ad.add(ad.scale(clu_node, alpha), ad.scale(fair_node, beta_fair)))
