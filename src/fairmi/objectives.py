"""Training objectives and information estimators over soft assignments.

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

The numpy estimators score an assignment without the graph engine:
group_cluster_mi is the leakage diagnostic mi_gc, and conditional_mi
estimates how much information the assignments carry about the samples
beyond what the groups already explain; it is a diagnostic, not a training
signal, and decomposes exactly into cluster entropy, assignment entropy and
mi_gc.

All logarithms are natural. Probabilities inside entropy sums go through a
log clamped at 1e-12 so that zero cells contribute exactly zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .clustering import SoftAssignment

if TYPE_CHECKING:
    from . import autodiff as ad

# must stay equal to autodiff.GUARD_EPS so numpy and graph paths agree
_EPS = 1e-12


class ObjectiveError(ValueError):
    pass


def _xlogx(p):
    # p * log(p) with 0 contributing exactly 0
    return p * np.log(np.maximum(p, _EPS))


def cluster_marginal(assign: SoftAssignment) -> np.ndarray:
    """Mean soft assignment per cluster: a length-K probability vector."""
    return assign.probs.mean(axis=0)


def cluster_entropy(marginal: np.ndarray) -> float:
    """Entropy of the cluster marginal (nats)."""
    p = np.asarray(marginal, dtype=np.float64)
    if p.ndim != 1 or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ObjectiveError("marginal must be a probability vector")
    return float(-_xlogx(p).sum())


def assignment_entropy(assign: SoftAssignment) -> float:
    """Mean entropy of the per-sample assignment rows (nats)."""
    return float(-_xlogx(assign.probs).sum() / assign.n)


def _group_counts(groups, n_groups):
    groups = np.asarray(groups)
    if groups.ndim != 1:
        raise ObjectiveError("groups must be a 1-d id array")
    if groups.size and (groups.min() < 0 or groups.max() >= n_groups):
        raise ObjectiveError(f"group ids must lie in [0, {n_groups})")
    return np.bincount(groups, minlength=n_groups)


def _group_onehot(groups, n_groups):
    # (n_groups, n) indicator: row t marks the members of group t
    onehot = np.zeros((n_groups, groups.shape[0]))
    onehot[groups, np.arange(groups.shape[0])] = 1.0
    return onehot


def _mutual_information(joint):
    """I(A;B) of a 2-d joint table: sum p log p minus the two marginal terms."""
    return float(_xlogx(joint).sum() - _xlogx(joint.sum(axis=1)).sum() - _xlogx(joint.sum(axis=0)).sum())


def group_cluster_mi(assign: SoftAssignment, groups, n_groups: int) -> float:
    """Mutual information between group and cluster under the empirical joint.

    This is the fairness penalty: zero exactly when the joint factorizes,
    i.e. when cluster assignments carry no information about the group.
    Rejects datasets with an empty group; mini-batch training uses the graph
    builder below, which lets a batch-empty group contribute zero instead.
    """
    counts = _group_counts(groups, n_groups)
    if np.any(counts == 0):
        raise ObjectiveError("every group needs at least one member")
    groups = np.asarray(groups)
    if groups.shape != (assign.n,):
        raise ObjectiveError("need one group id per assignment row")
    return _mutual_information(_group_onehot(groups, n_groups) @ assign.probs / assign.n)


def conditional_mi(assign: SoftAssignment, mi_gc: float) -> float:
    """Cluster information not explained by the groups.

    Computed as cluster entropy minus mean assignment entropy minus
    ``mi_gc``, the group-cluster mutual information of the same assignment
    (``group_cluster_mi``), which the caller has already computed; the
    decomposition is exact by construction.
    """
    h_c = cluster_entropy(cluster_marginal(assign))
    h_cx = assignment_entropy(assign)
    return float(h_c - h_cx - mi_gc)


# ---------------------------------------------------------------------------
# graph builders (training path). Each takes the assignment node produced by
# clustering.soft_assign_graph plus batch constants, and returns a scalar node.

def clustering_loss_graph(c_node: ad.Node, n: int) -> ad.Node:
    """Negative cluster entropy plus mean assignment entropy over one batch.

    Minimizing it spreads mass evenly across clusters while making each row's
    assignment confident: balanced one-hot rows over K clusters reach -ln K,
    while uniform rows, or rows all on one cluster, score 0.
    """
    from . import autodiff as ad  # deferred: estimator-only callers skip the graph engine

    ones_row = ad.constant(np.ones((1, n)))
    p = ad.scale(ad.matmul(ones_row, c_node), 1.0 / n)
    neg_h_c = ad.sum_all(ad.multiply(p, ad.log_guarded(p)))
    h_cx = ad.scale(ad.sum_all(ad.multiply(c_node, ad.log_guarded(c_node))), -1.0 / n)
    return ad.add(neg_h_c, h_cx)


def group_cluster_mi_graph(c_node: ad.Node, groups, n_groups: int) -> ad.Node:
    """Differentiable group-cluster mutual information over one batch.

    Uses the expansion sum p_gc log p_gc - sum p_g log p_g - sum p_c log p_c,
    valid because assignment rows sum to one, so the joint's row sums equal
    the constant group marginal. A group missing from the batch has p_g = 0
    and contributes exactly zero. Gradients flow through the assignments
    only; groups are constants.
    """
    from . import autodiff as ad

    groups = np.asarray(groups)
    n = groups.shape[0]
    counts = _group_counts(groups, n_groups)
    onehot = _group_onehot(groups, n_groups)
    p_g = counts / n
    neg_h_g = float(_xlogx(p_g).sum())

    p_gc = ad.scale(ad.matmul(ad.constant(onehot), c_node), 1.0 / n)
    ones_row = ad.constant(np.ones((1, n)))
    p_c = ad.scale(ad.matmul(ones_row, c_node), 1.0 / n)
    joint_term = ad.sum_all(ad.multiply(p_gc, ad.log_guarded(p_gc)))
    cluster_term = ad.sum_all(ad.multiply(p_c, ad.log_guarded(p_c)))
    return ad.subtract(ad.subtract(joint_term, ad.constant(np.asarray(neg_h_g))), cluster_term)


def total_loss_graph(rec_node: ad.Node, clu_node: ad.Node, fair_node: ad.Node,
                     alpha: float, beta_fair: float) -> ad.Node:
    """rec + alpha * clu + beta_fair * fair; the weights must be non-negative."""
    from . import autodiff as ad

    if alpha < 0.0 or beta_fair < 0.0:
        raise ObjectiveError("loss weights must be non-negative")
    return ad.add(rec_node, ad.add(ad.scale(clu_node, alpha), ad.scale(fair_node, beta_fair)))
