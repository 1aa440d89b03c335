"""Training loop and evaluation for the fair-clustering autoencoder.

Each run starts with a reconstruction-only warmup, then sweeps seeded
mini-batches per epoch minimizing reconstruction + alpha * clustering loss +
beta_fair * group leakage with Adam. One set of centers serves training,
the epoch log and scoring: a best-of-10 k-means of the initial latents, then
at the end of each epoch a k-means started from the last centers beside one
fresh restart. An epoch trains against the centers measured last, as
constants; gradients reach the encoder only through the soft assignments.

Ground-truth labels never touch the loss path: only the end-of-epoch
diagnostics (computed outside the gradient path) read them, and a test
holds ``fit`` to that: labels given, permuted or absent train alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import clustering, metrics, model, objectives
from .data import Dataset, _transformed, check_number, check_tau, check_widths, minibatches, record_from_dict

logger = logging.getLogger(__name__)

# Adam's moment decays and denominator floor (the usual defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a run; two runs with equal configs and data match exactly."""

    k: int
    alpha: float = 0.04
    beta_fair: float = 0.20
    tau: float = 0.1
    encoder_widths: tuple = (256, 64, 16)  # after the input; the last is the latent width
    warmup_epochs: int = 20
    max_epochs: int = 300
    batch_size: int = 256
    learning_rate: float = 1e-4
    seed: int = 0
    f_beta_weight: float = 1.0

    def __post_init__(self):
        for name, least in (("k", 2), ("warmup_epochs", 0), ("max_epochs", 1), ("batch_size", 1), ("seed", 0)):
            check_number(getattr(self, name), name, TrainError, least=least, integer=True)
        for name in ("alpha", "beta_fair", "f_beta_weight"):
            check_number(getattr(self, name), name, TrainError, least=0)
        check_number(self.learning_rate, "learning_rate", TrainError, above=0)
        check_tau(self.tau, "tau", TrainError)
        if self.warmup_epochs > self.max_epochs:
            raise TrainError(f"warmup_epochs ({self.warmup_epochs}) must not exceed "
                             f"max_epochs ({self.max_epochs})")
        object.__setattr__(self, "encoder_widths", check_widths(self.encoder_widths, "encoder_widths", 1, TrainError))

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        return record_from_dict(cls, raw, TrainError, "config")


@dataclass
class EpochLog:
    epoch: int
    l_rec: float
    l_clu: float
    l_fair: float
    l_total: float
    mi_gc: float
    cmi_xcg: float
    acc: float | None = None
    nmi: float | None = None
    bal: float | None = None
    mnce: float | None = None
    f_beta: float | None = None


LOG_COLUMNS = tuple(f.name for f in fields(EpochLog))


def write_log_csv(logs, path):
    """One row per epoch, reals at 6 decimals, empty cells for absent metrics."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\n")
        for log in logs:
            cells = [str(log.epoch)]
            for name in LOG_COLUMNS[1:]:
                v = getattr(log, name)
                cells.append("" if v is None else f"{v:.6f}")
            fh.write(",".join(cells) + "\n")


@dataclass
class TrainerHooks:
    """Optional instrumentation callbacks; None disables a hook."""

    on_epoch: object | None = None   # (EpochLog)
    # (epoch, ModelParams) after the epoch's updates: a record over the live
    # arrays, valid only during the call, so a reader that keeps it copies it
    on_params: object | None = None


class AdamState:
    """Adam's moments for a fixed set of parameter arrays, updated in place.

    Per parameter: zeroed first and second moments ``m`` and ``v``, and a
    pair of scratch views of that shape. The update handles one parameter at
    a time, so every pair views the same two buffers, each the size of the
    largest parameter. All of it is allocated here once.
    """

    def __init__(self, params: dict):
        self.m = {name: np.zeros_like(value) for name, value in params.items()}
        self.v = {name: np.zeros_like(value) for name, value in params.items()}
        size = max(value.size for value in params.values())
        buffers = (np.empty(size), np.empty(size))
        self.scratch = {name: tuple(buf[:value.size].reshape(value.shape) for buf in buffers)
                        for name, value in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState, step: int, lr: float):
    """One bias-corrected Adam update with the ``ADAM_*`` constants, written in place into params and state.

    A parameter missing from ``grads`` takes a zero gradient, so its moments
    still decay. Every gradient is checked before anything is written: a
    non-finite one raises and leaves params and state untouched.
    """
    if step < 1:
        raise TrainError("step counts from 1")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainError(f"non-finite gradient for {name}")
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    for name, value in params.items():
        g = grads.get(name, 0.0)
        m, v = state.m[name], state.v[name]
        s, t = state.scratch[name]
        # m = beta1 * m + (1 - beta1) * g
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        # v = beta2 * v + (1 - beta2) * (g * g)
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        # value -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=s)
        s *= lr
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        s /= t
        value -= s


def _batch_graphs(x, groups, layer_dims, n_groups, centers, cfg):
    """Build the loss graphs for one batch, keyed by log column name; reconstruction only without centers.

    The batch and the centers enter as constants, so the parameters are the graphs' only inputs.
    """
    nodes = model.param_input_nodes(layer_dims, n_groups)
    x_node = ad.constant(x)
    h = model.encoder_graph(x_node, nodes, layer_dims)
    rec = model.reconstruction_graph(x_node, h, nodes, layer_dims, groups)
    if centers is None:
        return {"l_rec": rec, "l_total": rec}
    c = clustering.soft_assign_graph(h, centers, cfg.tau)
    clu = objectives.clustering_loss_graph(c, x.shape[0])
    fair = objectives.group_cluster_mi_graph(c, groups, n_groups)
    total = objectives.total_loss_graph(rec, clu, fair, cfg.alpha, cfg.beta_fair)
    return {"l_rec": rec, "l_clu": clu, "l_fair": fair, "l_total": total}


def _measure(h, cfg, dataset, epoch, centers):
    """End-of-epoch centers and diagnostics on the full-dataset latents; never feeds gradients.

    The k-means starts from ``centers``, the last measured ones, beside one
    fresh k-means++ restart, the way out of a poor optimum; the lower
    inertia wins. Returns mi_gc, cmi_xcg, the label metrics (empty without
    labels) and the new centers they were measured against.
    """
    try:
        centers, _ = clustering.kmeans(h, cfg.k, seed=(cfg.seed, epoch, 0xD1A6), init=centers)
    except clustering.ClusteringError as e:
        raise TrainError(f"epoch {epoch}: diagnostics clustering failed: {e}") from e
    assign = clustering.soft_assign(h, centers, cfg.tau)
    mi = objectives.group_cluster_mi(assign, dataset.groups, dataset.n_groups)
    cmi = objectives.conditional_mi(assign, mi)
    extras = {}
    if dataset.labels is not None:
        report = metrics.full_report(assign.argmax(axis=1), dataset.groups, dataset.labels, cfg.f_beta_weight)
        extras = {name: getattr(report, name) for name in ("acc", "nmi", "bal", "mnce", "f_beta")}
    return mi, cmi, extras, centers


def fit(config: TrainConfig, dataset: Dataset, hooks: TrainerHooks | None = None):
    """Train on the dataset; returns (ModelParams, list of EpochLog).

    Deterministic for a fixed config: data order, center seeding, and every
    update are derived from config.seed. Adam updates one set of arrays in
    place. The record `hooks.on_params` gets each epoch reads them, and only
    the returned record is a copy of them. Nothing of a step outlives it.
    Each record carries its epoch's `model.Scoring`: the centers its log row
    was measured against, tau, and the dataset's feature transform and names.
    """
    layer_dims = (dataset.dim, *config.encoder_widths)
    if dataset.n < config.k:
        raise TrainError(f"need at least k={config.k} samples, got {dataset.n}")
    if dataset.labels is not None and dataset.n_groups < 2:
        raise TrainError("labeled data needs >= 2 groups: the epoch log's mnce is undefined for one")
    hooks = hooks or TrainerHooks()

    # fit's own arrays, which adam_step updates in place
    params = model.init_params(layer_dims, dataset.n_groups, config.seed)
    state = AdamState(params.arrays)
    step = 0
    logs: list[EpochLog] = []
    logger.info(
        "training: n=%d dim=%d groups=%d k=%d layers=%s epochs=%d (warmup %d)",
        dataset.n, dataset.dim, dataset.n_groups, config.k,
        list(layer_dims), config.max_epochs, config.warmup_epochs,
    )

    # the initial centers, the only ones with restarts: each measurement
    # after an epoch starts from the last centers
    try:
        centers, _ = clustering.kmeans(model.encode(params, dataset.features), config.k,
                                       seed=(config.seed, 0x1A17), restarts=10)
    except clustering.ClusteringError as e:
        raise TrainError(f"epoch 0: initial clustering failed: {e}") from e
    for epoch in range(config.max_epochs):
        train_centers = centers if epoch >= config.warmup_epochs else None  # warmup: reconstruction only
        sums = {"l_rec": 0.0, "l_clu": 0.0, "l_fair": 0.0, "l_total": 0.0}
        batches = minibatches(dataset, config.batch_size, (config.seed, epoch, 0xBA))
        for b, idx in enumerate(batches):
            x = dataset.features[idx]
            g = dataset.groups[idx]
            roots = _batch_graphs(x, g, layer_dims, dataset.n_groups, train_centers, config)
            ad.forward(roots["l_total"], params.arrays)
            values = {name: float(node.value) for name, node in roots.items()}
            if not np.isfinite(values["l_total"]):
                raise TrainError(f"epoch {epoch}, batch {b}: non-finite loss {values}")
            grads = ad.backward(roots["l_total"])
            # the step's graph goes now, not when the next one replaces it
            del roots
            step += 1
            adam_step(params.arrays, grads, state, step, config.learning_rate)
            # nor do the gradients and the batch outlive the step: they would
            # sit beside the encode, the diagnostics and the next step
            del grads, x, g
            for name in sums:
                sums[name] += values.get(name, 0.0)

        nb = len(batches)
        # adam_step is done with the live arrays until the next epoch, so the
        # encode reads them in place. Rebuilding the record checks them first:
        # a non-finite parameter raises ModelError in the epoch it appears.
        h_all = model.encode(replace(params), dataset.features)
        mi, cmi, extras, centers = _measure(h_all, config, dataset, epoch, centers)
        scoring = model.Scoring(centers, config.tau, dataset.transform, dataset.feature_names)
        log = EpochLog(
            epoch=epoch,
            l_rec=sums["l_rec"] / nb,
            l_clu=sums["l_clu"] / nb,
            l_fair=sums["l_fair"] / nb,
            l_total=sums["l_total"] / nb,
            mi_gc=mi,
            cmi_xcg=cmi,
            **extras,
        )
        logs.append(log)
        if hooks.on_epoch:
            hooks.on_epoch(log)
        if hooks.on_params:
            hooks.on_params(epoch, replace(params, scoring=scoring))
        if epoch % 20 == 0 or epoch == config.max_epochs - 1:
            logger.info(
                "epoch %d: l_total=%.6f l_rec=%.6f mi_gc=%.6f", epoch, log.l_total, log.l_rec, log.mi_gc
            )

    # the one copy: the arrays handed out stay as they are
    return replace(params, arrays={name: value.copy() for name, value in params.arrays.items()},
                   scoring=scoring), logs


def evaluate(params: model.ModelParams, dataset: Dataset, config: TrainConfig) -> metrics.MetricsReport:
    """Assign the dataset's rows to the trained centers and score the partition.

    The record must come from `fit`, or from a checkpoint of one: its
    `scoring` carries the final centers, and each row goes to the argmax of
    its soft assignment to them, as in the last epoch log. No k-means runs.
    The config's k and tau, and the dataset's feature names in order, must
    be the trained ones. A raw dataset (`transform` None) is mapped through
    the training transform as `load_csv` standardizes, bit for bit; a
    transformed one must carry the training transform. Otherwise, or on a
    record that never went through `fit`, this raises TrainError.
    Deterministic: two calls yield identical reports.
    """
    h = model.encode(params, _scoring_features(params.scoring, dataset, config))
    assign = clustering.soft_assign(h, params.scoring.centers, params.scoring.tau)
    return metrics.full_report(assign.argmax(axis=1), dataset.groups, dataset.labels, config.f_beta_weight)


def _scoring_features(scoring: model.Scoring | None, dataset: Dataset, config: TrainConfig):
    """The dataset's features in the training feature space, once `evaluate`'s checks pass;
    the names are checked before anything is mapped."""
    if scoring is None:
        raise TrainError("the model holds no trained centers (it never went through fit, as an "
                         "init_params record): score a record that fit returned")
    if config.k != scoring.k:
        raise TrainError(f"config k={config.k} differs from the {scoring.k} centers the model was trained with")
    if config.tau != scoring.tau:
        raise TrainError(f"config tau={config.tau} differs from the tau={scoring.tau} the model was trained with")
    trained, names = tuple(scoring.feature_names), tuple(dataset.feature_names)
    if names != trained:
        problems = [f"{what} {', '.join(map(repr, columns))}" for what, columns in (
            ("missing", [n for n in trained if n not in names]),
            ("extra", [n for n in names if n not in trained])) if columns]
        raise TrainError("feature columns differ from the training ones: "
                         + ("; ".join(problems) or f"{list(names)} is in another order than {list(trained)}"))
    trained, given = scoring.transform, dataset.transform
    if given is None:
        return dataset.features if trained is None else _transformed(dataset.features, trained)
    if trained is None or not all(np.array_equal(a, b) for a, b in zip(trained, given)):
        raise TrainError("the dataset's feature transform differs from the training one: load new data "
                         "raw (standardize_features=False), and evaluate maps it")
    return dataset.features
