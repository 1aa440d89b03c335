"""The three workloads of the fairmi benchmark, with why each was chosen.

Every workload is single-process and closed loop: one operation at a time,
the next one starting when the previous one has returned. All inputs are
drawn from the ``--seed`` given to the benchmark; the program only sees the
generated data, CSV files and checkpoints.

Shares and times quoted below come from a profile of the initial code on 2
cores with numpy 2.4.6 and two OpenBLAS 0.3.31 threads; the benchmark runs
one BLAS thread, and ``baseline.json`` holds its own figures. ``PREDICTIONS``
lists, per workload, which per-layer metric should move which end-to-end
metric, so that a later change can cite them by workload name.

``BENCHMARK.json`` gates fit_canonical and score_heldout. fit_steps runs by
name and under ``--all``: with it, the time budget for the gated runs left
only 32 s per run, too short for steady figures on a shared host.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

# The criterion-7 geometry: 3 classes x 2 groups x 150 rows at dim 16.
CANONICAL_SPEC = dict(classes=3, groups=2, per_cell_count=150, class_sep=8.0,
                      group_shift=6.0, dim=16, noise_sd=1.0)
CANONICAL_CONFIG = dict(k=3, max_epochs=60)

# Lloyd iteration counts, and with them the cost of a fit or an evaluate,
# differ by 20-60% between seeds, so each workload spreads its ops over input
# sets drawn from the benchmark seed instead of repeating one: new data and
# seeds for every fit and for every held-out eval.
INPUT_SETS = 16
# score_heldout always scores with the checkpoint of the canonical fit (seed
# 1), so its set-up trains the same model in every run; the benchmark seed
# draws what is scored.
CHECKPOINT_SEED = 1

# Spans every workload reaches: data generation in set-up, then scoring.
_SCORING_SPANS = {
    "data.generate_synthetic", "model.encode", "clustering.kmeans.restarts",
    "clustering.soft_assign", "objectives.group_cluster_mi", "objectives.conditional_mi",
    "metrics.accuracy", "metrics.nmi", "metrics.balance", "metrics.mnce",
    "metrics.full_report", "trainer.evaluate", "cli.run",
}
_TRAINING_SPANS = {
    "data.minibatches", "autodiff.forward", "autodiff.backward", "model.graph_build",
    "clustering.kmeans.refresh", "clustering.soft_assign_graph", "objectives.graph_build",
    "trainer.adam_step", "trainer.fit",
}


@dataclass(frozen=True)
class FitWorkload:
    """One ``trainer.fit`` per op, then ``trainer.evaluate`` and ``fairmi metrics``.

    ``evaluate`` and the metrics CLI run ``repeats`` times on the fitted
    model, since each is short next to the fit; the metrics CLI scores the
    partition of the last ``evaluate``.
    """

    name: str
    spec: dict
    config: dict
    repeats: int = 10
    expected_spans: frozenset = frozenset(_SCORING_SPANS | _TRAINING_SPANS)
    # every call here works on 900-row arrays, like a fit: none is scaled
    # by the vector calibration loop
    vector_phases: frozenset = frozenset()

    def setup(self, run):
        data, trainer = run.program.data, run.program.trainer
        inputs = []
        for j in range(INPUT_SETS):
            sub_seed = run.seed * 1000 + j
            dataset = data.generate_synthetic(data.SyntheticSpec(**self.spec, seed=sub_seed))
            inputs.append((dataset, trainer.TrainConfig(**self.config, seed=sub_seed)))
        return inputs

    def op(self, run, inputs, input_set):
        dataset, config = inputs[input_set % len(inputs)]
        trainer, cli = run.program.trainer, run.program.cli
        params, logs = run.fit(config, dataset)
        run.check_log(logs, config.seed)
        run.param_count = sum(a.size for pair in params.all_arrays() for a in pair)

        for r in range(self.repeats):
            # a new k-means seed for every evaluate, so that a run averages
            # over many Lloyd iteration counts; the op that repeats this input
            # set checks that each report repeats
            eval_config = replace(config, seed=config.seed + 100_000 * (r + 1))
            report = run.timed("eval", trainer.evaluate, params, dataset, eval_config)
            pred, groups, truth, captured = run.capture.take()
            run.check_oracle("evaluate", captured, pred, groups, truth)
            run.check_same(("evaluate report", eval_config.seed), repr(report))
        run.quality.append((report.acc, report.mnce))

        part = os.path.join(run.workdir, "partition.csv")
        write_partition(part, pred, groups, truth)
        out = os.path.join(run.workdir, "metrics.json")
        argv = ["metrics", "--pred", part, "--groups-col", "group", "--truth-col", "truth",
                "--report", out]
        for _ in range(self.repeats):
            run.check_exit("fairmi metrics", run.timed("metrics", cli.run, argv))
            _, _, _, captured = run.capture.take()
            run.check_oracle("fairmi metrics", captured, pred, groups, truth)
            run.check_report_file(out, captured)


@dataclass(frozen=True)
class ScoreWorkload:
    """``fairmi eval`` on a held-out CSV, then ``fairmi metrics`` on an external partition.

    Set-up trains the checkpoint (one canonical fit, reported as ``fit_s``
    and ``epoch_ms``) and writes the partition CSV. Each op runs ``fairmi
    eval`` once, on its input set's held-out rows with its input set's
    k-means seed, and every ``metrics_every``-th input set also runs
    ``fairmi metrics``.

    The cost of an eval follows its Lloyd iteration count, which ranges over
    about 2x between input sets, so a run needs many distinct input sets for
    its mean to repeat across seeds: 6,000 held-out rows let a 45 s run
    score about 40 of them, where 18,000 rows allowed about 17 per 50 s and
    the run medians of five seeds spread by 25%. ``fairmi metrics`` scores
    the same partition in every op, so a third of the ops suffices for it.
    """

    name: str
    heldout_per_cell: int = 1000      # 3 classes x 2 groups x 1000 = 6,000 rows
    partition_rows: int = 200_000
    partition_clusters: int = 50
    metrics_every: int = 3
    # eval and metrics work on 6,000 to 200,000 rows: scaled by the vector
    # calibration loop, the set-up fit by the fit loop
    vector_phases: frozenset = frozenset({"eval", "metrics"})
    expected_spans: frozenset = frozenset(_SCORING_SPANS | {"data.load_csv", "model.load_checkpoint"})

    def setup(self, run):
        data, model, trainer = run.program.data, run.program.model, run.program.trainer
        train = data.generate_synthetic(data.SyntheticSpec(**CANONICAL_SPEC, seed=CHECKPOINT_SEED))
        config = trainer.TrainConfig(**CANONICAL_CONFIG, seed=CHECKPOINT_SEED)
        # A trained checkpoint keeps Lloyd short on 18k rows; an untrained one
        # runs k-means to max_iter and measures nothing a user would see.
        params, logs = run.fit(config, train)
        run.check_log(logs, CHECKPOINT_SEED)
        run.param_count = sum(a.size for pair in params.all_arrays() for a in pair)
        paths = {name: os.path.join(run.workdir, name) for name in
                 ("checkpoint.bin", "config.json", "heldout.csv", "partition.csv",
                  "eval.json", "metrics.json")}
        model.save_checkpoint(params, paths["checkpoint.bin"])
        partition = external_partition(run.seed, self.partition_rows, self.partition_clusters)
        write_partition(paths["partition.csv"], *partition, names=True)
        return paths, partition, {}

    def write_inputs(self, run, paths, input_set):
        """Held-out CSV and eval config of one input set (not timed)."""
        data = run.program.data
        seed = run.seed * 1000 + input_set
        spec = dict(CANONICAL_SPEC, per_cell_count=self.heldout_per_cell)
        data.save_csv(data.generate_synthetic(data.SyntheticSpec(**spec, seed=seed)), paths["heldout.csv"])
        with open(paths["config.json"], "w") as fh:
            json.dump({**CANONICAL_CONFIG, "seed": seed}, fh)

    def op(self, run, state, input_set):
        paths, (pred, groups, truth), current = state
        if current.get("input_set") != input_set:
            self.write_inputs(run, paths, input_set)
            current["input_set"] = input_set
        cli = run.program.cli
        argv = ["eval", "--data", paths["heldout.csv"], "--config", paths["config.json"],
                "--truth-col", "label", "--checkpoint", paths["checkpoint.bin"],
                "--report", paths["eval.json"]]
        run.check_exit("fairmi eval", run.timed("eval", cli.run, argv))
        e_pred, e_groups, e_truth, report = run.capture.take()
        run.check_oracle("fairmi eval", report, e_pred, e_groups, e_truth)
        run.check_report_file(paths["eval.json"], report)
        run.check_same(("eval report", input_set), repr(report))
        run.quality.append((report.acc, report.mnce))
        if input_set % self.metrics_every:
            return

        argv = ["metrics", "--pred", paths["partition.csv"], "--groups-col", "group",
                "--truth-col", "truth", "--report", paths["metrics.json"]]
        run.check_exit("fairmi metrics", run.timed("metrics", cli.run, argv))
        *_, captured = run.capture.take()
        # the oracle works on the generated ids, so CSV parsing is checked too
        run.check_oracle("fairmi metrics", captured, pred, groups, truth)
        run.check_report_file(paths["metrics.json"], captured)


_GROUP_NAMES = ("north", "south", "east", "west", "centre")


def external_partition(seed, n, clusters):
    """A noisy partition of ``clusters`` classes over five named groups.

    Each row keeps its class as its cluster with a probability that depends
    on its group, so both the quality and the fairness metrics are away from
    their extremes.
    """
    rng = np.random.default_rng((seed, 0x5C0E))
    truth = rng.integers(0, clusters, n)
    groups = rng.integers(0, len(_GROUP_NAMES), n)
    keep = rng.random(n) < np.linspace(0.8, 0.6, len(_GROUP_NAMES))[groups]
    pred = np.where(keep, truth, rng.integers(0, clusters, n))
    return pred, groups, truth


def write_partition(path, pred, groups, truth, names=False):
    """CSV with pred, group and truth columns; ``names`` writes strings instead of ids."""
    if names:
        pred = [f"c{v}" for v in pred]
        groups = [_GROUP_NAMES[g] for g in groups]
        truth = [f"class-{v}" for v in truth]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pred", "group", "truth"])
        writer.writerows(zip(pred, groups, truth))


WORKLOADS = {
    wl.name: wl for wl in (
        # The ROADMAP's canonical fit, cut to 60 epochs (20 of them warm-up).
        # The per-epoch 10-restart k-means in the
        # diagnostics takes about 49% of the time, so any k-means or
        # diagnostics change shows here. Profiled: backward 18%, forward 10%,
        # encode 8%, Adam 7%; 4.6-4.9 s for 60 epochs.
        FitWorkload(
            name="fit_canonical",
            spec=CANONICAL_SPEC,
            config=CANONICAL_CONFIG,
        ),
        # 3 classes x 4 groups x 50 rows at dim 64 with batch 16: 38 optimizer
        # steps per epoch through 4 decoder branches, so per-step overhead
        # dominates. Profiled: Adam 41%, backward 17%, forward 13%, graph
        # build 6%, k-means only about 15%. A parameter-buffer or graph-engine
        # change shows here; a k-means change should not. 9.7-10.9 s for 40
        # epochs.
        FitWorkload(
            name="fit_steps",
            spec=dict(CANONICAL_SPEC, groups=4, per_cell_count=50, dim=64),
            config=dict(k=3, max_epochs=40, batch_size=16),
        ),
        # The same layers at large n, taken once rather than per epoch.
        # Profiled at 18,000 held-out rows (now 6,000, see ScoreWorkload):
        # eval: k-means about 68%, load_csv 22%, encode 6%; 1.4-1.6 s.
        # Metrics: full_report plus the MI estimators about 42%, CLI label
        # parsing the rest; 0.8-0.86 s. Peak RSS about 383 MB, mostly the
        # dense one-hot N x K that full_report builds. A change that batches
        # k-means restarts to help n=900 and costs memory or bandwidth at
        # n=18k shows here.
        ScoreWorkload(
            name="score_heldout",
        ),
    )
}

# (per-layer metric, end-to-end metric it should move) per workload; layers
# absent from a workload's list should not move any of its metrics.
PREDICTIONS = {
    "fit_canonical": (
        ("clustering.kmeans.restarts.self_s", "fit_s, epoch_ms.*"),
        ("clustering.kmeans.refresh.self_s", "fit_s, epoch_ms.*"),
        ("clustering.soft_assign.self_s", "fit_s, epoch_ms.*"),
        ("autodiff.backward.self_s", "fit_s"),
        ("autodiff.forward.self_s", "fit_s"),
        ("model.encode.self_s", "fit_s, epoch_ms.* (two full encodes per epoch)"),
        ("trainer.adam_step.self_s", "fit_s"),
    ),
    "fit_steps": (
        ("trainer.adam_step.self_s", "fit_s"),
        ("trainer.fit.self_s", "fit_s (full_grads fill-and-filter)"),
        ("autodiff.forward.self_s", "fit_s"),
        ("autodiff.backward.self_s", "fit_s"),
        ("model.graph_build.self_s", "fit_s"),
        ("objectives.graph_build.self_s", "fit_s"),
        ("clustering.*", "barely moves fit_s"),
    ),
    "score_heldout": (
        ("clustering.kmeans.restarts.self_s", "eval_s, peak_rss_mb"),
        ("data.load_csv.self_s", "eval_s"),
        ("model.encode.self_s", "eval_s"),
        ("objectives.group_cluster_mi.self_s", "metrics_s, peak_rss_mb"),
        ("metrics.full_report.self_s", "metrics_s, peak_rss_mb"),
        ("cli.run.self_s", "metrics_s (label-CSV parsing)"),
        ("data.generate_synthetic.self_s", "setup_s"),
        ("autodiff.*, trainer.adam_step.*", "none: no training in an op"),
    ),
}
