"""Command line entry points: synth, train, eval, metrics.

Machine-readable output goes only to the files named by flags; diagnostics
go to stderr. Exit codes: 0 success, 2 usage errors, 1 runtime failures.
The metrics subcommand works on plain label CSVs, so external partitions
can be scored without a trained model. Every subcommand reads its CSV input
through ``data``, which owns the format and its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, data, metrics, model, trainer


def _read_json(path, what):
    """The JSON object in a spec or config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise RuntimeError(f"cannot read {what} file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object of named fields")
    return raw


def _environment():
    """The interpreter, numpy and BLAS a run used; the BLAS as numpy's build reports it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cmd_synth(args):
    raw = _read_json(args.spec, "synthetic spec")
    spec = data.record_from_dict(data.SyntheticSpec, raw, data.DataError, "synthetic spec")
    dataset = data.generate_synthetic(spec)
    data.save_csv(dataset, args.out)
    logging.info("wrote %d rows to %s", dataset.n, args.out)
    return 0


def _epoch_count(text):
    """argparse type of --checkpoint-every: a whole number >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # argparse would name this function in its message
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 0 (0 disables), got {text}")
    return value


def _trade_off_weight(text):
    """argparse type of --beta: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # argparse would name this function in its message
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _cmd_train(args):
    config = trainer.TrainConfig.from_dict(_read_json(args.config, "config"))
    dataset = data.load_csv(args.data, group_column=args.groups_col, label_column=args.truth_col,
                            standardize_features=not args.no_standardize)
    os.makedirs(args.out_dir, exist_ok=True)

    periodic = []
    hooks = None
    if args.checkpoint_every > 0:
        # the record reads fit's live arrays, so it is written during the call
        def save_periodic(epoch, params, _every=args.checkpoint_every):
            if (epoch + 1) % _every == 0:
                path = os.path.join(args.out_dir, f"checkpoint_epoch{epoch:04d}.bin")
                model.save_checkpoint(params, path)
                periodic.append(path)

        hooks = trainer.TrainerHooks(on_params=save_periodic)
    start = time.perf_counter()
    params, logs = trainer.fit(config, dataset, hooks)
    train_seconds = time.perf_counter() - start

    ckpt_path = os.path.join(args.out_dir, "checkpoint.bin")
    log_path = os.path.join(args.out_dir, "training_log.csv")
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    model.save_checkpoint(params, ckpt_path)
    trainer.write_log_csv(logs, log_path)
    manifest = {
        "tool_version": __version__,
        "seed": config.seed,
        "config": asdict(config),
        "dataset": {"path": args.data, "sha256": _sha256(args.data), "n": dataset.n,
                    "dim": dataset.dim, "groups": dataset.n_groups},
        "artifacts": {"checkpoint": ckpt_path, "training_log": log_path,
                      "periodic_checkpoints": periodic},
        "environment": _environment(),
        "train_seconds": train_seconds,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    logging.info("training done: %s", manifest_path)
    return 0


def _cmd_eval(args):
    config = trainer.TrainConfig.from_dict(_read_json(args.config, "config"))
    try:
        params = model.load_checkpoint(args.checkpoint)
    except model.ModelError as e:
        raise model.ModelError(f"{args.checkpoint}: {e}") from e
    # read raw: evaluate maps the rows through the training transform
    dataset = data.load_csv(args.data, group_column=args.groups_col, label_column=args.truth_col,
                            standardize_features=False)
    try:
        report = trainer.evaluate(params, dataset, config)
    except trainer.TrainError as e:
        raise trainer.TrainError(f"{args.data}: {e}") from e
    metrics.write_report(report, args.report)
    logging.info("wrote report to %s", args.report)
    return 0


def _cmd_metrics(args):
    columns = [(args.pred_col, "pred"), (args.groups_col, "group")]
    if args.truth_col is not None:
        columns.append((args.truth_col, "truth"))
    (pred, _), (groups, _), *rest = data.read_csv(args.pred, columns)[0]
    truth = rest[0][0] if rest else None
    report = metrics.full_report(pred, groups, truth, beta=args.beta)
    metrics.write_report(report, args.report)
    logging.info("wrote report to %s", args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmi",
        description="Fairness-aware deep clustering: train, evaluate, and score partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--spec", required=True, help="JSON file of synthetic spec fields")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_synth)

    for name, help_text in (("train", "train a model"), ("eval", "evaluate a checkpoint")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="dataset CSV")
        p.add_argument("--config", required=True, help="JSON training config")
        p.add_argument("--groups-col", default="group", help="group column name")
        p.add_argument("--truth-col", default=None, help="optional ground-truth column name")
        if name == "train":
            p.add_argument("--no-standardize", action="store_true", help="skip per-column standardization")
            p.add_argument("--out-dir", required=True, help="directory for checkpoint, log, manifest")
            p.add_argument("--checkpoint-every", type=_epoch_count, default=0, metavar="N",
                           help="also write a checkpoint every N epochs (0 disables)")
            p.set_defaults(func=_cmd_train)
        else:
            p.add_argument("--checkpoint", required=True, help="model checkpoint path")
            p.add_argument("--report", required=True, help="output report JSON path")
            p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("metrics", help="score an externally produced partition")
    p.add_argument("--pred", required=True, help="CSV holding the predicted labels")
    p.add_argument("--pred-col", default="pred", help="predicted label column name")
    p.add_argument("--groups-col", required=True, help="group column name")
    p.add_argument("--truth-col", default=None, help="optional ground-truth column name")
    p.add_argument("--beta", type=_trade_off_weight, default=1.0,
                   help="quality/fairness trade-off weight, a finite number >= 0")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_metrics)
    return parser


def run(argv) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles usage errors itself
        return int(e.code or 0)
    try:
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - boundary: report and set the exit code
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
