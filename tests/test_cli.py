"""End-to-end command line behavior: pipelines, exit codes, artifact formats."""

import csv
import json
import logging
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairmi import cli, clustering, data, metrics, model, trainer

from helpers import traced_peak, weights_blob

SPEC = {
    "classes": 2, "groups": 2, "per_cell_count": 15, "class_sep": 6.0,
    "group_shift": 2.0, "dim": 4, "noise_sd": 0.8, "seed": 0,
}
CONFIG = {
    "k": 2, "latent_dim": 3, "layer_dims": [4, 6, 3], "warmup_epochs": 1,
    "max_epochs": 3, "batch_size": 32, "learning_rate": 1e-3, "seed": 0,
}


def subprocess_env():
    """The current environment with the package's source tree first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


LOG_METRICS = ("acc", "nmi", "bal", "mnce", "f_beta")


def no_kmeans(*args, **kwargs):
    raise AssertionError("k-means ran")


def rewrite_csv(src, dst, columns=None, keep=lambda row: True):
    """Copy a CSV with the named columns in the order given, a new one holding 1.0,
    and only the rows ``keep`` accepts."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = columns or list(rows[0])
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(c, "1.0") for c in columns] for row in rows if keep(row))
    return dst


@pytest.fixture()
def synth_csv(tmp_path):
    spec = write_json(tmp_path / "spec.json", SPEC)
    out = tmp_path / "data.csv"
    assert cli.run(["synth", "--spec", spec, "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_loadable_csv(self, synth_csv):
        header = synth_csv.read_text().splitlines()[0].split(",")
        assert header[-2:] == ["group", "label"]
        assert len(synth_csv.read_text().splitlines()) == 1 + 2 * 2 * 15

    def test_unknown_spec_key_fails_with_code_one(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**SPEC, "classses": 3})
        assert cli.run(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 1
        assert "classses" in capsys.readouterr().err

    def test_missing_spec_keys_are_named(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"classes": 2, "groups": 2})
        assert cli.run(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "missing synthetic spec keys: per_cell_count, class_sep, group_shift, dim, noise_sd, seed" in err
        assert "__init__" not in err

    @pytest.mark.parametrize(
        "change,fragment",
        [
            ({"per_cell_count": 10.0}, "per_cell_count must be an integer, got 10.0"),
            ({"class_sep": float("inf")}, "class_sep must be a finite number, got inf"),
            ({"noise_sd": "1"}, "noise_sd must be a finite number, got '1'"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_spec_field_is_named_before_writing(self, tmp_path, capsys, change, fragment):
        spec = write_json(tmp_path / "spec.json", {**SPEC, **change})
        out = tmp_path / "x.csv"
        assert cli.run(["synth", "--spec", spec, "--out", str(out)]) == 1
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_missing_flag_is_usage_error(self, capsys):
        assert cli.run(["synth", "--spec", "whatever.json"]) == 2
        capsys.readouterr()

    def test_malformed_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{nope")
        assert cli.run(["synth", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command,what", [("synth", "synthetic spec"), ("train", "config")])
    def test_non_object_json_names_file(self, synth_csv, tmp_path, capsys, command, what):
        bad = write_json(tmp_path / "bad.json", [1, 2])
        argv = {"synth": ["synth", "--spec", bad, "--out", str(tmp_path / "x.csv")],
                "train": ["train", "--data", str(synth_csv), "--config", bad,
                          "--out-dir", str(tmp_path / "run")]}[command]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert f"{what} file {bad}" in err and "JSON object" in err


class TestTrainEval:
    def test_pipeline_produces_all_artifacts(self, synth_csv, tmp_path):
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        rc = cli.run([
            "train", "--data", str(synth_csv), "--config", config,
            "--truth-col", "label", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        assert (out_dir / "checkpoint.bin").exists()
        assert (out_dir / "training_log.csv").exists()

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config"]["k"] == 2
        assert manifest["dataset"]["n"] == 60
        assert len(manifest["dataset"]["sha256"]) == 64
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]}}
        assert isinstance(manifest["train_seconds"], float) and manifest["train_seconds"] > 0

        log_lines = (out_dir / "training_log.csv").read_text().splitlines()
        assert log_lines[0].split(",")[0] == "epoch"
        assert len(log_lines) == 1 + CONFIG["max_epochs"]

        report_path = tmp_path / "report.json"
        rc = cli.run([
            "eval", "--data", str(synth_csv), "--config", config,
            "--truth-col", "label",
            "--checkpoint", str(out_dir / "checkpoint.bin"),
            "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["n"] == 60 and report["t"] == 2
        assert report["acc"] is not None

    def test_repeated_runs_are_byte_identical(self, synth_csv, tmp_path):
        config = write_json(tmp_path / "config.json", CONFIG)
        blobs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            assert cli.run([
                "train", "--data", str(synth_csv), "--config", config,
                "--truth-col", "label", "--out-dir", str(out_dir),
            ]) == 0
            blobs.append((
                (out_dir / "checkpoint.bin").read_bytes(),
                (out_dir / "training_log.csv").read_bytes(),
            ))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_periodic_checkpoints(self, synth_csv, tmp_path):
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        rc = cli.run([
            "train", "--data", str(synth_csv), "--config", config,
            "--truth-col", "label", "--out-dir", str(out_dir),
            "--checkpoint-every", "2",
        ])
        assert rc == 0
        # 3 epochs, every 2nd: snapshot after epoch 1 only, plus the final file
        assert (out_dir / "checkpoint_epoch0001.bin").exists()
        assert not (out_dir / "checkpoint_epoch0002.bin").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["artifacts"]["periodic_checkpoints"] == [
            str(out_dir / "checkpoint_epoch0001.bin")
        ]
        from fairmi.model import load_checkpoint

        mid = load_checkpoint(out_dir / "checkpoint_epoch0001.bin")
        final = load_checkpoint(out_dir / "checkpoint.bin")
        assert mid.layer_dims == final.layer_dims

    def test_every_epoch_checkpoints_are_snapshots(self, synth_csv, tmp_path):
        """Each periodic file holds its own epoch's weights, not the live ones."""
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        assert cli.run([
            "train", "--data", str(synth_csv), "--config", config,
            "--truth-col", "label", "--out-dir", str(out_dir), "--checkpoint-every", "1",
        ]) == 0
        final = (out_dir / "checkpoint.bin").read_bytes()
        assert (out_dir / "checkpoint_epoch0002.bin").read_bytes() == final
        assert (out_dir / "checkpoint_epoch0000.bin").read_bytes() != final

    def test_negative_checkpoint_every_is_usage_error(self, synth_csv, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        rc = cli.run(["train", "--data", str(synth_csv), "--config", config,
                      "--out-dir", str(out_dir), "--checkpoint-every", "-3"])
        assert rc == 2
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("every", ["abc", "1.5"])
    def test_non_integer_checkpoint_every_is_usage_error(self, synth_csv, tmp_path, capsys, every):
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        rc = cli.run(["train", "--data", str(synth_csv), "--config", config,
                      "--out-dir", str(out_dir), "--checkpoint-every", every])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"argument --checkpoint-every: must be a whole number >= 0 (0 disables), got {every}" in err
        assert not re.search(r"(?<!\w)_\w", err)  # no private function names
        assert not out_dir.exists()

    def test_unknown_config_key_fails_with_code_one(self, synth_csv, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {**CONFIG, "kk": 3})
        rc = cli.run(["train", "--data", str(synth_csv), "--config", config,
                      "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "kk" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,fragment",
        [
            ({"k": "2"}, "k must be an integer, got '2'"),
            ({"k": 2.0}, "k must be an integer, got 2.0"),
            ({"tau": float("nan")}, "tau must be a finite number, got nan"),
            ({"learning_rate": float("inf")}, "learning_rate must be a finite number, got inf"),
            ({"tau": 1e-310}, "tau must be large enough that 1 / tau is finite, got 1e-310"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_config_field_is_named_before_training(self, synth_csv, tmp_path, capsys, change, fragment):
        config = write_json(tmp_path / "config.json", {**CONFIG, **change})
        out_dir = tmp_path / "run"
        rc = cli.run(["train", "--data", str(synth_csv), "--config", config, "--out-dir", str(out_dir)])
        assert rc == 1
        assert fragment in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_data_file_fails_with_code_one(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", CONFIG)
        rc = cli.run(["train", "--data", str(tmp_path / "nope.csv"),
                      "--config", config, "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        capsys.readouterr()


class TestEvalScoring:
    """``eval`` on a version 2 checkpoint scores rows in the training feature space
    against the trained centers."""

    @pytest.fixture()
    def trained(self, synth_csv, tmp_path):
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        assert cli.run(["train", "--data", str(synth_csv), "--config", config, "--truth-col", "label",
                        "--out-dir", str(out_dir), "--checkpoint-every", "1"]) == 0
        return config, out_dir

    @staticmethod
    def eval_argv(data_csv, config, checkpoint, report, *extra):
        return ["eval", "--data", str(data_csv), "--config", config, "--checkpoint", str(checkpoint),
                "--report", str(report), *extra]

    def test_periodic_checkpoints_score_as_their_log_rows(self, synth_csv, trained, tmp_path, monkeypatch):
        config, out_dir = trained
        monkeypatch.setattr(clustering, "kmeans", no_kmeans)
        with open(out_dir / "training_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == CONFIG["max_epochs"]
        for epoch, row in enumerate(rows):
            report = tmp_path / f"report{epoch}.json"
            assert cli.run(self.eval_argv(synth_csv, config, out_dir / f"checkpoint_epoch{epoch:04d}.bin",
                                          report, "--truth-col", "label")) == 0
            written = json.loads(report.read_text())
            assert [written[n] for n in LOG_METRICS] == [float(row[n]) for n in LOG_METRICS]

    def test_heldout_rows_score_alike_in_a_subset_file(self, trained, tmp_path, monkeypatch):
        """A row's cluster does not depend on the other rows of the file it is scored in."""
        config, out_dir = trained
        spec = write_json(tmp_path / "heldout_spec.json", {**SPEC, "seed": 7, "per_cell_count": 12})
        heldout = tmp_path / "heldout.csv"
        assert cli.run(["synth", "--spec", spec, "--out", str(heldout)]) == 0
        subset = rewrite_csv(heldout, tmp_path / "subset.csv", keep=lambda row: row["label"] == "0")
        seen = []
        original = metrics.full_report

        def full_report(pred, groups, truth=None, beta=1.0):
            seen.append(np.array(pred))
            return original(pred, groups, truth, beta)

        monkeypatch.setattr(metrics, "full_report", full_report)
        for path in (heldout, subset):
            assert cli.run(self.eval_argv(path, config, out_dir / "checkpoint.bin", tmp_path / "r.json",
                                          "--truth-col", "label")) == 0
        labels = data.load_csv(heldout, "group", "label").labels
        full, part = seen
        np.testing.assert_array_equal(part, full[labels == 0])

    @pytest.mark.parametrize("columns,truth,message", [
        # without --truth-col the label column is one feature too many
        (None, [], "extra 'label'"),
        (["f0", "f1", "f3", "group", "label"], ["--truth-col", "label"], "missing 'f2'"),
        (["f0", "f1", "f3", "x", "group"], [], "missing 'f2'; extra 'x'"),
        (["f1", "f0", "f2", "f3", "group", "label"], ["--truth-col", "label"],
         "['f1', 'f0', 'f2', 'f3'] is in another order than ['f0', 'f1', 'f2', 'f3']"),
    ])
    def test_feature_columns_are_checked_by_name(self, synth_csv, trained, tmp_path, capsys,
                                                 columns, truth, message):
        config, out_dir = trained
        path = rewrite_csv(synth_csv, tmp_path / "cols.csv", columns)
        report = tmp_path / "r.json"
        assert cli.run(self.eval_argv(path, config, out_dir / "checkpoint.bin", report, *truth)) == 1
        assert f"{path}: feature columns differ from the training ones: {message}\n" in capsys.readouterr().err
        assert not report.exists()

    def test_no_standardize_is_a_train_only_flag(self, synth_csv, trained, tmp_path, capsys):
        config, out_dir = trained
        report = tmp_path / "r.json"
        assert cli.run(self.eval_argv(synth_csv, config, out_dir / "checkpoint.bin", report,
                                      "--truth-col", "label", "--no-standardize")) == 2
        assert "--no-standardize" in capsys.readouterr().err
        assert not report.exists()

    def test_a_model_trained_on_raw_features_scores_as_its_last_log_row(self, synth_csv, tmp_path,
                                                                         monkeypatch):
        """The checkpoint stores no transform, and eval reads the file raw."""
        config = write_json(tmp_path / "config.json", CONFIG)
        out_dir = tmp_path / "run"
        assert cli.run(["train", "--data", str(synth_csv), "--config", config, "--truth-col", "label",
                        "--out-dir", str(out_dir), "--no-standardize"]) == 0
        assert model.load_checkpoint(out_dir / "checkpoint.bin").scoring.transform is None
        monkeypatch.setattr(clustering, "kmeans", no_kmeans)
        report = tmp_path / "r.json"
        assert cli.run(self.eval_argv(synth_csv, config, out_dir / "checkpoint.bin", report,
                                      "--truth-col", "label")) == 0
        with open(out_dir / "training_log.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        written = json.loads(report.read_text())
        assert [written[n] for n in LOG_METRICS] == [float(last[n]) for n in LOG_METRICS]

    @pytest.mark.parametrize("kind", ["version_1", "init_params"])
    def test_a_checkpoint_without_trained_centers_is_refused(self, synth_csv, tmp_path, capsys, caplog,
                                                             kind):
        params = model.init_params(CONFIG["layer_dims"], 2, seed=3)
        checkpoint = tmp_path / "model.bin"
        if kind == "version_1":
            checkpoint.write_bytes(weights_blob(params, version=1))
            message = "unsupported checkpoint version 1"
        else:  # the weights and a zero center count, as a record without scoring was once saved
            checkpoint.write_bytes(weights_blob(params) + struct.pack("<I", 0))
            message = "checkpoint truncated in its scoring block"
        config = write_json(tmp_path / "config.json", CONFIG)
        report = tmp_path / "r.json"
        with caplog.at_level(logging.WARNING):
            assert cli.run(self.eval_argv(synth_csv, config, checkpoint, report, "--truth-col", "label")) == 1
        assert f"error: {checkpoint}: {message}" in capsys.readouterr().err
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert not report.exists()

    def test_a_library_fit_checks_columns_by_their_default_names(self, tmp_path, capsys):
        """A Dataset built without feature names has f0, f1, ..., which its fit records."""
        dataset = data.generate_synthetic(data.SyntheticSpec(**SPEC))
        params, _ = trainer.fit(trainer.TrainConfig.from_dict(CONFIG), dataset)
        assert params.scoring.feature_names == ("f0", "f1", "f2", "f3")
        checkpoint, own = tmp_path / "model.bin", tmp_path / "own.csv"
        model.save_checkpoint(params, checkpoint)
        data.save_csv(dataset, own)
        config = write_json(tmp_path / "config.json", CONFIG)
        report = tmp_path / "r.json"
        assert cli.run(self.eval_argv(own, config, checkpoint, report, "--truth-col", "label")) == 0
        report.unlink()
        reversed_csv = rewrite_csv(own, tmp_path / "reversed.csv", ["f3", "f2", "f1", "f0", "group", "label"])
        assert cli.run(self.eval_argv(reversed_csv, config, checkpoint, report, "--truth-col", "label")) == 1
        assert ("['f3', 'f2', 'f1', 'f0'] is in another order than ['f0', 'f1', 'f2', 'f3']"
                in capsys.readouterr().err)
        assert not report.exists()


class TestMetrics:
    def write_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "pred,group,truth\n"
            + "\n".join(f"{p},{g},{t}" for p, g, t in [
                (0, "a", 0), (0, "b", 0), (1, "a", 1), (1, "b", 1),
                (0, "a", 0), (1, "b", 1),
            ])
            + "\n"
        )
        return path

    def test_scores_external_partition(self, tmp_path):
        labels = self.write_labels(tmp_path)
        report_path = tmp_path / "report.json"
        rc = cli.run([
            "metrics", "--pred", str(labels), "--groups-col", "group",
            "--truth-col", "truth", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["acc"] == 1.0
        assert report["n"] == 6 and report["k"] == 2 and report["t"] == 2

    def test_a_perfectly_fair_partition_reports_zero_leakage(self, tmp_path):
        """4 clusters of 18 rows, groups cycling g0, g1, g2: I(G;C) is 0.0, never -0.0."""
        path = tmp_path / "fair.csv"
        path.write_text("pred,group\n" + "".join(f"{i // 18},g{i % 3}\n" for i in range(72)))
        report_path = tmp_path / "report.json"
        rc = cli.run(["metrics", "--pred", str(path), "--groups-col", "group", "--report", str(report_path)])
        assert rc == 0
        assert '"mi_gc": 0.0,' in report_path.read_text()
        report = metrics.full_report(np.arange(72) // 18, np.arange(72) % 3)
        assert report.mi_gc == 0.0 and not np.signbit(report.mi_gc)

    def test_a_partition_equal_to_the_groups_reports_zero_conditional_information(self, tmp_path):
        """90 rows, cluster i % 4 and group g{i % 4}: I(X;C|G) is 0.0, never -0.0."""
        path = tmp_path / "grouped.csv"
        path.write_text("pred,group\n" + "".join(f"{i % 4},g{i % 4}\n" for i in range(90)))
        report_path = tmp_path / "report.json"
        rc = cli.run(["metrics", "--pred", str(path), "--groups-col", "group", "--report", str(report_path)])
        assert rc == 0
        assert '"cmi_xcg": 0.0,' in report_path.read_text()
        report = metrics.full_report(np.arange(90) % 4, np.arange(90) % 4)
        assert report.cmi_xcg == 0.0 and not np.signbit(report.cmi_xcg)

    def test_custom_pred_column_and_beta(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("mine,g\n0,a\n0,b\n1,a\n1,b\n")
        report_path = tmp_path / "report.json"
        rc = cli.run([
            "metrics", "--pred", str(path), "--pred-col", "mine",
            "--groups-col", "g", "--beta", "0.5", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["acc"] is None
        assert report["bal"] == 1.0

    @pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
    def test_bad_beta_is_usage_error(self, tmp_path, capsys, beta):
        labels = self.write_labels(tmp_path)
        report_path = tmp_path / "report.json"
        rc = cli.run(["metrics", "--pred", str(labels), "--groups-col", "group",
                      "--truth-col", "truth", "--beta", beta, "--report", str(report_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--beta" in err and f"must be a finite number >= 0, got {beta}" in err
        assert not report_path.exists()

    def test_non_numeric_beta_is_usage_error(self, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        report_path = tmp_path / "report.json"
        rc = cli.run(["metrics", "--pred", str(labels), "--groups-col", "group",
                      "--beta", "abc", "--report", str(report_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "argument --beta: must be a finite number >= 0, got abc" in err
        assert not re.search(r"(?<!\w)_\w", err)  # no private function names
        assert not report_path.exists()

    def test_missing_column_fails_with_code_one(self, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        rc = cli.run(["metrics", "--pred", str(labels), "--groups-col", "sex",
                      "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "sex" in capsys.readouterr().err

    @pytest.mark.parametrize("text,fragments", [
        pytest.param("", ["empty file"], id="empty"),
        pytest.param("pred,g,g\n0,a,b\n", ["duplicate column names"], id="duplicate-header"),
        pytest.param("pred,g,y\n", ["no data rows"], id="header-only"),
        pytest.param("pred,g,y\n0,a,p\n1,b\n", ["row 3", "2 cells", "header has 3"], id="ragged"),
        pytest.param("pred,g,y\n0,a,p\n,b,q\n", ["row 3", "pred value", "column 'pred'"],
                     id="blank-pred"),
        pytest.param("pred,g,y\n0,a,p\n1,,q\n", ["row 3", "group value", "column 'g'"],
                     id="blank-group"),
        pytest.param("pred,g,y\n0,a,p\n1,b,\n", ["row 3", "truth value", "column 'y'"],
                     id="blank-truth"),
        pytest.param("pred,g,y\n0,a,p\n1, ,q\n", ["row 3", "group value", "column 'g'"],
                     id="space-group"),
        # blanks of two spellings in rows 3 and 4: the first one is named
        pytest.param("pred,g,y\n0,a,p\n1, ,q\n0,,p\n", ["row 3", "column 'g'"],
                     id="space-then-empty"),
        pytest.param("pred,g,y\n0,a,p\n1,,q\n0,\t,p\n", ["row 3", "column 'g'"],
                     id="empty-then-tab"),
    ])
    def test_malformed_label_csv_is_named(self, tmp_path, capsys, text, fragments):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        rc = cli.run(["metrics", "--pred", str(path), "--groups-col", "g",
                      "--truth-col", "y", "--report", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        for fragment in fragments:
            assert fragment in err
        assert not (tmp_path / "r.json").exists()

    def test_blank_group_cell_message_matches_load_csv(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("x,pred,g\n1.0,0,a\n2.0,1,b\n3.0,0,\n")
        with pytest.raises(data.DataError) as err:
            data.load_csv(path, group_column="g")
        rc = cli.run(["metrics", "--pred", str(path), "--groups-col", "g",
                      "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert f"error: {err.value}\n" in capsys.readouterr().err
        assert "row 4 is missing its group value in column 'g'" in str(err.value)

    @pytest.mark.parametrize("roles,message", [
        (["--pred-col", "g", "--groups-col", "g"], "column 'g' is named for two roles, pred and group"),
        (["--groups-col", "g", "--truth-col", "pred"], "column 'pred' is named for two roles, pred and truth"),
    ])
    def test_one_column_for_two_roles_fails_with_no_report(self, tmp_path, capsys, roles, message):
        path = tmp_path / "labels.csv"
        path.write_text("pred,g\n0,a\n1,b\n0,b\n")
        rc = cli.run(["metrics", "--pred", str(path), *roles, "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_groups_col_is_required(self, tmp_path, capsys):
        labels = self.write_labels(tmp_path)
        rc = cli.run(["metrics", "--pred", str(labels),
                      "--report", str(tmp_path / "r.json")])
        assert rc == 2
        capsys.readouterr()


class TestEntryPoint:
    def test_installed_console_script(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SPEC)
        out = tmp_path / "data.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fairmi.cli", "synth", "--spec", spec, "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "synth" in capsys.readouterr().out


def write_label_csv(path, n_rows, seed=0):
    """pred, group and truth columns of string labels: 50 clusters, 5 groups, 50 classes."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pred", "group", "truth"])
        writer.writerows(zip((f"c{v}" for v in rng.integers(0, 50, n_rows)),
                             (f"g{v}" for v in rng.integers(0, 5, n_rows)),
                             (f"t{v}" for v in rng.integers(0, 50, n_rows))))
    return path


def metrics_argv(path, report):
    return ["metrics", "--pred", str(path), "--groups-col", "group", "--truth-col", "truth",
            "--report", str(report)]


class TestChunkedMetricsInput:
    """``fairmi metrics`` reads its CSV in chunks of ``data.CHUNK_ROWS`` rows."""

    def test_report_equals_a_whole_file_reading(self, tmp_path, monkeypatch):
        path = write_label_csv(tmp_path / "labels.csv", 1001)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))[1:]
        ids = [{}, {}, {}]
        pred, groups, truth = (np.array([d.setdefault(row[j], len(d)) for row in records])
                               for j, d in enumerate(ids))
        metrics.write_report(metrics.full_report(pred, groups, truth), tmp_path / "want.json")
        monkeypatch.setattr(data, "CHUNK_ROWS", 7)
        assert cli.run(metrics_argv(path, tmp_path / "report.json")) == 0
        assert (tmp_path / "report.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("text,fragment", [
        # chunks of 3 rows: lines 2-4, then 5, 7 (line 6 is blank) and 8
        ("0,a,p\n1,b,q\n0,a,p\n1,b,q\n\n0,a\n", "row 7 has 2 cells, header has 3"),
        ("0,a,p\n1,b,q\n0,a,p\n1,b,q\n\n0,,p\n", "row 7 is missing its group value in column 'group'"),
        # a blank truth cell in chunk 1 is reported before a short row in chunk 2
        ("0,a,p\n1,b, \n0,a,p\n1,b\n", "row 3 is missing its truth value in column 'truth'"),
    ])
    def test_fault_names_its_file_line_across_chunks(self, tmp_path, capsys, monkeypatch, text, fragment):
        monkeypatch.setattr(data, "CHUNK_ROWS", 3)
        path = tmp_path / "labels.csv"
        path.write_text("pred,group,truth\n" + text)
        assert cli.run(metrics_argv(path, tmp_path / "r.json")) == 1
        assert f"error: {path}: {fragment}\n" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_reading_100k_rows_allocates_under_8_mb(self, tmp_path):
        """tracemalloc's peak over one call; the whole-file reader peaked at about 25 MB."""
        path = write_label_csv(tmp_path / "labels.csv", 100_000)
        codes = []
        peak = traced_peak(lambda: codes.append(cli.run(metrics_argv(path, tmp_path / "report.json"))))
        assert codes == [0]
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_peak_rss_barely_grows_with_file_length(self, tmp_path):
        """A 200,000-row file raises a process's peak RSS by under 20 MB over a 10-row one."""
        code = (
            "import resource, sys\n"
            "from fairmi import cli\n"
            "assert cli.run(['metrics', '--pred', sys.argv[1], '--groups-col', 'group',\n"
            "                '--truth-col', 'truth', '--report', sys.argv[2]]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"  # KiB on Linux
        )
        peaks = []
        for n_rows in (10, 200_000):
            path = write_label_csv(tmp_path / f"labels{n_rows}.csv", n_rows)
            done = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "r.json")],
                                  check=True, capture_output=True, text=True, env=subprocess_env())
            peaks.append(int(done.stdout))
        assert peaks[1] - peaks[0] < 20 * 1024, f"peak RSS {peaks[0]} KiB -> {peaks[1]} KiB"


@pytest.mark.parametrize("command", ["train_truth", "eval_truth", "metrics", "metrics_truth"])
def test_no_command_loads_scipy(synth_csv, tmp_path, command):
    """numpy is the only runtime dependency: scoring against a truth column included,
    a fresh process running the command has no ``scipy`` module loaded."""
    config = write_json(tmp_path / "config.json", {**CONFIG, "max_epochs": 2})
    train = ["train", "--data", str(synth_csv), "--config", config,
             "--truth-col", "label", "--out-dir", str(tmp_path / "run")]
    labels = tmp_path / "labels.csv"
    labels.write_text("pred,group,truth\n0,a,0\n1,b,1\n0,b,0\n1,a,1\n")
    metrics_argv = ["metrics", "--pred", str(labels), "--groups-col", "group",
                    "--report", str(tmp_path / "metrics.json")]
    if command == "eval_truth":
        assert cli.run(train) == 0
    argv = {
        "train_truth": train,
        "eval_truth": ["eval", "--data", str(synth_csv), "--config", config, "--truth-col", "label",
                       "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                       "--report", str(tmp_path / "eval.json")],
        "metrics": metrics_argv,
        "metrics_truth": [*metrics_argv, "--truth-col", "truth"],
    }[command]
    code = (
        "import sys\n"
        "from fairmi import cli\n"
        "assert cli.run(sys.argv[1:]) == 0\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_metrics_and_eval_score_through_the_metrics_module_attribute(synth_csv, tmp_path, monkeypatch):
    """Both commands call ``metrics.full_report`` by attribute, so a patch of it sees them."""
    config = write_json(tmp_path / "config.json", CONFIG)
    assert cli.run(["train", "--data", str(synth_csv), "--config", config, "--truth-col", "label",
                    "--out-dir", str(tmp_path / "run")]) == 0
    checkpoint = tmp_path / "run" / "checkpoint.bin"
    labels = tmp_path / "labels.csv"
    labels.write_text("pred,group\n0,a\n1,b\n0,b\n1,a\n")
    seen = []
    original = metrics.full_report

    def full_report(pred, groups, truth=None, beta=1.0):
        seen.append(len(pred))
        return original(pred, groups, truth, beta)

    monkeypatch.setattr(metrics, "full_report", full_report)
    assert cli.run(["metrics", "--pred", str(labels), "--groups-col", "group",
                    "--report", str(tmp_path / "metrics.json")]) == 0
    assert cli.run(["eval", "--data", str(synth_csv), "--config", config, "--truth-col", "label",
                    "--checkpoint", str(checkpoint), "--report", str(tmp_path / "eval.json")]) == 0
    assert seen == [4, 60]


def test_numpy_versions_in_reports_are_plain_json(tmp_path):
    """Report files must contain JSON scalars, not numpy repr leakage."""
    path = tmp_path / "labels.csv"
    path.write_text("pred,group\n0,a\n1,b\n0,b\n1,a\n")
    report_path = tmp_path / "report.json"
    assert cli.run(["metrics", "--pred", str(path), "--groups-col", "group",
                    "--report", str(report_path)]) == 0
    text = report_path.read_text()
    assert "float64" not in text and "int64" not in text
    loaded = json.loads(text)
    assert isinstance(loaded["n"], int)
    assert isinstance(loaded["bal"], float)
