"""Optimizer, config, training loop mechanics, and the evaluate path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairmi import data, model, objectives, trainer

from helpers import traced_peak


def small_dataset(seed=0, per_cell=20):
    spec = data.SyntheticSpec(
        classes=2, groups=2, per_cell_count=per_cell, class_sep=6.0,
        group_shift=3.0, dim=5, noise_sd=0.8, seed=seed,
    )
    return data.generate_synthetic(spec)


def small_config(**kw):
    base = dict(
        k=2, latent_dim=3, layer_dims=(5, 8, 3), warmup_epochs=2,
        max_epochs=5, batch_size=32, learning_rate=1e-3, seed=0,
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


def adam(params, grads, step=1, lr=0.1):
    """One in-place step on params from fresh moments; returns the state it used."""
    state = trainer.AdamState(params)
    trainer.adam_step(params, grads, state, step, lr)
    return state


class TestAdam:
    def test_zero_gradients_leave_params_alone(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam(params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        np.testing.assert_array_equal(state.m["w"], 0.0)

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        params = {"w": np.array([0.0, 0.0])}
        adam(params, {"w": np.array([3.0, -0.5])}, lr=0.01)
        # bias correction makes m_hat = g and v_hat = g*g on step one
        np.testing.assert_allclose(params["w"], [-0.01, 0.01], atol=1e-8)

    def test_ten_step_recurrence_matches_reference(self):
        """Textbook recurrence with bias correction, in the same order of operations."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        ref_w, m, v = w.copy(), np.zeros(4), np.zeros(4)
        params = {"w": w}
        state = trainer.AdamState(params)
        for step in range(1, 11):
            g = rng.normal(size=4)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            ref_w = ref_w - lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
            trainer.adam_step(params, {"w": g.copy()}, state, step, lr, b1, b2, eps)
            assert np.array_equal(params["w"], ref_w)
            assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
        assert params["w"] is w  # updated in place

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(trainer.TrainError):
            adam({"w": np.zeros(1)}, {"w": np.array([np.inf])})

    def test_non_finite_gradient_leaves_every_array_unchanged(self):
        """The check runs over all gradients before the first write."""
        rng = np.random.default_rng(1)
        params = {name: rng.normal(size=3) for name in ("a", "b", "c")}
        state = adam(params, {name: rng.normal(size=3) for name in params})
        before = {name: (params[name].copy(), state.m[name].copy(), state.v[name].copy())
                  for name in params}
        grads = {name: rng.normal(size=3) for name in params}
        grads["c"][2] = np.inf
        with pytest.raises(trainer.TrainError, match="for c"):
            trainer.adam_step(params, grads, state, 2, lr=0.1)
        for name, (value, m, v) in before.items():
            assert np.array_equal(params[name], value)
            assert np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)

    def test_missing_gradient_is_a_zero_gradient(self):
        """A decoder branch absent from a batch: its moments still decay."""
        rng = np.random.default_rng(2)
        init = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=3)}
        grads = [{"a": rng.normal(size=(2, 3)), "b": rng.normal(size=3)}, {"a": rng.normal(size=(2, 3))}]
        runs = []
        for explicit in (False, True):
            params = {name: value.copy() for name, value in init.items()}
            state = trainer.AdamState(params)
            for step, g in enumerate(grads, start=1):
                if explicit:
                    g = {name: g.get(name, np.zeros_like(value)) for name, value in params.items()}
                trainer.adam_step(params, g, state, step, lr=0.1)
            runs.append((params, state))
        (p1, s1), (p2, s2) = runs
        for name in init:
            assert np.array_equal(p1[name], p2[name])
            assert np.array_equal(s1.m[name], s2.m[name]) and np.array_equal(s1.v[name], s2.v[name])
        b1 = trainer.ADAM_BETA1
        assert np.array_equal(s1.m["b"], b1 * ((1 - b1) * grads[0]["b"]))  # decayed once

    def test_step_counts_from_one(self):
        with pytest.raises(trainer.TrainError):
            adam({"w": np.zeros(1)}, {"w": np.zeros(1)}, step=0)

    def test_updates_params_and_state_in_place(self):
        """Params and moments are written in place; the gradients are only read."""
        w = np.array([1.0])
        g = np.array([2.0])
        params = {"w": w}
        state = trainer.AdamState(params)
        m, v = state.m["w"], state.v["w"]
        trainer.adam_step(params, {"w": g}, state, 1, lr=0.1)
        assert params["w"] is w and state.m["w"] is m and state.v["w"] is v
        np.testing.assert_allclose(w, [0.9], atol=1e-8)
        np.testing.assert_allclose(m, [0.2], atol=1e-15)
        np.testing.assert_array_equal(g, [2.0])

    def test_scratch_is_two_buffers_the_size_of_the_largest_parameter(self):
        params = {"a": np.zeros((4, 5)), "b": np.zeros(7), "c": np.zeros((2, 3))}
        state = trainer.AdamState(params)
        owners = {}
        for name, pair in state.scratch.items():
            assert [view.shape for view in pair] == [params[name].shape] * 2
            for view in pair:
                owner = view if view.base is None else view.base
                owners[id(owner)] = owner
        assert sorted(owner.size for owner in owners.values()) == [20, 20]

    def test_shared_scratch_matches_per_parameter_scratch_bit_for_bit(self):
        rng = np.random.default_rng(3)
        init = {"a": rng.normal(size=(4, 5)), "b": rng.normal(size=7), "c": rng.normal(size=(2, 3))}
        runs = []
        for shared in (True, False):
            params = {name: value.copy() for name, value in init.items()}
            state = trainer.AdamState(params)
            if not shared:  # the reference: scratch arrays of each parameter's own
                state.scratch = {name: (np.empty_like(value), np.empty_like(value))
                                 for name, value in params.items()}
            draws = np.random.default_rng(4)
            for step in range(1, 7):
                grads = {name: draws.normal(size=value.shape) for name, value in params.items()}
                trainer.adam_step(params, grads, state, step, lr=0.05)
            runs.append((params, state))
        (p1, s1), (p2, s2) = runs
        for name in init:
            assert p1[name].tobytes() == p2[name].tobytes()
            assert s1.m[name].tobytes() == s2.m[name].tobytes()
            assert s1.v[name].tobytes() == s2.v[name].tobytes()


class TestConfig:
    def test_from_dict_round_trip(self):
        cfg = trainer.TrainConfig.from_dict({"k": 3, "alpha": 0.1, "seed": 7})
        assert cfg.k == 3 and cfg.alpha == 0.1 and cfg.seed == 7
        assert cfg.beta_fair == 0.20 and cfg.tau == 0.1  # defaults kept

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(trainer.TrainError) as err:
            trainer.TrainConfig.from_dict({"k": 2, "alhpa": 0.1})
        assert "alhpa" in str(err.value)

    def test_from_dict_requires_k(self):
        with pytest.raises(trainer.TrainError):
            trainer.TrainConfig.from_dict({"alpha": 0.1})

    @pytest.mark.parametrize(
        "kw",
        [
            {"k": 1},
            {"k": 2, "tau": 0.0},
            {"k": 2, "alpha": -0.1},
            {"k": 2, "warmup_epochs": 10, "max_epochs": 5},
            {"k": 2, "batch_size": 0},
            {"k": 2, "layer_dims": (4, 8, 99), "latent_dim": 3},
        ],
    )
    def test_invalid_settings_rejected(self, kw):
        with pytest.raises(trainer.TrainError):
            trainer.TrainConfig(**kw)

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"k": "3"}, "k must be an integer, got '3'"),
            ({"k": 3.0}, "k must be an integer, got 3.0"),
            ({"k": True}, "k must be an integer, got True"),
            ({"k": 3, "batch_size": 64.0}, "batch_size must be an integer"),
            ({"k": 3, "tau": float("nan")}, "tau must be a finite number, got nan"),
            ({"k": 3, "learning_rate": float("inf")}, "learning_rate must be a finite number"),
            ({"k": 3, "alpha": "0.1"}, "alpha must be a finite number, got '0.1'"),
            ({"k": 3, "beta_fair": False}, "beta_fair must be a finite number"),
            ({"k": 3, "seed": -1}, "seed must be non-negative, got -1"),
            ({"k": 3, "latent_dim": 3, "layer_dims": [4, 6.0, 3]}, "layer_dims must be a list of integers"),
            ({"k": 3, "latent_dim": 3, "layer_dims": 3}, "layer_dims must be a list of integers, got 3"),
        ],
    )
    def test_bad_field_types_are_named(self, raw, fragment):
        with pytest.raises(trainer.TrainError) as err:
            trainer.TrainConfig.from_dict(raw)
        assert fragment in str(err.value)

    def test_integer_reals_and_numpy_scalars_accepted(self):
        cfg = trainer.TrainConfig.from_dict({"k": np.int64(3), "tau": 1, "learning_rate": np.float64(1e-3),
                                             "seed": 0})
        assert cfg.k == 3 and cfg.tau == 1

    def test_default_layer_dims_resolution(self):
        cfg = trainer.TrainConfig(k=2, latent_dim=16)
        assert cfg.resolve_layer_dims(30) == (30, 256, 64, 16)

    def test_explicit_layer_dims_must_match_data(self):
        cfg = small_config()
        assert cfg.resolve_layer_dims(5) == (5, 8, 3)
        with pytest.raises(trainer.TrainError):
            cfg.resolve_layer_dims(7)


class TestFit:
    def test_warmup_never_builds_cluster_terms(self):
        seen_terms, refreshes = [], []
        hooks = trainer.TrainerHooks(
            on_centers_refresh=lambda epoch, centers: refreshes.append(epoch),
            on_batch=lambda epoch, b, values: seen_terms.append((epoch, set(values))),
        )
        cfg = small_config(warmup_epochs=3, max_epochs=5)
        trainer.fit(cfg, small_dataset(), hooks)
        for epoch, terms in seen_terms:
            if epoch < 3:
                assert terms == {"l_rec", "l_total"}
            else:
                assert terms == {"l_rec", "l_clu", "l_fair", "l_total"}
        assert refreshes == [3, 4]  # once per post-warmup epoch

    def test_centers_refresh_precedes_batches(self):
        order = []
        hooks = trainer.TrainerHooks(
            on_centers_refresh=lambda epoch, centers: order.append(("refresh", epoch)),
            on_batch=lambda epoch, b, values: order.append(("batch", epoch, b)),
        )
        cfg = small_config(warmup_epochs=0, max_epochs=2, batch_size=30)
        trainer.fit(cfg, small_dataset(), hooks)
        per_epoch = {}
        for event in order:
            per_epoch.setdefault(event[1], []).append(event[0])
        for epoch, events in per_epoch.items():
            assert events[0] == "refresh"
            assert events.count("refresh") == 1

    def test_warmup_loss_decreases(self):
        cfg = small_config(warmup_epochs=8, max_epochs=8, learning_rate=5e-3)
        _, logs = trainer.fit(cfg, small_dataset())
        assert logs[-1].l_rec < logs[0].l_rec

    def test_warmup_rows_log_identity_total(self):
        cfg = small_config(warmup_epochs=2, max_epochs=3)
        _, logs = trainer.fit(cfg, small_dataset())
        for log in logs[:2]:
            assert log.l_clu == 0.0 and log.l_fair == 0.0
            assert log.l_total == log.l_rec

    def test_total_recomposes_from_terms(self):
        cfg = small_config(warmup_epochs=0, max_epochs=3, alpha=0.3, beta_fair=0.7)
        _, logs = trainer.fit(cfg, small_dataset())
        for log in logs:
            np.testing.assert_allclose(
                log.l_total, log.l_rec + 0.3 * log.l_clu + 0.7 * log.l_fair, atol=1e-9)

    def test_zero_weights_reduce_to_reconstruction(self):
        cfg = small_config(warmup_epochs=0, max_epochs=3, alpha=0.0, beta_fair=0.0)
        _, logs = trainer.fit(cfg, small_dataset())
        for log in logs:
            np.testing.assert_allclose(log.l_total, log.l_rec, atol=1e-12)

    def test_same_seed_reproduces_params_and_logs(self):
        cfg = small_config()
        ds = small_dataset()
        p1, logs1 = trainer.fit(cfg, ds)
        p2, logs2 = trainer.fit(cfg, ds)
        for (w1, b1), (w2, b2) in zip(p1.all_arrays(), p2.all_arrays()):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        assert logs1 == logs2

    def test_different_seed_differs(self):
        ds = small_dataset()
        _, logs1 = trainer.fit(small_config(seed=0), ds)
        _, logs2 = trainer.fit(small_config(seed=1), ds)
        assert logs1 != logs2

    def test_epoch_logs_carry_supervised_metrics_when_labeled(self):
        cfg = small_config(max_epochs=3)
        _, logs = trainer.fit(cfg, small_dataset())
        for log in logs:
            assert log.acc is not None and log.mnce is not None
            assert np.isfinite(log.mi_gc) and np.isfinite(log.cmi_xcg)

    def test_unlabeled_data_leaves_quality_fields_none(self):
        ds = small_dataset()
        unlabeled = data.Dataset(features=ds.features, groups=ds.groups)
        cfg = small_config(max_epochs=2)
        _, logs = trainer.fit(cfg, unlabeled)
        for log in logs:
            assert log.acc is None and log.f_beta is None
            assert np.isfinite(log.mi_gc)

    def test_too_few_samples_rejected(self):
        ds = small_dataset()
        tiny = data.Dataset(features=ds.features[:3], groups=np.array([0, 1, 0]))
        with pytest.raises(trainer.TrainError):
            trainer.fit(small_config(k=4, layer_dims=None, latent_dim=3), tiny)

    def test_labeled_single_group_rejected_before_training(self):
        ds = data.generate_synthetic(data.SyntheticSpec(
            classes=2, groups=1, per_cell_count=20, class_sep=6.0,
            group_shift=0.0, dim=5, noise_sd=0.8, seed=0))
        batches = []
        hooks = trainer.TrainerHooks(on_batch=lambda *a: batches.append(a))
        with pytest.raises(trainer.TrainError, match="2 groups"):
            trainer.fit(small_config(), ds, hooks)
        assert batches == []
        # without labels there is no mnce to log, so one group still trains
        unlabeled = data.Dataset(features=ds.features, groups=ds.groups)
        _, logs = trainer.fit(small_config(max_epochs=3), unlabeled, hooks)
        assert len(logs) == 3 and batches

    def test_degenerate_latents_raise_train_error_naming_epoch(self):
        """All-zero features give identical latents; the epoch's diagnostics cannot cluster them."""
        ds = small_dataset()
        flat = data.Dataset(features=np.zeros_like(ds.features), groups=ds.groups, labels=ds.labels)
        with pytest.raises(trainer.TrainError, match="epoch 0: .*all points identical"):
            trainer.fit(small_config(), flat)

    def test_params_hook_sees_every_epoch(self):
        seen = []
        hooks = trainer.TrainerHooks(on_params=lambda epoch, p: seen.append((epoch, p)))
        cfg = small_config(max_epochs=4)
        final, _ = trainer.fit(cfg, small_dataset(), hooks)
        assert [e for e, _ in seen] == [0, 1, 2, 3]
        last = seen[-1][1]
        np.testing.assert_array_equal(last.arrays["enc.0.W"], final.arrays["enc.0.W"])

    def test_params_hook_gets_snapshots(self):
        """What the hook received stays as it was; fit returns the last epoch's copy."""
        seen = []

        def keep(epoch, p):
            copies = [a.copy() for layer in p.all_arrays() for a in layer]
            seen.append((p, copies))

        final, _ = trainer.fit(small_config(max_epochs=4), small_dataset(),
                               trainer.TrainerHooks(on_params=keep))
        for p, copies in seen:
            arrays = [a for layer in p.all_arrays() for a in layer]
            assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
        last = [a for layer in final.all_arrays() for a in layer]
        assert all(np.array_equal(a, c) for a, c in zip(last, seen[-1][1]))
        assert not np.array_equal(seen[0][1][0], seen[-1][1][0])

    def test_snapshots_share_no_storage_with_the_live_arrays(self, monkeypatch):
        live = []
        original = trainer.adam_step

        def spy(params, *args, **kwargs):
            live.append(params)
            return original(params, *args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", spy)
        seen = []
        final, _ = trainer.fit(small_config(max_epochs=3), small_dataset(),
                               trainer.TrainerHooks(on_params=lambda epoch, p: seen.append(p)))
        assert live and all(arrays is live[0] for arrays in live)
        for p in seen + [final]:
            for name, a in p.arrays.items():
                assert not np.shares_memory(a, live[0][name]), name

    def test_one_group_cluster_mi_per_epoch(self, monkeypatch):
        calls = []
        original = objectives.group_cluster_mi

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(objectives, "group_cluster_mi", counted)
        _, logs = trainer.fit(small_config(max_epochs=4), small_dataset())
        assert len(calls) == len(logs) == 4

    def test_fairness_term_suppresses_group_leakage_when_groups_dominate(self):
        """On data where the group offset dominates class structure, training
        without the fairness term leaves group information in the clusters;
        turning it on lowers the final leakage, averaged over seeds."""
        final_mi = {1.0: [], 0.0: []}
        for seed in (1, 2, 3):
            spec = data.SyntheticSpec(
                classes=3, groups=2, per_cell_count=60, class_sep=4.0,
                group_shift=12.0, dim=8, noise_sd=1.0, seed=seed,
            )
            ds = data.generate_synthetic(spec)
            for beta in (1.0, 0.0):
                cfg = trainer.TrainConfig(
                    k=3, beta_fair=beta, seed=seed, latent_dim=8,
                    layer_dims=(8, 32, 8), warmup_epochs=10, max_epochs=80,
                    batch_size=128, learning_rate=1e-3,
                )
                _, logs = trainer.fit(cfg, ds)
                final_mi[beta].append(logs[-1].mi_gc)
        assert np.mean(final_mi[1.0]) < np.mean(final_mi[0.0])

    def test_traced_peak_of_a_canonical_fit_stays_under_8_mb(self):
        """A step holds its saved activations, not its whole graph; keeping every
        value and gradient of the graph until the next step peaked at 11.6 MB."""
        spec = data.SyntheticSpec(classes=3, groups=2, per_cell_count=150, class_sep=8.0,
                                  group_shift=6.0, dim=16, noise_sd=1.0, seed=1)
        ds = data.generate_synthetic(spec)
        cfg = trainer.TrainConfig(k=3, max_epochs=22, seed=1)
        peak = traced_peak(lambda: trainer.fit(cfg, ds))
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestLogCSV:
    def test_format_and_empty_cells(self, tmp_path):
        logs = [
            trainer.EpochLog(0, 1.5, 0.0, 0.0, 1.5, 0.25, 0.5),
            trainer.EpochLog(1, 1.25, -0.5, 0.125, 1.0, 0.2, 0.45,
                             acc=0.9, nmi=0.8, bal=0.7, mnce=0.6, f_beta=0.685),
        ]
        path = tmp_path / "log.csv"
        trainer.write_log_csv(logs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(trainer.LOG_COLUMNS)
        assert lines[1] == "0,1.500000,0.000000,0.000000,1.500000,0.250000,0.500000,,,,,"
        assert lines[2].startswith("1,1.250000,-0.500000,0.125000,1.000000")
        assert lines[2].endswith("0.900000,0.800000,0.700000,0.600000,0.685000")

    def test_byte_identical_for_identical_runs(self, tmp_path):
        cfg = small_config(max_epochs=3)
        ds = small_dataset()
        paths = []
        for name in ("a.csv", "b.csv"):
            _, logs = trainer.fit(cfg, ds)
            path = tmp_path / name
            trainer.write_log_csv(logs, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        """The log must not depend on how many threads BLAS splits a product over."""
        # 6,000 rows and a 16-wide latent put the batch products and the
        # k-means products of the refresh and the diagnostics above
        # OpenBLAS's single-thread size cut
        script = (
            "import sys\n"
            "from fairmi import data, trainer\n"
            "spec = data.SyntheticSpec(classes=3, groups=2, per_cell_count=1000, class_sep=8.0,\n"
            "                          group_shift=6.0, dim=16, noise_sd=1.0, seed=2)\n"
            "cfg = trainer.TrainConfig(k=3, warmup_epochs=1, max_epochs=3, batch_size=2000, seed=2)\n"
            "_, logs = trainer.fit(cfg, data.generate_synthetic(spec))\n"
            "trainer.write_log_csv(logs, sys.argv[1])\n"
        )
        src = str(Path(trainer.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        logs = []
        for threads in ("1", "2"):
            path = tmp_path / f"log_{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
            logs.append(path.read_bytes())
        assert logs[0].count(b"\n") == 4
        assert logs[0] == logs[1]


class TestEvaluate:
    def test_fresh_model_report_is_complete(self):
        ds = small_dataset()
        cfg = small_config()
        params = model.init_params((5, 8, 3), ds.n_groups, seed=0)
        report = trainer.evaluate(params, ds, cfg)
        assert report.n == len(ds) and report.k >= 1
        assert 0.0 <= report.acc <= 1.0
        assert report.mi_gc >= -1e-12

    def test_deterministic(self):
        ds = small_dataset()
        cfg = small_config()
        params = model.init_params((5, 8, 3), ds.n_groups, seed=3)
        assert trainer.evaluate(params, ds, cfg) == trainer.evaluate(params, ds, cfg)

    def test_degenerate_encoder_still_reports(self, caplog):
        import logging

        ds = small_dataset()
        cfg = small_config()
        init = model.init_params((5, 8, 3), ds.n_groups, seed=0)
        flat = {name: np.zeros_like(arr) for name, arr in init.arrays.items()}
        zeroed = model.ModelParams((5, 8, 3), ds.n_groups, flat)
        with caplog.at_level(logging.WARNING):
            report = trainer.evaluate(zeroed, ds, cfg)
        assert "jitter" in caplog.text
        assert report.n == len(ds)

    def test_trained_model_beats_chance_on_easy_data(self):
        spec = data.SyntheticSpec(
            classes=2, groups=2, per_cell_count=40, class_sep=10.0,
            group_shift=0.0, dim=5, noise_sd=0.5, seed=1,
        )
        ds = data.generate_synthetic(spec)
        cfg = small_config(warmup_epochs=5, max_epochs=30, learning_rate=2e-3)
        params, _ = trainer.fit(cfg, ds)
        report = trainer.evaluate(params, ds, cfg)
        assert report.acc >= 0.9
