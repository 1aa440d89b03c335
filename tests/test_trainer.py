"""Optimizer, config, training loop mechanics, and the evaluate path."""

import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairmi import clustering, data, model, objectives, trainer

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


LABEL_METRICS = ("acc", "nmi", "bal", "mnce", "f_beta")


def no_kmeans(*args, **kwargs):
    raise AssertionError("k-means ran")


def trace_fit(monkeypatch):
    """Per epoch of the fits that follow, in call order: each batch's set of
    loss-graph terms, "initial" for the k-means with restarts and no start
    that opens a fit, and "measure" for each k-means started from given centers.

    An epoch ends with its "measure".
    """
    per_epoch, ended = {}, [0]
    kmeans, batch_graphs = clustering.kmeans, trainer._batch_graphs

    def kmeans_spy(*args, **kwargs):
        if kwargs.get("init") is None:
            assert kwargs.get("restarts", 1) > 1
            per_epoch.setdefault(ended[0], []).append("initial")
        else:
            assert kwargs.get("restarts", 1) == 1
            per_epoch.setdefault(ended[0], []).append("measure")
            ended[0] += 1
        return kmeans(*args, **kwargs)

    def batch_graphs_spy(*args):
        roots = batch_graphs(*args)
        per_epoch.setdefault(ended[0], []).append(set(roots))
        return roots

    monkeypatch.setattr(clustering, "kmeans", kmeans_spy)
    monkeypatch.setattr(trainer, "_batch_graphs", batch_graphs_spy)
    return per_epoch


def fit_records(monkeypatch, hooks=None):
    """Fit 4 epochs; return the arrays Adam updates, every ModelParams record built, and fit's record."""
    live, records = [], []
    original_step = trainer.adam_step
    original_check = model.ModelParams.__post_init__

    def spy(params, *args, **kwargs):
        live.append(params)
        return original_step(params, *args, **kwargs)

    def check(record):
        original_check(record)
        records.append(record)

    monkeypatch.setattr(trainer, "adam_step", spy)
    monkeypatch.setattr(model.ModelParams, "__post_init__", check)
    final, _ = trainer.fit(small_config(max_epochs=4), small_dataset(), hooks)
    assert live and all(arrays is live[0] for arrays in live)
    return live[0], records, final


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
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8  # the module's defaults
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
            trainer.adam_step(params, {"w": g.copy()}, state, step, lr)
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
            ({"k": 3, "seed": -1}, "seed must be >= 0, got -1"),
            ({"k": 3, "latent_dim": 3, "layer_dims": [4, 6.0, 3]}, "layer_dims must be a list of integers"),
            ({"k": 3, "latent_dim": 3, "layer_dims": 3}, "layer_dims must be a list of integers, got 3"),
        ],
    )
    def test_bad_field_types_are_named(self, raw, fragment):
        with pytest.raises(trainer.TrainError) as err:
            trainer.TrainConfig.from_dict(raw)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"k": 3, "max_epochs": 10}, "warmup_epochs (20) must not exceed max_epochs (10)"),
            ({"k": 3, "max_epochs": 0}, "max_epochs must be >= 1, got 0"),
            ({"k": 3, "warmup_epochs": -1}, "warmup_epochs must be >= 0, got -1"),
            ({"k": 3, "tau": 0}, "tau must be > 0, got 0"),
            ({"k": 3, "learning_rate": -0.5}, "learning_rate must be > 0, got -0.5"),
            ({"k": 3, "alpha": -1}, "alpha must be >= 0, got -1"),
            ({"k": 3, "f_beta_weight": -0.5}, "f_beta_weight must be >= 0, got -0.5"),
            ({"k": 1}, "k must be >= 2, got 1"),
            ({"k": np.int64(1)}, "k must be >= 2, got 1"),
            ({"k": 3, "tau": np.float64(-1.0)}, "tau must be > 0, got -1.0"),
            ({"k": 3, "tau": 1e-310}, "tau must be large enough that 1 / tau is finite, got 1e-310"),
            ({"k": 3, "tau": np.float64(1e-310)}, "tau must be large enough that 1 / tau is finite, got 1e-310"),
            ({"k": 3, "latent_dim": 0}, "latent_dim must be >= 1, got 0"),
            ({"k": 3, "batch_size": 0}, "batch_size must be >= 1, got 0"),
            ({"k": 3, "latent_dim": 3, "layer_dims": [4, 0, 3]},
             "layer_dims needs >= 2 widths, each >= 1, got [4, 0, 3]"),
            ({"k": 3, "latent_dim": 3, "layer_dims": [4, 99]},
             "layer_dims must end at latent_dim (3), got [4, 99]"),
        ],
    )
    def test_range_errors_name_the_field_and_value(self, raw, message):
        with pytest.raises(trainer.TrainError) as err:
            trainer.TrainConfig.from_dict(raw)
        assert str(err.value) == message

    def test_integer_reals_and_numpy_scalars_accepted(self):
        cfg = trainer.TrainConfig.from_dict({"k": np.int64(3), "tau": 1, "learning_rate": np.float64(1e-3),
                                             "seed": 0})
        assert cfg.k == 3 and cfg.tau == 1

    def test_tiny_tau_with_a_finite_inverse_is_accepted(self):
        assert trainer.TrainConfig(k=3, tau=1e-300).tau == 1e-300

    def test_default_layer_dims_resolution(self):
        cfg = trainer.TrainConfig(k=2, latent_dim=16)
        assert cfg.resolve_layer_dims(30) == (30, 256, 64, 16)

    def test_explicit_layer_dims_must_match_data(self):
        cfg = small_config()
        assert cfg.resolve_layer_dims(5) == (5, 8, 3)
        with pytest.raises(trainer.TrainError):
            cfg.resolve_layer_dims(7)


class TestFit:
    def test_warmup_never_builds_cluster_terms(self, monkeypatch):
        per_epoch = trace_fit(monkeypatch)
        cfg = small_config(warmup_epochs=3, max_epochs=5)
        trainer.fit(cfg, small_dataset())
        assert sorted(per_epoch) == [0, 1, 2, 3, 4]
        for epoch, events in per_epoch.items():
            terms = [e for e in events if not isinstance(e, str)]
            want = {"l_rec", "l_total"} if epoch < 3 else {"l_rec", "l_clu", "l_fair", "l_total"}
            assert terms and all(t == want for t in terms)
            # warmup epochs measure too, so the first trained epoch has centers
            assert [e for e in events if isinstance(e, str)] == ["initial"] * (epoch == 0) + ["measure"]

    def test_centers_refresh_precedes_batches(self, monkeypatch):
        per_epoch = trace_fit(monkeypatch)
        cfg = small_config(warmup_epochs=0, max_epochs=2, batch_size=30)
        trainer.fit(cfg, small_dataset())
        assert sorted(per_epoch) == [0, 1]
        terms = [{"l_rec", "l_clu", "l_fair", "l_total"}] * 3  # 80 rows in batches of 30
        # epoch 1 trains against the centers epoch 0 ended with
        assert per_epoch[0] == ["initial", *terms, "measure"]
        assert per_epoch[1] == [*terms, "measure"]

    @pytest.mark.parametrize("warmup", [0, 2])
    def test_each_epoch_trains_against_the_centers_measured_last(self, monkeypatch, warmup):
        """Epoch e's loss graphs and its measurement start from the Scoring.centers
        on_params carried for epoch e-1, or from the initial centers at epoch 0."""
        initial, starts, pulled, measured = [], [], [], []
        kmeans, graph = clustering.kmeans, clustering.soft_assign_graph

        def kmeans_spy(*args, **kwargs):
            result = kmeans(*args, **kwargs)
            if kwargs.get("init") is None:
                initial.append(result[0].copy())
            else:
                starts.append(np.array(kwargs["init"]))
            return result

        def graph_spy(h, centers, tau):
            pulled.append((len(measured), centers.copy()))
            return graph(h, centers, tau)

        monkeypatch.setattr(clustering, "kmeans", kmeans_spy)
        monkeypatch.setattr(clustering, "soft_assign_graph", graph_spy)
        hooks = trainer.TrainerHooks(on_params=lambda _, p: measured.append(p.scoring.centers.copy()))
        final, _ = trainer.fit(small_config(warmup_epochs=warmup, max_epochs=4), small_dataset(), hooks)
        assert len(initial) == 1 and len(measured) == 4
        last = initial + measured[:-1]  # the centers measured last before each epoch
        assert [c.tobytes() for c in starts] == [c.tobytes() for c in last]
        assert sorted({epoch for epoch, _ in pulled}) == list(range(warmup, 4))
        for epoch, centers in pulled:
            assert centers.tobytes() == last[epoch].tobytes()
        assert final.scoring.centers.tobytes() == measured[-1].tobytes()

    @pytest.mark.parametrize("warmup,epochs", [(0, 1), (0, 3), (2, 5), (5, 5)])
    def test_a_fit_runs_one_kmeans_per_epoch_plus_one(self, monkeypatch, warmup, epochs):
        calls = []
        kmeans = clustering.kmeans

        def counted(*args, **kwargs):
            calls.append(kwargs.get("restarts", 1))
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(clustering, "kmeans", counted)
        trainer.fit(small_config(warmup_epochs=warmup, max_epochs=epochs), small_dataset())
        assert calls == [10] + [1] * epochs  # 1 + epochs calls, only the initial one with restarts

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

    def test_labels_never_steer_training(self):
        """Labels as given, permuted or absent give the same parameters and centers after every
        epoch, and the same losses and information columns; only the label metrics differ."""
        ds = small_dataset()
        permuted = np.random.default_rng(3).permutation(ds.labels)
        assert not np.array_equal(permuted, ds.labels)

        def state(params):
            return [a.tobytes() for a in params.arrays.values()] + [params.scoring.centers.tobytes()]

        runs = []
        for labels in (ds.labels, permuted, None):
            epochs = []
            hooks = trainer.TrainerHooks(on_params=lambda _, params, epochs=epochs: epochs.append(state(params)))
            final, logs = trainer.fit(small_config(), replace(ds, labels=labels), hooks)
            assert epochs[-1] == state(final)
            columns = {name: [getattr(log, name) for log in logs]
                       for name in ("l_rec", "l_clu", "l_fair", "l_total", "mi_gc", "cmi_xcg")}
            runs.append((epochs, columns, [log.acc for log in logs]))
        (epochs, columns, acc), *others = runs
        assert len(epochs) == 5 and all(a is not None for a in acc)
        for other_epochs, other_columns, _ in others:
            assert other_epochs == epochs and other_columns == columns
        assert runs[1][2] != acc and all(a is None for a in runs[2][2])  # the labels were read

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

    def test_labeled_single_group_rejected_before_training(self, monkeypatch):
        ds = data.generate_synthetic(data.SyntheticSpec(
            classes=2, groups=1, per_cell_count=20, class_sep=6.0,
            group_shift=0.0, dim=5, noise_sd=0.8, seed=0))
        per_epoch = trace_fit(monkeypatch)
        with pytest.raises(trainer.TrainError, match="2 groups"):
            trainer.fit(small_config(), ds)
        assert per_epoch == {}
        # without labels there is no mnce to log, so one group still trains
        unlabeled = data.Dataset(features=ds.features, groups=ds.groups)
        _, logs = trainer.fit(small_config(max_epochs=3), unlabeled)
        assert len(logs) == 3 and sorted(per_epoch) == [0, 1, 2]

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

    def test_the_last_steps_gradients_are_gone_by_the_end_of_epoch_encode(self, monkeypatch):
        last, alive = [], []
        original_step, original_encode = trainer.adam_step, model.encode

        def spy(params, grads, *args, **kwargs):
            last[:] = [weakref.ref(grads["enc.0.W"])]
            return original_step(params, grads, *args, **kwargs)

        def encode(params, x):
            if last:  # the encode before the first step has no step behind it
                alive.append(last[0]() is not None)
            return original_encode(params, x)

        monkeypatch.setattr(trainer, "adam_step", spy)
        monkeypatch.setattr(model, "encode", encode)
        trainer.fit(small_config(max_epochs=3), small_dataset())
        assert alive == [False, False, False]

    def test_without_a_params_hook_fit_copies_the_parameters_once(self, monkeypatch):
        """The copy fit returns is the only one; each epoch's check reads the live arrays."""
        live, records, final = fit_records(monkeypatch)
        copies = [r for r in records if not np.shares_memory(r.arrays["enc.0.W"], live["enc.0.W"])]
        assert len(copies) == 1 and copies[0] is final
        assert len(records) == 1 + 4 + 1  # init, one check per epoch, the returned copy

    def test_with_a_params_hook_fit_copies_the_parameters_once(self, monkeypatch):
        """Each record the hook gets reads the live arrays; only the one fit returns is a copy."""
        seen = []
        hooks = trainer.TrainerHooks(on_params=lambda epoch, p: seen.append(p))
        live, records, final = fit_records(monkeypatch, hooks)
        assert len(seen) == 4 and all(p.arrays[name] is live[name] for p in seen for name in live)
        copies = [r for r in records if not np.shares_memory(r.arrays["enc.0.W"], live["enc.0.W"])]
        assert len(copies) == 1 and copies[0] is final
        assert len(records) == 1 + 4 + 4 + 1  # init, each epoch's check and hook record, the copy

    def test_a_non_finite_parameter_raises_in_the_epoch_it_appears(self, monkeypatch):
        ds = small_dataset()
        original = trainer.adam_step

        def poison(params, grads, state, step, lr):
            original(params, grads, state, step, lr)
            if step == 2:  # one batch per epoch: the last update of epoch 1
                params["enc.0.W"][0, 0] = np.nan

        monkeypatch.setattr(trainer, "adam_step", poison)
        logs = []
        hooks = trainer.TrainerHooks(on_epoch=logs.append)
        with pytest.raises(model.ModelError, match="enc.0.W is non-finite"):
            trainer.fit(small_config(batch_size=ds.n, max_epochs=4), ds, hooks)
        assert [log.epoch for log in logs] == [0]

    def test_traced_peak_of_a_canonical_fit_stays_under_5_5_mb(self):
        """Nothing of a finished step outlives it: keeping the last step's gradients
        and an unread per-epoch copy of the parameters peaked at 6.3 MB."""
        spec = data.SyntheticSpec(classes=3, groups=2, per_cell_count=150, class_sep=8.0,
                                  group_shift=6.0, dim=16, noise_sd=1.0, seed=1)
        ds = data.generate_synthetic(spec)
        cfg = trainer.TrainConfig(k=3, max_epochs=22, seed=1)
        peak = traced_peak(lambda: trainer.fit(cfg, ds))
        assert peak < 5.5 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_traced_peak_of_a_30_group_fit_stays_under_32_mb(self):
        """804,496 parameters, 6.4 MB per copy of them: keeping the last step's
        gradients and an unread per-epoch copy peaked at 40.6 MB."""
        spec = data.SyntheticSpec(classes=3, groups=30, per_cell_count=10, class_sep=8.0,
                                  group_shift=6.0, dim=32, noise_sd=1.0, seed=1)
        ds = data.generate_synthetic(spec)
        cfg = trainer.TrainConfig(k=3, warmup_epochs=2, max_epochs=6, seed=1)
        peak = traced_peak(lambda: trainer.fit(cfg, ds))
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.2f} MB"


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
        # k-means products of the initial centers and of each epoch's
        # measurement above OpenBLAS's single-thread size cut
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
    def test_a_record_without_trained_centers_is_refused(self):
        ds = small_dataset()
        params = model.init_params((5, 8, 3), ds.n_groups, seed=0)
        with pytest.raises(trainer.TrainError, match="no trained centers.*fit"):
            trainer.evaluate(params, ds, small_config())

    def test_deterministic(self):
        ds = small_dataset()
        cfg = small_config(max_epochs=3)
        params, _ = trainer.fit(cfg, ds)
        assert trainer.evaluate(params, ds, cfg) == trainer.evaluate(params, ds, cfg)

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scores_as_the_last_log_row_with_no_kmeans(self, seed, monkeypatch):
        """On its training data a fitted record reproduces its last epoch log exactly,
        from the centers that log row was measured with."""
        spec = data.SyntheticSpec(classes=3, groups=2, per_cell_count=150, class_sep=8.0,
                                  group_shift=6.0, dim=16, noise_sd=1.0, seed=seed)
        ds = data.generate_synthetic(spec)
        cfg = trainer.TrainConfig(k=3, max_epochs=60, seed=seed)
        params, logs = trainer.fit(cfg, ds)
        monkeypatch.setattr(clustering, "kmeans", no_kmeans)
        report = trainer.evaluate(params, ds, cfg)
        assert [getattr(report, n) for n in LABEL_METRICS] == [getattr(logs[-1], n) for n in LABEL_METRICS]

    def test_every_params_copy_scores_as_its_epoch_log_row(self, monkeypatch):
        """Each epoch's record, scored while the hook holds it, gives that epoch's log row."""
        scorings, reports = [], []
        cfg = small_config(max_epochs=4)
        ds = small_dataset()
        evaluate = trainer.evaluate

        def score(epoch, p):
            scorings.append(p.scoring)
            with monkeypatch.context() as m:
                m.setattr(clustering, "kmeans", no_kmeans)
                reports.append(evaluate(p, ds, cfg))

        final, logs = trainer.fit(cfg, ds, trainer.TrainerHooks(on_params=score))
        assert final.scoring is scorings[-1]
        assert final.scoring.tau == cfg.tau and final.scoring.k == cfg.k
        assert final.scoring.transform is None
        assert final.scoring.feature_names == ("f0", "f1", "f2", "f3", "f4")
        assert len(reports) == len(logs) == 4
        for report, log in zip(reports, logs):
            assert [getattr(report, n) for n in LABEL_METRICS] == [getattr(log, n) for n in LABEL_METRICS]

    def test_rejects_a_config_or_dataset_the_model_was_not_trained_with(self):
        ds = small_dataset()
        cfg = small_config()
        params, _ = trainer.fit(cfg, ds)
        for config, match in ((small_config(k=3), "config k=3 differs from the 2 centers"),
                              (small_config(tau=0.2), "config tau=0.2 differs from the tau=0.1")):
            with pytest.raises(trainer.TrainError, match=match):
                trainer.evaluate(params, ds, config)
        transform = data.feature_transform(ds.features)
        standardized = replace(ds, features=data._transformed(ds.features, transform), transform=transform)
        with pytest.raises(trainer.TrainError, match="feature transform differs"):
            trainer.evaluate(params, standardized, cfg)
        params, _ = trainer.fit(cfg, standardized)
        assert params.scoring.transform is transform
        shifted = replace(standardized, transform=(transform[0] + 1.0, transform[1]))
        with pytest.raises(trainer.TrainError, match="feature transform differs from the training one: "
                                                     r"load new data raw \(standardize_features=False\)"):
            trainer.evaluate(params, shifted, cfg)
        # a raw dataset is mapped through the training transform
        assert trainer.evaluate(params, ds, cfg) == trainer.evaluate(params, standardized, cfg)

    @staticmethod
    def fit_on_csv(tmp_path):
        """A fit on a standardized load of a saved synthetic file, and the file."""
        path = tmp_path / "train.csv"
        data.save_csv(small_dataset(), path)
        cfg = small_config()
        params, _ = trainer.fit(cfg, data.load_csv(path, "group", "label"))
        return params, cfg, path

    def test_a_raw_load_of_the_training_file_scores_as_its_standardized_load(self, tmp_path):
        params, cfg, path = self.fit_on_csv(tmp_path)
        std = data.load_csv(path, "group", "label")
        raw = data.load_csv(path, "group", "label", standardize_features=False)
        assert raw.transform is None
        mapped = trainer._scoring_features(params.scoring, raw, cfg)
        assert mapped.tobytes() == std.features.tobytes()
        assert repr(trainer.evaluate(params, raw, cfg)) == repr(trainer.evaluate(params, std, cfg))

    def test_feature_columns_are_checked_by_name_before_mapping(self, tmp_path):
        params, cfg, path = self.fit_on_csv(tmp_path)
        rows = path.read_text().splitlines()
        flipped = tmp_path / "reversed.csv"
        flipped.write_text("".join(",".join(line.split(",")[4::-1] + line.split(",")[5:]) + "\n"
                                   for line in rows))
        raw = data.load_csv(flipped, "group", "label", standardize_features=False)
        assert raw.feature_names == ("f4", "f3", "f2", "f1", "f0")
        with pytest.raises(trainer.TrainError, match=re.escape(
                "feature columns differ from the training ones: ['f4', 'f3', 'f2', 'f1', 'f0'] "
                "is in another order than ['f0', 'f1', 'f2', 'f3', 'f4']")):
            trainer.evaluate(params, raw, cfg)
        for names, message in ((("f0", "f1", "f2", "f3", "x"), "missing 'f4'; extra 'x'"),
                               (("f0", "f1", "f2", "f3", "f4", "f5"), "extra 'f5'")):
            # a wrong width is a name mismatch, found before the transform is applied
            other = data.Dataset(np.ones((raw.n, len(names))), raw.groups, raw.labels, feature_names=names)
            with pytest.raises(trainer.TrainError, match=f"differ from the training ones: {message}$"):
                trainer.evaluate(params, other, cfg)
