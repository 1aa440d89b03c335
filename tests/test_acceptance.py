"""Acceptance gate: one test per shipped-behavior criterion.

Each test prints a `criterion N: PASS|FAIL` line with the measured numbers
before asserting, so a verbose run doubles as the release checklist. The
end-to-end criterion trains six models and is by far the slowest item here;
everything else finishes in seconds.
"""

import itertools
import json
import time

import numpy as np
import pytest

from fairmi import autodiff as ad
from fairmi import cli, clustering, data, metrics, model, objectives, trainer

from helpers import entropy, grad_check


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def one_hot(pred, k):
    probs = np.zeros((len(pred), k))
    probs[np.arange(len(pred)), pred] = 1.0
    return probs


def counting_entropy(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def counting_mi(a, b):
    n = len(a)
    total = 0.0
    for va in np.unique(a):
        pa = np.sum(a == va) / n
        for vb in np.unique(b):
            joint = np.sum((a == va) & (b == vb)) / n
            if joint > 0:
                total += joint * np.log(joint / (pa * (np.sum(b == vb) / n)))
    return total


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients of every loss term match finite differences

def _flat_loss_fn(root, template, x):
    names = sorted(template)
    shapes = [template[n].shape for n in names]
    sizes = [template[n].size for n in names]

    def unpack(vec):
        out, ofs = {}, 0
        for name, shape, size in zip(names, shapes, sizes):
            out[name] = vec[ofs: ofs + size].reshape(shape)
            ofs += size
        return out

    def fn(vec):
        params = unpack(vec)
        value = ad.forward(root, {**params, "x": x})
        grads = ad.backward(root)
        flat_grad = np.concatenate([
            np.ravel(grads.get(name, np.zeros(shape)))
            for name, shape in zip(names, shapes)
        ])
        return float(value), flat_grad

    point = np.concatenate([np.ravel(template[n]) for n in names])
    return fn, point


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for trial in range(20):
        t_groups = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        n = int(rng.integers(max(k + 1, t_groups, 4), 17))
        latent = int(rng.integers(2, 5))
        layer_dims = (d, int(rng.integers(3, 7)), latent)

        x = rng.normal(size=(n, d))
        groups = rng.integers(0, t_groups, size=n)
        groups[:t_groups] = np.arange(t_groups)
        params = model.init_params(layer_dims, t_groups, seed=trial).arrays
        h = model.encode(model.ModelParams(layer_dims, t_groups, params), x)
        centers, _ = clustering.kmeans(h, k, seed=(trial, 7))

        cfg = trainer.TrainConfig(k=k, encoder_widths=layer_dims[1:],
                                  max_epochs=1, warmup_epochs=0, seed=trial)
        roots = trainer._batch_graphs(x, groups, layer_dims, t_groups, centers=centers, cfg=cfg)
        for name in ("l_rec", "l_clu", "l_fair", "l_total"):
            fn, point = _flat_loss_fn(roots[name], params, x)
            err = grad_check(fn, point, step=1e-5)
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    assert _verdict(1, ok, f"max rel err {worst:.3e} over 20 configs x 4 losses, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: estimators match brute-force counting on random hard labelings

def test_criterion_2_counting_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 51))
        k = int(rng.integers(2, 6))
        t = int(rng.integers(2, 5))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        groups = rng.integers(0, t, size=n)
        pred[:2], truth[:2] = (0, 1), (0, 1)
        groups[:t] = np.arange(t)  # estimator rejects empty groups

        assign = one_hot(pred, k)
        h_c = objectives.conditional_mi(assign, 0.0)  # one-hot rows: H(C|X) = 0, so this is H(C)
        worst = max(worst, abs(h_c - counting_entropy(pred)))
        mi = objectives.group_cluster_mi(assign, groups, t)
        worst = max(worst, abs(mi - counting_mi(groups, pred)))

        expected_nmi = counting_mi(pred, truth) / np.sqrt(
            counting_entropy(pred) * counting_entropy(truth))
        worst = max(worst, abs(metrics.nmi(metrics.contingency(pred, truth)) - expected_nmi))

        hg = counting_entropy(groups)
        expected_mnce = min(
            counting_entropy(groups[pred == c]) for c in np.unique(pred)) / hg
        worst = max(worst, abs(metrics.mnce(metrics.contingency(pred, groups)) - expected_mnce))
    ok = worst < 1e-10
    assert _verdict(2, ok, f"max abs deviation {worst:.3e} over 100 labelings")


# ---------------------------------------------------------------------------
# criterion 3: proportional mixes score exactly 1, and only even mixes do

def test_criterion_3_proportional_partition_property():
    rng = np.random.default_rng(11)
    worst_one = 0.0
    converse_checked = 0
    worst_converse = 0.0
    for _ in range(40):
        t = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        base = rng.integers(1, 6, size=t)
        mults = rng.integers(1, 5, size=k)
        pred, groups = [], []
        for c in range(k):
            for g in range(t):
                count = int(base[g] * mults[c])
                pred.extend([c] * count)
                groups.extend([g] * count)
        pred, groups = np.asarray(pred), np.asarray(groups)
        value = metrics.mnce(metrics.contingency(pred, groups))
        worst_one = max(worst_one, abs(value - 1.0))

        # converse direction on this and a perturbed partition
        for cand in (pred, rng.permutation(pred)):
            if abs(metrics.mnce(metrics.contingency(cand, groups)) - 1.0) <= 1e-9:
                converse_checked += 1
                hg = counting_entropy(groups)
                for c in np.unique(cand):
                    worst_converse = max(
                        worst_converse, abs(counting_entropy(groups[cand == c]) - hg))
    ok = worst_one <= 1e-9 and worst_converse <= 1e-9 and converse_checked >= 40
    assert _verdict(
        3, ok,
        f"proportional dev {worst_one:.3e}; {converse_checked} unit-score cases, "
        f"per-cluster entropy dev {worst_converse:.3e}")


# ---------------------------------------------------------------------------
# criterion 4: the fairness loss is zero iff the joint factorizes

def test_criterion_4_factorized_joint_and_aligned_onehot():
    rng = np.random.default_rng(13)
    worst_zero = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        t = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        base = rng.dirichlet(np.ones(k), size=m)
        assign = np.concatenate([base for _ in range(t * 2)])
        groups = np.repeat(np.arange(t), 2 * m)
        worst_zero = max(worst_zero, objectives.group_cluster_mi(assign, groups, t))

    groups = np.repeat([0, 1], 30)
    aligned = one_hot(groups, 2)
    ln2_dev = abs(objectives.group_cluster_mi(aligned, groups, 2) - np.log(2.0))
    ok = worst_zero <= 1e-9 and ln2_dev <= 1e-9
    assert _verdict(4, ok, f"factorized mi max {worst_zero:.3e}, ln2 dev {ln2_dev:.3e}")


# ---------------------------------------------------------------------------
# criterion 5: frozen score combinations

def test_criterion_5_f_beta_reference_values():
    a = metrics.f_beta(0.834, 0.682, 1.0)
    b = metrics.f_beta(0.918, 0.923, 1.0)
    ok = abs(a - 0.750) <= 5e-4 and abs(b - 0.920) <= 5e-4
    assert _verdict(5, ok, f"f(0.834,0.682)={a:.6f}, f(0.918,0.923)={b:.6f}")


# ---------------------------------------------------------------------------
# criterion 6: Hungarian matching equals exhaustive permutation search

def _brute_force_accuracy(pred, truth):
    ks, cs = np.unique(pred), np.unique(truth)
    small, large, swap = (ks, cs, False) if len(ks) <= len(cs) else (cs, ks, True)
    best = 0
    for chosen in itertools.permutations(large, len(small)):
        mapping = dict(zip(small, chosen))
        if swap:
            hits = sum(1 for p, t in zip(pred, truth) if mapping.get(t) == p)
        else:
            hits = sum(1 for p, t in zip(pred, truth) if mapping.get(p) == t)
        best = max(best, hits)
    return best / len(pred)


def test_criterion_6_accuracy_equals_exhaustive_search():
    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        if metrics.accuracy(metrics.contingency(pred, truth)) != _brute_force_accuracy(pred, truth):
            mismatches += 1
    ok = mismatches == 0
    assert _verdict(6, ok, f"{mismatches} mismatches over 50 instances")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end training on the standard synthetic benchmark

SWEEP_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def ablation_runs():
    """Six full trainings: seeds {1,2,3} x fairness weight {0.20, 0}."""
    runs = {}
    for seed in SWEEP_SEEDS:
        spec = data.SyntheticSpec(classes=3, groups=2, per_cell_count=150,
                                  class_sep=8.0, group_shift=6.0, dim=16,
                                  noise_sd=1.0, seed=seed)
        ds = data.generate_synthetic(spec)
        for beta in (0.20, 0.0):
            cfg = trainer.TrainConfig(k=3, beta_fair=beta, seed=seed)
            start = time.monotonic()
            params, logs = trainer.fit(cfg, ds)
            elapsed = time.monotonic() - start
            report = trainer.evaluate(params, ds, cfg)
            runs[(seed, beta)] = (report, logs, elapsed)
    return runs


def test_criterion_7_end_to_end_synthetic(ablation_runs):
    fair = [ablation_runs[(s, 0.20)] for s in SWEEP_SEEDS]
    base = [ablation_runs[(s, 0.0)] for s in SWEEP_SEEDS]

    acc_ok = all(r.acc >= 0.95 for r, _, _ in fair)
    mnce_ok = all(r.mnce >= 0.90 for r, _, _ in fair)
    time_ok = all(t <= 300.0 for _, _, t in list(fair) + list(base))

    mnce_delta = (np.mean([r.mnce for r, _, _ in fair])
                  - np.mean([r.mnce for r, _, _ in base]))
    delta_ok = mnce_delta >= 0.05

    mi_fair = float(np.mean([logs[-1].mi_gc for _, logs, _ in fair]))
    mi_base = float(np.mean([logs[-1].mi_gc for _, logs, _ in base]))
    mi_ok = mi_fair < mi_base

    detail = (
        f"per-seed acc {[f'{r.acc:.3f}' for r, _, _ in fair]} (>=0.95 {acc_ok}); "
        f"per-seed mnce {[f'{r.mnce:.3f}' for r, _, _ in fair]} (>=0.90 {mnce_ok}); "
        f"mean mnce delta {mnce_delta:+.4f} (>=0.05 {delta_ok}); "
        f"final mi_gc {mi_fair:.2e} vs {mi_base:.2e} (strict < {mi_ok}); "
        f"max runtime {max(t for _, _, t in list(fair) + list(base)):.0f}s (<=300 {time_ok})"
    )
    ok = bool(acc_ok and mnce_ok and time_ok and delta_ok and mi_ok)
    assert _verdict(7, ok, detail)


# ---------------------------------------------------------------------------
# criterion 8: the information terms recompose the cluster entropy exactly

def test_criterion_8_conditional_mi_identity():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        t = int(rng.integers(2, 4))
        assign = rng.dirichlet(np.ones(k), size=n)
        groups = rng.integers(0, t, size=n)
        groups[:t] = np.arange(t)

        mi = objectives.group_cluster_mi(assign, groups, t)
        lhs = objectives.conditional_mi(assign, mi) + mi + entropy(assign) / n
        worst = max(worst, abs(lhs - entropy(assign.mean(axis=0))))
    ok = worst <= 1e-9
    assert _verdict(8, ok, f"max identity residual {worst:.3e} over 100 assignments")


# ---------------------------------------------------------------------------
# criterion 9: the train command is bitwise reproducible

def test_criterion_9_train_determinism(tmp_path):
    spec = {"classes": 2, "groups": 2, "per_cell_count": 20, "class_sep": 6.0,
            "group_shift": 2.0, "dim": 4, "noise_sd": 1.0, "seed": 5}
    config = {"k": 2, "encoder_widths": [8, 3], "warmup_epochs": 2,
              "max_epochs": 8, "batch_size": 32, "learning_rate": 1e-3, "seed": 5}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    csv_path = tmp_path / "data.csv"
    assert cli.run(["synth", "--spec", str(spec_path), "--out", str(csv_path)]) == 0

    logs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = cli.run(["train", "--data", str(csv_path), "--config", str(config_path),
                      "--truth-col", "label", "--out-dir", str(out_dir)])
        assert rc == 0
        logs.append((out_dir / "training_log.csv").read_bytes())
    ok = logs[0] == logs[1]
    assert _verdict(9, ok, f"log CSVs {'identical' if ok else 'differ'} ({len(logs[0])} bytes)")
