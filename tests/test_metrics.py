"""Fair-clustering metrics against exhaustive and counting oracles."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmi import metrics
from fairmi.clustering import SoftAssignment
from fairmi.objectives import conditional_mi, group_cluster_mi

LN2 = float(np.log(2.0))


def brute_force_accuracy(pred, truth):
    """Try every one-to-one matching of cluster ids onto class ids."""
    ks = np.unique(pred)
    cs = np.unique(truth)
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


def counting_entropy(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def counting_mi(a, b):
    n = len(a)
    total = 0.0
    for va in np.unique(a):
        for vb in np.unique(b):
            joint = np.sum((a == va) & (b == vb)) / n
            if joint > 0:
                total += joint * np.log(joint / ((np.sum(a == va) / n) * (np.sum(b == vb) / n)))
    return total


class TestAccuracy:
    def test_perfect_after_relabeling(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert metrics.accuracy(pred, truth) == 1.0

    def test_partial_match(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        assert metrics.accuracy(pred, truth) == 0.75

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            kp, kt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            pred = rng.integers(0, kp, size=n)
            truth = rng.integers(0, kt, size=n)
            assert metrics.accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    def test_rectangular_contingency(self):
        pred = np.array([0, 1, 2, 3])
        truth = np.array([0, 0, 1, 1])
        assert metrics.accuracy(pred, truth) == 0.5


class TestNMI:
    def test_identical_partitions_score_one(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        relabeled = np.array([2, 0, 1, 2, 0, 1])
        assert metrics.nmi(labels, relabeled) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions_score_zero(self):
        assert metrics.nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_constant_vs_varying_is_zero_both_constant_is_one(self):
        varying = np.array([0, 1, 0, 1])
        constant = np.zeros(4, dtype=np.int64)
        assert metrics.nmi(constant, varying) == 0.0
        assert metrics.nmi(constant, constant.copy()) == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(5, 50))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            ha, hb = counting_entropy(a), counting_entropy(b)
            if ha == 0.0 or hb == 0.0:
                continue
            expected = counting_mi(a, b) / np.sqrt(ha * hb)
            np.testing.assert_allclose(metrics.nmi(a, b), expected, atol=1e-10)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_within_unit_interval_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=20)
        b = rng.integers(0, 4, size=20)
        v = metrics.nmi(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(metrics.nmi(b, a), abs=1e-12)


class TestBalance:
    def test_worked_ratio(self):
        """Counts (3, 4, 18, 20) inside one cluster give 3/20."""
        groups = np.repeat([0, 1, 2, 3], [3, 4, 18, 20])
        pred = np.zeros_like(groups)
        np.testing.assert_allclose(metrics.balance(pred, groups), 3 / 20, atol=1e-12)

    def test_perfectly_mixed_is_one(self):
        pred = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        groups = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert metrics.balance(pred, groups) == 1.0

    def test_cluster_missing_a_group_scores_zero(self):
        pred = np.array([0, 0, 1, 1])
        groups = np.array([0, 1, 0, 0])  # cluster 1 has no group-1 member
        assert metrics.balance(pred, groups) == 0.0

    def test_unequal_groups_compare_raw_counts(self):
        """A 2:1 population mirrored in every cluster scores 0.5, not 1."""
        pred = np.repeat([0, 1], 6)
        groups = np.array([0, 0, 0, 0, 1, 1] * 2)
        assert metrics.balance(pred, groups) == 0.5

    def test_minimum_over_clusters(self):
        pred = np.repeat([0, 1], [8, 4])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1])  # cluster 1 is 3:1
        np.testing.assert_allclose(metrics.balance(pred, groups), 1 / 3, atol=1e-12)


class TestMNCE:
    def test_proportional_partition_scores_one(self):
        pred = np.array([0, 0, 1, 1, 1, 1])
        groups = np.array([0, 1, 0, 1, 0, 1])
        np.testing.assert_allclose(metrics.mnce(pred, groups), 1.0, atol=1e-12)

    def test_single_group_cluster_scores_zero(self):
        pred = np.array([0, 0, 1, 1])
        groups = np.array([0, 0, 0, 1])
        value = metrics.mnce(pred, groups)
        assert value == 0.0 and np.copysign(1.0, value) == 1.0  # +0.0, not -0.0

    def test_reference_two_cluster_case(self):
        """Clusters with group counts (1,1) and (3,1) against a (4,2) global mix."""
        pred = np.array([0, 0, 1, 1, 1, 1])
        groups = np.array([0, 1, 0, 0, 0, 1])
        h1 = LN2
        h2 = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        hg = -((4 / 6) * np.log(4 / 6) + (2 / 6) * np.log(2 / 6))
        np.testing.assert_allclose(metrics.mnce(pred, groups), min(h1, h2) / hg, atol=1e-12)
        np.testing.assert_allclose(metrics.mnce(pred, groups), 0.8834599355410605, atol=1e-6)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(8, 60))
            pred = rng.integers(0, 4, size=n)
            groups = rng.integers(0, 3, size=n)
            if counting_entropy(groups) == 0.0:
                continue
            worst = min(counting_entropy(groups[pred == k]) for k in np.unique(pred))
            expected = worst / counting_entropy(groups)
            np.testing.assert_allclose(metrics.mnce(pred, groups), expected, atol=1e-10)

    def test_single_group_dataset_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.mnce(np.array([0, 1]), np.array([0, 0]))

    def test_gap_in_cluster_ids_warns(self, caplog):
        import logging

        pred = np.array([0, 0, 2, 2])  # id 1 unused
        groups = np.array([0, 1, 0, 1])
        with caplog.at_level(logging.WARNING):
            v = metrics.mnce(pred, groups)
        assert "empt" in caplog.text
        np.testing.assert_allclose(v, 1.0, atol=1e-12)

    def test_empty_cluster_warning_names_the_empty_ids(self, caplog):
        import logging

        pred = np.array([0, 0, 2, 2, 5, 5])  # ids 1, 3 and 4 unused
        groups = np.array([0, 1, 0, 1, 0, 1])
        with caplog.at_level(logging.WARNING, logger="fairmi.metrics"):
            assert metrics.balance(pred, groups) == 1.0
        assert [r.getMessage() for r in caplog.records] == [
            "balance: cluster ids [1, 3, 4] are empty and excluded"
        ]


class TestFBeta:
    def test_published_style_reference_points(self):
        np.testing.assert_allclose(metrics.f_beta(0.834, 0.682, 1.0), 0.750, atol=5e-4)
        np.testing.assert_allclose(metrics.f_beta(0.918, 0.923, 1.0), 0.920, atol=5e-4)

    def test_equal_scores_are_a_fixed_point(self):
        for v in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(metrics.f_beta(v, v, 1.0), v, atol=1e-12)

    def test_harmonic_mean_at_beta_one(self):
        np.testing.assert_allclose(metrics.f_beta(0.5, 1.0, 1.0), 2 / 3, atol=1e-12)

    def test_zero_sides_zero_the_score(self):
        assert metrics.f_beta(0.0, 0.9, 1.0) == 0.0
        assert metrics.f_beta(0.9, 0.0, 1.0) == 0.0

    def test_beta_extremes_select_a_side(self):
        # beta 0 ignores fairness entirely; huge beta converges to fairness
        np.testing.assert_allclose(metrics.f_beta(0.6, 0.9, 0.0), 0.6, atol=1e-12)
        np.testing.assert_allclose(metrics.f_beta(0.6, 0.9, 1e6), 0.9, atol=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.f_beta(1.2, 0.5, 1.0)
        with pytest.raises(metrics.MetricError):
            metrics.f_beta(0.5, 0.5, -1.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_or_negative_beta_rejected(self, beta):
        with pytest.raises(metrics.MetricError, match="beta must be a finite number >= 0"):
            metrics.f_beta(0.5, 0.5, beta)

    @given(
        st.floats(0.01, 1.0), st.floats(0.01, 1.0),
        st.floats(0.01, 1.0), st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_both_scores(self, u, v, bump, beta):
        base = metrics.f_beta(u, v, beta)
        assert metrics.f_beta(min(u + bump, 1.0), v, beta) >= base - 1e-12
        assert metrics.f_beta(u, min(v + bump, 1.0), beta) >= base - 1e-12


class TestFullReport:
    def test_ideal_partition(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        groups = np.array([0, 1, 0, 1, 0, 1])
        report = metrics.full_report(truth.copy(), groups, truth, beta=1.0)
        assert report.acc == 1.0
        assert report.nmi == pytest.approx(1.0, abs=1e-12)
        assert report.bal == 1.0
        assert report.mnce == pytest.approx(1.0, abs=1e-12)
        assert report.f_beta == pytest.approx(1.0, abs=1e-12)
        assert report.mi_gc == pytest.approx(0.0, abs=1e-12)
        assert (report.n, report.k, report.t) == (6, 3, 2)

    def test_collapsed_partition(self):
        """Everything in one cluster: perfectly fair, zero quality."""
        truth = np.array([0, 1, 0, 1])
        groups = np.array([0, 1, 0, 1])
        pred = np.zeros(4, dtype=np.int64)
        report = metrics.full_report(pred, groups, truth, beta=1.0)
        assert report.nmi == 0.0
        assert report.mnce == pytest.approx(1.0, abs=1e-12)
        assert report.f_beta == 0.0
        assert report.k == 1

    def test_without_truth_quality_fields_are_none(self):
        report = metrics.full_report(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        assert report.acc is None and report.nmi is None and report.f_beta is None
        assert report.bal is not None and report.mnce is not None

    def test_leakage_fields_match_estimators(self):
        rng = np.random.default_rng(3)
        for k, t in [(3, 2), (1, 2), (5, 3), (2, 4)]:
            pred = rng.integers(0, k, size=30)
            groups = rng.integers(0, t, size=30)
            groups[:t] = np.arange(t)
            report = metrics.full_report(pred, groups)
            # mi + cmi must recompose the cluster entropy of the hard partition
            h_c = counting_entropy(pred)
            np.testing.assert_allclose(report.mi_gc + report.cmi_xcg, h_c, atol=1e-9)
            np.testing.assert_allclose(report.mi_gc, counting_mi(groups, pred), atol=1e-10)
            # the soft estimators on the one-hot assignment are the reference
            probs = np.zeros((pred.size, pred.max() + 1))
            probs[np.arange(pred.size), pred] = 1.0
            onehot = SoftAssignment(probs=probs, tau=1.0)
            assert report.mi_gc == group_cluster_mi(onehot, groups, t)
            assert report.cmi_xcg == conditional_mi(onehot, report.mi_gc)

    def test_group_id_gap_rejected(self):
        with pytest.raises(ValueError, match=r"ids \[1\] have no members"):
            metrics.full_report(np.array([0, 1, 0, 1]), np.array([0, 0, 2, 2]))

    def test_json_round_trip_format(self, tmp_path):
        truth = np.array([0, 0, 1, 1])
        report = metrics.full_report(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), truth)
        path = tmp_path / "report.json"
        metrics.write_report(report, path)
        loaded = json.loads(path.read_text())
        assert list(loaded) == ["acc", "nmi", "bal", "mnce", "f_beta", "mi_gc", "cmi_xcg", "n", "k", "t"]
        assert loaded["acc"] == 1.0
        assert loaded["n"] == 4 and loaded["k"] == 2 and loaded["t"] == 2
        for key in ("mi_gc", "cmi_xcg"):
            assert round(loaded[key], 6) == loaded[key]

    def test_json_point_mass_mnce_is_positive_zero(self, tmp_path):
        report = metrics.full_report(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 1]))
        path = tmp_path / "report.json"
        metrics.write_report(report, path)
        assert '"mnce": 0.0,' in path.read_text()

    def test_json_null_for_missing_truth(self, tmp_path):
        report = metrics.full_report(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        path = tmp_path / "report.json"
        metrics.write_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["acc"] is None and loaded["nmi"] is None and loaded["f_beta"] is None

    def test_non_finite_field_writes_no_file(self, tmp_path):
        from dataclasses import replace

        report = metrics.full_report(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            metrics.write_report(replace(report, mi_gc=float("nan")), path)
        assert not path.exists()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, size=24)
        truth = rng.integers(0, 3, size=24)
        groups = rng.integers(0, 2, size=24)
        groups[:2] = [0, 1]
        relabel = rng.permutation(3)
        a = metrics.full_report(pred, groups, truth)
        b = metrics.full_report(relabel[pred], groups, truth)
        assert a.acc == pytest.approx(b.acc, abs=1e-12)
        assert a.nmi == pytest.approx(b.nmi, abs=1e-12)
        assert a.bal == pytest.approx(b.bal, abs=1e-12)
        assert a.mnce == pytest.approx(b.mnce, abs=1e-12)
