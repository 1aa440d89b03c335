"""Fair-clustering metrics against exhaustive and counting oracles."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fairmi import metrics
from fairmi.objectives import conditional_mi, group_cluster_mi

from helpers import traced_peak

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
        assert metrics.accuracy(metrics.contingency(pred, truth)) == 1.0

    def test_partial_match(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        assert metrics.accuracy(metrics.contingency(pred, truth)) == 0.75

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            kp, kt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            pred = rng.integers(0, kp, size=n)
            truth = rng.integers(0, kt, size=n)
            assert metrics.accuracy(metrics.contingency(pred, truth)) == brute_force_accuracy(pred, truth)

    def test_rectangular_contingency(self):
        pred = np.array([0, 1, 2, 3])
        truth = np.array([0, 0, 1, 1])
        assert metrics.accuracy(metrics.contingency(pred, truth)) == 0.5

    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_matching_on_count_tables(self, rows, cols, draw):
        """Zeros and ties included, 1 x n and n x 1 included: the matched count is scipy's."""
        cells = draw.draw(st.lists(st.integers(0, 4), min_size=rows * cols, max_size=rows * cols))
        table = np.array(cells, dtype=np.int64).reshape(rows, cols)
        table[draw.draw(st.integers(0, rows - 1)), draw.draw(st.integers(0, cols - 1))] += 1
        flat = np.arange(table.size)
        pred = np.repeat(flat // cols, table.ravel())
        truth = np.repeat(flat % cols, table.ravel())
        matched_rows, matched_cols = linear_sum_assignment(-table)
        assert metrics.accuracy(metrics.contingency(pred, truth)) == (
            table[matched_rows, matched_cols].sum() / pred.size)


class TestNMI:
    def test_identical_partitions_score_one(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        relabeled = np.array([2, 0, 1, 2, 0, 1])
        assert metrics.nmi(metrics.contingency(labels, relabeled)) == pytest.approx(1.0, abs=1e-12)

    def test_identical_labelings_score_exactly_one(self):
        """For these labels the quotient rounds to 1.0000000000000002; nmi clamps it to 1.0."""
        a = np.arange(21) % 4
        assert metrics.nmi(metrics.contingency(a, a)) == 1.0

    def test_independent_partitions_score_zero(self):
        independent = metrics.contingency(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        assert metrics.nmi(independent) == pytest.approx(0.0, abs=1e-12)

    def test_constant_vs_varying_is_zero_both_constant_is_one(self):
        varying = np.array([0, 1, 0, 1])
        constant = np.zeros(4, dtype=np.int64)
        assert metrics.nmi(metrics.contingency(constant, varying)) == 0.0
        assert metrics.nmi(metrics.contingency(constant, constant.copy())) == 1.0

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
            np.testing.assert_allclose(metrics.nmi(metrics.contingency(a, b)), expected, atol=1e-10)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_within_unit_interval_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=20)
        b = rng.integers(0, 4, size=20)
        v = metrics.nmi(metrics.contingency(a, b))
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(metrics.nmi(metrics.contingency(b, a)), abs=1e-12)


class TestBalance:
    def test_worked_ratio(self):
        """Counts (3, 4, 18, 20) inside one cluster give 3/20."""
        groups = np.repeat([0, 1, 2, 3], [3, 4, 18, 20])
        pred = np.zeros_like(groups)
        np.testing.assert_allclose(metrics.balance(metrics.contingency(pred, groups)), 3 / 20, atol=1e-12)

    def test_perfectly_mixed_is_one(self):
        pred = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        groups = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert metrics.balance(metrics.contingency(pred, groups)) == 1.0

    def test_cluster_missing_a_group_scores_zero(self):
        pred = np.array([0, 0, 1, 1])
        groups = np.array([0, 1, 0, 0])  # cluster 1 has no group-1 member
        assert metrics.balance(metrics.contingency(pred, groups)) == 0.0

    def test_unequal_groups_compare_raw_counts(self):
        """A 2:1 population mirrored in every cluster scores 0.5, not 1."""
        pred = np.repeat([0, 1], 6)
        groups = np.array([0, 0, 0, 0, 1, 1] * 2)
        assert metrics.balance(metrics.contingency(pred, groups)) == 0.5

    def test_minimum_over_clusters(self):
        pred = np.repeat([0, 1], [8, 4])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1])  # cluster 1 is 3:1
        np.testing.assert_allclose(metrics.balance(metrics.contingency(pred, groups)), 1 / 3, atol=1e-12)


class TestMNCE:
    def test_proportional_partition_scores_one(self):
        pred = np.array([0, 0, 1, 1, 1, 1])
        groups = np.array([0, 1, 0, 1, 0, 1])
        np.testing.assert_allclose(metrics.mnce(metrics.contingency(pred, groups)), 1.0, atol=1e-12)

    def test_single_group_cluster_scores_zero(self):
        pred = np.array([0, 0, 1, 1])
        groups = np.array([0, 0, 0, 1])
        value = metrics.mnce(metrics.contingency(pred, groups))
        assert value == 0.0 and np.copysign(1.0, value) == 1.0  # +0.0, not -0.0

    def test_reference_two_cluster_case(self):
        """Clusters with group counts (1,1) and (3,1) against a (4,2) global mix."""
        pred = np.array([0, 0, 1, 1, 1, 1])
        groups = np.array([0, 1, 0, 0, 0, 1])
        h1 = LN2
        h2 = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        hg = -((4 / 6) * np.log(4 / 6) + (2 / 6) * np.log(2 / 6))
        value = metrics.mnce(metrics.contingency(pred, groups))
        np.testing.assert_allclose(value, min(h1, h2) / hg, atol=1e-12)
        np.testing.assert_allclose(value, 0.8834599355410605, atol=1e-6)

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
            np.testing.assert_allclose(metrics.mnce(metrics.contingency(pred, groups)), expected, atol=1e-10)

    def test_single_group_dataset_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.mnce(metrics.contingency(np.array([0, 1]), np.array([0, 0])))

    def test_gap_in_cluster_ids_warns(self, caplog):
        import logging

        pred = np.array([0, 0, 2, 2])  # id 1 unused
        groups = np.array([0, 1, 0, 1])
        with caplog.at_level(logging.WARNING):
            v = metrics.mnce(metrics.contingency(pred, groups))
        assert "empt" in caplog.text
        np.testing.assert_allclose(v, 1.0, atol=1e-12)

    def test_empty_cluster_warning_names_the_empty_ids(self, caplog):
        import logging

        pred = np.array([0, 0, 2, 2, 5, 5])  # ids 1, 3 and 4 unused
        groups = np.array([0, 1, 0, 1, 0, 1])
        with caplog.at_level(logging.WARNING, logger="fairmi.metrics"):
            assert metrics.balance(metrics.contingency(pred, groups)) == 1.0
        assert [r.getMessage() for r in caplog.records] == [
            "balance: cluster ids [1, 3, 4] are empty and excluded"
        ]


class TestLabelArrays:
    @pytest.mark.parametrize("call,message", [
        (lambda: metrics.contingency([0, 1, [2]], [0, 1, 1]), "a must be a 1-d integer array, got a ragged list"),
        (lambda: metrics.contingency([0, 1, 1], [0, 1]), "b must be a non-empty (3,) array, got shape (2,)"),
        (lambda: metrics.contingency([0, 1], [True, False]), "b must be a 1-d integer array, got list of dtype bool"),
        (lambda: metrics.full_report([0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0]),
         "truth must be a non-empty (4,) array, got shape (3,)"),
        (lambda: metrics.full_report([0, 1, 0, 1], [0, 1, 0, -1]), "groups must be >= 0: entry 3 holds -1"),
    ], ids=["ragged", "two-lengths", "bool", "short-truth", "negative-group"])
    def test_a_bad_label_array_is_refused_by_name(self, call, message):
        with pytest.raises(metrics.MetricError) as err:
            call()
        assert str(err.value) == message


class TestCountTables:
    """The four metrics read a 2-d table of non-negative integer counts with a positive total."""

    @pytest.mark.parametrize("table,message", [
        (np.array([1, 2, 3]), "table must be a non-empty (n, d) matrix, got shape (3,)"),
        (np.ones((2, 2, 2), dtype=np.int64), "table must be a non-empty (n, d) matrix, got shape (2, 2, 2)"),
        (np.array([[1.0, 2.0], [3.0, 4.0]]), "table must be a 2-d integer matrix, got ndarray of dtype float64"),
        (np.array([[True, False], [False, True]]), "table must be a 2-d integer matrix, got ndarray of dtype bool"),
        (np.array([[1, -1], [2, 3]]), "table must be >= 0: row 0, column 1 holds -1"),
        (np.zeros((2, 2), dtype=np.int64), "table must hold non-negative counts with a positive total"),
        (np.zeros((0, 2), dtype=np.int64), "table must be a non-empty (n, d) matrix, got shape (0, 2)"),
        ([[1, 2], [3]], "table must be a 2-d integer matrix, got a ragged list"),
    ], ids=["1-d", "3-d", "float", "bool", "negative", "all-zero", "no-rows", "ragged"])
    @pytest.mark.parametrize("name", ["accuracy", "nmi", "balance", "mnce"])
    def test_malformed_table_is_refused_with_the_metric_named(self, name, table, message):
        with pytest.raises(metrics.MetricError, match=f"^{name}: {re.escape(message)}$"):
            getattr(metrics, name)(table)


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
        for side in ("quality", "fairness"):
            scores = {"quality": 0.5, "fairness": 0.5}
            with pytest.raises(metrics.MetricError, match=r"^scores must lie in \[0, 1\]$"):
                metrics.f_beta(**{**scores, side: 1.2}, beta=1.0)
            with pytest.raises(metrics.MetricError) as err:
                metrics.f_beta(**{**scores, side: -0.2}, beta=1.0)
            assert str(err.value) == f"{side} must be >= 0, got -0.2"

    @pytest.mark.parametrize("beta,message", [
        (float("nan"), "beta must be a finite number, got nan"),
        (float("inf"), "beta must be a finite number, got inf"),
        (-float("inf"), "beta must be a finite number, got -inf"),
        (-1.0, "beta must be >= 0, got -1.0"),
    ], ids=["nan", "inf", "-inf", "-1.0"])
    def test_non_finite_or_negative_beta_rejected(self, beta, message):
        with pytest.raises(metrics.MetricError) as err:
            metrics.f_beta(0.5, 0.5, beta)
        assert str(err.value) == message

    @pytest.mark.parametrize("beta,message", [("2", "beta must be a finite number, got '2'"),
                                              (None, "beta must be a finite number, got None"),
                                              (True, "beta must be a finite number, got True"),
                                              (np.float64(-1.0), "beta must be >= 0, got -1.0")],
                             ids=["2-'2'", "None-None", "True-True", "-1.0--1.0"])
    def test_a_beta_that_is_not_a_number_is_named_before_any_comparison(self, beta, message):
        with pytest.raises(metrics.MetricError) as err:
            metrics.f_beta(0.5, 0.5, beta)
        assert str(err.value) == message

    @pytest.mark.parametrize("score,shown", [("0.5", "'0.5'"), (None, "None"), (True, "True"),
                                             (float("nan"), "nan")])
    @pytest.mark.parametrize("side", ["quality", "fairness"])
    def test_a_score_that_is_not_a_finite_number_is_named_before_any_comparison(self, side, score, shown):
        scores = {"quality": 0.5, "fairness": 0.5, side: score}
        with pytest.raises(metrics.MetricError) as err:
            metrics.f_beta(scores["quality"], scores["fairness"], 1.0)
        assert str(err.value) == f"{side} must be a finite number, got {shown}"

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
            onehot = np.zeros((pred.size, pred.max() + 1))
            onehot[np.arange(pred.size), pred] = 1.0
            assert report.mi_gc == group_cluster_mi(onehot, groups, t)
            assert report.cmi_xcg == conditional_mi(onehot, report.mi_gc)

    def test_k_counts_only_the_cluster_ids_in_use(self):
        pred = np.array([0, 2, 5, 0, 2, 5])
        report = metrics.full_report(pred, np.array([0, 0, 0, 1, 1, 1]))
        assert report.k == 3

    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    def test_counts_each_pair_of_labelings_once(self, monkeypatch, with_truth):
        """One cluster x group table, one cluster x class table, and each metric read once."""
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("contingency", "accuracy", "nmi", "balance", "mnce"):
            monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
        truth = np.array([0, 0, 1, 1, 2, 2]) if with_truth else None
        metrics.full_report(np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 0, 1, 0, 1]), truth)
        expected = {"contingency": 2, "accuracy": 1, "nmi": 1, "balance": 1, "mnce": 1}
        if not with_truth:
            expected.update(contingency=1, accuracy=0, nmi=0)
        assert {name: calls.count(name) for name in expected} == expected

    def test_an_empty_cluster_is_reported_once(self, caplog):
        import logging

        pred = np.array([0, 0, 2, 2, 0, 2])  # id 1 unused
        groups = np.array([0, 1, 0, 1, 1, 0])
        with caplog.at_level(logging.WARNING, logger="fairmi.metrics"):
            report = metrics.full_report(pred, groups)
        assert [r.getMessage() for r in caplog.records] == [
            "full_report: cluster ids [1] are empty and excluded"
        ]
        assert (report.bal, report.k) == (0.5, 2)
        assert report.mnce == metrics.mnce(metrics.contingency(pred, groups))

    def test_group_id_gap_rejected(self, monkeypatch):
        """A group id with no members fails before any metric runs."""
        for name in ("balance", "mnce", "accuracy", "nmi"):
            monkeypatch.setattr(metrics, name, lambda *args: pytest.fail("a metric ran"))
        with pytest.raises(ValueError, match=r"ids \[1\] have no members"):
            metrics.full_report(np.array([0, 1, 0, 1]), np.array([0, 0, 2, 2]), np.array([0, 1, 0, 1]))

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


class TestSparseIds:
    """Ids far above the row count are counted over the ids present, not up to the largest."""

    BIG = 10**15

    def dense(self, ids):
        return np.unique(ids, return_inverse=True)[1]

    def test_sparse_ids_score_as_their_dense_relabelling(self):
        pred = np.array([0, self.BIG, self.BIG, 7, 0, 7, self.BIG, 0])
        truth = np.array([5, self.BIG - 1, self.BIG - 1, 5, 5, 2, self.BIG - 1, 2])
        groups = np.array([0, 1, 0, 1, 0, 1, 1, 0])

        def scores(p, t):
            by_class, by_group = metrics.contingency(p, t), metrics.contingency(p, groups)
            return (metrics.accuracy(by_class), metrics.nmi(by_class), metrics.balance(by_group),
                    metrics.mnce(by_group), metrics.full_report(p, groups, t))

        result = []
        peak = traced_peak(lambda: result.append(scores(pred, truth)))
        assert result[0] == scores(self.dense(pred), self.dense(truth))
        assert result[0][-1].k == 3
        assert peak < 1 << 20

    def test_balance_counts_only_the_groups_present(self):
        """A gap in the group ids, small or large, is no group with zero members."""
        pred = np.array([0, 0, 1, 1])
        tables = [metrics.contingency(pred, np.array([0, top, 0, top])) for top in (1, 2, self.BIG)]
        scores = {(metrics.balance(table), metrics.mnce(table)) for table in tables}
        assert scores == {(1.0, 1.0)}

    def test_a_sparse_group_id_is_rejected_without_a_count_by_id(self):
        def rejected():
            with pytest.raises(metrics.MetricError, match=r"^groups: 4 rows cannot hold ids 0 to 1000000000000000"):
                metrics.full_report(np.array([0, 1, 0, 1]), np.array([0, 0, self.BIG, self.BIG]))

        assert traced_peak(rejected) < 1 << 20

    def test_large_tables_of_ids_with_no_gap_are_unchanged(self):
        """Above the size bound, counting over the ids present is the identity on dense ids."""
        rng = np.random.default_rng(0)
        a, b = rng.permutation(300), rng.permutation(300)
        expected = np.zeros((300, 300), dtype=np.int64)
        np.add.at(expected, (a, b), 1)
        np.testing.assert_array_equal(metrics.contingency(a, b), expected)

    def test_tables_within_the_bound_are_indexed_by_id(self, caplog):
        import logging

        pred = np.array([0, 0, 9, 9])  # ids 1-8 unused: 10 x 2 cells is within 4n + 65,536
        groups = np.array([0, 1, 0, 1])
        assert metrics.contingency(pred, groups).shape == (10, 2)
        with caplog.at_level(logging.WARNING, logger="fairmi.metrics"):
            metrics.balance(metrics.contingency(pred, groups))
        assert "cluster ids [1, 2, 3, 4, 5, 6, 7, 8] are empty" in caplog.text
