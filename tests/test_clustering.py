"""k-means, cosine similarity, and temperature softmax assignments."""

import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmi import autodiff as ad
from fairmi import clustering


def plus_plus_seed(x, k, rng):
    return clustering._plus_plus_seed(np.ascontiguousarray(x.T), k, rng)


def lloyd(x, centers, **kw):
    return clustering._lloyd(x, np.ascontiguousarray(x.T), (x * x).sum(axis=1), centers, **kw)


def blobs(rng, centers, per=30, sd=0.3):
    pts = [rng.normal(c, sd, size=(per, len(c))) for c in centers]
    return np.concatenate(pts), np.repeat(np.arange(len(centers)), per)


def naive_lloyd(x, k, rng, iters=60):
    """Independent oracle: random-init Lloyd, no plus-plus, no reseeding."""
    centers = x[rng.choice(x.shape[0], size=k, replace=False)]
    for _ in range(iters):
        d2 = ((x[:, None, :] - centers[None]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for j in range(k):
            if np.any(labels == j):
                centers[j] = x[labels == j].mean(axis=0)
    d2 = ((x[:, None, :] - centers[None]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


def reference_plus_plus(x, k, rng):
    """k-means++ seeding drawn with rng.choice, the form the seeding must match bit for bit."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = rng.integers(n) if total == 0.0 else rng.choice(n, p=d2 / total)
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


class TestPlusPlusSeed:
    def check(self, x, k, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = plus_plus_seed(x, k, ours)
        assert got.tobytes() == reference_plus_plus(x, k, ref).tobytes()
        assert ours.random() == ref.random()  # both consumed the same draws

    def test_matches_rng_choice_reference(self):
        rng = np.random.default_rng(50)
        for case in range(120):
            n = int(rng.integers(2, 300))
            d = int(rng.integers(1, 12))
            k = int(rng.integers(2, min(n, 9) + 1))
            x = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)
            if case % 3 == 0:
                x = x[rng.integers(0, max(2, n // 4), size=n)]  # duplicate rows
            for r in range(3):
                self.check(x, k, (case, r))

    def test_uniform_fallback_when_all_mass_is_on_chosen_centers(self):
        """k above the number of distinct rows empties d2 and takes the total == 0 branch."""
        x = np.repeat(np.array([[0.0, 1.0], [2.0, -1.0], [5.0, 5.0]]), 4, axis=0)
        for seed in range(20):
            self.check(x, 6, seed)
            centers = plus_plus_seed(x, 6, np.random.default_rng(seed))
            assert len(np.unique(centers[:3], axis=0)) == 3  # the distinct rows come first


class TestKMeans:
    def test_recovers_separated_clouds(self):
        rng = np.random.default_rng(0)
        x, truth = blobs(rng, [(0, 0), (10, 0), (0, 10)])
        centers, labels = clustering.kmeans(x, 3, seed=1)
        # same partition up to relabeling
        for k in range(3):
            assert np.unique(truth[labels == k]).size == 1
        assert centers.shape == (3, 2)

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 2))
        centers, labels = clustering.kmeans(x, 6, seed=0)
        d2 = ((x - centers[labels]) ** 2).sum()
        np.testing.assert_allclose(d2, 0.0, atol=1e-20)
        assert np.unique(labels).size == 6

    def test_beats_naive_restarts_within_factor(self):
        """Inertia within 1.05x the best of ten random-init Lloyd runs."""
        rng = np.random.default_rng(2024)
        x = rng.normal(size=(50, 2))
        centers, labels = clustering.kmeans(x, 3, seed=7)
        ours = ((x - centers[labels]) ** 2).sum()
        oracle = min(naive_lloyd(x.copy(), 3, np.random.default_rng(s)) for s in range(10))
        assert ours <= 1.05 * oracle

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        c1, l1 = clustering.kmeans(x, 4, seed=11)
        c2, l2 = clustering.kmeans(x, 4, seed=11)
        assert c1.tobytes() == c2.tobytes()
        assert np.array_equal(l1, l2)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(clustering.ClusteringError):
            clustering.kmeans(np.zeros((3, 2)) + 1.0, 2, seed=0)  # identical points
        with pytest.raises(clustering.ClusteringError):
            clustering.kmeans(np.random.default_rng(0).normal(size=(3, 2)), 4, seed=0)  # n < k
        x = np.random.default_rng(0).normal(size=(9, 2))
        for k, message in [(1, "k must be >= 2, got 1"),
                           (np.int64(1), "k must be >= 2, got 1"),
                           (2.0, "k must be an integer, got 2.0"),
                           (True, "k must be an integer, got True"),
                           ("2", "k must be an integer, got '2'")]:
            with pytest.raises(clustering.ClusteringError, match=f"^{message}$"):
                clustering.kmeans(x, k, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_center_at_the_origin_is_a_valid_solution(self, seed, caplog):
        """Euclidean k-means may put a center at 0; only cosine assignment needs a guard."""
        x = np.array([[1.0, 0], [-1, 0], [1, 0.5], [-1, -0.5], [9, 9], [10, 10], [9, 10], [10, 9]])
        centers, _ = clustering.kmeans(x, 2, seed=seed)
        assert [0.0, 0.0] in centers.tolist()
        with caplog.at_level(logging.WARNING):
            assign = clustering.soft_assign(x, centers, tau=0.1)
        assert [(r.name, r.levelno) for r in caplog.records] == [("fairmi.autodiff", logging.WARNING)]
        assert "unit_rows" in caplog.text
        assert np.all(np.isfinite(assign))
        np.testing.assert_allclose(assign.sum(axis=1), 1.0, atol=1e-12)

    def test_inertia_non_increasing_across_iterations(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            x = rng.normal(size=(60, 2))
            for r in range(3):
                start = plus_plus_seed(x, 4, np.random.default_rng((trial, r)))
                history = [lloyd(x, start, max_iter=m, tol=0.0)[2] for m in range(1, 31)]
                assert np.all(np.diff(history) <= 1e-9), history

    def test_empty_cluster_reseeds_to_farthest_point(self):
        # a center parked far away captures nothing on the first assignment
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        bad = np.vstack([x[:2], [1e6, 1e6]])
        centers, labels, _ = lloyd(x, bad, max_iter=30, tol=1e-9)
        assert np.unique(labels).size == 3  # nothing stays empty
        assert np.all(np.abs(centers) < 1e3)  # the runaway center was replaced

    def test_a_reseed_never_empties_another_cluster(self):
        """The farthest point, 100, is the only member of cluster 1, so the empty
        cluster 2 must take its point from cluster 0 instead."""
        x = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [100.0, 0]])
        init = np.array([[0.1, 0], [50.1, 0], [-1000.0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers, labels = clustering.kmeans(x, 3, seed=1, init=init)
            # a cluster emptied by the reseed would divide 0/0 in the first update
            first, _, _ = lloyd(x, init, max_iter=1, tol=0.0)
        assert np.all(np.isfinite(centers)) and np.all(np.isfinite(first))
        assert sorted(np.unique(labels)) == [0, 1, 2]
        np.testing.assert_allclose(centers[labels], x, rtol=0, atol=0.1)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 4), st.integers(2, 8),
           st.sampled_from([1.0, 1e3, 1e6]))
    @settings(max_examples=200, deadline=None)
    def test_every_run_keeps_all_clusters_and_finite_centers(self, seed, n, d, k, far):
        """Starts far outside the data, repeated starts and k above the number of
        distinct rows: no cluster ends empty and no center goes non-finite."""
        rng = np.random.default_rng(seed)
        k = min(k, n)
        rows = rng.normal(size=(int(rng.integers(1, n + 1)), d))
        x = rows[rng.integers(0, len(rows), size=n)]
        init = x[rng.integers(0, n, size=k)]
        outside = rng.random(k) < 0.5
        init[outside] = rng.normal(size=(int(outside.sum()), d)) * far
        with np.errstate(divide="raise", invalid="raise"):
            runs = [lloyd(x, init, max_iter=m, tol=0.0) for m in (1, 2, 100)]
            if np.ptp(x, axis=0).any():
                runs.append(clustering.kmeans(x, k, seed=seed, restarts=2, init=init) + (0.0,))
        for centers, labels, inertia in runs:
            assert np.all(np.isfinite(centers)) and np.isfinite(inertia)
            assert np.unique(labels).size == k

    def test_ties_go_to_the_lowest_index_center(self):
        x = np.array([[0.0], [-1.0], [1.0], [-1.1], [1.1]])
        _, labels, _ = lloyd(x, np.array([[-1.0], [1.0]]), max_iter=1, tol=0.0)
        np.testing.assert_array_equal(labels, [0, 0, 1, 0, 1])

    def test_assignment_matches_argmin_on_exact_ties(self):
        # small integers keep every squared distance exact in both forms,
        # so a point halfway between two centers is an exact tie
        rng = np.random.default_rng(12)
        grid = np.array([(a, b) for a in range(-3, 4) for b in range(-3, 4)], dtype=np.float64)
        ties = 0
        for trial in range(40):
            k = int(rng.integers(2, 7))
            for _ in range(3):
                start = grid[rng.choice(len(grid), size=k, replace=False)]
                _, lab, _ = lloyd(grid, start, max_iter=1, tol=0.0)
                d2 = ((grid[:, None, :] - start[None]) ** 2).sum(axis=2)
                np.testing.assert_array_equal(lab, d2.argmin(axis=1))
                ties += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
        assert ties > 100

    def test_k_above_distinct_rows(self):
        # 12 rows on 3 distinct points, 5 clusters: duplicate seeds leave
        # clusters empty, and each is re-seeded onto a row of its own
        points = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 4.0]])
        x = points[np.arange(12) % 3]
        for restarts in (1, 10):
            centers, labels = clustering.kmeans(x, 5, seed=3, restarts=restarts)
            assert np.unique(labels).size == 5
            np.testing.assert_allclose(centers[labels], x, rtol=0, atol=1e-12)

    def test_centers_are_the_means_of_their_rows(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            k = int(rng.integers(2, 7))
            x, _ = blobs(rng, rng.normal(0, 4, size=(k, 3)), per=int(rng.integers(3, 40)), sd=1.0)
            centers, labels = clustering.kmeans(x, k, seed=trial, restarts=int(rng.integers(1, 6)))
            for j in range(k):
                np.testing.assert_allclose(centers[j], x[labels == j].mean(axis=0),
                                           rtol=1e-12, atol=1e-300)


class TestSoftAssign:
    def centers2(self):
        return np.array([[1.0, 0.0], [0.0, 1.0]])

    def test_similarity_gap_saturates_at_low_temperature(self):
        """Cosine gap of 1 at temperature 0.1 puts ~1 - 4.5e-5 on the near center."""
        assign = clustering.soft_assign(np.array([[2.0, 0.0]]), self.centers2(), tau=0.1)
        np.testing.assert_allclose(assign[0, 0], 0.9999546021312976, atol=1e-9)
        np.testing.assert_allclose(assign[0, 1], 4.539786870243442e-05, atol=1e-12)

    def test_equidistant_point_is_uniform(self):
        assign = clustering.soft_assign(np.array([[1.0, 1.0]]), self.centers2(), tau=0.1)
        np.testing.assert_allclose(assign[0], 0.5, atol=1e-12)

    def test_huge_temperature_flattens_everything(self):
        rng = np.random.default_rng(1)
        assign = clustering.soft_assign(rng.normal(size=(5, 2)), self.centers2(), tau=1e9)
        np.testing.assert_allclose(assign, 0.5, atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        assign = clustering.soft_assign(rng.normal(size=(50, 2)), self.centers2(), tau=0.1)
        np.testing.assert_allclose(assign.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_independent_of_temperature(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(40, 2))
        hard1 = clustering.soft_assign(h, self.centers2(), tau=0.1).argmax(axis=1)
        hard2 = clustering.soft_assign(h, self.centers2(), tau=3.0).argmax(axis=1)
        assert np.array_equal(hard1, hard2)

    def test_row_scaling_leaves_assignment_unchanged(self):
        """Cosine sees directions only, so positive row scaling is a no-op."""
        rng = np.random.default_rng(15)
        h = rng.normal(size=(20, 2))
        scaled = h * rng.uniform(0.1, 10.0, size=(20, 1))
        a1 = clustering.soft_assign(h, self.centers2(), tau=0.5)
        a2 = clustering.soft_assign(scaled, self.centers2(), tau=0.5)
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_zero_norm_row_jitters_and_warns(self, caplog):
        h = np.array([[0.0, 0.0], [1.0, 0.0]])
        with caplog.at_level(logging.WARNING):
            assign = clustering.soft_assign(h, self.centers2(), tau=0.1)
        assert "zero-norm" in caplog.text
        np.testing.assert_allclose(assign.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(assign))

    def test_probs_are_the_autodiff_kernel_composition(self):
        rng = np.random.default_rng(22)
        h = rng.normal(size=(12, 3))
        h[4] = 0.0
        centers = rng.normal(size=(3, 3))
        want = ad.softmax(ad.unit_rows(h)[0] @ ad.unit_rows(centers)[0].T * (1.0 / 0.2))
        assert np.array_equal(clustering.soft_assign(h, centers, tau=0.2), want)

    def test_graph_matches_numpy_path(self):
        rng = np.random.default_rng(21)
        h = rng.normal(size=(15, 3))
        centers = rng.normal(size=(4, 3))
        numpy_probs = clustering.soft_assign(h, centers, tau=0.1)
        h_node = ad.input_node("h", h.shape)
        c_node = clustering.soft_assign_graph(h_node, centers, tau=0.1)
        graph_probs = ad.forward(c_node, {"h": h})
        assert np.array_equal(graph_probs, numpy_probs)

    def test_returns_a_plain_array(self):
        h = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        assign = clustering.soft_assign(h, self.centers2(), tau=0.1)
        assert type(assign) is np.ndarray and assign.shape == (3, 2) and assign.dtype == np.float64

    @pytest.mark.parametrize("entry", ["soft_assign", "soft_assign_graph"])
    def test_temperature_whose_inverse_overflows_is_refused(self, entry):
        """tau = 1e-310 is finite and > 0, but 1 / tau overflows to inf: both paths refuse it alike."""
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        calls = {
            "soft_assign": lambda: clustering.soft_assign(h, self.centers2(), tau=1e-310),
            "soft_assign_graph": lambda: clustering.soft_assign_graph(
                ad.input_node("h", h.shape), self.centers2(), 1e-310),
        }
        message = "temperature tau must be large enough that 1 / tau is finite, got 1e-310"
        with pytest.raises(clustering.ClusteringError, match=f"^{message}$"):
            calls[entry]()

    @pytest.mark.parametrize("centers,message", [
        (np.array([1.0, 0.0]), "centers must be a non-empty (n, d) matrix, got shape (2,)"),
        (np.array([[1.0, 0.0]]), "centers must be a 2-d matrix of k >= 2 rows, got shape (1, 2)"),
        (np.array([[1.0, 0.0], [np.nan, 1.0]]), "centers must be finite: row 1, column 0 holds nan"),
    ], ids=["1-d", "k=1", "non-finite"])
    @pytest.mark.parametrize("entry", ["soft_assign", "soft_assign_graph"])
    def test_centers_must_be_a_finite_matrix_of_two_or_more(self, entry, centers, message):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        calls = {
            "soft_assign": lambda: clustering.soft_assign(h, centers, tau=0.1),
            "soft_assign_graph": lambda: clustering.soft_assign_graph(ad.input_node("h", h.shape), centers, 0.1),
        }
        with pytest.raises(clustering.ClusteringError, match=f"^{re.escape(message)}$"):
            calls[entry]()

    @pytest.mark.parametrize("tau,rule", [(np.nan, "a finite number"), (np.inf, "a finite number"),
                                          (0.0, "> 0"), (-1.0, "> 0")], ids=["nan", "inf", "0.0", "-1.0"])
    @pytest.mark.parametrize("entry", ["soft_assign", "soft_assign_graph"])
    def test_temperature_must_be_finite_and_positive(self, entry, tau, rule):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        calls = {
            "soft_assign": lambda: clustering.soft_assign(h, self.centers2(), tau=tau),
            "soft_assign_graph": lambda: clustering.soft_assign_graph(
                ad.input_node("h", h.shape), self.centers2(), tau=tau),
        }
        with pytest.raises(clustering.ClusteringError,
                           match=rf"^temperature tau must be {rule}, got {tau}$"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["soft_assign", "soft_assign_graph"])
    def test_centers_given_as_a_list_assign_as_the_array_does(self, entry):
        h = np.array([[2.0, 0.5], [0.1, 3.0]])
        calls = {
            "soft_assign": lambda c: clustering.soft_assign(h, c, 0.1),
            "soft_assign_graph": lambda c: ad.forward(
                clustering.soft_assign_graph(ad.input_node("h", h.shape), c, 0.1), {"h": h}),
        }
        assert calls[entry]([[1, 0], [0, 1]]).tobytes() == calls[entry](self.centers2()).tobytes()

    @pytest.mark.parametrize("tau,centers,message", [
        ("x", [[1, 0], [0, 1]], "temperature tau must be a finite number, got 'x'"),
        (True, [[1, 0], [0, 1]], "temperature tau must be a finite number, got True"),
        (0.1, [["a", 0], [0, 1]], "centers must be a 2-d numeric matrix, got list of dtype <U21"),
        (0.1, [[1, 0], [0]], "centers must be a 2-d numeric matrix, got a ragged list"),
    ], ids=["string-tau", "bool-tau", "string-center", "ragged-centers"])
    @pytest.mark.parametrize("entry", ["soft_assign", "soft_assign_graph"])
    def test_a_tau_or_centers_that_are_not_numbers_are_named(self, entry, tau, centers, message):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        calls = {
            "soft_assign": lambda: clustering.soft_assign(h, centers, tau),
            "soft_assign_graph": lambda: clustering.soft_assign_graph(ad.input_node("h", h.shape), centers, tau),
        }
        with pytest.raises(clustering.ClusteringError, match=f"^{re.escape(message)}$"):
            calls[entry]()


class TestRestarts:
    def inertia(self, x, centers, labels):
        return float(((x - centers[labels]) ** 2).sum())

    def test_never_worse_than_single_run(self):
        rng = np.random.default_rng(40)
        for trial in range(10):
            x, _ = blobs(rng, [(0, 0), (4, 0), (0, 4), (9, 9)], per=15, sd=1.2)
            c1, l1 = clustering.kmeans(x, 4, seed=(trial,))
            c10, l10 = clustering.kmeans(x, 4, seed=(trial,), restarts=10)
            assert self.inertia(x, c10, l10) <= self.inertia(x, c1, l1) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        x, _ = blobs(rng, [(0, 0), (5, 5)], per=20)
        a = clustering.kmeans(x, 2, seed=7, restarts=5)
        b = clustering.kmeans(x, 2, seed=7, restarts=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_single_restart_path_unchanged(self):
        """restarts=1 must be bitwise the historical single-run behavior."""
        rng = np.random.default_rng(42)
        x, _ = blobs(rng, [(0, 0), (5, 5), (0, 5)], per=10)
        a = clustering.kmeans(x, 3, seed=(1, 2, 3))
        b = clustering.kmeans(x, 3, seed=(1, 2, 3), restarts=1)
        np.testing.assert_array_equal(a[0], b[0])

    def test_equals_best_of_single_runs(self, monkeypatch):
        """restarts=R is bitwise the lowest-inertia run among kmeans(seed=base + (r,))."""
        rng = np.random.default_rng(45)
        for trial in range(12):
            # a coarse tol stops restarts short of a fixed point, so one that
            # kept iterating after its stop would end elsewhere
            tol = 1e-6 if trial % 2 else 0.5
            monkeypatch.setattr(clustering, "TOL", tol)
            k = int(rng.integers(2, 6))
            x, _ = blobs(rng, rng.normal(0, 3, size=(k + 1, 2)), per=25, sd=1.5)
            restarts = int(rng.integers(2, 9))
            centers, labels = clustering.kmeans(x, k, seed=(trial, 5), restarts=restarts)
            singles, finals = [], []
            for r in range(restarts):
                singles.append(clustering.kmeans(x, k, seed=(trial, 5, r)))
                seeded = plus_plus_seed(x, k, np.random.default_rng((trial, 5, r)))
                finals.append(lloyd(x, seeded, max_iter=100, tol=tol)[2])
            best = finals.index(min(finals))
            assert centers.tobytes() == singles[best][0].tobytes()
            np.testing.assert_array_equal(labels, singles[best][1])

    def test_tuple_and_int_seeds_accepted(self):
        rng = np.random.default_rng(43)
        x, _ = blobs(rng, [(0, 0), (5, 5)], per=10)
        clustering.kmeans(x, 2, seed=9, restarts=3)
        clustering.kmeans(x, 2, seed=(9, 1), restarts=3)

    def test_bad_restart_count_rejected(self):
        rng = np.random.default_rng(44)
        x, _ = blobs(rng, [(0, 0), (5, 5)], per=10)
        for restarts, message in [(0, "restarts must be >= 1, got 0"),
                                  (2.5, "restarts must be an integer, got 2.5"),
                                  (True, "restarts must be an integer, got True"),
                                  (None, "restarts must be an integer, got None")]:
            with pytest.raises(clustering.ClusteringError, match=f"^{message}$"):
                clustering.kmeans(x, 2, seed=0, restarts=restarts)


class TestWarmStart:
    def test_equals_best_of_init_and_single_runs(self, monkeypatch):
        """init plus R restarts is bitwise the lowest-inertia run among the init-only
        Lloyd run and the R seeded single runs, init winning a tie."""
        rng = np.random.default_rng(46)
        won = set()
        for trial in range(16):
            tol = 1e-6 if trial % 2 else 0.5
            monkeypatch.setattr(clustering, "TOL", tol)
            k = int(rng.integers(2, 6))
            x, _ = blobs(rng, rng.normal(0, 3, size=(k + 1, 2)), per=25, sd=1.5)
            init = x[rng.choice(len(x), size=k, replace=False)] + rng.normal(0, 0.5, size=(k, 2))
            restarts = int(rng.integers(1, 5))
            seeds = [(trial, 7)] if restarts == 1 else [(trial, 7, r) for r in range(restarts)]
            centers, labels = clustering.kmeans(x, k, seed=(trial, 7), restarts=restarts, init=init)
            runs = [lloyd(x, init, max_iter=100, tol=tol)]
            runs += [lloyd(x, plus_plus_seed(x, k, np.random.default_rng(s)), max_iter=100, tol=tol)
                     for s in seeds]
            finals = [inertia for _, _, inertia in runs]
            best = finals.index(min(finals))
            won.add(best == 0)
            assert centers.tobytes() == runs[best][0].tobytes()
            np.testing.assert_array_equal(labels, runs[best][1])
            if best:
                assert centers.tobytes() == clustering.kmeans(x, k, seed=seeds[best - 1])[0].tobytes()
        assert won == {True, False}  # both the warm run and a fresh restart won somewhere

    def test_a_converged_init_comes_back_bit_equal(self):
        rng = np.random.default_rng(47)
        x, _ = blobs(rng, [(0, 0), (6, 0), (0, 6)], per=20)
        centers, labels = clustering.kmeans(x, 3, seed=3, restarts=5)
        again, again_labels = clustering.kmeans(x, 3, seed=11, init=centers)
        assert again.tobytes() == centers.tobytes()
        np.testing.assert_array_equal(again_labels, labels)

    def test_init_wins_a_tie(self):
        """The seeded run reaches the init's optimum with its clusters in another order."""
        rng = np.random.default_rng(48)
        x, _ = blobs(rng, [(0, 0), (6, 0), (0, 6)], per=20)
        seeded, _ = clustering.kmeans(x, 3, seed=5)
        init = seeded[[2, 0, 1]]
        finals = [lloyd(x, c, max_iter=100, tol=1e-6)[2]
                  for c in (init, plus_plus_seed(x, 3, np.random.default_rng(5)))]
        assert finals[0] == finals[1]
        centers, _ = clustering.kmeans(x, 3, seed=5, init=init)
        assert centers.tobytes() == init.tobytes()

    def test_init_is_not_written(self):
        rng = np.random.default_rng(49)
        x, _ = blobs(rng, [(0, 0), (6, 0)], per=10)
        init = np.array([[1.0, 1.0], [5.0, -1.0]])
        kept = init.copy()
        clustering.kmeans(x, 2, seed=0, init=init)
        np.testing.assert_array_equal(init, kept)

    @pytest.mark.parametrize("init,message", [
        (np.zeros((2, 2)), "init must be a non-empty (3, 2) matrix, got shape (2, 2)"),
        (np.zeros((3, 3)), "init must be a non-empty (3, 2) matrix, got shape (3, 3)"),
        (np.zeros(6), "init must be a non-empty (3, 2) matrix, got shape (6,)"),
        (np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]]), "init must be finite: row 1, column 1 holds nan"),
        (np.array([[0.0, 0.0], [1.0, 1.0], [np.inf, 2.0]]), "init must be finite: row 2, column 0 holds inf"),
    ])
    def test_bad_init_rejected_naming_the_expected_shape(self, init, message):
        rng = np.random.default_rng(50)
        x, _ = blobs(rng, [(0, 0), (6, 0), (0, 6)], per=10)
        with pytest.raises(clustering.ClusteringError, match=f"^{re.escape(message)}$"):
            clustering.kmeans(x, 3, seed=0, init=init)
