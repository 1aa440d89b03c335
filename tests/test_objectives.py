"""Loss graph builders and information estimators against numpy and counting oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmi import autodiff as ad
from fairmi import model
from fairmi import objectives as obj

from helpers import entropy

LN2 = float(np.log(2.0))


def random_assignment(rng, n, k):
    logits = rng.normal(size=(n, k)) * 2.0
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels, k):
    probs = np.zeros((len(labels), k))
    probs[np.arange(len(labels)), labels] = 1.0
    return probs


def oracle_mi(probs, groups, n_groups):
    """Double loop over (group, cluster) cells, straight off the definition."""
    n, k = probs.shape
    p_gc = np.zeros((n_groups, k))
    for i in range(n):
        p_gc[groups[i]] += probs[i] / n
    p_g = p_gc.sum(axis=1)
    p_c = p_gc.sum(axis=0)
    total = 0.0
    for t in range(n_groups):
        for j in range(k):
            if p_gc[t, j] > 0:
                total += p_gc[t, j] * np.log(p_gc[t, j] / (p_g[t] * p_c[j]))
    return total


def reconstruction_value(flat, x, groups, dims, n_groups):
    """Forward value of the training reconstruction term for given parameters."""
    nodes = model.param_input_nodes(dims, n_groups)
    x_node = ad.input_node("x", x.shape)
    h = model.encoder_graph(x_node, nodes, dims)
    root = model.reconstruction_graph(x_node, h, nodes, dims, np.asarray(groups))
    return float(ad.forward(root, {**flat, "x": x}))


def identity_autoencoder(width, dec_bias=0.0):
    """One linear layer each way, both the identity; the decoder adds `dec_bias`."""
    return {"enc.0.W": np.eye(width), "enc.0.b": np.zeros(width),
            "dec.0.0.W": np.eye(width), "dec.0.0.b": np.zeros(width) + dec_bias}


class TestReconstruction:
    def test_identical_inputs_cost_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert reconstruction_value(identity_autoencoder(3), x, np.zeros(5, int), (3, 3), 1) == 0.0

    def test_unit_displacement_costs_one(self):
        """Each row off by a unit vector: mean squared distance is 1."""
        flat = identity_autoencoder(3, dec_bias=[0.0, 1.0, 0.0])
        value = reconstruction_value(flat, np.zeros((4, 3)), np.zeros(4, int), (3, 3), 1)
        np.testing.assert_allclose(value, 1.0, atol=0)

    def test_matches_row_loop_oracle(self):
        rng = np.random.default_rng(1)
        dims = (4, 3, 2)
        params = model.init_params(dims, 2, seed=1)
        x = rng.normal(size=(7, 4))
        groups = np.array([0, 1, 1, 0, 1, 0, 0])
        pairs = list(params.all_arrays())  # encoder, then branches 0 and 1
        (w0, b0), (w1, b1) = pairs[:2]
        expected = 0.0
        for i in range(7):
            h = np.tanh(x[i] @ w0 + b0) @ w1 + b1
            (v0, c0), (v1, c1) = pairs[2 + 2 * groups[i]: 4 + 2 * groups[i]]
            rec = np.tanh(h @ v0 + c0) @ v1 + c1
            expected += ((x[i] - rec) ** 2).sum() / 7
        value = reconstruction_value(params.arrays, x, groups, dims, 2)
        np.testing.assert_allclose(value, expected, atol=1e-12)


class TestEntropies:
    def test_entropy_reference_values(self):
        np.testing.assert_allclose(obj._entropy(np.array([0.5, 0.5])), LN2, atol=1e-12)
        np.testing.assert_allclose(
            obj._entropy(np.array([0.5, 0.25, 0.25])), 1.0397207708399179, atol=1e-9
        )

    def test_point_mass_is_positive_zero(self):
        value = obj._entropy(np.array([1.0, 0.0]))  # 0 log 0 is 0
        assert value == 0.0 and not np.signbit(value)

    def test_uniform_maximizes_entropy(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 5):
            p = rng.dirichlet(np.ones(k))
            assert obj._entropy(p) <= np.log(k) + 1e-12

    def test_sums_every_cell_of_an_assignment(self):
        """H(C|X) is the entropy of the whole array over n, the mean of the row entropies."""
        rng = np.random.default_rng(4)
        assign = random_assignment(rng, 9, 3)
        expected = 0.0
        for row in assign:
            expected += -(row * np.log(row)).sum() / 9
        np.testing.assert_allclose(obj._entropy(assign) / 9, expected, atol=1e-12)

    def test_xlogx_of_zero_is_exactly_zero(self):
        assert obj._xlogx(np.array([0.0]))[0] == 0.0


BAD_ASSIGNMENTS = {
    "1-d": (np.array([0.5, 0.5]), r"assignment must be a non-empty \(n, d\) matrix, got shape \(2,\)"),
    "non-finite": (np.array([[np.nan, 1.0], [0.5, 0.5]]), "assignment must be finite: row 0, column 0 holds nan"),
    "out-of-range": (np.array([[1.5, -0.5], [0.5, 0.5]]), r"assignment entries must lie in \[0, 1\]"),
    "rows-off-one": (np.array([[0.5, 0.4], [0.5, 0.5]]), "assignment rows must sum to 1"),
}
ESTIMATORS = {
    "group_cluster_mi": lambda assign: obj.group_cluster_mi(assign, np.array([0, 1]), 2),
    "conditional_mi": lambda assign: obj.conditional_mi(assign, 0.0),
}


class TestAssignmentChecks:
    @pytest.mark.parametrize("case", BAD_ASSIGNMENTS)
    @pytest.mark.parametrize("entry", ESTIMATORS)
    def test_estimators_reject_a_bad_matrix(self, entry, case):
        assign, message = BAD_ASSIGNMENTS[case]
        with pytest.raises(obj.ObjectiveError, match=f"^{message}$"):
            ESTIMATORS[entry](assign)

    @pytest.mark.parametrize("entry", ESTIMATORS)
    def test_one_hot_rows_are_accepted(self, entry):
        # hard partitions reuse the estimators
        assert np.isfinite(ESTIMATORS[entry](np.array([[1.0, 0.0], [0.0, 1.0]])))


def clustering_loss_value(assign):
    c = ad.input_node("c", assign.shape)
    return float(ad.forward(obj.clustering_loss_graph(c, assign.shape[0]), {"c": assign}))


class TestClusteringLoss:
    def test_balanced_one_hot_reaches_minus_ln2(self):
        assign = one_hot([0, 1, 0, 1], 2)
        np.testing.assert_allclose(clustering_loss_value(assign), -LN2, atol=1e-12)

    def test_uniform_rows_score_zero(self):
        assign = np.full((6, 3), 1 / 3)
        np.testing.assert_allclose(clustering_loss_value(assign), 0.0, atol=1e-12)

    def test_collapsed_one_hot_scores_zero(self):
        assign = one_hot([0, 0, 0, 0], 2)
        np.testing.assert_allclose(clustering_loss_value(assign), 0.0, atol=1e-12)

    def test_decomposes_into_entropies(self):
        rng = np.random.default_rng(6)
        assign = random_assignment(rng, 15, 4)
        expected = -entropy(assign.mean(axis=0)) + entropy(assign) / 15
        np.testing.assert_allclose(clustering_loss_value(assign), expected, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        assign = random_assignment(rng, 12, 3)
        perm = rng.permutation(12)
        shuffled = assign[perm]
        np.testing.assert_allclose(
            clustering_loss_value(assign), clustering_loss_value(shuffled), atol=1e-12
        )


class TestGroupClusterMI:
    def test_identical_rows_across_groups_factorize(self):
        assign = np.tile(np.array([0.7, 0.3]), (8, 1))
        groups = np.array([0, 1] * 4)
        np.testing.assert_allclose(obj.group_cluster_mi(assign, groups, 2), 0.0, atol=1e-12)

    def test_aligned_one_hot_reaches_ln2(self):
        """Two balanced groups, assignments equal to groups: exactly ln 2."""
        groups = np.array([0, 1, 0, 1, 0, 1])
        assign = one_hot(groups, 2)
        np.testing.assert_allclose(obj.group_cluster_mi(assign, groups, 2), LN2, atol=1e-12)

    def test_matches_counting_oracle_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, k, t = int(rng.integers(4, 30)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
            groups = rng.integers(0, t, size=n)
            groups[:t] = np.arange(t)  # every group inhabited
            assign = random_assignment(rng, n, k)
            np.testing.assert_allclose(
                obj.group_cluster_mi(assign, groups, t),
                oracle_mi(assign, groups, t),
                atol=1e-12,
            )

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(8)
        assign = random_assignment(rng, 4, 2)
        with pytest.raises(obj.ObjectiveError):
            obj.group_cluster_mi(assign, np.array([0, 0, 0, 0]), 2)

    @pytest.mark.parametrize("groups", [[0.0, 1.0, 0.0, 1.0], ["a", "b", "a", "b"], [True, False, True, False]],
                             ids=["float", "str", "bool"])
    @pytest.mark.parametrize("entry", ["group_cluster_mi", "group_cluster_mi_graph"])
    def test_non_integer_groups_are_refused_by_name(self, entry, groups):
        assign = np.full((4, 2), 0.5)
        calls = {"group_cluster_mi": lambda: obj.group_cluster_mi(assign, groups, 2),
                 "group_cluster_mi_graph": lambda: obj.group_cluster_mi_graph(ad.constant(assign), groups, 2)}
        with pytest.raises(obj.ObjectiveError, match="^groups must be a 1-d integer array, got list of dtype "):
            calls[entry]()

    def test_one_group_id_per_assignment_row(self):
        with pytest.raises(obj.ObjectiveError) as err:
            obj.group_cluster_mi(np.full((4, 2), 0.5), np.array([0, 1, 0]), 2)
        assert str(err.value) == "groups must be a non-empty (4,) array, got shape (3,)"

    @pytest.mark.parametrize("n_groups,shown", [(True, "True"), (2.0, "2.0"), ("2", "'2'"), (None, "None")])
    @pytest.mark.parametrize("entry", ["group_cluster_mi", "group_cluster_mi_graph"])
    def test_a_group_count_that_is_not_an_integer_is_refused_by_name(self, entry, n_groups, shown):
        assign = np.full((4, 2), 0.5)
        groups = np.array([0, 1, 0, 1])
        calls = {"group_cluster_mi": lambda: obj.group_cluster_mi(assign, groups, n_groups),
                 "group_cluster_mi_graph": lambda: obj.group_cluster_mi_graph(ad.constant(assign), groups, n_groups)}
        with pytest.raises(obj.ObjectiveError) as err:
            calls[entry]()
        assert str(err.value) == f"n_groups must be an integer, got {shown}"

    def test_the_clamp_turns_negative_zero_positive(self):
        """``max(-0.0, 0.0)`` is -0.0; the clamp gives +0.0 for it, and for a negative rounding residue."""
        assert math.copysign(1.0, obj._at_least_zero(-0.0)) == 1.0
        assert math.copysign(1.0, obj._at_least_zero(-1e-17)) == 1.0
        assert obj._at_least_zero(0.25) == 0.25

    def test_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            assign = random_assignment(rng, 10, 3)
            groups = rng.integers(0, 2, size=10)
            groups[:2] = [0, 1]
            value = obj.group_cluster_mi(assign, groups, 2)
            assert value >= 0.0 and not np.signbit(value)

    def test_proportional_partitions_never_read_below_zero(self):
        """Every cluster holds each group equally often, so I(G;C) is zero up to rounding,
        and the rounding never shows as a negative value or -0.0."""
        for k in range(2, 6):
            for t in range(2, 5):
                pred = np.arange(k * 12) // 12
                value = obj.group_cluster_mi(one_hot(pred, k), np.arange(k * 12) % t, t)
                assert 0.0 <= value < 1e-15 and not np.signbit(value), (k, t, value)

    def test_mi_of_joint_table_matches_log_ratio(self):
        """The shared helper equals sum p log(p / (p_a p_b)) over non-zero cells."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            joint = rng.random((int(rng.integers(1, 5)), int(rng.integers(1, 6))))
            joint[rng.random(joint.shape) < 0.3] = 0.0
            joint[0, 0] += 0.1  # never all zero
            joint /= joint.sum()
            p_a, p_b = joint.sum(axis=1), joint.sum(axis=0)
            expected = sum(
                joint[i, j] * np.log(joint[i, j] / (p_a[i] * p_b[j]))
                for i in range(joint.shape[0]) for j in range(joint.shape[1]) if joint[i, j] > 0
            )
            np.testing.assert_allclose(obj._mutual_information(joint), expected, atol=1e-12)


def total_loss_value(l_rec, l_clu, l_fair, alpha, beta_fair):
    rec, clu, fair = (ad.constant(np.asarray(v, dtype=np.float64)) for v in (l_rec, l_clu, l_fair))
    return float(ad.forward(obj.total_loss_graph(rec, clu, fair, alpha, beta_fair), {}))


class TestTotalLoss:
    def test_reference_combination(self):
        np.testing.assert_allclose(
            total_loss_value(1.0, -0.5, 0.1, alpha=0.04, beta_fair=0.20), 1.0, atol=1e-15
        )

    def test_zero_weights_pass_reconstruction_through(self):
        assert total_loss_value(2.5, 100.0, 100.0, alpha=0.0, beta_fair=0.0) == 2.5

    @pytest.mark.parametrize("weight", ["alpha", "beta_fair"])
    def test_negative_weights_rejected_by_name(self, weight):
        with pytest.raises(obj.ObjectiveError) as err:
            total_loss_value(1.0, 0.0, 0.0, **{"alpha": 0.0, "beta_fair": 0.0, weight: -0.1})
        assert str(err.value) == f"{weight} must be >= 0, got -0.1"

    @pytest.mark.parametrize("value,shown", [("1", "'1'"), (True, "True"), (float("nan"), "nan"),
                                             (float("inf"), "inf")])
    @pytest.mark.parametrize("weight", ["alpha", "beta_fair"])
    def test_a_weight_that_is_not_a_finite_number_is_named_before_any_node_is_built(
            self, monkeypatch, weight, value, shown):
        rec, clu, fair = (ad.constant(np.asarray(v)) for v in (1.0, 0.0, 0.0))

        def no_node(*args):
            raise AssertionError("a node was built before the weights were checked")

        monkeypatch.setattr(ad, "scale", no_node)
        monkeypatch.setattr(ad, "add", no_node)
        with pytest.raises(obj.ObjectiveError) as err:
            obj.total_loss_graph(rec, clu, fair, **{"alpha": 0.04, "beta_fair": 0.2, weight: value})
        assert str(err.value) == f"{weight} must be a finite number, got {shown}"


class TestConditionalMI:
    def test_decomposition_identity_random_soft_assignments(self):
        """conditional + leakage + assignment entropy equals cluster entropy."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, k, t = int(rng.integers(4, 40)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            groups = rng.integers(0, t, size=n)
            groups[:t] = np.arange(t)
            assign = random_assignment(rng, n, k)
            mi = obj.group_cluster_mi(assign, groups, t)
            lhs = obj.conditional_mi(assign, mi) + mi + entropy(assign) / n
            np.testing.assert_allclose(lhs, entropy(assign.mean(axis=0)), atol=1e-9)

    def test_hard_partition_value(self):
        # one-hot rows: assignment entropy 0, so the estimate is H(C) - leakage
        groups = np.array([0, 1, 0, 1])
        assign = one_hot([0, 1, 1, 0], 2)
        mi = obj.group_cluster_mi(assign, groups, 2)
        expected = entropy(assign.mean(axis=0)) - mi
        np.testing.assert_allclose(obj.conditional_mi(assign, mi), expected, atol=1e-12)

    def test_is_minus_the_clustering_loss_plus_leakage(self):
        """The graph's H(C|X) - H(C) and the numpy H(C) - H(C|X) check each other."""
        rng = np.random.default_rng(16)
        for _ in range(25):
            n, k, t = int(rng.integers(4, 40)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            groups = rng.integers(0, t, size=n)
            groups[:t] = np.arange(t)
            assign = random_assignment(rng, n, k)
            mi = obj.group_cluster_mi(assign, groups, t)
            loss = float(ad.forward(obj.clustering_loss_graph(ad.constant(assign), n), {}))
            np.testing.assert_allclose(loss, -(obj.conditional_mi(assign, mi) + mi), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mi_gc,shown", [(float("nan"), "nan"), (float("inf"), "inf"), ("0", "'0'")])
    def test_a_leakage_that_is_not_a_finite_number_is_refused(self, mi_gc, shown):
        """A NaN would otherwise pass the +0.0 clamp as 0.0."""
        with pytest.raises(obj.ObjectiveError) as err:
            obj.conditional_mi(np.eye(2), mi_gc)
        assert str(err.value) == f"mi_gc must be a finite number, got {shown}"

    def test_partitions_equal_to_the_groups_never_read_below_zero(self):
        """The groups explain such a partition fully, so I(X;C|G) is zero up to rounding,
        and the rounding never shows as a negative value or -0.0."""
        for k in range(2, 7):
            for n in (90, *range(30, 1001, 70)):
                groups = np.arange(n) % k
                assign = one_hot(groups, k)
                value = obj.conditional_mi(assign, obj.group_cluster_mi(assign, groups, k))
                assert 0.0 <= value < 1e-15 and not np.signbit(value), (k, n, value)


class TestGraphBuilders:
    """The differentiable paths must agree with numpy references."""

    def _random_case(self, seed):
        rng = np.random.default_rng(seed)
        n, k, t = 17, 4, 3
        assign = random_assignment(rng, n, k)
        groups = rng.integers(0, t, size=n)
        groups[:t] = np.arange(t)
        return assign, groups, t

    def test_clustering_loss_graph_matches(self):
        assign, _, _ = self._random_case(12)
        c = ad.input_node("c", assign.shape)
        root = obj.clustering_loss_graph(c, assign.shape[0])
        got = ad.forward(root, {"c": assign})
        p = assign.mean(axis=0)
        expected = (p * np.log(p)).sum() - (assign * np.log(assign)).sum() / assign.shape[0]
        np.testing.assert_allclose(float(got), expected, atol=1e-12)

    def test_group_mi_graph_matches(self):
        assign, groups, t = self._random_case(13)
        c = ad.input_node("c", assign.shape)
        root = obj.group_cluster_mi_graph(c, groups, t)
        got = ad.forward(root, {"c": assign})
        np.testing.assert_allclose(float(got), obj.group_cluster_mi(assign, groups, t), atol=1e-12)

    def test_group_mi_graph_allows_batch_empty_group(self):
        """A group absent from the batch contributes zero, not an error."""
        rng = np.random.default_rng(14)
        assign = random_assignment(rng, 6, 3)
        groups = np.zeros(6, dtype=np.int64)  # group 1 of 2 missing
        c = ad.input_node("c", assign.shape)
        root = obj.group_cluster_mi_graph(c, groups, 2)
        got = float(ad.forward(root, {"c": assign}))
        np.testing.assert_allclose(got, 0.0, atol=1e-12)  # single group: no leakage possible

    def test_total_graph_recomposes(self):
        assign, groups, t = self._random_case(15)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(assign.shape[0], 5))
        x_rec = rng.normal(size=(assign.shape[0], 5))
        c = ad.input_node("c", assign.shape)
        a = ad.input_node("a", x.shape)
        b = ad.input_node("b", x.shape)
        e = ad.subtract(a, b)
        rec = ad.scale(ad.sum_all(ad.multiply(e, e)), 1.0 / assign.shape[0])
        clu = obj.clustering_loss_graph(c, assign.shape[0])
        fair = obj.group_cluster_mi_graph(c, groups, t)
        root = obj.total_loss_graph(rec, clu, fair, alpha=0.04, beta_fair=0.2)
        got = float(ad.forward(root, {"c": assign, "a": x, "b": x_rec}))
        p = assign.mean(axis=0)
        l_rec = ((x - x_rec) ** 2).sum() / assign.shape[0]
        l_clu = (p * np.log(p)).sum() - (assign * np.log(assign)).sum() / assign.shape[0]
        expected = l_rec + 0.04 * l_clu + 0.2 * obj.group_cluster_mi(assign, groups, t)
        np.testing.assert_allclose(got, expected, atol=1e-12)
