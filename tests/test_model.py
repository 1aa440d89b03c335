"""Encoder/decoder behavior, initialization, gradients, and checkpoints."""

import re
import struct

import numpy as np
import pytest

from fairmi import autodiff as ad
from fairmi import model

from helpers import grad_check, weights_blob


def tiny_params(layer_dims=(5, 4, 3), groups=2, seed=0):
    return model.init_params(layer_dims, groups, seed)


# each corruption test_rejects_corrupt_files makes, with a part of the message that rejects it
CORRUPTIONS = {
    "magic": "magic",
    "version": "version 99",
    "version-1": "unsupported checkpoint version 1",
    "short-head": "checkpoint ends in its head: it holds 7 bytes where 12 are needed",
    "dim-list": "checkpoint ends in its dim list: it holds 18 bytes where 28 are needed",
    "truncate": "checkpoint ends in its weights: it holds 987 bytes where 996 are needed",
    "trailing": "scoring block implies",
    "no-scoring": "checkpoint ends in its scoring head: it holds 1000 bytes where 1016 are needed",
    "block-truncate": "checkpoint ends in its feature names: it holds 1173 bytes where 1176 are needed",
    "block-one-byte-short": "checkpoint ends in its feature names: it holds 1175 bytes where 1176 are needed",
    "block-truncate-head": "checkpoint ends in its scoring head: it holds 1002 bytes where 1016 are needed",
    "block-name-lengths": "checkpoint ends in its name lengths: it holds 1150 bytes where 1164 are needed",
    "block-k-mismatch": "checkpoint ends in its name lengths: it holds 1176 bytes where 1188 are needed",
    "block-k-one": "k >= 2",
    "block-k-zero": "scoring centers must be a non-empty (n, d) matrix, got shape (0, 3)",
    "block-no-names": "holds 0 feature names",
    "block-flags": "0 or 1",
    "block-nan-center": "centers must be finite: row 0, column 1 holds nan",
    "block-nan-tau": "tau must be a finite number, got nan",
    "block-zero-tau": "tau must be > 0, got 0.0",
    "block-tiny-tau": "tau must be large enough that 1 / tau is finite, got 1e-310",
    "block-inf-mean": "scoring transform must be finite: row 0, column 0 holds inf",
    "block-zero-std": "scoring transform std must be > 0: entry 2 holds 0.0",
    "block-names": "not UTF-8",
}


def scored_params(layer_dims=(5, 4, 3), groups=2, k=2, seed=0, transform=True, names=True):
    """A record with a scoring block of random centers, a random transform (or none), and odd
    names (or the default ones)."""
    p = model.init_params(layer_dims, groups, seed)
    rng = np.random.default_rng(seed)
    width = layer_dims[0]
    scoring = model.Scoring(
        centers=rng.normal(size=(k, layer_dims[-1])),
        tau=float(rng.uniform(0.05, 2.0)),
        transform=(rng.normal(size=width), rng.uniform(0.5, 3.0, size=width)) if transform else None,
        feature_names=tuple((["höhe", "a,b", ""] if names else []) + [f"f{i}" for i in range(width)])[:width],
    )
    return model.ModelParams(p.layer_dims, groups, p.arrays, scoring)


def stack(p, index):
    """The (W, b) pairs of the encoder (index 0) or of branch index - 1."""
    depth = len(p.layer_dims) - 1
    return list(p.all_arrays())[index * depth: (index + 1) * depth]


class TestInit:
    def test_deterministic_per_seed(self):
        a = tiny_params(seed=9)
        b = tiny_params(seed=9)
        for (wa, ba), (wb, bb) in zip(a.all_arrays(), b.all_arrays()):
            assert wa.tobytes() == wb.tobytes()
            assert ba.tobytes() == bb.tobytes()

    def test_seed_changes_weights(self):
        a = tiny_params(seed=1)
        b = tiny_params(seed=2)
        assert not np.array_equal(a.arrays["enc.0.W"], b.arrays["enc.0.W"])

    def test_shapes_mirror_and_biases_zero(self):
        p = tiny_params((6, 4, 2), groups=3)
        assert [w.shape for w, _ in stack(p, 0)] == [(6, 4), (4, 2)]
        for t in range(3):
            assert [w.shape for w, _ in stack(p, t + 1)] == [(2, 4), (4, 6)]
        for _, b in p.all_arrays():
            np.testing.assert_array_equal(b, 0.0)

    def test_branches_are_distinct_draws(self):
        p = tiny_params(groups=3)
        assert not np.array_equal(p.arrays["dec.0.0.W"], p.arrays["dec.1.0.W"])
        assert not np.array_equal(p.arrays["dec.1.0.W"], p.arrays["dec.2.0.W"])

    def test_uniform_bound_respected(self):
        p = model.init_params((30, 10), 1, seed=4)
        w = p.arrays["enc.0.W"]
        limit = np.sqrt(6.0 / 40.0)
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.8 * limit  # draws actually fill the range

    def test_rejects_bad_dims(self):
        with pytest.raises(model.ModelError):
            model.init_params((5,), 1, seed=0)
        with pytest.raises(model.ModelError):
            model.init_params((5, 0, 3), 1, seed=0)
        with pytest.raises(model.ModelError):
            model.init_params((5, 3), 0, seed=0)

    @pytest.mark.parametrize("dims,groups,message", [
        ((3, 2.7), 1, "width 1 of layer_dims [3, 2.7] must be an integer, got 2.7"),
        ((3, 2.7), True, "width 1 of layer_dims [3, 2.7] must be an integer, got 2.7"),
        ((True, 2), 1, "width 0 of layer_dims [True, 2] must be an integer, got True"),
        ((3, 0, 2), 1, "width 1 of layer_dims [3, 0, 2] must be >= 1, got 0"),
        ((5,), 1, "layer_dims must be a list of 2 or more integers, got [5]"),
        ([np.int64(3), np.int64(0)], 2, "width 1 of layer_dims [3, 0] must be >= 1, got 0"),
        ((3, 2), True, "group_count must be an integer, got True"),
        ((3, 2), 1.5, "group_count must be an integer, got 1.5"),
        ((3, 2), 0, "group_count must be >= 1, got 0"),
    ])
    @pytest.mark.parametrize("entry", ["init_params", "ModelParams"])
    def test_rejects_each_bad_width_and_group_count_by_name(self, entry, dims, groups, message):
        """A width or group count that is not an integer >= 1 is refused, not truncated."""
        calls = {"init_params": lambda: model.init_params(dims, groups, seed=0),
                 "ModelParams": lambda: model.ModelParams(dims, groups, {})}
        with pytest.raises(model.ModelError, match=f"^{re.escape(message)}$"):
            calls[entry]()

    def test_numpy_integer_widths_and_group_count_become_ints(self):
        p = model.init_params(np.array([5, 4, 3]), np.int64(2), seed=0)
        assert p.layer_dims == (5, 4, 3) and p.group_count == 2
        assert {type(d) for d in p.layer_dims} == {int} and type(p.group_count) is int


class TestLayout:
    def test_checkpoint_order_encoder_then_mirrored_branches(self):
        assert list(model._layout((5, 4, 3), 2)) == [
            ("enc.0.W", (5, 4)), ("enc.0.b", (4,)), ("enc.1.W", (4, 3)), ("enc.1.b", (3,)),
            ("dec.0.0.W", (3, 4)), ("dec.0.0.b", (4,)), ("dec.0.1.W", (4, 5)), ("dec.0.1.b", (5,)),
            ("dec.1.0.W", (3, 4)), ("dec.1.0.b", (4,)), ("dec.1.1.W", (4, 5)), ("dec.1.1.b", (5,)),
        ]

    def test_flat_dict_and_graph_inputs_follow_the_layout(self):
        p = tiny_params((6, 4, 2), groups=3)
        layout = list(model._layout((6, 4, 2), 3))
        assert [(name, a.shape) for name, a in p.arrays.items()] == layout
        nodes = model.param_input_nodes((6, 4, 2), 3)
        assert [(name, node.shape) for name, node in nodes.items()] == layout

    @pytest.mark.parametrize("spoil", [
        lambda a: np.full_like(a, np.nan), lambda a: np.zeros(a.shape + (1,)), lambda a: a.tolist()[1:],
        lambda a: [a.tolist(), [0.0]], lambda a: a.astype(str),
    ], ids=["nan", "extra-axis", "short-list", "ragged-list", "str"])
    @pytest.mark.parametrize("name", ["enc.0.b", "dec.1.1.W"])
    def test_params_reject_a_bad_array_by_name(self, name, spoil):
        flat = tiny_params().arrays
        with pytest.raises(model.ModelError, match=f"^{re.escape(name)} must be "):
            model.ModelParams((5, 4, 3), 2, dict(flat, **{name: spoil(flat[name])}))

    def test_params_hold_the_checked_arrays(self):
        """A list or a float32 array is stored as float64; a float64 array is stored as given."""
        flat = tiny_params().arrays
        given = dict(flat, **{"enc.0.W": flat["enc.0.W"].tolist(), "enc.0.b": flat["enc.0.b"].astype(np.float32)})
        p = model.ModelParams((5, 4, 3), 2, given)
        for name in ("enc.0.W", "enc.0.b"):
            assert type(p.arrays[name]) is np.ndarray and p.arrays[name].dtype == np.float64
            np.testing.assert_array_equal(p.arrays[name], np.asarray(given[name], dtype=np.float64))
        assert all(p.arrays[name] is flat[name] for name in list(flat)[2:])

    @pytest.mark.parametrize("change,name", [
        ("missing", "enc.1.W"), ("extra", "dec.2.0.W"), ("out of order", "enc.0.b"),
    ])
    def test_params_reject_names_off_the_layout(self, change, name):
        arrays = dict(tiny_params().arrays)
        if change == "missing":
            del arrays[name]
        elif change == "extra":
            arrays[name] = np.zeros((3, 4))
        else:
            arrays = {name: arrays.pop(name), **arrays}
        with pytest.raises(model.ModelError, match=re.escape(repr(name))):
            model.ModelParams((5, 4, 3), 2, arrays)


class TestEncodeDecode:
    def test_zero_weights_give_zero_latents(self):
        p = tiny_params()
        zeroed = model.ModelParams(p.layer_dims, p.group_count,
                                   {name: np.zeros_like(a) for name, a in p.arrays.items()})
        h = model.encode(zeroed, np.random.default_rng(0).normal(size=(7, 5)))
        np.testing.assert_array_equal(h, 0.0)

    def test_single_identity_layer_is_identity(self):
        p = model.ModelParams((4, 4), 1, {"enc.0.W": np.eye(4), "enc.0.b": np.zeros(4),
                                          "dec.0.0.W": np.eye(4), "dec.0.0.b": np.zeros(4)})
        x = np.random.default_rng(1).normal(size=(6, 4))
        np.testing.assert_array_equal(model.encode(p, x), x)

    def test_encode_matches_layer_loop_oracle(self):
        rng = np.random.default_rng(5)
        p = tiny_params((5, 4, 3), groups=1, seed=5)
        x = rng.normal(size=(8, 5))
        z = x
        for i, (w, b) in enumerate(stack(p, 0)):
            z = z @ w + b
            if i < len(stack(p, 0)) - 1:
                z = np.tanh(z)
        np.testing.assert_allclose(model.encode(p, x), z, atol=1e-12)

    @pytest.mark.parametrize("layer_dims", [(5, 3), (5, 4, 3), (5, 7, 6, 2)])
    def test_encode_is_bit_equal_to_the_layer_chain_and_leaves_x_alone(self, layer_dims):
        p = tiny_params(layer_dims, groups=1, seed=3)
        x = np.random.default_rng(3).normal(size=(40, 5))
        z = x
        for w, b in stack(p, 0)[:-1]:
            z = np.tanh(z @ w + b)
        w, b = stack(p, 0)[-1]
        want = z @ w + b
        before = x.copy()
        x.flags.writeable = False  # any write into the caller's array raises
        assert model.encode(p, x).tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()

    def test_batch_order_equivariance(self):
        p = tiny_params(seed=8)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 5))
        perm = rng.permutation(12)
        np.testing.assert_allclose(model.encode(p, x)[perm], model.encode(p, x[perm]), atol=1e-12)

    def test_rejects_wrong_width(self):
        p = tiny_params()
        with pytest.raises(model.ModelError):
            model.encode(p, np.zeros((3, 4)))


class TestGraph:
    def _grads(self, groups, seed=0):
        dims = (4, 3, 2)
        params = model.init_params(dims, 2, seed).arrays
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(len(groups), 4))
        nodes = model.param_input_nodes(dims, 2)
        x_node = ad.input_node("x", x.shape)
        h = model.encoder_graph(x_node, nodes, dims)
        root = model.reconstruction_graph(x_node, h, nodes, dims, np.asarray(groups))
        ad.forward(root, {**params, "x": x})
        return params, ad.backward(root), root, x

    def test_graph_matches_numpy_forward(self):
        params, _, root, x = self._grads([0, 1, 0, 1, 1])
        p = model.ModelParams((4, 3, 2), 2, params)
        h = model.encode(p, x)
        groups = np.array([0, 1, 0, 1, 1])
        rec = np.empty_like(x)
        for i, t in enumerate(groups):  # each row through its own group's branch
            (w0, b0), (w1, b1) = stack(p, t + 1)
            rec[i] = np.tanh(h[i] @ w0 + b0) @ w1 + b1
        expected = ((x - rec) ** 2).sum() / x.shape[0]
        np.testing.assert_allclose(float(root.value), expected, atol=1e-12)

    def test_absent_group_branch_gets_zero_gradient(self):
        """A batch with no group-1 rows must not touch branch 1 at all."""
        params, grads, _, _ = self._grads([0, 0, 0, 0])
        for name in params:
            if name.startswith("dec.1."):
                assert name not in grads or not np.any(grads[name])
            elif name.startswith("dec.0.") or name.startswith("enc."):
                assert np.any(grads[name])

    def test_reconstruction_gradient_matches_finite_differences(self):
        dims = (4, 3, 2)
        groups = np.array([0, 1, 1, 0, 0, 1])
        params = model.init_params(dims, 2, 13).arrays
        x = np.random.default_rng(13).normal(size=(6, 4))
        nodes = model.param_input_nodes(dims, 2)
        x_node = ad.input_node("x", x.shape)
        h = model.encoder_graph(x_node, nodes, dims)
        root = model.reconstruction_graph(x_node, h, nodes, dims, groups)

        names = sorted(params)
        sizes = {n: params[n].size for n in names}

        def fn(vec):
            bound, off = {}, 0
            for n in names:
                bound[n] = vec[off: off + sizes[n]].reshape(params[n].shape)
                off += sizes[n]
            value = ad.forward(root, {**bound, "x": x})
            grads = ad.backward(root)
            flat = np.concatenate([grads[n].ravel() for n in names])
            return float(value), flat

        point = np.concatenate([params[n].ravel() for n in names])
        assert grad_check(fn, point, 1e-5) < 1e-6


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        p = scored_params((6, 5, 3), groups=3, seed=21)
        path = tmp_path / "model.bin"
        model.save_checkpoint(p, path)
        loaded = model.load_checkpoint(path)
        assert loaded.layer_dims == p.layer_dims
        assert loaded.group_count == p.group_count
        for (wa, ba), (wb, bb) in zip(p.all_arrays(), loaded.all_arrays()):
            assert wa.tobytes() == wb.tobytes()
            assert ba.tobytes() == bb.tobytes()

    def test_header_layout(self, tmp_path):
        p = scored_params((5, 3), groups=1, seed=2)
        path = tmp_path / "model.bin"
        model.save_checkpoint(p, path)
        blob = path.read_bytes()
        assert blob[:4] == b"FCMI"
        assert int.from_bytes(blob[4:8], "little") == model.CHECKPOINT_VERSION
        assert int.from_bytes(blob[8:12], "little") == 2  # two layer dims
        assert int.from_bytes(blob[12:16], "little") == 5
        assert int.from_bytes(blob[16:20], "little") == 3
        assert int.from_bytes(blob[20:24], "little") == 1  # group count

    @pytest.mark.parametrize("dims,groups,k,transform,names", [
        ((6, 5, 3), 3, 2, True, True),
        ((5, 3), 1, 4, False, False),
        ((4, 8, 6, 2), 2, 3, True, False),
        ((3, 2), 5, 2, False, True),
    ])
    def test_v2_round_trip_is_bitwise(self, tmp_path, dims, groups, k, transform, names):
        p = scored_params(dims, groups, k, seed=sum(dims) + k, transform=transform, names=names)
        path = tmp_path / "model.bin"
        model.save_checkpoint(p, path)
        loaded = model.load_checkpoint(path)
        assert (loaded.layer_dims, loaded.group_count) == (p.layer_dims, p.group_count)
        for a, b in zip(p.arrays.values(), loaded.arrays.values()):
            assert a.tobytes() == b.tobytes()
        s, t = p.scoring, loaded.scoring
        assert t.centers.tobytes() == s.centers.tobytes() and t.tau == s.tau
        assert t.feature_names == s.feature_names
        if transform:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(s.transform, t.transform))
        else:
            assert t.transform is None
        # the header and weights as an independent writer lays them out
        blob = path.read_bytes()
        assert blob[:len(weights_blob(p))] == weights_blob(p)
        model.save_checkpoint(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == blob

    def test_a_record_without_scoring_is_not_saved(self, tmp_path):
        path = tmp_path / "model.bin"
        with pytest.raises(model.ModelError, match="no trained centers.*save a record that fit returned"):
            model.save_checkpoint(tiny_params(), path)
        assert not path.exists()

    @pytest.mark.parametrize("mangle", list(CORRUPTIONS))
    def test_rejects_corrupt_files(self, tmp_path, mangle):
        p = scored_params((5, 4, 3), groups=2, k=2)
        path = tmp_path / "model.bin"
        model.save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        block = len(weights_blob(p))  # where the weights end and the scoring block starts
        centers = block + struct.calcsize("<IdII")
        row = 8 * p.layer_dims[-1]
        mean = centers + 2 * row
        std = mean + 8 * p.layer_dims[0]

        def put(offset, fmt, value):
            blob[offset: offset + struct.calcsize(fmt)] = struct.pack(fmt, value)

        if mangle == "magic":
            blob[:4] = b"NOPE"
        elif mangle == "version":
            put(4, "<I", 99)
        elif mangle == "version-1":  # the weights alone, as version 1 stored them
            blob = weights_blob(p, version=1)
        elif mangle == "short-head":
            blob = blob[:7]
        elif mangle == "dim-list":  # inside the three widths and the group count
            blob = blob[:18]
        elif mangle == "truncate":
            blob = blob[:block - 9]
        elif mangle == "trailing":
            blob += b"\x00" * 8
        elif mangle == "no-scoring":  # a zero center count, and the file ends
            blob = weights_blob(p) + struct.pack("<I", 0)
        elif mangle == "block-truncate":
            blob = blob[:-3]
        elif mangle == "block-one-byte-short":
            blob = blob[:-1]
        elif mangle == "block-truncate-head":
            blob = blob[:block + 6]
        elif mangle == "block-name-lengths":  # 6 bytes into the name lengths, after the stds
            blob = blob[:std + 8 * p.layer_dims[0] + 6]
        elif mangle == "block-k-mismatch":
            put(block, "<I", 3)
        elif mangle == "block-k-one":
            put(block, "<I", 1)
            del blob[centers + row: centers + 2 * row]
        elif mangle == "block-k-zero":
            put(block, "<I", 0)
            del blob[centers: centers + 2 * row]
        elif mangle == "block-no-names":
            put(block + 16, "<I", 0)
        elif mangle == "block-flags":
            put(block + 12, "<I", 2)
        elif mangle == "block-nan-center":
            put(centers + 8, "<d", np.nan)
        elif mangle == "block-nan-tau":
            put(block + 4, "<d", np.nan)
        elif mangle == "block-zero-tau":
            put(block + 4, "<d", 0.0)
        elif mangle == "block-tiny-tau":
            put(block + 4, "<d", 1e-310)
        elif mangle == "block-inf-mean":
            put(mean, "<d", np.inf)
        elif mangle == "block-zero-std":
            put(std + 16, "<d", 0.0)
        else:  # the first name, "höhe", loses the second byte of its "ö"
            names = std + 8 * p.layer_dims[0] + 4 * p.layer_dims[0]
            blob[names + 2] = 0x41
        path.write_bytes(bytes(blob))
        with pytest.raises(model.ModelError, match=re.escape(CORRUPTIONS[mangle])):
            model.load_checkpoint(path)

    def test_scoring_takes_centers_as_a_list(self):
        scoring = model.Scoring([[0, 1], [1, 0]], 0.1, None, ("a", "b"))
        assert scoring.centers.dtype == np.float64 and scoring.centers.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert scoring.k == 2

    @pytest.mark.parametrize("centers,tau,message", [
        ([[0, 1], [1, 0]], "x", "scoring tau must be a finite number, got 'x'"),
        ([[0, 1], [1, 0]], None, "scoring tau must be a finite number, got None"),
        ([[0, 1]], 0.1, "scoring centers must be a 2-d matrix of k >= 2 rows, got shape (1, 2)"),
        ([["a", 1], [1, 0]], 0.1, "scoring centers must be a 2-d numeric matrix, got list of dtype <U21"),
    ], ids=["string-tau", "no-tau", "one-center", "string-center"])
    def test_scoring_names_a_bad_tau_or_bad_centers(self, centers, tau, message):
        with pytest.raises(model.ModelError, match=f"^{re.escape(message)}$"):
            model.Scoring(centers, tau, None, ("a", "b"))

    @pytest.mark.parametrize("transform,message", [
        ((np.zeros(2),), "scoring transform must be a non-empty (2, d) matrix, got shape (1, 2)"),
        ((np.zeros(2), np.ones(3)), "scoring transform must be a 2-d numeric matrix, got a ragged tuple"),
        ((np.array(["a", "b"]), np.ones(2)), "scoring transform must be a 2-d numeric matrix, got tuple of dtype <U32"),
        ((np.zeros(2), np.array([1.0, np.nan])), "scoring transform must be finite: row 1, column 1 holds nan"),
        ((np.zeros(2), np.array([1.0, -1.0])), "scoring transform std must be > 0: entry 1 holds -1.0"),
    ], ids=["one-part", "two-lengths", "str", "nan-std", "negative-std"])
    def test_scoring_names_a_bad_transform(self, transform, message):
        with pytest.raises(model.ModelError, match=f"^{re.escape(message)}$"):
            model.Scoring([[0, 1], [1, 0]], 0.1, transform, ("a", "b"))

    def test_scoring_must_fit_the_layers(self):
        p = scored_params((5, 4, 3), groups=2)
        s = p.scoring
        for scoring, what in ((model.Scoring(s.centers[:, :2], s.tau, None, s.feature_names), "centers"),
                              (model.Scoring(s.centers, s.tau, (s.transform[0][:4], s.transform[1][:4]),
                                             s.feature_names), "transform mean"),
                              (model.Scoring(s.centers, s.tau, None, s.feature_names[:4]), "feature names")):
            with pytest.raises(model.ModelError, match=f"scoring {what} have shape"):
                model.ModelParams(p.layer_dims, p.group_count, p.arrays, scoring)

    def test_rejects_non_finite_bias(self, tmp_path):
        p = scored_params((5, 4, 3), groups=2)
        path = tmp_path / "model.bin"
        model.save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        header = 4 + 4 + 4 + 3 * 4 + 4
        offset = header + 8 * 5 * 4  # enc.0.b follows the 5x4 enc.0.W
        blob[offset: offset + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(model.ModelError, match=r"enc\.0\.b"):
            model.load_checkpoint(path)

    def test_rejects_a_huge_group_count_from_the_header_alone(self, tmp_path):
        """84 bytes claiming 2**32 - 1 groups fail before any per-group work."""
        path = tmp_path / "model.bin"
        path.write_bytes(struct.pack("<4sII2II", b"FCMI", 2, 2, 2, 1, 2**32 - 1) + bytes(60))
        message = f"checkpoint ends in its weights: it holds 84 bytes where {24 + 8 * (3 + 4 * (2**32 - 1))} are needed"
        with pytest.raises(model.ModelError, match=f"^{re.escape(message)}$"):
            model.load_checkpoint(path)

    def test_rejects_zero_width_layer(self, tmp_path):
        """A file with widths [3, 0, 2] holds only the 2- and 3-wide biases."""
        path = tmp_path / "model.bin"
        path.write_bytes(struct.pack("<4sII3II", b"FCMI", 2, 3, 3, 0, 2, 1) + bytes(8 * (2 + 3)))
        with pytest.raises(model.ModelError, match=re.escape("[3, 0, 2]")):
            model.load_checkpoint(path)
