"""Forward/backward correctness of the autodiff core.

Every analytic gradient is checked against central finite differences; the
finite-difference loop is the independent oracle throughout.
"""

import ast
import inspect
import logging

import numpy as np
import pytest

from fairmi import autodiff as ad

from helpers import grad_check, traced_peak


def graph_fn(root, x_node_name="x"):
    """Wrap a graph as the (value, grad) callable grad_check expects."""

    def fn(x):
        value = ad.forward(root, {x_node_name: x})
        grads = ad.backward(root)
        return float(value), grads[x_node_name]

    return fn


class TestForward:
    def test_sum_of_squares(self):
        """sum(x * x) at (1, 2, 2) is 9."""
        x = ad.input_node("x", (3,))
        root = ad.sum_all(ad.multiply(x, x))
        value = ad.forward(root, {"x": np.array([1.0, 2.0, 2.0])})
        np.testing.assert_allclose(value, 9.0, rtol=0, atol=0)

    def test_softmax_uniform_on_equal_logits(self):
        x = ad.input_node("x", (2, 4))
        root = ad.softmax_rows(x)
        out = ad.forward(root, {"x": np.full((2, 4), 3.25)})
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_mean_matmul_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        a_val = rng.normal(size=(4, 3))
        b_val = rng.normal(size=(3, 5))
        a = ad.input_node("a", (4, 3))
        b = ad.input_node("b", (3, 5))
        root = ad.scale(ad.sum_all(ad.matmul(a, b)), 1.0 / 20)
        got = ad.forward(root, {"a": a_val, "b": b_val})
        # independent triple loop
        acc = 0.0
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    acc += a_val[i, k] * b_val[k, j]
        np.testing.assert_allclose(got, acc / 20.0, atol=1e-12)

    def test_forward_is_referentially_transparent(self):
        rng = np.random.default_rng(0)
        x = ad.input_node("x", (5, 3))
        root = ad.sum_all(ad.tanh(x))
        val = rng.normal(size=(5, 3))
        first = np.asarray(ad.forward(root, {"x": val})).copy()
        second = np.asarray(ad.forward(root, {"x": val}))
        assert first.tobytes() == second.tobytes()

    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(7)
        x = ad.input_node("x", (3, 3))
        roots = [
            ad.sum_all(ad.tanh(x)),
            ad.sum_all(ad.softmax_rows(x)),
            ad.sum_all(ad.normalize_rows(x)),
            ad.scale(ad.sum_all(ad.multiply(x, x)), 1.0 / 9),
        ]
        for root in roots:
            assert np.isfinite(ad.forward(root, {"x": rng.normal(size=(3, 3))}))

    def test_normalize_rows_forward_is_unit_rows_with_one_warning(self, caplog):
        h = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, -2.0]])
        x = ad.input_node("x", h.shape)
        with caplog.at_level(logging.WARNING):
            out = ad.forward(ad.normalize_rows(x), {"x": h})
        assert [(r.name, r.levelno) for r in caplog.records] == [("fairmi.autodiff", logging.WARNING)]
        assert np.array_equal(out, ad.unit_rows(h)[0])


class TestErrors:
    def test_binding_shape_mismatch_identifies_node(self):
        x = ad.input_node("x", (2, 2))
        root = ad.sum_all(x)
        with pytest.raises(ad.GraphError, match="x"):
            ad.forward(root, {"x": np.zeros((3, 2))})

    def test_build_time_shape_mismatch(self):
        a = ad.input_node("a", (2, 3))
        b = ad.input_node("b", (2, 3))
        with pytest.raises(ad.GraphError):
            ad.matmul(a, b)
        with pytest.raises(ad.GraphError):
            ad.add(a, ad.input_node("c", (3, 3)))

    def test_missing_binding_rejected(self):
        x = ad.input_node("x", (2,))
        y = ad.input_node("y", (2,))
        root = ad.sum_all(ad.add(x, y))
        with pytest.raises(ad.GraphError, match="y"):
            ad.forward(root, {"x": np.ones(2)})

    def test_backward_needs_scalar_root(self):
        x = ad.input_node("x", (2, 2))
        root = ad.multiply(x, x)
        ad.forward(root, {"x": np.ones((2, 2))})
        with pytest.raises(ad.GraphError, match="scalar"):
            ad.backward(root)

    def test_guarded_log_allows_zero(self):
        x = ad.input_node("x", (2,))
        root = ad.sum_all(ad.multiply(x, ad.log_guarded(x)))
        value = ad.forward(root, {"x": np.array([0.0, 1.0])})
        np.testing.assert_allclose(value, 0.0, atol=0)  # 0 * log(clamp) is exactly 0


class TestBackward:
    def test_gradient_of_sum_of_squares(self):
        """d/dx sum(x^2) = 2x, so 6 at x = 3."""
        x = ad.input_node("x", ())
        root = ad.sum_all(ad.multiply(x, x))
        ad.forward(root, {"x": np.asarray(3.0)})
        grads = ad.backward(root)
        np.testing.assert_allclose(grads["x"], 6.0, atol=0)

    def test_gradient_of_linear_scale_is_constant(self):
        x = ad.input_node("x", (4,))
        root = ad.sum_all(ad.scale(x, 2.5))
        ad.forward(root, {"x": np.arange(4.0)})
        np.testing.assert_allclose(ad.backward(root)["x"], 2.5, atol=0)

    def test_softmax_rows_sum_to_one_entries_open_interval(self):
        rng = np.random.default_rng(3)
        x = ad.input_node("x", (10, 6))
        root = ad.softmax_rows(ad.scale(x, 10.0))
        out = ad.forward(root, {"x": rng.normal(size=(10, 6))})
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_select_rows_scatters_gradient(self):
        x = ad.input_node("x", (4, 2))
        root = ad.sum_all(ad.select_rows(x, [1, 3, 3]))
        ad.forward(root, {"x": np.zeros((4, 2))})
        g = ad.backward(root)["x"]
        np.testing.assert_allclose(g, np.array([[0, 0], [1, 1], [0, 0], [2, 2]], dtype=float))

    def test_add_gradients_are_distinct_writable_arrays(self):
        a = ad.input_node("a", (2, 3))
        b = ad.input_node("b", (2, 3))
        s = ad.add(a, b)
        root = ad.sum_all(ad.multiply(s, s))
        ad.forward(root, {"a": np.ones((2, 3)), "b": np.full((2, 3), 2.0)})
        grads = ad.backward(root)
        np.testing.assert_array_equal(grads["a"], 6.0)
        np.testing.assert_array_equal(grads["b"], 6.0)
        grads["a"][0, 0] = -1.0
        np.testing.assert_array_equal(grads["b"], 6.0)

    def test_shared_pass_through_gradient_is_not_written(self):
        """add hands one gradient to both operands; a later contribution to one must not reach the other."""
        for swap in (False, True):
            x = ad.input_node("x", (4,))
            p, q = ad.tanh(x), ad.multiply(x, x)
            s = ad.add(p, q)
            terms = [ad.sum_all(ad.multiply(s, s)), ad.sum_all(ad.multiply(p, q))]
            root = ad.add(*(terms[::-1] if swap else terms))
            err = grad_check(graph_fn(root), np.array([0.3, -1.1, 0.7, 2.0]), 1e-6)
            assert err < 1e-7, (swap, err)

    def test_repeated_backward_returns_equal_gradients(self):
        rng = np.random.default_rng(8)
        x = ad.input_node("x", (5, 3))
        w = ad.input_node("w", (3, 4))
        h = ad.tanh(ad.matmul(x, w))
        rows = ad.select_rows(h, [0, 2, 2, 4])
        e = ad.subtract(ad.add(rows, rows), ad.constant(np.ones((4, 4))))
        root = ad.sum_all(ad.multiply(e, e))
        ad.forward(root, {"x": rng.normal(size=(5, 3)), "w": rng.normal(size=(3, 4))})
        first = {name: g.copy() for name, g in ad.backward(root).items()}
        second = ad.backward(root)
        for name in ("x", "w"):
            assert np.array_equal(first[name], second[name])

    def test_node_without_gradient_mass_gets_zeros(self):
        """Selecting no rows sends nothing back, yet the operand's grad keeps its shape."""
        x = ad.input_node("x", (3, 2))
        root = ad.sum_all(ad.select_rows(x, []))
        ad.forward(root, {"x": np.ones((3, 2))})
        g = ad.backward(root)["x"]
        assert g is x.grad
        np.testing.assert_array_equal(g, np.zeros((3, 2)))

    def test_grad_accumulates_through_shared_subgraph(self):
        # f(x) = sum(x * x_shared_via_two_paths): d/dx x^2 pattern via add
        x = ad.input_node("x", (3,))
        doubled = ad.add(x, x)
        root = ad.sum_all(ad.multiply(doubled, x))  # f = 2 sum(x^2), grad 4x
        ad.forward(root, {"x": np.array([1.0, -2.0, 0.5])})
        np.testing.assert_allclose(ad.backward(root)["x"], np.array([4.0, -8.0, 2.0]), atol=1e-15)


class TestGradCheck:
    def test_polynomial_passes_tightly(self):
        """max relative error below 1e-7 for mean(x * x) + sum(tanh(x))."""
        x = ad.input_node("x", (5,))
        root = ad.add(ad.scale(ad.sum_all(ad.multiply(x, x)), 1.0 / 5), ad.sum_all(ad.tanh(x)))
        point = np.linspace(-1.2, 1.4, 5)
        assert grad_check(graph_fn(root), point, 1e-5) < 1e-7

    def test_constant_function_has_zero_error(self):
        x = ad.input_node("x", (3,))
        # root ignores x numerically: scale by 0
        root = ad.sum_all(ad.scale(x, 0.0))
        assert grad_check(graph_fn(root), np.ones(3), 1e-5) == 0.0

    def test_entropy_of_softmax_composition(self):
        """Clustering-style entropy through softmax stays under 1e-4."""
        rng = np.random.default_rng(11)
        x = ad.input_node("x", (6, 3))
        c = ad.softmax_rows(x)
        ones = ad.constant(np.ones((1, 6)))
        p = ad.scale(ad.matmul(ones, c), 1.0 / 6.0)
        root = ad.add(
            ad.sum_all(ad.multiply(p, ad.log_guarded(p))),
            ad.scale(ad.sum_all(ad.multiply(c, ad.log_guarded(c))), -1.0 / 6.0),
        )
        assert grad_check(graph_fn(root), rng.normal(size=(6, 3)), 1e-5) < 1e-4

    def test_rejects_bad_step(self):
        x = ad.input_node("x", (2,))
        root = ad.sum_all(x)
        with pytest.raises(ad.GraphError):
            grad_check(graph_fn(root), np.ones(2), 0.0)


def _primitive_cases(rng):
    """One scalar-valued graph per primitive, with a random small input point."""
    r = lambda *s: rng.normal(size=s)  # noqa: E731
    weight = ad.constant(r(3, 2))
    probe2x3 = ad.constant(r(2, 3))
    probe3x3 = ad.constant(r(3, 3))
    sum_sq = lambda e: ad.sum_all(ad.multiply(e, e))  # noqa: E731

    def case(shape, build, positive=False):
        x = ad.input_node("x", shape)
        point = rng.uniform(0.2, 1.5, size=shape) if positive else rng.normal(size=shape)
        return build(x), np.asarray(point)

    yield case((2, 3), lambda x: ad.sum_all(ad.matmul(x, weight)))
    yield case((3, 2), lambda x: ad.sum_all(ad.matmul(ad.constant(r(2, 3)), x)))
    yield case((2, 3), lambda x: ad.sum_all(ad.multiply(ad.add(x, probe2x3), probe2x3)))
    yield case((3,), lambda x: sum_sq(ad.add(ad.constant(r(4, 3)), x)))  # bias add
    yield case((2, 3), lambda x: sum_sq(ad.subtract(x, probe2x3)))
    yield case((2, 3), lambda x: ad.sum_all(ad.multiply(x, probe2x3)))
    yield case((2, 3), lambda x: ad.sum_all(ad.tanh(x)))
    yield case((2, 3), lambda x: ad.sum_all(ad.multiply(x, ad.log_guarded(x))), positive=True)
    yield case((3, 3), lambda x: ad.sum_all(ad.multiply(probe3x3, ad.softmax_rows(x))))
    yield case((3, 3), lambda x: ad.sum_all(ad.multiply(probe3x3, ad.normalize_rows(x))))
    yield case((2, 3), lambda x: ad.sum_all(x))
    yield case((2, 3), lambda x: ad.sum_all(ad.scale(x, -1.7)))
    yield case((2, 3), lambda x: sum_sq(x))
    yield case((4, 2), lambda x: sum_sq(ad.select_rows(x, [0, 2, 2])))


class TestPrimitiveGradients:
    def test_every_primitive_matches_finite_differences(self):
        """Analytic vs central differences (step 1e-5) under 1e-6, 100 random draws."""
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            for root, point in _primitive_cases(rng):
                worst = max(worst, grad_check(graph_fn(root), point, 1e-5))
        assert worst < 1e-6, f"worst primitive gradient error {worst}"



def _source_ops():
    """Op names as autodiff's source spells them, read off its AST.

    "_compute" and "_accumulate" hold the ops each compares ``op`` against;
    "_READS_OPERANDS" and "_READS_OUTPUT" the ops each table lists; "reads
    operands" and "reads output" the ops whose `_accumulate` branch reads
    ``ps[i].value`` or ``node.value``.
    """
    found = {"reads operands": set(), "reads output": set()}
    for top in ast.parse(inspect.getsource(ad)).body:
        if isinstance(top, ast.FunctionDef) and top.name in ("_compute", "_accumulate"):
            found[top.name] = set()
            for branch in ast.walk(top):
                test = getattr(branch, "test", None)
                if not (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name) and test.left.id == "op"):
                    continue
                op = test.comparators[0].value
                found[top.name].add(op)
                for read in (n for stmt in branch.body for n in ast.walk(stmt)):
                    if isinstance(read, ast.Attribute) and read.attr == "value":
                        owner = read.value
                        if isinstance(owner, ast.Subscript) and owner.value.id == "ps":
                            found["reads operands"].add(op)
                        elif isinstance(owner, ast.Name) and owner.id == "node":
                            found["reads output"].add(op)
        elif isinstance(top, ast.Assign) and getattr(top.targets[0], "id", "").startswith("_READS_"):
            found[top.targets[0].id] = {c.value for c in ast.walk(top.value) if isinstance(c, ast.Constant)}
    return found


class TestOpTables:
    def test_compute_accumulate_and_the_saved_values_tables_name_the_same_ops(self):
        """Every op is computed and differentiated, and a table lists an op
        exactly when its backward reads that value, so a removed op leaves no entry."""
        ops = _source_ops()
        assert ops["_compute"] == ops["_accumulate"]
        assert ops["_READS_OPERANDS"] == ops["reads operands"]
        assert ops["_READS_OUTPUT"] == ops["reads output"]
        assert ops["_READS_OPERANDS"] | ops["_READS_OUTPUT"] <= ops["_compute"]
        assert ops["_READS_OPERANDS"] == set(ad._READS_OPERANDS)
        assert ops["_READS_OUTPUT"] == set(ad._READS_OUTPUT)
        assert {"matmul", "multiply", "tanh", "select_rows"} <= ops["_compute"]  # the walk finds ops at all
        assert "square" not in ops["_compute"]

    def test_multiply_of_an_operand_by_itself_is_the_square_bit_for_bit(self):
        """multiply(d, d) gives d*d forward and 2.0 * d * g backward, the old
        square op's results, on random normal-range data: doubling is exact."""
        rng = np.random.default_rng(29)
        for shape in [(64, 32), (7,), ()]:
            d_val = rng.normal(scale=3.0, size=shape)
            g_val = rng.normal(size=shape)
            d = ad.input_node("d", shape)
            sq = ad.multiply(d, d)
            root = ad.sum_all(ad.multiply(sq, ad.constant(g_val)))  # sq's incoming gradient is g
            ad.forward(root, {"d": d_val})
            assert sq.value.tobytes() == (d_val * d_val).tobytes()
            assert ad.backward(root)["d"].tobytes() == (2.0 * d_val * g_val).tobytes()


def _dense_layer():
    """0.5 * sum(tanh(x @ w + b)), with every node by name, and bindings for it."""
    x = ad.input_node("x", (4, 3))
    w = ad.input_node("w", (3, 2))
    b = ad.input_node("b", (2,))
    mm = ad.matmul(x, w)
    z = ad.add(mm, b)
    t = ad.tanh(z)
    total = ad.sum_all(t)
    root = ad.scale(total, 0.5)
    rng = np.random.default_rng(4)
    bindings = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    return dict(x=x, w=w, b=b, mm=mm, z=z, t=t, total=total, root=root), bindings


def _op_case(op, x, v):
    """A scalar graph over inputs x (3, 3) and v (3,) that runs `op` once.

    The op's operands are ``scale`` outputs and its output reaches the root
    through ``select_rows`` and ``sum``. Backward reads none of those
    values, so only the saved-values table keeps what the op's own backward
    reads.
    """
    a, b = ad.scale(x, 0.7), ad.scale(x, -1.3)
    builders = {
        "matmul": lambda: ad.matmul(a, b),
        "add": lambda: ad.add(a, b),
        "add_bias": lambda: ad.add(a, ad.scale(v, 2.0)),
        "subtract": lambda: ad.subtract(a, b),
        "multiply": lambda: ad.multiply(a, b),
        "tanh": lambda: ad.tanh(a),
        "log_guarded": lambda: ad.log_guarded(a),
        "softmax_rows": lambda: ad.softmax_rows(a),
        "normalize_rows": lambda: ad.normalize_rows(a),
        "sum": lambda: ad.sum_all(a),
        "scale": lambda: ad.scale(a, 2.5),
        "select_rows": lambda: ad.select_rows(a, [2, 0, 2]),
    }
    out = builders[op]()
    if out.shape == ():
        return ad.scale(out, 1.5)
    return ad.sum_all(ad.select_rows(out, [0, 2, 2]))


class TestBufferLifetimes:
    def test_forward_keeps_only_what_backward_or_the_caller_reads(self):
        nodes, bindings = _dense_layer()
        ad.forward(nodes["root"], bindings)
        assert nodes["mm"].value is None  # add_bias reads no operand
        assert nodes["z"].value is None   # tanh reads its own output
        for name in ("x", "w", "b", "t", "total", "root"):
            assert nodes[name].value is not None, name
        want = 0.5 * np.tanh(bindings["x"] @ bindings["w"] + bindings["b"]).sum()
        np.testing.assert_allclose(nodes["root"].value, want, rtol=1e-15)

    def test_a_non_scalar_root_keeps_its_value(self):
        nodes, bindings = _dense_layer()
        root = ad.scale(nodes["z"], 2.0)
        out = ad.forward(root, bindings)
        assert out is root.value and out.shape == (4, 2)
        assert nodes["z"].value is None and nodes["mm"].value is None

    def test_backward_leaves_gradients_on_input_nodes_only(self):
        nodes, bindings = _dense_layer()
        ad.forward(nodes["root"], bindings)
        grads = ad.backward(nodes["root"])
        for name in ("mm", "z", "t", "total", "root"):
            assert nodes[name].grad is None, name
        for name in ("x", "w", "b"):
            assert grads[name] is nodes[name].grad
        dz = 0.5 * (1.0 - np.tanh(bindings["x"] @ bindings["w"] + bindings["b"]) ** 2)
        np.testing.assert_allclose(grads["w"], bindings["x"].T @ dz, atol=1e-15)
        np.testing.assert_allclose(grads["b"], dz.sum(axis=0), atol=1e-15)

    def test_constants_keep_their_value_and_hold_no_gradient(self):
        x = ad.input_node("x", (2, 3))
        probe = ad.constant(np.arange(6.0).reshape(3, 2))
        root = ad.sum_all(ad.matmul(x, probe))
        ad.forward(root, {"x": np.ones((2, 3))})
        ad.backward(root)
        assert probe.grad is None
        np.testing.assert_array_equal(probe.value, np.arange(6.0).reshape(3, 2))

    def test_tanh_backward_is_the_formula_bit_for_bit(self):
        """g * (1 - y*y), step by step in place, equals the expression exactly and leaves y alone."""
        rng = np.random.default_rng(8)
        x = ad.input_node("x", (64, 32))
        t = ad.tanh(x)
        c = rng.normal(size=(64, 32))
        root = ad.sum_all(ad.multiply(t, ad.constant(c)))  # tanh's incoming gradient is c
        ad.forward(root, {"x": rng.normal(scale=2.0, size=(64, 32))})
        y = t.value.copy()
        grad = ad.backward(root)["x"]
        assert grad.tobytes() == (c * (1.0 - y * y)).tobytes()
        assert t.value.tobytes() == y.tobytes()

    def test_tanh_backward_writes_one_buffer(self):
        """Through sum(tanh(x)), backward holds the incoming gradient and tanh's
        result; the three-array rule held two temporaries beside them."""
        x = ad.input_node("x", (256, 64))  # 128 KiB, below numpy's temporary elision
        root = ad.sum_all(ad.tanh(x))
        ad.forward(root, {"x": np.random.default_rng(9).normal(size=(256, 64))})
        peak = traced_peak(lambda: ad.backward(root))
        assert peak < 2.5 * 256 * 64 * 8, peak

    def test_every_op_backpropagates_twice_after_one_forward(self):
        """Guards the saved-values table: a new op must add a case here."""
        ops = _source_ops()["_compute"]
        rng = np.random.default_rng(6)
        point = rng.uniform(0.2, 1.5, size=(3, 3))  # log_guarded wants positive operands
        v_val = rng.normal(size=3)
        seen = set()
        for op in sorted(ops):
            x, v = ad.input_node("x", (3, 3)), ad.input_node("v", (3,))
            root = _op_case(op, x, v)
            seen |= {node.op for node in ad.topo_order(root)}
            ad.forward(root, {"x": point, "v": v_val})
            first = {name: g.copy() for name, g in ad.backward(root).items()}
            second = ad.backward(root)
            assert first.keys() == second.keys(), op
            for name in first:
                assert np.array_equal(first[name], second[name]), (op, name)

            def fn(p, root=root):
                value = ad.forward(root, {"x": p, "v": v_val})
                return float(value), ad.backward(root)["x"]

            assert grad_check(fn, point, 1e-5) < 1e-6, op
        assert seen >= ops
