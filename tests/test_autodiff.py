"""Gradient engine tests: analytic derivatives against central differences."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcgraph import autodiff as ad
from mcgraph import contrastive as cl


def total(t: ad.Tensor) -> ad.Tensor:
    """The sum of every entry of `t` as one tape node, to close a graph."""
    return ad.Tensor(t.value.sum(), "sum", (t,),
                     lambda g: (np.broadcast_to(g, t.shape),))


def central_diff(loss_of, block: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Independent finite-difference oracle: perturb one entry at a time."""
    out = np.zeros_like(block)
    flat = block.reshape(-1)
    grad = out.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = loss_of()
        flat[k] = orig - step
        down = loss_of()
        flat[k] = orig
        grad[k] = (up - down) / (2.0 * step)
    return out


class TestForward:
    def test_values_are_float64(self):
        t = ad.Tensor([[1, 2], [3, 4]])
        assert t.value.dtype == np.float64

    def test_shape_errors_name_the_operation(self):
        # operands must have equal shapes: pairs that numpy would broadcast fail
        for a_shape, b_shape in [((2, 3), (4, 5)), ((3,), (1,)), ((3,), ())]:
            a, b = ad.Tensor(np.ones(a_shape)), ad.Tensor(np.ones(b_shape))
            for op in (ad.add, ad.mul):
                for left, right in ((a, b), (b, a)):
                    with pytest.raises(ad.ShapeError, match=op.__name__):
                        op(left, right)


class TestScatterAdd:
    """`contrastive._scatter_add`, the scatter of the InfoNCE kernel's
    backward, against `np.add.at` into zeros: equal bit for bit."""

    def add_at(self, index, values, num_rows):
        out = np.zeros((num_rows,) + values.shape[np.ndim(index):])
        np.add.at(out, index, values)
        return out

    def check(self, index, values, num_rows):
        ours = cl._scatter_add(index, values, num_rows)
        assert ours.shape == (num_rows,) + values.shape[np.ndim(index):]
        assert np.array_equal(ours, self.add_at(index, values, num_rows))

    def test_scalar_values(self):
        rng = np.random.default_rng(1)
        self.check(rng.integers(0, 6, size=40), rng.normal(size=40), 6)

    def test_row_values(self):
        rng = np.random.default_rng(2)
        self.check(rng.integers(0, 6, size=40), rng.normal(size=(40, 3)), 6)

    def test_rows_of_matrices(self):
        rng = np.random.default_rng(3)
        self.check(rng.integers(0, 5, size=30), rng.normal(size=(30, 2, 4)), 5)

    def test_multi_dimensional_index_into_flat_source(self):
        # an index of several dims into a flat source
        rng = np.random.default_rng(4)
        index = rng.integers(0, 3 * 5 * 4, size=(6, 2, 5, 4))
        self.check(index, rng.normal(size=index.shape), 3 * 5 * 4)

    def test_empty_index_gives_zero_rows(self):
        empty = np.zeros(0, dtype=np.intp)
        for values in (np.zeros(0), np.zeros((0, 3)), np.zeros((0, 2, 4))):
            self.check(empty, values, 4)
            out = cl._scatter_add(empty, values, 4)
            assert np.array_equal(out, np.zeros(out.shape))
        self.check(empty, np.zeros((0, 3)), 0)

    def test_empty_segments_stay_zero(self):
        rng = np.random.default_rng(5)
        index = np.array([0, 3, 3, 0, 5])
        values = rng.normal(size=(5, 2))
        self.check(index, values, 7)
        out = cl._scatter_add(index, values, 7)
        assert np.array_equal(out[[1, 2, 4, 6]], np.zeros((4, 2)))


class TestBackward:
    def test_identity_gradient_is_one(self):
        x = ad.Tensor(3.0)
        ad.backward(x)
        assert_allclose(ad.grad_of(x), 1.0)

    def test_square_gradient_at_three_is_six(self):
        x = ad.Tensor(3.0)
        ad.backward(ad.mul(x, x))
        assert_allclose(ad.grad_of(x), 6.0)

    def test_three_layer_composite_matches_central_differences(self):
        rng = np.random.default_rng(42)
        params = {name: rng.normal(size=(5, 4)) for name in ("x", "w1", "w2")}

        def build(t):
            h1 = ad.mul(t["x"], t["w1"])
            cube = ad.mul(h1, ad.mul(h1, h1))
            # s: a scalar of the second layer; h3: a third reading the first two
            s = ad.mul(total(ad.mul(cube, h1)), ad.Tensor(0.2))
            h3 = ad.mul(ad.add(cube, ad.mul(h1, t["w2"])), t["w2"])
            return ad.add(total(ad.mul(h3, h3)),
                          ad.mul(ad.mul(s, s), ad.Tensor(0.125)))

        leaves = {k: ad.Tensor(v) for k, v in params.items()}
        ad.backward(build(leaves))

        for name, block in params.items():
            fd = central_diff(lambda: float(build(
                {k: ad.Tensor(v) for k, v in params.items()}).value), block)
            assert_allclose(ad.grad_of(leaves[name]), fd, rtol=1e-4, atol=1e-8)

    def test_gradients_accumulate_over_paths(self):
        x = ad.Tensor(2.0)
        # f = x*x + 3x: two paths into x, df/dx = 2x + 3 = 7
        ad.backward(ad.add(ad.mul(x, x), ad.mul(x, ad.Tensor(3.0))))
        assert_allclose(ad.grad_of(x), 7.0)

    def test_unreached_leaf_gets_zero_gradient(self):
        x = ad.Tensor(np.ones(3))
        unused = ad.Tensor(np.ones((2, 2)))
        ad.backward(total(x))
        assert_allclose(ad.grad_of(unused), np.zeros((2, 2)))

    def test_constant_operands_get_no_gradient(self):
        x = ad.Tensor(np.arange(3.0))
        scale = ad.Tensor(np.full(3, 2.0), op="const")
        shift = ad.Tensor(np.ones(3), op="const")
        ad.backward(total(ad.add(ad.mul(x, scale), shift)))
        assert scale.grad is None and shift.grad is None
        assert_allclose(ad.grad_of(x), np.full(3, 2.0))

    def test_parent_given_none_keeps_no_gradient(self):
        # an op whose backward reaches only its first parent
        a, b = ad.Tensor(np.arange(3.0)), ad.Tensor(np.ones(3))
        first = ad.Tensor(a.value.copy(), "first", (a, b), lambda g: (g, None))
        ad.backward(total(first))
        assert b.grad is None
        assert_allclose(a.grad, np.ones(3))

    def test_constant_parent_gets_no_gradient_its_op_returns(self):
        x, scale = ad.Tensor(np.arange(3.0)), ad.Tensor(2.0, op="const")
        scaled = ad.Tensor(x.value * 2.0, "scaled", (x, scale),
                           lambda g: (2.0 * g, (g * x.value).sum()))
        ad.backward(total(scaled))
        assert scale.grad is None
        assert_allclose(x.grad, np.full(3, 2.0))

    def test_double_backward_raises(self):
        x = ad.Tensor(2.0)
        y = ad.mul(x, x)
        ad.backward(y)
        with pytest.raises(ad.BackwardError):
            ad.backward(y)

    def test_non_scalar_root_raises(self):
        with pytest.raises(ad.BackwardError):
            ad.backward(ad.Tensor(np.ones(3)))

    def test_linearity_of_gradients(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(4, 3))

        def grad_of_loss(scale_f, scale_g):
            x = ad.Tensor(x0)
            f = total(ad.mul(x, x))
            tenth = ad.Tensor(np.full(x0.shape, 0.1))
            g = total(ad.mul(ad.mul(x, x), ad.mul(x, tenth)))
            ad.backward(ad.add(ad.mul(ad.Tensor(scale_f), f),
                               ad.mul(ad.Tensor(scale_g), g)))
            return ad.grad_of(x)

        combined = grad_of_loss(2.0, 3.0)
        expected = 2.0 * grad_of_loss(1.0, 0.0) + 3.0 * grad_of_loss(0.0, 1.0)
        assert_allclose(combined, expected, rtol=1e-12)

    def test_repeated_builds_are_bit_identical(self):
        rng = np.random.default_rng(5)
        x0, w0 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))

        def run():
            x, w = ad.Tensor(x0), ad.Tensor(w0)
            xw = ad.mul(x, w)
            # xw reaches the root by three paths, and w once more directly
            rows = ad.add(xw, ad.mul(xw, w))
            loss = total(ad.mul(xw, rows))
            ad.backward(loss)
            return float(loss.value), ad.grad_of(w).copy()

        (l1, g1), (l2, g2) = run(), run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestSumOfSquares:
    def tensors(self):
        rng = np.random.default_rng(8)
        return [ad.Tensor(rng.normal(size=shape)) for shape in ((3, 2), (4,), ())]

    def test_is_one_node_over_its_tensors(self):
        tensors = self.tensors()
        node = ad.sum_of_squares(tensors)
        assert node.op == "sum_of_squares"
        assert ad.topo_order(node) == [*tensors, node]

    def test_equals_the_composite_of_mul_total_and_add_bit_for_bit(self):
        # each tensor's squares summed, then the sums added in order; the
        # gradient 2 g t equals g t + g t from mul's two parents
        def composite(tensors):
            sums = [total(ad.mul(t, t)) for t in tensors]
            out = sums[0]
            for term in sums[1:]:
                out = ad.add(out, term)
            return out

        fused, reference = self.tensors(), self.tensors()
        ours, theirs = ad.sum_of_squares(fused), composite(reference)
        assert ours.value == theirs.value
        ad.backward(ad.mul(ours, ad.Tensor(0.3)))
        ad.backward(ad.mul(theirs, ad.Tensor(0.3)))
        for a, b in zip(fused, reference):
            assert np.array_equal(a.grad, b.grad)
            assert_allclose(a.grad, 0.6 * a.value, rtol=1e-15)

    def test_passes_gradient_check(self):
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}
        report = ad.finite_diff_check(
            lambda t: ad.sum_of_squares(t.values()), params, tolerance=1e-6)
        assert report.passed, f"worst relative error {report.worst}"

    def test_no_tensors_raises(self):
        with pytest.raises(ValueError, match="no tensors"):
            ad.sum_of_squares([])


class TestFiniteDiffCheck:
    def test_quadratic_loss_passes_tightly(self):
        rng = np.random.default_rng(42)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}

        def quad(t):
            return ad.sum_of_squares([t["w"], t["b"]])

        report = ad.finite_diff_check(quad, params, tolerance=1e-6)
        assert report.passed
        assert {b.name for b in report.blocks} == {"w", "b"}

    def test_corrupted_gradient_fails_naming_the_block(self):
        def wrong_double(a):
            # claims d(2x)/dx = 5: the check must flag it
            def back(g):
                return (5.0 * g,)
            return ad.Tensor(2.0 * a.value, "wrong_double", (a,), back)

        params = {"ok": np.array([1.0, 2.0]), "bad": np.array([0.5, 1.5])}

        def loss(t):
            return ad.add(total(ad.mul(t["ok"], t["ok"])),
                          total(wrong_double(t["bad"])))

        report = ad.finite_diff_check(loss, params)
        assert not report.passed
        assert report.failing() == ["bad"]

