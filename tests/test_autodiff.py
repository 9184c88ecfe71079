"""Gradient engine tests: analytic derivatives against central differences."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcgraph import autodiff as ad


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
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((4, 5)))
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(a, b)
        with pytest.raises(ad.ShapeError, match="mul"):
            ad.mul(a, b)


class TestScatterAdd:
    """`_scatter_add` against `np.add.at` into zeros: equal bit for bit."""

    def add_at(self, index, values, num_rows):
        out = np.zeros((num_rows,) + values.shape[np.ndim(index):])
        np.add.at(out, index, values)
        return out

    def check(self, index, values, num_rows):
        ours = ad._scatter_add(index, values, num_rows)
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
            out = ad._scatter_add(empty, values, 4)
            assert out.shape == (4,) + values.shape[1:]
            assert np.array_equal(out, np.zeros(out.shape))
        assert ad._scatter_add(empty, np.zeros((0, 3)), 0).shape == (0, 3)

    def test_empty_segments_stay_zero(self):
        rng = np.random.default_rng(5)
        index = np.array([0, 3, 3, 0, 5])
        values = rng.normal(size=(5, 2))
        self.check(index, values, 7)
        out = ad._scatter_add(index, values, 7)
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
        params = {
            "x": rng.normal(size=(5, 4)),
            "w1": rng.normal(size=(1, 4)),
            "w2": rng.normal(size=(4,)),
        }

        def build(t):
            h1 = ad.mul(t["x"], t["w1"])
            sq = ad.mul(h1, ad.tsum(ad.mul(h1, h1), axis=1, keepdims=True))
            # the (1, 4) column means, broadcast back over the rows
            h2 = ad.mul(ad.tsum(sq, axis=0, keepdims=True), ad.Tensor(0.2))
            p = ad.tsum(ad.mul(ad.add(sq, ad.mul(h2, h2)), t["w2"]), axis=1)
            return ad.add(ad.tsum(ad.mul(p, p)),
                          ad.mul(ad.tsum(ad.mul(h2, h2)), ad.Tensor(0.125)))

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
        ad.backward(ad.tsum(x))
        assert_allclose(ad.grad_of(unused), np.zeros((2, 2)))

    def test_constant_operands_get_no_gradient(self):
        x = ad.Tensor(np.arange(3.0))
        scale, shift = ad.Tensor(2.0, op="const"), ad.Tensor(np.ones(3), op="const")
        ad.backward(ad.tsum(ad.add(ad.mul(x, scale), shift)))
        assert scale.grad is None and shift.grad is None
        assert_allclose(ad.grad_of(x), np.full(3, 2.0))

    def test_parent_given_none_keeps_no_gradient(self):
        # an op whose backward reaches only its first parent
        a, b = ad.Tensor(np.arange(3.0)), ad.Tensor(np.ones(3))
        first = ad.Tensor(a.value.copy(), "first", (a, b), lambda g: (g, None))
        ad.backward(ad.tsum(first))
        assert b.grad is None
        assert_allclose(a.grad, np.ones(3))

    def test_constant_parent_gets_no_gradient_its_op_returns(self):
        x, scale = ad.Tensor(np.arange(3.0)), ad.Tensor(2.0, op="const")
        scaled = ad.Tensor(x.value * 2.0, "scaled", (x, scale),
                           lambda g: (2.0 * g, (g * x.value).sum()))
        ad.backward(ad.tsum(scaled))
        assert scale.grad is None
        assert_allclose(x.grad, np.full(3, 2.0))

    def test_broadcast_add_sums_gradient(self):
        a = ad.Tensor(np.zeros((3, 4)))
        b = ad.Tensor(np.zeros(4))
        ad.backward(ad.tsum(ad.add(a, b)))
        assert_allclose(ad.grad_of(b), np.full(4, 3.0))

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
            f = ad.tsum(ad.mul(x, x))
            g = ad.tsum(ad.mul(ad.mul(x, x), ad.mul(x, ad.Tensor(0.1))))
            ad.backward(ad.add(ad.mul(ad.Tensor(scale_f), f),
                               ad.mul(ad.Tensor(scale_g), g)))
            return ad.grad_of(x)

        combined = grad_of_loss(2.0, 3.0)
        expected = 2.0 * grad_of_loss(1.0, 0.0) + 3.0 * grad_of_loss(0.0, 1.0)
        assert_allclose(combined, expected, rtol=1e-12)

    def test_repeated_builds_are_bit_identical(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(6, 4))
        w0 = rng.normal(size=(4,))

        def run():
            x, w = ad.Tensor(x0), ad.Tensor(w0)
            xw = ad.mul(x, w)
            # xw reaches the root by three paths, and w once more directly
            rows = ad.add(xw, ad.tsum(ad.mul(xw, w), axis=0, keepdims=True))
            loss = ad.tsum(ad.mul(xw, rows))
            ad.backward(loss)
            return float(loss.value), ad.grad_of(w).copy()

        (l1, g1), (l2, g2) = run(), run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestFiniteDiffCheck:
    def test_quadratic_loss_passes_tightly(self):
        rng = np.random.default_rng(42)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}

        def quad(t):
            return ad.add(ad.tsum(ad.mul(t["w"], t["w"])),
                          ad.tsum(ad.mul(t["b"], t["b"])))

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
            return ad.add(ad.tsum(ad.mul(t["ok"], t["ok"])),
                          ad.tsum(wrong_double(t["bad"])))

        report = ad.finite_diff_check(loss, params)
        assert not report.passed
        assert report.failing() == ["bad"]

