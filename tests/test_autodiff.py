"""Gradient engine tests: analytic derivatives against central differences."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgraph import autodiff as ad


def picker(groups, num_columns) -> sp.csr_matrix:
    """0/1 CSR operator whose row r picks the entries groups[r], in order;
    an entry picked twice is summed twice."""
    groups = np.asarray(groups)
    rows, count = groups.shape
    return sp.csr_matrix((np.ones(groups.size), groups.reshape(-1),
                          np.arange(0, groups.size + 1, count)),
                         shape=(rows, num_columns))


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
        with pytest.raises(ad.ShapeError, match="concat"):
            ad.concat([a, b], axis=0)


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
        # column means of two groups of rows, row 3 in the second one twice
        groups = np.array([[0, 2, 4], [1, 3, 3]])
        means = picker((groups[:, None, :] * 4 + np.arange(4)[:, None])
                       .reshape(8, 3), 20)

        def build(t):
            h1 = ad.mul(t["x"], t["w1"])
            sq = ad.mul(h1, ad.tsum(ad.mul(h1, h1), axis=1, keepdims=True))
            h2 = ad.sparse_mean(sq, means, 3, (2, 4))
            p = ad.tsum(ad.mul(ad.concat([h2, ad.mul(h2, h2)], axis=0), t["w2"]),
                        axis=1)
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

    def test_sparse_mean_accumulates_repeated_entries(self):
        x = ad.Tensor(np.arange(6.0).reshape(3, 2))
        mean = ad.sparse_mean(x, picker([[0, 0, 4], [1, 5, 5]], 6), 3, (2,))
        assert_allclose(mean.value, [4.0 / 3.0, 11.0 / 3.0])
        ad.backward(ad.tsum(mean))
        assert_allclose(ad.grad_of(x), np.array([[2, 1], [0, 0], [1, 2]]) / 3.0)

    def test_sparse_mean_sums_then_scales_like_tsum(self):
        # (sum of the picked entries) * (1/count), in the order tsum adds them
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 7, 5))
        columns = np.arange(3 * 7 * 5).reshape(3, 7, 5).transpose(0, 2, 1)
        mean = ad.sparse_mean(ad.Tensor(x), picker(columns.reshape(15, 7), 105),
                              7, (3, 5))
        assert np.array_equal(mean.value, x.sum(axis=1) * (1.0 / 7))

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
        # entry e paired with a random one; some entries are drawn repeatedly
        pairs = picker(np.column_stack([np.arange(24), rng.integers(0, 24, 24)]), 24)

        def run():
            x, w = ad.Tensor(x0), ad.Tensor(w0)
            xw = ad.mul(x, w)
            loss = ad.tsum(ad.mul(xw, ad.sparse_mean(xw, pairs, 2, (6, 4))))
            ad.backward(loss)
            return float(loss.value), ad.grad_of(w).copy()

        (l1, g1), (l2, g2) = run(), run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestGradientsAgainstFiniteDifferences:
    """Each nontrivial primitive gets its own oracle comparison."""

    def check(self, build, params, rtol=1e-4):
        leaves = {k: ad.Tensor(v) for k, v in params.items()}
        ad.backward(build(leaves))
        for name, block in params.items():
            fd = central_diff(lambda: float(build(
                {k: ad.Tensor(v) for k, v in params.items()}).value), block)
            assert_allclose(ad.grad_of(leaves[name]), fd, rtol=rtol, atol=1e-8)

    def test_concat_and_sparse_mean(self):
        rng = np.random.default_rng(6)
        params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}
        # row r averages entries r and (3r + 1) mod 10 of the joined (2, 5)
        pairs = picker([[r, (3 * r + 1) % 10] for r in range(10)], 10)

        def build(t):
            joined = ad.concat([t["a"], t["b"]], axis=1)
            mean = ad.sparse_mean(joined, pairs, 2, (10,))
            return ad.tsum(ad.mul(ad.mul(mean, mean), ad.Tensor(np.arange(10.0))))
        self.check(build, params)


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


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_sparse_mean_gradient_counts_entry_uses(indices):
    x = ad.Tensor(np.zeros((5,)))
    ad.backward(ad.tsum(ad.sparse_mean(x, picker([indices], 5), len(indices), (1,))))
    counts = np.bincount(indices, minlength=5) / len(indices)
    assert_allclose(ad.grad_of(x), counts)
