"""Dual-attention encoder against brute-force oracles and gradient checks."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgraph import attention as att
from mcgraph import autodiff as ad
from mcgraph import evaluate as ev
from mcgraph import graph
from mcgraph.graph import build_views


def view_from_incidence(b, criterion_index=1):
    b = sp.csr_matrix(np.asarray(b, dtype=np.float64))
    ext = graph.extend_adjacency(b)
    return graph.CriterionView(criterion_index, b.shape[0], b.shape[1], b, ext,
                               graph.degree_vector(ext),
                               graph.normalize_adjacency(ext))


def local_oracle(pattern, h_in, heads, last):
    """Loop-based multi-head attention: scores, row softmax, weighted sum."""
    n = pattern.shape[0]
    outs = []
    for w, a in heads:
        fp = w.shape[0]
        proj = h_in @ w.T
        out = np.zeros((n, fp))
        for i in range(n):
            nbrs = np.nonzero(pattern[i])[0]
            if len(nbrs) == 0:
                continue
            raw = np.array([a[:fp] @ proj[i] + a[fp:] @ proj[j] for j in nbrs])
            scored = np.where(raw > 0, raw, 0.2 * raw)
            e = np.exp(scored - scored.max())
            alpha = e / e.sum()
            out[i] = sum(alpha[k] * proj[j] for k, j in enumerate(nbrs))
        outs.append(out)
    full = np.concatenate(outs, axis=1)
    return full if last else np.where(full > 0, full, np.expm1(full))


def tiny_config():
    return att.EncoderConfig(num_heads=2, feature_dim=4, head_dim=2)


class TestLocalCoefficients:
    def test_single_neighbor_gets_coefficient_one(self):
        view = view_from_incidence([[3.0]])
        layer = att.LayerParams(weight=np.ones((1, 1, 1)), attn=np.array([[0.3, 0.7]]),
                                global_weight=np.ones(1))
        coeffs = att.local_attention_coeffs(view, np.array([[1.0], [2.0]]), layer)
        assert_allclose(coeffs[0][0, 1], 1.0)
        assert_allclose(coeffs[0][1, 0], 1.0)

    def test_identical_neighbors_share_weight_equally(self):
        view = view_from_incidence([[1.0, 1.0]])
        h_in = np.array([[0.5], [2.0], [2.0]])
        layer = att.LayerParams(weight=np.ones((1, 1, 1)), attn=np.array([[0.4, 0.9]]),
                                global_weight=np.ones(1))
        coeffs = att.local_attention_coeffs(view, h_in, layer)[0]
        assert_allclose(coeffs[0, 1:], [0.5, 0.5])

    def test_scores_one_and_two_give_softmax_split(self):
        # a = [0, 1], projections (1, 2) for the two items: scores 1 and 2
        view = view_from_incidence([[1.0, 1.0]])
        h_in = np.array([[5.0], [1.0], [2.0]])
        layer = att.LayerParams(weight=np.ones((1, 1, 1)), attn=np.array([[0.0, 1.0]]),
                                global_weight=np.ones(1))
        coeffs = att.local_attention_coeffs(view, h_in, layer)[0]
        assert_allclose(coeffs[0, 1:], [0.26894142, 0.73105858], atol=1e-8)

    def test_rows_sum_to_one_over_neighbor_sets(self):
        rng = np.random.default_rng(42)
        b = rng.uniform(1, 5, size=(5, 6)) * (rng.uniform(size=(5, 6)) < 0.5)
        view = view_from_incidence(b)
        cfg = tiny_config()
        params = att.init_params(view.num_nodes, 1, cfg, seed=0)
        h_in = params["x"]
        for coeffs in att.local_attention_coeffs(
                view, h_in, att.layer_params(params, 1, 1, cfg)):
            sums = coeffs.sum(axis=1)
            for i in range(view.num_nodes):
                has_nbrs = view.adjacency[i].nnz > 0
                assert_allclose(sums[i], 1.0 if has_nbrs else 0.0, atol=1e-12)


class TestLocalForward:
    def test_single_neighbor_identity_activation_copies_projection(self):
        view = view_from_incidence([[2.0]])
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 2))
        h_in = rng.normal(size=(2, 2))
        layer = att.LayerParams(weight=w[None], attn=rng.normal(size=(1, 6)),
                                global_weight=np.ones(3))
        out = att.local_attention_forward(view, h_in, layer, last=True)
        assert_allclose(out[0], w @ h_in[1], atol=1e-12)
        assert_allclose(out[1], w @ h_in[0], atol=1e-12)

    def test_output_width_is_heads_times_head_dim(self):
        view = view_from_incidence([[1.0, 2.0], [0.0, 3.0]])
        rng = np.random.default_rng(2)
        heads = [(rng.normal(size=(3, 2)), rng.normal(size=6)) for _ in range(2)]
        layer = att.LayerParams(weight=np.stack([w for w, _ in heads]),
                                attn=np.stack([a for _, a in heads]),
                                global_weight=np.ones(6))
        out = att.local_attention_forward(view, rng.normal(size=(4, 2)), layer)
        assert out.shape == (4, 6)

    def test_matches_loop_oracle_on_random_view(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(1, 5, size=(3, 3)) * (rng.uniform(size=(3, 3)) < 0.7)
        view = view_from_incidence(b)
        h_in = rng.normal(size=(6, 4))
        heads = [(rng.normal(size=(2, 4)), rng.normal(size=4)) for _ in range(2)]
        layer = att.LayerParams(weight=np.stack([w for w, _ in heads]),
                                attn=np.stack([a for _, a in heads]),
                                global_weight=np.ones(4))
        pattern = (view.adjacency.toarray() > 0)
        for last in (True, False):
            ours = att.local_attention_forward(view, h_in, layer, last=last)
            assert_allclose(ours, local_oracle(pattern, h_in, heads, last),
                            atol=1e-10)

    def test_isolated_nodes_output_zero_rows(self):
        view = view_from_incidence([[1.0, 0.0], [0.0, 0.0]])  # u2 and i2 isolated
        rng = np.random.default_rng(4)
        layer = att.LayerParams(weight=rng.normal(size=(1, 2, 3)),
                                attn=rng.normal(size=(1, 4)), global_weight=np.ones(2))
        out = att.local_attention_forward(view, rng.normal(size=(4, 3)), layer)
        assert_allclose(out[1], np.zeros(2))
        assert_allclose(out[3], np.zeros(2))


def gat_oracle(centers, neighbors, n, h_in, heads):
    """Plain per-head GAT over an edge list: (E, H) coefficients and outputs."""
    coeffs = np.zeros((len(centers), len(heads)))
    outs = []
    for k, (w, a) in enumerate(heads):
        fp = w.shape[0]
        proj = h_in @ w.T
        out = np.zeros((n, fp))
        for i in range(n):
            edges = np.flatnonzero(centers == i)
            if edges.size == 0:
                continue
            raw = np.array([a[:fp] @ proj[i] + a[fp:] @ proj[neighbors[e]]
                            for e in edges])
            scored = np.where(raw > 0, raw, 0.2 * raw)
            e = np.exp(scored - scored.max())
            coeffs[edges, k] = e / e.sum()
            out[i] = sum(coeffs[edge, k] * proj[neighbors[edge]] for edge in edges)
        outs.append(out)
    return coeffs, np.concatenate(outs, axis=1)


class TestFusedAttentionLayer:
    """The one-node multi-head layer of one view against per-head oracles."""

    def graph(self):
        # user 3 and item 3 rate nothing: two isolated nodes
        b = np.array([[2.0, 1.0, 0.0, 0.0],
                      [0.0, 4.0, 3.0, 0.0],
                      [5.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0]])
        return view_from_incidence(b)

    def draw(self, num_heads, fan_in=3, head_dim=2, num_nodes=8, seed=0):
        rng = np.random.default_rng(seed)
        heads = [(rng.normal(size=(head_dim, fan_in)), rng.normal(size=2 * head_dim))
                 for _ in range(num_heads)]
        return rng.normal(size=(num_nodes, fan_in)), heads

    def layer(self, view, h_in, heads):
        return att._dual_attention(
            h_in, np.stack([w for w, _ in heads]), np.stack([a for _, a in heads]),
            None, graph.block_graph([view]), first=False)

    @pytest.mark.parametrize("num_heads", [1, 2, 3])
    def test_matches_per_head_oracle(self, num_heads):
        view = self.graph()
        h_in, heads = self.draw(num_heads, seed=num_heads)
        out, coeffs, _, _ = self.layer(view, h_in, heads)
        centers, neighbors = view.neighbor_arrays()
        want_coeffs, want_out = gat_oracle(centers, neighbors, view.num_nodes,
                                           h_in, heads)
        assert_allclose(coeffs, want_coeffs, rtol=1e-12, atol=1e-12)
        assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
        assert np.array_equal(out[[3, 7]], np.zeros((2, num_heads * 2)))

    def test_singleton_neighbourhood_coefficient_is_one(self):
        view = view_from_incidence([[3.0, 0.0], [0.0, 1.0]])
        h_in, heads = self.draw(3, num_nodes=4, seed=4)
        coeffs = self.layer(view, h_in, heads)[1]
        assert np.array_equal(coeffs, np.ones((4, 3)))

    def test_zero_edge_view_gives_zero_rows_and_gradients(self):
        view = view_from_incidence(np.zeros((3, 2)))
        centers, _ = view.neighbor_arrays()
        assert centers.size == 0
        h_in, heads = self.draw(2, num_nodes=5, seed=5)
        out, coeffs, factor, back = self.layer(view, h_in, heads)
        assert coeffs.shape == (0, 2) and factor is None
        assert np.array_equal(out, np.zeros((5, 4)))
        # the gradient of sum(out * out)
        d_h, d_w, d_a, d_wg = back(2.0 * out)
        assert d_wg is None
        inputs = (h_in, np.stack([w for w, _ in heads]), np.stack([a for _, a in heads]))
        for grad, value in zip((d_h, d_w, d_a), inputs):
            assert np.array_equal(grad, np.zeros(value.shape))

    @pytest.mark.parametrize("num_heads", [1, 2, 3])
    def test_passes_gradient_check(self, num_heads):
        view = self.graph()
        h_in, heads = self.draw(num_heads, seed=10 + num_heads)
        params = {"h": h_in}
        for k, (w, a) in enumerate(heads, start=1):
            params[f"w{k}"], params[f"a{k}"] = w, a
        weight = ad.Tensor(np.random.default_rng(20).normal(
            size=(view.num_nodes, num_heads * 2)))

        def loss_fn(t):
            # the kernel as one tape node over per-head leaves
            weights = [t[f"w{k}"] for k in range(1, num_heads + 1)]
            attns = [t[f"a{k}"] for k in range(1, num_heads + 1)]
            out, _, _, back = att._dual_attention(
                t["h"].value, np.stack([w.value for w in weights]),
                np.stack([a.value for a in attns]), None,
                graph.block_graph([view]), first=True)

            def tape_back(g):
                d_h, d_w, d_a, _ = back(g)
                return (d_h, *d_w, *d_a)
            node = ad.Tensor(out, "dual_attention", (t["h"], *weights, *attns),
                             tape_back)
            return ad.tsum(ad.mul(node, weight))

        report = ad.finite_diff_check(loss_fn, params, step=1e-6, tolerance=1e-6)
        assert report.passed, f"failing blocks: {report.failing()}"
        assert len(report.blocks) == 1 + 2 * num_heads

    def test_encoder_tape_size_independent_of_head_count(self):
        view = self.graph()

        def tape_size(num_heads, use_global):
            cfg = att.EncoderConfig(num_heads=num_heads, feature_dim=3, head_dim=2)
            params = att.init_params(view.num_nodes, 1, cfg, seed=0)
            tensors = {key: ad.Tensor(value) for key, value in params.items()}
            emb = att.encode_view_tensors(view, tensors, cfg, use_global)
            return sum(node.op != "leaf" for node in ad.topo_order(emb))

        for use_global in (True, False):
            assert [tape_size(h, use_global) for h in (1, 2, 4)] == [1, 1, 1]


def view_oracle(view, h_in, heads, gate_weight, activate):
    """One view's dual-attention layer in plain numpy: per-head GAT, then ELU
    if `activate`, then the global gate n * softmax(ReLU(h wg)) if given."""
    centers, neighbors = view.neighbor_arrays()
    n = view.num_nodes
    coeffs, out = gat_oracle(centers, neighbors, n, h_in, heads)
    if activate:
        out = np.where(out > 0, out, np.expm1(out))
    if gate_weight is None:
        return out, coeffs, None
    z = np.maximum(out @ gate_weight, 0.0)
    p = np.exp(z - z.max())
    factor = n * p / p.sum()
    return out * factor[:, None], coeffs, factor


class TestBlockDiagonalEncoder:
    """All views' layer as one op on the stacked graph, against per-view oracles."""

    num_heads, head_dim, fan_in = 2, 2, 3

    def views(self, count):
        # 4 users x 4 items; the second view has isolated nodes, the third no edge
        rng = np.random.default_rng(count)
        b = rng.uniform(1, 5, size=(4, 4)) * (rng.uniform(size=(4, 4)) < 0.6)
        b[0, 0] = 2.0
        isolated = b.copy()
        isolated[3, :] = isolated[:, 3] = 0.0
        incidences = [b, isolated, np.zeros((4, 4))][:count]
        return [view_from_incidence(inc, criterion_index=c + 1)
                for c, inc in enumerate(incidences)]

    def leaves(self, count, fan_in, seed):
        rng = np.random.default_rng(seed)
        heads = [[(rng.normal(size=(self.head_dim, fan_in)),
                   rng.normal(size=2 * self.head_dim))
                  for _ in range(self.num_heads)] for _ in range(count)]
        gates = [rng.normal(size=self.num_heads * self.head_dim) for _ in range(count)]
        return heads, gates

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("use_global", [True, False])
    @pytest.mark.parametrize("first", [True, False])
    def test_matches_per_view_oracle(self, count, use_global, first):
        views = self.views(count)
        n, width = views[0].num_nodes, self.num_heads * self.head_dim
        fan_in = self.fan_in if first else width
        heads, gates = self.leaves(count, fan_in, seed=10 * count + first)
        rng = np.random.default_rng(3)
        h_in = rng.normal(size=(n if first else count * n, fan_in))
        out, coeffs, factor, _ = att._dual_attention(
            h_in, np.stack([w for view in heads for w, _ in view]),
            np.stack([a for view in heads for _, a in view]),
            np.stack(gates) if use_global else None,
            graph.block_graph(views), first=first)
        assert out.shape == (count * n, width)
        want = [view_oracle(view, h_in if first else h_in[v * n:(v + 1) * n],
                            heads[v], gates[v] if use_global else None, first)
                for v, view in enumerate(views)]
        assert_allclose(out, np.concatenate([w[0] for w in want]),
                        rtol=1e-12, atol=1e-12)
        assert_allclose(coeffs, np.concatenate([w[1] for w in want]),
                        rtol=1e-12, atol=1e-12)
        if use_global:
            assert_allclose(factor, np.stack([w[2] for w in want]),
                            rtol=1e-12, atol=1e-12)
        else:
            assert factor is None
        if count == 3:  # the edgeless view's rows stay zero
            assert np.array_equal(out[2 * n:], np.zeros((n, width)))

    def test_stacked_encoding_matches_one_view_at_a_time(self):
        views = self.views(3)
        cfg = att.EncoderConfig(num_heads=2, feature_dim=3, head_dim=2)
        params = att.init_params(views[0].num_nodes, 3, cfg, seed=4)
        for use_global in (True, False):
            stacked = att.encode_views(views, params, cfg, use_global)
            for view, emb in zip(views, stacked):
                alone = att.encode_view(view, params, cfg, use_global)
                assert emb.criterion_index == alone.criterion_index
                assert_allclose(emb.matrix, alone.matrix, rtol=1e-12, atol=1e-12)

    def check_stack_gradients(self, count, seed):
        """Two-layer, two-head `encode_stack` of `count` views against
        finite differences on every leaf."""
        views = self.views(count)
        cfg = att.EncoderConfig(num_heads=2, feature_dim=3, head_dim=2)
        params = att.init_params(views[0].num_nodes, count, cfg, seed=seed)
        blocks = graph.block_graph(views)
        weight = ad.Tensor(np.random.default_rng(seed + 1).normal(
            size=(count * views[0].num_nodes, cfg.embed_dim)))

        def loss_fn(t):
            # the encoder as one tape node over the leaves it reads
            stack, keys, back = att.encode_stack(
                blocks, {k: leaf.value for k, leaf in t.items()}, cfg)
            assert sorted(keys) == sorted(params)
            node = ad.Tensor(stack, "encoder", tuple(t[k] for k in keys), back)
            return ad.tsum(ad.mul(node, weight))

        report = ad.finite_diff_check(loss_fn, params, step=1e-6, tolerance=1e-6)
        assert report.passed, f"failing blocks: {report.failing()}"
        assert len(report.blocks) == len(params) == 1 + count * 2 * (2 * 2 + 1)

    def test_passes_gradient_check_on_every_leaf(self):
        self.check_stack_gradients(3, seed=5)

    def test_tape_size_independent_of_view_count(self, monkeypatch):
        # the encoder is two kernel calls, one per layer, for any view count
        cfg = att.EncoderConfig(num_heads=2, feature_dim=3, head_dim=2)
        calls = []
        kernel = att._dual_attention

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(att, "_dual_attention", counting)

        def kernel_calls(count, use_global):
            b = self.views(1)[0].incidence.toarray()
            views = [view_from_incidence(b, criterion_index=c + 1)
                     for c in range(count)]
            params = att.init_params(views[0].num_nodes, count, cfg, seed=0)
            calls.clear()
            att.encode_stack(graph.block_graph(views), params, cfg, use_global)
            return len(calls)

        for use_global in (True, False):
            assert [kernel_calls(v, use_global) for v in (1, 2, 4)] == [2, 2, 2]

    def test_csr_segment_sums_equal_scatter_add(self):
        blocks = graph.block_graph(self.views(3))
        rng = np.random.default_rng(7)
        rows = 3 * blocks.num_nodes
        for shape in [(blocks.centers.size,), (blocks.centers.size, 5)]:
            values = rng.normal(size=shape)
            for operator, index in ((blocks.center_sum, blocks.centers),
                                    (blocks.neighbor_sum, blocks.neighbors)):
                want = np.zeros((rows,) + shape[1:])
                np.add.at(want, index, values)
                assert np.array_equal(operator @ values, want)


    @staticmethod
    def planted_blocks():
        return graph.block_graph(build_views(ev.prepared_data(ev.ExperimentConfig())[0]))

    @pytest.mark.parametrize("source", ["planted", "fixture"])
    def test_edge_product_equals_the_composite_it_replaced(self, source):
        blocks = self.planted_blocks() if source == "planted" else \
            graph.block_graph(self.views(3))
        assert blocks.num_views == 3
        rng = np.random.default_rng(8)
        rows, edges, head_dim = 3 * blocks.num_nodes, blocks.centers.size, 3
        for num_heads in (2, 1, 3, 2):  # one cached operator per head count
            coeffs = rng.random((edges, num_heads))
            x = rng.normal(size=(rows, num_heads, head_dim))
            forward = blocks.center_sum @ (
                coeffs[:, :, None] * x[blocks.neighbors]).reshape(edges, -1)
            backward = blocks.neighbor_sum @ (
                coeffs[:, :, None] * x[blocks.centers]).reshape(edges, -1)
            assert np.array_equal(blocks.edge_product(coeffs, x), forward)
            assert np.array_equal(blocks.edge_product(coeffs, x, transpose=True),
                                  backward)

    def test_layer_backward_ignores_weights_left_by_the_other_layer(self):
        # both layers write their coefficients into the graph's one buffer
        views = self.views(3)
        blocks = graph.block_graph(views)
        width = self.num_heads * self.head_dim
        first, gates1 = self.leaves(3, self.fan_in, seed=30)
        second, gates2 = self.leaves(3, width, seed=31)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(views[0].num_nodes, self.fan_in))

        def layer(h_in, heads, gates, is_first):
            out, _, _, back = att._dual_attention(
                h_in, np.stack([w for view in heads for w, _ in view]),
                np.stack([a for view in heads for _, a in view]),
                np.stack(gates), blocks, first=is_first)
            return out, back

        out, back = layer(x, first, gates1, True)
        g = rng.normal(size=out.shape)
        alone = back(g)
        out, back = layer(x, first, gates1, True)
        layer(out, second, gates2, False)
        after_second = back(g)
        assert len(after_second) == len(alone)
        for got, want in zip(after_second, alone):
            assert np.array_equal(got, want)

    def test_two_heads_two_views_stack_passes_gradient_check(self):
        self.check_stack_gradients(2, seed=9)


class TestEncoderConfigValidation:
    @pytest.mark.parametrize("name", ["num_heads", "feature_dim", "head_dim"])
    def test_width_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            att.EncoderConfig(**{name: 0})


class TestGlobalScores:
    def test_identical_rows_score_uniformly(self):
        h = np.tile([[1.0, -2.0]], (3, 1))
        scores = att.global_attention_scores(h, np.array([0.5, 0.25]))
        assert_allclose(scores, np.full(3, 1.0 / 3.0))

    def test_log_two_gap_gives_one_third_two_thirds(self):
        h = np.array([[0.0], [np.log(2.0)]])
        scores = att.global_attention_scores(h, np.array([1.0]))
        assert_allclose(scores, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_negative_preactivations_clamp_to_uniform(self):
        h = np.array([[-5.0], [0.0]])
        scores = att.global_attention_scores(h, np.array([1.0]))
        assert_allclose(scores, [0.5, 0.5])

    def test_single_node_scores_one(self):
        scores = att.global_attention_scores(np.array([[4.2, -1.0]]),
                                             np.array([1.0, 0.5]))
        assert_allclose(scores, [1.0])

    def test_scores_form_probability_vector(self):
        rng = np.random.default_rng(5)
        scores = att.global_attention_scores(rng.normal(size=(7, 4)),
                                             rng.normal(size=4))
        assert np.all(scores >= 0)
        assert_allclose(scores.sum(), 1.0, atol=1e-12)


@given(st.lists(st.floats(min_value=-3, max_value=3,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_global_scores_sum_to_one(scores):
    p = att.global_attention_scores(np.array(scores)[:, None], np.ones(1))
    assert_allclose(p.sum(), 1.0, rtol=1e-12)
    assert np.all(p >= 0)


class TestEncodeView:
    def setup_method(self):
        rng = np.random.default_rng(6)
        b = rng.uniform(1, 5, size=(4, 4)) * (rng.uniform(size=(4, 4)) < 0.6)
        b[2, :] = 0.0  # keep one user isolated
        self.view = view_from_incidence(b)
        self.cfg = tiny_config()
        self.params = att.init_params(self.view.num_nodes, 1, self.cfg, seed=7)

    def two_layer_local(self, params):
        h = att.local_attention_forward(
            self.view, params["x"], att.layer_params(params, 1, 1, self.cfg))
        return att.local_attention_forward(
            self.view, h, att.layer_params(params, 1, 2, self.cfg), last=True)

    def test_shape_and_finiteness(self):
        emb = att.encode_view(self.view, self.params, self.cfg)
        assert emb.matrix.shape == (8, self.cfg.embed_dim)
        assert np.all(np.isfinite(emb.matrix))

    def test_zero_gate_weights_reduce_to_local_output(self):
        # zero global weights give uniform scores, so the gate factor is 1
        params = dict(self.params)
        params[att.gate_key(1, 1)] = np.zeros(self.cfg.embed_dim)
        params[att.gate_key(1, 2)] = np.zeros(self.cfg.embed_dim)
        gated = att.encode_view(self.view, params, self.cfg).matrix
        assert_allclose(gated, self.two_layer_local(params), atol=1e-12)

    def test_ablation_flag_disables_gate_exactly(self):
        off = att.encode_view(self.view, self.params, self.cfg,
                              use_global=False).matrix
        assert np.array_equal(off, self.two_layer_local(self.params))

    def test_gate_changes_output_when_scores_nonuniform(self):
        on = att.encode_view(self.view, self.params, self.cfg).matrix
        off = att.encode_view(self.view, self.params, self.cfg,
                              use_global=False).matrix
        assert not np.allclose(on, off)

    def test_isolated_node_rows_stay_zero(self):
        emb = att.encode_view(self.view, self.params, self.cfg)
        assert_allclose(emb.matrix[2], np.zeros(self.cfg.embed_dim))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        b = rng.uniform(1, 5, size=(4, 5)) * (rng.uniform(size=(4, 5)) < 0.6)
        view = view_from_incidence(b)
        cfg = tiny_config()
        params = att.init_params(9, 1, cfg, seed=9)

        perm_u = rng.permutation(4)
        perm_i = rng.permutation(5)
        node_perm = np.concatenate([perm_u, 4 + perm_i])
        permuted_params = dict(params)
        permuted_params["x"] = params["x"][node_perm]
        permuted_view = view_from_incidence(b[np.ix_(perm_u, perm_i)])

        base = att.encode_view(view, params, cfg).matrix
        permuted = att.encode_view(permuted_view, permuted_params, cfg).matrix
        assert_allclose(permuted, base[node_perm], atol=1e-12)

    def test_all_parameters_pass_gradient_check(self):
        view, cfg = self.view, self.cfg

        def loss_fn(tensors):
            emb = att.encode_view_tensors(view, tensors, cfg)
            return ad.tsum(ad.mul(emb, emb))

        report = ad.finite_diff_check(loss_fn, self.params, step=1e-5,
                                      tolerance=1e-4)
        assert report.passed, f"failing blocks: {report.failing()}"


class TestInitAndCheckpoint:
    def test_init_is_seed_deterministic(self):
        cfg = att.EncoderConfig()
        a = att.init_params(10, 2, cfg, seed=3)
        b = att.init_params(10, 2, cfg, seed=3)
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_init_spread_matches_std(self):
        params = att.init_params(200, 1, att.EncoderConfig(), seed=0)
        assert abs(params["x"].std() - 0.1) < 0.01

    def test_expected_shapes(self):
        cfg = att.EncoderConfig(num_heads=2, feature_dim=64, head_dim=32)
        params = att.init_params(12, 3, cfg, seed=1)
        assert params["x"].shape == (12, 64)
        assert params[att.head_key(1, 1, 1, "w")].shape == (32, 64)
        assert params[att.head_key(1, 2, 1, "w")].shape == (32, 64)
        assert params[att.head_key(3, 2, 2, "a")].shape == (64,)
        assert params[att.gate_key(2, 1)].shape == (64,)
