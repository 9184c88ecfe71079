"""Dual-attention encoder against brute-force oracles and gradient checks."""

import tracemalloc

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
from tests.test_autodiff import total


def view_from_incidence(b, criterion_index=1):
    b = sp.csr_matrix(np.asarray(b, dtype=np.float64))
    ext = graph.extend_adjacency(b)
    return graph.CriterionView(criterion_index, b.shape[0], b.shape[1], b, ext,
                               graph.degree_vector(ext),
                               graph.normalize_adjacency(ext))


def local_forward(view, h_in, layer, last=False):
    """One layer's multi-head attended features, ELU-activated unless `last`:
    the value `_dual_attention` returns without a global gate."""
    return att._dual_attention(np.asarray(h_in, dtype=np.float64), layer.weight,
                               layer.attn, None, view.block, first=not last)[0]


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
        layer = att.LayerParams(weight=np.ones((1, 1, 1)), attn=np.array([[0.3, 0.7]]))
        coeffs = att.local_attention_coeffs(view, np.array([[1.0], [2.0]]), layer)
        assert_allclose(coeffs[0][0, 1], 1.0)
        assert_allclose(coeffs[0][1, 0], 1.0)

    def test_identical_neighbors_share_weight_equally(self):
        view = view_from_incidence([[1.0, 1.0]])
        h_in = np.array([[0.5], [2.0], [2.0]])
        layer = att.LayerParams(weight=np.ones((1, 1, 1)), attn=np.array([[0.4, 0.9]]))
        coeffs = att.local_attention_coeffs(view, h_in, layer)[0]
        assert_allclose(coeffs[0, 1:], [0.5, 0.5])

    def test_scores_one_and_two_give_softmax_split(self):
        # a = [0, 1], projections (1, 2) for the two items: scores 1 and 2
        view = view_from_incidence([[1.0, 1.0]])
        h_in = np.array([[5.0], [1.0], [2.0]])
        layer = att.LayerParams(weight=np.ones((1, 1, 1)), attn=np.array([[0.0, 1.0]]))
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
        layer = att.LayerParams(weight=w[None], attn=rng.normal(size=(1, 6)))
        out = local_forward(view, h_in, layer, last=True)
        assert_allclose(out[0], w @ h_in[1], atol=1e-12)
        assert_allclose(out[1], w @ h_in[0], atol=1e-12)

    def test_output_width_is_heads_times_head_dim(self):
        view = view_from_incidence([[1.0, 2.0], [0.0, 3.0]])
        rng = np.random.default_rng(2)
        heads = [(rng.normal(size=(3, 2)), rng.normal(size=6)) for _ in range(2)]
        layer = att.LayerParams(weight=np.stack([w for w, _ in heads]),
                                attn=np.stack([a for _, a in heads]))
        out = local_forward(view, rng.normal(size=(4, 2)), layer)
        assert out.shape == (4, 6)

    def test_matches_loop_oracle_on_random_view(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(1, 5, size=(3, 3)) * (rng.uniform(size=(3, 3)) < 0.7)
        view = view_from_incidence(b)
        h_in = rng.normal(size=(6, 4))
        heads = [(rng.normal(size=(2, 4)), rng.normal(size=4)) for _ in range(2)]
        layer = att.LayerParams(weight=np.stack([w for w, _ in heads]),
                                attn=np.stack([a for _, a in heads]))
        pattern = (view.adjacency.toarray() > 0)
        for last in (True, False):
            ours = local_forward(view, h_in, layer, last=last)
            assert_allclose(ours, local_oracle(pattern, h_in, heads, last),
                            atol=1e-10)

    def test_isolated_nodes_output_zero_rows(self):
        view = view_from_incidence([[1.0, 0.0], [0.0, 0.0]])  # u2 and i2 isolated
        rng = np.random.default_rng(4)
        layer = att.LayerParams(weight=rng.normal(size=(1, 2, 3)),
                                attn=rng.normal(size=(1, 4)))
        out = local_forward(view, rng.normal(size=(4, 3)), layer)
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
            return total(ad.mul(node, weight))

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
        views = graph.Views(self.views(3))
        cfg = att.EncoderConfig(num_heads=2, feature_dim=3, head_dim=2)
        params = att.init_params(views[0].num_nodes, 3, cfg, seed=4)
        assert views.block.view_indices == (1, 2, 3)
        for use_global in (True, False):
            stack = att.encode_stack(views.block, params, cfg, use_global)[0]
            for view, block in zip(views, np.split(stack, len(views))):
                alone = att.encode_view(view, params, cfg, use_global)
                assert alone.criterion_index == view.criterion_index
                assert np.array_equal(block, alone.matrix)

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
            return total(ad.mul(node, weight))

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
        # a sum over edges is the edge product with ones: into the centers,
        # and by the transpose into the neighbors, added as np.add.at adds
        rng = np.random.default_rng(7)
        edgeless = graph.block_graph([view_from_incidence(np.zeros((3, 2)))])
        assert edgeless.centers.size == 0
        for blocks in (random_blocks(3, seed=7), graph.block_graph(self.views(3)),
                       edgeless):
            rows = blocks.num_views * blocks.num_nodes
            for num_heads in (1, 2, 3):
                values = rng.normal(size=(blocks.centers.size, num_heads))
                ones = np.ones((rows, num_heads, 1))
                for transpose, index in ((False, blocks.centers),
                                         (True, blocks.neighbors)):
                    assert np.array_equal(
                        blocks.edge_product(values, ones, transpose=transpose),
                        segment_sum(index, values, rows))

    @pytest.mark.parametrize("source", ["random", "fixture", "edgeless"])
    def test_block_graph_equals_the_construction_it_replaced(self, source):
        cases = {"random": [random_views(count, seed=7 + count) for count in (1, 2, 3)],
                 "fixture": [self.views(3)],
                 "edgeless": [[view_from_incidence(np.zeros((3, 2)))]]}[source]
        for views in cases:
            blocks, want = graph.block_graph(views), coo_block_graph(views)
            for name, arr in want.items():
                got = getattr(blocks, name)
                assert got.dtype == np.intp and np.array_equal(got, arr)

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
        for num_heads in (2, 1, 3, 2):  # one cached edge pattern for every head count
            coeffs = rng.random((edges, num_heads))
            x = rng.normal(size=(rows, num_heads, head_dim))
            forward = segment_sum(blocks.centers, (
                coeffs[:, :, None] * x[blocks.neighbors]).reshape(edges, -1), rows)
            backward = segment_sum(blocks.neighbors, (
                coeffs[:, :, None] * x[blocks.centers]).reshape(edges, -1), rows)
            assert np.array_equal(blocks.edge_product(coeffs, x), forward)
            assert np.array_equal(blocks.edge_product(coeffs, x, transpose=True),
                                  backward)
        assert [m.nnz for m in cached_operators(blocks)] == [edges]

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

    def test_multi_tile_stack_passes_gradient_check(self, monkeypatch):
        # 7 edges per score-gradient tile: every view spans several tiles
        monkeypatch.setattr(graph, "EDGE_TILE", 7 * self.num_heads * self.head_dim)
        assert graph.block_graph(self.views(3)).centers.size > 2 * 7
        self.check_stack_gradients(3, seed=5)


def segment_sum(index, values, rows):
    """`values` row e added into row index[e] of `rows` zero rows, in edge
    order: the scatter-add the block graph's edge sums replaced."""
    out = np.zeros((rows,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def cached_operators(blocks):
    """The sparse operators a block graph keeps, found in its attributes (also
    inside tuples and dicts); an operator and a transpose that shares its data
    buffer count once."""
    found = []
    pending = list(vars(blocks).values())
    while pending:
        value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (tuple, list)):
            pending.extend(value)
        elif sp.issparse(value) and not any(np.shares_memory(value.data, m.data)
                                            for m in found):
            found.append(value)
    return found


def coo_block_graph(views):
    """`block_graph`'s centers, neighbors and indptr as they were built from
    each view's COO edges: rows and columns concatenated with node offsets,
    then the running sum of each center's edge count."""
    n = views[0].num_nodes
    coos = [v.adjacency.tocoo() for v in views]
    centers, neighbors = (np.concatenate([side.astype(np.intp) + k * n
                                          for k, side in enumerate(sides)])
                          for sides in ([c.row for c in coos], [c.col for c in coos]))
    counts = np.bincount(centers, minlength=len(views) * n)
    return {"centers": centers, "neighbors": neighbors,
            "indptr": np.concatenate([[0], np.cumsum(counts)])}


def random_views(count, seed, users=7, items=5, density=0.5):
    """`count` random views of one node set; user 0 and the last item rate
    nothing, so every view has isolated nodes."""
    rng = np.random.default_rng(seed)
    views = []
    for c in range(count):
        b = rng.uniform(1, 5, size=(users, items)) * (rng.uniform(size=(users, items)) < density)
        b[0, :] = b[:, -1] = 0.0
        views.append(view_from_incidence(b, criterion_index=c + 1))
    return views


def random_blocks(count, seed, **sizes):
    """`random_views` as one block graph."""
    return graph.block_graph(random_views(count, seed, **sizes))


def layer_inputs(blocks, first, use_global, num_heads, head_dim, seed):
    """Random (h_in, w, a, wg) for `_dual_attention` of every view of `blocks`."""
    rng = np.random.default_rng(seed)
    count, n, width = blocks.num_views, blocks.num_nodes, num_heads * head_dim
    fan_in = 3 if first else width
    return (rng.normal(size=(n if first else count * n, fan_in)),
            rng.normal(size=(count * num_heads, head_dim, fan_in)),
            rng.normal(size=(count * num_heads, 2 * head_dim)),
            rng.normal(size=(count, width)) if use_global else None)


def composite_back(h_in, w_in, a_in, wg, blocks, first, g):
    """The layer backward as `_dual_attention` computed it with whole gathers:
    (E, H, F') rows of both operands for the score gradient, and the softmax
    row term summed over edges, segment_sum(centers, coeffs * d_coeffs)."""
    v, n, c, nb = blocks.num_views, blocks.num_nodes, blocks.centers, blocks.neighbors
    num_heads, head_dim = w_in.shape[0] // v, w_in.shape[1]
    width, edges = num_heads * head_dim, c.size
    w = w_in.reshape(v, width, -1)
    a = a_in.reshape(v, num_heads, 2, head_dim)
    h_views = (np.broadcast_to(h_in, (v,) + h_in.shape) if first
               else h_in.reshape(v, n, -1))
    proj_v = (h_views @ w.transpose(0, 2, 1)).reshape(v, n, num_heads, head_dim)
    proj = proj_v.reshape(v * n, num_heads, head_dim)
    s_src, s_dst = (np.einsum("vnhd,vhd->vnh", proj_v, a[:, :, side]).reshape(v * n, -1)
                    for side in (0, 1))
    raw = s_src[c] + s_dst[nb]
    slope = np.where(raw > 0.0, 1.0, att.LEAKY_SLOPE)
    _, coeffs, factor, _ = att._dual_attention(h_in, w_in, a_in, wg, blocks, first)
    local = segment_sum(c, (coeffs[:, :, None] * proj[nb]).reshape(edges, -1), v * n)
    act = np.where(local > 0.0, local, np.expm1(local)) if first else local
    d_act, d_wg = g, None
    if wg is not None:
        act_v, g_v, probs = act.reshape(v, n, width), g.reshape(v, n, width), factor / n
        pre = (act_v @ wg[:, :, None])[:, :, 0]
        d_probs = (g_v * act_v).sum(axis=2) * n
        d_pre = probs * (d_probs - (probs * d_probs).sum(axis=1, keepdims=True)) * (pre > 0.0)
        d_act = (g_v * factor[:, :, None] + d_pre[:, :, None] * wg[:, None, :]).reshape(-1, width)
        d_wg = np.einsum("vn,vnd->vd", d_pre, act_v)
    d_local = d_act * np.where(local > 0.0, 1.0, act + 1.0) if first else d_act
    d_rows = d_local.reshape(-1, num_heads, head_dim)
    d_coeffs = np.einsum("ehd,ehd->eh", d_rows[c], proj[nb])
    weighted = segment_sum(c, coeffs * d_coeffs, v * n)
    d_raw = coeffs * (d_coeffs - weighted[c]) * slope
    d_src = segment_sum(c, d_raw, v * n).reshape(v, n, num_heads)
    d_dst = segment_sum(nb, d_raw, v * n).reshape(v, n, num_heads)
    d_proj = segment_sum(nb, (coeffs[:, :, None] * d_rows[c]).reshape(edges, -1), v * n
                         ).reshape(v, n, num_heads, head_dim)
    d_proj += d_src[..., None] * a[:, None, :, 0] + d_dst[..., None] * a[:, None, :, 1]
    d_a = np.stack([np.einsum("vnh,vnhd->vhd", d, proj_v) for d in (d_src, d_dst)], axis=2)
    d_proj = d_proj.reshape(v, n, width)
    d_w = d_proj.transpose(0, 2, 1) @ h_views
    d_h = (np.einsum("vnk,vkf->nf", d_proj, w) if first
           else (d_proj @ w).reshape(v * n, -1))
    return d_h, d_w.reshape(w_in.shape), d_a.reshape(a_in.shape), d_wg


class TestTiledScoreGradient:
    """The layer backward's edge-tiled score gradient and output-side softmax
    row term, against one tile, the whole-gather composite and a memory bound."""

    num_heads, head_dim = 2, 3

    def back(self, blocks, first, use_global, seed):
        inputs = layer_inputs(blocks, first, use_global, self.num_heads,
                              self.head_dim, seed)
        out, _, _, back = att._dual_attention(*inputs, blocks, first=first)
        return inputs, back, np.random.default_rng(seed + 1).normal(size=out.shape)

    @pytest.mark.parametrize("edgeless", [False, True])
    @pytest.mark.parametrize("use_global", [True, False])
    @pytest.mark.parametrize("first", [True, False])
    def test_tiles_match_one_tile(self, monkeypatch, edgeless, use_global, first):
        blocks = (graph.block_graph([view_from_incidence(np.zeros((3, 2)))])
                  if edgeless else random_blocks(3, seed=2))
        edges = blocks.centers.size
        assert edges == 0 if edgeless else edges > 2 * 7 and edges % 7 != 0
        _, back, g = self.back(blocks, first, use_global, seed=3)
        one_tile = back(g)
        # 7 edges per tile; the last tile is ragged
        monkeypatch.setattr(graph, "EDGE_TILE", 7 * self.num_heads * self.head_dim)
        tiled = back(g)
        assert (tiled[3] is None) == (one_tile[3] is None) == (not use_global)
        for got, want in zip(tiled, one_tile):
            if want is not None:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("use_global", [True, False])
    @pytest.mark.parametrize("first", [True, False])
    def test_matches_the_whole_gather_composite(self, seed, use_global, first):
        blocks = random_blocks(1 + seed, seed=10 + seed, users=6 + seed)
        inputs, back, g = self.back(blocks, first, use_global, seed=20 + seed)
        want = composite_back(*inputs, blocks, first, g)
        for got, ref in zip(back(g), want):
            if ref is None:
                assert got is None
            else:
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("first", [True, False])
    def test_back_never_holds_an_edge_by_head_by_dim_array(self, first):
        # dense views: the edges far outnumber the nodes, and F' = 16
        blocks = random_blocks(3, seed=4, users=60, items=60, density=0.9)
        head_dim, edges = 16, blocks.centers.size
        inputs = layer_inputs(blocks, first, True, self.num_heads, head_dim, seed=5)
        out, _, _, back = att._dual_attention(*inputs, blocks, first=first)
        g = np.random.default_rng(6).normal(size=out.shape)
        gather_bytes = edges * self.num_heads * head_dim * 8
        assert graph.EDGE_TILE * 8 * 2 < gather_bytes / 4  # several tiles
        tracemalloc.start()
        try:
            back(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gather_bytes


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
        h = local_forward(
            self.view, params["x"], att.layer_params(params, 1, 1, self.cfg))
        return local_forward(
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
            return ad.sum_of_squares([emb])

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
