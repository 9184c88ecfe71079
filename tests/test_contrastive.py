"""Anchors, contrastive losses, and training loop behavior."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgraph import attention as att
from mcgraph import autodiff as ad
from mcgraph import contrastive as cl
from mcgraph import evaluate as ev
from mcgraph.dataset import DatasetError
from mcgraph.graph import Views, build_views
from tests.test_attention import view_from_incidence


def embed(rows):
    return np.array(rows, dtype=np.float64)


def neighbor_means(view, e):
    """Each node's mean cosine similarity to its neighbors; -inf if isolated."""
    return cl._neighbor_means(view, cl._unit_rows(e))


class TestNeighborhoodSimilarity:
    def test_identical_neighbors_score_one(self):
        view = view_from_incidence([[1.0, 1.0]])
        e = embed([[2.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        assert_allclose(neighbor_means(view, e)[0], 1.0)

    def test_mean_of_cosines_one_and_zero(self):
        view = view_from_incidence([[1.0, 1.0]])
        e = embed([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        assert_allclose(neighbor_means(view, e)[0], 0.5)

    def test_isolated_node_gets_sentinel(self):
        view = view_from_incidence([[1.0, 0.0], [0.0, 0.0]])
        e = np.ones((4, 2))
        assert neighbor_means(view, e)[1] == -np.inf
        assert neighbor_means(view, e)[3] == -np.inf


def pick_anchor(view, e):
    """The anchor `build_anchor_set` picks for embeddings `e`."""
    return cl.build_anchor_set(view, e, cl.LossConfig()).anchor


class TestSelectAnchor:
    def test_unique_argmax_wins(self):
        view = view_from_incidence([[1.0, 1.0], [1.0, 1.0]])
        # node 0 matches its neighbors perfectly, node 1 does not
        e = embed([[1.0, 0.0], [0.3, 1.0], [1.0, 0.0], [1.0, 0.0]])
        assert pick_anchor(view, e) == 0

    def test_ties_break_to_lowest_index(self):
        view = view_from_incidence([[1.0, 1.0], [1.0, 1.0]])
        e = np.ones((4, 3))
        assert pick_anchor(view, e) == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        view = view_from_incidence(rng.uniform(1, 5, size=(4, 5)))
        e = rng.normal(size=(9, 6))
        assert pick_anchor(view, e) == pick_anchor(view, 3.7 * e)

    def test_all_isolated_is_error(self):
        view = view_from_incidence([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="isolated"):
            pick_anchor(view, np.ones((4, 2)))

    def test_all_isolated_is_a_data_error(self):
        view = view_from_incidence([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DatasetError, match="criterion 1 has no nonzero rating"):
            pick_anchor(view, np.ones((4, 2)))


class TestAnchorSet:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        b = rng.uniform(1, 5, size=(5, 6)) * (rng.uniform(size=(5, 6)) < 0.5)
        view = view_from_incidence(b)
        e = rng.normal(size=(11, 8))
        return view, e, cl.build_anchor_set(view, e, cl.LossConfig())

    @pytest.mark.parametrize("seed", range(5))
    def test_anchor_always_among_positives(self, seed):
        _, _, anchors = self.make(seed)
        assert anchors.anchor in anchors.positives

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_and_negative_sets_disjoint(self, seed):
        _, _, anchors = self.make(seed)
        assert not set(anchors.positives) & set(anchors.negative_pool)

    @pytest.mark.parametrize("seed", range(5))
    def test_pool_members_are_dissimilar_to_anchor(self, seed):
        _, e, anchors = self.make(seed)
        unit = e / np.linalg.norm(e, axis=1, keepdims=True)
        sims = unit @ unit[anchors.anchor]
        assert np.all(sims[anchors.negative_pool] < cl.LossConfig().neg_threshold)

    def test_isolated_nodes_excluded_everywhere(self):
        view = view_from_incidence([[1.0, 1.0], [0.0, 0.0]])  # user 1 isolated
        rng = np.random.default_rng(1)
        e = rng.normal(size=(4, 4))
        anchors = cl.build_anchor_set(view, e, cl.LossConfig(neg_threshold=1.0,
                                                             pos_threshold=1.0))
        assert 1 not in anchors.positives
        assert 1 not in anchors.negative_pool
        assert 1 not in anchors.eligible

    @staticmethod
    def reference_anchor_set(view, e, cfg):
        """The anchor set from the neighbor means, by its own argmax."""
        sims = neighbor_means(view, e)
        anchor = int(np.argmax(sims))  # ties pick the lowest index
        eligible = ~np.isneginf(sims)
        norms = np.linalg.norm(e, axis=1, keepdims=True)
        unit = np.divide(e, norms, out=np.zeros_like(e), where=norms > 0)
        to_anchor = unit @ unit[anchor]
        positive = eligible & (to_anchor >= cfg.pos_threshold)
        positive[anchor] = True
        pool = eligible & (to_anchor < cfg.neg_threshold) & ~positive
        return anchor, [np.flatnonzero(positive), np.flatnonzero(pool),
                        np.flatnonzero(eligible)]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_planted_views(self, seed):
        cfg = ev.ExperimentConfig()
        views = build_views(ev.prepared_data(cfg)[0])
        params = att.init_params(views[0].num_nodes, len(views), cfg.encoder, seed)
        stack = att.encode_stack(views.block, params, cfg.encoder)[0]
        for view, emb in zip(views, np.split(stack, len(views))):
            anchors = cl.build_anchor_set(view, emb, cfg.loss)
            anchor, arrays = self.reference_anchor_set(view, emb, cfg.loss)
            assert anchors.anchor == anchor
            got = [anchors.positives, anchors.negative_pool, anchors.eligible]
            for ours, ref in zip(got, arrays):
                assert np.array_equal(ours, ref)
            assert anchors.positives.size > 1 and anchors.negative_pool.size


class TestLocalLoss:
    def test_equal_similarities_give_ln_two(self):
        e0 = embed([[1.0, 0.0], [0.0, 1.0]])
        e1 = embed([[1.0, 0.0], [1.0, 0.0]])
        samples = (cl.PairSample(0, 1, np.array([0]), np.array([[1]])),)
        loss = cl.local_contrastive_loss([e0, e1], (), cl.LossConfig(num_negatives=1),
                                         samples=samples)
        assert_allclose(loss, np.log(2.0), atol=1e-12)

    def test_opposed_negative_at_unit_temperature(self):
        e0 = embed([[1.0, 0.0], [0.0, 1.0]])
        e1 = embed([[1.0, 0.0], [-1.0, 0.0]])
        samples = (cl.PairSample(0, 1, np.array([0]), np.array([[1]])),)
        cfg = cl.LossConfig(temperature=1.0, num_negatives=1)
        loss = cl.local_contrastive_loss([e0, e1], (), cfg, samples=samples)
        assert_allclose(loss, np.log(1.0 + np.exp(-2.0)), atol=1e-12)

    def test_no_negatives_anywhere_gives_zero(self):
        e = embed([[1.0, 0.0], [0.0, 1.0]])
        samples = (cl.PairSample(0, 1, np.array([0, 1]), None),)
        assert cl.local_contrastive_loss([e, e], (), cl.LossConfig(),
                                         samples=samples) == 0.0

    def test_normalized_by_term_count(self):
        # two positives with identical geometry: mean equals the single-term value
        e0 = embed([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        e1 = embed([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        one = (cl.PairSample(0, 1, np.array([0]), np.array([[2]])),)
        two = (cl.PairSample(0, 1, np.array([0, 1]), np.array([[2], [2]])),)
        cfg = cl.LossConfig(num_negatives=1)
        assert_allclose(cl.local_contrastive_loss([e0, e1], (), cfg, samples=two),
                        cl.local_contrastive_loss([e0, e1], (), cfg, samples=one),
                        atol=1e-12)

    def test_single_view_rejected(self):
        with pytest.raises(ValueError):
            cl.local_contrastive_loss([np.ones((2, 2))], (), cl.LossConfig())

    def test_sampling_is_seed_deterministic(self):
        rng = np.random.default_rng(3)
        views = [view_from_incidence(rng.uniform(1, 5, size=(4, 4))
                                     * (rng.uniform(size=(4, 4)) < 0.6))
                 for _ in range(2)]
        embs = [rng.normal(size=(8, 4)) for _ in range(2)]
        cfg = cl.LossConfig()
        anchors = [cl.build_anchor_set(v, e, cfg) for v, e in zip(views, embs)]
        a = cl.local_contrastive_loss(embs, anchors, cfg, seed=5)
        b = cl.local_contrastive_loss(embs, anchors, cfg, seed=5)
        assert a == b


class TestGlobalLoss:
    def swap_perm(self, k, n, d):
        # reverse each row's columns
        return np.tile(np.arange(d)[::-1], (k, n, 1))

    def identity_perm(self, k, n, d):
        return np.tile(np.arange(d), (k, n, 1))

    def test_orthogonal_negative_at_unit_temperature(self):
        e = embed([[1.0, 0.0], [1.0, 0.0]])
        perms = {(0, 1): self.swap_perm(1, 2, 2), (1, 0): self.swap_perm(1, 2, 2)}
        cfg = cl.LossConfig(temperature=1.0, num_negatives=1)
        loss = cl.global_contrastive_loss([e, e], cfg, permutations=perms)
        assert_allclose(loss, np.log(1.0 + np.exp(-1.0)), atol=1e-12)

    def test_identical_negative_gives_ln_two(self):
        e = embed([[1.0, 0.0], [1.0, 0.0]])
        perms = {(0, 1): self.identity_perm(1, 2, 2),
                 (1, 0): self.identity_perm(1, 2, 2)}
        loss = cl.global_contrastive_loss([e, e], cl.LossConfig(num_negatives=1),
                                          permutations=perms)
        assert_allclose(loss, np.log(2.0), atol=1e-12)

    def test_two_views_make_two_ordered_pairs(self):
        perms = cl.sample_permutations(2, (4, 3), cl.LossConfig(),
                                       np.random.default_rng(0))
        assert set(perms) == {(0, 1), (1, 0)}
        assert perms[(0, 1)].shape == (5, 4, 3)

    def test_permutations_permute_within_rows(self):
        perms = cl.sample_permutations(2, (6, 5), cl.LossConfig(),
                                       np.random.default_rng(1))
        for block in perms.values():
            for perm in block:
                assert np.array_equal(np.sort(perm, axis=1),
                                      np.tile(np.arange(5), (6, 1)))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_losses_are_nonnegative(seed):
    rng = np.random.default_rng(seed)
    embs = [rng.normal(size=(6, 4)) + 0.01 for _ in range(3)]
    cfg = cl.LossConfig(num_negatives=2)
    samples = (cl.PairSample(0, 1, np.array([0, 2]), np.array([[1, 3], [4, 5]])),
               cl.PairSample(1, 2, np.array([1]), np.array([[0, 2]])))
    assert cl.local_contrastive_loss(embs, (), cfg, samples=samples) >= 0.0
    assert cl.global_contrastive_loss(embs, cfg, seed=seed) >= 0.0


@given(st.floats(0.5, 10.0), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_losses_are_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    embs = [rng.normal(size=(6, 4)) for _ in range(2)]
    scaled = [scale * e for e in embs]
    cfg = cl.LossConfig()
    samples = (cl.PairSample(0, 1, np.array([0, 1]), np.array([[2, 3], [4, 5]])),)
    perms = cl.sample_permutations(2, (6, 4), cfg, np.random.default_rng(seed))
    assert_allclose(
        cl.local_contrastive_loss(scaled, (), cfg, samples=samples),
        cl.local_contrastive_loss(embs, (), cfg, samples=samples), atol=1e-10)
    assert_allclose(
        cl.global_contrastive_loss(scaled, cfg, permutations=perms),
        cl.global_contrastive_loss(embs, cfg, permutations=perms), atol=1e-10)


class TestTotalLoss:
    def test_all_zero_weights(self):
        cfg = cl.LossConfig(alpha=0.0, beta=0.0, l2_weight=0.0)
        report = cl.total_loss(3.0, 4.0, {"w": np.ones(5)}, cfg)
        assert report.l_total == 0.0

    def test_worked_linear_combination(self):
        # 0.5*2 + 0.5*1 + 0.1*10 = 2.5
        cfg = cl.LossConfig(alpha=0.5, beta=0.5, l2_weight=0.1)
        params = {"w": np.sqrt(np.full(10, 1.0))}  # squared entries sum to 10
        report = cl.total_loss(2.0, 1.0, params, cfg)
        assert_allclose(report.l_total, 2.5, atol=1e-15)
        assert report.l2_term == 10.0

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(7)
        cfg = cl.LossConfig(alpha=0.3, beta=0.6, l2_weight=0.05)
        params = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=4)}
        r = cl.total_loss(1.234, 5.678, params, cfg)
        assert r.l_total == cfg.alpha * r.l_lcl + cfg.beta * r.l_hgcl \
            + cfg.l2_weight * r.l2_term

    def test_zero_l2_weight_ignores_parameter_scale(self):
        cfg = cl.LossConfig(l2_weight=0.0)
        small = cl.total_loss(1.0, 1.0, {"w": np.ones(2)}, cfg)
        large = cl.total_loss(1.0, 1.0, {"w": 100.0 * np.ones(2)}, cfg)
        assert small.l_total == large.l_total


class TestLossConfigValidation:
    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            cl.LossConfig(temperature=0.0)

    def test_zero_negatives_rejected(self):
        with pytest.raises(ValueError):
            cl.LossConfig(num_negatives=0)

    def test_crossed_thresholds_rejected(self):
        with pytest.raises(ValueError):
            cl.LossConfig(pos_threshold=0.2, neg_threshold=0.4)

    @pytest.mark.parametrize("name, value", [
        ("temperature", float("nan")), ("alpha", -1.0), ("beta", -1.0),
        ("l2_weight", -0.5),
        *[(name, value) for name in ("pos_threshold", "neg_threshold")
          for value in (1.5, -1.5, float("nan"))]])
    def test_bad_value_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            cl.LossConfig(**{name: value})

    def test_thresholds_at_the_cosine_bounds_accepted(self):
        cl.LossConfig(pos_threshold=1.0, neg_threshold=-1.0)


def two_view_setup(seed=0):
    rng = np.random.default_rng(seed)
    views = []
    for _ in range(2):
        b = rng.uniform(1, 5, size=(4, 4)) * (rng.uniform(size=(4, 4)) < 0.7)
        b[0, 0] = 3.0  # keep the graph connected enough for anchors
        views.append(view_from_incidence(b))
    return views


def _cos(u, v):
    return np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))


def _info_nce_oracle(anchor, positive, negatives, t):
    pos = np.exp(_cos(anchor, positive) / t)
    neg = sum(np.exp(_cos(anchor, other) / t) for other in negatives)
    return -np.log(pos / (pos + neg))


def lcl_oracle(embs, samples, t):
    """Per-pair, per-positive loop; pairs without negatives add zero terms."""
    terms, count = [], 0
    for ps in samples:
        count += ps.positives.size
        if ps.negatives is None:
            continue
        for row, i in enumerate(ps.positives):
            terms.append(_info_nce_oracle(
                embs[ps.view_a][i], embs[ps.view_b][i],
                embs[ps.view_b][ps.negatives[row]], t))
    return sum(terms) / count if count else 0.0


def hgcl_oracle(embs, perms, t):
    terms = []
    for (a, b), block in perms.items():
        corrupted = [np.take_along_axis(embs[a], perm, axis=1).mean(axis=0)
                     for perm in block]
        terms.append(_info_nce_oracle(embs[a].mean(axis=0), embs[b].mean(axis=0),
                                      corrupted, t))
    return sum(terms) / len(terms)


def hgcl_composite(stack, num_views, perms, cfg):
    """HGCL as the composite that the sparse mean operator replaced: the
    view means, and the corrupted means gathered through a (P, K, n, d) flat
    index, each a sum over rows scaled by 1/n, stacked and scored by
    `_info_nce`. Returns the loss and its gradient in the stack."""
    pairs = list(permutations(range(num_views), 2))
    n, d = stack.shape[0] // num_views, stack.shape[1]
    k = perms[pairs[0]].shape[0]
    flat_idx = np.stack([perms[(a, b)] + a * n * d + np.arange(n)[:, None] * d
                         for a, b in pairs])
    means = stack.reshape(num_views, n, d).sum(axis=1) * (1.0 / n)
    corrupted = stack.reshape(-1)[flat_idx].sum(axis=2) * (1.0 / n)
    source = np.concatenate([means, corrupted.reshape(-1, d)])
    view_a, view_b = np.array(pairs).T
    negatives = num_views + np.arange(len(pairs) * k).reshape(len(pairs), k)
    loss, back = cl._info_nce(source, view_a, np.column_stack([view_b, negatives]),
                              cfg, 1.0 / len(pairs))
    g = back(1.0) * (1.0 / n)
    grad = np.repeat(g[:num_views], n, axis=0)
    np.add.at(grad.reshape(-1), flat_idx,
              np.broadcast_to(g[num_views:].reshape(len(pairs), k, 1, d),
                              flat_idx.shape))
    return float(loss), grad


def three_view_plan(rng, n=5, d=3, k_neg=3, k_perm=2):
    """Hand-built plan: one pair lacks negatives, one lacks positives, and
    neither K matches LossConfig().num_negatives."""
    embs = [rng.normal(size=(n, d)) for _ in range(3)]
    samples = []
    for a, b in permutations(range(3), 2):
        positives = np.sort(rng.choice(n, size=rng.integers(1, n + 1),
                                       replace=False))
        negatives = rng.integers(0, n, size=(positives.size, k_neg))
        if (a, b) == (0, 1):
            negatives = None
        if (a, b) == (2, 0):
            positives, negatives = positives[:0], negatives[:0]
        samples.append(cl.PairSample(a, b, positives, negatives))
    perms = {pair: np.argsort(rng.random((k_perm, n, d)), axis=2)
             for pair in permutations(range(3), 2)}
    return embs, tuple(samples), perms


class TestBatchedLosses:
    @pytest.mark.parametrize("seed", range(3))
    def test_match_per_pair_oracle(self, seed):
        embs, samples, perms = three_view_plan(np.random.default_rng(seed))
        cfg = cl.LossConfig(temperature=0.7)
        assert_allclose(cl.local_contrastive_loss(embs, (), cfg, samples=samples),
                        lcl_oracle(embs, samples, 0.7), rtol=1e-12, atol=1e-12)
        assert_allclose(cl.global_contrastive_loss(embs, cfg, permutations=perms),
                        hgcl_oracle(embs, perms, 0.7), rtol=1e-12, atol=1e-12)

    def test_pass_gradient_check(self):
        embs, samples, perms = three_view_plan(np.random.default_rng(11))
        cfg = cl.LossConfig()

        def loss_fn(t):
            views = [t["e0"], t["e1"], t["e2"]]
            return (cl.lcl_tensor(views, samples, cfg)
                    + cl.hgcl_tensor(views, perms, cfg))

        params = {f"e{v}": e for v, e in enumerate(embs)}
        report = ad.finite_diff_check(loss_fn, params)
        assert report.passed, f"failing blocks: {report.failing()}"

    @staticmethod
    def tape_sizes(num_views, k, n=6, d=3):
        """Nodes each loss adds to the tape, its input leaves excluded."""
        rng = np.random.default_rng(0)
        cfg = cl.LossConfig(num_negatives=k)
        embs = [ad.Tensor(rng.normal(size=(n, d))) for _ in range(num_views)]
        samples = tuple(cl.PairSample(a, b, np.arange(n - 1),
                                      rng.integers(0, n, size=(n - 1, k)))
                        for a, b in permutations(range(num_views), 2))
        perms = cl.sample_permutations(num_views, (n, d), cfg, rng)
        losses = (cl.lcl_tensor(embs, samples, cfg),
                  cl.hgcl_tensor(embs, perms, cfg))
        return [sum(node.op != "leaf" for node in ad.topo_order(loss))
                for loss in losses]

    def test_each_anchor_row_is_gathered_once(self, monkeypatch):
        embs, samples, _ = three_view_plan(np.random.default_rng(2), k_neg=4)
        blocks = []
        kernel = cl._info_nce

        def recording(source, anchors, candidates, *args):
            blocks.append((anchors, candidates))
            return kernel(source, anchors, candidates, *args)
        monkeypatch.setattr(cl, "_info_nce", recording)
        loss = cl.lcl_tensor([ad.Tensor(e) for e in embs], samples, cl.LossConfig())
        assert {node.op for node in ad.topo_order(loss)} == {"leaf", "lcl"}
        # one dense block: a row per term, its anchor once, 1 + K candidates
        [(anchors, candidates)] = blocks
        terms = sum(ps.positives.size for ps in samples if ps.negatives is not None)
        assert anchors.shape == (terms,) and candidates.shape == (terms, 1 + 4)

    def test_info_nce_with_shared_and_repeated_rows(self):
        # row 2 anchors term 1 and is a candidate of terms 0 and 2; term 0
        # draws negative 3 twice and term 2 draws negative 0 twice
        rng = np.random.default_rng(8)
        source = rng.normal(size=(5, 3))
        anchors = np.array([0, 2, 4])
        candidates = np.array([[2, 3, 3], [1, 0, 4], [3, 0, 0]])
        cfg = cl.LossConfig(temperature=0.6)

        def loss_fn(t):
            value, back = cl._info_nce(t["source"].value, anchors, candidates,
                                       cfg, 1.0 / 3)
            return ad.Tensor(value, "info_nce", (t["source"],), lambda g: (back(g),))

        report = ad.finite_diff_check(loss_fn, {"source": source})
        assert report.passed, f"worst relative error {report.worst}"
        expected = sum(_info_nce_oracle(source[a], source[row[0]],
                                        source[row[1:]], 0.6)
                       for a, row in zip(anchors, candidates)) / 3
        assert_allclose(loss_fn({"source": ad.Tensor(source)}).value, expected,
                        rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("num_views, n, d, k",
                             [(2, 6, 3, 2), (3, 40, 8, 5), (4, 9, 5, 3)])
    def test_hgcl_matches_the_composite_it_replaced(self, num_views, n, d, k):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(num_views * n, d))
        cfg = cl.LossConfig(temperature=0.6, num_negatives=k)
        perms = cl.sample_permutations(num_views, (n, d), cfg, rng)
        expected, expected_grad = hgcl_composite(stack, num_views, perms, cfg)
        loss, back = cl.hgcl_stack(stack, num_views,
                                   cl._mean_operator(num_views, n, d, perms), cfg)
        assert_allclose(loss, expected, rtol=1e-12, atol=0)
        assert_allclose(back(1.0), expected_grad, rtol=1e-12,
                        atol=1e-12 * np.abs(expected_grad).max())

    def test_mean_operator_layout(self):
        num_views, n, d = 3, 7, 4
        cfg = cl.LossConfig(num_negatives=2)
        perms = cl.sample_permutations(num_views, (n, d), cfg,
                                       np.random.default_rng(3))
        op, op_t = cl._mean_operator(num_views, n, d, perms)
        assert op.shape == ((num_views + 6 * 2) * d, num_views * n * d)
        # the transpose is a CSC over the operator's own three buffers
        assert op_t.format == "csc" and op_t.shape == op.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(op_t, name), getattr(op, name))
        assert op.indices.dtype == np.int32 and op.indptr.dtype == np.int32
        assert np.array_equal(np.diff(op.indptr), np.full(op.shape[0], n))
        assert np.array_equal(op.data, np.ones(op.nnz))
        # row (v, j) holds column j of view v's rows; row (p, k, j) holds
        # E_a[i, perm[k, i, j]], pair p = 1 being (a, b) = (0, 2)
        rows = op.indices.reshape(-1, d, n)
        assert np.array_equal(rows[1, 2], n * d + np.arange(n) * d + 2)
        first = num_views + 1 * 2
        assert np.array_equal(rows[first + 1, 3],
                              np.arange(n) * d + perms[(0, 2)][1, :, 3])

    @pytest.mark.parametrize("shared", [True, False], ids=["one_leaf", "two_leaves"])
    def test_hgcl_gradient_check_with_two_identical_views(self, shared):
        rng = np.random.default_rng(12)
        e = rng.normal(size=(5, 3))
        cfg = cl.LossConfig(num_negatives=3)
        perms = cl.sample_permutations(2, e.shape, cfg, rng)
        names = ["e", "e"] if shared else ["e0", "e1"]
        report = ad.finite_diff_check(
            lambda t: cl.hgcl_tensor([t[name] for name in names], perms, cfg),
            {name: e.copy() for name in names})
        assert report.passed, f"worst relative error {report.worst}"

    def test_tape_size_independent_of_views_and_negatives(self):
        base = self.tape_sizes(2, 2)
        assert base == [1, 1]
        assert self.tape_sizes(2, 8) == base
        assert self.tape_sizes(4, 2) == base
        assert self.tape_sizes(4, 8) == base


def picker(groups, num_columns):
    """0/1 CSR operator whose row r picks the entries groups[r], in order,
    and its transpose, as `_mean_operator` returns them; an entry picked
    twice is summed twice."""
    groups = np.asarray(groups)
    rows, count = groups.shape
    op = sp.csr_matrix((np.ones(groups.size), groups.reshape(-1),
                        np.arange(0, groups.size + 1, count)),
                       shape=(rows, num_columns))
    return op, op.T


def mean_step(patch, stack, num_views, operator):
    """The means `hgcl_stack` scores, and its gradient in the stack when
    every mean's gradient is one: `_info_nce` is swapped for a probe that
    records its source and hands back ones."""
    sources = []

    def probe(source, *args):
        sources.append(source)
        return 0.0, lambda g: np.ones_like(source)
    patch.setattr(cl, "_info_nce", probe)
    _, back = cl.hgcl_stack(stack, num_views, operator, cl.LossConfig())
    return sources[0], back(1.0)


class TestHgclMeanStep:
    """`hgcl_stack`'s means: (operator @ raveled stack) * (1/n), and back."""

    def test_sums_then_scales(self, monkeypatch):
        # (sum of the picked entries) * (1/n), in the order a sum over rows adds
        rng = np.random.default_rng(9)
        num_views, n, d = 3, 7, 5
        stack = rng.normal(size=(num_views * n, d))
        cfg = cl.LossConfig(num_negatives=2)
        perms = cl.sample_permutations(num_views, (n, d), cfg, rng)
        means, _ = mean_step(monkeypatch, stack, num_views,
                             cl._mean_operator(num_views, n, d, perms))
        blocks = stack.reshape(num_views, n, d)
        corrupted = [np.take_along_axis(blocks[a], perm, axis=1).sum(axis=0)
                     for (a, _), block in perms.items() for perm in block]
        assert np.array_equal(
            means, np.concatenate([blocks.sum(axis=1), corrupted]) * (1.0 / n))

    def test_accumulates_repeated_entries(self, monkeypatch):
        # two views of three one-column rows; four means, three picks each
        stack = np.arange(6.0).reshape(6, 1)
        operator = picker([[0, 0, 4], [1, 5, 5], [2, 3, 3], [2, 2, 2]], 6)
        means, grad = mean_step(monkeypatch, stack, 2, operator)
        assert_allclose(means[:, 0], np.array([4.0, 11.0, 8.0, 6.0]) / 3.0)
        assert_allclose(grad[:, 0], np.array([2, 1, 4, 2, 1, 2]) / 3.0)

    def test_passes_gradient_check_with_repeated_entries(self):
        rng = np.random.default_rng(6)
        # two views of five two-column rows; row r of the (V + P*K)*d = 8
        # means picks entries r, 3r + 1 and (5r + 2) mod 20, five times in all
        operator = picker([[r, (3 * r + 1) % 20, (5 * r + 2) % 20,
                            (3 * r + 1) % 20, r] for r in range(8)], 20)
        cfg = cl.LossConfig(temperature=0.7)

        def loss_fn(t):
            value, back = cl.hgcl_stack(t["stack"].value, 2, operator, cfg)
            return ad.Tensor(value, "hgcl", (t["stack"],), lambda g: (back(g),))

        report = ad.finite_diff_check(loss_fn, {"stack": rng.normal(size=(10, 2))})
        assert report.passed, f"worst relative error {report.worst}"


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=2 * n - 1),
                       min_size=n, max_size=n)))
@settings(max_examples=50, deadline=None)
def test_hgcl_mean_step_gradient_counts_entry_uses(indices):
    # two views of n one-column rows; each of the four means picks `indices`
    n = len(indices)
    with pytest.MonkeyPatch.context() as patch:
        _, grad = mean_step(patch, np.zeros((2 * n, 1)), 2,
                            picker([indices] * 4, 2 * n))
    assert_allclose(grad[:, 0], 4 * np.bincount(indices, minlength=2 * n) / n)


def test_full_objective_passes_gradient_check():
    views = two_view_setup()
    enc = att.EncoderConfig(num_heads=2, feature_dim=4, head_dim=2)
    loss_cfg = cl.LossConfig(num_negatives=2)
    params = att.init_params(8, 2, enc, seed=3)
    embs = [att.encode_view(v, params, enc).matrix for v in views]
    plan = cl.build_plan(views, embs, loss_cfg, np.random.default_rng(4))

    def loss_fn(tensors):
        embeddings = [att.encode_view_tensors(v, tensors, enc) for v in views]
        lcl = cl.lcl_tensor(embeddings, plan.samples, loss_cfg)
        hgcl = cl.hgcl_tensor(embeddings, plan.permutations, loss_cfg)
        l2 = ad.sum_of_squares(tensors.values())
        return lcl * loss_cfg.alpha + hgcl * loss_cfg.beta + l2 * loss_cfg.l2_weight

    report = ad.finite_diff_check(loss_fn, params, step=1e-5, tolerance=1e-4)
    assert report.passed, f"failing blocks: {report.failing()}"


class TestPlantedEpochSchedule:
    def test_gradient_equals_tape_backward(self, monkeypatch):
        # one planted full-variant epoch: train's flat gradient against the
        # tape's backward of the same objective on the same plan
        cfg = ev.ExperimentConfig()
        views = build_views(ev.prepared_data(cfg)[0])
        assert cfg.variant == "full"
        plans, grads = [], []
        build, clip = cl.build_plan, cl.clip_gradients

        def recording_plan(*args):
            plans.append(build(*args))
            return plans[-1]

        def recording_clip(grad, max_norm):
            grads.append(grad.copy())
            return clip(grad, max_norm)
        monkeypatch.setattr(cl, "build_plan", recording_plan)
        monkeypatch.setattr(cl, "clip_gradients", recording_clip)
        cl.train(views, cfg, seed=0, epochs=1)

        enc, loss_cfg = cfg.encoder, cfg.loss
        params = att.init_params(views[0].num_nodes, len(views), enc, seed=0)
        tensors = {key: ad.Tensor(value) for key, value in params.items()}
        embeddings = [att.encode_view_tensors(v, tensors, enc) for v in views]
        lcl = cl.lcl_tensor(embeddings, plans[0].samples, loss_cfg)
        hgcl = cl.hgcl_tensor(embeddings, plans[0].permutations, loss_cfg)
        l2 = ad.sum_of_squares(tensors.values())
        ad.backward(lcl * loss_cfg.alpha + hgcl * loss_cfg.beta
                    + l2 * loss_cfg.l2_weight)
        tape = cl.flatten({key: ad.grad_of(t) for key, t in tensors.items()})
        assert_allclose(grads[0], tape, rtol=1e-12, atol=0)

    def test_train_builds_no_tape(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("train used the autodiff module")
        functions = [name for name, value in vars(ad).items()
                     if callable(value) and getattr(value, "__module__", None)
                     == ad.__name__]
        assert {"Tensor", "backward", "add", "mul", "sum_of_squares"} <= set(functions)
        for name in functions:
            monkeypatch.setattr(ad, name, fail)
        cfg = ev.ExperimentConfig()
        views = build_views(ev.prepared_data(cfg)[0])
        for variant in ev.VARIANTS:
            _, trace = cl.train(views, replace(cfg, variant=variant),
                                seed=0, epochs=2)
            assert len(trace) == 2


def test_mean_operator_built_once_per_plan(monkeypatch):
    calls = []
    build = cl._mean_operator

    def counting(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(cl, "_mean_operator", counting)
    cfg = ev.ExperimentConfig()
    views = build_views(ev.prepared_data(cfg)[0])
    assert cfg.refresh_period == 10
    cl.train(views, cfg, seed=0, epochs=100)
    assert len(calls) == 10


def test_csr_transposed_once_per_plan_and_once_for_the_edge_operator(monkeypatch):
    # the HGCL backward multiplies by the plan's transpose instead of taking
    # a new one each epoch
    cfg = ev.ExperimentConfig()
    views = build_views(ev.prepared_data(cfg)[0])
    calls = []
    transpose = sp.csr_matrix.transpose

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return transpose(self, *args, **kwargs)
    monkeypatch.setattr(sp.csr_matrix, "transpose", counting)
    assert cfg.refresh_period == 10
    cl.train(views, cfg, seed=0, epochs=100)
    assert len(calls) == 10 + 1


class TestTrain:
    def tiny_config(self, **overrides):
        base = dict(
            loss=cl.LossConfig(num_negatives=2),
            encoder=att.EncoderConfig(num_heads=2, feature_dim=4, head_dim=2),
            learning_rate=0.005, epochs=12, refresh_period=5, clip_norm=5.0)
        base.update(overrides)
        return ev.ExperimentConfig(**base)

    def test_zero_epochs_returns_initial_params(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        params, trace = cl.train(views, cfg, seed=1, epochs=0)
        expected = att.init_params(8, 2, cfg.encoder, seed=1)
        assert trace == []
        for key in expected:
            assert np.array_equal(params[key], expected[key])

    def test_same_seed_is_bit_identical(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        p1, t1 = cl.train(views, cfg, seed=9)
        p2, t2 = cl.train(views, cfg, seed=9)
        assert t1 == t2
        for key in p1:
            assert np.array_equal(p1[key], p2[key])

    def test_different_seeds_differ(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        _, t1 = cl.train(views, cfg, seed=1)
        _, t2 = cl.train(views, cfg, seed=2)
        assert t1 != t2

    def test_loss_decreases_on_small_instance(self):
        views = Views(two_view_setup(seed=5))
        _, trace = cl.train(views, self.tiny_config(epochs=30), seed=0)
        assert trace[-1].l_total < trace[0].l_total

    def test_report_identity_on_real_trace(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        _, trace = cl.train(views, cfg, seed=3)
        for r in trace:
            assert r.l_total == cfg.loss.alpha * r.l_lcl \
                + cfg.loss.beta * r.l_hgcl + cfg.loss.l2_weight * r.l2_term

    def test_epoch_numbers_start_at_one(self):
        views = Views(two_view_setup())
        _, trace = cl.train(views, self.tiny_config(), seed=0, epochs=3)
        assert [r.epoch for r in trace] == [1, 2, 3]

    def test_non_finite_loss_aborts_with_epoch(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config(loss=cl.LossConfig(temperature=1e-6, num_negatives=2))
        with pytest.raises(cl.NonFiniteLossError, match="epoch 1"):
            cl.train(views, cfg, seed=0)

    def test_nan_gradient_aborts_before_the_update(self, monkeypatch):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        seen = []
        encode = att.encode_stack

        def poisoned(graph, params, *args):
            # the encoder's back returns a NaN in the gradient of "x"
            seen.append(params)
            stack, keys, back = encode(graph, params, *args)
            assert keys[0] == "x"

            def nan_back(g):
                grads = back(g)
                grads[0][0, 0] = np.nan
                return grads
            return stack, keys, nan_back

        def no_step(*args, **kwargs):
            raise AssertionError("Adam ran on a non-finite gradient")
        monkeypatch.setattr(att, "encode_stack", poisoned)
        monkeypatch.setattr(cl, "adam_update", no_step)
        with pytest.raises(cl.NonFiniteLossError, match="epoch 1"):
            cl.train(views, cfg, seed=0, epochs=1)
        initial = att.init_params(8, 2, cfg.encoder, seed=0)
        assert list(seen[-1]) == list(initial)
        for key, value in seen[-1].items():
            assert np.array_equal(value, initial[key])

    def test_contrastive_disabled_reports_zero_losses(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config(variant="no_global_attention_no_cl")
        _, trace = cl.train(views, cfg, seed=0, epochs=4)
        for r in trace:
            assert r.l_lcl == 0.0 and r.l_hgcl == 0.0
            assert r.l_total == cfg.loss.l2_weight * r.l2_term

    def test_l2_term_is_total_loss_l2(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        _, trace = cl.train(views, cfg, seed=2, epochs=1)
        initial = att.init_params(8, 2, cfg.encoder, seed=2)
        report = cl.total_loss(trace[0].l_lcl, trace[0].l_hgcl, initial, cfg.loss)
        assert trace[0].l2_term == report.l2_term
        assert trace[0].l_total == report.l_total

    def test_returns_init_params_layout_as_views_of_one_vector(self):
        views = Views(two_view_setup())
        cfg = self.tiny_config()
        params, _ = cl.train(views, cfg, seed=1, epochs=2)
        initial = att.init_params(8, 2, cfg.encoder, seed=1)
        assert list(params) == list(initial)
        assert [p.shape for p in params.values()] == \
            [p.shape for p in initial.values()]
        theta = params["x"].base
        assert theta.shape == (sum(p.size for p in initial.values()),)
        assert all(p.base is theta for p in params.values())
        assert np.array_equal(theta, cl.flatten(params))

    def test_clipped_exactly_when_norm_exceeds_clip_on_planted(self):
        cfg = ev.ExperimentConfig()
        train_data, _ = ev.prepared_data(cfg)
        _, trace = cl.train(build_views(train_data), cfg, seed=4)
        assert all(np.isfinite(r.grad_norm) and r.grad_norm > 0 for r in trace)
        assert [r.clipped for r in trace] == \
            [r.grad_norm > cfg.clip_norm for r in trace]
        assert any(r.clipped for r in trace)

    @pytest.mark.parametrize("num_views, variant",
                             [(2, "no_global_attention_no_cl"), (1, "full")],
                             ids=["no_cl", "single_view"])
    def test_no_contrast_skips_encoder_and_matches_adam_oracle(
            self, monkeypatch, num_views, variant):
        def fail(*args, **kwargs):
            raise AssertionError("the encoder ran without a contrastive loss")
        monkeypatch.setattr(att, "encode_stack", fail)
        views = Views(two_view_setup()[:num_views])
        cfg = self.tiny_config(variant=variant, clip_norm=0.05)
        params, trace = cl.train(views, cfg, seed=6, epochs=7)

        # Adam on the weight decay alone, with the global-norm clip
        theta = att.init_params(8, num_views, cfg.encoder, seed=6)
        first = {k: np.zeros_like(v) for k, v in theta.items()}
        second = {k: np.zeros_like(v) for k, v in theta.items()}
        for t in range(1, 8):
            grads = {k: 2.0 * cfg.loss.l2_weight * v for k, v in theta.items()}
            norm = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
            scale = min(1.0, cfg.clip_norm / norm)
            for k, g in grads.items():
                g = g * scale
                first[k] = 0.9 * first[k] + 0.1 * g
                second[k] = 0.999 * second[k] + 0.001 * g * g
                m_hat = first[k] / (1.0 - 0.9 ** t)
                v_hat = second[k] / (1.0 - 0.999 ** t)
                theta[k] = theta[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert params.keys() == theta.keys()
        for key in theta:
            assert_allclose(params[key], theta[key], rtol=1e-12, atol=1e-15)
        assert all(r.l_lcl == 0.0 and r.l_hgcl == 0.0 for r in trace)

    def test_variant_names(self):
        assert self.tiny_config().variant == "full"
        flags = {}
        for name in ev.VARIANTS:
            cfg = self.tiny_config(variant=name)
            flags[name] = (cfg.use_global_attention, cfg.use_contrastive)
        assert flags == {"full": (True, True),
                         "no_global_attention": (False, True),
                         "no_global_attention_no_cl": (False, False)}
        with pytest.raises(ValueError, match="variant"):
            self.tiny_config(variant="bogus")
        with pytest.raises(AttributeError):  # read-only, derived from variant
            self.tiny_config().use_contrastive = False


class TestOptimizer:
    def test_adam_moves_toward_quadratic_minimum(self):
        theta = np.array([5.0])
        state = cl.AdamState()
        for _ in range(800):
            cl.adam_update(theta, 2.0 * theta, state, learning_rate=0.05)
        assert abs(theta[0]) < 1e-2

    def test_clip_rescales_global_norm(self):
        grads = np.array([3.0, 0.0, 4.0])
        norm = cl.clip_gradients(grads, max_norm=1.0)
        assert_allclose(norm, 5.0)
        assert_allclose(np.linalg.norm(grads), 1.0)

    def test_clip_leaves_small_gradients_alone(self):
        grads = np.array([0.3])
        cl.clip_gradients(grads, max_norm=5.0)
        assert_allclose(grads, [0.3])


# Per-key reference optimizer: the dict-of-arrays form the flat vector ops
# replace, kept as the oracle they must reproduce.

def ref_clip_gradients(grads, max_norm):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def ref_adam_update(params, grads, state, learning_rate,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    state["step"] += 1
    t = state["step"]
    for key, grad in grads.items():
        m = state["first"].setdefault(key, np.zeros_like(grad))
        v = state["second"].setdefault(key, np.zeros_like(grad))
        m += (1.0 - beta1) * (grad - m)
        v += (1.0 - beta2) * (grad * grad - v)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        params[key] -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


param_shapes = st.dictionaries(
    st.text(alphabet="abwx/12", min_size=1, max_size=5),
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(shapes=param_shapes, seed=st.integers(0, 2**32 - 1),
       learning_rate=st.floats(1e-4, 0.1))
def test_flat_adam_is_bit_identical_to_per_key_reference(shapes, seed,
                                                         learning_rate):
    rng = np.random.default_rng(seed)
    params = {key: rng.normal(size=shape) for key, shape in shapes.items()}
    theta = cl.flatten(params)
    state, ref_state = cl.AdamState(), {"first": {}, "second": {}, "step": 0}
    for _ in range(20):
        grads = {key: rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3)
                 for key, p in params.items()}
        cl.adam_update(theta, cl.flatten(grads), state, learning_rate)
        ref_adam_update(params, grads, ref_state, learning_rate)
        assert np.array_equal(theta, cl.flatten(params))
    assert np.array_equal(state.first, cl.flatten(ref_state["first"]))
    assert np.array_equal(state.second, cl.flatten(ref_state["second"]))


@settings(max_examples=60, deadline=None)
@given(shapes=param_shapes, seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.1, 2.0))
def test_flat_clip_matches_per_key_reference(shapes, seed, fraction):
    rng = np.random.default_rng(seed)
    grads = {key: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)
             for key, shape in shapes.items()}
    flat = cl.flatten(grads)
    max_norm = fraction * float(np.linalg.norm(flat)) or 1.0
    norm = cl.clip_gradients(flat, max_norm)
    ref_norm = ref_clip_gradients(grads, max_norm)
    assert_allclose(norm, ref_norm, rtol=1e-14)
    assert_allclose(flat, cl.flatten(grads), rtol=1e-14)


def test_loss_trace_csv_format(tmp_path):
    trace = [cl.LossReport(1, 0.5, 0.25, 2.0, 0.575),
             cl.LossReport(2, 0.4, 0.2, 1.9, 0.49)]
    path = tmp_path / "trace.csv"
    cl.write_loss_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,l_lcl,l_hgcl,l2,l_total"
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 0.5
    assert float(fields[4]) == 0.575
