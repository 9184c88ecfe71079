"""Fusion, the rating head, and baseline predictors against hand oracles."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcgraph import evaluate as ev
from mcgraph import recommend as rec
from mcgraph.dataset import RatingRecord, from_records


class TestFuse:
    def test_concatenates_in_view_order(self):
        e1 = np.array([[1.0, 2.0, 3.0]])
        e2 = np.array([[4.0, 5.0, 6.0]])
        fused = rec.fuse([e1, e2], num_users=1)
        assert_allclose(fused.matrix, [[1, 2, 3, 4, 5, 6]])

    def test_four_views_of_width_64_give_256(self):
        views = [np.zeros((5, 64)) for _ in range(4)]
        assert rec.fuse(views, num_users=3).matrix.shape == (5, 256)

    def test_single_view_is_identity(self):
        e = np.random.default_rng(0).normal(size=(4, 6))
        assert np.array_equal(rec.fuse([e], num_users=2).matrix, e)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            rec.fuse([np.zeros((3, 4)), np.zeros((3, 5))], num_users=1)

    def test_slices_recover_views_bit_for_bit(self):
        rng = np.random.default_rng(1)
        views = [rng.normal(size=(6, 3)) for _ in range(3)]
        fused = rec.fuse(views, num_users=4)
        for c, e in enumerate(views):
            assert np.array_equal(fused.matrix[:, 3 * c:3 * (c + 1)], e)


def make_fused(num_users, num_items, width, seed=0):
    rng = np.random.default_rng(seed)
    return rec.FusedEmbedding(rng.normal(size=(num_users + num_items, width)),
                              num_users=num_users, view_dim=width)


def constant_predictor(width, bias):
    return rec.RatingPredictor(weights=np.zeros(2 * width), bias=bias,
                               epsilon=0.1, regularization=1.0,
                               feature_mean=np.zeros(2 * width),
                               feature_scale=np.ones(2 * width))


class TestRatingHead:
    def dataset_from_targets(self, fused, pairs, targets):
        recs = [RatingRecord(f"u{u}", f"i{v}", y, (y,))
                for (u, v), y in zip(pairs, targets)]
        return from_records(recs)

    def all_pairs(self, n, m):
        return [(u, v) for u in range(n) for v in range(m)]

    def test_constant_targets_fit_exactly(self):
        fused = make_fused(4, 4, 6)
        pairs = self.all_pairs(4, 4)
        data = self.dataset_from_targets(fused, pairs, [4.0] * len(pairs))
        predictor = rec.train_predictor(fused, data, seed=0)
        assert rec.predict_rating(predictor, fused, 2, 3) == 4.0
        assert np.all(predictor.weights == 0.0)

    def test_linear_targets_reach_margin_accuracy(self):
        fused = make_fused(6, 5, 4, seed=3)
        pairs = self.all_pairs(6, 5)
        users = np.array([u for u, _ in pairs])
        items = np.array([v for _, v in pairs])
        feats = rec.pair_features(fused, users, items)
        by_col = (feats - feats.mean(0)) / feats.std(0)
        targets = 3.0 + 0.4 * by_col[:, 0] - 0.3 * by_col[:, 5]
        data = self.dataset_from_targets(fused, pairs, targets.tolist())
        predictor = rec.train_predictor(fused, data, seed=1)
        fitted = rec.predict_many(predictor, fused, users, items)
        assert np.abs(fitted - targets).mean() <= predictor.epsilon

    def test_beats_global_mean_on_signal_bearing_features(self):
        fused = make_fused(8, 8, 4, seed=5)
        rng = np.random.default_rng(7)
        # diagonal pairs first so the train dataset indexes rows identically
        # to the fused matrix
        off_diag = [(u, v) for u, v in self.all_pairs(8, 8) if u != v]
        rng.shuffle(off_diag)
        train_pairs = [(k, k) for k in range(8)] + off_diag[:32]
        test_pairs = off_diag[32:]

        all_users = np.array([u for u, _ in self.all_pairs(8, 8)])
        all_items = np.array([v for _, v in self.all_pairs(8, 8)])
        all_feats = rec.pair_features(fused, all_users, all_items)
        mu, sd = all_feats.mean(0), all_feats.std(0)

        def targets_for(pairs):
            users = np.array([u for u, _ in pairs])
            items = np.array([v for _, v in pairs])
            feats = (rec.pair_features(fused, users, items) - mu) / sd
            noise = rng.normal(0, 0.1, len(pairs))
            return np.clip(3.0 + 0.8 * feats[:, 1] + noise, 1.0, 5.0)

        train_y = targets_for(train_pairs)
        test_y = targets_for(test_pairs)
        train = self.dataset_from_targets(fused, train_pairs, train_y.tolist())
        predictor = rec.train_predictor(fused, train, seed=2)
        users = np.array([u for u, _ in test_pairs])
        items = np.array([v for _, v in test_pairs])
        preds = rec.predict_many(predictor, fused, users, items)
        model_mae = np.abs(preds - test_y).mean()
        mean_mae = np.abs(train_y.mean() - test_y).mean()
        assert model_mae < mean_mae

    def test_training_is_seed_deterministic(self):
        fused = make_fused(4, 4, 4)
        pairs = self.all_pairs(4, 4)
        rng = np.random.default_rng(9)
        data = self.dataset_from_targets(fused, pairs,
                                         rng.uniform(1, 5, len(pairs)).tolist())
        p1 = rec.train_predictor(fused, data, seed=4)
        p2 = rec.train_predictor(fused, data, seed=4)
        assert np.array_equal(p1.weights, p2.weights)
        assert p1.bias == p2.bias

    def test_matches_reference_minibatch_loop_bit_for_bit(self):
        rng = np.random.default_rng(12)
        fused = make_fused(30, 20, 6, seed=11)
        pairs = [(u, v) for u in range(30) for v in range(20)
                 if rng.uniform() < 0.4]
        data = self.dataset_from_targets(fused, pairs,
                                         rng.uniform(1, 5, len(pairs)).tolist())
        cfg = rec.PredictorConfig(epochs=5, batch_size=7)
        got = rec.train_predictor(fused, data, cfg, seed=3)

        # the plain loop: signs.mean() and the decay divided in every batch
        users = np.array([data.user_index[r.user_id] for r in data.records])
        items = np.array([data.item_index[r.item_id] for r in data.records])
        targets = np.array([r.overall for r in data.records])
        features = rec.pair_features(fused, users, items)
        n = len(targets)
        scale = features.std(axis=0)
        x = (features - features.mean(axis=0)) / np.where(scale > 0, scale, 1.0)
        w, b = np.zeros(x.shape[1]), float(targets.mean())
        order_rng = np.random.default_rng(3)
        for epoch in range(cfg.epochs):
            step = cfg.learning_rate / (1.0 + 0.01 * epoch)
            order = order_rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                residual = x[batch] @ w + b - targets[batch]
                signs = np.sign(residual) * (np.abs(residual) > cfg.epsilon)
                w -= step * ((signs @ x[batch]) / len(batch)
                             + (cfg.regularization / n) * w)
                b -= step * signs.mean()
        assert np.array_equal(got.weights, w)
        assert got.bias == b

    def test_empty_training_set_rejected(self):
        fused = make_fused(2, 2, 4)
        data = from_records([RatingRecord("u0", "i0", 3.0, (3.0,))])
        empty = type(data)(2, 2, 1, (), data.user_index, data.item_index)
        with pytest.raises(ValueError, match="empty"):
            rec.train_predictor(fused, empty)


class TestPredictRating:
    def test_zero_weights_return_bias(self):
        fused = make_fused(3, 3, 5)
        predictor = constant_predictor(5, bias=3.2)
        assert rec.predict_rating(predictor, fused, 0, 0) == 3.2

    def test_high_raw_output_clamps_to_five(self):
        fused = make_fused(2, 2, 3)
        predictor = constant_predictor(3, bias=6.3)
        assert rec.predict_rating(predictor, fused, 1, 1) == 5.0

    def test_low_raw_output_clamps_to_one(self):
        fused = make_fused(2, 2, 3)
        predictor = constant_predictor(3, bias=-1.0)
        assert rec.predict_rating(predictor, fused, 0, 1) == 1.0

    def test_unknown_indices_rejected(self):
        fused = make_fused(2, 2, 3)
        predictor = constant_predictor(3, bias=3.0)
        with pytest.raises(IndexError, match="user"):
            rec.predict_rating(predictor, fused, 5, 0)
        with pytest.raises(IndexError, match="item"):
            rec.predict_rating(predictor, fused, 0, 7)


# ---------------------------------------------------------------------------
# baselines

def pearson_oracle(ratings_u, ratings_v):
    common = sorted(set(ratings_u) & set(ratings_v))
    if len(common) < 2:
        return 0.0
    a = np.array([ratings_u[i] for i in common])
    b = np.array([ratings_v[i] for i in common])
    if a.std() == 0 or b.std() == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def knn_oracle(train, test, k_neighbors, sim_fn):
    """Loop-based reference for the KNN family."""
    by_user = {}
    for r in train.records:
        by_user.setdefault(r.user_id, {})[r.item_id] = r.overall
    global_mean = np.mean([r.overall for r in train.records])

    out = []
    for rec_ in test.records:
        mine = by_user.get(rec_.user_id)
        if mine is None:
            out.append(global_mean)
            continue
        scored = []
        for other, ratings in by_user.items():
            if other == rec_.user_id or rec_.item_id not in ratings:
                continue
            s = sim_fn(rec_.user_id, other)
            if s > 0:
                scored.append((s, other, ratings[rec_.item_id]))
        scored.sort(key=lambda t: (-t[0], list(by_user).index(t[1])))
        scored = scored[:k_neighbors]
        if not scored:
            out.append(np.mean(list(mine.values())) if mine else global_mean)
            continue
        weights = np.array([s for s, _, _ in scored])
        values = np.array([v for _, _, v in scored])
        out.append(float(weights @ values / weights.sum()))
    return np.array(out)


def random_dataset(seed, n_users=8, n_items=10, density=0.6, criteria=3):
    rng = np.random.default_rng(seed)
    recs = []
    for u in range(n_users):
        for v in range(n_items):
            if rng.uniform() < density:
                crit = tuple(float(rng.integers(1, 6)) for _ in range(criteria))
                overall = float(rng.integers(1, 6))
                recs.append(RatingRecord(f"u{u}", f"i{v}", overall, crit))
    return from_records(recs)


def sparse_ratings(data, criterion=None):
    """The library's rating matrix; criterion=None selects overall."""
    users, items, values = rec._record_indices(data)
    if criterion is not None:
        values = np.array([r.criteria[criterion] for r in data.records])
        rated = values != 0.0
        users, items, values = users[rated], items[rated], values[rated]
    return rec._rating_matrix(users, items, values, (data.num_users, data.num_items))


def dense_ratings(data, criterion=None):
    """Dense ratings and presence mask; a 0 criterion value is unrated."""
    ratings = np.zeros((data.num_users, data.num_items))
    present = np.zeros((data.num_users, data.num_items), dtype=bool)
    for r in data.records:
        u, v = data.user_index[r.user_id], data.item_index[r.item_id]
        value = r.overall if criterion is None else r.criteria[criterion]
        if criterion is not None and value == 0.0:
            continue
        ratings[u, v] = value
        present[u, v] = True
    return ratings, present


def dense_pearson(ratings, present):
    """The dense (users x users) formula the sparse similarities replace."""
    r = np.where(present, ratings, 0.0)
    w = present.astype(np.float64)
    n_common = w @ w.T
    sum_u = r @ w.T
    sum_v = sum_u.T
    dot_uv = r @ r.T
    sq_u = (r * r) @ w.T
    sq_v = sq_u.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = dot_uv - sum_u * sum_v / n_common
        var_u = sq_u - sum_u * sum_u / n_common
        var_v = sq_v - sum_v * sum_v / n_common
        sims = cov / np.sqrt(var_u * var_v)
    sims = np.where((n_common >= 2) & np.isfinite(sims), sims, 0.0)
    np.fill_diagonal(sims, 0.0)
    return np.clip(sims, -1.0, 1.0)


def mixed_dataset(seed, n_users=14, n_items=12, density=0.35, criteria=3):
    """Integer ratings with unrated zeros, sparse overlaps and constant users.

    Integers keep the dense formula exact on a constant user, which it
    otherwise scores with rounding noise (see test_constant_user_...).
    """
    rng = np.random.default_rng(seed)
    recs = []
    for u in range(n_users):
        for v in range(n_items):
            if rng.uniform() >= density:
                continue
            if u < 2:  # users 0 and 1 give every rated item the same score
                crit = tuple(float(u + 2) for _ in range(criteria))
                recs.append(RatingRecord(f"u{u}", f"i{v}", float(u + 2), crit))
                continue
            crit = tuple(float(rng.integers(1, 6)) if rng.uniform() >= 0.25 else 0.0
                         for _ in range(criteria))
            recs.append(RatingRecord(f"u{u}", f"i{v}", float(rng.integers(1, 6)), crit))
    return from_records(recs)


class TestSparsePearson:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("criterion", [None, 0, 1, 2])
    def test_matches_dense_formula(self, seed, criterion):
        data = mixed_dataset(seed)
        ratings, present = dense_ratings(data, criterion)
        n_common = present.astype(float) @ present.T.astype(float)
        assert ((n_common == 1) & ~np.eye(data.num_users, dtype=bool)).any()
        assert any(0.0 in r.criteria for r in data.records)
        sims = rec.pearson_user_similarities(sparse_ratings(data, criterion))
        assert sims.shape == (data.num_users, data.num_users)
        assert_allclose(sims.toarray(), dense_pearson(ratings, present),
                        rtol=0, atol=1e-9)

    def test_constant_user_has_zero_similarity(self):
        data = mixed_dataset(0)
        sims = rec.pearson_user_similarities(sparse_ratings(data)).toarray()
        assert np.all(sims[:2] == 0.0) and np.all(sims[:, :2] == 0.0)


class TestUserKnn:
    def test_clone_neighbor_dominates(self):
        recs = [
            RatingRecord("u0", "i0", 2.0, (2.0,)),
            RatingRecord("u0", "i1", 3.0, (3.0,)),
            RatingRecord("u0", "i2", 4.0, (4.0,)),
            RatingRecord("clone", "i0", 2.0, (2.0,)),
            RatingRecord("clone", "i1", 3.0, (3.0,)),
            RatingRecord("clone", "i2", 4.0, (4.0,)),
            RatingRecord("clone", "i3", 4.5, (4.5,)),
            RatingRecord("anti", "i0", 4.0, (4.0,)),
            RatingRecord("anti", "i1", 3.0, (3.0,)),
            RatingRecord("anti", "i2", 2.0, (2.0,)),
            RatingRecord("anti", "i3", 1.0, (1.0,)),
        ]
        train = from_records(recs)
        test = from_records([RatingRecord("u0", "i3", 4.0, (4.0,))])
        assert_allclose(rec.baseline_user_knn(train, test), [4.5], atol=1e-12)

    def test_no_positive_rater_falls_back_to_user_mean(self):
        recs = [
            RatingRecord("u0", "i0", 2.0, (2.0,)),
            RatingRecord("u0", "i1", 3.0, (3.0,)),
            RatingRecord("u0", "i2", 4.0, (4.0,)),
            RatingRecord("anti", "i0", 5.0, (5.0,)),
            RatingRecord("anti", "i1", 3.0, (3.0,)),
            RatingRecord("anti", "i2", 1.0, (1.0,)),
            RatingRecord("anti", "i3", 2.0, (2.0,)),
        ]
        train = from_records(recs)
        test = from_records([RatingRecord("u0", "i3", 3.0, (3.0,))])
        assert_allclose(rec.baseline_user_knn(train, test), [3.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        train = random_dataset(seed)
        test = random_dataset(seed + 100, density=0.2)
        by_user = {}
        for r in train.records:
            by_user.setdefault(r.user_id, {})[r.item_id] = r.overall

        def sim(u, v):
            return pearson_oracle(by_user.get(u, {}), by_user.get(v, {}))

        ours = rec.baseline_user_knn(train, test, k_neighbors=100)
        oracle = knn_oracle(train, test, 100, sim)
        assert_allclose(ours, oracle, atol=1e-10)


    @pytest.mark.parametrize("score, shared, own", [(2.7, 9, ()), (1.42, 3, (4.1,))])
    def test_constant_user_falls_back_to_user_mean(self, score, shared, own):
        # u0 gives every shared item one score, so its similarity to the
        # neighbour is 0, not rounding noise that would let the neighbour's
        # 5.0 stand in for u0's own mean. With an item of u0's own, the
        # centred scores are inexact and only the zero-variance bound
        # decides.
        recs = [RatingRecord("u0", f"i{k}", score, (score,)) for k in range(shared)]
        recs += [RatingRecord("u0", f"own{k}", y, (y,)) for k, y in enumerate(own)]
        recs += [RatingRecord("n", f"i{k}", float(k % 5 + 1), (float(k % 5 + 1),))
                 for k in range(shared)]
        recs.append(RatingRecord("n", "target", 5.0, (5.0,)))
        train = from_records(recs)
        test = from_records([RatingRecord("u0", "target", 3.0, (3.0,))])
        sims = rec.pearson_user_similarities(sparse_ratings(train))
        assert sims[0, 1] == 0.0
        user_mean = (score * shared + sum(own)) / (shared + len(own))
        assert_allclose(rec.baseline_user_knn(train, test), [user_mean],
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k_neighbors", [1, 2, 3])
    def test_top_k_breaks_ties_by_user_index(self, k_neighbors):
        # "clone" has similarity 1; t1, t2, t3 rate u0's items alike (0.9)
        # and disagree on the target, so k cuts through their tie. Each pads
        # its ratings to a mean of 3, which makes their similarities to u0
        # equal to the last bit, not only in exact arithmetic.
        mine = (1.0, 2.0, 4.0, 5.0)
        raters = [("t2", (2.0, 1.0, 4.0, 5.0), 4.0, 2.0),
                  ("clone", mine, 5.0, 1.0),
                  ("t1", (2.0, 1.0, 4.0, 5.0), 1.0, 5.0),
                  ("anti", (5.0, 4.0, 2.0, 1.0), 3.0, 3.0),
                  ("t3", (2.0, 1.0, 4.0, 5.0), 2.0, 4.0)]
        recs = [RatingRecord("u0", f"i{k}", y, (y,)) for k, y in enumerate(mine)]
        for name, values, target, pad in raters:
            recs += [RatingRecord(name, f"i{k}", y, (y,)) for k, y in enumerate(values)]
            recs.append(RatingRecord(name, "target", target, (target,)))
            recs.append(RatingRecord(name, "pad", pad, (pad,)))
        train = from_records(recs)
        test = from_records([RatingRecord("u0", "target", 3.0, (3.0,))])
        by_user = {}
        for r in train.records:
            by_user.setdefault(r.user_id, {})[r.item_id] = r.overall

        def sim(u, v):
            return pearson_oracle(by_user[u], by_user[v])

        assert sim("u0", "t1") == sim("u0", "t2") == sim("u0", "t3") > 0
        sims = rec.pearson_user_similarities(sparse_ratings(train))
        tied = [sims[0, train.user_index[t]] for t in ("t1", "t2", "t3")]
        assert tied[0] == tied[1] == tied[2] > 0
        assert_allclose(rec.baseline_user_knn(train, test, k_neighbors=k_neighbors),
                        knn_oracle(train, test, k_neighbors, sim), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k_neighbors", [1, 2, 3])
    def test_top_k_matches_loop_oracle(self, k_neighbors):
        train = random_dataset(5, n_users=12, n_items=10, density=0.7)
        test = random_dataset(105, n_users=12, n_items=10, density=0.3)
        by_user = {}
        for r in train.records:
            by_user.setdefault(r.user_id, {})[r.item_id] = r.overall

        def sim(u, v):
            return pearson_oracle(by_user.get(u, {}), by_user.get(v, {}))

        assert_allclose(rec.baseline_user_knn(train, test, k_neighbors=k_neighbors),
                        knn_oracle(train, test, k_neighbors, sim), rtol=0, atol=1e-10)


class TestMultiUserKnn:
    def test_single_criterion_equal_to_overall_matches_user_knn(self):
        rng = np.random.default_rng(11)
        recs = []
        for u in range(6):
            for v in range(8):
                if rng.uniform() < 0.6:
                    y = float(rng.integers(1, 6))
                    recs.append(RatingRecord(f"u{u}", f"i{v}", y, (y,)))
        train = from_records(recs)
        test = from_records([RatingRecord("u0", "i7", 3.0, (3.0,)),
                             RatingRecord("u1", "i0", 2.0, (2.0,))])
        assert_allclose(rec.baseline_multi_user_knn(train, test),
                        rec.baseline_user_knn(train, test), atol=1e-12)

    def test_opposed_criteria_cancel_to_zero_similarity(self):
        # two users agree perfectly on criteria 1-2 and disagree on 3-4
        recs = []
        for v, (c_ab) in enumerate([((1, 1), (1, 5)), ((3, 3), (3, 3)),
                                    ((5, 5), (5, 1))]):
            a, b = c_ab
            recs.append(RatingRecord("a", f"i{v}", 3.0,
                                     (float(a[0]), float(a[0]),
                                      float(a[1]), float(a[1]))))
            recs.append(RatingRecord("b", f"i{v}", 3.0,
                                     (float(b[0]), float(b[0]),
                                      float(b[1]), float(b[1]))))
        train = from_records(recs)
        sims = sum(rec.pearson_user_similarities(sparse_ratings(train, c))
                   for c in range(4)) / 4
        assert_allclose(sims[0, 1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop_oracle(self, seed):
        train = random_dataset(seed + 10)
        test = random_dataset(seed + 200, density=0.2)
        by_user_crit = [dict() for _ in range(train.num_criteria)]
        for r in train.records:
            for c in range(train.num_criteria):
                by_user_crit[c].setdefault(r.user_id, {})[r.item_id] = r.criteria[c]

        def sim(u, v):
            vals = [pearson_oracle(by_user_crit[c].get(u, {}),
                                   by_user_crit[c].get(v, {}))
                    for c in range(train.num_criteria)]
            return float(np.mean(vals))

        ours = rec.baseline_multi_user_knn(train, test, k_neighbors=100)
        oracle = knn_oracle(train, test, 100, sim)
        assert_allclose(ours, oracle, atol=1e-10)


    def test_planted_split_matches_loop_oracle(self):
        # per-criterion scores that cancel leave a mean of rounding noise,
        # which the similarity floor keeps out of the neighbourhood
        train, test = ev.prepared_data(ev.ExperimentConfig())
        by_user_crit = [dict() for _ in range(train.num_criteria)]
        for r in train.records:
            for c, value in enumerate(r.criteria):
                if value != 0.0:
                    by_user_crit[c].setdefault(r.user_id, {})[r.item_id] = value

        def sim(u, v):
            return float(np.mean([pearson_oracle(crit.get(u, {}), crit.get(v, {}))
                                  for crit in by_user_crit]))

        assert_allclose(rec.baseline_multi_user_knn(train, test),
                        knn_oracle(train, test, 100, sim), rtol=0, atol=1e-9)


def test_knn_baselines_stay_sparse():
    # 10k ratings over 4000 x 4000: one dense users x users or users x items
    # float array alone would take 128 MB
    rng = np.random.default_rng(0)
    n, per_user = 4000, 3
    items = np.concatenate([rng.permutation(n) for _ in range(per_user)])
    users = np.tile(np.arange(n), per_user)
    values = rng.integers(1, 6, size=(items.size, 3)).astype(float)
    recs = [RatingRecord(f"u{u}", f"i{v}", float(row.mean()), tuple(row.tolist()))
            for u, v, row in zip(users.tolist(), items.tolist(), values)]
    train = from_records(recs[:10_000], dedupe=True)
    test = from_records(recs[10_000:], dedupe=True)
    tracemalloc.start()
    try:
        rec.baseline_user_knn(train, test)
        rec.baseline_multi_user_knn(train, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert train.num_users == n and train.num_items == n
    assert peak < 16 * 2**20, peak


class TestMlr:
    def consistent_dataset(self, seed, n=40, criteria=3):
        rng = np.random.default_rng(seed)
        recs = []
        for k in range(n):
            crit = tuple(float(rng.integers(1, 6)) for _ in range(criteria))
            recs.append(RatingRecord(f"u{k % 7}", f"i{k // 7}",
                                     float(np.mean(crit)), crit))
        return from_records(recs)

    def test_exact_recovery_when_overall_is_mean_of_criteria(self):
        train = self.consistent_dataset(0)
        test = self.consistent_dataset(99, n=20)
        preds = rec.baseline_mlr(train, test)
        actual = np.array([r.overall for r in test.records])
        assert np.abs(preds - actual).mean() < 1e-8

    def test_noise_free_linear_train_mae_tiny(self):
        rng = np.random.default_rng(3)
        w, b = np.array([0.3, 0.5, 0.1]), 0.4
        recs = []
        for k in range(30):
            crit = rng.uniform(1, 5, size=3)
            y = float(np.clip(crit @ w + b, 1.0, 5.0))
            recs.append(RatingRecord(f"u{k % 5}", f"i{k // 5}", y,
                                     tuple(crit.tolist())))
        train = from_records(recs)
        preds = rec.baseline_mlr(train, train)
        actual = np.array([r.overall for r in train.records])
        assert np.abs(preds - actual).mean() < 1e-8

    def test_single_criterion_regression(self):
        recs = [RatingRecord(f"u{k}", "i0", 2.0 * c - 0.5, (c,))
                for k, c in enumerate([1.0, 1.5, 2.0, 2.5])]
        train = from_records(recs)
        preds = rec.baseline_mlr(train, train)
        assert_allclose(preds, [r.overall for r in train.records], atol=1e-10)

    def test_constant_criteria_engage_ridge(self):
        recs = [RatingRecord(f"u{k}", "i0", float(1 + k % 5), (3.0, 3.0))
                for k in range(10)]
        train = from_records(recs)
        preds = rec.baseline_mlr(train, train)
        assert np.all(np.isfinite(preds))
        assert np.all((preds >= 1.0) & (preds <= 5.0))

    def test_too_few_records_rejected(self):
        train = from_records([RatingRecord("u0", "i0", 3.0, (3.0, 3.0, 3.0))])
        with pytest.raises(ValueError, match="records"):
            rec.baseline_mlr(train, train)


def test_predictions_file_format(tmp_path):
    test = from_records([RatingRecord("u1", "i1", 4.0, (4.0,)),
                         RatingRecord("u2", "i1", 2.5, (2.5,))])
    path = tmp_path / "preds.csv"
    rec.write_predictions(test, np.array([3.75, 2.0]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "user_id,item_id,actual,predicted"
    assert lines[1] == "u1,i1,4.0,3.75"
    assert lines[2] == "u2,i1,2.5,2.0"
