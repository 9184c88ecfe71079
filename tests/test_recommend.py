"""Fusion, the rating head, and baseline predictors against hand oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.optimize import minimize

from mcgraph import evaluate as ev
from mcgraph import recommend as rec
from mcgraph.dataset import RatingDataset, RatingRecord, from_records


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
                              num_users=num_users)


def smoothed_objective(theta, x, y, epsilon, regularization):
    """The head's objective and gradient at theta = (w, b), written out
    piecewise: 0 inside the tube, quadratic over the HUBER band, linear past it."""
    w, b = theta[:-1], theta[-1]
    residual = x @ w + b - y
    excess = np.abs(residual) - epsilon
    band = (excess > 0) & (excess < rec.HUBER)
    beyond = excess >= rec.HUBER
    loss = np.where(band, excess ** 2 / (2 * rec.HUBER),
                    np.where(beyond, excess - rec.HUBER / 2, 0.0))
    slope = np.sign(residual) * np.where(band, excess / rec.HUBER,
                                         beyond.astype(float))
    value = loss.sum() + 0.5 * regularization * w @ w
    return value, np.append(x.T @ slope + regularization * w, slope.sum())


def constant_predictor(width, bias):
    return rec.RatingPredictor(weights=np.zeros(2 * width), bias=bias,
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
        assert rec.predict_many(predictor, fused, np.array([2]), np.array([3]))[0] == 4.0
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
        assert np.abs(fitted - targets).mean() <= rec.PredictorConfig().epsilon

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
        other = rec.train_predictor(fused, data, seed=5)  # the fit draws nothing
        for p in (p2, other):
            assert np.array_equal(p1.weights, p.weights)
            assert p1.bias == p.bias

    def random_head_problem(self, seed=12):
        """Standardised features and targets of ~240 random ratings, as
        train_predictor builds them."""
        rng = np.random.default_rng(seed)
        fused = make_fused(30, 20, 6, seed=seed - 1)
        pairs = [(u, v) for u in range(30) for v in range(20)
                 if rng.uniform() < 0.4]
        data = self.dataset_from_targets(fused, pairs,
                                         rng.uniform(1, 5, len(pairs)).tolist())
        features = rec.pair_features(fused, data.users, data.items)
        scale = features.std(axis=0)
        x = (features - features.mean(axis=0)) / np.where(scale > 0, scale, 1.0)
        return fused, data, x, data.overall

    @pytest.mark.parametrize("epsilon, regularization",
                             [(0.1, 1.0), (0.3, 0.01), (0.0, 0.0)])
    def test_reaches_smoothed_objective_optimum(self, epsilon, regularization):
        fused, data, x, y = self.random_head_problem()
        cfg = rec.PredictorConfig(epsilon=epsilon, regularization=regularization)
        got = rec.train_predictor(fused, data, cfg)
        newton = np.append(got.weights, got.bias)

        def objective(theta):
            return smoothed_objective(theta, x, y, epsilon, regularization)

        tolerance = 1e-6
        solver = minimize(objective, np.zeros(x.shape[1] + 1), jac=True,
                          method="L-BFGS-B",
                          options={"gtol": tolerance, "ftol": 1e-15,
                                   "maxiter": 20000})
        value, gradient = objective(newton)
        assert value <= solver.fun * (1 + 1e-8)
        assert np.linalg.norm(gradient) <= tolerance

    @pytest.mark.parametrize("epsilon, regularization",
                             [(0.1, 1.0), (0.0, 0.0)])
    def test_objective_never_increases(self, epsilon, regularization):
        _, _, x, y = self.random_head_problem(seed=21)
        w, b, history = rec.newton_fit(x, y, epsilon, regularization, max_steps=200)
        assert len(history) >= 3
        assert np.all(np.diff(history) <= 0.0)
        start = smoothed_objective(np.append(np.zeros(x.shape[1]), y.mean()),
                                   x, y, epsilon, regularization)[0]
        end = smoothed_objective(np.append(w, b), x, y, epsilon, regularization)[0]
        assert_allclose([history[0], history[-1]], [start, end], rtol=1e-12)

    def test_step_cap_binds(self):
        _, _, x, y = self.random_head_problem()
        w, b, history = rec.newton_fit(x, y, 0.1, 1.0, max_steps=1)
        assert len(history) == 2
        assert history[1] < history[0]

    @pytest.mark.parametrize("epsilon, regularization, columns", [
        (0.0, 1.0, "distinct"), (0.1, 0.0, "distinct"),
        (0.1, 1.0, "duplicate"), (0.1, 1.0, "constant"),
        (0.0, 0.0, "duplicate"), (0.0, 0.0, "constant"),
    ])
    def test_degenerate_inputs_give_finite_fits(self, epsilon, regularization,
                                                 columns):
        fused, data, _, _ = self.random_head_problem(seed=33)
        if columns == "duplicate":
            fused.matrix[:, 1] = fused.matrix[:, 0]
            fused.matrix[:, 3] = fused.matrix[:, 0]
        elif columns == "constant":
            fused.matrix[:, 2] = 0.7
        cfg = rec.PredictorConfig(epsilon=epsilon, regularization=regularization)
        predictor = rec.train_predictor(fused, data, cfg)
        assert np.all(np.isfinite(predictor.weights))
        assert np.isfinite(predictor.bias)
        predicted = rec.predict_many(predictor, fused, data.users, data.items)
        assert np.all(np.isfinite(predicted))
        assert np.abs(predicted - data.overall).mean() \
            < np.abs(data.overall - data.overall.mean()).mean()

    @pytest.mark.parametrize("field, value, rule", [
        ("epochs", 0, "at least 1"), ("epochs", -3, "at least 1"),
        ("epsilon", -0.1, "at least 0"), ("regularization", -1.0, "at least 0"),
        ("regularization", float("nan"), "at least 0"),
    ])
    def test_invalid_config_rejected_naming_field(self, field, value, rule):
        with pytest.raises(ValueError, match=f"predictor {field} must be {rule}"):
            rec.PredictorConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -5.0),
        ("learning_rate", float("nan")),
        pytest.param("batch_size", 0, id="batch_size"),
    ])
    def test_removed_fields_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            rec.PredictorConfig(**{field: value})

    def test_boundary_config_accepted(self):
        cfg = rec.PredictorConfig(epochs=1, epsilon=0.0, regularization=0.0)
        assert cfg.epochs == 1 and cfg.epsilon == 0.0

    def test_empty_training_set_rejected(self):
        fused = make_fused(2, 2, 4)
        data = from_records([RatingRecord("u0", "i0", 3.0, (3.0,))])
        none = np.zeros(0, dtype=np.intp)
        empty = type(data)(data.user_ids, data.item_ids, none, none, np.zeros(0),
                           np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            rec.train_predictor(fused, empty)


class TestPredictRating:
    def predict_one(self, predictor, fused, user, item):
        return rec.predict_many(predictor, fused, np.array([user]), np.array([item]))[0]

    def test_zero_weights_return_bias(self):
        fused = make_fused(3, 3, 5)
        predictor = constant_predictor(5, bias=3.2)
        assert self.predict_one(predictor, fused, 0, 0) == 3.2

    def test_high_raw_output_clamps_to_five(self):
        fused = make_fused(2, 2, 3)
        predictor = constant_predictor(3, bias=6.3)
        assert self.predict_one(predictor, fused, 1, 1) == 5.0

    def test_low_raw_output_clamps_to_one(self):
        fused = make_fused(2, 2, 3)
        predictor = constant_predictor(3, bias=-1.0)
        assert self.predict_one(predictor, fused, 0, 1) == 1.0


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
    users, items, values = data.users, data.items, data.overall
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


def composite_pearson(ratings):
    """The composite that `pearson_user_similarities` replaces: Pearson sums
    from four (users x users) sparse products, read with fancy indexing."""
    def entries(matrix, rows, cols):
        if rows.size == 0:
            return np.zeros(0)
        return matrix[rows, cols]

    def with_values(values):
        return sparse.csr_array((values, ratings.indices, ratings.indptr),
                                shape=ratings.shape)

    centred = ratings.data - np.repeat(rec._row_means(ratings), np.diff(ratings.indptr))
    pattern = with_values(np.ones_like(centred))
    pattern_t = pattern.T.tocsr()
    common = (pattern @ pattern_t).tocoo()
    upper = (common.row < common.col) & (common.data >= 2)
    rows, cols, n = common.row[upper], common.col[upper], common.data[upper]
    x = with_values(centred)
    sums = x @ pattern_t
    squares = with_values(centred * centred) @ pattern_t
    sum_u, sum_v = entries(sums, rows, cols), entries(sums, cols, rows)
    sq_u, sq_v = entries(squares, rows, cols), entries(squares, cols, rows)
    cov = entries(x @ x.T, rows, cols) - sum_u * sum_v / n
    var_u = sq_u - sum_u * sum_u / n
    var_v = sq_v - sum_v * sum_v / n
    bound = 4 * n * np.finfo(float).eps
    varies = (var_u > bound * sq_u) & (var_v > bound * sq_v)
    rows, cols = rows[varies], cols[varies]
    sims = np.clip(cov[varies] / np.sqrt(var_u[varies] * var_v[varies]), -1.0, 1.0)
    return sparse.csr_array((np.concatenate([sims, sims]),
                             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                            shape=(ratings.shape[0], ratings.shape[0]))


def assert_same_matrix(ours, reference):
    assert ours.shape == reference.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ours, name), getattr(reference, name)), name


@st.composite
def pearson_matrices(draw):
    """Small rating matrices with random cells around four planted users:
    `cancel` rates items 0 and 1 with 3 and 4, so its centred values sum to
    exactly 0 over any pair that shares both; `two` shares exactly those two
    items with it, `one` exactly item 0, and a fourth user rates nothing.
    Values are halves, so other sums cancel exactly too."""
    num_items = draw(st.integers(3, 7))
    num_random = draw(st.integers(0, 6))
    value = st.sampled_from([1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0])
    cancel = {0: 3.0, 1: 4.0}
    two = {0: draw(value), 1: draw(value)}
    one = {0: draw(value), 2: draw(value)}
    rows = [cancel, two, one, {}]
    for _ in range(num_random):
        items = draw(st.sets(st.integers(0, num_items - 1), max_size=num_items))
        rows.append({item: draw(value) for item in items})
    order = draw(st.permutations(range(len(rows))))
    cells = [(user, item, rating) for user, row in enumerate(rows[k] for k in order)
             for item, rating in row.items()]
    users, items, values = (np.array(column) for column in zip(*cells))
    return rec._rating_matrix(users.astype(np.intp), items.astype(np.intp), values,
                              (len(rows), num_items))


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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("criterion", [None, 0, 1, 2])
    def test_equals_composite(self, seed, criterion):
        ratings = sparse_ratings(mixed_dataset(seed), criterion)
        assert_same_matrix(rec.pearson_user_similarities(ratings),
                           composite_pearson(ratings))

    @given(pearson_matrices())
    @settings(max_examples=150, deadline=None)
    def test_equals_composite_on_cancelling_sums(self, ratings):
        assert_same_matrix(rec.pearson_user_similarities(ratings),
                           composite_pearson(ratings))

    def test_product_drops_an_exactly_cancelling_sum(self):
        # the case the strategy plants: user 0's centred 3 and 4 sum to 0
        # over user 1's items, so the product stores no entry there and the
        # composite reads 0 where the pair's own sum is exactly 0
        ratings = rec._rating_matrix(np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 2]),
                                     np.array([3.0, 4.0, 1.0, 5.0, 2.0]), (2, 3))
        centred = ratings.data - np.repeat(rec._row_means(ratings), np.diff(ratings.indptr))
        x = sparse.csr_array((centred, ratings.indices, ratings.indptr), shape=ratings.shape)
        pattern = sparse.csr_array((np.ones_like(centred), ratings.indices, ratings.indptr),
                                   shape=ratings.shape)
        sums = (x @ pattern.T).tocoo()
        stored = set(zip(sums.row.tolist(), sums.col.tolist()))
        assert (0, 1) not in stored and (1, 0) in stored
        ours = rec.pearson_user_similarities(ratings)
        assert_same_matrix(ours, composite_pearson(ratings))
        assert ours[[0], [1]].tolist() == [1.0]

    @staticmethod
    def wide_ratings():
        """A few dozen ratings of 8 users near the top of 60,000 on 8 items
        near the top of 40,000: users x items and users x users both exceed
        2**31, so a key built as row * columns + column in int32 wraps."""
        num_users, num_items = 60_000, 40_000
        rng = np.random.default_rng(3)
        raters = num_users - 1 - np.arange(8) * 3001
        shared = num_items - 1 - np.arange(8) * 4999
        users = np.repeat(raters, 6)
        items = np.concatenate([rng.choice(shared, 6, replace=False) for _ in raters])
        values = rng.integers(1, 6, users.size).astype(float)
        return users, items, values, (num_users, num_items)

    @pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
    def test_int64_keys(self, index_dtype):
        # scipy keeps int32 index arrays when it is given them, and
        # int32 * int stays int32
        users, items, values, shape = self.wide_ratings()
        ratings = rec._rating_matrix(users, items, values, shape)
        ratings = sparse.csr_array((ratings.data, ratings.indices.astype(index_dtype),
                                    ratings.indptr.astype(index_dtype)), shape=shape)
        assert ratings.indices.dtype == index_dtype
        sims = rec.pearson_user_similarities(ratings)
        assert_same_matrix(sims, composite_pearson(ratings))
        assert sims.nnz > 20

    def test_knn_reads_int64_keys(self):
        # raters[0] asks for an item that the other seven rated 1 to 7
        users, items, values, (num_users, num_items) = self.wide_ratings()
        raters = users[::6]
        target, neighbours = num_items - 1 - 8 * 4999, raters[1:]
        users = np.concatenate([users, neighbours])
        items = np.concatenate([items, np.full(neighbours.size, target)])
        values = np.concatenate([values, np.arange(1.0, 1.0 + neighbours.size)])
        user_ids = np.array([f"u{k}" for k in range(num_users)], dtype=object)
        item_ids = np.array([f"i{k}" for k in range(num_items)], dtype=object)
        train = RatingDataset(user_ids, item_ids, users, items, values, values[:, None])
        test = RatingDataset(user_ids, item_ids, raters[:1], np.array([target]),
                             np.array([3.0]), np.array([[3.0]]))
        weights = composite_pearson(
            rec._rating_matrix(users, items, values, (num_users, num_items))
        )[np.full(neighbours.size, raters[0]), neighbours]
        weights = np.where(weights > rec.SIMILARITY_FLOOR, weights, 0.0)
        assert np.count_nonzero(weights) >= 2
        expected = weights @ np.arange(1.0, 1.0 + neighbours.size) / weights.sum()
        assert_allclose(rec.baseline_user_knn(train, test), [expected],
                        rtol=0, atol=1e-12)

    def test_no_pair_sharing_two_items_gives_zero_matrix(self):
        # every pair shares at most one item
        users = np.array([0, 0, 1, 1, 2, 2, 3])
        items = np.array([0, 1, 1, 2, 2, 0, 3])
        ratings = rec._rating_matrix(users, items, np.array([1.0, 5.0, 2.0, 4.0, 3.0, 1.0, 2.0]),
                                     (5, 4))
        sims = rec.pearson_user_similarities(ratings)
        assert isinstance(sims, sparse.csr_array)
        assert sims.shape == (5, 5) and sims.nnz == 0

    def test_criterion_nobody_rated_gives_zero_matrix(self):
        empty = np.zeros(0, dtype=np.intp)
        ratings = rec._rating_matrix(empty, empty, np.zeros(0), (6, 4))
        sims = rec.pearson_user_similarities(ratings)
        assert isinstance(sims, sparse.csr_array)
        assert sims.shape == (6, 6) and sims.nnz == 0

    def test_unsorted_rows_rejected(self):
        ratings = sparse.csr_array((np.array([4.0, 2.0, 1.0]), np.array([1, 0, 0]),
                                    np.array([0, 2, 3])), shape=(2, 2))
        with pytest.raises(ValueError, match="sorted"):
            rec.pearson_user_similarities(ratings)


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
    # a repeated pair keeps its last values at its first position, as the
    # loader does
    train, test = (from_records({(r.user_id, r.item_id): r for r in part}.values())
                   for part in (recs[:10_000], recs[10_000:]))
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

    def test_constant_criteria_predict_the_target_mean(self):
        # a rank-1 design: every column is constant, so every fit predicts
        # one value, and least squares makes it the target mean 3
        recs = [RatingRecord(f"u{k}", "i0", float(1 + k % 5), (3.0, 3.0))
                for k in range(10)]
        train = from_records(recs)
        preds = rec.baseline_mlr(train, train)
        assert_allclose(preds, np.full(10, 3.0), rtol=0, atol=1e-12)

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
