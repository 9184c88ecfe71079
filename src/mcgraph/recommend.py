"""Embedding fusion, the rating head, and classical baselines.

Per-view embeddings concatenate into one fused matrix; a rating for
(user, item) comes from a linear margin-insensitive regressor over the
stacked pair features [F_user || F_item], trained by seeded minibatch
subgradient descent. UserKNN, its multi-criteria variant, and multiple
linear regression serve as reference predictors.

The KNN baselines never build a dense (users x items) or (users x users)
array. Ratings live in one sparse CSR per criterion; user-user Pearson comes
from sparse products of the pattern, the user-centred values and their
squares, so only pairs that share an item cost anything. A pair whose
variance on the common items is within rounding of zero (a user who gave
those items one score) has similarity 0. MultiUserKNN averages the
per-criterion scores, and a neighbor counts only above SIMILARITY_FLOOR,
which keeps out the rounding noise left where the scores cancel. All test
pairs are scored at once: the item's raters come from the CSC form, the
top-k is ordered by (-similarity, user index).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .dataset import RatingDataset

RATING_MIN = 1.0
RATING_MAX = 5.0
# a KNN neighbor counts only above this similarity: per-criterion scores that
# cancel (+1, -1, 0) leave a rounding-noise mean of about 1e-12, and no score
# on the planted or the 50k-rating sets lies in (1e-9, 1e-6]
SIMILARITY_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class FusedEmbedding:
    matrix: np.ndarray  # (num_users + num_items, num_views * view_dim)
    num_users: int
    view_dim: int

    @property
    def num_items(self) -> int:
        return self.matrix.shape[0] - self.num_users

    def user_row(self, user: int) -> np.ndarray:
        if not 0 <= user < self.num_users:
            raise IndexError(f"unknown user index {user}")
        return self.matrix[user]

    def item_row(self, item: int) -> np.ndarray:
        if not 0 <= item < self.num_items:
            raise IndexError(f"unknown item index {item}")
        return self.matrix[self.num_users + item]


def fuse(embeddings: Sequence[np.ndarray], num_users: int) -> FusedEmbedding:
    """Concatenate per-view embeddings row-wise, in criterion order."""
    shapes = {e.shape for e in embeddings}
    if len(shapes) != 1:
        raise ValueError(f"view embeddings disagree in shape: {sorted(shapes)}")
    matrix = np.concatenate(list(embeddings), axis=1)
    return FusedEmbedding(matrix=matrix, num_users=num_users,
                          view_dim=embeddings[0].shape[1])


# ---------------------------------------------------------------------------
# rating head

@dataclass(frozen=True)
class PredictorConfig:
    epsilon: float = 0.1
    regularization: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 32


@dataclass(frozen=True, eq=False)
class RatingPredictor:
    weights: np.ndarray        # (2 * num_views * view_dim,)
    bias: float
    epsilon: float
    regularization: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def raw(self, features: np.ndarray) -> np.ndarray:
        standardized = (features - self.feature_mean) / self.feature_scale
        return standardized @ self.weights + self.bias


def pair_features(fused: FusedEmbedding, users: np.ndarray,
                  items: np.ndarray) -> np.ndarray:
    return np.concatenate([fused.matrix[users],
                           fused.matrix[fused.num_users + items]], axis=1)


def _record_indices(data: RatingDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    users = np.array([data.user_index[r.user_id] for r in data.records], dtype=np.intp)
    items = np.array([data.item_index[r.item_id] for r in data.records], dtype=np.intp)
    targets = np.array([r.overall for r in data.records])
    return users, items, targets


def train_predictor(fused: FusedEmbedding, train: RatingDataset,
                    cfg: PredictorConfig = PredictorConfig(),
                    seed: int = 0) -> RatingPredictor:
    """Fit the margin-insensitive linear head on [F_user || F_item] features.

    Objective: mean_i max(0, |w.x_i + b - y_i| - epsilon)
               + regularization/(2n) * ||w||^2,
    minimized by minibatch subgradient descent with a decaying step size.
    Weights start at zero and the bias at the target mean, so a constant
    target column is fit exactly without any descent steps firing.
    """
    if len(train.records) == 0:
        raise ValueError("cannot train the rating head on an empty dataset")
    users, items, targets = _record_indices(train)
    features = pair_features(fused, users, items)
    n, width = features.shape

    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    x = (features - mean) / scale

    w = np.zeros(width)
    b = float(targets.mean())
    rng = np.random.default_rng(seed)
    decay = cfg.regularization / n
    for epoch in range(cfg.epochs):
        step = cfg.learning_rate / (1.0 + 0.01 * epoch)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            xb, yb = x[batch], targets[batch]
            residual = xb @ w + b - yb
            active = np.abs(residual) > cfg.epsilon
            signs = np.sign(residual) * active
            grad_w = (signs @ xb) / len(batch) + decay * w
            grad_b = signs.sum() / len(batch)  # signs.mean() without its overhead
            w -= step * grad_w
            b -= step * grad_b
    return RatingPredictor(weights=w, bias=b, epsilon=cfg.epsilon,
                           regularization=cfg.regularization,
                           feature_mean=mean, feature_scale=scale)


def predict_rating(predictor: RatingPredictor, fused: FusedEmbedding,
                   user: int, item: int) -> float:
    features = np.concatenate([fused.user_row(user), fused.item_row(item)])
    raw = float(predictor.raw(features[None, :])[0])
    return float(np.clip(raw, RATING_MIN, RATING_MAX))


def predict_many(predictor: RatingPredictor, fused: FusedEmbedding,
                 users: np.ndarray, items: np.ndarray) -> np.ndarray:
    raw = predictor.raw(pair_features(fused, users, items))
    return np.clip(raw, RATING_MIN, RATING_MAX)


# ---------------------------------------------------------------------------
# baselines

def _rating_matrix(users: np.ndarray, items: np.ndarray, values: np.ndarray,
                   shape: tuple[int, int]) -> sparse.csr_array:
    """(users x items) CSR holding one stored entry per given rating.

    Rows keep their items sorted, and a stored value of 0 stays an entry:
    the pattern, not the value, says who rated what.
    """
    order = np.lexsort((items, users))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(users, minlength=shape[0]))])
    return sparse.csr_array((values[order], items[order], indptr), shape=shape)


def _row_means(ratings: sparse.csr_array) -> np.ndarray:
    """Mean of each row's stored entries; 0 for a row without any."""
    counts = np.diff(ratings.indptr)
    sums = np.bincount(np.repeat(np.arange(counts.size), counts),
                       weights=ratings.data, minlength=counts.size)
    return sums / np.maximum(counts, 1)


def _entries(matrix: sparse.csr_array, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """matrix[rows, cols] as a vector, 0 where nothing is stored."""
    if rows.size == 0:  # scipy gives an empty sparse array, not a vector
        return np.zeros(0)
    return matrix[rows, cols]


def pearson_user_similarities(ratings: sparse.csr_array) -> sparse.csr_array:
    """Pairwise sample Pearson over each pair's co-rated items.

    `ratings` holds one stored entry per rating. The result is a sparse
    (users x users) matrix: pairs with fewer than two common items, or zero
    variance on the common support, have similarity 0, as has the diagonal.
    Only pairs that share an item are ever computed.
    """
    def with_values(values: np.ndarray) -> sparse.csr_array:
        return sparse.csr_array((values, ratings.indices, ratings.indptr),
                                shape=ratings.shape)

    # Pearson is unchanged by a per-user shift; centring on each user's own
    # mean cuts the cancellation in `sq - sum*sum/n`
    centred = ratings.data - np.repeat(_row_means(ratings), np.diff(ratings.indptr))
    pattern = with_values(np.ones_like(centred))
    pattern_t = pattern.T.tocsr()
    common = (pattern @ pattern_t).tocoo()
    # one common item leaves zero variance anyway; most sharing pairs have
    # only one, so dropping them here saves the lookups below
    upper = (common.row < common.col) & (common.data >= 2)
    rows, cols, n = common.row[upper], common.col[upper], common.data[upper]

    x = with_values(centred)
    sums = x @ pattern_t                          # [u, v]: u's values over v's items
    squares = with_values(centred * centred) @ pattern_t
    sum_u, sum_v = _entries(sums, rows, cols), _entries(sums, cols, rows)
    sq_u, sq_v = _entries(squares, rows, cols), _entries(squares, cols, rows)
    cov = _entries(x @ x.T, rows, cols) - sum_u * sum_v / n
    var_u = sq_u - sum_u * sum_u / n
    var_v = sq_v - sum_v * sum_v / n
    # equal values on the common support have zero variance, but rounding
    # leaves up to about 3*n*eps*sq of it, whatever order the sums run in;
    # anything within 4*n*eps*sq counts as constant
    bound = 4 * n * np.finfo(float).eps
    varies = (var_u > bound * sq_u) & (var_v > bound * sq_v)
    rows, cols = rows[varies], cols[varies]
    sims = np.clip(cov[varies] / np.sqrt(var_u[varies] * var_v[varies]), -1.0, 1.0)
    return sparse.csr_array((np.concatenate([sims, sims]),
                             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                            shape=(ratings.shape[0], ratings.shape[0]))


def _knn_predictions(ratings: sparse.csr_array, train: RatingDataset,
                     test: RatingDataset, sims: sparse.csr_array,
                     k_neighbors: int) -> np.ndarray:
    """Similarity-weighted neighbor mean with user-mean then global-mean fallback.

    A test pair's neighbors are its item's raters whose similarity to the
    user exceeds SIMILARITY_FLOOR; the k_neighbors best count, ties going to
    the lower user index. All test pairs are scored at once.
    """
    global_mean = ratings.data.mean()
    user_means = np.where(np.diff(ratings.indptr) > 0, _row_means(ratings), global_mean)
    users = np.array([train.user_index.get(r.user_id, -1) for r in test.records],
                     dtype=np.intp)
    items = np.array([train.item_index.get(r.item_id, -1) for r in test.records],
                     dtype=np.intp)
    out = np.where(users >= 0, user_means[users], global_mean)

    # one candidate per (test pair, rater of its item), read off the item's column
    by_item = ratings.tocsc()
    scored = np.flatnonzero((users >= 0) & (items >= 0))
    starts = by_item.indptr[items[scored]]
    lengths = by_item.indptr[items[scored] + 1] - starts
    pair = np.repeat(scored, lengths)
    slot = np.arange(pair.size) + np.repeat(starts - (np.cumsum(lengths) - lengths),
                                            lengths)
    raters = by_item.indices[slot]
    weights = _entries(sims, users[pair], raters)
    keep = weights > SIMILARITY_FLOOR
    pair, slot, raters, weights = pair[keep], slot[keep], raters[keep], weights[keep]

    order = np.lexsort((raters, -weights, pair))
    pair, slot, weights = pair[order], slot[order], weights[order]
    rank = np.arange(pair.size) - np.searchsorted(pair, pair)  # within its test pair
    top = rank < k_neighbors
    pair, slot, weights = pair[top], slot[top], weights[top]
    num = np.bincount(pair, weights=weights * by_item.data[slot], minlength=out.size)
    den = np.bincount(pair, weights=weights, minlength=out.size)
    found = den > 0
    out[found] = num[found] / den[found]
    return out


def baseline_user_knn(train: RatingDataset, test: RatingDataset,
                      k_neighbors: int = 100) -> np.ndarray:
    """Pearson-on-overall user KNN; neighbors above SIMILARITY_FLOOR only."""
    users, items, overall = _record_indices(train)
    ratings = _rating_matrix(users, items, overall, (train.num_users, train.num_items))
    sims = pearson_user_similarities(ratings)
    return _knn_predictions(ratings, train, test, sims, k_neighbors)


def baseline_multi_user_knn(train: RatingDataset, test: RatingDataset,
                            k_neighbors: int = 100) -> np.ndarray:
    """User KNN with similarities averaged over per-criterion Pearson scores.

    A criterion value of 0 means unrated and leaves no entry in that
    criterion's ratings.
    """
    users, items, overall = _record_indices(train)
    shape = (train.num_users, train.num_items)
    criteria = np.array([rec.criteria for rec in train.records])
    sims = sparse.csr_array((train.num_users, train.num_users))
    for values in criteria.T:
        rated = values != 0.0
        sims = sims + pearson_user_similarities(
            _rating_matrix(users[rated], items[rated], values[rated], shape))
    sims = sims / train.num_criteria
    return _knn_predictions(_rating_matrix(users, items, overall, shape),
                            train, test, sims, k_neighbors)


def baseline_mlr(train: RatingDataset, test: RatingDataset) -> np.ndarray:
    """Least-squares fit of the overall rating on the criteria ratings."""
    if len(train.records) < train.num_criteria + 1:
        raise ValueError(
            f"multiple linear regression needs at least {train.num_criteria + 1} "
            f"records, got {len(train.records)}")
    design = np.array([rec.criteria for rec in train.records])
    design = np.column_stack([design, np.ones(len(train.records))])
    targets = np.array([rec.overall for rec in train.records])

    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < design.shape[1]:
        gram = design.T @ design + 1e-6 * np.eye(design.shape[1])
        coef = np.linalg.solve(gram, design.T @ targets)

    test_design = np.array([rec.criteria for rec in test.records])
    test_design = np.column_stack([test_design, np.ones(len(test.records))])
    return np.clip(test_design @ coef, RATING_MIN, RATING_MAX)


def write_predictions(test: RatingDataset, predicted: np.ndarray,
                      path: str | Path) -> None:
    lines = ["user_id,item_id,actual,predicted"]
    for rec, value in zip(test.records, predicted):
        lines.append(f"{rec.user_id},{rec.item_id},{rec.overall!r},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
