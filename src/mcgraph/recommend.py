"""Embedding fusion, the rating head, and classical baselines.

Per-view embeddings concatenate into one fused matrix; a rating for
(user, item) comes from a linear margin-insensitive regressor over the
stacked pair features [F_user || F_item], trained by seeded minibatch
subgradient descent. UserKNN, its multi-criteria variant, and multiple
linear regression serve as reference predictors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import RatingDataset

RATING_MIN = 1.0
RATING_MAX = 5.0


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

def _rating_matrices(data: RatingDataset, criterion: int | None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Dense ratings and presence mask; criterion=None selects overall."""
    n, m = data.num_users, data.num_items
    ratings = np.zeros((n, m))
    present = np.zeros((n, m), dtype=bool)
    for rec in data.records:
        u, v = data.user_index[rec.user_id], data.item_index[rec.item_id]
        value = rec.overall if criterion is None else rec.criteria[criterion]
        if criterion is not None and value == 0.0:
            continue
        ratings[u, v] = value
        present[u, v] = True
    return ratings, present


def pearson_user_similarities(ratings: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Pairwise sample Pearson over each pair's co-rated items.

    Pairs with fewer than two common items, or zero variance on the common
    support, get similarity 0.
    """
    r = np.where(present, ratings, 0.0)
    w = present.astype(np.float64)
    n_common = w @ w.T
    sum_u = r @ w.T        # sum of u's ratings over the common support
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


def _knn_predictions(train: RatingDataset, test: RatingDataset,
                     sims: np.ndarray, k_neighbors: int) -> np.ndarray:
    """Similarity-weighted neighbor mean with user-mean then global-mean fallback."""
    ratings, present = _rating_matrices(train, criterion=None)
    user_sums = ratings.sum(axis=1)
    user_counts = present.sum(axis=1)
    global_mean = ratings[present].mean()
    user_means = np.where(user_counts > 0, user_sums / np.maximum(user_counts, 1),
                          global_mean)

    out = np.empty(len(test.records))
    for idx, rec in enumerate(test.records):
        u = train.user_index.get(rec.user_id)
        v = train.item_index.get(rec.item_id)
        if u is None:
            out[idx] = global_mean
            continue
        if v is None:
            out[idx] = user_means[u]
            continue
        raters = np.flatnonzero(present[:, v])
        weights = sims[u, raters]
        positive = weights > 0
        raters, weights = raters[positive], weights[positive]
        if raters.size == 0:
            out[idx] = user_means[u] if user_counts[u] > 0 else global_mean
            continue
        if raters.size > k_neighbors:
            top = np.argsort(-weights, kind="stable")[:k_neighbors]
            raters, weights = raters[top], weights[top]
        out[idx] = np.dot(weights, ratings[raters, v]) / weights.sum()
    return out


def baseline_user_knn(train: RatingDataset, test: RatingDataset,
                      k_neighbors: int = 100) -> np.ndarray:
    """Pearson-on-overall user KNN; positive-similarity neighbors only."""
    ratings, present = _rating_matrices(train, criterion=None)
    sims = pearson_user_similarities(ratings, present)
    return _knn_predictions(train, test, sims, k_neighbors)


def baseline_multi_user_knn(train: RatingDataset, test: RatingDataset,
                            k_neighbors: int = 100) -> np.ndarray:
    """User KNN with similarities averaged over per-criterion Pearson scores."""
    sims = np.zeros((train.num_users, train.num_users))
    for c in range(train.num_criteria):
        ratings, present = _rating_matrices(train, criterion=c)
        sims += pearson_user_similarities(ratings, present)
    sims /= train.num_criteria
    return _knn_predictions(train, test, sims, k_neighbors)


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
