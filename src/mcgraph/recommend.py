"""Embedding fusion, the rating head, and classical baselines.

Per-view embeddings concatenate into one fused matrix; a rating for
(user, item) comes from a linear margin-insensitive regressor over the
stacked pair features [F_user || F_item]. The regressor is fitted by a
damped Newton method on the epsilon-insensitive loss with its hinge
smoothed over a band of width HUBER beyond the tube, as in Chapelle 2007
("Training a support vector machine in the primal"): each step is one
(p+1)-square solve on the rows inside that band, so the fit is
deterministic and needs no step-size schedule. UserKNN, its multi-criteria
variant, and multiple linear regression serve as reference predictors.

The KNN baselines never build a dense (users x items) or (users x users)
array. Ratings live in one sparse CSR per criterion. User-user Pearson
counts each pair's common items with one sparse product of the rating
pattern, and sums the user-centred values only for the pairs with at least
two: each such pair looks the items of its shorter row up in the other row,
by sorted int64 (row, column) keys. A pair whose variance on the common
items is within rounding of zero (a user who gave those items one score)
has similarity 0. MultiUserKNN averages the per-criterion scores, and a
neighbor counts only above SIMILARITY_FLOOR, which keeps out the rounding
noise left where the scores cancel. All test pairs are scored at once: the
item's raters come from the CSC form, their similarities are read by the
same key lookup, and the top-k is ordered by (-similarity, user index).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .dataset import RatingDataset, pair_codes

RATING_MIN = 1.0
RATING_MAX = 5.0
# a KNN neighbor counts only above this similarity: per-criterion scores that
# cancel (+1, -1, 0) leave a rounding-noise mean of about 1e-12, and no score
# on the planted or the 50k-rating sets lies in (1e-9, 1e-6]
SIMILARITY_FLOOR = 1e-9
# the rating head's hinge is quadratic over this band beyond the epsilon-tube
# and linear past it, which makes the objective twice differentiable almost
# everywhere and its Newton steps well defined
HUBER = 0.1
# Newton stops once the gradient norm is within this many units per row
GRADIENT_TOLERANCE = 1e-9
# added to the Hessian diagonal, per row: keeps the solve well posed when no
# row lies in the band or when the weights are not regularised
HESSIAN_FLOOR = 1e-8
# Armijo sufficient-decrease fraction and the backtracking cap per step
ARMIJO = 1e-4
MAX_HALVINGS = 60


@dataclass(frozen=True, eq=False)
class FusedEmbedding:
    matrix: np.ndarray  # (num_users + num_items, num_views * view_dim)
    num_users: int


def fuse(embeddings: Sequence[np.ndarray], num_users: int) -> FusedEmbedding:
    """Concatenate per-view embeddings row-wise, in criterion order."""
    shapes = {e.shape for e in embeddings}
    if len(shapes) != 1:
        raise ValueError(f"view embeddings disagree in shape: {sorted(shapes)}")
    matrix = np.concatenate(list(embeddings), axis=1)
    return FusedEmbedding(matrix=matrix, num_users=num_users)


# ---------------------------------------------------------------------------
# rating head

@dataclass(frozen=True)
class PredictorConfig:
    epsilon: float = 0.1
    regularization: float = 1.0
    epochs: int = 200  # cap on Newton steps; a fit takes far fewer

    def __post_init__(self):
        for name, low in (("epochs", 1), ("epsilon", 0), ("regularization", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"predictor {name} must be at least {low}, "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class RatingPredictor:
    weights: np.ndarray        # (2 * num_views * view_dim,)
    bias: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def raw(self, features: np.ndarray) -> np.ndarray:
        standardized = (features - self.feature_mean) / self.feature_scale
        return standardized @ self.weights + self.bias


def pair_features(fused: FusedEmbedding, users: np.ndarray,
                  items: np.ndarray) -> np.ndarray:
    return np.concatenate([fused.matrix[users],
                           fused.matrix[fused.num_users + items]], axis=1)


def _excess(residual: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distance beyond the tube, and that distance capped at HUBER."""
    excess = np.maximum(np.abs(residual) - epsilon, 0.0)
    return excess, np.minimum(excess, HUBER)


def _objective(residual: np.ndarray, w: np.ndarray, epsilon: float,
               regularization: float) -> float:
    """sum_i h(|residual_i| - epsilon) + regularization/2 * ||w||^2, where h
    is 0 up to 0, a^2 / (2 HUBER) over (0, HUBER) and a - HUBER/2 beyond."""
    excess, capped = _excess(residual, epsilon)
    return float(capped @ (excess - 0.5 * capped)) / HUBER \
        + 0.5 * regularization * float(w @ w)


def _gradient(x: np.ndarray, residual: np.ndarray, w: np.ndarray,
              epsilon: float, regularization: float) -> np.ndarray:
    """`_objective`'s gradient in (w, b), the bias last."""
    slope = np.sign(residual) * _excess(residual, epsilon)[1] / HUBER
    return np.append(slope @ x + regularization * w, slope.sum())


def newton_fit(x: np.ndarray, targets: np.ndarray, epsilon: float,
               regularization: float,
               max_steps: int) -> tuple[np.ndarray, float, list[float]]:
    """Minimise `_objective` of x.w + b - targets over (w, b) by damped
    Newton steps.

    Starts from w = 0, b = mean(targets). Each step solves the bordered
    system [[X_bᵀX_b / HUBER + ridge, X_bᵀ1 / HUBER], [1ᵀX_b / HUBER,
    n_b / HUBER]] with X_b the rows inside the band, formed from X_bᵀX_b and
    column sums, so no copy of x gains a bias column. An Armijo backtracking
    search damps the step. Stops when the gradient norm is within
    GRADIENT_TOLERANCE per row, when the objective stops decreasing, or after
    max_steps steps. Returns w, b and the objective at every iterate.
    """
    n, width = x.shape
    w, b = np.zeros(width), float(targets.mean())
    residual = b - targets
    objective = _objective(residual, w, epsilon, regularization)
    history = [objective]
    for _ in range(max_steps):
        gradient = _gradient(x, residual, w, epsilon, regularization)
        if np.linalg.norm(gradient) <= GRADIENT_TOLERANCE * n:
            break
        excess, _ = _excess(residual, epsilon)
        band = x[(excess > 0.0) & (excess < HUBER)]
        hessian = np.empty((width + 1, width + 1))
        hessian[:width, :width] = band.T @ band
        hessian[width, :width] = hessian[:width, width] = band.sum(axis=0)
        hessian[width, width] = len(band)
        hessian /= HUBER
        hessian[np.diag_indices(width)] += regularization
        hessian[np.diag_indices(width + 1)] += HESSIAN_FLOOR * n
        direction = -np.linalg.solve(hessian, gradient)
        slope = float(gradient @ direction)
        if not slope < 0.0:
            break
        moved = x @ direction[:width] + direction[width]
        step = 1.0
        for _ in range(MAX_HALVINGS):
            trial_w = w + step * direction[:width]
            trial = _objective(residual + step * moved, trial_w, epsilon,
                               regularization)
            if trial <= objective + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        if not trial < objective:
            break
        w, b = trial_w, b + step * float(direction[width])
        residual = residual + step * moved
        objective = trial
        history.append(objective)
    return w, b, history


def train_predictor(fused: FusedEmbedding, train: RatingDataset,
                    cfg: PredictorConfig = PredictorConfig(),
                    seed: int = 0) -> RatingPredictor:
    """Fit the margin-insensitive linear head on [F_user || F_item] features.

    Features are standardised per column, then `newton_fit` minimises
    sum_i h(|w.x_i + b - y_i| - epsilon) + regularization/2 * ||w||^2 with
    the hinge h smoothed over HUBER, for at most cfg.epochs Newton steps.
    The bias is not regularised. Weights start at zero and the bias at the
    target mean, so a constant target is fit exactly with zero weights. The
    fit draws nothing at random: `seed` is accepted for callers that pass
    one and does not change the result.
    """
    if len(train) == 0:
        raise ValueError("cannot train the rating head on an empty dataset")
    x = pair_features(fused, train.users, train.items)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    x -= mean  # in place: the head's largest array is not copied twice
    x /= scale
    w, b, _ = newton_fit(x, train.overall, cfg.epsilon, cfg.regularization,
                         cfg.epochs)
    return RatingPredictor(weights=w, bias=b, feature_mean=mean, feature_scale=scale)


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


def _lookup(matrix: sparse.csr_array, rows: np.ndarray,
            cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which (rows[t], cols[t]) are stored in `matrix`, and where.

    Returns a mask over t and, for the stored ones, their positions in
    matrix.data. Each entry's key is row * columns + column in int64, so the
    keys of a CSR whose rows keep their columns sorted are sorted, and one
    np.searchsorted finds every wanted key.
    """
    if not matrix.has_sorted_indices:
        raise ValueError("rows of a looked-up matrix must keep their columns sorted")
    keys = np.repeat(np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr))
    keys *= matrix.shape[1]
    keys += matrix.indices
    wanted = rows.astype(np.int64) * matrix.shape[1] + cols
    at = np.searchsorted(keys, wanted)
    stored = at < keys.size
    stored[stored] = keys[at[stored]] == wanted[stored]
    return stored, at[stored]


def pearson_user_similarities(ratings: sparse.csr_array) -> sparse.csr_array:
    """Pairwise sample Pearson over each pair's co-rated items.

    `ratings` holds one stored entry per rating, each row's items sorted, as
    `_rating_matrix` builds it. The result is a sparse (users x users)
    matrix: pairs with fewer than two common items, or zero variance on the
    common support, have similarity 0, as has the diagonal.

    One sparse product of the rating pattern counts every pair's common
    items. Only the pairs with at least two are summed: each walks the
    shorter of its two rows and looks those items up in the other row. The
    sums add in item order, as a sparse product adds them, so the scores are
    the ones the products of the centred values would give.
    """
    counts = np.diff(ratings.indptr)
    # Pearson is unchanged by a per-user shift; centring on each user's own
    # mean cuts the cancellation in `sq - sum*sum/n`
    centred = ratings.data - np.repeat(_row_means(ratings), counts)
    pattern = sparse.csr_array((np.ones_like(centred), ratings.indices, ratings.indptr),
                               shape=ratings.shape)
    common = (pattern @ pattern.T).tocoo()
    # one common item leaves zero variance anyway, and most sharing pairs have
    # only one: at 50k ratings about 7% of the sharing pairs are summed
    upper = (common.row < common.col) & (common.data >= 2)
    rows, cols, n = common.row[upper], common.col[upper], common.data[upper]

    swap = counts[rows] > counts[cols]            # where v's row is the shorter
    short, other = np.where(swap, cols, rows), np.where(swap, rows, cols)
    lengths = counts[short]
    pair = np.repeat(np.arange(rows.size), lengths)
    walked = np.arange(pair.size) + np.repeat(
        ratings.indptr[short] - (np.cumsum(lengths) - lengths), lengths)
    stored, found = _lookup(ratings, other[pair], ratings.indices[walked])
    pair, walked = pair[stored], walked[stored]
    x_u = centred[np.where(swap[pair], found, walked)]
    x_v = centred[np.where(swap[pair], walked, found)]

    def total(values: np.ndarray) -> np.ndarray:
        return np.bincount(pair, weights=values, minlength=rows.size)

    sum_u, sum_v = total(x_u), total(x_v)
    sq_u, sq_v = total(x_u * x_u), total(x_v * x_v)
    cov = total(x_u * x_v) - sum_u * sum_v / n
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
    users, items = pair_codes(train, test)
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
    stored, at = _lookup(sims, users[pair], raters)
    weights = np.zeros(pair.size)
    weights[stored] = sims.data[at]
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
    ratings = _rating_matrix(train.users, train.items, train.overall,
                             (train.num_users, train.num_items))
    sims = pearson_user_similarities(ratings)
    return _knn_predictions(ratings, train, test, sims, k_neighbors)


def baseline_multi_user_knn(train: RatingDataset, test: RatingDataset,
                            k_neighbors: int = 100) -> np.ndarray:
    """User KNN with similarities averaged over per-criterion Pearson scores.

    A criterion value of 0 means unrated and leaves no entry in that
    criterion's ratings.
    """
    users, items, shape = train.users, train.items, (train.num_users, train.num_items)
    sims = sparse.csr_array((train.num_users, train.num_users))
    for values in train.criteria.T:
        rated = values != 0.0
        sims = sims + pearson_user_similarities(
            _rating_matrix(users[rated], items[rated], values[rated], shape))
    sims = sims / train.num_criteria
    return _knn_predictions(_rating_matrix(users, items, train.overall, shape),
                            train, test, sims, k_neighbors)


def baseline_mlr(train: RatingDataset, test: RatingDataset) -> np.ndarray:
    """Least-squares fit of the overall rating on the criteria ratings; a
    rank-deficient design gets lstsq's minimum-norm fit."""
    if len(train) < train.num_criteria + 1:
        raise ValueError(
            f"multiple linear regression needs at least {train.num_criteria + 1} "
            f"records, got {len(train)}")
    design = np.column_stack([train.criteria, np.ones(len(train))])
    coef = np.linalg.lstsq(design, train.overall, rcond=None)[0]
    test_design = np.column_stack([test.criteria, np.ones(len(test))])
    return np.clip(test_design @ coef, RATING_MIN, RATING_MAX)


def write_predictions(test: RatingDataset, predicted: np.ndarray,
                      path: str | Path) -> None:
    lines = ["user_id,item_id,actual,predicted"]
    for user, item, actual, value in zip(test.user_ids[test.users].tolist(),
                                         test.item_ids[test.items].tolist(),
                                         test.overall.tolist(), predicted):
        lines.append(f"{user},{item},{actual!r},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
