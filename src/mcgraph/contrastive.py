"""Anchor selection, contrastive objectives, and the training loop.

Each view elects an anchor node (highest mean cosine similarity to its
neighbors); nodes close to the anchor form the view's positive set and
nodes far from it the negative pool. The local loss pulls a positive
node's embeddings together across view pairs against sampled negatives;
the global loss does the same for per-view mean embeddings against
feature-shuffled corruptions. Training couples both with L2 weight decay
under an adaptive-moment optimizer.

Sampling (negatives, corruption permutations) happens outside the
differentiable graph and is refreshed on a fixed epoch period, so between
refreshes the loss is a fixed differentiable function of the parameters.

The encoder returns all views as one stacked (V*n, d) array, and each loss
reads that stack directly: one batched InfoNCE (van den Oord et al. 2018)
over every ordered view pair at once. Its T terms form a dense (T, 1+K)
block of indices into a source matrix, the positive in column 0 and the K
negatives after it, scored by one kernel (`_info_nce`) with a closed-form
backward: each term's anchor row is gathered once and broadcast against its
1+K candidate rows, each row of the cosine block has one softmax, and the
backward scatters the gradient into the anchor and candidate rows of the
source in one pass. That scatter, `_scatter_add`, is one `np.bincount` over
flat (row·d + column) bins: it adds in index order exactly as `np.add.at`
does, at a fraction of its cost. The global loss takes its view and
corrupted means from the stack through a fixed 0/1 CSR operator, built
with its transpose from the permutations once per plan and carried by it.
Each kernel returns its value and a `back` closure; `lcl_tensor` and
`hgcl_tensor` wrap `lcl_stack` and `hgcl_stack` as one autodiff tape node
over a list of per-view tensors, for gradient checks.

`train` takes the experiment config, `evaluate.ExperimentConfig`, and
reads the fields it needs by name, so this module never imports `evaluate`.
It runs a fixed schedule with no tape: the encoder, LCL and HGCL forward,
then their `back`s in reverse. It keeps every parameter in one
contiguous vector theta, in `init_params`' key order, and the name -> array
dict it hands the encoder and returns holds reshaped views into theta. The
gradient and Adam's two moments are vectors of the same layout: the
gradient starts as the L2 term's 2·lambda·theta, and each parameter's
encoder gradient is added into its view of it. The L2 term (`_l2`), the
global-norm clip and the Adam step are one vector operation each. Without
contrastive training (the no-CL ablation, or a single view) no loss term
reads the embeddings, so `train` skips the encoder and descends on weight
decay alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import attention as att
from . import autodiff as ad
from .dataset import DatasetError
from .graph import CriterionView, Views, edge_dots

if TYPE_CHECKING:  # evaluate imports this module
    from .evaluate import ExperimentConfig


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.5
    alpha: float = 0.5
    beta: float = 0.5
    l2_weight: float = 0.1
    num_negatives: int = 5
    pos_threshold: float = 0.5
    neg_threshold: float = 0.3

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        for name in ("alpha", "beta", "l2_weight"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.num_negatives < 1:
            raise ValueError(f"need at least one negative, got {self.num_negatives}")
        for name in ("pos_threshold", "neg_threshold"):
            # compared with cosine similarities; written so that NaN fails
            if not -1.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {getattr(self, name)}")
        if self.neg_threshold > self.pos_threshold:
            raise ValueError("neg_threshold must not exceed pos_threshold")


@dataclass(frozen=True)
class LossReport:
    epoch: int
    l_lcl: float
    l_hgcl: float
    l2_term: float
    l_total: float
    grad_norm: float = 0.0   # global gradient norm before clipping
    clipped: bool = False    # whether the clip rescaled the gradient


@dataclass(frozen=True, eq=False)
class AnchorSet:
    anchor: int
    positives: np.ndarray       # nodes with cosine-to-anchor >= pos_threshold
    negative_pool: np.ndarray   # nodes with cosine-to-anchor < neg_threshold
    eligible: np.ndarray        # non-isolated nodes (anchor contention domain)


@dataclass(frozen=True, eq=False)
class PairSample:
    """LCL structure for one ordered view pair: who contrasts against whom."""
    view_a: int
    view_b: int
    positives: np.ndarray          # (p,) node indices, view_a's positive set
    negatives: np.ndarray | None   # (p, K) node indices into view_b, None if none exist


@dataclass(frozen=True, eq=False)
class ContrastPlan:
    anchor_sets: tuple[AnchorSet, ...]
    samples: tuple[PairSample, ...]
    permutations: dict  # (view_a, view_b) -> (K, n, d) within-row column indices
    mean_operator: tuple[sp.csr_matrix, sp.csc_matrix]  # HGCL's `_mean_operator`


class IsolatedViewError(DatasetError, ValueError):
    """A view has no edge, so it has no anchor: a criterion nobody rated."""


class NonFiniteLossError(RuntimeError):
    def __init__(self, epoch: int, last_report: LossReport | None):
        detail = (f"last finite report: {last_report}" if last_report
                  else "no finite epoch completed")
        super().__init__(
            f"loss or its gradient became non-finite at epoch {epoch}; {detail}")
        self.epoch = epoch
        self.last_report = last_report


# ---------------------------------------------------------------------------
# anchors

def _unit_rows(embeddings: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    return np.divide(embeddings, norms, out=np.zeros_like(embeddings),
                     where=norms > 0)


def _neighbor_means(view: CriterionView, unit: np.ndarray) -> np.ndarray:
    """Mean cosine similarity of each node to its neighbors, for embeddings
    whose unit rows are `unit`; -inf if isolated."""
    centers, neighbors = view.neighbor_arrays()
    edge_sims = edge_dots(unit, unit, centers, neighbors)
    totals = np.bincount(centers, weights=edge_sims, minlength=view.num_nodes)
    counts = np.diff(view.adjacency.indptr)
    out = np.full(view.num_nodes, -np.inf)
    rated = counts > 0
    out[rated] = totals[rated] / counts[rated]
    return out


def _best_node(view: CriterionView, sims: np.ndarray) -> int:
    if np.all(np.isneginf(sims)):
        raise IsolatedViewError(
            f"view {view.criterion_index}: every node is isolated, no anchor "
            f"exists (criterion {view.criterion_index} has no nonzero rating)")
    return int(np.argmax(sims))


def build_anchor_set(view: CriterionView, embeddings: np.ndarray,
                     cfg: LossConfig) -> AnchorSet:
    unit = _unit_rows(embeddings)
    sims = _neighbor_means(view, unit)
    anchor = _best_node(view, sims)
    eligible = ~np.isneginf(sims)
    to_anchor = unit @ unit[anchor]

    positive_mask = eligible & (to_anchor >= cfg.pos_threshold)
    positive_mask[anchor] = True
    pool_mask = eligible & (to_anchor < cfg.neg_threshold) & ~positive_mask
    return AnchorSet(anchor=anchor,
                     positives=np.flatnonzero(positive_mask),
                     negative_pool=np.flatnonzero(pool_mask),
                     eligible=np.flatnonzero(eligible))


# ---------------------------------------------------------------------------
# sampling structure

def _ordered_pairs(num_views: int):
    for a in range(num_views):
        for b in range(num_views):
            if a != b:
                yield a, b


def sample_pair_negatives(anchor_sets: Sequence[AnchorSet], cfg: LossConfig,
                          rng: np.random.Generator) -> tuple[PairSample, ...]:
    """Draw K negatives per (positive, ordered pair) from the partner's pool.

    A pair's positives are view_a's positive set restricted to nodes that are
    also non-isolated in view_b; a node with no neighbors in the partner view
    has a zero embedding there and no defined contrast. An empty pool falls
    back to the partner view's non-positive nodes; if that is empty too the
    pair carries no negatives and its terms are zero.
    """
    samples = []
    for a, b in _ordered_pairs(len(anchor_sets)):
        positives = np.intersect1d(anchor_sets[a].positives,
                                   anchor_sets[b].eligible)
        pool = anchor_sets[b].negative_pool
        if pool.size == 0:
            pool = np.setdiff1d(anchor_sets[b].eligible, anchor_sets[b].positives)
        if pool.size == 0:
            negatives = None
        else:
            draws = rng.integers(0, pool.size,
                                 size=(positives.size, cfg.num_negatives))
            negatives = pool[draws]
        samples.append(PairSample(a, b, positives, negatives))
    return tuple(samples)


def sample_permutations(num_views: int, shape: tuple[int, int], cfg: LossConfig,
                        rng: np.random.Generator) -> dict:
    """Fresh within-row column permutations per ordered pair, K per term."""
    n, d = shape
    perms = {}
    for a, b in _ordered_pairs(num_views):
        perms[(a, b)] = np.argsort(rng.random((cfg.num_negatives, n, d)), axis=2)
    return perms


def build_plan(views: Sequence[CriterionView], embeddings: Sequence[np.ndarray],
               cfg: LossConfig, rng: np.random.Generator) -> ContrastPlan:
    anchor_sets = tuple(build_anchor_set(v, e, cfg)
                        for v, e in zip(views, embeddings))
    samples = sample_pair_negatives(anchor_sets, cfg, rng)
    perms = sample_permutations(len(views), embeddings[0].shape, cfg, rng)
    return ContrastPlan(anchor_sets, samples, perms,
                        _mean_operator(len(views), *embeddings[0].shape, perms))


# ---------------------------------------------------------------------------
# losses (kernels)

def _scatter_add(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum values[j] into row index[j] of a (num_rows, ...) array of zeros.

    `index` may have any shape; its dims lead `values`' dims, and the rest of
    `values`' shape is each row's shape. One `np.bincount` over the flat bins
    row·d + column adds in index order, as `np.add.at` does, so the sums are
    bit-identical to it.
    """
    index = np.asarray(index, dtype=np.intp)
    row_shape = values.shape[index.ndim:]
    d = int(np.prod(row_shape))
    bins = (index.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    return np.bincount(bins, weights=values.reshape(-1),
                       minlength=num_rows * d).reshape((num_rows,) + row_shape)


def _info_nce(source: np.ndarray, anchors: np.ndarray, candidates: np.ndarray,
              cfg: LossConfig, scale: float):
    """`scale` times the summed InfoNCE terms over a dense (T, 1+K) score
    block, and its `back`: term t scores row anchors[t] of `source` against
    the rows candidates[t, :], the positive first and then the K negatives.

    The score s_tk is cos(left_t, right_tk) / temperature, and term t is
    log sum_k exp(s_tk) - s_t0. The gradient of the scores is
    g * scale * (softmax - onehot) / temperature; through the cosine
    quotient it reaches the anchor and the candidate rows, and one scatter
    adds both into the source rows.
    """
    left = np.take(source, anchors[:, None], axis=0)  # (T, 1, d)
    right = np.take(source, candidates, axis=0)       # (T, 1+K, d)
    norm_left = np.sqrt((left * left).sum(-1))       # (T, 1)
    norm_right = np.sqrt((right * right).sum(-1))    # (T, 1+K)
    denom = norm_left * norm_right
    cos = (left * right).sum(-1) / denom
    inv_temp = 1.0 / cfg.temperature
    scaled = cos * inv_temp
    exp = np.exp(scaled)
    totals = exp.sum(1)
    positive = np.eye(1, candidates.shape[1])
    value = float((np.log(totals).sum() - (scaled * positive).sum()) * scale)

    def back(g):
        d_cos = g * scale * inv_temp * (exp / totals[:, None] - positive)
        # cos = l.r / (|l| |r|): d l = d_cos (r / (|l| |r|) - cos l / |l|^2),
        # summed over the 1+K candidates; d r likewise with l and r swapped
        d_dots = (d_cos / denom)[..., None]
        radial = d_cos * cos
        d_left = ((d_dots * right).sum(1, keepdims=True)
                  - (radial.sum(1, keepdims=True)
                     / (norm_left * norm_left))[..., None] * left)
        d_right = (d_dots * left
                   - (radial / (norm_right * norm_right))[..., None] * right)
        rows = np.concatenate([anchors[:, None], candidates], axis=1)
        return _scatter_add(rows, np.concatenate([d_left, d_right], axis=1),
                            source.shape[0])
    return value, back


def lcl_stack(stack: np.ndarray, num_views: int, samples: Sequence[PairSample],
              cfg: LossConfig):
    """Mean InfoNCE term over every (positive node, ordered view pair), and
    its `back` to the stack's gradient.

    A pair without negatives keeps its terms in the count; each is exactly
    -log(1) = 0. Node i of view v is row v*n + i of the (V*n, d) `stack`.
    All active pairs share one K, as `sample_pair_negatives` draws them.
    """
    n = stack.shape[0] // num_views
    term_count = sum(ps.positives.size for ps in samples)
    active = [ps for ps in samples
              if ps.negatives is not None and ps.positives.size]
    if not active:
        return 0.0, lambda g: np.zeros_like(stack)
    anchors = np.concatenate([ps.view_a * n + ps.positives for ps in active])
    candidates = np.concatenate(
        [ps.view_b * n + np.column_stack([ps.positives, ps.negatives])
         for ps in active])
    return _info_nce(stack, anchors, candidates, cfg, 1.0 / term_count)


def _mean_operator(num_views: int, n: int, d: int, permutations: Mapping
                   ) -> tuple[sp.csr_matrix, sp.csc_matrix]:
    """HGCL's scored rows times n as a 0/1 CSR on the raveled stack, and its
    transpose over the same buffers: row (r, j) picks E_s[i, perm[i, j]] for
    i < n. The V view means are s = v with the identity perm, then pair
    p = (a, b)'s K corrupted means are s = a, perm = permutations[(a, b)][k]."""
    identity = np.broadcast_to(np.arange(d), (1, n, d))
    blocks = [(v, identity) for v in range(num_views)] + [
        (a, permutations[(a, b)]) for a, b in _ordered_pairs(num_views)]
    nnz = sum(perm.size for _, perm in blocks)
    dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indices, first = np.empty(nnz, dtype=dtype), 0
    for view, perm in blocks:  # filled in place, one (K, d, n) block at a time
        np.add(perm.transpose(0, 2, 1), view * n * d + np.arange(n) * d,
               out=indices[first:first + perm.size].reshape(-1, d, n))
        first += perm.size
    op = sp.csr_matrix((np.ones(nnz), indices, np.arange(0, nnz + 1, n, dtype=dtype)),
                       shape=(nnz // n, num_views * n * d))
    return op, op.T


def hgcl_stack(stack: np.ndarray, num_views: int,
               mean_operator: tuple[sp.csr_matrix, sp.csc_matrix], cfg: LossConfig):
    """Mean InfoNCE term over ordered view pairs of column-mean embeddings,
    and its `back` to the stack's gradient.

    Pair p = (a, b) contrasts mean(E_a) with mean(E_b) against the K means
    of E_a with each row's columns permuted by permutations[(a, b)][k]; every
    pair's (K, n, d) block has the same K. E_v is block v of `stack`, and
    `mean_operator` is `_mean_operator` of those permutations. The scored
    rows are the V view means followed by the P*K corrupted means, pair p's
    k-th at row V + p*K + k: the operator's row sums of the raveled stack,
    times 1/n, so each mean sums before it scales. The backward is the
    operator's transpose times 1/n.
    """
    pairs = list(_ordered_pairs(num_views))
    if not pairs:
        return 0.0, lambda g: np.zeros_like(stack)
    n, d = stack.shape[0] // num_views, stack.shape[1]
    scale = 1.0 / n
    op, op_t = mean_operator
    source = (op @ stack.reshape(-1) * scale).reshape(-1, d)
    view_a, view_b = np.array(pairs).T
    negatives = np.arange(num_views, source.shape[0]).reshape(len(pairs), -1)
    candidates = np.column_stack([view_b, negatives])
    value, source_back = _info_nce(source, view_a, candidates, cfg,
                                   1.0 / len(pairs))

    def back(g):
        d_source = source_back(g).reshape(-1) * scale
        return (op_t @ d_source).reshape(stack.shape)
    return value, back


def _views_node(op: str, embeddings: Sequence[ad.Tensor], kernel, *args) -> ad.Tensor:
    """`kernel` of the stacked per-view tensors as one tape node."""
    value, back = kernel(np.concatenate([e.value for e in embeddings]),
                         len(embeddings), *args)
    return ad.Tensor(value, op, tuple(embeddings),
                     lambda g: np.split(back(g), len(embeddings)))


def lcl_tensor(embeddings: Sequence[ad.Tensor], samples: Sequence[PairSample],
               cfg: LossConfig) -> ad.Tensor:
    """`lcl_stack` of per-view embedding tensors, as one tape node."""
    return _views_node("lcl", embeddings, lcl_stack, samples, cfg)


def hgcl_tensor(embeddings: Sequence[ad.Tensor], permutations: Mapping,
                cfg: LossConfig) -> ad.Tensor:
    """`hgcl_stack` of per-view embedding tensors, as one tape node."""
    operator = _mean_operator(len(embeddings), *embeddings[0].shape, permutations)
    return _views_node("hgcl", embeddings, hgcl_stack, operator, cfg)


# ---------------------------------------------------------------------------
# losses (numpy convenience)

def local_contrastive_loss(embeddings: Sequence[np.ndarray],
                           anchor_sets: Sequence[AnchorSet], cfg: LossConfig,
                           seed: int = 0,
                           samples: Sequence[PairSample] | None = None) -> float:
    if len(embeddings) < 2:
        raise ValueError("local contrastive loss needs at least two views")
    if samples is None:
        samples = sample_pair_negatives(anchor_sets, cfg,
                                        np.random.default_rng(seed))
    stack = np.concatenate(embeddings, dtype=np.float64)
    return lcl_stack(stack, len(embeddings), samples, cfg)[0]


def global_contrastive_loss(embeddings: Sequence[np.ndarray], cfg: LossConfig,
                            seed: int = 0,
                            permutations: Mapping | None = None) -> float:
    if len(embeddings) < 2:
        raise ValueError("global contrastive loss needs at least two views")
    shape = np.shape(embeddings[0])
    if permutations is None:
        permutations = sample_permutations(len(embeddings), shape, cfg,
                                           np.random.default_rng(seed))
    operator = _mean_operator(len(embeddings), *shape, permutations)
    stack = np.concatenate(embeddings, dtype=np.float64)
    return hgcl_stack(stack, len(embeddings), operator, cfg)[0]


def _l2(theta: np.ndarray) -> float:
    """Sum of squares of a flat parameter vector."""
    return float((theta * theta).sum())


def flatten(params: Mapping[str, np.ndarray]) -> np.ndarray:
    """Every array of `params`, raveled and joined in key order."""
    return np.concatenate([np.ravel(a) for a in params.values()])


def unflatten(flat: np.ndarray, like: Mapping[str, np.ndarray]
              ) -> dict[str, np.ndarray]:
    """`like`'s keys and shapes as consecutive reshaped views into `flat`."""
    out, start = {}, 0
    for key, arr in like.items():
        out[key] = flat[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    return out


def _weighted(lcl, hgcl, l2, cfg: LossConfig):
    """alpha·LCL + beta·HGCL + lambda·L2."""
    return lcl * cfg.alpha + hgcl * cfg.beta + l2 * cfg.l2_weight


def total_loss(l_lcl: float, l_hgcl: float, params: Mapping[str, np.ndarray],
               cfg: LossConfig) -> LossReport:
    """Weighted combination, reported as epoch 0; the report identity holds
    exactly as computed."""
    l2 = _l2(flatten(params))
    total = _weighted(l_lcl, l_hgcl, l2, cfg)
    return LossReport(epoch=0, l_lcl=l_lcl, l_hgcl=l_hgcl,
                      l2_term=l2, l_total=total)


# ---------------------------------------------------------------------------
# optimizer (flat vectors)

@dataclass(eq=False)
class AdamState:
    """First and second moments, laid out like the parameter vector; both
    start as zeros on the first step."""
    first: np.ndarray | None = None
    second: np.ndarray | None = None
    step: int = 0


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector in place so its L2 norm is at most max_norm;
    returns the norm before scaling."""
    total = float(np.sqrt((grads * grads).sum()))
    if total > max_norm and total > 0:
        grads *= max_norm / total
    return total


def adam_update(params: np.ndarray, grads: np.ndarray, state: AdamState,
                learning_rate: float) -> None:
    """One Adam step (Kingma & Ba 2014, with their default beta1, beta2 and
    eps) on the parameter vector, in place."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if state.first is None:
        state.first, state.second = np.zeros_like(grads), np.zeros_like(grads)
    state.step += 1
    t = state.step
    m, v = state.first, state.second
    m += (1.0 - beta1) * (grads - m)
    v += (1.0 - beta2) * (grads * grads - v)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    params -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# training loop

def train(views: Views, cfg: ExperimentConfig, seed: int,
          epochs: int | None = None
          ) -> tuple[dict[str, np.ndarray], list[LossReport]]:
    """Optimize encoder parameters on the views; deterministic per seed.

    The encoder runs on `views.block`, which `evaluate.fit` then reuses.
    `cfg` is the experiment config: `train` reads its `loss` and `encoder`
    sections, `learning_rate`, `epochs` (unless `epochs` is given),
    `refresh_period`, `clip_norm`, `use_contrastive` and
    `use_global_attention`. The returned dict holds `init_params`' keys in
    their order, each a view into one flat parameter vector.
    """
    epochs = cfg.epochs if epochs is None else epochs
    num_nodes = views[0].num_nodes
    initial = att.init_params(num_nodes, len(views), cfg.encoder, seed)
    theta = flatten(initial)
    params = unflatten(theta, initial)
    grad = np.empty_like(theta)
    state = AdamState()
    trace: list[LossReport] = []
    plan: ContrastPlan | None = None
    use_cl = cfg.use_contrastive and len(views) >= 2
    decay = 2.0 * cfg.loss.l2_weight

    grad_views = unflatten(grad, initial)
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            l2 = _l2(theta)
            np.multiply(theta, decay, out=grad)
            if use_cl:
                stack, keys, encoder_back = att.encode_stack(
                    views.block, params, cfg.encoder, cfg.use_global_attention)
                if plan is None or epoch % cfg.refresh_period == 0:
                    plan = build_plan(
                        views, stack.reshape(len(views), num_nodes, -1),
                        cfg.loss, np.random.default_rng([seed, epoch]))
                l_lcl, lcl_back = lcl_stack(stack, len(views), plan.samples, cfg.loss)
                l_hgcl, hgcl_back = hgcl_stack(stack, len(views), plan.mean_operator,
                                               cfg.loss)
            else:
                l_lcl = l_hgcl = 0.0
            l_total = _weighted(l_lcl, l_hgcl, l2, cfg.loss)
            if not np.isfinite(l_total):
                raise NonFiniteLossError(epoch + 1, trace[-1] if trace else None)

            if use_cl:
                d_stack = lcl_back(cfg.loss.alpha) + hgcl_back(cfg.loss.beta)
                for key, g in zip(keys, encoder_back(d_stack)):
                    grad_views[key] += g
        norm = clip_gradients(grad, cfg.clip_norm)
        report = LossReport(epoch=epoch + 1, l_lcl=l_lcl, l_hgcl=l_hgcl,
                            l2_term=l2, l_total=l_total, grad_norm=norm,
                            clipped=norm > cfg.clip_norm)
        # a NaN norm skips clipping (NaN > max_norm is False); stop before
        # Adam writes it into the parameters
        if not np.isfinite(norm):
            raise NonFiniteLossError(epoch + 1, report)
        trace.append(report)
        adam_update(theta, grad, state, cfg.learning_rate)
    return params, trace


def write_loss_trace(trace: Sequence[LossReport], path: str | Path) -> None:
    lines = ["epoch,l_lcl,l_hgcl,l2,l_total"]
    for r in trace:
        lines.append(f"{r.epoch},{r.l_lcl!r},{r.l_hgcl!r},{r.l2_term!r},{r.l_total!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
