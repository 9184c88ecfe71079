"""Dual-attention view encoder.

Two stacked layers per criterion view. Each layer runs multi-head neighbor
attention over the view's adjacency pattern (scores from
LeakyReLU(a^T [W h_i || W h_j]), softmax restricted to each node's
neighbors), then rescales node rows by a global gate derived from a
softmax over pooled node scores. Datasets carry no node features, so the
input matrix X is itself a learnable parameter shared by all views.

The neighbor attention of a layer is one tape op with a hand-derived
backward. All heads share one projection, h [W_1; ...; W_H]^T, and one
softmax over the (edges, heads) score matrix; head k fills output columns
k*F' to (k+1)*F'. Its tape cost is therefore the same for any head count.

Parameters live in a flat name -> array dict so the optimizer, the
regularizer and the gradient checker can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .graph import CriterionView

LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class EncoderConfig:
    """Width hyperparameters: H heads of F' units over F-dimensional inputs."""

    num_heads: int = 2
    feature_dim: int = 64
    head_dim: int = 32

    def __post_init__(self):
        for name in ("num_heads", "feature_dim", "head_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    @property
    def embed_dim(self) -> int:
        return self.num_heads * self.head_dim


@dataclass(frozen=True)
class HeadParams:
    weight: np.ndarray  # (head_dim, fan_in)
    attn: np.ndarray    # (2 * head_dim,)


@dataclass(frozen=True)
class LayerParams:
    heads: tuple[HeadParams, ...]
    global_weight: np.ndarray  # (num_heads * head_dim,)


@dataclass(frozen=True)
class ViewEmbedding:
    criterion_index: int
    matrix: np.ndarray  # (num_nodes, embed_dim)


def head_key(view_index: int, layer: int, head: int, field: str) -> str:
    return f"view{view_index}/l{layer}/h{head}/{field}"


def gate_key(view_index: int, layer: int) -> str:
    return f"view{view_index}/l{layer}/wg"


def init_params(num_nodes: int, num_views: int, config: EncoderConfig,
                seed: int) -> dict[str, np.ndarray]:
    """Draw all trainable arrays from Normal(0, 0.1) in a fixed key order."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {
        "x": rng.normal(0.0, 0.1, size=(num_nodes, config.feature_dim))}
    for view in range(1, num_views + 1):
        fan_in = config.feature_dim
        for layer in (1, 2):
            for head in range(1, config.num_heads + 1):
                params[head_key(view, layer, head, "w")] = rng.normal(
                    0.0, 0.1, size=(config.head_dim, fan_in))
                params[head_key(view, layer, head, "a")] = rng.normal(
                    0.0, 0.1, size=(2 * config.head_dim,))
            params[gate_key(view, layer)] = rng.normal(
                0.0, 0.1, size=(config.embed_dim,))
            fan_in = config.embed_dim
    return params


def layer_params(params: Mapping[str, np.ndarray], view_index: int, layer: int,
                 config: EncoderConfig) -> LayerParams:
    heads = tuple(
        HeadParams(weight=np.asarray(params[head_key(view_index, layer, h, "w")]),
                   attn=np.asarray(params[head_key(view_index, layer, h, "a")]))
        for h in range(1, config.num_heads + 1))
    return LayerParams(heads=heads,
                       global_weight=np.asarray(params[gate_key(view_index, layer)]))


# ---------------------------------------------------------------------------
# tensor-level forward pass (used directly by training)

def _attention_layer(h_in: ad.Tensor, weights: Sequence[ad.Tensor],
                     attns: Sequence[ad.Tensor], centers: np.ndarray,
                     neighbors: np.ndarray, num_nodes: int
                     ) -> tuple[ad.Tensor, np.ndarray]:
    """All heads' attended sums as one tape node, and the (E, H) coefficients.

    Edge e = (centers[e], neighbors[e]) scores head k as
    LeakyReLU(a_k[:F'] . P_k[center] + a_k[F':] . P_k[neighbor]) with
    P_k = h W_k^T; the softmax runs per center and head.
    """
    num_heads, head_dim = len(weights), weights[0].value.shape[0]
    stacked = np.concatenate([w.value for w in weights])        # (H*F', F)
    a = np.stack([t.value for t in attns]).reshape(num_heads, 2, head_dim)
    proj = (h_in.value @ stacked.T).reshape(num_nodes, num_heads, head_dim)
    s_src = np.einsum("nhd,hd->nh", proj, a[:, 0])
    s_dst = np.einsum("nhd,hd->nh", proj, a[:, 1])
    raw = s_src[centers] + s_dst[neighbors]                       # (E, H)
    slope = np.where(raw > 0.0, 1.0, LEAKY_SLOPE)
    scores = raw * slope
    # per (center, head) max shift, on a flat index into (n * H)
    flat = (centers[:, None] * num_heads + np.arange(num_heads)).reshape(-1)
    seg_max = np.full(num_nodes * num_heads, -np.inf)
    np.maximum.at(seg_max, flat, scores.reshape(-1))
    e = np.exp(scores - seg_max.reshape(num_nodes, num_heads)[centers])
    coeffs = e / ad._scatter_add(centers, e, num_nodes)[centers]
    gathered = proj[neighbors]                                    # (E, H, F')
    out = ad._scatter_add(centers, coeffs[:, :, None] * gathered, num_nodes)

    def back(g):
        g_edges = g.reshape(num_nodes, num_heads, head_dim)[centers]
        d_coeffs = np.einsum("ehd,ehd->eh", g_edges, gathered)
        weighted = ad._scatter_add(centers, coeffs * d_coeffs, num_nodes)
        d_raw = coeffs * (d_coeffs - weighted[centers]) * slope
        d_src = ad._scatter_add(centers, d_raw, num_nodes)        # (n, H)
        d_dst = ad._scatter_add(neighbors, d_raw, num_nodes)
        d_proj = ad._scatter_add(neighbors, coeffs[:, :, None] * g_edges,
                                 num_nodes)
        d_proj += d_src[:, :, None] * a[:, 0] + d_dst[:, :, None] * a[:, 1]
        d_a = np.stack([np.einsum("nh,nhd->hd", d_src, proj),
                        np.einsum("nh,nhd->hd", d_dst, proj)], axis=1)
        d_proj = d_proj.reshape(num_nodes, num_heads * head_dim)
        d_w = d_proj.T @ h_in.value
        ad._accumulate(h_in, d_proj @ stacked)
        for k in range(num_heads):
            ad._accumulate(weights[k], d_w[k * head_dim:(k + 1) * head_dim])
            ad._accumulate(attns[k], d_a[k].reshape(-1))

    parents = (h_in, *weights, *attns)
    tensor = ad.Tensor(out.reshape(num_nodes, num_heads * head_dim),
                       "graph_attention", parents, back)
    return tensor, coeffs


def _local_layer(h_in: ad.Tensor, weights: Sequence[ad.Tensor],
                 attns: Sequence[ad.Tensor], centers: np.ndarray,
                 neighbors: np.ndarray, num_nodes: int, last: bool) -> ad.Tensor:
    out, _ = _attention_layer(h_in, weights, attns, centers, neighbors, num_nodes)
    return out if last else ad.elu(out)


def _global_gate(h_local: ad.Tensor, wg: ad.Tensor) -> ad.Tensor:
    scores = ad.softmax(ad.relu(ad.matmul(h_local, wg)))
    num_nodes = h_local.value.shape[0]
    # uniform scores make the factor exactly 1, leaving rows unchanged
    factor = ad.mul(scores, ad.Tensor(float(num_nodes)))
    return ad.mul(h_local, ad.reshape(factor, (num_nodes, 1)))


def encode_view_tensors(view: CriterionView, tensors: Mapping[str, ad.Tensor],
                        config: EncoderConfig, use_global: bool = True) -> ad.Tensor:
    """Differentiable two-layer encoding of one view; rows are node embeddings."""
    centers, neighbors = view.neighbor_arrays()
    n = view.num_nodes
    h = tensors["x"]
    heads = range(1, config.num_heads + 1)
    for layer in (1, 2):
        weights = [tensors[head_key(view.criterion_index, layer, k, "w")]
                   for k in heads]
        attns = [tensors[head_key(view.criterion_index, layer, k, "a")]
                 for k in heads]
        h = _local_layer(h, weights, attns, centers, neighbors, n,
                         last=(layer == 2))
        if use_global:
            h = _global_gate(h, tensors[gate_key(view.criterion_index, layer)])
    return h


# ---------------------------------------------------------------------------
# numpy-level operations (inference, inspection, tests)

def _as_tensors(params: Mapping[str, np.ndarray]) -> dict[str, ad.Tensor]:
    return {name: ad.Tensor(value) for name, value in params.items()}


def _layer_tensors(layer: LayerParams) -> tuple[list[ad.Tensor], list[ad.Tensor]]:
    return ([ad.Tensor(h.weight) for h in layer.heads],
            [ad.Tensor(h.attn) for h in layer.heads])


def local_attention_coeffs(view: CriterionView, h_in: np.ndarray,
                           layer: LayerParams) -> list[np.ndarray]:
    """Per-head dense coefficient matrices; row i sums to 1 over i's neighbors.

    Dense (n x n) materialization is for inspection and small oracles; the
    training path keeps coefficients on edges.
    """
    centers, neighbors = view.neighbor_arrays()
    n = view.num_nodes
    _, coeffs = _attention_layer(ad.Tensor(h_in), *_layer_tensors(layer),
                                 centers, neighbors, n)
    out = []
    for head_coeffs in coeffs.T:
        dense = np.zeros((n, n))
        dense[centers, neighbors] = head_coeffs
        out.append(dense)
    return out


def local_attention_forward(view: CriterionView, h_in: np.ndarray,
                            layer: LayerParams, last: bool = False) -> np.ndarray:
    """Multi-head attended features, ELU-activated unless this is the last layer."""
    centers, neighbors = view.neighbor_arrays()
    return _local_layer(ad.Tensor(h_in), *_layer_tensors(layer), centers,
                        neighbors, view.num_nodes, last).value


def global_attention_scores(h_local: np.ndarray, global_weight: np.ndarray) -> np.ndarray:
    """Probability vector over nodes: softmax of ReLU-clamped pooled scores."""
    return ad.softmax(ad.relu(ad.matmul(ad.Tensor(h_local),
                                        ad.Tensor(global_weight)))).value


def encode_view(view: CriterionView, params: Mapping[str, np.ndarray],
                config: EncoderConfig, use_global: bool = True) -> ViewEmbedding:
    matrix = encode_view_tensors(view, _as_tensors(params), config, use_global).value
    return ViewEmbedding(criterion_index=view.criterion_index, matrix=matrix)
