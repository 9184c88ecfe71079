"""Dual-attention view encoder.

Two stacked layers per criterion view. Each layer runs multi-head neighbor
attention over the view's adjacency pattern (scores from
LeakyReLU(a^T [W h_i || W h_j]), softmax restricted to each node's
neighbors), then rescales node rows by a global gate derived from a
softmax over pooled node scores. Datasets carry no node features, so the
input matrix X is itself a learnable parameter shared by all views.

Parameters live in a flat name -> array dict so the optimizer, the
regularizer and the gradient checker can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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

def _head_attention(h_in: ad.Tensor, w: ad.Tensor, a: ad.Tensor,
                    centers: np.ndarray, neighbors: np.ndarray,
                    num_nodes: int) -> tuple[ad.Tensor, ad.Tensor]:
    """Per-head coefficients over edges and the attended sum per node."""
    head_dim = w.value.shape[0]
    projected = ad.matmul(h_in, ad.transpose(w))  # (n, head_dim)
    a_src = ad.take_rows(a, np.arange(head_dim))
    a_dst = ad.take_rows(a, np.arange(head_dim, 2 * head_dim))
    s_src = ad.matmul(projected, a_src)
    s_dst = ad.matmul(projected, a_dst)
    edge_scores = ad.leaky_relu(
        ad.add(ad.take_rows(s_src, centers), ad.take_rows(s_dst, neighbors)),
        slope=LEAKY_SLOPE)
    coeffs = ad.segment_softmax(edge_scores, centers, num_nodes)
    weighted = ad.mul(ad.take_rows(projected, neighbors),
                      ad.reshape(coeffs, (len(neighbors), 1)))
    return coeffs, ad.segment_sum(weighted, centers, num_nodes)


def _local_layer(h_in: ad.Tensor, layer: list[tuple[ad.Tensor, ad.Tensor]],
                 centers: np.ndarray, neighbors: np.ndarray, num_nodes: int,
                 last: bool) -> ad.Tensor:
    parts = [_head_attention(h_in, w, a, centers, neighbors, num_nodes)[1]
             for w, a in layer]
    out = ad.concat(parts, axis=1)
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
    for layer in (1, 2):
        heads = [(tensors[head_key(view.criterion_index, layer, k, "w")],
                  tensors[head_key(view.criterion_index, layer, k, "a")])
                 for k in range(1, config.num_heads + 1)]
        h = _local_layer(h, heads, centers, neighbors, n, last=(layer == 2))
        if use_global:
            h = _global_gate(h, tensors[gate_key(view.criterion_index, layer)])
    return h


# ---------------------------------------------------------------------------
# numpy-level operations (inference, inspection, tests)

def _as_tensors(params: Mapping[str, np.ndarray]) -> dict[str, ad.Tensor]:
    return {name: ad.Tensor(value) for name, value in params.items()}


def local_attention_coeffs(view: CriterionView, h_in: np.ndarray,
                           layer: LayerParams) -> list[np.ndarray]:
    """Per-head dense coefficient matrices; row i sums to 1 over i's neighbors.

    Dense (n x n) materialization is for inspection and small oracles; the
    training path keeps coefficients on edges.
    """
    centers, neighbors = view.neighbor_arrays()
    n = view.num_nodes
    out = []
    for head in layer.heads:
        coeffs, _ = _head_attention(ad.Tensor(h_in), ad.Tensor(head.weight),
                                    ad.Tensor(head.attn), centers, neighbors, n)
        dense = np.zeros((n, n))
        dense[centers, neighbors] = coeffs.value
        out.append(dense)
    return out


def local_attention_forward(view: CriterionView, h_in: np.ndarray,
                            layer: LayerParams, last: bool = False) -> np.ndarray:
    """Multi-head attended features, ELU-activated unless this is the last layer."""
    centers, neighbors = view.neighbor_arrays()
    heads = [(ad.Tensor(h.weight), ad.Tensor(h.attn)) for h in layer.heads]
    return _local_layer(ad.Tensor(h_in), heads, centers, neighbors,
                        view.num_nodes, last).value


def global_attention_scores(h_local: np.ndarray, global_weight: np.ndarray) -> np.ndarray:
    """Probability vector over nodes: softmax of ReLU-clamped pooled scores."""
    return ad.softmax(ad.relu(ad.matmul(ad.Tensor(h_local),
                                        ad.Tensor(global_weight)))).value


def encode_view(view: CriterionView, params: Mapping[str, np.ndarray],
                config: EncoderConfig, use_global: bool = True) -> ViewEmbedding:
    matrix = encode_view_tensors(view, _as_tensors(params), config, use_global).value
    return ViewEmbedding(criterion_index=view.criterion_index, matrix=matrix)
