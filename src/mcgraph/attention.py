"""Dual-attention view encoder.

Two stacked layers per criterion view. Each layer runs multi-head neighbor
attention over the view's adjacency pattern (scores from
LeakyReLU(a^T [W h_i || W h_j]), softmax restricted to each node's
neighbors), then rescales node rows by a global gate derived from a
softmax over pooled node scores. Datasets carry no node features, so the
input matrix X is itself a learnable parameter shared by all views.

All views are encoded together as one block-diagonal graph of V*n nodes
(`graph.BlockGraph`; node i of view v is row v*n + i), and each layer is
one kernel, `_dual_attention`, that returns its value and a `back` closure
with a hand-derived backward: the first layer projects the shared X by
every view's heads in one matmul, the second projects each view's block by
its own heads in one batched matmul. One softmax runs over the (edges,
heads) scores of all views, and the first layer's ELU and the global gate
run inside the kernel. Sums of per-edge scores are cached CSR segment
operators (`S @ values`). The α-weighted sum of neighbour projections is
one sparse-dense product (g-SpMM, as in DGL and PyG) with the graph's
cached head-stacked operator (`BlockGraph.edge_product`), whose nonzeros
are the (E, H) coefficients, so no per-edge message array is built; the
backward multiplies by the transpose. `encode_stack` is the two kernel
calls whatever the number of views and heads; encoding one view is the
one-block case. `encode_view_tensors` wraps it as one autodiff tape node
for gradient checks.

Parameters are addressed by name (`head_key`, `gate_key`, "x") in a
name -> array dict. During training each entry is a reshaped view into one
contiguous parameter vector, in `init_params`' key order, so the optimizer
and the regularizer see a single vector while the encoder reads names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .graph import BlockGraph, CriterionView, block_graph

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
class LayerParams:
    """One view's layer, its heads stacked as `_dual_attention` takes them."""
    weight: np.ndarray         # (num_heads, head_dim, fan_in)
    attn: np.ndarray           # (num_heads, 2 * head_dim)
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
    weight, attn = (np.stack([params[head_key(view_index, layer, h, field)]
                              for h in range(1, config.num_heads + 1)])
                    for field in ("w", "a"))
    return LayerParams(weight, attn, np.asarray(params[gate_key(view_index, layer)]))


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _head_scores(blocks: np.ndarray, attn: np.ndarray) -> np.ndarray:
    """(V*n, H) dot products attn[v, k] . blocks[v, i, k], one einsum per
    view over a contiguous (H, F') slice; one einsum over all V runs
    several times slower."""
    out = np.empty(blocks.shape[:3])
    for block, view_attn, view_out in zip(blocks, attn, out):
        np.einsum("nhd,hd->nh", block, np.ascontiguousarray(view_attn), out=view_out)
    return out.reshape(-1, blocks.shape[2])


# ---------------------------------------------------------------------------
# kernels (used directly by training)

def _dual_attention(h_in: np.ndarray, w_in: np.ndarray, a_in: np.ndarray,
                    wg: np.ndarray | None, graph: BlockGraph, first: bool):
    """One dual-attention layer of every view as one kernel.

    `w_in` (V*H, F', F) and `a_in` (V*H, 2F') stack each view's heads,
    view-major; `wg` (V, H*F') holds one global weight per view, or is None
    to leave the gate out. The first layer projects the shared (n, F) input
    by every view's heads and applies ELU after the neighbor attention; a
    later layer projects each view's block of the (V*n, F) stack by that
    view's heads. Returns the (V*n, H*F') stack, the (E, H) attention
    coefficients, the (V, n) gate factors (None without the gate) and
    `back`, which maps the stack's gradient to (d_h, d_w, d_a, d_wg) shaped
    like the inputs (d_wg None without the gate).

    Edge e = (centers[e], neighbors[e]) scores head k as
    LeakyReLU(a_k[:F'] . P_k[center] + a_k[F':] . P_k[neighbor]) with
    P_k = h W_k^T; the softmax runs per center and head. Head k of node c
    is then sum_e coeffs[e, k] P_k[neighbors[e]] over c's edges, for all
    heads one sparse product (`graph.edge_product`); its transpose gives
    the backward's message term of d P. The gate scales each view's rows
    by n * softmax(ReLU(h wg)) over that view's nodes.
    """
    num_views, n = graph.num_views, graph.num_nodes
    num_heads, head_dim = w_in.shape[0] // num_views, w_in.shape[1]
    width = num_heads * head_dim
    centers, neighbors = graph.centers, graph.neighbors
    w = w_in.reshape(num_views, width, -1)
    a = a_in.reshape(num_views, num_heads, 2, head_dim)
    if first:
        proj = (h_in @ w.reshape(num_views * width, -1).T).reshape(
            n, num_views, width).transpose(1, 0, 2)
    else:
        proj = h_in.reshape(num_views, n, -1) @ w.transpose(0, 2, 1)
    proj = np.ascontiguousarray(proj).reshape(num_views * n, num_heads, head_dim)
    blocks = proj.reshape(num_views, n, num_heads, head_dim)
    s_src, s_dst = (_head_scores(blocks, a[:, :, side]) for side in (0, 1))
    # np.take: row gathers run several times faster than fancy indexing
    raw = np.take(s_src, centers, axis=0) + np.take(s_dst, neighbors, axis=0)
    slope = np.where(raw > 0.0, 1.0, LEAKY_SLOPE)
    scores = raw * slope
    # per (center, head) max shift; a center's edges are one run
    e = np.exp(scores - np.repeat(
        np.maximum.reduceat(scores, graph.run_starts, axis=0)
        if centers.size else scores, graph.run_lengths, axis=0))
    coeffs = e / np.take(graph.center_sum @ e, centers, axis=0)
    local = graph.edge_product(coeffs, proj)
    act = np.where(local > 0.0, local, np.expm1(local)) if first else local
    factor = None
    out = act
    if wg is not None:
        act_v = act.reshape(num_views, n, width)
        pre = (act_v @ wg[:, :, None])[:, :, 0]                   # (V, n)
        probs = _softmax_rows(np.maximum(pre, 0.0))
        # uniform scores make the factor exactly 1, leaving rows unchanged
        factor = probs * float(n)
        out = (act_v * factor[:, :, None]).reshape(num_views * n, width)

    def back(g):
        d_act, d_wg = g, None
        if wg is not None:
            g_v = g.reshape(num_views, n, width)
            d_probs = (g_v * act_v).sum(axis=2) * float(n)
            d_pre = probs * (d_probs - (probs * d_probs).sum(axis=1, keepdims=True))
            d_pre *= pre > 0.0
            d_act = (g_v * factor[:, :, None]
                     + d_pre[:, :, None] * wg[:, None, :]).reshape(-1, width)
            d_wg = np.einsum("vn,vnd->vd", d_pre, act_v)
        d_local = d_act * np.where(local > 0.0, 1.0, act + 1.0) if first else d_act
        d_rows = d_local.reshape(-1, num_heads, head_dim)
        d_coeffs = np.einsum("ehd,ehd->eh", np.take(d_rows, centers, axis=0),
                             np.take(proj, neighbors, axis=0))
        weighted = graph.center_sum @ (coeffs * d_coeffs)
        d_raw = coeffs * (d_coeffs - np.take(weighted, centers, axis=0)) * slope
        d_src = (graph.center_sum @ d_raw).reshape(num_views, n, num_heads)
        d_dst = (graph.neighbor_sum @ d_raw).reshape(num_views, n, num_heads)
        d_proj = graph.edge_product(coeffs, d_rows, transpose=True).reshape(
            num_views, n, num_heads, head_dim)
        d_proj += (d_src[..., None] * a[:, None, :, 0]
                   + d_dst[..., None] * a[:, None, :, 1])
        d_a = np.stack([np.einsum("vnh,vnhd->vhd", d_src, blocks),
                        np.einsum("vnh,vnhd->vhd", d_dst, blocks)], axis=2)
        d_proj = d_proj.reshape(num_views, n, width)
        if first:
            d_w = d_proj.transpose(0, 2, 1) @ h_in
            d_h = (d_proj.transpose(1, 0, 2).reshape(n, -1)
                   @ w.reshape(num_views * width, -1))
        else:
            h_blocks = h_in.reshape(num_views, n, -1)
            d_w = d_proj.transpose(0, 2, 1) @ h_blocks
            d_h = (d_proj @ w).reshape(num_views * n, -1)
        return d_h, d_w.reshape(w_in.shape), d_a.reshape(a_in.shape), d_wg
    return out, coeffs, factor, back


def encode_stack(graph: BlockGraph, params: Mapping[str, np.ndarray],
                 config: EncoderConfig, use_global: bool = True):
    """Two-layer encoding of every view of `graph` by two kernel calls; row
    v*n + i is node i's embedding in view v. Returns the stack, the
    parameter keys it reads and `back`, which maps the stack's gradient to
    one gradient per key, in `keys` order."""
    heads = range(1, config.num_heads + 1)
    h, keys, backs = params["x"], ["x"], []
    for layer in (1, 2):
        groups = [[head_key(v, layer, k, field) for v in graph.view_indices
                   for k in heads] for field in ("w", "a")]
        groups.append([gate_key(v, layer) for v in graph.view_indices]
                      if use_global else [])
        w, a, wg = (np.stack([params[k] for k in group]) if group else None
                    for group in groups)
        h, _, _, back = _dual_attention(h, w, a, wg, graph, first=(layer == 1))
        keys += [k for group in groups for k in group]
        backs.append(back)

    def back(g):
        grads = []
        for layer_back in reversed(backs):
            g, *layer_grads = layer_back(g)
            grads[:0] = [x for group in layer_grads if group is not None
                         for x in group]
        return [g, *grads]
    return h, keys, back


def encode_view_tensors(view: CriterionView, tensors: Mapping[str, ad.Tensor],
                        config: EncoderConfig, use_global: bool = True) -> ad.Tensor:
    """`encode_stack` of one view as one tape node over the parameter leaves
    it reads; rows are node embeddings."""
    stack, keys, back = encode_stack(
        view.block, {k: t.value for k, t in tensors.items()}, config, use_global)
    return ad.Tensor(stack, "encoder", tuple(tensors[k] for k in keys), back)


# ---------------------------------------------------------------------------
# numpy-level operations (inference, inspection, tests)

def local_attention_coeffs(view: CriterionView, h_in: np.ndarray,
                           layer: LayerParams) -> list[np.ndarray]:
    """Per-head dense coefficient matrices; row i sums to 1 over i's neighbors.

    Dense (n x n) materialization is for inspection and small oracles; the
    training path keeps coefficients on edges.
    """
    centers, neighbors = view.neighbor_arrays()
    n = view.num_nodes
    coeffs = _dual_attention(np.asarray(h_in, dtype=np.float64), layer.weight,
                             layer.attn, None, view.block, first=True)[1]
    out = []
    for head_coeffs in coeffs.T:
        dense = np.zeros((n, n))
        dense[centers, neighbors] = head_coeffs
        out.append(dense)
    return out


def local_attention_forward(view: CriterionView, h_in: np.ndarray,
                            layer: LayerParams, last: bool = False) -> np.ndarray:
    """Multi-head attended features, ELU-activated unless this is the last layer."""
    return _dual_attention(np.asarray(h_in, dtype=np.float64), layer.weight,
                           layer.attn, None, view.block, first=not last)[0]


def global_attention_scores(h_local: np.ndarray, global_weight: np.ndarray) -> np.ndarray:
    """Probability vector over nodes: softmax of ReLU-clamped pooled scores."""
    return _softmax_rows(np.maximum(h_local @ global_weight, 0.0))


def encode_views(views: Sequence[CriterionView], params: Mapping[str, np.ndarray],
                 config: EncoderConfig, use_global: bool = True) -> list[ViewEmbedding]:
    """Encode every view in one pass over their block-diagonal graph."""
    graph = views[0].block if len(views) == 1 else block_graph(views)
    stack = encode_stack(graph, params, config, use_global)[0]
    blocks = stack.reshape(graph.num_views, graph.num_nodes, -1)
    return [ViewEmbedding(criterion_index=v.criterion_index, matrix=block)
            for v, block in zip(views, blocks)]


def encode_view(view: CriterionView, params: Mapping[str, np.ndarray],
                config: EncoderConfig, use_global: bool = True) -> ViewEmbedding:
    return encode_views([view], params, config, use_global)[0]
