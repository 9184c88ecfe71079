"""Per-criterion bipartite views and their normalized adjacency matrices.

Each rating criterion induces its own user-item graph: an N x M incidence
holding the criterion's scores as edge weights, a symmetric (N+M) x (N+M)
block extension of it, and a degree-normalized form of that extension. All
matrices are kept sparse; (N+M)^2 dense storage is only for small oracles.
The normalized adjacency's CSR is the view's one edge list: its row pointer
and column indices are the (center, neighbor) edges, in row-major order.

`block_graph` stacks V views into one block-diagonal graph of V*n nodes
(`BlockGraph`), the layout the encoder runs on: the views' CSRs stacked,
each row pointer shifted by the edges and each column index by the nodes
of the views before it. Its one sparse operator is the edge pattern
itself, a (V*n, V*n) CSR built on first use that serves every head
count: for each attention head, `BlockGraph.edge_product` writes that
head's per-edge weights into its data buffer and multiplies, so an
α-weighted sum over every center's neighbors is one sparse-dense product
per head, and a plain sum of edge values into their centers (or, by the
transpose, their neighbors) is the product with a block of ones.
`view.block` (one view) and `Views.block` (a fit's views, shared by
training and the rating head) are built once and kept.

`edge_dots` is the product's counterpart that yields one value per edge
(g-SDDMM): the dot of a center row with a neighbor row, taken over fixed
tiles of edges so that only one tile's rows are ever gathered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .dataset import DatasetError, RatingDataset

# gathered elements per operand in one `edge_dots` tile: 4096 edges of the
# default 2 heads x 4 dims, 256 KiB. On the scale-50k benchmark graph (2-vCPU
# VM) the encoder backward timed the same from 2048 to 32768 edges per tile
# and 40% slower at 256.
EDGE_TILE = 1 << 15


@dataclass(frozen=True, eq=False)
class CriterionView:
    """One criterion's graph: incidence, block extension, degrees, normalization."""

    criterion_index: int  # 1-based
    num_users: int
    num_items: int
    incidence: sp.csr_matrix           # N x M, entry = criterion rating, 0 if unrated
    extended: sp.csr_matrix            # (N+M) x (N+M) block form [[0, B], [B^T, 0]]
    degrees: np.ndarray                # weighted degree per node, length N+M
    adjacency: sp.csr_matrix           # normalized extension

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    def neighbor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges of the normalized adjacency as (center, neighbor) index arrays.

        Row-major with sorted columns, so the order is deterministic. Item
        nodes are offset by num_users. Read from the adjacency's CSR per call.
        """
        a = self.adjacency
        return (np.repeat(np.arange(self.num_nodes), np.diff(a.indptr)),
                a.indices.astype(np.intp))

    @functools.cached_property
    def block(self) -> "BlockGraph":
        """This view alone as a one-block `BlockGraph`, built on first use."""
        return block_graph([self])


@dataclass(frozen=True, eq=False)
class BlockGraph:
    """V views of n nodes each as one graph of V*n nodes.

    Node i of view v is row v*n + i. The edges keep each view's row-major
    order, so every center's edges are contiguous: center c's edges are
    `indptr[c]:indptr[c+1]`.

    `edge_product` multiplies by the edge operator, the graph's one sparse
    operator: a (V*n, V*n) CSR built on first use and kept whose row c
    holds center c's edges in edge order at their neighbors' columns. Its
    row pointer is `indptr`, its `indices` are `neighbors`, and its
    transpose is a CSC over the same three buffers. Both add a row's (a
    column's) entries in stored order, that is, in edge order. Every head
    of every product writes its own weights into the one data buffer
    first, so no caller may rely on the weights an earlier call left there.
    """

    view_indices: tuple[int, ...]  # criterion index of each block
    num_nodes: int                 # per view
    centers: np.ndarray
    neighbors: np.ndarray
    indptr: np.ndarray             # (V*n + 1,) each center's first edge, then E

    @property
    def num_views(self) -> int:
        return len(self.view_indices)

    @functools.cached_property
    def _edge_operator(self) -> tuple[sp.csr_matrix, sp.csc_matrix]:
        """The edge operator and its transpose, sharing every buffer."""
        size = self.num_views * self.num_nodes
        op = sp.csr_matrix((np.zeros(self.centers.size), self.neighbors,
                            self.indptr), shape=(size, size))
        return op, op.T

    def edge_product(self, coeffs: np.ndarray, rows: np.ndarray,
                     transpose: bool = False) -> np.ndarray:
        """Per-head weighted sums over edges, one sparse product per head.

        `coeffs` is (E, H) and `rows` is (V*n, H, F). Head h of row c of the
        (V*n, H*F) result sums coeffs[e, h] * rows[neighbors[e], h] over c's
        edges e, in edge order; with `transpose`, head h of row j sums
        coeffs[e, h] * rows[centers[e], h] over the edges whose neighbor is
        j, in edge order.
        """
        op, op_t = self._edge_operator
        out = np.empty(rows.shape)
        for h in range(coeffs.shape[1]):
            op.data[...] = coeffs[:, h]
            out[:, h] = (op_t if transpose else op) @ rows[:, h]
        return out.reshape(rows.shape[0], -1)


def edge_dots(left: np.ndarray, right: np.ndarray, centers: np.ndarray,
              neighbors: np.ndarray) -> np.ndarray:
    """Row e of the result is left[centers[e]] . right[neighbors[e]] over the
    last axis, the leading axes kept: (n, F) rows give (E,), (n, H, F) rows
    give (E, H).

    Edges run in tiles of about `EDGE_TILE` gathered elements per operand,
    each written into one preallocated result, so no (E, ..., F) gather is
    built. Each row reduces in the same order for any tile size, so results
    are bit-identical to one whole gather.
    """
    out = np.empty(centers.shape + left.shape[1:-1])
    step = max(1, EDGE_TILE // math.prod(left.shape[1:]))
    for start in range(0, centers.size, step):
        tile = slice(start, start + step)
        np.einsum("...d,...d->...", np.take(left, centers[tile], axis=0),
                  np.take(right, neighbors[tile], axis=0), out=out[tile])
    return out


def block_graph(views: Sequence[CriterionView]) -> BlockGraph:
    """Stack the views' adjacency CSRs once; every encoder pass over them reuses it."""
    n, csrs = views[0].num_nodes, [v.adjacency for v in views]
    shifts = np.cumsum([0] + [a.nnz for a in csrs])
    indptr = np.concatenate([[0]] + [a.indptr[1:] + s for a, s in zip(csrs, shifts)])
    return BlockGraph(
        view_indices=tuple(v.criterion_index for v in views), num_nodes=n,
        centers=np.repeat(np.arange(len(views) * n), np.diff(indptr)),
        neighbors=np.concatenate([a.indices.astype(np.intp) + k * n
                                  for k, a in enumerate(csrs)]),
        indptr=indptr)


class Views(tuple):
    """One fit's criterion views; `views.block` is all of them as `view.block` is one."""

    @functools.cached_property
    def block(self) -> BlockGraph:
        """The views as one `BlockGraph`, built on first use and kept."""
        return block_graph(self)


def extend_adjacency(incidence) -> sp.csr_matrix:
    """Embed an N x M incidence into the symmetric block matrix [[0, B], [B^T, 0]]."""
    b = sp.csr_matrix(incidence)
    out = sp.bmat([[None, b], [b.T, None]], format="csr")
    out.sort_indices()
    return out


def normalize_adjacency(extended) -> sp.csr_matrix:
    """Symmetrically rescale by degrees: (D^-1 A + A D^-1) / 2.

    D_ii is the weighted row sum. Zero-degree rows use 1/0 := 0, which keeps
    isolated nodes' rows and columns all-zero instead of adding self-loops.
    """
    a = sp.csr_matrix(extended, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if a.nnz and a.data.min() < 0:
        raise ValueError("adjacency entries must be nonnegative")
    degrees = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    d_inv = sp.diags(inv)
    out = ((d_inv @ a) + (a @ d_inv)) * 0.5
    out = sp.csr_matrix(out)
    out.sort_indices()
    return out


def degree_vector(extended) -> np.ndarray:
    return np.asarray(sp.csr_matrix(extended).sum(axis=1)).ravel()


def build_views(train: RatingDataset) -> Views:
    """One CriterionView per criterion; zero criterion scores leave no edge."""
    if len(train) == 0:
        raise DatasetError("cannot build graph views from an empty dataset")
    n, m = train.num_users, train.num_items
    rows, cols = train.users, train.items

    views = []
    for c in range(train.num_criteria):
        weights = train.criteria[:, c]
        present = weights != 0.0
        incidence = sp.csr_matrix(
            (weights[present], (rows[present], cols[present])), shape=(n, m))
        incidence.sort_indices()
        extended = extend_adjacency(incidence)
        views.append(CriterionView(
            criterion_index=c + 1,
            num_users=n,
            num_items=m,
            incidence=incidence,
            extended=extended,
            degrees=degree_vector(extended),
            adjacency=normalize_adjacency(extended),
        ))
    return Views(views)
