"""Graph construction: block extension and degree normalization vs dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mcgraph import graph
from mcgraph.dataset import DatasetError, RatingRecord, from_records


def dense_normalize_oracle(bp: np.ndarray) -> np.ndarray:
    """Independent loop-based normalization: (B/D_i + B/D_j) / 2, 1/0 := 0."""
    n = bp.shape[0]
    deg = bp.sum(axis=1)
    out = np.zeros_like(bp, dtype=float)
    for i in range(n):
        for j in range(n):
            left = bp[i, j] / deg[i] if deg[i] > 0 else 0.0
            right = bp[i, j] / deg[j] if deg[j] > 0 else 0.0
            out[i, j] = 0.5 * (left + right)
    return out


class TestExtendAdjacency:
    def test_one_by_one(self):
        out = graph.extend_adjacency(np.array([[1.0]])).toarray()
        assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_two_users_one_item_block_layout(self):
        out = graph.extend_adjacency(np.array([[4.0], [2.0]])).toarray()
        assert out.shape == (3, 3)
        assert_allclose(out[2], [4.0, 2.0, 0.0])
        assert_allclose(out[:, 2], [4.0, 2.0, 0.0])

    def test_diagonal_blocks_are_zero(self):
        rng = np.random.default_rng(42)
        b = rng.uniform(0, 5, size=(4, 3))
        out = graph.extend_adjacency(b).toarray()
        assert_allclose(out[:4, :4], np.zeros((4, 4)))
        assert_allclose(out[4:, 4:], np.zeros((3, 3)))
        assert_allclose(out[:4, 4:], b)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_always_symmetric(self, n, m, seed):
        b = np.random.default_rng(seed).uniform(0, 5, size=(n, m))
        out = graph.extend_adjacency(b).toarray()
        assert_allclose(out, out.T)


class TestNormalizeAdjacency:
    def test_unit_degrees_are_fixed_point(self):
        bp = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(graph.normalize_adjacency(bp).toarray(), bp)

    def test_two_user_one_item_worked_example(self):
        # degrees (4, 2, 6): entry (0,2) = 4*(1/4 + 1/6)/2 = 5/6,
        # entry (1,2) = 2*(1/2 + 1/6)/2 = 2/3
        bp = graph.extend_adjacency(np.array([[4.0], [2.0]]))
        out = graph.normalize_adjacency(bp).toarray()
        expected = np.array([[0.0, 0.0, 5.0 / 6.0],
                             [0.0, 0.0, 2.0 / 3.0],
                             [5.0 / 6.0, 2.0 / 3.0, 0.0]])
        assert_allclose(out, expected, atol=1e-15)

    def test_isolated_row_stays_zero(self):
        bp = np.array([[0.0, 2.0, 0.0],
                       [2.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0]])
        out = graph.normalize_adjacency(bp).toarray()
        assert_allclose(out[2], np.zeros(3))
        assert_allclose(out[:, 2], np.zeros(3))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            graph.normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            graph.normalize_adjacency(np.ones((2, 3)))

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1),
           st.floats(0.1, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, n, m, seed, density):
        rng = np.random.default_rng(seed)
        b = rng.uniform(1, 5, size=(n, m)) * (rng.uniform(size=(n, m)) < density)
        bp = graph.extend_adjacency(b)
        out = graph.normalize_adjacency(bp).toarray()
        assert_allclose(out, dense_normalize_oracle(bp.toarray()), atol=1e-12)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_pattern_preserving(self, n, m, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(1, 5, size=(n, m)) * (rng.uniform(size=(n, m)) < 0.5)
        bp = graph.extend_adjacency(b).toarray()
        out = graph.normalize_adjacency(bp).toarray()
        assert_allclose(out, out.T, atol=1e-15)
        assert np.array_equal(out > 0, bp > 0)


def small_dataset():
    recs = [RatingRecord("u1", "i1", 4.0, (4.0, 0.0, 2.0)),
            RatingRecord("u1", "i2", 3.0, (3.0, 3.0, 0.0)),
            RatingRecord("u2", "i1", 5.0, (2.0, 0.0, 0.0))]
    return from_records(recs)


class TestBuildViews:
    def test_one_view_per_criterion(self, monkeypatch):
        views = graph.build_views(small_dataset())
        assert type(views) is graph.Views
        assert len(views) == 3
        assert [v.criterion_index for v in views] == [1, 2, 3]
        for v in views:
            assert v.adjacency.shape == (4, 4)
        # the views' block graph is built on first use, once, and kept
        real, built = graph.block_graph, []

        def counting(views):
            built.append(views)
            return real(views)
        monkeypatch.setattr(graph, "block_graph", counting)
        block = views.block
        assert views.block is block and len(built) == 1 and built[0] is views
        assert block.view_indices == (1, 2, 3) and block.num_nodes == 4

    def test_edge_weights_are_criterion_scores(self):
        views = graph.build_views(small_dataset())
        assert views[0].incidence[0, 0] == 4.0
        assert views[0].incidence[0, 1] == 3.0
        assert views[0].incidence[1, 0] == 2.0

    def test_zero_score_means_no_edge(self):
        views = graph.build_views(small_dataset())
        # (u1, i1) is scored only on criteria 1 and 3
        assert views[1].incidence[0, 0] == 0.0
        assert views[1].incidence.nnz == 1
        assert views[2].incidence.nnz == 1

    def test_all_zero_criterion_gives_empty_view(self):
        recs = [RatingRecord("u1", "i1", 3.0, (3.0, 0.0)),
                RatingRecord("u2", "i2", 4.0, (4.0, 0.0))]
        views = graph.build_views(from_records(recs))
        assert views[1].adjacency.nnz == 0

    def test_degrees_match_extension_row_sums(self):
        for view in graph.build_views(small_dataset()):
            assert_allclose(view.degrees,
                            np.asarray(view.extended.sum(axis=1)).ravel())

    def test_neighbor_arrays_row_major_sorted(self):
        view = graph.build_views(small_dataset())[0]
        centers, neighbors = view.neighbor_arrays()
        order = np.lexsort((neighbors, centers))
        assert np.array_equal(order, np.arange(len(centers)))
        dense = view.adjacency.toarray()
        for i, j in zip(centers, neighbors):
            assert dense[i, j] > 0

    def test_neighbor_arrays_are_the_adjacency_csr(self):
        view = graph.build_views(small_dataset())[0]
        coo = view.adjacency.tocoo()
        first = view.neighbor_arrays()
        for got, want in zip(first, (coo.row, coo.col)):
            assert got.dtype == np.intp and np.array_equal(got, want)
        # a fresh pair on each call: writing into one leaves the next intact
        for arr in first:
            arr[:] = -1
        for got, want in zip(view.neighbor_arrays(), (coo.row, coo.col)):
            assert np.array_equal(got, want)

    def test_empty_dataset_rejected(self):
        data = small_dataset()
        none = np.zeros(0, dtype=np.intp)
        empty = type(data)(data.user_ids, data.item_ids, none, none, np.zeros(0),
                           np.zeros((0, data.num_criteria)))
        with pytest.raises(DatasetError, match="empty dataset"):
            graph.build_views(empty)


class TestEdgeDots:
    @pytest.mark.parametrize("row_shape", [(5,), (2, 3)])
    def test_tiles_equal_one_whole_gather(self, monkeypatch, row_shape):
        rng = np.random.default_rng(1)
        left, right = rng.normal(size=(2, 9) + row_shape)
        centers, neighbors = rng.integers(0, 9, size=(2, 40))
        want = np.einsum("e...d,e...d->e...", left[centers], right[neighbors])
        width = int(np.prod(row_shape))
        # one edge, 7 edges (ragged last tile) and one tile
        for edges_per_tile in (1, 7, 40):
            monkeypatch.setattr(graph, "EDGE_TILE", edges_per_tile * width)
            got = graph.edge_dots(left, right, centers, neighbors)
            assert got.shape == (40,) + row_shape[:-1]
            assert np.array_equal(got, want)

    def test_no_edges_give_an_empty_result(self):
        rows = np.ones((3, 2, 4))
        empty = np.zeros(0, dtype=np.intp)
        assert graph.edge_dots(rows, rows, empty, empty).shape == (0, 2)
