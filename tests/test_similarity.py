import hashlib

import numpy as np
import pytest

from neighborprune import similarity
from neighborprune.similarity import GuardError, build_graph


def edge_set(graph):
    out = {}
    for i in range(graph.num_rows):
        idx, w = graph.neighbors(i)
        for j, wij in zip(idx.tolist(), w.tolist()):
            out[(i, j)] = wij
    return out


def graph_digest(graph):
    """blake2b-128 over indptr, the int64 view of indices, and weights."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (graph.indptr, graph.indices.astype(np.int64), graph.weights):
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestBuildGraph:
    def test_worked_three_point_instance(self):
        # All-pairs oracle: cos(0,1)=1, cos(0,2)=cos(1,2)=0, threshold 0.5.
        graph = build_graph(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 0.5)
        idx0, w0 = graph.neighbors(0)
        np.testing.assert_array_equal(idx0, [0, 1])
        np.testing.assert_allclose(w0, [1.0, 1.0])
        idx2, w2 = graph.neighbors(2)
        np.testing.assert_array_equal(idx2, [2])
        np.testing.assert_allclose(w2, [1.0])
        graph.validate()

    def test_tau_one_keeps_only_duplicates(self):
        emb = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
        graph = build_graph(emb, 1.0)
        idx0, _ = graph.neighbors(0)
        np.testing.assert_array_equal(idx0, [0, 1])
        for i in (2, 3):
            idx, w = graph.neighbors(i)
            np.testing.assert_array_equal(idx, [i])
            assert w[0] == 1.0

    def test_single_row(self):
        graph = build_graph(np.array([[3.0, 4.0]]), 0.5)
        idx, w = graph.neighbors(0)
        np.testing.assert_array_equal(idx, [0])
        assert w[0] == 1.0

    def test_zero_norm_row_reported_with_index(self):
        emb = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 1"):
            build_graph(emb, 0.5)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            build_graph(np.eye(2), -1.0)

    def test_edge_cap_guard(self):
        emb = np.random.default_rng(1).standard_normal((40, 3))
        with pytest.raises(GuardError, match="edge cap"):
            build_graph(emb, 0.0, edge_cap=10)

    def test_edge_cap_guard_stops_at_the_tripping_pair(self, monkeypatch):
        # 400 rows in blocks of 100 make 10 block pairs; the first one alone
        # stores far more than 1000 entries at tau = -0.9.
        calls = []
        pair_edges = similarity._pair_edges

        def counted(*args):
            calls.append(args[2:])  # the block pair (a, b)
            return pair_edges(*args)

        monkeypatch.setattr(similarity, "_pair_edges", counted)
        emb = np.random.default_rng(2).standard_normal((400, 8))
        with pytest.raises(GuardError, match="edge cap"):
            build_graph(emb, -0.9, block_size=100, edge_cap=1000)
        assert calls == [((0, 100), (0, 100))]

    def test_raising_tau_never_adds_edges(self):
        rng = np.random.default_rng(7)
        emb = rng.standard_normal((60, 5))
        low = edge_set(build_graph(emb, 0.2))
        high = edge_set(build_graph(emb, 0.6))
        assert set(high) <= set(low)
        for key, w in high.items():
            assert w == pytest.approx(low[key])

    def test_positive_row_scaling_leaves_graph_unchanged(self):
        rng = np.random.default_rng(8)
        emb = rng.standard_normal((50, 4))
        scaled = emb * rng.uniform(0.1, 10.0, size=(50, 1))
        g1 = build_graph(emb, 0.4)
        g2 = build_graph(scaled, 0.4)
        np.testing.assert_array_equal(g1.indptr, g2.indptr)
        np.testing.assert_array_equal(g1.indices, g2.indices)
        np.testing.assert_allclose(g1.weights, g2.weights, atol=1e-9)

    def test_graph_bytes_are_pinned(self):
        # 3000 rows in blocks of 256 make 78 block pairs; the digest pins
        # every value of the CSR arrays, float64 weights included, with
        # indices hashed as int64 whatever their stored width.
        emb = np.random.default_rng(5).standard_normal((3000, 16))
        graph = build_graph(emb, 0.3, block_size=256)
        assert graph_digest(graph) == "49c419a3d95b418ebb457172691b6615"

    def test_blocked_build_is_symmetric_and_valid(self):
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((130, 6))
        graph = build_graph(emb, 0.25, block_size=32)
        graph.validate()

    def test_weights_match_direct_cosine(self):
        rng = np.random.default_rng(12)
        emb = rng.standard_normal((25, 4))
        graph = build_graph(emb, 0.3)
        for i in range(25):
            idx, w = graph.neighbors(i)
            for j, wij in zip(idx.tolist(), w.tolist()):
                if i == j:
                    assert wij == 1.0
                else:
                    u, v = emb[i], emb[j]
                    cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                    assert wij == pytest.approx(cos, abs=1e-12)


class TestPinnedEdgeCases:
    """Digests of small graphs at the corners of blocked edge extraction.

    Each digest was recorded with an independent extraction (a 2-D mask per
    block pair, then one global lexsort), so it pins the bytes, not just the
    invariants.
    """

    def test_negative_tau(self):
        # Weights below zero are kept; the product is never clipped from below.
        emb = np.random.default_rng(3).standard_normal((300, 4))
        graph = build_graph(emb, -0.5, block_size=64)
        graph.validate()
        assert graph.weights.min() < 0.0
        assert graph_digest(graph) == "94f36f5be410da301b61169eac62df99"

    def test_scaled_duplicates_round_above_one(self):
        base = np.random.default_rng(4).standard_normal((12, 5))
        emb = np.concatenate([base * s for s in (1.0, 3.0, 0.1, 7.3, 1e-3)])
        unit = emb / np.linalg.norm(emb, axis=1)[:, None]
        sims = unit @ unit.T
        np.fill_diagonal(sims, 0.0)
        assert np.count_nonzero(sims > 1.0)  # the input does exercise the clip
        graph = build_graph(emb, 0.2)
        assert graph.weights.max() <= 1.0
        graph.validate()  # symmetric weights, self edges 1.0
        assert graph_digest(graph) == "a0a4ec1fa754181e0e9479075ea2dcbd"

    def test_rows_not_a_multiple_of_block_size(self):
        emb = np.random.default_rng(6).standard_normal((250, 6))
        graph = build_graph(emb, 0.3, block_size=64)
        graph.validate()
        assert graph_digest(graph) == "3fbb9f239d8076dd5721961cf15a670c"

    def test_fewer_rows_than_one_block(self):
        emb = np.random.default_rng(9).standard_normal((50, 6))
        graph = build_graph(emb, 0.3)
        graph.validate()
        assert graph_digest(graph) == "4808c00bd0a61265eb53cd468c0a4ed7"

    def test_one_row(self):
        graph = build_graph(np.array([[3.0, 4.0]]), 0.5)
        graph.validate()
        assert graph_digest(graph) == "1287ab8b1c8b0f58df1630ce6d310d6e"
