import hashlib
import warnings

import numpy as np
import pytest

from neighborprune import similarity
from neighborprune.similarity import GuardError, build_graph
from neighborprune.verify import TREND_SYNTH, TREND_TAU, SynthConfig, generate_synthetic

from invariants import validate_graph


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
        validate_graph(graph)

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
        # A NaN or infinite norm is refused like a zero one; it would
        # otherwise leave its row isolated, without its edges.
        for bad in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]):
            emb = np.array([[1.0, 0.0], bad, [0.0, 1.0]])
            with pytest.raises(ValueError, match="row 1 has a zero or non-finite"):
                build_graph(emb, 0.5)

    def test_rows_whose_squares_under_or_overflow_keep_their_edges(self):
        # Each row is parallel to [1, 1], whose squares fit in a float64.
        emb = np.array([[1.0, 1.0], [1.0, 0.99], [0.0, 1.0], [1.0, 0.0]])
        reference = build_graph(emb, 0.9)
        for row in ([1e200, 1e200], [1e-200, 1e-200]):
            emb[0] = row
            graph = build_graph(emb, 0.9)
            for i in range(4):
                for got, want in zip(graph.neighbors(i), reference.neighbors(i)):
                    np.testing.assert_array_equal(got, want)
        assert reference.neighbors(0)[0].tolist() == [0, 1]

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
        validate_graph(graph)

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
        validate_graph(graph)
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
        validate_graph(graph)  # symmetric weights, self edges 1.0
        assert graph_digest(graph) == "a0a4ec1fa754181e0e9479075ea2dcbd"

    def test_rows_not_a_multiple_of_block_size(self):
        emb = np.random.default_rng(6).standard_normal((250, 6))
        graph = build_graph(emb, 0.3, block_size=64)
        validate_graph(graph)
        assert graph_digest(graph) == "3fbb9f239d8076dd5721961cf15a670c"

    def test_fewer_rows_than_one_block(self):
        emb = np.random.default_rng(9).standard_normal((50, 6))
        graph = build_graph(emb, 0.3)
        validate_graph(graph)
        assert graph_digest(graph) == "4808c00bd0a61265eb53cd468c0a4ed7"

    def test_one_row(self):
        graph = build_graph(np.array([[3.0, 4.0]]), 0.5)
        validate_graph(graph)
        assert graph_digest(graph) == "1287ab8b1c8b0f58df1630ce6d310d6e"


def strip_crossing_input():
    """3 000 rows at the default block size: the last block has 952 rows and
    ends in a partial strip. Runs of six scaled duplicates straddle the strip
    boundary at column 512 of the first and the last diagonal pair."""
    emb = np.random.default_rng(16).standard_normal((3000, 16))
    scales = np.array([1.0, 3.0, 0.1, 7.3, 1e-3, 2.5])[:, None]
    for lo in (509, 2048 + 509):
        emb[lo : lo + 6] = emb[lo] * scales
    return emb


class TestColumnStrips:
    """Each block pair's product runs in column strips of 512; the bytes are
    those of one product per pair, a measured property of the BLAS."""

    def test_strip_crossing_bytes_are_pinned(self):
        emb = strip_crossing_input()
        unit = emb / np.linalg.norm(emb, axis=1)[:, None]
        # In each strip the runs cross, two distinct duplicates' product,
        # computed in the strip's shape, rounds above 1: the clip and the
        # self entries are exercised inside strips.
        for block in ((0, 1024), (2048, 3000)):
            run = np.arange(6) + block[0] + 509
            for c_lo in range(block[0], block[1], 512):
                c_hi = min(c_lo + 512, block[1])
                sims = unit[block[0] : block[1]] @ unit[c_lo:c_hi].T
                cols = run[(run >= c_lo) & (run < c_hi)]
                dup = sims[np.ix_(run - block[0], cols - c_lo)]
                assert np.count_nonzero((dup > 1.0) & (run[:, None] != cols)), c_lo
        graph = build_graph(emb, 0.3)
        assert graph.weights.max() <= 1.0
        validate_graph(graph)
        assert graph_digest(graph) == "73e6f9884c35629cef74a13b7179703e"

    def test_strips_match_one_product_per_pair(self, monkeypatch):
        emb = strip_crossing_input()
        strips = build_graph(emb, 0.3)
        monkeypatch.setattr(similarity, "STRIP", similarity.DEFAULT_BLOCK_SIZE + 1)
        whole = build_graph(emb, 0.3)
        for array in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(strips, array), getattr(whole, array))

    def test_gauss_dense_graph_bytes_are_pinned(self):
        # The shape of the gauss_dense benchmark's graph: 820 block pairs.
        emb = np.random.default_rng(0).standard_normal((40000, 32))
        graph = build_graph(emb, 0.5)
        assert graph.num_edges == 2_477_744
        assert graph_digest(graph) == "b25eb4e608c3993c5c5e5e3fe4b5d786"


def counted_pair_edges(monkeypatch):
    """Record the arguments of every _pair_edges call of the builds that follow."""
    calls = []
    pair_edges = similarity._pair_edges

    def counted(*args):
        calls.append(args)
        return pair_edges(*args)

    monkeypatch.setattr(similarity, "_pair_edges", counted)
    return calls


def block_pairs(m, block_size):
    blocks = [(lo, min(lo + block_size, m)) for lo in range(0, m, block_size)]
    return [(a, b) for i, a in enumerate(blocks) for b in blocks[i:]]


class TestSkippedBlockPairs:
    """The angle bound skips only block pairs whose product holds no edge."""

    def test_near_threshold_great_circle(self, monkeypatch):
        # Blocks of 4 rows on the unit circle, each spanning 0.05 rad, so the
        # bound between neighbouring blocks is exactly their angular gap. The
        # gaps sit 1e-9 rad either side of arccos(tau), where the bound is
        # tight, or 1e-3 rad beyond it.
        tau = 0.95
        theta = np.arccos(tau)
        gaps = [theta - 1e-9, theta + 1e-9, theta + 1e-3, theta - 1e-9, theta + 1e-9]
        starts = np.concatenate([[0.0], np.cumsum(0.05 + np.array(gaps))])
        angles = (starts[:, None] + np.linspace(0.0, 0.05, 4)).ravel()
        emb = np.column_stack([np.cos(angles), np.sin(angles)])
        m = emb.shape[0]
        calls = counted_pair_edges(monkeypatch)
        graph = build_graph(emb, tau, block_size=4)
        computed = {(a, b) for _, _, a, b in calls}
        skipped = [pair for pair in block_pairs(m, 4) if pair not in computed]
        assert len(skipped) == graph.block_pairs_skipped > 0
        # Neighbouring blocks 1e-9 rad either side of arccos(tau) are
        # computed; the pair 1e-3 rad beyond it is skipped.
        adjacent = [((4 * k, 4 * k + 4), (4 * k + 4, 4 * k + 8)) for k in range(5)]
        assert [p in computed for p in adjacent] == [True, True, False, True, True]
        normalized = calls[0][0]
        for a, b in skipped:
            rows, _, _ = similarity._pair_edges(normalized, tau, a, b)
            assert rows.size == 0, (a, b)
        # Brute-force all-pairs reference.
        sims = normalized @ normalized.T
        np.fill_diagonal(sims, 1.0)
        rows, cols = np.nonzero(sims >= tau)
        degrees = np.bincount(rows, minlength=m)
        np.testing.assert_array_equal(graph.indptr, np.r_[0, np.cumsum(degrees)])
        np.testing.assert_array_equal(graph.indices, cols)
        np.testing.assert_allclose(
            graph.weights, np.minimum(sims[rows, cols], 1.0), rtol=0, atol=1e-12
        )
        # The gaps just under arccos(tau) do hold edges.
        assert graph.neighbors(3)[0].tolist() == [0, 1, 2, 3, 4]
        validate_graph(graph)

    def test_class_ordered_synthetic_bytes_are_pinned(self, monkeypatch):
        # synth writes rows grouped by class, so most of the 78 pairs of
        # 256-row blocks are skipped; the digest was recorded by the build
        # that computed every pair.
        config = SynthConfig(seed=7, **(TREND_SYNTH | {"points_per_class": 300}))
        emb = generate_synthetic(config).embeddings
        calls = counted_pair_edges(monkeypatch)
        graph = build_graph(emb, TREND_TAU, block_size=256)
        assert graph_digest(graph) == "78cbbaff9c2aae379af3b90e10e1ad6c"
        assert graph.block_pairs == len(block_pairs(emb.shape[0], 256)) == 78
        assert len(calls) == 78 - graph.block_pairs_skipped < 78

    def test_zero_sum_block_is_never_skipped(self, monkeypatch):
        # Block (0, 2) holds x and -x: its centroid is undefined, so no pair
        # with it may be skipped, and no division or invalid-value warning
        # may be raised on the way.
        emb = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.01, 1.0], [0.0, -1.0], [0.01, -1.0]]
        )
        calls = counted_pair_edges(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = build_graph(emb, 0.9, block_size=2)
        computed = {(a, b) for _, _, a, b in calls}
        assert {((0, 2), (2, 4)), ((0, 2), (4, 6))} <= computed
        assert ((2, 4), (4, 6)) not in computed
        assert graph.block_pairs_skipped == 1
        validate_graph(graph)
        assert [graph.neighbors(i)[0].tolist() for i in range(6)] == [
            [0], [1], [2, 3], [2, 3], [4, 5], [4, 5],
        ]
