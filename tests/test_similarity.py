import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from neighborprune import similarity
from neighborprune.similarity import GuardError, build_graph
from neighborprune.verify import TREND_SYNTH, TREND_TAU, SynthConfig, generate_synthetic

from invariants import validate_graph
from rss import child_peak


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


def reference_arrays(emb, tau):
    """Brute-force all-pairs CSR arrays under the graph's weight definition:
    each pair's numpy-summed float64 dot product of the normalized rows,
    masked at tau, clipped at 1, self entries 1.0, sorted per row."""
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    indptr, indices, weights = [0], [], []
    for i, row in enumerate(unit):
        w = np.add.reduce(row * unit, axis=1)
        w[i] = 1.0
        keep = np.flatnonzero(w >= tau)
        indptr.append(indptr[-1] + keep.size)
        indices.append(keep)
        weights.append(np.minimum(w[keep], 1.0))
    return np.array(indptr), np.concatenate(indices), np.concatenate(weights)


def assert_matches_reference(graph, emb, tau):
    """indptr, indices and weights equal the reference's byte for byte."""
    got = (graph.indptr, graph.indices.astype(np.int64), graph.weights)
    for name, g, want in zip(("indptr", "indices", "weights"), got, reference_arrays(emb, tau)):
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes(), name


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

    def test_rescued_rows_in_many_blocks_match_one_block(self):
        # Rows whose squares under- or overflow, or are subnormal, at the first
        # and last row of blocks of 4, inside them, and two in one block: the
        # blocked build equals the one-block build byte for byte, and the
        # input is not written.
        emb = np.random.default_rng(14).standard_normal((30, 3))
        rescued = {0: 1e-200, 3: 1e200, 4: 1e-310, 9: 1e200, 14: 1e-200, 15: 1e-310, 29: 1e200}
        for row, scale in rescued.items():
            emb[row] *= scale
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(emb, axis=1)
        assert np.flatnonzero((norms == 0) | (norms == np.inf)).tolist() == list(rescued)
        before = emb.copy()
        graph = build_graph(emb, 0.2, block_size=4)
        assert emb.tobytes() == before.tobytes()
        assert graph_digest(graph) == graph_digest(build_graph(emb, 0.2, block_size=30))
        assert all(graph.degrees()[list(rescued)] > 1)
        validate_graph(graph)

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
            calls.append(args[2:4])  # the block pair (a, b)
            return pair_edges(*args)

        monkeypatch.setattr(similarity, "_pair_edges", counted)
        emb = np.random.default_rng(2).standard_normal((400, 8))
        with pytest.raises(GuardError, match="edge cap"):
            build_graph(emb, -0.9, block_size=100, edge_cap=1000)
        assert calls == [((0, 100), (0, 100))]

    def test_edge_cap_counts_every_stored_entry(self, monkeypatch):
        # 250 rows in blocks of 100 make 6 block pairs, none skipped on
        # Gaussian rows; the cap trips only once the last pair is counted.
        emb = np.random.default_rng(3).standard_normal((250, 8))
        edges = build_graph(emb, 0.3, block_size=100).num_edges
        graph = build_graph(emb, 0.3, block_size=100, edge_cap=edges)
        assert graph.num_edges == edges and graph.block_pairs_skipped == 0
        calls = counted_pair_edges(monkeypatch)
        with pytest.raises(GuardError, match="edge cap"):
            build_graph(emb, 0.3, block_size=100, edge_cap=edges - 1)
        assert [args[2:4] for args in calls] == block_pairs(250, 100)

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
        assert graph_digest(graph) == "1224cf82995866875708f41d97bf67db"
        assert_matches_reference(graph, emb, 0.3)

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
    """Small graphs at the corners of blocked edge extraction, each equal byte
    for byte to the brute-force reference, so the bytes are pinned, not just
    the invariants.
    """

    def test_negative_tau(self):
        # Weights below zero are kept; the product is never clipped from below.
        emb = np.random.default_rng(3).standard_normal((300, 4))
        graph = build_graph(emb, -0.5, block_size=64)
        validate_graph(graph)
        assert graph.weights.min() < 0.0
        assert_matches_reference(graph, emb, -0.5)

    def test_scaled_duplicates_round_above_one(self):
        base = np.random.default_rng(4).standard_normal((12, 5))
        emb = np.concatenate([base * s for s in (1.0, 3.0, 0.1, 7.3, 1e-3)])
        unit = emb / np.linalg.norm(emb, axis=1)[:, None]
        sims = np.array([np.add.reduce(row * unit, axis=1) for row in unit])
        np.fill_diagonal(sims, 0.0)
        assert np.count_nonzero(sims > 1.0)  # the input does exercise the clip
        graph = build_graph(emb, 0.2)
        assert graph.weights.max() <= 1.0
        validate_graph(graph)  # symmetric weights, self edges 1.0
        assert_matches_reference(graph, emb, 0.2)

    def test_rows_not_a_multiple_of_block_size(self):
        emb = np.random.default_rng(6).standard_normal((250, 6))
        graph = build_graph(emb, 0.3, block_size=64)
        validate_graph(graph)
        assert_matches_reference(graph, emb, 0.3)

    def test_fewer_rows_than_one_block(self):
        emb = np.random.default_rng(9).standard_normal((50, 6))
        graph = build_graph(emb, 0.3)
        validate_graph(graph)
        assert_matches_reference(graph, emb, 0.3)

    def test_one_row(self):
        emb = np.array([[3.0, 4.0]])
        graph = build_graph(emb, 0.5)
        validate_graph(graph)
        assert graph_digest(graph) == "1287ab8b1c8b0f58df1630ce6d310d6e"
        assert_matches_reference(graph, emb, 0.5)


def near_tau_input(d, tau, pairs=60, seed=0):
    """Pairs of unit rows whose cosine is tau + 1e-7 (even pairs) or tau - 1e-7
    (odd pairs), shuffled; returns the rows and each pair's row indices."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((pairs, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    y = rng.standard_normal((pairs, d))
    y -= np.sum(x * y, axis=1)[:, None] * x
    y /= np.linalg.norm(y, axis=1)[:, None]
    cos = tau + np.where(np.arange(pairs) % 2 == 0, 1e-7, -1e-7)
    partners = cos[:, None] * x + np.sqrt(1.0 - cos**2)[:, None] * y
    order = rng.permutation(2 * pairs)
    where = np.argsort(order)  # where[k]: the new index of row k
    return np.concatenate([x, partners])[order], np.column_stack([where[:pairs], where[pairs:]])


class TestScreenSoundness:
    """The float32 screen drops no edge: each build equals the brute-force
    reference byte for byte. TestPinnedEdgeCases holds the tau = -0.5, one-row
    and not-a-multiple-of-the-block-size cases."""

    @pytest.mark.parametrize("d", [32, 2048])  # the screen's margin grows with d
    def test_pairs_either_side_of_tau(self, d):
        emb, pairs = near_tau_input(d, 0.5)
        graph = build_graph(emb, 0.5, block_size=32)
        assert_matches_reference(graph, emb, 0.5)
        edges = edge_set(graph)
        assert [(i, j) in edges for i, j in pairs.tolist()] == [True, False] * 30

    def test_tau_one_with_exact_and_scaled_duplicates(self):
        base = np.random.default_rng(13).standard_normal((20, 8))
        emb = np.concatenate([base, base[:10], base[:10] * 3.0, base[:10] * 1e-3])
        graph = build_graph(emb, 1.0, block_size=16)
        assert_matches_reference(graph, emb, 1.0)
        assert graph.num_edges > emb.shape[0]  # some duplicates are edges


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
    """Each block pair is screened in column strips of STRIP; the bytes depend
    neither on the strip width nor on any BLAS setting."""

    def test_strip_crossing_bytes_are_pinned(self):
        emb = strip_crossing_input()
        graph = build_graph(emb, 0.3)
        for lo in (509, 2048 + 509):  # each run's rows are one another's neighbors
            for i in range(lo, lo + 6):
                assert set(range(lo, lo + 6)) <= set(graph.neighbors(i)[0].tolist())
        assert graph.weights.max() <= 1.0
        validate_graph(graph)
        assert graph_digest(graph) == "9ba28aed902f458c6648d62e0aad2113"
        assert_matches_reference(graph, emb, 0.3)

    def test_strip_width_does_not_change_the_bytes(self, monkeypatch):
        # Under the BLAS-defined weights widths 7 and 300 changed the bytes.
        emb = strip_crossing_input()
        want = graph_digest(build_graph(emb, 0.3))
        for width in (7, 300, similarity.DEFAULT_BLOCK_SIZE + 1):
            monkeypatch.setattr(similarity, "STRIP", width)
            assert graph_digest(build_graph(emb, 0.3)) == want, width

    def test_blas_settings_do_not_change_the_bytes(self):
        # OpenBLAS and numpy read these variables only when numpy is imported,
        # so each build runs in a fresh interpreter.
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        script = (
            "from neighborprune.similarity import build_graph\n"
            "from test_similarity import graph_digest, strip_crossing_input\n"
            "print(graph_digest(build_graph(strip_crossing_input(), 0.3)))\n"
        )
        keys = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
        base = {k: v for k, v in os.environ.items() if k not in keys} | {"PYTHONPATH": path}
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        variants = [{"OPENBLAS_NUM_THREADS": n} for n in ("1", "2")]
        # Only the kernels this CPU can run, each with the feature it needs.
        kernels = {"Haswell": "X86_V3", "SandyBridge": "AVX", "Zen": "X86_V3", "SkylakeX": "AVX512_SKX"}
        variants += [
            {"OPENBLAS_CORETYPE": core} for core, feature in kernels.items()
            if __cpu_features__.get(feature)
        ]
        enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
        if enabled:  # numpy's baseline kernels in place of every dispatched one
            variants.append({"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)})
        want = graph_digest(build_graph(strip_crossing_input(), 0.3))
        for variant in variants:
            out = subprocess.run(
                [sys.executable, "-c", script], env=base | variant,
                capture_output=True, text=True, check=True, timeout=300,
            )
            assert out.stdout.strip() == want, variant

    def test_gauss_dense_graph_bytes_are_pinned(self):
        # The shape of the gauss_dense benchmark's graph: 820 block pairs.
        emb = np.random.default_rng(0).standard_normal((40000, 32))
        graph = build_graph(emb, 0.5)
        assert graph.num_edges == 2_477_744
        assert graph_digest(graph) == "06b51f234e90ec19eef6ae9ea804f029"


def float32_rows(kind: str, m: int) -> np.ndarray:
    """Gaussian rows, or synth's class-ordered ones, as float32."""
    if kind == "gaussian":
        return np.random.default_rng(21).standard_normal((m, 32)).astype(np.float32)
    config = SynthConfig(seed=8, **(TREND_SYNTH | {"points_per_class": m // 10}))
    return generate_synthetic(config).embeddings.astype(np.float32)


class TestInputDtype:
    """float32 rows build the graph of their float64 upcast, byte for byte:
    every float64 value is computed from the rows upcast a block at a time."""

    @pytest.mark.parametrize("kind", ["gaussian", "class_ordered"])
    @pytest.mark.parametrize("block_size, m", [(4, 240), (64, 1000), (1024, 2500)])
    @pytest.mark.parametrize("dense", [True, False])
    def test_float32_rows_build_their_upcast_graph(self, kind, block_size, m, dense):
        rows = float32_rows(kind, m)
        tau = (0.3 if dense else 0.5) if kind == "gaussian" else (TREND_TAU - 0.2 if dense else TREND_TAU)
        before = rows.copy()
        got = build_graph(rows, tau, block_size=block_size)
        assert rows.tobytes() == before.tobytes()
        want = build_graph(rows.astype(np.float64), tau, block_size=block_size)
        for name in ("indptr", "indices", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.block_pairs_skipped == want.block_pairs_skipped
        assert got.screen_survivors == want.screen_survivors
        assert got.num_edges > m * (4 if dense else 1)


class TestBuildMemory:
    """A build holds one copy of the graph and no copy of its input; its
    temporaries are bounded by a block, not by the input or the graph."""

    def test_peak_beyond_the_graph_is_bounded(self):
        # Gaussian rows at a dense tau: 8 row bands and a 16.9 MiB graph.
        # Beyond the input and the CSR arrays' capacity (the reservation,
        # which tracemalloc counts although its pages are never written), a
        # build holds its norms, the pending mirrored entries, one band's
        # temporaries and its strip buffers. Holding the graph both as bands
        # and joined, with an m x d temporary for the norms, took 21.5 MiB.
        emb = np.random.default_rng(3).standard_normal((8000, 32))
        tracemalloc.start()
        try:
            graph = build_graph(emb, 0.35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = graph.indptr.nbytes + graph.indices.nbytes + graph.weights.nbytes
        assert held > 16 * 2**20
        capacity = graph.indptr.nbytes + sum(
            max(array.nbytes, similarity.CSR_RESERVE * array.itemsize)
            for array in (graph.indices, graph.weights)
        )
        assert peak - capacity - emb.nbytes < 16 * 2**20
        for array in (graph.indices, graph.weights):
            assert array.flags.owndata and array.flags.c_contiguous

    def test_strip_temporaries_are_freed_inside_the_strip(self):
        # test_peak_beyond_the_graph_is_bounded's build. A strip's product,
        # mask and weight gathers are freed before the band is joined, where
        # a build peaks: beyond the CSR arrays' capacity and the input it
        # peaked at 7.0 MiB, and at 10.4 MiB with that scratch held for the
        # whole build.
        emb = np.random.default_rng(3).standard_normal((8000, 32))
        tracemalloc.start()
        try:
            graph = build_graph(emb, 0.35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capacity = graph.indptr.nbytes + sum(
            max(array.nbytes, similarity.CSR_RESERVE * array.itemsize)
            for array in (graph.indices, graph.weights)
        )
        assert peak - capacity - emb.nbytes < 8.5 * 2**20

    def test_waiting_entries_cost_four_bytes_each(self):
        # 64 row bands of 256 rows at a tau where the entries waiting for
        # their mirrored bands dominate the scratch: 707 612 of them at most,
        # against 45 030 entries in the largest band. Beyond the CSR arrays'
        # capacity (the reservation throughout, as the graph fits in it) a
        # build holds its norms, a strip's temporaries (a float32 product and
        # its mask, and two float64 gathers of a weight chunk), a band's
        # temporaries (its pair arrays and their join, 32 B an entry, the
        # read-back mirrored entries and the sort order) and 4 B per waiting
        # position. The input is made before tracing starts. The peak read
        # 4.5 MiB against this 6.9 MiB bound; with waiting entries kept as
        # 16 B (rows, columns, weights) it read 14.5 MiB.
        m, size, d = 16384, 256, 32
        emb = np.random.default_rng(3).standard_normal((m, d))
        tracemalloc.start()
        try:
            graph = build_graph(emb, 0.4, block_size=size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.num_edges < similarity.CSR_RESERVE
        capacity = graph.indptr.nbytes + similarity.CSR_RESERVE * (4 + 8)
        # Entries (row < col) of bands up to i whose columns lie after block i.
        row_block = np.repeat(np.arange(m), graph.degrees()) // size
        col_block = graph.indices // size
        upper = row_block < col_block
        blocks = m // size
        waiting = np.cumsum(np.bincount(row_block[upper], minlength=blocks)
                            - np.bincount(col_block[upper], minlength=blocks)).max()
        band = np.bincount(row_block, minlength=blocks).max()
        assert waiting > 10 * band
        cells = size * min(size, similarity.STRIP)
        strips = cells * 5 + 2 * max(1, 2**16 // d) * d * 8
        bound = m * 8 + strips + 64 * band + 4 * waiting
        assert peak - capacity < bound

    def test_unwritten_reservation_costs_no_rss(self):
        # The CSR reservation is 99 MiB at int32 indices; a build whose graph
        # is a few MiB writes only that much of it.
        code = (
            "import resource, numpy as np\n"
            "from neighborprune.similarity import build_graph\n"
            "emb = np.random.default_rng(3).standard_normal((4000, 32))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "graph = build_graph(emb, 0.4)\n"
            "held = graph.indptr.nbytes + graph.indices.nbytes + graph.weights.nbytes\n"
            "print(before / 1024, held / 2**20)\n"
        )
        (line,), peak = child_peak(code)
        before, held = map(float, line.split())
        reserved = similarity.CSR_RESERVE * (4 + 8) / 2**20
        assert 1 < held < 8
        assert peak - before < held + 16 < reserved / 4


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
        normalized = emb / np.linalg.norm(emb, axis=1)[:, None]
        for a, b in skipped:
            units = (normalized[a[0] : a[1]], normalized[b[0] : b[1]])
            rows = similarity._pair_edges(units, tau, a, b)[0]
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
        # 256-row blocks are skipped; the reference computes every pair.
        config = SynthConfig(seed=7, **(TREND_SYNTH | {"points_per_class": 300}))
        emb = generate_synthetic(config).embeddings
        calls = counted_pair_edges(monkeypatch)
        graph = build_graph(emb, TREND_TAU, block_size=256)
        assert graph_digest(graph) == "33e4e48e1c4db09c1937fb7f0aefacc8"
        assert_matches_reference(graph, emb, TREND_TAU)
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


OPENBLAS = similarity._openblas()
needs_openblas = pytest.mark.skipif(
    OPENBLAS is None, reason="numpy's bundled OpenBLAS not found: builds run one worker"
)


@pytest.fixture
def three_cpus(monkeypatch):
    """Builds may run up to three workers, more than some hosts have cores,
    and BLAS starts at three threads, so a build that fails to restore it
    after pinning it to one is seen."""
    monkeypatch.setattr(similarity, "_usable_cpus", lambda: 3)
    if OPENBLAS is None:
        yield None
        return
    get, put = OPENBLAS
    before = get()
    put(3)
    try:
        yield get()
    finally:
        put(before)


class TestWorkers:
    """Block pairs computed on worker threads are assembled in pair order, so
    the bytes, the screen count and the guard's pair are those of one worker,
    and BLAS runs on one thread only while the workers run."""

    @pytest.mark.parametrize("kind", ["gaussian", "class_ordered"])
    @pytest.mark.parametrize("block_size, m", [(4, 240), (64, 1000), (1024, 2500)])
    @pytest.mark.parametrize("dense", [True, False])
    def test_bytes_do_not_depend_on_workers(self, three_cpus, kind, block_size, m, dense):
        rows = float32_rows(kind, m)
        tau = (0.3 if dense else 0.5) if kind == "gaussian" else (TREND_TAU - 0.2 if dense else TREND_TAU)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave often
        try:
            graphs = [build_graph(rows, tau, block_size=block_size, workers=w) for w in (1, 2, 3)]
        finally:
            sys.setswitchinterval(switch)
        want = graphs[0]
        for workers, graph in zip((1, 2, 3), graphs):
            assert graph.build_workers == (workers if OPENBLAS else 1)
            assert graph_digest(graph) == graph_digest(want), workers
            assert graph.indices.dtype == want.indices.dtype
            assert graph.screen_survivors == want.screen_survivors
            assert graph.block_pairs_skipped == want.block_pairs_skipped
        if kind == "class_ordered" and block_size <= 64:  # a block within a class
            assert want.block_pairs_skipped > 0

    @needs_openblas
    def test_blas_is_pinned_while_workers_run_and_restored(self, three_cpus, monkeypatch):
        get, _ = OPENBLAS
        seen = []
        pair_edges = similarity._pair_edges

        def counted(*args):
            seen.append(get())
            return pair_edges(*args)

        monkeypatch.setattr(similarity, "_pair_edges", counted)
        emb = np.random.default_rng(3).standard_normal((250, 8))
        threads = threading.active_count()
        graph = build_graph(emb, 0.3, block_size=100, workers=2)
        assert graph.build_workers == 2 and len(seen) == 6
        assert set(seen) == {1}
        assert get() == three_cpus == 3
        assert threading.active_count() == threads
        seen.clear()
        build_graph(emb, 0.3, block_size=100)  # one worker leaves BLAS alone
        assert set(seen) == {3}

    @needs_openblas
    @pytest.mark.parametrize("tau, cap, pair", [
        (0.3, None, "rows 200..249 and 200..249"),  # the last pair, as counted
        (-0.9, 1000, "rows 0..99 and 0..99"),  # the first pair alone passes the cap
    ])
    def test_guard_trips_at_the_serial_pair(self, three_cpus, tau, cap, pair):
        # 250 rows in blocks of 100 make 6 block pairs, none skipped.
        emb = np.random.default_rng(3).standard_normal((250, 8))
        cap = cap or build_graph(emb, tau, block_size=100).num_edges - 1
        get, _ = OPENBLAS
        threads = threading.active_count()
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(GuardError, match="edge cap") as info:
                build_graph(emb, tau, block_size=100, edge_cap=cap, workers=workers)
            messages.append(str(info.value))
            assert threading.active_count() == threads, workers
            assert get() == three_cpus, workers
        assert messages[0] == messages[1] == messages[2]
        assert pair in messages[0]

    def test_workers_are_capped_at_the_cpus_and_the_pairs(self, three_cpus, monkeypatch):
        # The pool is recorded, not started, at the size asked for.
        asked = []
        pool = similarity.ThreadPoolExecutor

        def recorded(max_workers):
            asked.append(max_workers)
            return pool(min(max_workers, 3))

        monkeypatch.setattr(similarity, "ThreadPoolExecutor", recorded)
        emb = np.random.default_rng(4).standard_normal((300, 8))
        many = build_graph(emb, 0.3, block_size=64, workers=10**6)  # 15 pairs
        few = build_graph(emb, 0.3, block_size=150, workers=10**6)  # 3 pairs
        one = build_graph(emb, 0.3, workers=10**6)  # 1 pair: no pool
        if OPENBLAS is None:
            assert asked == [] and many.build_workers == few.build_workers == 1
        else:
            assert asked == [3, 3] and (many.build_workers, few.build_workers) == (3, 3)
        assert one.build_workers == 1
        assert graph_digest(many) == graph_digest(few) == graph_digest(one)
        with pytest.raises(ValueError, match="workers"):
            build_graph(emb, 0.3, workers=0)
