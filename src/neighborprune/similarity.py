"""Thresholded cosine-similarity neighborhood graph over embedding rows.

The graph is exact (all pairs), symmetric with equal weights in both
directions, stores every edge whose similarity clears the threshold tau,
and always contains the self edge (i, 1.0). Construction runs blocked
matrix products over the upper triangle of block pairs only, so each pair's
similarity is computed by exactly one GEMM call and then mirrored: BLAS
results depend on blocking, and this is what makes the edge weights exactly
symmetric.

Each product is thresholded flat, and only its kept weights are clipped.
The CSR arrays are assembled one row band (block of rows) at a time, each
band sorted on its own once its block pairs are done; indices is int32 when
m < 2**31.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BLOCK_SIZE = 1024
# Stored-edge cap (directed entries, self edges included). Exceeding it
# aborts the build instead of exhausting memory.
DEFAULT_EDGE_CAP = 2_000_000_000


class GuardError(RuntimeError):
    """A resource guard tripped (edge-count cap, enumeration cap)."""


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric tau-thresholded similarity graph in CSR form.

    indptr/indices/weights follow the usual CSR convention; within each row
    the neighbor indices are strictly ascending and always include the row
    itself with weight exactly 1.0. indptr is int64; indices is int32 when
    num_rows < 2**31 (int64 otherwise); weights is float64.
    """

    tau: float
    num_rows: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and weights of row i (self edge included)."""
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} out of range for m={self.num_rows}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in indices/weights of the neighbor lists of rows,
        concatenated in the order of rows, and where each list starts."""
        lo = self.indptr[rows]
        counts = self.indptr[rows + 1] - lo
        starts = np.cumsum(counts) - counts
        return np.arange(counts.sum()) + np.repeat(lo - starts, counts), starts

    def degrees(self) -> np.ndarray:
        """Per-row neighbor count, self edge included."""
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        """Stored directed entries (each undirected edge counts twice)."""
        return int(self.indices.size)

    def validate(self) -> None:
        """Check the structural invariants; raises AssertionError on failure.

        Intended for tests: construction already guarantees these by design.
        """
        assert self.indptr.size == self.num_rows + 1
        assert self.indptr[0] == 0 and self.indptr[-1] == self.indices.size
        if self.weights.size:
            assert self.weights.min() >= self.tau
            assert self.weights.max() <= 1.0
        seen = {}
        for i in range(self.num_rows):
            idx, w = self.neighbors(i)
            assert np.all(np.diff(idx) > 0), f"row {i} not strictly ascending"
            pos = np.searchsorted(idx, i)
            assert pos < idx.size and idx[pos] == i, f"row {i} missing self edge"
            assert w[pos] == 1.0, f"row {i} self weight {w[pos]} != 1.0"
            for j, wij in zip(idx.tolist(), w.tolist()):
                key = (min(i, j), max(i, j))
                if key in seen:
                    assert seen[key] == wij, f"asymmetric weight on edge {key}"
                else:
                    seen[key] = wij


def _pair_edges(
    normalized: np.ndarray, tau: float, a: tuple[int, int], b: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges (row <= col only) between block a and block b, b at or after a.

    tau > -1, so only the kept weights need clipping, and only from above.
    """
    a_lo, a_hi = a
    b_lo, b_hi = b
    sims = normalized[a_lo:a_hi] @ normalized[b_lo:b_hi].T
    if a_lo == b_lo:
        np.fill_diagonal(sims, 1.0)
    flat = np.flatnonzero(sims >= tau)
    rows, cols = np.divmod(flat, sims.shape[1])
    if a_lo == b_lo:
        upper = cols >= rows
        flat, rows, cols = flat[upper], rows[upper], cols[upper]
    return rows + a_lo, cols + b_lo, np.minimum(sims.ravel()[flat], 1.0)


def build_graph(
    embeddings: np.ndarray,
    tau: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> NeighborGraph:
    """Build the exact all-pairs thresholded graph.

    Args:
        embeddings: m x d matrix; every row must have nonzero norm.
        tau: similarity threshold in (-1, 1].
        block_size: rows per block for the pairwise products.
        edge_cap: abort with GuardError once the stored-entry count would
            exceed this bound.

    Raises:
        ValueError: zero-norm row (reported with its index) or bad tau.
        GuardError: the thresholded graph would exceed edge_cap entries.
    """
    if not -1.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (-1, 1], got {tau}")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 1:
        raise ValueError(f"embeddings must be a nonempty 2-d matrix, got {emb.shape}")
    m = emb.shape[0]
    norms = np.linalg.norm(emb, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"embedding row {int(zero[0])} has zero norm")
    normalized = emb / norms[:, None]
    index_dtype = np.int32 if m < 2**31 else np.int64

    size = max(1, block_size)
    blocks = [(lo, min(lo + size, m)) for lo in range(0, m, size)]
    # pending[j] holds the mirrored (lower-triangle) entries of row band j
    # from pairs of earlier row blocks, as (rows, cols, weights).
    pending = [[] for _ in blocks]
    indptr = np.zeros(m + 1, dtype=np.int64)
    indices, weights, stored = [], [], 0
    for ai, (lo, hi) in enumerate(blocks):
        band, pending[ai] = pending[ai], None
        # Block pairs run in order, one GEMM each (BLAS threads the product);
        # the guard stops at the first pair that takes the count over the cap.
        for bj in range(ai, len(blocks)):
            rows, cols, w = _pair_edges(normalized, tau, blocks[ai], blocks[bj])
            rows, cols = rows.astype(index_dtype), cols.astype(index_dtype)
            off = rows != cols
            stored += rows.size + int(np.count_nonzero(off))
            if stored > edge_cap:
                raise GuardError(
                    f"thresholded graph exceeds the edge cap ({edge_cap} stored "
                    f"entries) at tau={tau}; raise tau or the cap"
                )
            band.append((rows, cols, w))
            if bj == ai:
                band.append((cols[off], rows[off], w[off]))
            else:
                pending[bj].append((cols, rows, w))
        # Row band ai is complete; each (row, col) occurs once, so sorting by
        # the combined key gives the CSR order.
        rows = np.concatenate([r for r, _, _ in band])
        cols = np.concatenate([c for _, c, _ in band])
        order = np.argsort((rows.astype(np.int64) - lo) * m + cols)
        indices.append(cols[order])
        weights.append(np.concatenate([w for _, _, w in band])[order])
        indptr[lo + 1 : hi + 1] = np.bincount(rows - lo, minlength=hi - lo)

    np.cumsum(indptr, out=indptr)
    return NeighborGraph(
        tau=float(tau),
        num_rows=m,
        indptr=indptr,
        indices=np.concatenate(indices),
        weights=np.concatenate(weights),
    )
