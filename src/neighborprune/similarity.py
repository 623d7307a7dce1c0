"""Thresholded cosine-similarity neighborhood graph over embedding rows.

The graph is exact (all pairs), symmetric with equal weights in both
directions, keeps every edge whose similarity clears tau, and always holds
the self edge (i, 1.0). Blocked products run over the upper triangle of
block pairs only, mirrored. Each pair is screened one strip of STRIP columns
at a time by a float32 GEMM, at a cut proved to keep every edge; a survivor's
weight is the float64 dot product of its two unit rows, summed by numpy in its
fixed pairwise order, so weights depend on no BLAS tile, thread or kernel and
are symmetric by value. Rows, float32 or float64, are upcast and divided by
their norms a block at a time, so a build holds no normalized copy. Each
finished row band goes into the CSR arrays, which grow in place; an entry
waits for its mirrored band as its 4-byte position there.

A block pair is skipped when an angle bound proves it edgeless. Block B has a
unit centroid c_B and radius r_B, the largest angle from c_B to a row of B; by
the triangle inequality every row x of A is at least angle(x, c_B) - r_B from
every row of B. A pair whose bound, in either direction, exceeds arccos(tau) +
ANGLE_MARGIN is skipped (Bayardo, Ma & Srikant, WWW 2007; Schubert, SISAP 2021).
A weight does not depend on which pairs are computed, so the bytes equal the
full build's. The gain depends on row order: rows grouped by class or
cluster, as `synth` writes them, skip pairs; shuffled or Gaussian rows do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BLOCK_SIZE = 1024
# Columns per screening GEMM of a block pair: a cache choice, not a bytes one. A
# 1024 x 512 float32 strip is 2 MiB, so it is screened from cache instead of
# after a round trip through memory as the whole product.
STRIP = 512
# Entries reserved for the CSR arrays at the start of a build: 33 MiB of int32
# indices, just above glibc's 32 MiB ceiling on its mmap threshold, so glibc
# maps the block on its own whatever earlier frees did to the threshold, and
# growth past it is an mremap, not a copy. Pages never written cost no RSS.
CSR_RESERVE = 2**23 + 2**18
# Stored-edge cap (directed entries, self edges included). Exceeding it
# aborts the build instead of exhausting memory.
DEFAULT_EDGE_CAP = 2_000_000_000
# Slack (radians) of the block-pair bound. Float64 cosines of unit rows, from
# the bound's GEMM or a pair's numpy-summed weight, err by at most ~d*u
# (3.6e-15 at d=32), which arccos turns into sqrt(2*d*u) (8.5e-8 rad) near
# angle 0. The bound adds two such angles and the pair's weight at tau one
# more: 3e-7 rad at d=32; 1e-5 covers every d up to 50 000.
ANGLE_MARGIN = 1e-5


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
    block_pairs: int  # block pairs of the build, the diagonal ones included
    block_pairs_skipped: int  # of those, the pairs the angle bound ruled out
    screen_survivors: int  # entries (row <= col) that passed the float32 screen

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


def _pair_edges(
    units: tuple[np.ndarray, np.ndarray], tau: float, a: tuple[int, int], b: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Edges (row < col only) between block a and block b, b at or after a, given
    the unit rows of both blocks, and how many entries (row < col) passed the
    float32 screen, strip by strip.

    tau > -1, so only the kept weights need clipping, and only from above.
    """
    ua, ub = units
    d = ua.shape[1]
    step = max(1, 2**16 // d)  # survivors per weight chunk: gathers of 512 KiB each
    # The cut is (d + 4)*u*1.01 below tau, u = 2**-24: rounding unit rows to
    # float32 moves a cosine by at most 2u, a d-term float32 dot product in any
    # order errs by at most d*u/(1 - d*u), rounding the cut moves it by u, and
    # one u more covers the float64 side (norms, a weight's rounding, underflow);
    # 1.01 covers 1/(1 - d*u) up to d = 160 000, and wider rows are cut 2 below
    # tau. So every pair whose float64 weight reaches tau passes the screen.
    cut = np.float32(tau - ((d + 4) * 2.0**-24 * 1.01 if d <= 160_000 else 2.0))
    block = ua.astype(np.float32)
    rows, cols, weights, survivors = [], [], [], 0
    # r and c count from the start of block a and block b until they are stored.
    for c_lo in range(0, ub.shape[0], STRIP):
        strip = ub[c_lo : c_lo + STRIP].astype(np.float32)
        r, c = np.divmod(np.flatnonzero(block @ strip.T >= cut), strip.shape[0])
        c += c_lo
        if a == b:
            upper = c > r
            r, c = r[upper], c[upper]
        survivors += r.size
        w = np.empty(r.size)
        for lo in range(0, r.size, step):
            x = ua[r[lo : lo + step]]
            x *= ub[c[lo : lo + step]]
            np.add.reduce(x, axis=1, out=w[lo : lo + step])
        keep = w >= tau
        rows.append(r[keep] + a[0])
        cols.append(c[keep] + b[0])
        weights.append(np.minimum(w[keep], 1.0))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights), survivors


def _edgeless_pairs(unit, blocks: list, tau: float) -> np.ndarray:
    """Symmetric mask of the block pairs the angle bound proves edgeless, given
    unit(lo, hi), the unit rows lo..hi. A diagonal pair's bound is at most 0,
    and a block whose rows sum to zero gets a NaN centroid, whose NaN bounds
    compare False: neither is skipped."""
    sums = np.array([unit(lo, hi).sum(axis=0) for lo, hi in blocks])
    lengths = np.linalg.norm(sums, axis=1, keepdims=True)
    centroids = np.divide(sums, lengths, out=np.full_like(sums, np.nan), where=lengths > 0)
    top = np.empty((len(blocks), len(blocks)))  # top[a, b]: max cos(x in a, c_b)
    low = np.empty(len(blocks))  # low[b]: min cos(y in b, c_b), the cosine of r_b
    for ai, (lo, hi) in enumerate(blocks):
        cos = unit(lo, hi) @ centroids.T
        top[ai], low[ai] = cos.max(axis=0), cos[:, ai].min()
    # near[a, b] = min angle(x in a, c_b) - r_b; arccos is decreasing.
    near = np.arccos(np.clip(top, -1.0, 1.0)) - np.arccos(np.clip(low, -1.0, 1.0))
    return np.maximum(near, near.T) > np.arccos(tau) + ANGLE_MARGIN


def build_graph(
    embeddings: np.ndarray,
    tau: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> NeighborGraph:
    """Build the exact all-pairs thresholded graph.

    Args:
        embeddings: m x d float32 or float64 matrix of finite nonzero rows.
        tau: similarity threshold in (-1, 1].
        block_size: rows per block for the pairwise products.
        edge_cap: abort with GuardError once the stored-entry count would
            exceed this bound.

    Raises:
        ValueError: a row that is zero or not finite, or bad tau.
        GuardError: the thresholded graph would exceed edge_cap entries.
    """
    if not -1.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (-1, 1], got {tau}")
    emb = np.asarray(embeddings)
    emb = emb.astype(np.promote_types(emb.dtype, np.float32), copy=False)  # float32 or 64
    if emb.ndim != 2 or emb.shape[0] < 1:
        raise ValueError(f"embeddings must be a nonempty 2-d matrix, got {emb.shape}")
    m = emb.shape[0]
    size = max(1, block_size)
    blocks = [(lo, min(lo + size, m)) for lo in range(0, m, size)]
    # Norms of upcast blocks: np.linalg.norm squares its whole input, in its dtype.
    norms = np.empty(m)
    with np.errstate(over="ignore"):  # an overflowing norm is handled below
        for lo, hi in blocks:
            norms[lo:hi] = np.linalg.norm(emb[lo:hi].astype(np.float64, copy=False), axis=1)
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))  # NaN fails both
    # The squares of a finite nonzero row can under- or overflow: such a row is
    # divided by its largest absolute entry before its norm is taken.
    peaks = np.abs(emb[bad]).max(axis=1).astype(np.float64)
    refused = bad[~((peaks > 0.0) & (peaks < np.inf))]
    if refused.size:
        raise ValueError(f"embedding row {refused[0]} has a zero or non-finite norm")
    norms[bad] = np.linalg.norm(emb[bad] / peaks[:, None], axis=1)  # at least 1

    def unit(lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi divided by their norms, a rescued row after its peak, as
        its norm was taken. A fresh float64 array: the input is never written."""
        rows = emb[lo:hi] / norms[lo:hi, None]
        i, j = np.searchsorted(bad, (lo, hi))
        rows[bad[i:j] - lo] = emb[bad[i:j]] / peaks[i:j, None] / norms[bad[i:j], None]
        return rows

    index_dtype = np.int32 if m < 2**31 else np.int64
    position_dtype = np.int32 if edge_cap < 2**31 else np.int64  # positions < edge_cap
    row_id = np.min_scalar_type(size - 1)  # in-band rows: 8 or 16 bits are radix-sorted

    # waiting[j] holds the positions of the stored entries of earlier bands
    # whose columns lie in block j: mirrored, they are entries of band j.
    waiting = {j: [] for j in range(len(blocks))}
    skip = _edgeless_pairs(unit, blocks, tau)
    indptr = np.zeros(m + 1, dtype=np.int64)
    # The CSR arrays start as a CSR_RESERVE reservation, which glibc maps on its
    # own, and grow in place past it by one row band at a time: resize reallocs,
    # which glibc serves for a mapped block by remapping, not copying. resize
    # runs with refcheck=False, so no view of indices or weights may outlive the
    # band that made it; the graph is built from them only at the end.
    indices, weights = np.empty(CSR_RESERVE, dtype=index_dtype), np.empty(CSR_RESERVE)
    stored, survivors, filled = 0, 0, 0
    for ai, (lo, hi) in enumerate(blocks):
        ua = unit(lo, hi)
        # The mirrors of the entries waiting at `at`: an entry (r, c) there has
        # c in this band, and r is found in indptr, cumulative up to this band.
        at = np.concatenate([np.empty(0, position_dtype), *waiting.pop(ai)])
        mirrored = np.searchsorted(indptr[: lo + 1], at, side="right") - 1
        own = np.arange(lo, hi, dtype=index_dtype)
        band = [(np.take(indices, at), mirrored.astype(index_dtype), np.take(weights, at)),
                (own, own, np.ones(hi - lo))]
        later = []  # (block, entries) of the pairs after the diagonal one, in order
        del at, mirrored
        # The self entries count as screen survivors unscreened: a unit row's
        # float32 self-product is within the screen's error bound of 1, so it
        # clears the cut for every tau <= 1.
        stored += hi - lo
        survivors += hi - lo
        # Block pairs run in order, one GEMM each (BLAS threads the product);
        # the guard stops at the first pair that takes the count over the cap.
        for bj in range(ai, len(blocks)):
            if skip[ai, bj]:
                continue
            ub = ua if bj == ai else unit(*blocks[bj])
            rows, cols, w, passed = _pair_edges((ua, ub), tau, blocks[ai], blocks[bj])
            survivors += passed
            rows, cols = rows.astype(index_dtype), cols.astype(index_dtype)
            stored += 2 * rows.size
            if stored > edge_cap:
                raise GuardError(
                    f"thresholded graph exceeds the edge cap ({edge_cap} stored "
                    f"entries) at tau={tau}; raise tau or the cap"
                )
            if bj == ai:  # the diagonal pair's mirror lies left of the self entries
                band.insert(1, (cols, rows, w))
            else:
                later.append((bj, rows.size))
            band.append((rows, cols, w))
        # Row band ai is complete and its pair arrays are let go once joined.
        # Each row's entries are in column order: the mirrored ones (source
        # bands in order, each in CSR order), the diagonal pair's two halves
        # around the self entry, then the later pairs, each in row-major order
        # strip by strip. So a stable sort by row gives the CSR order, taken
        # straight into the grown arrays: mode="clip" lets take write into out
        # directly ("raise" copies first), and every index is in range.
        rows, cols, w = map(np.concatenate, zip(*band))
        band = None
        order = np.argsort((rows - lo).astype(row_id), kind="stable")
        start, filled = filled, filled + order.size
        if filled > indices.size:
            indices.resize(filled, refcheck=False)
            weights.resize(filled, refcheck=False)
        np.take(cols, order, out=indices[start:filled], mode="clip")
        np.take(w, order, out=weights[start:filled], mode="clip")
        indptr[lo + 1 : hi + 1] = start + np.cumsum(np.bincount(rows - lo, minlength=hi - lo))
        # The later pairs' entries, last in the band, wait as their positions,
        # one array per pair, each in CSR order.
        positions = np.empty(order.size, position_dtype)
        positions[order] = np.arange(start, filled, dtype=position_dtype)
        end = order.size
        for bj, n in reversed(later):
            waiting[bj].append(positions[end - n : end].copy())
            end -= n
        del order, positions

    indices.resize(filled, refcheck=False)
    weights.resize(filled, refcheck=False)
    return NeighborGraph(
        tau=float(tau),
        num_rows=m,
        indptr=indptr,
        indices=indices,
        weights=weights,
        block_pairs=len(blocks) * (len(blocks) + 1) // 2,
        block_pairs_skipped=int(np.count_nonzero(skip)) // 2,
        screen_survivors=survivors,
    )
