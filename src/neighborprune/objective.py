"""Neighborhood-confidence bookkeeping, utility functions, marginal gains.

For a selected subset S, each example i carries the running weighted sum
nbr_conf[i] = sum over selected j in neighbors(i) of weight(i, j) * C(j).
The total objective is sum_i utility(nbr_conf[i]) with utility a
non-decreasing concave function fixed at 0 for 0. Two gain flavors are
provided: the candidate's own-term gain utility(nbr_conf[x] + C(x)) -
utility(nbr_conf[x]) that the greedy selection loop scores with, and the
exact objective increment summed over the candidate's whole neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .similarity import NeighborGraph

UTILITY_KINDS = ("tanh", "identity", "log1p")


@dataclass(frozen=True)
class Utility:
    """Non-decreasing concave utility with utility(0) = 0.

    tanh is the default; identity and log1p share the required properties
    and are handy for hand verification.
    """

    kind: str = "tanh"

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")

    def __call__(self, z):
        if self.kind == "tanh":
            return np.tanh(z)
        if self.kind == "identity":
            return np.asarray(z, dtype=np.float64) if np.ndim(z) else float(z)
        return np.log1p(z)


def confidence_values(confidence) -> np.ndarray:
    """The one check on a confidence vector: 1-d float64, every entry finite
    and in [0, 1]. Everything that reads confidences calls it."""
    values = np.asarray(confidence, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("confidence must be a 1-d vector")
    # NaN fails both comparisons, so this also rejects non-finite entries.
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        raise ValueError(
            f"confidence values must lie in [0, 1]: entry {int(bad[0])} "
            f"is {values[bad[0]]}"
        )
    return values


class SelectionState:
    """Selected indices plus the running neighborhood-confidence vector.

    Additions maintain nbr_conf with compensated (Kahan) accumulation so the
    incremental values track a from-scratch recomputation tightly.
    """

    def __init__(self, graph: NeighborGraph, confidence) -> None:
        if graph.tau < 0.0:
            raise ValueError(
                "selection bookkeeping requires tau >= 0: negative edge "
                "weights would break the monotone growth of nbr_conf"
            )
        conf = confidence_values(confidence)
        if conf.size != graph.num_rows:
            raise ValueError(
                f"confidence length {conf.size} != graph rows {graph.num_rows}"
            )
        self.graph = graph
        self.conf = conf
        self.selected: list[int] = []
        self.in_set = np.zeros(graph.num_rows, dtype=bool)
        self.nbr_conf = np.zeros(graph.num_rows, dtype=np.float64)
        self._comp = np.zeros(graph.num_rows, dtype=np.float64)

    def add(self, x: int) -> None:
        """Select x and fold weight(x, v) * C(x) into every neighbor v."""
        x = _require_unselected(self, x)
        idx, w = self.graph.neighbors(x)
        idx = idx.astype(np.intp, copy=False)  # one cast, not one per index below
        contrib = w * self.conf[x]
        y = contrib - self._comp[idx]
        before = self.nbr_conf[idx]
        t = before + y
        self._comp[idx] = (t - before) - y
        self.nbr_conf[idx] = t
        self.in_set[x] = True
        self.selected.append(x)


def total_objective(state: SelectionState, utility: Utility) -> float:
    """Sum of utility(nbr_conf[i]) over the whole training set."""
    return float(np.sum(utility(state.nbr_conf)))


def _require_unselected(state: SelectionState, x: int) -> int:
    x = int(x)
    if not 0 <= x < state.graph.num_rows:
        raise IndexError(f"index {x} out of range")
    if state.in_set[x]:
        raise ValueError(f"example {x} is already selected")
    return x


def marginal_gain_paper(state: SelectionState, x: int, utility: Utility) -> float:
    """Own-term gain utility(nbr_conf[x] + C(x)) - utility(nbr_conf[x])."""
    x = _require_unselected(state, x)
    a = state.nbr_conf[x]
    gain = float(utility(a + state.conf[x]) - utility(a))
    return max(0.0, gain)


def marginal_gain_exact(state: SelectionState, x: int, utility: Utility) -> float:
    """True objective increment of adding x, summed over its neighborhood."""
    x = _require_unselected(state, x)
    idx, w = state.graph.neighbors(x)
    before = state.nbr_conf[idx]
    delta = utility(before + w * state.conf[x]) - utility(before)
    return max(0.0, float(np.sum(delta)))


def marginal_gains_paper(
    state: SelectionState, cands: np.ndarray, utility: Utility
) -> np.ndarray:
    """Own-term gains of the candidate indices cands, all at once.

    Elementwise evaluation only, so each entry is bit-identical to the
    scalar marginal_gain_paper of that index.
    """
    before = state.nbr_conf[cands]
    gains = utility(before + state.conf[cands]) - utility(before)
    return np.maximum(gains, 0.0)


# Candidates per pass of marginal_gains_exact: bounds its temporaries to a
# few arrays of 1024 neighbor lists, whatever the number of candidates.
_EXACT_CHUNK = 1024


def marginal_gains_exact(
    state: SelectionState, cands: np.ndarray, utility: Utility
) -> np.ndarray:
    """Exact objective increments of the candidate indices cands, all at once.

    Each pass over up to _EXACT_CHUNK candidates computes their
    neighborhood terms over their concatenated CSR slices. Each candidate's
    terms are then summed as one row of a C-contiguous 2-D array holding
    the candidates of its degree: numpy sums such a row exactly as it sums
    that row alone, so each entry is bit-identical to the scalar
    marginal_gain_exact of that index. (np.add.reduceat sums each slice in
    another order and rounds differently.)
    """
    cands = np.asarray(cands, dtype=np.intp)
    gains = np.empty(cands.size)
    for lo in range(0, cands.size, _EXACT_CHUNK):
        chunk = slice(lo, lo + _EXACT_CHUNK)
        gains[chunk] = _exact_gains(state, cands[chunk], utility)
    return gains


def _exact_gains(
    state: SelectionState, cands: np.ndarray, utility: Utility
) -> np.ndarray:
    graph = state.graph
    degrees = graph.indptr[cands + 1] - graph.indptr[cands]
    order = np.argsort(degrees, kind="stable")
    rows, degrees = cands[order], degrees[order]
    pos, starts = graph.entries(rows)
    before = state.nbr_conf[graph.indices[pos]]
    delta = utility(before + graph.weights[pos] * np.repeat(state.conf[rows], degrees))
    delta -= utility(before)
    sums = np.empty(rows.size)
    # Runs of equal degree.
    cuts = (np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist()
    firsts, widths = starts.tolist(), degrees.tolist()
    for lo, hi in zip([0, *cuts], [*cuts, rows.size]):
        block = delta[firsts[lo] : firsts[lo] + (hi - lo) * widths[lo]]
        np.add.reduce(block.reshape(hi - lo, widths[lo]), axis=1, out=sums[lo:hi])
    gains = np.empty_like(sums)
    gains[order] = np.maximum(sums, 0.0)
    return gains
