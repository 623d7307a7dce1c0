"""Reference greedy loops: the one-entry-at-a-time lazy heap and the
compacting eager scan.

heap_greedy keeps, per pool, a heap of (-gain, index, stamp) entries, stamp
being the selection size the gain was computed at, and every gain comes from
the scalar gain function. A turn pops entries one at a time: a fresh entry
(stamped with the current size) is the pick, a stale one is pushed back with
its recomputed gain. The batched lazy loop in neighborprune.selectors must
reproduce this sequence pick for pick, in both gain modes and with class
pools.

scan_greedy compacts a pool to its unselected members at every turn, scores
them all with the array gain and takes the first maximum. The eager loop in
neighborprune.selectors must reproduce this sequence pick for pick.

In both, pools take turns in order, skipping empty ones.
"""

import heapq

import numpy as np

from neighborprune.objective import (
    SelectionState,
    Utility,
    marginal_gain_exact,
    marginal_gain_paper,
    marginal_gains_exact,
    marginal_gains_paper,
)
from neighborprune.similarity import NeighborGraph

SCALAR_GAINS = {
    "paper_faithful": marginal_gain_paper,
    "exact_marginal": marginal_gain_exact,
}
ARRAY_GAINS = {
    "paper_faithful": marginal_gains_paper,
    "exact_marginal": marginal_gains_exact,
}


def heap_greedy(
    graph: NeighborGraph,
    confidence,
    s: int,
    gain_mode: str,
    pools: list[np.ndarray],
    utility: Utility = Utility(),
) -> list[int]:
    """The first s picks of the one-at-a-time lazy heap loop."""
    state = SelectionState(graph, confidence)
    gain_of = SCALAR_GAINS[gain_mode]
    heaps = []
    for pool in pools:
        heap = [(-gain_of(state, int(x), utility), int(x), 0) for x in pool]
        heapq.heapify(heap)
        heaps.append(heap)
    while len(state.selected) < s:
        progressed = False
        for heap in heaps:
            stamp = len(state.selected)
            while heap:
                _, x, at = heapq.heappop(heap)
                if at == stamp:
                    state.add(x)
                    progressed = True
                    break
                heapq.heappush(heap, (-gain_of(state, x, utility), x, stamp))
            if len(state.selected) == s:
                break
        if not progressed:
            raise RuntimeError("candidate pools exhausted before reaching the budget")
    return state.selected


def scan_greedy(
    graph: NeighborGraph,
    confidence,
    s: int,
    gain_mode: str,
    pools: list[np.ndarray],
    utility: Utility = Utility(),
) -> list[int]:
    """The first s picks of the eager loop that rescans each pool's
    unselected members with the array gain at every turn."""
    state = SelectionState(graph, confidence)
    gains_of = ARRAY_GAINS[gain_mode]
    while len(state.selected) < s:
        progressed = False
        for pool in pools:
            cands = pool[~state.in_set[pool]]
            if cands.size == 0:
                continue
            state.add(int(cands[int(np.argmax(gains_of(state, cands, utility)))]))
            progressed = True
            if len(state.selected) == s:
                break
        if not progressed:
            raise RuntimeError("candidate pools exhausted before reaching the budget")
    return state.selected
