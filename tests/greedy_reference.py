"""Reference lazy greedy: the one-entry-at-a-time heap loop.

Each pool keeps a heap of (-gain, index, stamp) entries, stamp being the
selection size the gain was computed at, and every gain comes from the
scalar gain function. A turn pops entries one at a time: a fresh entry
(stamped with the current size) is the pick, a stale one is pushed back
with its recomputed gain. Pools take turns in order, skipping empty ones.
The batched lazy loop in neighborprune.selectors must reproduce this
sequence pick for pick, in both gain modes and with class pools.
"""

import heapq

import numpy as np

from neighborprune.objective import (
    SelectionState,
    Utility,
    marginal_gain_exact,
    marginal_gain_paper,
)
from neighborprune.similarity import NeighborGraph

SCALAR_GAINS = {
    "paper_faithful": marginal_gain_paper,
    "exact_marginal": marginal_gain_exact,
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
