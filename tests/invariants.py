"""Independent checks of invariants that construction guarantees by design.

validate_graph checks a NeighborGraph's CSR structure; recomputed_nbr_conf
evaluates a SelectionState's running vector from scratch.
"""

import numpy as np


def validate_graph(graph) -> None:
    """Check the structural invariants; raises AssertionError on failure."""
    assert graph.indptr.size == graph.num_rows + 1
    assert graph.indptr[0] == 0 and graph.indptr[-1] == graph.indices.size
    if graph.weights.size:
        assert graph.weights.min() >= graph.tau
        assert graph.weights.max() <= 1.0
    seen = {}
    for i in range(graph.num_rows):
        idx, w = graph.neighbors(i)
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


def recomputed_nbr_conf(state) -> np.ndarray:
    """From-scratch evaluation of the running vector.

    Gathers along rows (sum over each example's selected neighbors) rather
    than scattering per addition, so it is an independent check of the
    incremental bookkeeping.
    """
    graph = state.graph
    picked = state.in_set[graph.indices]
    contrib = np.where(picked, graph.weights * state.conf[graph.indices], 0.0)
    return np.add.reduceat(contrib, graph.indptr[:-1])
