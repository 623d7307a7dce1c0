"""Walk-through: the optimization guarantees, checked on desk-scale instances.

The selection objective (sum over all examples of a concave utility of the
confidence mass arriving from selected neighbors) is monotone and submodular,
so greedy selection is guaranteed a (1 - 1/e) fraction of the exhaustive
optimum. This script verifies all three claims numerically and shows lazy
evaluation reproducing the eager selection order exactly.

Run:  python demos/02_objective_guarantees.py
"""

import numpy as np

from neighborprune import (
    SelectionState,
    Utility,
    brute_force_optimum,
    build_graph,
    greedy_sequence,
    marginal_gain_exact,
    total_objective,
)

rng = np.random.default_rng(0)
util = Utility("tanh")

# --- a tiny instance you can check by hand ------------------------------------
emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
conf = np.array([0.9, 0.8, 0.7])
graph = build_graph(emb, 0.5)

print("3-example instance: two duplicates (conf 0.9, 0.8) and one isolated (0.7)")
seq = greedy_sequence(graph, conf, 2)
print(f"greedy picks {seq}: the second duplicate is nearly redundant, so the")
print("isolated example wins the second slot despite lower confidence.\n")

# --- greedy vs exhaustive optimum ----------------------------------------------
worst = 1.0
for trial in range(200):
    m = int(rng.integers(6, 13))
    g = build_graph(rng.standard_normal((m, 4)), 0.5)
    c = rng.uniform(0, 1, m)
    s = int(rng.integers(1, 6))
    picked = greedy_sequence(g, c, s, gain_mode="exact_marginal")
    state = SelectionState(g, c)
    for x in picked:
        state.add(x)
    achieved = total_objective(state, util)
    _, optimum = brute_force_optimum(g, c, s, util)
    worst = min(worst, achieved / optimum)
print(f"greedy/optimum over 200 random instances: worst ratio {worst:.4f}")
print(f"guaranteed floor 1 - 1/e = {1 - 1 / np.e:.4f}\n")

# --- monotonicity and diminishing returns --------------------------------------
g = build_graph(rng.standard_normal((30, 4)), 0.4)
c = rng.uniform(0, 1, 30)
state = SelectionState(g, c)
candidate = 17
gains = []
objectives = [total_objective(state, util)]
for x in [3, 9, 22, 11, 6, 28]:
    gains.append(marginal_gain_exact(state, candidate, util))
    state.add(x)
    objectives.append(total_objective(state, util))
print("objective along a selection path (never decreases):")
print("  " + " -> ".join(f"{v:.3f}" for v in objectives))
print(f"marginal gain of example {candidate} as the set grows (never increases):")
print("  " + " -> ".join(f"{v:.4f}" for v in gains) + "\n")

# --- lazy evaluation is exact, not approximate ----------------------------------
m = 1500
g = build_graph(rng.standard_normal((m, 16)), 0.7)
c = rng.uniform(0, 1, m)
eager = greedy_sequence(g, c, 30, lazy=False)
lazy = greedy_sequence(g, c, 30, lazy=True)
print(f"lazy == eager on a {m}-example instance: {eager == lazy}")
