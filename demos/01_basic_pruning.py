"""Walk-through: prune a noisy synthetic dataset and compare selectors.

Generates a clustered dataset with 20% asymmetric label noise, builds the
thresholded cosine graph, runs the neighborhood-confidence greedy next to a
few baselines, and compares how many mislabeled examples each subset drags
along at a 20% budget.

Run:  python demos/01_basic_pruning.py
"""

import numpy as np

from neighborprune import (
    SelectorConfig,
    SynthConfig,
    build_graph,
    compute_confidence,
    compute_small_loss_scores,
    generate_synthetic,
    measure_expansion_separation,
    run_selection,
    select_by_score,
    select_kcenter_greedy,
    select_uniform,
)

# --- a noisy training set ---------------------------------------------------
config = SynthConfig(
    num_classes=10,
    points_per_class=300,
    embedding_dim=32,
    within_class_concentration=25.0,
    between_class_separation=0.9,
    noise_rate=0.2,
    seed=7,
)
dataset = generate_synthetic(config)
m = len(dataset.noisy_labels)
flipped = dataset.noisy_labels != dataset.ground_truth_labels
print(f"dataset: m={m}, {int(flipped.sum())} mislabeled ({flipped.mean():.0%})")

# Confidence comes from the probability rows, exactly as it would from a
# warm-up classifier's softmax output.
confidence = compute_confidence(dataset.probabilities, "max_prob")
print(
    f"mean confidence: clean {confidence[~flipped].mean():.2f}, "
    f"mislabeled {confidence[flipped].mean():.2f}"
)

# --- neighborhood structure ---------------------------------------------------
tau = 0.9725
graph = build_graph(dataset.embeddings, tau)
alpha, beta = measure_expansion_separation(dataset.ground_truth_labels, graph)
print(f"graph at tau={tau}: mean neighbors {alpha:.1f}, cross-class share {beta:.3f}")

# --- selection at a 20% budget -----------------------------------------------
budget = 0.2
report = run_selection(
    SelectorConfig(method="prune4rel", budget=budget, tau=tau, seed=7),
    noisy_labels=dataset.noisy_labels,
    ground_truth_labels=dataset.ground_truth_labels,
    confidence=confidence,
    graph=graph,
)
print(
    f"\ngreedy neighborhood confidence: objective {report.objective_value:.1f}, "
    f"selection took {report.timings['selection_s']:.2f}s"
)


def subset_noise(indices):
    sel = np.asarray(indices)
    return float(np.mean(dataset.noisy_labels[sel] != dataset.ground_truth_labels[sel]))


s = len(report.selected)
losses = compute_small_loss_scores(dataset.probabilities, dataset.noisy_labels)
competitors = {
    "neighborhood greedy": report.selected,
    "uniform": select_uniform(m, s, seed=7),
    "small loss": select_by_score(losses, s, "ascending"),
    "kcenter greedy": select_kcenter_greedy(dataset.embeddings, s, seed=7),
}
print(f"\nnoise ratio inside each {budget:.0%} subset (population 20%):")
for name, indices in competitors.items():
    print(f"  {name:22s} {subset_noise(indices):6.1%}")

print(
    "\nThe greedy stays near-clean at small budgets because it picks "
    "high-confidence examples whose neighborhoods cover the rest."
)
