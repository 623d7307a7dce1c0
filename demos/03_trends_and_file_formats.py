"""Walk-through: correction trends, score ingestion, and the file formats.

Shows the qualitative behavior behind the method: the neighborhood-vote
re-labeling proxy succeeds mostly where neighborhood confidence is high,
and the selected subset's noise ratio climbs with the budget. Ends with a
tour of the on-disk formats (binary matrix container, headerless CSV
matrix, label text files, correlation CSV). The graph is not a file
format: every run builds it from the embeddings.

Run:  python demos/03_trends_and_file_formats.py
"""

import tempfile
from pathlib import Path

import numpy as np

from neighborprune import (
    SelectionState,
    SelectorConfig,
    SynthConfig,
    build_graph,
    compute_confidence,
    correlation_report,
    generate_synthetic,
    load_labels,
    load_matrix,
    relabel_proxy,
    run_selection,
    save_labels,
    save_matrix,
)
from neighborprune.verify import write_correlation_csv

dataset = generate_synthetic(
    SynthConfig(
        num_classes=10,
        points_per_class=300,
        embedding_dim=32,
        within_class_concentration=25.0,
        between_class_separation=0.9,
        noise_rate=0.2,
        seed=21,
    )
)
confidence = compute_confidence(dataset.probabilities, "max_prob")
tau = 0.9725
graph = build_graph(dataset.embeddings, tau)

# --- correction rate vs neighborhood confidence --------------------------------
config = SelectorConfig(method="prune4rel", budget=0.2, tau=tau)
report = run_selection(config, confidence=confidence, graph=graph)

state = SelectionState(graph, confidence)
for x in report.selected:
    state.add(x)
corrected = relabel_proxy(
    dataset.noisy_labels, dataset.ground_truth_labels, graph, confidence,
    report.selected,
)
corr = correlation_report(state.nbr_conf, corrected, num_bins=15)

print(f"spearman(neighborhood confidence, corrected) = {corr.spearman:.3f}")
print("bin (low edge)  count  correction rate")
for lo, _hi, count, rate in corr.rows():
    bar = "" if np.isnan(rate) else "#" * int(rate * 30)
    shown = "  --" if np.isnan(rate) else f"{rate:4.2f}"
    print(f"  {lo:12.2f}  {count:5d}  {shown} {bar}")

# --- subset noise ratio vs budget ----------------------------------------------
print("\nsubset noise ratio by budget (population 20%):")
for ratio in (0.2, 0.4, 0.6, 0.8):
    rep = run_selection(
        SelectorConfig(method="prune4rel", budget=float(ratio), tau=tau),
        noisy_labels=dataset.noisy_labels,
        ground_truth_labels=dataset.ground_truth_labels,
        confidence=confidence,
        graph=graph,
    )
    print(f"  budget {ratio:.0%}: {rep.noise_ratio:6.1%}")

# --- file formats ----------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    save_matrix(tmp / "emb.bin", dataset.embeddings)          # binary container
    # The package reads CSV matrices; any writer of headerless rows will do.
    np.savetxt(tmp / "emb.csv", dataset.embeddings[:5], delimiter=",", fmt="%.17g")
    save_labels(tmp / "labels.txt", dataset.noisy_labels)     # one int per line
    write_correlation_csv(tmp / "bins.csv", corr)

    emb = load_matrix(tmp / "emb.bin")
    emb_csv = load_matrix(tmp / "emb.csv", "csv")
    labels = load_labels(tmp / "labels.txt")
    header = (tmp / "emb.bin").read_bytes()[:4]
    print(f"\nbinary container magic {header!r}, round-trip shape {emb.shape}")
    print(f"CSV round-trip: {np.array_equal(emb_csv, dataset.embeddings[:5])}")
    print(f"label file round-trip: {np.array_equal(labels, dataset.noisy_labels)}")
    print("correlation CSV header:", (tmp / "bins.csv").read_text().splitlines()[0])
