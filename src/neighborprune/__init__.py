"""Noise-aware data pruning by maximizing neighborhood confidence.

Selects a size-budgeted subset of a noisily-labeled training set by greedily
maximizing the total utility of similarity-weighted confidence mass each
example receives from its selected neighbors, plus the standard baseline
selectors and a verification layer with brute-force oracles and synthetic
data generation.
"""

__version__ = "0.1.0"

from .dataset import (
    FormatError,
    compute_confidence,
    compute_small_loss_scores,
    load_external_confidence,
    load_labels,
    load_matrix,
    load_probabilities,
    load_scores,
    save_labels,
    save_matrix,
)
from .objective import (
    SelectionState,
    Utility,
    marginal_gain_exact,
    marginal_gain_paper,
    total_objective,
)
from .selectors import (
    PruneReport,
    SelectorConfig,
    resolve_budget,
    run_selection,
    select_by_score,
    select_kcenter_greedy,
    select_margin,
    select_moderate,
    select_uniform,
)
from .similarity import GuardError, NeighborGraph, build_graph
from .verify import (
    CorrelationReport,
    SynthConfig,
    brute_force_optimum,
    correlation_report,
    generate_synthetic,
    relabel_proxy,
)
