"""Subset-selection strategies.

The flagship selector greedily maximizes the total utility of neighborhood
confidence: at each step it adds the example with the largest marginal gain
(own-term by default, exact objective increment as an option), then folds
the pick's weighted confidence into its neighbors' running totals. A
class-balanced variant round-robins the same step over per-class pools.
Lazy evaluation keeps candidates in a max-priority heap with stale-gain
re-evaluation; because gains only shrink as the selection grows, the lazy
run provably reproduces the eager selection sequence, ties broken by lowest
index in both. The remaining selectors are the standard score-, margin-,
distance-, and coverage-based baselines.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from .dataset import _validate_probabilities, compute_small_loss_scores
from .objective import (
    SelectionState,
    Utility,
    confidence_values,
    marginal_gain_exact,
    marginal_gain_paper,
    marginal_gains_paper,
    total_objective,
)
from .similarity import NeighborGraph


@dataclass(frozen=True)
class MethodSpec:
    """The inputs a selection method reads, all required and reported in
    this order when missing; for score-ranking methods also the sort
    direction. A score method given its scores directly needs none of its
    other inputs (small_loss otherwise derives its losses from
    probabilities and labels)."""

    inputs: tuple[str, ...] = ()
    direction: str | None = None


METHOD_TABLE = {
    "prune4rel": MethodSpec(("graph", "confidence")),
    "prune4rel_balanced": MethodSpec(("graph", "noisy_labels", "confidence")),
    "uniform": MethodSpec(),
    "small_loss": MethodSpec(("probabilities", "noisy_labels"), "ascending"),
    "margin": MethodSpec(("probabilities",)),
    "kcenter_greedy": MethodSpec(("embeddings",)),
    "forgetting": MethodSpec(("scores",), "descending"),
    "grand": MethodSpec(("scores",), "descending"),
    "moderate": MethodSpec(("embeddings", "noisy_labels")),
    "ssp": MethodSpec(("scores",), "descending"),
}
METHODS = tuple(METHOD_TABLE)
GREEDY_METHODS = ("prune4rel", "prune4rel_balanced")
GAIN_MODES = ("paper_faithful", "exact_marginal")

# Neighborhood-threshold presets as shipped configuration.
TAU_PRESETS = {"cifar10n": 0.975, "cifar100n": 0.95, "clothing1m": 0.8}


def requirement_error(method: str, available, spell=str) -> str | None:
    """None when `available` holds every input `method` reads, otherwise a
    sentence naming the missing ones, each written as spell(input)."""
    spec = METHOD_TABLE[method]
    if spec.direction is not None and "scores" in available:
        return None
    missing = [spell(name) for name in spec.inputs if name not in available]
    if not missing:
        return None
    text = " and ".join(missing)
    if spec.direction is not None and "scores" not in spec.inputs:
        text += f" (or {spell('scores')})"
    return f"{method} requires {text}"


def resolve_budget(budget, m: int) -> int:
    """Resolve a subset size from a count or a selection ratio.

    Integers are taken as the size s directly; floats are ratios in (0, 1]
    resolved with round-half-up. The result must satisfy 1 <= s <= m.
    """
    if isinstance(budget, Integral) and not isinstance(budget, bool):
        s = int(budget)
    elif isinstance(budget, float):
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"selection ratio must lie in (0, 1], got {budget}")
        s = int(np.floor(budget * m + 0.5))
    else:
        raise ValueError(f"budget must be an int size or float ratio, got {budget!r}")
    if s < 1:
        raise ValueError(f"budget {budget!r} resolves to an empty subset for m={m}")
    if s > m:
        raise ValueError(f"budget {s} exceeds the number of examples m={m}")
    return s


@dataclass(frozen=True)
class SelectorConfig:
    """Everything a selection run depends on, echoed into reports."""

    method: str
    budget: int | float
    tau: float | None = None
    utility: Utility = field(default_factory=Utility)
    gain_mode: str = "paper_faithful"
    lazy: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(f"unknown gain mode {self.gain_mode!r}")

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "budget": self.budget,
            "tau": self.tau,
            "utility": self.utility.kind,
            "gain_mode": self.gain_mode,
            "lazy": self.lazy,
            "seed": self.seed,
            # Every selector breaks ties by lowest index.
            "tie_break": "lowest_index",
        }


@dataclass
class PruneReport:
    """Outcome of one selection run."""

    selected: list[int]
    objective_value: float | None
    per_class_counts: list[int] | None
    noise_ratio: float | None
    timings: dict[str, float]
    config: dict

    def report_dict(self) -> dict:
        return {
            "selected_count": len(self.selected),
            "objective_value": self.objective_value,
            "per_class_counts": self.per_class_counts,
            "noise_ratio": self.noise_ratio,
            "timings": {
                "graph_build_s": self.timings.get("graph_build_s", 0.0),
                "selection_s": self.timings.get("selection_s", 0.0),
            },
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.report_dict(), indent=2) + "\n"


def write_selected(path, selected: Sequence[int]) -> None:
    """Selected indices as text, one per line, in selection order."""
    with open(path, "w", encoding="utf-8") as handle:
        for idx in selected:
            handle.write(f"{int(idx)}\n")


def load_selected(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                values.append(int(line))
    return np.array(values, dtype=np.int64)


# ---------------------------------------------------------------------------
# Greedy neighborhood-confidence selection
# ---------------------------------------------------------------------------

def _scalar_gain(state: SelectionState, x: int, utility: Utility, gain_mode: str) -> float:
    if gain_mode == "paper_faithful":
        return marginal_gain_paper(state, x, utility)
    return marginal_gain_exact(state, x, utility)


def _pool_gains(state: SelectionState, cands: np.ndarray, utility: Utility,
                gain_mode: str) -> np.ndarray:
    """Fresh gains for a candidate array; elementwise-identical to the
    scalar path (pinned by a test against batch/scalar ufunc equality)."""
    if gain_mode == "paper_faithful":
        return marginal_gains_paper(state, cands, utility)
    return np.array(
        [marginal_gain_exact(state, int(x), utility) for x in cands], dtype=np.float64
    )


def _eager_pick(state, pool, utility, gain_mode):
    cands = pool[~state.in_set[pool]]
    if cands.size == 0:
        return None
    gains = _pool_gains(state, cands, utility, gain_mode)
    return int(cands[int(np.argmax(gains))])


def _lazy_pick(state, heap, utility, gain_mode):
    stamp = len(state.selected)
    while heap:
        neg_gain, x, at = heapq.heappop(heap)
        if at == stamp:
            return x
        fresh = _scalar_gain(state, x, utility, gain_mode)
        heapq.heappush(heap, (-fresh, x, stamp))
    return None


def _init_heap(state, pool, utility, gain_mode):
    gains = _pool_gains(state, pool, utility, gain_mode)
    heap = [(-float(g), int(x), 0) for g, x in zip(gains, pool)]
    heapq.heapify(heap)
    return heap


def _greedy_core(
    graph: NeighborGraph,
    confidence,
    s: int,
    utility: Utility,
    gain_mode: str,
    lazy: bool,
    pools: list[np.ndarray],
) -> SelectionState:
    state = SelectionState(graph, confidence)
    heaps = [_init_heap(state, pool, utility, gain_mode) for pool in pools] if lazy else None
    while True:
        progressed = False
        for pi, pool in enumerate(pools):
            if lazy:
                x = _lazy_pick(state, heaps[pi], utility, gain_mode)
            else:
                x = _eager_pick(state, pool, utility, gain_mode)
            if x is None:
                continue
            state.add(x)
            progressed = True
            if len(state.selected) == s:
                return state
        if not progressed:
            raise RuntimeError("candidate pools exhausted before reaching the budget")


def _pools(m: int, labels=None, num_classes: int | None = None) -> list[np.ndarray]:
    """One candidate pool of all m examples, or one pool per class of labels."""
    if labels is None:
        return [np.arange(m, dtype=np.int64)]
    labels = np.asarray(labels, dtype=np.int64)
    c = int(num_classes) if num_classes else int(labels.max()) + 1
    return [np.flatnonzero(labels == j).astype(np.int64) for j in range(c)]


def greedy_sequence(
    graph: NeighborGraph,
    confidence,
    s: int,
    *,
    utility: Utility | None = None,
    gain_mode: str = "paper_faithful",
    lazy: bool = True,
    class_labels: np.ndarray | None = None,
    num_classes: int | None = None,
) -> list[int]:
    """Bare greedy selection sequence, without report plumbing.

    With class_labels the step round-robins over per-class candidate pools.
    """
    if gain_mode not in GAIN_MODES:
        raise ValueError(f"unknown gain mode {gain_mode!r}")
    pools = _pools(graph.num_rows, class_labels, num_classes)
    state = _greedy_core(graph, confidence, s, utility or Utility(), gain_mode, lazy, pools)
    return state.selected


def _check_graph_matches(graph: NeighborGraph, config: SelectorConfig, m: int) -> None:
    if graph.num_rows != m:
        raise ValueError(f"graph has {graph.num_rows} rows, dataset has {m}")
    if config.tau is not None and abs(graph.tau - config.tau) > 1e-12:
        raise ValueError(
            f"graph was built with tau={graph.tau}, config says {config.tau}"
        )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def select_uniform(m: int, s: int, seed: int) -> list[int]:
    """s distinct indices drawn without replacement from a seeded generator."""
    if s > m:
        raise ValueError(f"budget {s} exceeds m={m}")
    rng = np.random.default_rng(seed)
    return rng.choice(m, size=s, replace=False).tolist()


def select_by_score(scores, s: int, direction: str) -> list[int]:
    """First s indices after a stable sort by score; lowest index wins ties."""
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ValueError("scores must be a 1-d vector of finite values")
    if s > values.size:
        raise ValueError(f"budget {s} exceeds m={values.size}")
    if direction == "ascending":
        order = np.argsort(values, kind="stable")
    elif direction == "descending":
        order = np.argsort(-values, kind="stable")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return order[:s].tolist()


def select_margin(probabilities: np.ndarray, s: int) -> list[int]:
    """Smallest gap between the top two class probabilities first."""
    probs = np.asarray(probabilities, dtype=np.float64)
    _validate_probabilities(probs)
    if probs.shape[1] < 2:
        raise ValueError("margin selection requires at least 2 classes")
    top2 = np.sort(probs, axis=1)[:, -2:]
    return select_by_score(top2[:, 1] - top2[:, 0], s, "ascending")


def select_kcenter_greedy(
    embeddings: np.ndarray, s: int, seed: int, first_center: int | None = None
) -> list[int]:
    """Farthest-point traversal: repeatedly add the example farthest from the
    current centers (Euclidean), starting from a seeded random center."""
    emb = np.asarray(embeddings, dtype=np.float64)
    m = emb.shape[0]
    if s > m:
        raise ValueError(f"budget {s} exceeds m={m}")
    if first_center is None:
        first_center = int(np.random.default_rng(seed).integers(m))
    selected = [int(first_center)]
    # Squared distances: same argmax and same ties as true distances.
    min_sq = np.sum((emb - emb[first_center]) ** 2, axis=1)
    min_sq[first_center] = -np.inf
    for _ in range(s - 1):
        nxt = int(np.argmax(min_sq))
        selected.append(nxt)
        np.minimum(min_sq, np.sum((emb - emb[nxt]) ** 2, axis=1), out=min_sq)
        min_sq[nxt] = -np.inf
    return selected


def select_moderate(embeddings: np.ndarray, noisy_labels: np.ndarray, s: int,
                    num_classes: int | None = None) -> list[int]:
    """Examples whose distance to their class centroid is closest to the
    class's median distance come first."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(noisy_labels, dtype=np.int64)
    m = emb.shape[0]
    if s > m:
        raise ValueError(f"budget {s} exceeds m={m}")
    c = int(num_classes) if num_classes else int(labels.max()) + 1
    deviation = np.empty(m, dtype=np.float64)
    for j in range(c):
        members = np.flatnonzero(labels == j)
        if members.size == 0:
            raise ValueError(f"class {j} has no examples")
        centroid = emb[members].mean(axis=0)
        dists = np.linalg.norm(emb[members] - centroid, axis=1)
        deviation[members] = np.abs(dists - np.median(dists))
    return select_by_score(deviation, s, "ascending")


# ---------------------------------------------------------------------------
# Uniform dispatch (the entry point of the library and the command line)
# ---------------------------------------------------------------------------

def run_selection(
    config: SelectorConfig,
    *,
    embeddings: np.ndarray | None = None,
    noisy_labels: np.ndarray | None = None,
    num_classes: int | None = None,
    probabilities: np.ndarray | None = None,
    confidence=None,
    scores=None,
    ground_truth_labels: np.ndarray | None = None,
    graph: NeighborGraph | None = None,
    graph_build_s: float = 0.0,
) -> PruneReport:
    """Run any selection method from loose inputs and produce a full report.

    prune4rel draws from all examples; prune4rel_balanced round-robins the
    greedy step over the classes of noisy_labels, skipping exhausted ones.
    Raises ValueError naming the missing inputs for the chosen method
    (METHOD_TABLE lists what each method reads).
    """
    method = config.method
    given = {
        "embeddings": embeddings,
        "noisy_labels": noisy_labels,
        "probabilities": probabilities,
        "confidence": confidence,
        "scores": scores,
        "graph": graph,
    }
    problem = requirement_error(method, {k for k, v in given.items() if v is not None})
    if problem:
        raise ValueError(problem)
    if noisy_labels is not None:
        noisy_labels = np.asarray(noisy_labels, dtype=np.int64)
        if not num_classes:
            num_classes = int(noisy_labels.max()) + 1
    if ground_truth_labels is not None:
        ground_truth_labels = np.asarray(ground_truth_labels, dtype=np.int64)
    sized = [
        arr
        for arr in (embeddings, probabilities, noisy_labels, ground_truth_labels)
        if arr is not None
    ]
    if confidence is not None:
        confidence = confidence_values(confidence)
        sized.append(confidence)
    if scores is not None:
        sized.append(np.asarray(scores))
    if not sized:
        raise ValueError("no inputs provided to infer the dataset size from")
    m = len(sized[0])
    for arr in sized[1:]:
        if len(arr) != m:
            raise ValueError(f"input length mismatch: {len(arr)} != {m}")
    for what, labels in (
        ("noisy_labels", noisy_labels),
        ("ground_truth_labels", ground_truth_labels),
    ):
        if labels is not None and labels.size and (
            labels.min() < 0 or (num_classes and labels.max() >= num_classes)
        ):
            raise ValueError(f"{what} contains a value outside [0, {num_classes})")

    s = resolve_budget(config.budget, m)
    spec = METHOD_TABLE[method]
    state = None
    start = time.perf_counter()
    if method in GREEDY_METHODS:
        _check_graph_matches(graph, config, m)
        balanced = method == "prune4rel_balanced"
        pools = _pools(m, noisy_labels if balanced else None, num_classes)
        state = _greedy_core(
            graph, confidence, s, config.utility, config.gain_mode, config.lazy, pools
        )
        selected = state.selected
    elif spec.direction is not None:
        if scores is None:  # small_loss without a loss file
            scores = compute_small_loss_scores(probabilities, noisy_labels)
        selected = select_by_score(scores, s, spec.direction)
    elif method == "uniform":
        selected = select_uniform(m, s, config.seed)
    elif method == "margin":
        selected = select_margin(probabilities, s)
    elif method == "kcenter_greedy":
        selected = select_kcenter_greedy(embeddings, s, config.seed)
    else:
        selected = select_moderate(embeddings, noisy_labels, s, num_classes)
    selection_s = time.perf_counter() - start

    sel = np.asarray(selected, dtype=np.int64)
    per_class = noise_ratio = None
    if noisy_labels is not None:
        per_class = np.bincount(noisy_labels[sel], minlength=num_classes).tolist()
        if ground_truth_labels is not None:
            noise_ratio = float(np.mean(noisy_labels[sel] != ground_truth_labels[sel]))
    return PruneReport(
        selected=list(map(int, selected)),
        objective_value=None if state is None else total_objective(state, config.utility),
        per_class_counts=per_class,
        noise_ratio=noise_ratio,
        timings={"graph_build_s": float(graph_build_s), "selection_s": float(selection_s)},
        config=config.as_dict(),
    )
