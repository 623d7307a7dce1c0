"""Subset-selection strategies.

The flagship selector greedily maximizes the total utility of neighborhood
confidence: at each step it adds the example with the largest marginal gain
(own-term by default, exact objective increment as an option), then folds
the pick's weighted confidence into its neighbors' running totals. A
class-balanced variant round-robins the same step over per-class pools:
each loop, lazy or eager, gives one generator of picks per pool, and one
round-robin drives them.
run_selection is the only way to run the greedy, lazy or eager, plain or
class-balanced, so every run passes its input checks. The eager loop
rescans every unselected candidate of a pool at each pick; for paper gains
it keeps utility(nbr_conf), recomputed only where a pick changed nbr_conf,
so a step is one utility pass over the pool. Lazy evaluation keeps
candidates in a max-priority heap of (-gain, index), replayed in batches of
array gains; the top entry is the pick once its key equals its up-to-date
gain. It recomputes a kept gain only once a pick marks it stale: a pick marks
the examples one hop out in the graph for paper gains, two hops for exact ones.
A gain recomputed from unchanged inputs is bit-identical, so marking more
costs work, never a pick. Both loops break ties by lowest index, and the
lazy run reproduces the eager selection sequence as long as no computed gain
grows as the selection grows. True gains only shrink, but once tanh
saturates (nbr_conf near 19, gains near 1e-16) rounding can make a computed
gain grow by an ulp, and from there the two sequences can part. The
remaining selectors are the standard score-, margin-, distance-, and
coverage-based baselines. k-center keeps exact squared distances and uses
one float32 matrix-vector product per step only to find the rows whose
distance can drop, so its selections and lowest-index ties are those of
recomputing every distance, at any BLAS thread count and input dtype.

Every selector reads its budget with resolve_budget, as run_selection does:
an int is the subset size s, a float is a ratio of the m examples, and
1 <= s <= m or the selector raises ValueError before it selects anything.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import asdict, dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from .dataset import compute_confidence, compute_small_loss_scores, parse_int64, read_values
from .objective import (
    SelectionState,
    Utility,
    confidence_values,
    marginal_gain_exact,
    marginal_gain_paper,
    marginal_gains_exact,
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
# Gain mode -> (gain of one candidate, gains of a candidate array).
GAINS = {
    "paper_faithful": (marginal_gain_paper, marginal_gains_paper),
    "exact_marginal": (marginal_gain_exact, marginal_gains_exact),
}
GAIN_MODES = tuple(GAINS)

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
        # Every selector breaks ties by lowest index.
        return asdict(self) | {"utility": self.utility.kind, "tie_break": "lowest_index"}


@dataclass
class PruneReport:
    """Outcome of one selection run."""

    selected: list[int]
    objective_value: float | None
    per_class_counts: list[int] | None
    noise_ratio: float | None
    timings: dict[str, float]
    config: dict
    graph: dict | None  # edges, block pairs and degrees of the graph read, if any
    peak_rss_mb: float | None = None  # set by the command that writes the report

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
            "graph": self.graph,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def to_json(self) -> str:
        return json.dumps(self.report_dict(), indent=2) + "\n"


def write_selected(path, selected: Sequence[int]) -> None:
    """Selected indices as text, one per line, in selection order."""
    with open(path, "w", encoding="utf-8") as handle:
        for idx in selected:
            handle.write(f"{int(idx)}\n")


def load_selected(path) -> np.ndarray:
    """Indices written by write_selected, in selection order."""
    return np.array(read_values(path, parse_int64, "selection"), dtype=np.int64)


def subset_stats(selected, noisy_labels: np.ndarray, ground_truth_labels=None):
    """per_class_counts and noise_ratio of a selection: one count per class id
    from 0 to the largest noisy label, and the share of selected examples
    whose noisy label is not their ground truth (None without ground truth)."""
    sel = np.asarray(selected, dtype=np.int64)
    counts = np.bincount(noisy_labels[sel], minlength=int(noisy_labels.max()) + 1).tolist()
    if ground_truth_labels is None:
        return counts, None
    return counts, float(np.mean(noisy_labels[sel] != ground_truth_labels[sel]))


# ---------------------------------------------------------------------------
# Greedy neighborhood-confidence selection
# ---------------------------------------------------------------------------

def _eager_turns(state, pools, utility, gain_mode) -> list:
    """The eager greedy: every pick scores every unselected member of its
    pool, so each step is a full candidate scan.

    The pools, which partition the rows, are laid end to end, each in index
    order, so a pool is a slice of the layout. The layout keeps C, nbr_conf,
    u = utility(nbr_conf) and the selected flags. Once the caller has added a
    pick, the next pick copies the pick's neighbors' nbr_conf and recomputes
    u there, the only entries the addition changed. A paper-mode step takes
    utility(nbr_conf + C) - u over the slice, clamps it at 0, sets selected
    members to -1 and takes the argmax. The utility is elementwise, so each
    gain is bit-identical to marginal_gains_paper's, and argmax's first
    maximum is the lowest-index tie. An exact gain reads a whole
    neighborhood, so exact mode scores the unselected members with the
    array gain instead.
    """
    gains_of = None if gain_mode == "paper_faithful" else GAINS[gain_mode][1]
    order = np.concatenate(pools).astype(np.intp)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    nbr = state.nbr_conf[order]
    u = np.array(utility(nbr))  # a copy: identity returns its input
    taken = np.zeros(order.size, dtype=np.bool_)
    layout = (nbr, state.conf[order], u, taken, order)
    bounds = np.cumsum([0] + [pool.size for pool in pools]).tolist()
    seen = 0  # picks already folded into the layout

    def turns(p_nbr, p_conf, p_u, p_taken, pool):
        # Views of nbr_conf, C, u, the selected flags and the members.
        nonlocal seen
        for _ in range(pool.size):
            for x in state.selected[seen:]:
                idx = state.graph.neighbors(x)[0]
                at, values = rank[idx], state.nbr_conf[idx]
                nbr[at] = values
                u[at] = utility(values)
                taken[rank[x]] = True
            seen = len(state.selected)
            if gains_of is None:
                gains = utility(p_nbr + p_conf)
                gains -= p_u
                np.maximum(gains, 0.0, out=gains)
                gains[p_taken] = -1.0
                yield int(pool[gains.argmax()])
            else:
                cands = pool[~p_taken]
                yield int(cands[int(np.argmax(gains_of(state, cands, utility)))])

    return [turns(*(a[lo:hi] for a in layout)) for lo, hi in zip(bounds, bounds[1:])]


# Entries a lazy pick takes off a pool's heap at once.
_BATCH = 128


def _lazy_turns(state, pools, utility, gain_mode) -> list:
    """The lazy greedy: one max-heap of (-gain, index) entries per candidate
    pool. A pick refreshes the top entry's gain: if the entry's key equals
    it, the entry is the pick, and otherwise it goes back with the refreshed
    gain. (-gain, index) orders the entries totally, so this sequence of
    refreshes and picks does not depend on how a heap is stored. The picks
    are those of a heap that stamps each entry with the selection size at
    its refresh and picks the first fresh stamp: there, an entry whose
    refresh leaves its key unchanged goes back on top and comes straight
    out again.

    The pops are replayed in batches. A pool's entries are split at the
    cut: a batch, kept as a heap of entries all at least the cut when
    taken, and the rest, a heap of entries all below it. A batch is a
    pool's _BATCH best entries plus every entry tied with the last, whose
    gain is the cut, and their gains are computed in one array call. Every
    other entry of the pool is below the cut, so while the batch's top entry
    is at least the cut, it is the pool's top and the batch replays the
    pool's own steps. A pool keeps its batch from one of its turns to the
    next.

    A refresh reads the kept gain while current[x] holds and computes it
    again otherwise. Computing x's gain sets current[x], and a pick clears
    it over every example whose gain reads an nbr_conf the pick changed:
    the pick's neighbors in paper mode (x's gain reads nbr_conf[x]), their
    neighbors too in exact mode (it reads nbr_conf over x's neighbors, and
    the graph is symmetric). A gain recomputed from unchanged inputs is
    bit-identical to the kept one, so clearing more costs work, never a pick.
    """
    gain_of, gains_of = GAINS[gain_mode]
    two_hops = gain_mode == "exact_marginal"
    # current[x]: x's kept gain is up to date (pools are disjoint).
    current = np.zeros(state.graph.num_rows, dtype=np.bool_)

    def turns(pool, pool_gains):
        rest = list(zip((-pool_gains).tolist(), pool.tolist()))
        heapq.heapify(rest)
        batch, neg_cut, cached = [], 0.0, {}  # cached: member -> its latest gain
        while True:
            if not batch or batch[0][0] > neg_cut:
                for entry in batch:
                    heapq.heappush(rest, entry)
                # Sorted, so a heap.
                batch = [heapq.heappop(rest) for _ in range(min(_BATCH, len(rest)))]
                while rest and rest[0][0] == batch[-1][0]:
                    batch.append(heapq.heappop(rest))
                if not batch:
                    return
                neg_cut = batch[-1][0]
                members = np.array([x for _, x in batch], dtype=np.intp)
                gains = gains_of(state, members, utility)
                cached = dict(zip(members.tolist(), gains.tolist()))
                current[members] = True
            key, x = batch[0]
            if not current[x]:
                cached[x] = gain_of(state, x, utility)
                current[x] = True
            if key == -cached[x]:
                heapq.heappop(batch)
                reach, _ = state.graph.neighbors(x)
                if two_hops:
                    reach = state.graph.indices[state.graph.entries(reach)[0]]
                current[reach] = False
                yield x
            else:
                heapq.heapreplace(batch, (-cached[x], x))

    # Every pool's gains are computed here, before the first pick changes them.
    return [turns(pool, gains_of(state, pool, utility)) for pool in pools]


def _greedy_core(
    graph: NeighborGraph,
    confidence,
    s: int,
    utility: Utility,
    gain_mode: str,
    lazy: bool,
    pools: list[np.ndarray],
) -> SelectionState:
    """Round-robin the greedy step over the pools. _lazy_turns or
    _eager_turns gives one generator per pool; each yields its pool's next
    pick, which is added here before the generator resumes, and ends once
    the pool is empty."""
    state = SelectionState(graph, confidence)
    turns = (_lazy_turns if lazy else _eager_turns)(state, pools, utility, gain_mode)
    while turns:
        live = []
        for t in turns:
            x = next(t, None)
            if x is None:
                continue
            state.add(x)
            if len(state.selected) == s:
                return state
            live.append(t)
        turns = live
    raise RuntimeError("candidate pools exhausted before reaching the budget")


def _pools(m: int, labels) -> list[np.ndarray]:
    """One candidate pool of all m examples, or the members of each class
    present in labels, in class order, each in index order."""
    if labels is None:
        return [np.arange(m, dtype=np.int64)]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def select_uniform(m: int, s: int | float, seed: int) -> list[int]:
    """s distinct indices drawn without replacement from a seeded generator."""
    s = resolve_budget(s, m)
    rng = np.random.default_rng(seed)
    return rng.choice(m, size=s, replace=False).tolist()


def select_by_score(scores, s: int | float, direction: str) -> list[int]:
    """First s indices after a stable sort by score; lowest index wins ties."""
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ValueError("scores must be a 1-d vector of finite values")
    s = resolve_budget(s, values.size)
    if direction == "ascending":
        order = np.argsort(values, kind="stable")
    elif direction == "descending":
        order = np.argsort(-values, kind="stable")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return order[:s].tolist()


def select_margin(probabilities: np.ndarray, s: int | float) -> list[int]:
    """Smallest gap between the top two class probabilities first."""
    return select_by_score(compute_confidence(probabilities, "diff_prob"), s, "ascending")


def select_kcenter_greedy(embeddings: np.ndarray, s: int | float, seed: int) -> list[int]:
    """Farthest-point traversal: repeatedly add the example farthest from the
    current centers (Euclidean), starting from a seeded random center.

    Each example keeps its squared distance to the nearest center, always
    as the exact float64 expression sum((x - c) ** 2), so the argmax and its
    lowest-index ties do not depend on how a step finds the rows to update,
    nor on whether the rows come as float32 or upcast. A step computes the
    cheap expansion ||x||^2 - 2 x.c + ||c||^2 with one float32 matrix-vector
    product over float32 rows, lowers it by a bound on the rounding error of
    both expressions, and recomputes the exact distance only on the rows
    where that lower bound does not exceed the kept value. Every other row
    has an exact distance strictly above its kept value, so taking the
    minimum would have left it unchanged. The expansion itself is never
    stored: rounded, it gives a duplicate of a center about +-eps instead
    of an exact 0 and flips ties.
    """
    emb = np.asarray(embeddings)
    emb = emb.astype(np.promote_types(emb.dtype, np.float32), copy=False)  # float32 or 64
    m, d = emb.shape
    s = resolve_budget(s, m)
    first = int(np.random.default_rng(seed).integers(m))
    selected = [first]
    # Squared distances: same argmax and same ties as true distances.
    min_sq = np.sum((emb - emb[first].astype(np.float64)) ** 2, axis=1)
    min_sq[first] = -np.inf
    # Rounding bound, with u = 2**-24, N = ||x||^2 + ||c||^2 and first-order
    # terms only. The exact expression is within 2(d + 2)u64 N (u64 = 2**-53)
    # of the true squared distance. In the filter, rounding float64 rows to
    # float32 moves the expansion by at most 4u N; the two norms and the dot
    # product (any summation order, FMA or not) are each within d*u times the
    # sum of their |terms|, which add up to at most 2N; shrinking each norm
    # rounds twice (2u N) and the two additions round results of size at most
    # 2N (4u N): (2d + 10)u N in all, which slack = 4(d + 6)u covers twice
    # over for d up to 2**21. A row whose float32 norm is NaN, below 2**-64
    # (underflow errs by up to 2**-150 a term) or not below max / 8 (below,
    # Cauchy-Schwarz keeps every partial sum under half the largest float32)
    # gets -inf: every bound it enters, as row or center, is then -inf or
    # NaN, so its distances are always recomputed.
    slack = 4.0 * (d + 6) * 2.0**-24
    with np.errstate(over="ignore"):  # a row past float32's range becomes inf
        rows32 = emb.astype(np.float32, copy=False)
        norms = np.einsum("ij,ij->i", rows32, rows32)
    shrunk_nrm = norms * np.float32(1.0 - slack)
    shrunk_nrm[~((norms >= 2.0**-64) & (norms < np.finfo(np.float32).max / 8))] = -np.inf
    lower = np.empty(m, dtype=np.float32)
    for _ in range(s - 1):
        nxt = int(np.argmax(min_sq))
        selected.append(nxt)
        center = emb[nxt].astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            # lower = (1 - slack)(||x||^2 + ||c||^2) - 2 x.c; scaling c by -2
            # is exact.
            np.matmul(rows32, -2.0 * rows32[nxt], out=lower)
            lower += shrunk_nrm
            lower += shrunk_nrm[nxt]
            # NaN fails every comparison, so a NaN bound is recomputed too.
            rows = np.flatnonzero(~(lower > min_sq))
        exact = np.sum((emb[rows] - center) ** 2, axis=1)
        min_sq[rows] = np.minimum(min_sq[rows], exact)
        min_sq[nxt] = -np.inf
    return selected


def select_moderate(embeddings: np.ndarray, noisy_labels: np.ndarray,
                    s: int | float) -> list[int]:
    """Examples whose distance to their class centroid is closest to the
    class's median distance come first."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(noisy_labels, dtype=np.int64)
    m = emb.shape[0]
    s = resolve_budget(s, m)
    if labels.shape != (m,) or labels.min(initial=0) < 0:
        raise ValueError(f"noisy_labels must be {m} class indices, none negative")
    deviation = np.empty(m, dtype=np.float64)
    for members in _pools(m, labels):
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
    probabilities: np.ndarray | None = None,
    confidence=None,
    scores=None,
    ground_truth_labels: np.ndarray | None = None,
    graph: NeighborGraph | None = None,
) -> PruneReport:
    """Run any selection method from loose inputs and produce a full report.

    prune4rel draws from all examples; prune4rel_balanced round-robins the
    greedy step over the classes present in noisy_labels, skipping
    exhausted ones.
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
    if ground_truth_labels is not None:
        ground_truth_labels = np.asarray(ground_truth_labels, dtype=np.int64)
    if confidence is not None:
        confidence = confidence_values(confidence)
    sizes = {name: len(arr) for name, arr in (
        ("embeddings", embeddings), ("probabilities", probabilities),
        ("noisy_labels", noisy_labels), ("ground_truth_labels", ground_truth_labels),
        ("confidence", confidence), ("scores", scores)) if arr is not None}
    if not sizes:
        raise ValueError("no inputs provided to infer the dataset size from")
    (first, m), *rest = sizes.items()
    for name, size in rest:
        if size != m:
            raise ValueError(f"input length mismatch: {size} != {m} ({name} against {first})")
    for what, labels in (
        ("noisy_labels", noisy_labels),
        ("ground_truth_labels", ground_truth_labels),
    ):
        if labels is not None and labels.min(initial=0) < 0:
            raise ValueError(f"{what} contains a negative class id")

    s = resolve_budget(config.budget, m)
    spec = METHOD_TABLE[method]
    state = None
    start = time.perf_counter()
    if "graph" in spec.inputs:
        if graph.num_rows != m:
            raise ValueError(f"graph has {graph.num_rows} rows, dataset has {m}")
        if config.tau is not None and abs(graph.tau - config.tau) > 1e-12:
            raise ValueError(
                f"graph was built with tau={graph.tau}, config says {config.tau}"
            )
        balanced = method == "prune4rel_balanced"
        pools = _pools(m, noisy_labels if balanced else None)
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
        selected = select_moderate(embeddings, noisy_labels, s)
    selection_s = time.perf_counter() - start

    per_class = noise_ratio = None
    if noisy_labels is not None:
        per_class, noise_ratio = subset_stats(selected, noisy_labels, ground_truth_labels)
    return PruneReport(
        selected=selected,
        objective_value=None if state is None else total_objective(state, config.utility),
        per_class_counts=per_class,
        noise_ratio=noise_ratio,
        timings={"selection_s": float(selection_s)},  # prune adds the graph build
        config=config.as_dict(),
        graph=None if state is None else _graph_stats(graph),
    )


def _graph_stats(graph: NeighborGraph) -> dict:
    """The graph block of report.json. Degrees count the self edge; the
    percentiles are nearest-rank, so each is a degree some row has."""
    degrees = graph.degrees()
    p50, p99 = np.percentile(degrees, [50, 99], method="inverted_cdf")
    return dict(
        edges=graph.num_edges, block_pairs=graph.block_pairs,
        block_pairs_skipped=graph.block_pairs_skipped,
        degree_min=int(degrees.min()), degree_p50=int(p50), degree_p99=int(p99),
        degree_max=int(degrees.max()), isolated_rows=int(np.count_nonzero(degrees == 1)),
        screen_survivors=graph.screen_survivors,
    )
