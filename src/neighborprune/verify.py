"""Verification layer: synthetic data, oracles, and property-probe drivers.

Houses the exhaustive brute-force optimum, the neighborhood-vote re-labeling
proxy, expansion/separation measurement, correlation reporting, and the
seeded Monte Carlo drivers behind the verification command and the
acceptance suite: the greedy approximation bound, monotonicity and
submodularity probes, lazy/eager equivalence, degenerate equivalences,
class balance, the qualitative correction-vs-confidence and
noise-ratio-vs-budget trends, and the scaling benchmark.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import compute_confidence
from .objective import SelectionState, Utility, confidence_values, marginal_gain_exact, total_objective
from .selectors import (
    SelectorConfig,
    greedy_sequence,
    run_selection,
    select_by_score,
    select_kcenter_greedy,
)
from .similarity import GuardError, NeighborGraph, build_graph

BRUTE_FORCE_SUBSET_CAP = 10**7

NOISE_MODELS = ("asymmetric_next_class", "symmetric")


# ---------------------------------------------------------------------------
# Synthetic data with expansion/separation structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Clustered unit-sphere data with injected label noise.

    within_class_concentration scales how tightly points hug their class
    center (higher = more within-class neighbors); between_class_separation
    in [0, 1] moves class centers from collapsed (0) to orthogonal (1,
    values above 1 are clamped). Clean examples draw confidence from the
    high-mean (mean, std) pair, flipped examples from the low-mean pair.
    """

    num_classes: int
    points_per_class: int
    embedding_dim: int
    within_class_concentration: float = 20.0
    between_class_separation: float = 0.9
    noise_rate: float = 0.2
    noise_model: str = "asymmetric_next_class"
    clean_confidence: tuple[float, float] = (0.9, 0.05)
    noisy_confidence: tuple[float, float] = (0.35, 0.1)
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.points_per_class < 1:
            raise ValueError("num_classes and points_per_class must be positive")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must lie in [0, 1)")
        if self.within_class_concentration <= 0.0:
            raise ValueError("within_class_concentration must be positive")
        if self.between_class_separation < 0.0:
            raise ValueError("between_class_separation must be >= 0")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.noise_model!r}")


@dataclass(frozen=True)
class SyntheticData:
    """Output of generate_synthetic; valid by construction."""

    embeddings: np.ndarray
    noisy_labels: np.ndarray
    ground_truth_labels: np.ndarray
    probabilities: np.ndarray
    num_classes: int


def generate_synthetic(config: SynthConfig) -> SyntheticData:
    """Sample the clustered dataset and inject exactly
    floor(noise_rate * points_per_class) label flips per class."""
    c = config.num_classes
    ppc = config.points_per_class
    d = config.embedding_dim
    if d < c + 1:
        raise ValueError(
            f"infeasible geometry: {c} separated class centers need "
            f"embedding_dim >= {c + 1}, got {d}"
        )
    rng = np.random.default_rng(config.seed)

    raw = rng.standard_normal((d, c + 1))
    ortho, _ = np.linalg.qr(raw)
    shared = ortho[:, 0]
    class_dirs = ortho[:, 1:].T
    b = min(config.between_class_separation, 1.0)
    centers = (1.0 - b) * shared[None, :] + b * class_dirs
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    m = c * ppc
    truth = np.repeat(np.arange(c, dtype=np.int64), ppc)
    points = config.within_class_concentration * centers[truth]
    points = points + rng.standard_normal((m, d))
    points /= np.linalg.norm(points, axis=1, keepdims=True)

    noisy = truth.copy()
    flips_per_class = int(np.floor(config.noise_rate * ppc))
    for j in range(c):
        if flips_per_class == 0:
            break
        picked = rng.choice(ppc, size=flips_per_class, replace=False) + j * ppc
        if config.noise_model == "asymmetric_next_class":
            noisy[picked] = (j + 1) % c
        else:
            offsets = rng.integers(1, c, size=flips_per_class)
            noisy[picked] = (j + offsets) % c

    flipped = noisy != truth
    clean_mean, clean_std = config.clean_confidence
    noisy_mean, noisy_std = config.noisy_confidence
    draws_clean = rng.normal(clean_mean, clean_std, size=m)
    draws_noisy = rng.normal(noisy_mean, noisy_std, size=m)
    floor = 1.0 / c
    conf = np.clip(np.where(flipped, draws_noisy, draws_clean), floor, 1.0)

    if c == 1:
        probs = np.ones((m, 1))
    else:
        probs = ((1.0 - conf) / (c - 1))[:, None] * np.ones((m, c))
        probs[np.arange(m), noisy] = conf

    return SyntheticData(points, noisy, truth, probs, c)


def measure_expansion_separation(
    ground_truth_labels, graph: NeighborGraph
) -> tuple[float, float]:
    """Mean non-self neighbor count, and mean fraction of non-self neighbors
    whose ground-truth class differs (isolated examples contribute 0)."""
    truth = np.asarray(ground_truth_labels, dtype=np.int64)
    m = graph.num_rows
    if truth.shape != (m,):
        raise ValueError(f"ground_truth_labels must be a length-{m} vector")
    degrees = graph.degrees()
    row_ids = np.repeat(np.arange(m), degrees)
    nonself = graph.indices != row_ids
    differs = truth[graph.indices] != truth[row_ids]
    others = degrees - 1
    diff_counts = np.bincount(row_ids[nonself & differs], minlength=m)
    fractions = np.where(others > 0, diff_counts / np.maximum(others, 1), 0.0)
    return float(others.mean()), float(fractions.mean())


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def brute_force_optimum(
    graph: NeighborGraph,
    confidence,
    s: int,
    utility: Utility,
    chunk: int = 2048,
) -> tuple[list[int], float]:
    """Exhaustive maximum of the objective over all size-s subsets.

    Ties go to the lexicographically smallest subset. Guarded at
    C(m, s) <= 10^7 enumerated subsets.
    """
    m = graph.num_rows
    if not 1 <= s <= m:
        raise ValueError(f"subset size {s} out of range for m={m}")
    total = math.comb(m, s)
    if total > BRUTE_FORCE_SUBSET_CAP:
        raise GuardError(
            f"C({m}, {s}) = {total} subsets exceeds the enumeration cap "
            f"{BRUTE_FORCE_SUBSET_CAP}"
        )
    conf = confidence_values(confidence)
    degrees = graph.degrees()
    row_ids = np.repeat(np.arange(m), degrees)
    contrib = np.zeros((m, m))
    # contrib[j] laid out so that rows index the *selected* example.
    contrib[graph.indices, row_ids] = graph.weights * conf[graph.indices]

    best_obj = -np.inf
    best: tuple[int, ...] | None = None
    combos = itertools.combinations(range(m), s)
    while True:
        block = np.array(list(itertools.islice(combos, chunk)), dtype=np.int64)
        if block.size == 0:
            break
        totals = contrib[block].sum(axis=1)
        objs = utility(totals).sum(axis=1)
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best = tuple(block[k])
    assert best is not None
    return [int(i) for i in best], best_obj


def relabel_proxy(
    noisy_labels, ground_truth_labels, graph: NeighborGraph, confidence, selected
) -> np.ndarray:
    """Neighborhood-vote label correction: every selected neighbor votes for
    its own noisy label with weight(i, k) * C(k); an example counts as
    corrected when the winning vote equals its ground-truth label. All-zero
    votes abstain (not corrected). Returns a boolean vector."""
    if graph.tau < 0.0:
        raise ValueError("the re-labeling proxy requires tau >= 0")
    conf = confidence_values(confidence)
    m = graph.num_rows
    noisy = np.asarray(noisy_labels, dtype=np.int64)
    truth = np.asarray(ground_truth_labels, dtype=np.int64)
    if noisy.shape != (m,) or truth.shape != (m,) or noisy.min() < 0:
        raise ValueError(f"label arrays must be length-{m} vectors of classes >= 0")
    votes = np.zeros((m, int(noisy.max()) + 1))
    for k in np.asarray(selected, dtype=np.int64):
        idx, w = graph.neighbors(int(k))
        votes[idx, noisy[k]] += w * conf[k]
    has_votes = votes.sum(axis=1) > 0.0
    predicted = np.argmax(votes, axis=1)
    return has_votes & (predicted == truth)


@dataclass
class CorrelationReport:
    """Equal-width binning of the confidence vector against correction."""

    bin_edges: np.ndarray
    counts: np.ndarray
    correction_rates: np.ndarray
    spearman: float

    def rows(self) -> list[tuple[float, float, int, float]]:
        return [
            (
                float(self.bin_edges[k]),
                float(self.bin_edges[k + 1]),
                int(self.counts[k]),
                float(self.correction_rates[k]),
            )
            for k in range(self.counts.size)
        ]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks."""
    rx = _average_ranks(np.asarray(x, dtype=np.float64))
    ry = _average_ranks(np.asarray(y, dtype=np.float64))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def correlation_report(
    nbr_conf: np.ndarray, corrected: np.ndarray, num_bins: int = 15
) -> CorrelationReport:
    """Per-bin correction rates plus the Spearman rank correlation.

    Constant inputs get correlation 0 by convention.
    """
    values = np.asarray(nbr_conf, dtype=np.float64)
    flags = np.asarray(corrected, dtype=bool)
    if values.size == 0 or values.size != flags.size:
        raise ValueError("need equal-length, nonempty inputs")
    if num_bins < 1:
        raise ValueError("num_bins must be positive")
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, num_bins + 1)
    which = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, num_bins - 1)
    counts = np.bincount(which, minlength=num_bins)
    hits = np.bincount(which, weights=flags.astype(np.float64), minlength=num_bins)
    with np.errstate(invalid="ignore"):
        rates = np.where(counts > 0, hits / np.maximum(counts, 1), np.nan)
    if np.all(values == values[0]) or np.all(flags == flags[0]):
        rho = 0.0
    else:
        rho = _spearman(values, flags)
    return CorrelationReport(
        bin_edges=edges, counts=counts, correction_rates=rates, spearman=rho
    )


def write_correlation_csv(path, report: CorrelationReport) -> None:
    lines = ["bin_lo,bin_hi,count,correction_rate"]
    for lo, hi, n, rate in report.rows():
        lines.append(f"{lo:.9g},{hi:.9g},{n},{rate:.9g}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Probe drivers
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


APPROX_FACTOR = 1.0 - 1.0 / math.e
PROBE_TOL = 1e-9
DEFAULT_TAUS = (0.3, 0.7, 0.95)


def _random_instance(
    rng: np.random.Generator,
    m_lo: int = 4,
    m_hi: int = 14,
    taus=DEFAULT_TAUS,
) -> tuple[NeighborGraph, np.ndarray]:
    m = int(rng.integers(m_lo, m_hi + 1))
    d = int(rng.integers(2, 9))
    emb = rng.standard_normal((m, d))
    conf = rng.uniform(0.0, 1.0, size=m)
    tau = float(taus[int(rng.integers(len(taus)))])
    return build_graph(emb, tau), conf


def check_greedy_bound(
    instances: int = 200,
    seed: int = 20240501,
    taus=DEFAULT_TAUS,
    m_hi: int = 14,
    s_hi: int = 7,
) -> CheckResult:
    """Greedy (exact-marginal gain) vs the brute-force optimum: the greedy
    objective must reach (1 - 1/e) of the optimum, minus float tolerance."""
    rng = np.random.default_rng(seed)
    utility = Utility("tanh")
    worst_margin = np.inf
    violations = 0
    for _ in range(instances):
        graph, conf = _random_instance(rng, m_hi=m_hi, taus=taus)
        m = graph.num_rows
        s = int(rng.integers(1, min(s_hi, m) + 1))
        selected = greedy_sequence(
            graph, conf, s, utility=utility, gain_mode="exact_marginal", lazy=True
        )
        state = SelectionState(graph, conf)
        for x in selected:
            state.add(x)
        greedy_obj = total_objective(state, utility)
        _, best_obj = brute_force_optimum(graph, conf, s, utility)
        margin = greedy_obj - APPROX_FACTOR * best_obj
        worst_margin = min(worst_margin, margin)
        if margin < -PROBE_TOL:
            violations += 1
    ok = violations == 0
    return CheckResult(
        name="greedy_approximation_bound",
        ok=ok,
        detail=(
            f"{instances} instances, worst margin over (1-1/e)*optimum "
            f"= {worst_margin:.3e}, violations beyond {PROBE_TOL:g}: {violations}"
        ),
        data={"worst_margin": worst_margin, "violations": violations},
    )


def _random_nested_subsets(rng, m: int) -> tuple[list[int], list[int], int]:
    perm = rng.permutation(m)
    small = int(rng.integers(0, m - 1))
    big = int(rng.integers(small, m - 1))
    s_small = perm[:small].tolist()
    s_big = perm[:big].tolist()
    x = int(perm[m - 1])
    return s_small, s_big, x


def check_monotonicity(probes: int = 500, seed: int = 20240502) -> CheckResult:
    """Adding any example never lowers the total objective."""
    rng = np.random.default_rng(seed)
    utility = Utility("tanh")
    violations = 0
    worst = 0.0
    for _ in range(probes):
        graph, conf = _random_instance(rng)
        subset, _, x = _random_nested_subsets(rng, graph.num_rows)
        state = SelectionState(graph, conf)
        for idx in subset:
            state.add(idx)
        before = total_objective(state, utility)
        state.add(x)
        after = total_objective(state, utility)
        drop = before - after
        worst = max(worst, drop)
        if drop > PROBE_TOL:
            violations += 1
    return CheckResult(
        name="monotonicity",
        ok=violations == 0,
        detail=f"{probes} probes, worst objective drop {worst:.3e}, "
        f"violations: {violations}",
        data={"worst_drop": worst, "violations": violations},
    )


def check_submodularity(probes: int = 500, seed: int = 20240503) -> CheckResult:
    """The exact marginal gain of any x shrinks as the subset grows."""
    rng = np.random.default_rng(seed)
    utility = Utility("tanh")
    violations = 0
    worst = 0.0
    for _ in range(probes):
        graph, conf = _random_instance(rng)
        s_small, s_big, x = _random_nested_subsets(rng, graph.num_rows)
        state_small = SelectionState(graph, conf)
        for idx in s_small:
            state_small.add(idx)
        state_big = SelectionState(graph, conf)
        for idx in s_big:
            state_big.add(idx)
        gain_small = marginal_gain_exact(state_small, x, utility)
        gain_big = marginal_gain_exact(state_big, x, utility)
        excess = gain_big - gain_small
        worst = max(worst, excess)
        if excess > PROBE_TOL:
            violations += 1
    return CheckResult(
        name="submodularity",
        ok=violations == 0,
        detail=f"{probes} probes, worst gain excess {worst:.3e}, "
        f"violations: {violations}",
        data={"worst_excess": worst, "violations": violations},
    )


def check_lazy_eager_equivalence(
    instances: int = 100, seed: int = 20240504, m_hi: int = 2000
) -> CheckResult:
    """Lazy and eager greedy must produce identical selection sequences for
    both gain modes."""
    rng = np.random.default_rng(seed)
    utility = Utility("tanh")
    mismatches = 0
    for k in range(instances):
        if k % 10 == 9:
            m = int(rng.integers(m_hi // 2, m_hi + 1))
            tau = float(rng.choice([0.7, 0.95]))
            d = 32
        else:
            m = int(rng.integers(20, 400))
            tau = float(rng.choice(DEFAULT_TAUS))
            d = int(rng.choice([8, 16, 32]))
        emb = rng.standard_normal((m, d))
        conf = rng.uniform(0.0, 1.0, size=m)
        graph = build_graph(emb, tau)
        s = int(rng.integers(1, min(m, 40) + 1))
        for gain_mode in ("paper_faithful", "exact_marginal"):
            eager = greedy_sequence(
                graph, conf, s, utility=utility, gain_mode=gain_mode, lazy=False
            )
            lazy = greedy_sequence(
                graph, conf, s, utility=utility, gain_mode=gain_mode, lazy=True
            )
            if eager != lazy:
                mismatches += 1
    return CheckResult(
        name="lazy_eager_equivalence",
        ok=mismatches == 0,
        detail=f"{instances} instances x 2 gain modes, sequence mismatches: "
        f"{mismatches}",
        data={"mismatches": mismatches},
    )


def check_degenerate_equivalences(
    instances: int = 100, seed: int = 20240505
) -> CheckResult:
    """At tau = 1 with distinct (non-parallel) embeddings the greedy
    selection must equal top-s by confidence, and its first pick must always
    be the confidence argmax."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(instances):
        m = int(rng.integers(5, 60))
        emb = rng.standard_normal((m, int(rng.integers(2, 9))))
        conf = rng.uniform(0.0, 1.0, size=m)
        graph = build_graph(emb, 1.0)
        s = int(rng.integers(1, m + 1))
        selected = greedy_sequence(graph, conf, s)
        expected = select_by_score(conf, s, "descending")
        if selected != expected or selected[0] != int(np.argmax(conf)):
            failures += 1
    return CheckResult(
        name="degenerate_equivalences",
        ok=failures == 0,
        detail=f"{instances} instances at tau=1.0, failures: {failures}",
        data={"failures": failures},
    )


def check_class_balance(instances: int = 50, seed: int = 20240506) -> CheckResult:
    """Class-balanced greedy: subset size exactly s always; per-class counts
    within 1 of each other whenever every class can supply its share."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(instances):
        c = int(rng.integers(2, 6))
        per_class = int(rng.integers(3, 12))
        m = c * per_class
        emb = rng.standard_normal((m, int(rng.integers(2, 9))))
        conf = rng.uniform(0.0, 1.0, size=m)
        labels = np.repeat(np.arange(c), per_class)
        tau = float(rng.choice(DEFAULT_TAUS))
        graph = build_graph(emb, tau)
        s = int(rng.integers(1, m + 1))
        selected = greedy_sequence(
            graph, conf, s, class_labels=labels, num_classes=c
        )
        if len(selected) != s or len(set(selected)) != s:
            failures += 1
            continue
        counts = np.bincount(labels[selected], minlength=c)
        feasible = per_class >= math.ceil(s / c)
        if feasible and counts.max() - counts.min() > 1:
            failures += 1
    return CheckResult(
        name="class_balance",
        ok=failures == 0,
        detail=f"{instances} instances, failures: {failures}",
        data={"failures": failures},
    )


# ---------------------------------------------------------------------------
# Qualitative trend drivers
# ---------------------------------------------------------------------------

TREND_SYNTH = dict(
    num_classes=10,
    points_per_class=500,
    embedding_dim=32,
    within_class_concentration=25.0,
    between_class_separation=0.9,
    noise_rate=0.2,
    noise_model="asymmetric_next_class",
)
# Calibrated so neighborhood degree varies across the blob (tail examples
# sparsely connected): the correction gradient needs both extremes.
TREND_TAU = 0.9725


def trend_correction_correlation(
    seed: int = 20240507,
    budget: float = 0.2,
    tau: float = TREND_TAU,
    num_bins: int = 15,
    bottom_bins: int = 10,
) -> CheckResult:
    """On clustered noisy data, proxy-corrected examples must concentrate at
    high neighborhood confidence: Spearman rho above 0.5, correction rate
    non-decreasing across the bottom bins, and a higher mean confidence for
    corrected than uncorrected examples."""
    data = generate_synthetic(SynthConfig(seed=seed, **TREND_SYNTH))
    conf = compute_confidence(data.probabilities, "max_prob")
    graph = build_graph(data.embeddings, tau)
    config = SelectorConfig(method="prune4rel", budget=budget, tau=tau)
    report = run_selection(config, confidence=conf, graph=graph)

    state = SelectionState(graph, conf)
    for x in report.selected:
        state.add(x)
    corrected = relabel_proxy(
        data.noisy_labels, data.ground_truth_labels, graph, conf, report.selected
    )
    corr = correlation_report(state.nbr_conf, corrected, num_bins)

    mean_corrected = float(state.nbr_conf[corrected].mean()) if corrected.any() else 0.0
    uncorrected = ~corrected
    mean_uncorrected = (
        float(state.nbr_conf[uncorrected].mean()) if uncorrected.any() else 0.0
    )

    rates = corr.correction_rates[:bottom_bins]
    filled = rates[~np.isnan(rates)]
    nondecreasing = bool(np.all(np.diff(filled) >= 0.0))
    ok = (
        corr.spearman > 0.5
        and nondecreasing
        and mean_corrected > mean_uncorrected
    )
    return CheckResult(
        name="correction_confidence_trend",
        ok=ok,
        detail=(
            f"spearman={corr.spearman:.3f} (need > 0.5), bottom-{bottom_bins} "
            f"bin rates non-decreasing: {nondecreasing}, mean conf "
            f"corrected/uncorrected = {mean_corrected:.3f}/{mean_uncorrected:.3f}"
        ),
        data={
            "spearman": corr.spearman,
            "rates": corr.correction_rates.tolist(),
            "counts": corr.counts.tolist(),
            "mean_corrected": mean_corrected,
            "mean_uncorrected": mean_uncorrected,
            "report": corr,
        },
    )


def trend_subset_noise_ratio(
    seed: int = 20240508,
    ratios=(0.2, 0.4, 0.6, 0.8),
    tau: float = TREND_TAU,
) -> CheckResult:
    """The selected subset's noise ratio must grow with the budget and sit
    below the population noise rate at the smallest budget."""
    data = generate_synthetic(SynthConfig(seed=seed, **TREND_SYNTH))
    conf = compute_confidence(data.probabilities, "max_prob")
    graph = build_graph(data.embeddings, tau)
    population = float(np.mean(data.noisy_labels != data.ground_truth_labels))
    observed = []
    for ratio in ratios:
        config = SelectorConfig(method="prune4rel", budget=float(ratio), tau=tau)
        report = run_selection(
            config,
            noisy_labels=data.noisy_labels,
            ground_truth_labels=data.ground_truth_labels,
            confidence=conf,
            graph=graph,
        )
        observed.append(report.noise_ratio)
    nondecreasing = all(b >= a for a, b in zip(observed, observed[1:]))
    ok = nondecreasing and observed[0] < population
    return CheckResult(
        name="subset_noise_ratio_trend",
        ok=ok,
        detail=(
            f"noise ratios {[round(v, 4) for v in observed]} over budgets "
            f"{list(ratios)}, population {population:.3f}"
        ),
        data={"ratios": list(ratios), "observed": observed, "population": population},
    )


# ---------------------------------------------------------------------------
# Scaling benchmark
# ---------------------------------------------------------------------------

SCALING_METHODS = ("prune4rel", "kcenter_greedy")


def run_scaling_benchmark(
    m_list,
    d: int = 32,
    ratio: float = 0.5,
    repeat: int = 1,
    seed: int = 20240509,
    tau: float = 0.5,
    methods=SCALING_METHODS,
) -> list[dict]:
    """Selection-phase seconds per (m, method); best of `repeat` runs.

    The confidence greedy runs eagerly so the measured per-step cost is the
    full candidate scan plus the neighborhood update, which is the cost model
    the near-linear claim is about; graph build time is excluded from the
    reported seconds (it is a one-off, and the claim is per selection step).
    """
    rows = []
    for m in m_list:
        rng = np.random.default_rng(seed + int(m))
        emb = rng.standard_normal((int(m), d))
        conf = rng.uniform(0.0, 1.0, size=int(m))
        s = int(np.floor(ratio * int(m) + 0.5))
        for method in methods:
            if method == "prune4rel":
                graph = build_graph(emb, tau)
                run = partial(greedy_sequence, graph, conf, s, lazy=False)
            elif method == "kcenter_greedy":
                run = partial(select_kcenter_greedy, emb, s, seed=seed)
            else:
                raise ValueError(f"benchmark does not cover method {method!r}")
            best = np.inf
            for _ in range(max(1, repeat)):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            rows.append(
                {"m": int(m), "method": method, "seconds": float(best), "s": s}
            )
    return rows


def scaling_slopes(rows: list[dict]) -> dict:
    """Log-log slopes from benchmark rows: per-selection-step seconds for the
    confidence greedy, total seconds for kcenter."""
    out = {}
    by_method: dict[str, list[tuple[int, float, int]]] = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(
            (row["m"], row["seconds"], row["s"])
        )
    for method, triples in by_method.items():
        triples.sort()
        ms = np.array([t[0] for t in triples], dtype=np.float64)
        secs = np.array([t[1] for t in triples], dtype=np.float64)
        if method == "prune4rel":
            secs = secs / np.array([t[2] for t in triples], dtype=np.float64)
        slope = float(np.polyfit(np.log(ms), np.log(secs), 1)[0])
        out[method] = slope
    return out
