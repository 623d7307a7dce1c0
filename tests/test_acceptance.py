"""Acceptance suite: one test per release criterion.

Each test enforces its criterion at the stated tolerance and prints one
PASS line (run pytest with -s or check captured output); a failed assertion
is the FAIL line. The heavyweight scaling check (criterion 9) runs within
its stated ten-minute budget.
"""

import time

import numpy as np
import pytest

from neighborprune.cli import main
from neighborprune.dataset import save_scores
from neighborprune.objective import SelectionState, Utility, marginal_gain_paper
from neighborprune.selectors import greedy_sequence, load_selected
from neighborprune.similarity import build_graph
from neighborprune.verify import (
    check_class_balance,
    check_degenerate_equivalences,
    check_greedy_bound,
    check_lazy_eager_equivalence,
    check_monotonicity,
    check_submodularity,
    run_scaling_benchmark,
    scaling_slopes,
    trend_correction_correlation,
    trend_subset_noise_ratio,
)


def test_criterion_01_approximation_bound():
    start = time.perf_counter()
    result = check_greedy_bound(instances=200, taus=(0.3, 0.7, 0.95), m_hi=14, s_hi=7)
    elapsed = time.perf_counter() - start
    assert result.data["violations"] == 0, result.detail
    assert result.data["worst_margin"] >= -1e-9
    assert elapsed < 60.0
    print(f"PASS criterion 1 (approximation bound): {result.detail} [{elapsed:.1f}s]")


def test_criterion_02_monotonicity_and_submodularity():
    start = time.perf_counter()
    mono = check_monotonicity(probes=500)
    sub = check_submodularity(probes=500)
    elapsed = time.perf_counter() - start
    assert mono.data["violations"] == 0, mono.detail
    assert sub.data["violations"] == 0, sub.detail
    assert elapsed < 30.0
    print(
        f"PASS criterion 2 (monotonicity & submodularity): {mono.detail}; "
        f"{sub.detail} [{elapsed:.1f}s]"
    )


def test_criterion_03_hand_traced_selection():
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    conf = np.array([0.9, 0.8, 0.7])
    graph = build_graph(emb, 0.5)
    util = Utility("tanh")

    selected = greedy_sequence(graph, conf, 2, utility=util,
                               gain_mode="paper_faithful")
    assert selected == [0, 2]

    state = SelectionState(graph, conf)
    state.add(0)
    gain_1 = marginal_gain_paper(state, 1, util)
    gain_2 = marginal_gain_paper(state, 2, util)
    assert gain_1 == pytest.approx(float(np.tanh(0.9 + 0.8) - np.tanh(0.9)), abs=1e-12)
    assert gain_2 == pytest.approx(float(np.tanh(0.7)), abs=1e-12)
    assert gain_2 > gain_1
    print(
        f"PASS criterion 3 (hand trace): selected [0, 2], step-2 gains "
        f"{gain_1:.5f} vs {gain_2:.5f}"
    )


def test_criterion_04_lazy_equals_eager():
    start = time.perf_counter()
    result = check_lazy_eager_equivalence(instances=100, m_hi=2000)
    elapsed = time.perf_counter() - start
    assert result.data["mismatches"] == 0, result.detail
    assert elapsed < 120.0
    print(f"PASS criterion 4 (lazy = eager): {result.detail} [{elapsed:.1f}s]")


def test_criterion_05_degenerate_equivalences():
    result = check_degenerate_equivalences(instances=100)
    assert result.data["failures"] == 0, result.detail
    print(f"PASS criterion 5 (degenerate equivalences): {result.detail}")


def test_criterion_06_class_balance():
    result = check_class_balance(instances=50)
    assert result.data["failures"] == 0, result.detail
    print(f"PASS criterion 6 (class balance): {result.detail}")


def test_criterion_07_correction_confidence_trend():
    start = time.perf_counter()
    result = trend_correction_correlation(budget=0.2)
    elapsed = time.perf_counter() - start
    assert result.data["spearman"] > 0.5, result.detail
    rates = np.asarray(result.data["rates"][:10])
    filled = rates[~np.isnan(rates)]
    assert np.all(np.diff(filled) >= 0.0), result.detail
    assert result.data["mean_corrected"] > result.data["mean_uncorrected"]
    assert elapsed < 120.0
    print(f"PASS criterion 7 (correction trend): {result.detail} [{elapsed:.1f}s]")


def test_criterion_08_subset_noise_ratio_trend():
    result = trend_subset_noise_ratio(ratios=(0.2, 0.4, 0.6, 0.8))
    observed = result.data["observed"]
    assert all(b >= a for a, b in zip(observed, observed[1:])), result.detail
    assert observed[0] < result.data["population"], result.detail
    print(f"PASS criterion 8 (noise-ratio trend): {result.detail}")


def test_criterion_09_scaling():
    start = time.perf_counter()
    rows = run_scaling_benchmark(
        [10_000, 20_000, 40_000], d=32, ratio=0.5, repeat=1
    )
    elapsed = time.perf_counter() - start
    slopes = scaling_slopes(rows)
    assert 0.8 <= slopes["prune4rel"] <= 1.3, slopes
    assert slopes["kcenter_greedy"] > 1.3, slopes
    assert elapsed < 600.0
    print(
        f"PASS criterion 9 (scaling): per-step slope "
        f"{slopes['prune4rel']:.2f} in [0.8, 1.3], kcenter total slope "
        f"{slopes['kcenter_greedy']:.2f} superlinear [{elapsed:.1f}s]"
    )


METHOD_MATRIX = [
    ("prune4rel", ["--tau", "0.9"]),
    ("prune4rel_balanced", ["--tau", "0.9"]),
    ("uniform", []),
    ("small_loss", []),
    ("margin", []),
    ("kcenter_greedy", []),
    ("forgetting", ["--scores"]),
    ("grand", ["--scores"]),
    ("moderate", []),
    ("ssp", ["--scores"]),
]


def test_criterion_10_byte_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(
        ["synth", "--classes", "5", "--per-class", "40", "--dim", "8",
         "--noise", "0.2", "--seed", "3", "--out", str(data)]
    ) == 0
    scores_path = tmp_path / "scores.txt"
    save_scores(scores_path, np.random.default_rng(99).uniform(0, 1, 200))

    for method, extra in METHOD_MATRIX:
        if extra and extra[-1] == "--scores":
            extra = extra + [str(scores_path)]
        blobs = []
        runs = [("a", "1"), ("b", "1"), ("c", "1"), ("d", "4")]
        for tag, threads in runs:
            out = tmp_path / f"{method}_{tag}"
            code = main(
                [
                    "prune",
                    "--embeddings", str(data / "embeddings.bin"),
                    "--probs", str(data / "probabilities.bin"),
                    "--labels", str(data / "noisy_labels.txt"),
                    "--method", method,
                    "--ratio", "0.3",
                    "--seed", "13",
                    "--threads", threads,
                    "--out", str(out),
                    *extra,
                ]
            )
            assert code == 0, method
            blobs.append((out / "selected.txt").read_bytes())
        assert all(blob == blobs[0] for blob in blobs), method
        assert load_selected(tmp_path / f"{method}_a" / "selected.txt").size == 60
    print(
        "PASS criterion 10 (determinism): byte-identical selected.txt across "
        f"3 runs and thread counts 1/4 for all {len(METHOD_MATRIX)} methods"
    )
