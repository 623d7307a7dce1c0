import math

import numpy as np
import pytest

from neighborprune.dataset import compute_confidence
from neighborprune.objective import SelectionState, Utility, total_objective
from neighborprune.similarity import GuardError, build_graph
from neighborprune.verify import (
    SynthConfig,
    brute_force_optimum,
    check_class_balance,
    check_degenerate_equivalences,
    check_greedy_bound,
    check_lazy_eager_equivalence,
    check_monotonicity,
    check_submodularity,
    correlation_report,
    generate_synthetic,
    relabel_proxy,
    trend_correction_correlation,
    trend_subset_noise_ratio,
)

from scaling import SCALING_METHODS, run_scaling_benchmark, scaling_slopes

TINY_EMB = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TINY_CONF = np.array([0.9, 0.8, 0.7])


class TestSyntheticGenerator:
    def test_zero_noise_labels_match(self):
        ds = generate_synthetic(
            SynthConfig(num_classes=4, points_per_class=20, embedding_dim=8,
                        noise_rate=0.0, seed=1)
        )
        np.testing.assert_array_equal(ds.noisy_labels, ds.ground_truth_labels)

    def test_exact_flip_counts_to_next_class(self):
        ds = generate_synthetic(
            SynthConfig(num_classes=10, points_per_class=100, embedding_dim=16,
                        noise_rate=0.2, seed=2)
        )
        flipped = ds.noisy_labels != ds.ground_truth_labels
        assert int(flipped.sum()) == 200
        for j in range(10):
            members = ds.ground_truth_labels == j
            flips = flipped & members
            assert int(flips.sum()) == 20
            assert np.all(ds.noisy_labels[flips] == (j + 1) % 10)

    def test_realized_noise_rate_close_to_target(self):
        config = SynthConfig(num_classes=5, points_per_class=200, embedding_dim=8,
                             noise_rate=0.3, seed=3)
        ds = generate_synthetic(config)
        realized = float(np.mean(ds.noisy_labels != ds.ground_truth_labels))
        assert abs(realized - 0.3) <= 2.0 / math.sqrt(len(ds.noisy_labels))

    def test_symmetric_noise_stays_in_range(self):
        ds = generate_synthetic(
            SynthConfig(num_classes=6, points_per_class=50, embedding_dim=8,
                        noise_rate=0.4, noise_model="symmetric", seed=4)
        )
        flipped = ds.noisy_labels != ds.ground_truth_labels
        assert flipped.sum() == 6 * 20
        assert np.all(ds.noisy_labels < 6)

    def test_collapse_limit(self):
        # separation 0, huge concentration: everything lands on one blob.
        ds = generate_synthetic(
            SynthConfig(num_classes=3, points_per_class=10, embedding_dim=8,
                        within_class_concentration=1e6,
                        between_class_separation=0.0, noise_rate=0.0, seed=5)
        )
        sims = ds.embeddings @ ds.embeddings.T
        assert sims.min() > 0.999

    def test_high_separation_separates_classes(self):
        ds = generate_synthetic(
            SynthConfig(num_classes=3, points_per_class=30, embedding_dim=8,
                        within_class_concentration=50.0,
                        between_class_separation=1.0, noise_rate=0.0, seed=6)
        )
        a = ds.embeddings[:30]
        b = ds.embeddings[30:60]
        within = (a @ a.T)[np.triu_indices(30, 1)].mean()
        across = (a @ b.T).mean()
        assert within > 0.9
        assert abs(across) < 0.2

    def test_infeasible_geometry_rejected(self):
        with pytest.raises(ValueError, match="infeasible geometry"):
            generate_synthetic(
                SynthConfig(num_classes=10, points_per_class=5, embedding_dim=4)
            )

    def test_max_prob_recovers_drawn_confidence(self):
        ds = generate_synthetic(
            SynthConfig(num_classes=5, points_per_class=40, embedding_dim=8,
                        noise_rate=0.2, seed=7)
        )
        conf = compute_confidence(ds.probabilities, "max_prob")
        flipped = ds.noisy_labels != ds.ground_truth_labels
        assert conf[~flipped].mean() > conf[flipped].mean() + 0.3


class TestExpansionSeparation:
    def test_more_separation_never_raises_beta(self):
        betas = []
        for sep in (0.2, 0.5, 0.8, 1.0):
            ds = generate_synthetic(
                SynthConfig(num_classes=4, points_per_class=40, embedding_dim=8,
                            within_class_concentration=8.0,
                            between_class_separation=sep, noise_rate=0.0, seed=9)
            )
            graph = build_graph(ds.embeddings, 0.6)
            # Mean share of a row's non-self neighbors whose class differs
            # (0 for a row with no other neighbor).
            truth, others = ds.ground_truth_labels, graph.degrees() - 1
            rows = np.repeat(np.arange(graph.num_rows), graph.degrees())
            differs = np.bincount(rows, weights=truth[graph.indices] != truth[rows],
                                  minlength=graph.num_rows)
            betas.append(np.mean(np.where(others > 0, differs / np.maximum(others, 1), 0)))
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))


class TestBruteForce:
    def test_full_budget_returns_everything(self):
        graph = build_graph(TINY_EMB, 0.5)
        best, _ = brute_force_optimum(graph, TINY_CONF, 3, Utility("tanh"))
        assert best == [0, 1, 2]

    def test_single_pick_degenerate_graph_is_argmax_confidence(self):
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((8, 3))
        conf = rng.uniform(0, 1, 8)
        graph = build_graph(emb, 1.0)
        best, _ = brute_force_optimum(graph, conf, 1, Utility("tanh"))
        assert best == [int(np.argmax(conf))]

    def test_tiny_instance_pairs(self):
        graph = build_graph(TINY_EMB, 0.5)
        util = Utility("tanh")
        best, best_obj = brute_force_optimum(graph, TINY_CONF, 2, util)
        # exhaustive oracle over the three pairs
        expected = {
            (0, 1): 2 * np.tanh(0.9 + 0.8),
            (0, 2): 2 * np.tanh(0.9) + np.tanh(0.7),
            (1, 2): 2 * np.tanh(0.8) + np.tanh(0.7),
        }
        top = max(expected, key=expected.get)
        assert tuple(best) == top
        assert best_obj == pytest.approx(expected[top], abs=1e-12)

    def test_matches_state_objective(self):
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((7, 3))
        conf = rng.uniform(0, 1, 7)
        graph = build_graph(emb, 0.3)
        util = Utility("tanh")
        best, best_obj = brute_force_optimum(graph, conf, 3, util)
        state = SelectionState(graph, conf)
        for x in best:
            state.add(x)
        assert best_obj == pytest.approx(total_objective(state, util), abs=1e-9)

    def test_guard_trips_on_large_instances(self):
        emb = np.random.default_rng(12).standard_normal((80, 3))
        graph = build_graph(emb, 0.5)
        with pytest.raises(GuardError, match="enumeration cap"):
            brute_force_optimum(graph, np.ones(80) * 0.5, 30, Utility("tanh"))


class TestRelabelProxy:
    def test_clean_same_class_neighbor_corrects(self):
        graph = build_graph(TINY_EMB, 0.5)
        corrected = relabel_proxy([0, 0, 1], [0, 0, 1], graph, TINY_CONF, [1])
        assert corrected[0]

    def test_no_selected_neighbors_abstains(self):
        graph = build_graph(TINY_EMB, 0.5)
        corrected = relabel_proxy([0, 0, 1], [0, 0, 1], graph, TINY_CONF, [0, 1])
        assert not corrected[2]

    def test_weighted_majority_wins(self):
        # i=0 has two selected voters: weight*conf 0.9*0.9 for class 1 vs
        # 0.6*0.5 for class 2.
        emb = np.array(
            [
                [1.0, 0.0],
                [0.9, np.sqrt(1 - 0.81)],
                [0.6, np.sqrt(1 - 0.36)],
            ]
        )
        graph = build_graph(emb, 0.5)
        conf = np.array([0.1, 0.9, 0.5])
        corrected = relabel_proxy([0, 1, 2], [1, 1, 2], graph, conf, [1, 2])
        assert corrected[0]

    @pytest.mark.parametrize(
        "noisy, truth",
        [([0, -1, 1], [0, 0, 1]), ([0, 0, 1, 1], [0, 0, 1]), ([0, 0, 1], [0, 1])],
    )
    def test_bad_label_arrays_rejected(self, noisy, truth):
        graph = build_graph(TINY_EMB, 0.5)
        with pytest.raises(ValueError, match="label arrays"):
            relabel_proxy(noisy, truth, graph, TINY_CONF, [1])


class TestCorrelationReport:
    def test_perfectly_monotone_relationship(self):
        # Tie-free monotone case reaches exactly 1.0.
        report = correlation_report(
            np.array([0.1, 0.9]), np.array([False, True]), 2
        )
        assert report.spearman == pytest.approx(1.0)
        # With a tied boolean outcome the maximum is below 1 but a perfect
        # threshold relationship still ranks near the top.
        values = np.linspace(0, 1, 100)
        report = correlation_report(values, values > 0.5, 10)
        assert report.spearman > 0.85

    def test_constant_inputs_zero_by_convention(self):
        report = correlation_report(np.ones(50), np.zeros(50, dtype=bool), 5)
        assert report.spearman == 0.0
        report = correlation_report(np.linspace(0, 1, 50), np.ones(50, dtype=bool), 5)
        assert report.spearman == 0.0

    def test_random_pairing_low_correlation(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(0, 1, 1000)
        corrected = rng.uniform(0, 1, 1000) > 0.5
        report = correlation_report(values, corrected, 15)
        assert abs(report.spearman) < 0.2

    def test_bin_counts_partition_everything(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(0, 5, 300)
        corrected = rng.uniform(0, 1, 300) > 0.3
        report = correlation_report(values, corrected, 15)
        assert report.counts.sum() == 300
        assert len(report.rows()) == 15

    def test_ties_take_average_ranks(self):
        # ranks (1, 2.5, 2.5, 4) against (1.5, 3.5, 1.5, 3.5): rho = 1/sqrt(2)
        report = correlation_report(
            [0.1, 0.2, 0.2, 0.9], [False, True, False, True], 2
        )
        assert abs(report.spearman - 1 / math.sqrt(2)) <= 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            correlation_report(np.array([]), np.array([]), 5)


class TestProbeDrivers:
    def test_bound_check_smoke(self):
        result = check_greedy_bound(instances=25, seed=100)
        assert result.ok, result.detail

    def test_monotonicity_smoke(self):
        result = check_monotonicity(probes=60, seed=101)
        assert result.ok, result.detail

    def test_submodularity_smoke(self):
        result = check_submodularity(probes=60, seed=102)
        assert result.ok, result.detail

    def test_lazy_eager_smoke(self):
        result = check_lazy_eager_equivalence(instances=12, seed=103)
        assert result.ok, result.detail

    def test_degenerate_smoke(self):
        result = check_degenerate_equivalences(instances=20, seed=104)
        assert result.ok, result.detail

    def test_class_balance_smoke(self):
        result = check_class_balance(instances=15, seed=105)
        assert result.ok, result.detail

    def test_benchmark_rows_and_slopes(self):
        rows = run_scaling_benchmark([300, 600], d=8, ratio=0.5, repeat=1, seed=106,
                                     tau=0.5, methods=SCALING_METHODS)
        assert len(rows) == 4
        slopes = scaling_slopes(rows)
        assert set(slopes) == {"prune4rel", "kcenter_greedy"}


class TestTrendValues:
    # Recorded before the trend drivers moved onto run_selection; the
    # acceptance criteria check only the direction of these trends.
    def test_subset_noise_ratio_values(self):
        observed = trend_subset_noise_ratio().data["observed"]
        assert observed == [0.0, 0.1115, 0.17433333333333334, 0.19575]

    def test_correction_correlation_value(self):
        spearman = trend_correction_correlation().data["spearman"]
        assert abs(spearman - 0.7535430850605959) <= 1e-12
