import json

import numpy as np
import pytest

from neighborprune.dataset import compute_confidence
from neighborprune.objective import Utility
from neighborprune.selectors import (
    PruneReport,
    SelectorConfig,
    greedy_sequence,
    resolve_budget,
    run_selection,
    select_by_score,
    select_kcenter_greedy,
    select_margin,
    select_moderate,
    select_uniform,
)
from neighborprune.similarity import build_graph

TINY_EMB = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TINY_CONF = np.array([0.9, 0.8, 0.7])
TINY_LABELS = np.array([0, 0, 1])


class TestBudget:
    def test_int_size(self):
        assert resolve_budget(3, 10) == 3

    def test_ratio_round_half_up(self):
        assert resolve_budget(0.25, 10) == 3  # 2.5 rounds up
        assert resolve_budget(0.2, 10) == 2
        assert resolve_budget(1.0, 7) == 7

    def test_zero_after_rounding_rejected(self):
        with pytest.raises(ValueError, match="empty subset"):
            resolve_budget(0.01, 10)

    def test_budget_above_m_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            resolve_budget(11, 10)

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="ratio"):
            resolve_budget(1.2, 10)


class TestGreedySelection:
    def test_first_pick_is_confidence_argmax(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(3, 30))
            emb = rng.standard_normal((m, 4))
            conf = rng.uniform(0, 1, m)
            graph = build_graph(emb, 0.4)
            seq = greedy_sequence(graph, conf, 1)
            assert seq[0] == int(np.argmax(conf))

    def test_worked_trace_selects_0_then_2(self):
        graph = build_graph(TINY_EMB, 0.5)
        seq = greedy_sequence(graph, TINY_CONF, 2)
        assert seq == [0, 2]

    def test_tau_one_equals_top_by_confidence(self):
        rng = np.random.default_rng(32)
        emb = rng.standard_normal((25, 5))
        conf = rng.uniform(0, 1, 25)
        graph = build_graph(emb, 1.0)
        seq = greedy_sequence(graph, conf, 10)
        assert seq == select_by_score(conf, 10, "descending")

    def test_lazy_matches_eager_both_modes(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m = int(rng.integers(10, 120))
            emb = rng.standard_normal((m, 6))
            conf = rng.uniform(0, 1, m)
            graph = build_graph(emb, float(rng.choice([0.3, 0.7])))
            s = int(rng.integers(1, m + 1))
            for mode in ("paper_faithful", "exact_marginal"):
                eager = greedy_sequence(graph, conf, s, gain_mode=mode, lazy=False)
                lazy = greedy_sequence(graph, conf, s, gain_mode=mode, lazy=True)
                assert eager == lazy

    def test_tie_break_prefers_lowest_index(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        conf = np.array([0.6, 0.6, 0.2])
        graph = build_graph(emb, 0.99)
        for lazy in (False, True):
            assert greedy_sequence(graph, conf, 1, lazy=lazy)[0] == 0

    def test_permuted_input_selects_same_set(self):
        rng = np.random.default_rng(34)
        m = 40
        emb = rng.standard_normal((m, 5))
        conf = rng.uniform(0, 1, m)
        graph = build_graph(emb, 0.3)
        base = set(greedy_sequence(graph, conf, 12))
        perm = rng.permutation(m)
        graph_p = build_graph(emb[perm], 0.3)
        seq_p = greedy_sequence(graph_p, conf[perm], 12)
        assert {int(perm[k]) for k in seq_p} == base

    def test_report_fields(self):
        graph = build_graph(TINY_EMB, 0.5)
        config = SelectorConfig(method="prune4rel", budget=2, tau=0.5)
        report = run_selection(
            config, noisy_labels=TINY_LABELS, confidence=TINY_CONF, graph=graph
        )
        assert report.selected == [0, 2]
        assert report.per_class_counts == [1, 1]
        assert report.noise_ratio is None
        # objective after {0, 2}: both duplicates carry 0.9, the isolated
        # example its own 0.7
        expected_obj = float(2 * np.tanh(0.9) + np.tanh(0.7))
        assert report.objective_value == pytest.approx(expected_obj, abs=1e-9)

    def test_graph_tau_mismatch_rejected(self):
        graph = build_graph(TINY_EMB, 0.5)
        config = SelectorConfig(method="prune4rel", budget=2, tau=0.7)
        with pytest.raises(ValueError, match="tau"):
            run_selection(
                config, noisy_labels=TINY_LABELS, confidence=TINY_CONF, graph=graph
            )

    @pytest.mark.parametrize("bad", [np.nan, -4.0, 2.5])
    def test_confidence_outside_unit_interval_rejected(self, bad):
        rng = np.random.default_rng(36)
        emb = rng.standard_normal((40, 4))
        conf = rng.uniform(0, 1, 40)
        conf[3] = bad
        graph = build_graph(emb, 0.4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            greedy_sequence(graph, conf, 5)
        config = SelectorConfig(method="prune4rel", budget=5, tau=0.4)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_selection(config, confidence=conf, graph=graph)

    def test_budget_beyond_m_rejected(self):
        graph = build_graph(TINY_EMB, 0.5)
        config = SelectorConfig(method="prune4rel", budget=4, tau=0.5)
        with pytest.raises(ValueError, match="exceeds"):
            run_selection(
                config, noisy_labels=TINY_LABELS, confidence=TINY_CONF, graph=graph
            )


class TestBalancedSelection:
    def balanced(self, labels, conf, s, num_classes):
        emb = np.random.default_rng(35).standard_normal((len(labels), 4))
        graph = build_graph(emb, 1.0)
        config = SelectorConfig(method="prune4rel_balanced", budget=s, tau=1.0)
        return run_selection(
            config, noisy_labels=labels, num_classes=num_classes, confidence=conf,
            graph=graph,
        )

    def test_even_split_two_classes(self):
        labels = [0, 1] * 6
        conf = np.random.default_rng(36).uniform(0, 1, 12)
        report = self.balanced(labels, conf, 6, 2)
        assert report.per_class_counts == [3, 3]

    def test_odd_budget_first_class_gets_extra(self):
        labels = [0, 0, 0, 1, 1, 1]
        conf = np.array([0.9, 0.1, 0.2, 0.8, 0.3, 0.4])
        report = self.balanced(labels, conf, 3, 2)
        assert report.per_class_counts == [2, 1]
        assert len(report.selected) == 3

    def test_exhausted_class_hand_trace(self):
        # tau=1 distinct rows: gains are each example's own confidence, so
        # the round-robin argmax order is fully hand-checkable.
        labels = [0, 0, 0, 0, 1]
        conf = np.array([0.5, 0.9, 0.8, 0.7, 0.6])
        report = self.balanced(labels, conf, 4, 2)
        assert report.selected == [1, 4, 2, 3]

    def test_early_return_at_exact_budget(self):
        labels = [0, 0, 1, 1, 1]
        conf = np.random.default_rng(37).uniform(0, 1, 5)
        report = self.balanced(labels, conf, 5, 2)
        assert len(report.selected) == 5
        assert sorted(report.selected) == [0, 1, 2, 3, 4]

    def test_balance_within_one_whenever_feasible(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            c = int(rng.integers(2, 5))
            per_class = int(rng.integers(4, 9))
            labels = np.repeat(np.arange(c), per_class)
            conf = rng.uniform(0, 1, c * per_class)
            s = int(rng.integers(1, c * per_class + 1))
            report = self.balanced(labels.tolist(), conf, s, c)
            counts = np.array(report.per_class_counts)
            if per_class >= int(np.ceil(s / c)):
                assert counts.max() - counts.min() <= 1


class TestUniform:
    def test_full_budget_returns_everything(self):
        assert sorted(select_uniform(6, 6, seed=1)) == list(range(6))

    def test_deterministic_per_seed(self):
        assert select_uniform(50, 10, seed=9) == select_uniform(50, 10, seed=9)
        assert select_uniform(50, 10, seed=9) != select_uniform(50, 10, seed=10)

    def test_single_example(self):
        assert select_uniform(1, 1, seed=0) == [0]

    def test_distinct_indices(self):
        picked = select_uniform(30, 20, seed=4)
        assert len(set(picked)) == 20


class TestScoreSelectors:
    def test_ascending_example(self):
        assert select_by_score([3.0, 1.0, 2.0], 2, "ascending") == [1, 2]

    def test_all_equal_scores_take_lowest_indices(self):
        assert select_by_score([5.0] * 6, 3, "ascending") == [0, 1, 2]
        assert select_by_score([5.0] * 6, 3, "descending") == [0, 1, 2]

    def test_full_budget_identity_set(self):
        assert sorted(select_by_score([2.0, 0.5, 1.0], 3, "descending")) == [0, 1, 2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="exceeds"):
            select_by_score([1.0, 2.0], 3, "ascending")


class TestMargin:
    def test_smaller_gap_first(self):
        probs = np.array([[0.9, 0.1], [0.6, 0.4]])
        assert select_margin(probs, 1) == [1]

    def test_uniform_rows_tie_break(self):
        probs = np.full((4, 2), 0.5)
        assert select_margin(probs, 2) == [0, 1]

    def test_full_budget(self):
        probs = np.array([[0.9, 0.1], [0.6, 0.4], [0.5, 0.5]])
        assert sorted(select_margin(probs, 3)) == [0, 1, 2]

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            select_margin(np.ones((3, 1)), 1)


class TestKCenter:
    def test_hand_trace_on_a_line(self):
        emb = np.array([[0.0], [1.0], [10.0]])
        assert select_kcenter_greedy(emb, 3, seed=0, first_center=0) == [0, 2, 1]

    def test_duplicate_center_never_chosen_early(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
        picked = select_kcenter_greedy(emb, 3, seed=0, first_center=0)
        assert 1 not in picked

    def test_full_budget_covers_all(self):
        emb = np.random.default_rng(39).standard_normal((7, 3))
        assert sorted(select_kcenter_greedy(emb, 7, seed=2)) == list(range(7))

    def test_deterministic_per_seed(self):
        emb = np.random.default_rng(40).standard_normal((25, 3))
        a = select_kcenter_greedy(emb, 10, seed=5)
        b = select_kcenter_greedy(emb, 10, seed=5)
        assert a == b


class TestModerate:
    def test_median_distance_point_ranked_first(self):
        emb = np.array([[0.0], [1.0], [5.0]])
        # centroid 2.0, distances (2, 1, 3), median 2: index 0 sits exactly
        # at the median distance.
        assert select_moderate(emb, [0, 0, 0], 1) == [0]

    def test_identical_points_tie_break(self):
        emb = np.zeros((5, 2)) + 1.0
        assert select_moderate(emb, [0] * 5, 3) == [0, 1, 2]

    def test_full_budget(self):
        emb = np.random.default_rng(41).standard_normal((8, 2))
        labels = [0, 1] * 4
        assert sorted(select_moderate(emb, labels, 8)) == list(range(8))

    def test_empty_class_rejected(self):
        emb = np.ones((3, 2))
        with pytest.raises(ValueError, match="class 1"):
            select_moderate(emb, [0, 0, 2], 3, num_classes=3)


class TestRunSelection:
    def test_missing_inputs_named(self):
        config = SelectorConfig(method="margin", budget=1)
        with pytest.raises(ValueError, match="probabilities"):
            run_selection(config, embeddings=np.eye(3))

    def test_small_loss_names_scores_alternative(self):
        config = SelectorConfig(method="small_loss", budget=1)
        with pytest.raises(ValueError, match=r"noisy_labels \(or scores\)"):
            run_selection(config, probabilities=np.array([[0.9, 0.1]]))

    def test_small_loss_from_probabilities(self):
        probs = np.array([[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]])
        config = SelectorConfig(method="small_loss", budget=1)
        report = run_selection(
            config, probabilities=probs, noisy_labels=np.array([0, 1, 0])
        )
        assert report.selected == [0]

    def test_report_json_contract(self):
        graph = build_graph(TINY_EMB, 0.5)
        conf = np.asarray(TINY_CONF)
        config = SelectorConfig(method="prune4rel", budget=2, tau=0.5)
        report = run_selection(
            config, noisy_labels=TINY_LABELS, confidence=conf, graph=graph
        )
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "selected_count",
            "objective_value",
            "per_class_counts",
            "noise_ratio",
            "timings",
            "config",
        ]
        assert list(payload["timings"]) == ["graph_build_s", "selection_s"]
        assert payload["selected_count"] == 2

    def test_noise_ratio_with_ground_truth(self):
        graph = build_graph(TINY_EMB, 0.5)
        config = SelectorConfig(method="prune4rel", budget=2, tau=0.5)
        report = run_selection(
            config,
            noisy_labels=TINY_LABELS,
            ground_truth_labels=[0, 1, 1],
            confidence=TINY_CONF,
            graph=graph,
        )
        # selected [0, 2]: neither is mislabeled
        assert report.noise_ratio == 0.0

    @pytest.mark.parametrize("method", ["small_loss", "forgetting", "grand", "ssp"])
    def test_score_direction(self, method):
        # small_loss keeps the smallest losses, the others the largest scores
        expected = [1, 0] if method == "small_loss" else [2, 0]
        config = SelectorConfig(method=method, budget=2)
        report = run_selection(config, scores=np.array([0.5, 0.1, 0.9]))
        assert report.selected == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        config = SelectorConfig(method="forgetting", budget=2)
        with pytest.raises(ValueError, match="finite"):
            run_selection(config, scores=np.array([0.5, bad, 0.9]))

    def test_balanced_label_out_of_range_rejected(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.1]])
        config = SelectorConfig(method="prune4rel_balanced", budget=2, tau=0.5)
        with pytest.raises(ValueError):
            run_selection(
                config,
                embeddings=emb,
                noisy_labels=[0, 3, 1, 0],
                num_classes=2,
                confidence=np.array([0.9, 0.8, 0.7, 0.6]),
                graph=build_graph(emb, 0.5),
            )

    def test_uniform_full_ratio(self):
        config = SelectorConfig(method="uniform", budget=1.0)
        report = run_selection(config, embeddings=np.eye(5))
        assert sorted(report.selected) == list(range(5))
        assert report.objective_value is None
        assert report.per_class_counts is None
