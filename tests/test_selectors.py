import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neighborprune import selectors
from neighborprune.objective import Utility
from neighborprune.selectors import (
    SelectorConfig,
    resolve_budget,
    run_selection,
    select_by_score,
    select_kcenter_greedy,
    select_margin,
    select_moderate,
    select_uniform,
)
from neighborprune.similarity import build_graph

from greedy_reference import heap_greedy, scan_greedy

TINY_EMB = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TINY_CONF = np.array([0.9, 0.8, 0.7])
TINY_LABELS = np.array([0, 0, 1])


def greedy(graph, conf, s, labels=None, **config):
    """The selection sequence of a prune4rel run_selection on graph and conf,
    or of prune4rel_balanced when labels are given."""
    method = "prune4rel" if labels is None else "prune4rel_balanced"
    config = SelectorConfig(method, s, **config)
    return run_selection(
        config, noisy_labels=labels, confidence=conf, graph=graph
    ).selected


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


# Every selector, called with m = 6 examples and budget s.
BUDGET_SELECTORS = {
    "uniform": lambda s: select_uniform(6, s, seed=0),
    "by_score": lambda s: select_by_score(np.arange(6.0), s, "ascending"),
    "margin": lambda s: select_margin(np.full((6, 2), 0.5), s),
    "kcenter_greedy": lambda s: select_kcenter_greedy(np.eye(6), s, seed=0),
    "moderate": lambda s: select_moderate(np.eye(6), [0, 1] * 3, s),
    "prune4rel": lambda s: greedy(build_graph(np.eye(6), 0.5), np.full(6, 0.5), s),
}


class TestSelectorBudgets:
    """Each selector reads its budget with resolve_budget: 1 <= s <= m."""

    @pytest.mark.parametrize("name", BUDGET_SELECTORS)
    @pytest.mark.parametrize("s", [0, -1, 7])
    def test_size_outside_one_to_m_rejected(self, name, s):
        with pytest.raises(ValueError, match="empty subset|exceeds"):
            BUDGET_SELECTORS[name](s)

    @pytest.mark.parametrize("name", BUDGET_SELECTORS)
    def test_size_m_selects_everything(self, name):
        assert sorted(BUDGET_SELECTORS[name](6)) == list(range(6))

    def test_greedy_rejects_before_selecting(self, monkeypatch):
        import neighborprune.selectors as selectors_mod

        def refuse(*args, **kwargs):
            raise AssertionError("greedy loop started")

        monkeypatch.setattr(selectors_mod, "_greedy_core", refuse)
        with pytest.raises(ValueError, match="exceeds"):
            BUDGET_SELECTORS["prune4rel"](7)


class TestGreedySelection:
    def test_first_pick_is_confidence_argmax(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(3, 30))
            emb = rng.standard_normal((m, 4))
            conf = rng.uniform(0, 1, m)
            graph = build_graph(emb, 0.4)
            seq = greedy(graph, conf, 1)
            assert seq[0] == int(np.argmax(conf))

    def test_worked_trace_selects_0_then_2(self):
        graph = build_graph(TINY_EMB, 0.5)
        seq = greedy(graph, TINY_CONF, 2)
        assert seq == [0, 2]

    def test_tau_one_equals_top_by_confidence(self):
        rng = np.random.default_rng(32)
        emb = rng.standard_normal((25, 5))
        conf = rng.uniform(0, 1, 25)
        graph = build_graph(emb, 1.0)
        seq = greedy(graph, conf, 10)
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
                eager = greedy(graph, conf, s, gain_mode=mode, lazy=False)
                lazy = greedy(graph, conf, s, gain_mode=mode, lazy=True)
                assert eager == lazy

    def test_tie_break_prefers_lowest_index(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        conf = np.array([0.6, 0.6, 0.2])
        graph = build_graph(emb, 0.99)
        for lazy in (False, True):
            assert greedy(graph, conf, 1, lazy=lazy)[0] == 0

    def test_permuted_input_selects_same_set(self):
        rng = np.random.default_rng(34)
        m = 40
        emb = rng.standard_normal((m, 5))
        conf = rng.uniform(0, 1, m)
        graph = build_graph(emb, 0.3)
        base = set(greedy(graph, conf, 12))
        perm = rng.permutation(m)
        graph_p = build_graph(emb[perm], 0.3)
        seq_p = greedy(graph_p, conf[perm], 12)
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
            greedy(graph, conf, 5)
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


def saturating_instance(seed):
    """m = 240 rows in two tight clusters of 120, tau = 0.8, s = 200: each
    example gathers enough confidence for tanh to saturate, so a computed
    gain can grow by an ulp as the selection grows."""
    rng = np.random.default_rng(seed)
    noise = rng.choice([0.02, 0.05, 0.1])
    centers = rng.standard_normal((2, 8))
    emb = np.repeat(centers, 120, axis=0) + noise * rng.standard_normal((240, 8))
    conf = rng.uniform(0.02, 0.5, 240)
    return build_graph(emb, 0.8), conf


GAIN_MODES = ("paper_faithful", "exact_marginal")


def reference_pools(m, labels):
    """One pool of all m rows, or one per label up to the largest."""
    if labels is None:
        return [np.arange(m)]
    return [np.flatnonzero(labels == j) for j in range(int(labels.max()) + 1)]


def heap_picks(graph, conf, s, gain_mode, labels=None, utility=Utility()):
    """The reference heap's sequence, with one pool per label when labels
    are given."""
    pools = reference_pools(graph.num_rows, labels)
    return heap_greedy(graph, conf, s, gain_mode, pools, utility)


def scan_picks(graph, conf, s, gain_mode, labels=None, utility=Utility()):
    """The reference eager scan's sequence, pooled as heap_picks pools."""
    pools = reference_pools(graph.num_rows, labels)
    return scan_greedy(graph, conf, s, gain_mode, pools, utility)


class TestLazyHeapReplay:
    """The batched lazy loop replays the one-entry-at-a-time heap pick for
    pick, also where it differs from the eager scan."""

    @pytest.mark.parametrize("mode", GAIN_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saturating_instances_match_the_heap(self, seed, mode):
        graph, conf = saturating_instance(seed)
        for labels in (None, np.arange(240) % 2):
            reference = heap_picks(graph, conf, 200, mode, labels)
            assert greedy(graph, conf, 200, labels, gain_mode=mode) == reference
            # Saturation makes the heap part from the eager scan here.
            eager = greedy(graph, conf, 200, labels, gain_mode=mode, lazy=False)
            assert eager != reference

    @pytest.mark.parametrize("mode", GAIN_MODES)
    def test_random_instances_match_the_heap(self, mode):
        rng = np.random.default_rng(39)
        for _ in range(12):
            m = int(rng.integers(20, 600))
            emb = rng.standard_normal((m, 8))
            if rng.random() < 0.5:  # duplicate rows and tied confidences
                emb = emb[rng.integers(0, m // 2, m)]
                conf = rng.choice([0.25, 0.5, 1.0], m)
            else:
                conf = rng.uniform(0, 1, m)
            graph = build_graph(emb, float(rng.choice([0.0, 0.3, 0.6, 0.9])))
            s = int(rng.integers(1, m + 1))
            classes = int(rng.integers(2, 5))
            utility = Utility(str(rng.choice(["tanh", "identity", "log1p"])))
            for labels in (None, rng.integers(0, classes, m)):
                got = greedy(graph, conf, s, labels, gain_mode=mode, utility=utility)
                assert got == heap_picks(graph, conf, s, mode, labels, utility)
        # Zero confidence: every gain is exactly 0.0 and every key -0.0.
        emb = np.random.default_rng(40).standard_normal((300, 8))
        graph, conf = build_graph(emb, 0.3), np.zeros(300)
        for labels in (None, np.arange(300) % 3):
            got = greedy(graph, conf, 200, labels, gain_mode=mode)
            assert got == heap_picks(graph, conf, 200, mode, labels)

    # Gain calls (one-candidate, array) of the lazy loop, with one pool and
    # with class pools, recomputing only gains whose inputs changed. Marking
    # too many gains stale would keep the picks and lose the cache; only
    # these counts show that.
    GAIN_CALLS = {
        ("paper_faithful", 0): ((3939, 54), (5529, 28)),
        ("paper_faithful", 1): ((3677, 54), (5534, 26)),
        ("paper_faithful", 2): ((4063, 55), (6092, 27)),
        ("paper_faithful", "dup"): ((2629, 29), (3382, 24)),
        ("exact_marginal", 0): ((3818, 56), (5934, 30)),
        ("exact_marginal", 1): ((3706, 55), (5836, 28)),
        ("exact_marginal", 2): ((3676, 58), (5843, 29)),
        ("exact_marginal", "dup"): ((9895, 95), (9330, 58)),
    }

    @pytest.mark.parametrize("mode", GAIN_MODES)
    @pytest.mark.parametrize("instance", [0, 1, 2, "dup"])
    def test_gain_calls_are_pinned(self, monkeypatch, instance, mode):
        if instance == "dup":  # 400 rows drawn from 200 distinct ones
            rng = np.random.default_rng(7)
            emb = rng.standard_normal((200, 8))[rng.integers(0, 200, 400)]
            conf = rng.choice([0.25, 0.5, 1.0], 400)
            graph, s, labels = build_graph(emb, 0.3), 300, rng.integers(0, 3, 400)
        else:
            graph, conf = saturating_instance(instance)
            s, labels = 200, np.arange(240) % 2
        one, many = selectors.GAINS[mode]
        calls = [0, 0]

        def counted(k, gain):
            def call(*args):
                calls[k] += 1
                return gain(*args)
            return call

        monkeypatch.setitem(selectors.GAINS, mode, (counted(0, one), counted(1, many)))
        got = []
        for pools in (None, labels):
            calls[:] = [0, 0]
            picks = greedy(graph, conf, s, pools, gain_mode=mode)
            got.append(tuple(calls))
            assert picks == heap_picks(graph, conf, s, mode, pools)
        assert tuple(got) == self.GAIN_CALLS[mode, instance]


class TestEagerRescan:
    """The eager loop, which keeps utility(nbr_conf) and rescans whole
    pools, picks exactly as the loop that compacts each pool to its
    unselected members and scores them with the array gain, lowest-index
    ties and exhausted pools included."""

    @pytest.mark.parametrize("mode", GAIN_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saturating_instances_match_the_scan(self, seed, mode):
        graph, conf = saturating_instance(seed)
        for labels in (None, np.arange(240) % 2):
            got = greedy(graph, conf, 200, labels, gain_mode=mode, lazy=False)
            assert got == scan_picks(graph, conf, 200, mode, labels)

    @pytest.mark.parametrize("kind", ["tanh", "identity", "log1p"])
    @pytest.mark.parametrize("mode", GAIN_MODES)
    def test_tie_heavy_instances_match_the_scan(self, mode, kind):
        rng = np.random.default_rng(41)
        utility = Utility(kind)
        for _ in range(6):
            m = int(rng.integers(20, 300))
            # Duplicate rows, three confidence values, and class 1 empty.
            emb = rng.standard_normal((m // 2, 8))[rng.integers(0, m // 2, m)]
            conf = rng.choice([0.25, 0.5, 1.0], m)
            labels = rng.choice([0, 2, 3], m)
            labels[0] = 3
            graph = build_graph(emb, float(rng.choice([0.0, 0.3, 0.6, 0.9])))
            s = int(rng.integers(1, m + 1))
            for pools in (None, labels):
                got = greedy(
                    graph, conf, s, pools, gain_mode=mode, utility=utility, lazy=False
                )
                assert got == scan_picks(graph, conf, s, mode, pools, utility)

    @pytest.mark.parametrize("mode", GAIN_MODES)
    def test_exhausted_pools_raise(self, mode):
        graph, conf = saturating_instance(0)
        labels = np.repeat([0, 2, 1], [40, 120, 80])  # unequal class sizes
        for pools, lazy in itertools.product((None, labels), (False, True)):
            with pytest.raises(RuntimeError, match="exhausted"):
                selectors._greedy_core(
                    graph, conf, 241, Utility(), mode, lazy,
                    selectors._pools(240, pools),
                )
            with pytest.raises(RuntimeError, match="exhausted"):
                scan_picks(graph, conf, 241, mode, pools)


class TestBalancedSelection:
    def balanced(self, labels, conf, s, num_classes):
        """The report of a balanced run; its per_class_counts hold one count
        per class id up to the largest label, num_classes of them here."""
        emb = np.random.default_rng(35).standard_normal((len(labels), 4))
        graph = build_graph(emb, 1.0)
        config = SelectorConfig(method="prune4rel_balanced", budget=s, tau=1.0)
        report = run_selection(config, noisy_labels=labels, confidence=conf, graph=graph)
        assert len(report.per_class_counts) == num_classes
        return report

    def test_pools_are_the_classes_present(self):
        labels = np.array([5, 0, 5, 2, 0, 5])
        pools = selectors._pools(6, labels)
        assert [pool.tolist() for pool in pools] == [[1, 4], [3], [0, 2, 5]]
        assert [pool.tolist() for pool in selectors._pools(3, None)] == [[0, 1, 2]]

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


def seed_starting_at(m: int, first: int) -> int:
    """The smallest seed whose k-center traversal over m rows starts at row
    `first` (the seed draws the first center)."""
    return next(seed for seed in itertools.count()
                if np.random.default_rng(seed).integers(m) == first)


class TestKCenter:
    def test_hand_trace_on_a_line(self):
        emb = np.array([[0.0], [1.0], [10.0]])
        assert select_kcenter_greedy(emb, 3, seed=seed_starting_at(3, 0)) == [0, 2, 1]

    def test_duplicate_center_never_chosen_early(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
        picked = select_kcenter_greedy(emb, 3, seed=seed_starting_at(4, 0))
        assert 1 not in picked

    def test_full_budget_covers_all(self):
        emb = np.random.default_rng(39).standard_normal((7, 3))
        assert sorted(select_kcenter_greedy(emb, 7, seed=2)) == list(range(7))

    def test_deterministic_per_seed(self):
        emb = np.random.default_rng(40).standard_normal((25, 3))
        a = select_kcenter_greedy(emb, 10, seed=5)
        b = select_kcenter_greedy(emb, 10, seed=5)
        assert a == b


def full_scan_kcenter(emb, s, first):
    """k-center with the exact squared distance to every row at every step."""
    emb = np.asarray(emb, dtype=np.float64)
    selected = [first]
    min_sq = np.sum((emb - emb[first]) ** 2, axis=1)
    min_sq[first] = -np.inf
    for _ in range(s - 1):
        nxt = int(np.argmax(min_sq))
        selected.append(nxt)
        np.minimum(min_sq, np.sum((emb - emb[nxt]) ** 2, axis=1), out=min_sq)
        min_sq[nxt] = -np.inf
    return selected


def kcenter_tie_inputs():
    rng = np.random.default_rng(44)
    rows = rng.standard_normal((60, 32)).astype(np.float32).astype(np.float64)
    yield "duplicate rows", rows[rng.integers(0, 60, 240)], 200
    scaled = rng.standard_normal((30, 8))
    yield "scaled duplicates", np.vstack([scaled, scaled, 3.0 * scaled, scaled / 7.0]), 120
    grid = np.stack(np.meshgrid(range(6), range(6), range(4)), axis=-1).reshape(-1, 3)
    yield "integer grid", grid.astype(np.float64), 144
    # Multiples of 0.1 and 0.3 are inexact in binary, so distances that tie
    # in exact arithmetic differ by a few ulps: a filter without slack
    # misses updates here.
    yield "decimal grid", rng.integers(0, 5, (80, 3)) * 0.1, 80
    yield "offset decimal grid", rng.integers(0, 4, (80, 6)) * 0.3 + 0.1, 80
    yield "large magnitude", rng.standard_normal((100, 16)) * 1e150, 100
    # Squared norms overflow on a third of the rows.
    huge = rng.standard_normal((90, 16))
    huge[::3] *= 1e160
    yield "overflowing norms", huge, 90
    yield "s = m", rng.standard_normal((150, 4)), 150
    # float32 rows, which the filter reads as they are (and, upcast, as the
    # float64 rows rounded to float32).
    rows32 = rng.standard_normal((50, 16)).astype(np.float32)
    yield "float32 duplicate rows", rows32[rng.integers(0, 50, 200)], 160
    # Rows whose float32 squares overflow (entries near 1e18 to 1e20) or
    # underflow (near 1e-25), whole rows and single entries.
    extreme = rng.standard_normal((90, 16))
    extreme[::3] *= 10.0 ** rng.uniform(17.5, 20.0, (30, 1))
    extreme[1::3] *= 10.0 ** rng.uniform(-27.0, -23.0, (30, 1))
    extreme[2::6, :4] *= 1e-25
    yield "float32 squares past its range", extreme.astype(np.float32), 90
    # Distances to the first center equal in real arithmetic up to one
    # float32 ulp of the radius, and equal ones from duplicated rows.
    sphere = rng.standard_normal((60, 8))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    sphere *= 1.0 + rng.integers(-2, 3, (60, 1)) * 2.0**-23
    near = np.vstack([np.zeros((1, 8)), sphere, sphere[:20]]).astype(np.float32)
    yield "float32 near-equal distances", near, 81
    # Clusters far from the origin, where the expansion's rounding is large
    # against the distances it bounds: at norms near 1e3 (a slack too small
    # skips rows it must update), and at entries near 1e-22, whose float32
    # squares are subnormal and lose most of their digits.
    cluster = rng.standard_normal((80, 8))
    yield "float32 far cluster", (1e3 + cluster).astype(np.float32), 80
    yield "float32 subnormal squares", (1e-22 * (8.0 + 0.01 * cluster)).astype(np.float32), 80
    # float64 rows float32 cannot hold: differences below its resolution,
    # entries past its range, and subnormal float32 squares.
    fine = 1.0 + rng.integers(0, 4, (80, 6)) * 1e-10
    yield "differences below float32's resolution", fine, 80
    past = rng.standard_normal((60, 6))
    past[::4] *= 1e40
    past[1::4] *= 1e-50
    past[2::4, :2] *= 1e-30
    yield "entries past float32's range", past, 60


KCENTER_TIE_INPUTS = {name: (emb, s) for name, emb, s in kcenter_tie_inputs()}


class TestKCenterTies:
    @pytest.mark.parametrize("name", list(KCENTER_TIE_INPUTS))
    def test_same_sequence_as_the_full_scan(self, name):
        emb, s = KCENTER_TIE_INPUTS[name]
        # float32 rows, and their float64 upcast, select alike.
        inputs = [emb, emb.astype(np.float64)] if emb.dtype == np.float32 else [emb]
        for first in (0, 1, emb.shape[0] - 1):
            with np.errstate(over="ignore"):  # squares of the overflowing rows
                expected = full_scan_kcenter(emb, s, first)
                seed = seed_starting_at(emb.shape[0], first)
                for rows in inputs:
                    assert select_kcenter_greedy(rows, s, seed=seed) == expected

    def test_same_sequence_across_blas_thread_counts(self):
        # m=20 000, d=32: OpenBLAS splits this matrix-vector product over
        # two threads. Only the filter reads the product, so the sequence
        # must not depend on the thread count.
        script = (
            "import numpy as np\n"
            "from neighborprune.selectors import select_kcenter_greedy\n"
            "rng = np.random.default_rng(45)\n"
            "rows = rng.standard_normal((4000, 32)).astype(np.float32)\n"
            "emb = rows[rng.integers(0, 4000, 20000)].astype(np.float64)\n"
            "print(select_kcenter_greedy(emb, 2000, seed=3))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [src, *filter(None, [env.get("PYTHONPATH")])]
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])) == 2000


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

    def test_absent_class_ids_rank_as_compacted_labels(self):
        emb = np.random.default_rng(43).standard_normal((9, 3))
        compact = np.array([0, 1, 0, 1, 1, 0, 0, 1, 0])
        for sparse in (compact * 2, compact * 1_000_000 + 3):
            assert select_moderate(emb, sparse, 9) == select_moderate(emb, compact, 9)

    # Each of these would leave some row without a class, and so without a
    # deviation to rank it by.
    @pytest.mark.parametrize(
        "labels",
        [[0, 1], [0, 1, 0, 1, 0, -1], [[0, 1, 0], [1, 0, 1]]],
        ids=["shorter_than_m", "negative", "two_dimensional"],
    )
    def test_labels_must_be_one_class_per_row(self, labels):
        emb = np.random.default_rng(42).standard_normal((6, 2))
        with pytest.raises(ValueError, match="noisy_labels must be 6 class indices"):
            select_moderate(emb, labels, 3)


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
        assert report.report_dict()["graph"] is None

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
            "graph",
            "peak_rss_mb",
        ]
        assert payload["peak_rss_mb"] is None  # only the prune command measures it
        assert list(payload["timings"]) == ["graph_build_s", "selection_s"]
        assert payload["graph"] == {
            "edges": graph.indices.size,
            "block_pairs": 1,
            "block_pairs_skipped": 0,
            "degree_min": 1,
            "degree_p50": 2,
            "degree_p99": 2,
            "degree_max": 2,
            "isolated_rows": 1,
            "screen_survivors": 4,  # the 3 self entries and edge (0, 1)
        }
        assert payload["selected_count"] == 2
        assert payload["config"] == {
            "method": "prune4rel",
            "budget": 2,
            "tau": 0.5,
            "utility": "tanh",
            "gain_mode": "paper_faithful",
            "lazy": True,
            "seed": 0,
            "tie_break": "lowest_index",
        }

    def test_report_graph_degrees(self):
        # Row 0 points away from every other row, so it keeps only its self
        # edge; blocks of 64 spread the 200 rows over 10 block pairs.
        rng = np.random.default_rng(11)
        emb = np.abs(rng.standard_normal((200, 8)))
        emb[0] = -1.0
        graph = build_graph(emb, 0.7, block_size=64)
        config = SelectorConfig(method="prune4rel", budget=20, tau=0.7)
        report = run_selection(config, confidence=rng.uniform(size=200), graph=graph)
        stats = report.report_dict()["graph"]
        degrees = graph.degrees()
        assert degrees[0] == 1
        assert stats["isolated_rows"] == np.count_nonzero(degrees == 1) >= 1
        assert stats["degree_min"] == degrees.min() == 1
        assert stats["degree_max"] == degrees.max()
        assert stats["degree_min"] <= stats["degree_p50"] <= stats["degree_p99"]
        assert stats["degree_p99"] <= stats["degree_max"]
        assert {stats["degree_p50"], stats["degree_p99"]} <= set(degrees.tolist())
        assert stats["edges"] == degrees.sum()

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

    # Each of these would leave a row out of the pools, or give it no class.
    @pytest.mark.parametrize(
        "labels", [[0, 1, 0], [0, -1, 1, 0]], ids=["shorter_than_m", "negative"],
    )
    def test_balanced_label_out_of_range_rejected(self, labels):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.1]])
        config = SelectorConfig(method="prune4rel_balanced", budget=2, tau=0.5)
        with pytest.raises(ValueError, match="length mismatch|negative class id"):
            run_selection(
                config,
                embeddings=emb,
                noisy_labels=labels,
                confidence=np.array([0.9, 0.8, 0.7, 0.6]),
                graph=build_graph(emb, 0.5),
            )

    @pytest.mark.parametrize("method", ["prune4rel_balanced", "moderate"])
    def test_ground_truth_class_absent_from_noisy_labels(self, method):
        rng = np.random.default_rng(44)
        emb = rng.standard_normal((30, 4))
        noisy = np.arange(30) % 3
        truth = noisy.copy()
        truth[[4, 11]] = 7  # a class no noisy label names
        config = SelectorConfig(method=method, budget=30, tau=0.5)
        report = run_selection(
            config, embeddings=emb, noisy_labels=noisy, ground_truth_labels=truth,
            confidence=rng.uniform(0, 1, 30), graph=build_graph(emb, 0.5),
        )
        assert report.per_class_counts == [10, 10, 10]
        assert report.noise_ratio == pytest.approx(2 / 30)

    def test_empty_labels_are_a_length_mismatch(self):
        config = SelectorConfig(method="uniform", budget=1)
        with pytest.raises(ValueError, match="length mismatch: 0 != 3"):
            run_selection(config, noisy_labels=[], embeddings=np.eye(3))

    def test_uniform_full_ratio(self):
        config = SelectorConfig(method="uniform", budget=1.0)
        report = run_selection(config, embeddings=np.eye(5))
        assert sorted(report.selected) == list(range(5))
        assert report.objective_value is None
        assert report.per_class_counts is None
