import numpy as np
import pytest

from neighborprune.objective import (
    SelectionState,
    Utility,
    marginal_gain_exact,
    marginal_gain_paper,
    marginal_gains_paper,
    total_objective,
)
from neighborprune.selectors import GAINS
from neighborprune.similarity import build_graph

from invariants import recomputed_nbr_conf

TINY_EMB = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TINY_CONF = np.array([0.9, 0.8, 0.7])


@pytest.fixture
def tiny_graph():
    return build_graph(TINY_EMB, 0.5)


def state_with(graph, conf, selected):
    state = SelectionState(graph, conf)
    for x in selected:
        state.add(x)
    return state


class TestUtilityProperties:
    @pytest.mark.parametrize("kind", ["tanh", "identity", "log1p"])
    def test_zero_at_zero(self, kind):
        assert Utility(kind)(0.0) == 0.0

    @pytest.mark.parametrize("kind", ["tanh", "identity", "log1p"])
    def test_nondecreasing_and_concave_on_grid(self, kind):
        util = Utility(kind)
        grid = np.linspace(0.0, 12.0, 400)
        values = util(grid)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-15)
        # concavity: increments themselves non-increasing
        assert np.all(np.diff(diffs) <= 1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Utility("sigmoid")


class TestBatchScalarConsistency:
    """The lazy greedy re-evaluates single candidates that the eager scan
    evaluated in batch; both must see bit-identical gains."""

    @pytest.mark.parametrize("kind", ["tanh", "identity", "log1p"])
    def test_ufunc_batch_equals_scalar(self, kind):
        util = Utility(kind)
        rng = np.random.default_rng(123)
        z = rng.uniform(0.0, 20.0, size=4096)
        batch = np.asarray(util(z))
        for i in range(0, z.size, 173):
            assert batch[i] == util(z[i])


class TestSelectionState:
    def test_empty_state_all_zero(self, tiny_graph):
        state = SelectionState(tiny_graph, TINY_CONF)
        for i in range(3):
            assert state.nbr_conf[i] == 0.0

    def test_worked_value_from_two_selections(self, tiny_graph):
        state = state_with(tiny_graph, TINY_CONF, [1, 2])
        assert state.nbr_conf[0] == pytest.approx(0.8, abs=1e-12)

    def test_self_term_for_isolated_selection(self, tiny_graph):
        state = state_with(tiny_graph, TINY_CONF, [2])
        assert state.nbr_conf[2] == pytest.approx(0.7, abs=1e-12)

    def test_index_out_of_range(self, tiny_graph):
        state = SelectionState(tiny_graph, TINY_CONF)
        with pytest.raises(IndexError):
            state.add(3)

    def test_double_add_rejected(self, tiny_graph):
        state = state_with(tiny_graph, TINY_CONF, [0])
        with pytest.raises(ValueError, match="already selected"):
            state.add(0)

    def test_negative_tau_graph_rejected(self):
        graph = build_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), -0.5)
        with pytest.raises(ValueError, match="tau >= 0"):
            SelectionState(graph, [0.5, 0.5])

    def test_incremental_matches_scratch_recomputation(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(5, 40))
            emb = rng.standard_normal((m, 4))
            conf = rng.uniform(0, 1, m)
            graph = build_graph(emb, 0.3)
            order = rng.permutation(m)[: int(rng.integers(1, m + 1))]
            state = state_with(graph, conf, order.tolist())
            np.testing.assert_allclose(
                state.nbr_conf, recomputed_nbr_conf(state), atol=1e-6
            )

    def test_nbr_conf_componentwise_nondecreasing(self):
        rng = np.random.default_rng(22)
        emb = rng.standard_normal((30, 4))
        conf = rng.uniform(0, 1, 30)
        graph = build_graph(emb, 0.3)
        state = SelectionState(graph, conf)
        previous = state.nbr_conf.copy()
        for x in rng.permutation(30)[:15]:
            state.add(int(x))
            assert np.all(state.nbr_conf >= previous - 1e-15)
            previous = state.nbr_conf.copy()


class TestTotalObjective:
    def test_worked_single_selection(self, tiny_graph):
        state = state_with(tiny_graph, TINY_CONF, [0])
        expected = float(np.tanh(0.9) + np.tanh(0.9) + np.tanh(0.0))
        assert total_objective(state, Utility("tanh")) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(1.4325957, abs=5e-8)

    def test_empty_selection_is_zero(self, tiny_graph):
        state = SelectionState(tiny_graph, TINY_CONF)
        assert total_objective(state, Utility("tanh")) == 0.0

    def test_identity_utility_with_degenerate_graph(self):
        rng = np.random.default_rng(23)
        emb = rng.standard_normal((8, 3))
        conf = rng.uniform(0, 1, 8)
        graph = build_graph(emb, 1.0)
        state = state_with(graph, conf, [1, 4, 6])
        expected = conf[1] + conf[4] + conf[6]
        assert total_objective(state, Utility("identity")) == pytest.approx(expected)


class TestMarginalGains:
    def test_paper_gain_from_empty_set(self, tiny_graph):
        state = SelectionState(tiny_graph, TINY_CONF)
        util = Utility("tanh")
        assert marginal_gain_paper(state, 0, util) == pytest.approx(
            float(np.tanh(0.9)), abs=1e-15
        )

    def test_paper_gain_worked_value(self):
        # Duplicate rows: selecting one puts exactly C=0.8 on the other, so
        # the gain is tanh(0.8 + 0.8) - tanh(0.8) = 0.25763 to 5 decimals.
        graph = build_graph(np.array([[1.0, 0.0], [1.0, 0.0]]), 0.5)
        conf = np.array([0.8, 0.8])
        state = state_with(graph, conf, [0])
        gain = marginal_gain_paper(state, 1, Utility("tanh"))
        assert gain == pytest.approx(float(np.tanh(1.6) - np.tanh(0.8)), abs=1e-15)
        assert round(gain, 5) == 0.25763

    def test_paper_gain_decreases_with_background(self):
        util = Utility("tanh")
        background = np.linspace(0.0, 3.0, 20)
        gains = [float(util(b + 0.8) - util(b)) for b in background]
        assert np.all(np.diff(gains) < 0)

    def test_exact_gain_matches_recomputation_oracle(self):
        rng = np.random.default_rng(24)
        util = Utility("tanh")
        for _ in range(30):
            m = int(rng.integers(4, 20))
            emb = rng.standard_normal((m, 3))
            conf = rng.uniform(0, 1, m)
            graph = build_graph(emb, 0.3)
            size = int(rng.integers(0, m))
            order = rng.permutation(m)
            subset = order[:size].tolist()
            x = int(order[size])
            state = state_with(graph, conf, subset)
            before = total_objective(state, util)
            gain = marginal_gain_exact(state, x, util)
            state.add(x)
            after = total_objective(state, util)
            assert gain == pytest.approx(after - before, abs=1e-9)

    def test_duplicate_second_addition_gains_less(self):
        graph = build_graph(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]), 0.5)
        conf = np.array([0.6, 0.6, 0.5])
        util = Utility("tanh")
        state = SelectionState(graph, conf)
        first = marginal_gain_exact(state, 0, util)
        state.add(0)
        second = marginal_gain_exact(state, 1, util)
        assert second <= first

    def test_isolated_candidate_gain_is_own_utility(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        graph = build_graph(emb, 0.9)
        conf = np.array([0.4, 0.5, 0.8])
        util = Utility("tanh")
        state = state_with(graph, conf, [0, 1])
        assert marginal_gain_exact(state, 2, util) == pytest.approx(
            float(np.tanh(0.8)), abs=1e-12
        )

    def test_selected_candidate_rejected(self, tiny_graph):
        state = state_with(tiny_graph, TINY_CONF, [0])
        for fn in (marginal_gain_paper, marginal_gain_exact):
            with pytest.raises(ValueError, match="already selected"):
                fn(state, 0, Utility("tanh"))

    def test_gain_vector_matches_scalar_gains(self):
        rng = np.random.default_rng(25)
        small = build_graph(rng.standard_normal((30, 4)), 0.4)
        # Two near-duplicate clusters of 300 rows, one tighter than the other,
        # plus scattered rows: degrees from 1 to about 300 cross numpy's
        # 8-wide and 128-element blocks of pairwise summation, which the
        # array gain must reproduce row by row.
        centers = rng.standard_normal((2, 8))
        spreads = [np.linspace(0.0, top, 300)[:, None] for top in (0.4, 0.8)]
        emb = np.vstack([
            centers[0] + spreads[0] * rng.standard_normal((300, 8)),
            centers[1] + spreads[1] * rng.standard_normal((300, 8)),
            rng.standard_normal((40, 8)),
        ])
        clustered = build_graph(emb, 0.9)
        degrees = clustered.degrees()
        for edge in (8, 128, 256):
            assert degrees.min() < edge < degrees.max()
        assert np.unique(degrees).size > 100
        for graph, picks in ((small, [3, 7, 11]), (clustered, range(0, 640, 37))):
            conf = rng.uniform(0, 1, graph.num_rows)
            state = state_with(graph, conf, picks)
            cands = np.flatnonzero(~state.in_set)
            for kind in ("tanh", "identity", "log1p"):
                util = Utility(kind)
                for gain_of, gains_of in GAINS.values():
                    vector = gains_of(state, cands, util)
                    for x, gain in zip(cands.tolist(), vector.tolist()):
                        assert gain == gain_of(state, x, util)
