import math

import numpy as np
import pytest

from neighborprune.dataset import (
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
    save_scores,
)
from neighborprune.objective import confidence_values


class TestMatrixContainer:
    def test_binary_round_trip_with_header(self, tmp_path):
        mat = np.array([[1.5, -2.0], [0.25, 3.0], [4.0, 5.5]])
        path = tmp_path / "m.bin"
        save_matrix(path, mat, "binary")
        out = load_matrix(path, "binary")
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out, mat)

    def test_csv_identity_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        out = load_matrix(path, "csv")
        np.testing.assert_array_equal(out, np.eye(2))

    def test_csv_row_length_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(FormatError, match="line 2"):
            load_matrix(path, "csv")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path, "binary")

    def test_truncated_payload(self, tmp_path):
        mat = np.ones((4, 3))
        path = tmp_path / "m.bin"
        save_matrix(path, mat)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="payload"):
            load_matrix(path)

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(FormatError, match="non-finite"):
            save_matrix(tmp_path / "m.bin", np.array([[np.nan, 1.0]]))

    def test_non_finite_rejected_on_csv_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_matrix(path, "csv")

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_round_trip_within_float32_precision(self, tmp_path, fmt):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((17, 5)) * 100
        path = tmp_path / f"m.{fmt}"
        save_matrix(path, mat, fmt)
        out = load_matrix(path, fmt)
        np.testing.assert_allclose(out, mat, rtol=1e-6, atol=1e-6)

    def test_csv_then_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.uniform(-5, 5, size=(9, 4))
        save_matrix(tmp_path / "a.csv", mat, "csv")
        first = load_matrix(tmp_path / "a.csv", "csv")
        save_matrix(tmp_path / "a.bin", first, "binary")
        second = load_matrix(tmp_path / "a.bin", "binary")
        np.testing.assert_allclose(second, mat, rtol=1e-6, atol=1e-6)


class TestLineFormats:
    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 3, 2, 2, 1])
        save_labels(tmp_path / "y.txt", labels)
        np.testing.assert_array_equal(load_labels(tmp_path / "y.txt"), labels)

    def test_negative_label_rejected(self, tmp_path):
        (tmp_path / "y.txt").write_text("0\n-1\n")
        with pytest.raises(FormatError, match="negative"):
            load_labels(tmp_path / "y.txt")

    def test_scores_round_trip(self, tmp_path):
        values = np.array([0.25, -1.75, 3.125])
        save_scores(tmp_path / "s.txt", values)
        np.testing.assert_array_equal(load_scores(tmp_path / "s.txt"), values)

    def test_external_confidence_range_checked(self, tmp_path):
        (tmp_path / "c.txt").write_text("0.5\n1.5\n")
        with pytest.raises(FormatError, match=r"\[0, 1\]"):
            load_external_confidence(tmp_path / "c.txt")

    def test_probabilities_rows_validated_on_load(self, tmp_path):
        save_matrix(tmp_path / "p.bin", np.array([[0.7, 0.2]]))
        with pytest.raises(ValueError, match="sums to"):
            load_probabilities(tmp_path / "p.bin")


class TestConfidence:
    def test_max_prob_row(self):
        cv = compute_confidence(np.array([[0.7, 0.2, 0.1]]), "max_prob")
        assert cv.dtype == np.float64
        assert cv[0] == pytest.approx(0.7)

    def test_diff_prob_row(self):
        cv = compute_confidence(np.array([[0.7, 0.2, 0.1]]), "diff_prob")
        assert cv[0] == pytest.approx(0.5)

    def test_diff_prob_tie(self):
        cv = compute_confidence(np.array([[0.5, 0.5]]), "diff_prob")
        assert cv[0] == pytest.approx(0.0)

    def test_diff_prob_needs_two_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            compute_confidence(np.ones((3, 1)), "diff_prob")

    @pytest.mark.parametrize("metric", ["max_prob", "diff_prob"])
    def test_permutation_equivariance(self, metric):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=50)
        perm = rng.permutation(50)
        direct = compute_confidence(probs, metric)
        permuted = compute_confidence(probs[perm], metric)
        np.testing.assert_array_equal(permuted, direct[perm])

    def test_diff_at_most_max_per_row(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(5), size=200)
        max_p = compute_confidence(probs, "max_prob")
        diff_p = compute_confidence(probs, "diff_prob")
        assert np.all(diff_p <= max_p + 1e-12)

    def test_confidence_vector_range_checked(self):
        for bad in (1.2, -4.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                confidence_values([0.5, bad])
        with pytest.raises(ValueError, match="1-d"):
            confidence_values([[0.5]])


class TestSmallLoss:
    def test_certain_correct_row_near_zero(self):
        scores = compute_small_loss_scores(np.array([[1.0, 0.0, 0.0]]), [0])
        assert scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_even_split(self):
        scores = compute_small_loss_scores(np.array([[0.5, 0.5]]), [1])
        assert scores[0] == pytest.approx(math.log(2.0))

    def test_probability_floor_active(self):
        scores = compute_small_loss_scores(np.array([[0.0, 1.0]]), [0])
        assert scores[0] == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            compute_small_loss_scores(np.array([[0.5, 0.5]]), [2])
