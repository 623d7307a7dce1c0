import math
import re
import struct

import numpy as np
import pytest

from neighborprune.dataset import (
    LABEL_MAX,
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
from neighborprune.objective import confidence_values
from neighborprune.selectors import load_selected


class TestMatrixContainer:
    def test_binary_round_trip_with_header(self, tmp_path):
        mat = np.array([[1.5, -2.0], [0.25, 3.0], [4.0, 5.5]])
        path = tmp_path / "m.bin"
        save_matrix(path, mat)
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

    def test_csv_empty_file_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: empty csv matrix")):
            load_matrix(path, "csv")

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_container_names_the_file(self, tmp_path, shape):
        path = tmp_path / "m.bin"
        save_matrix(path, np.empty(shape))
        message = f"{path}: empty matrix ({shape[0]} x {shape[1]})"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_matrix(path, "binary")

    def test_csv_bad_float_names_file_and_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n\n3,x\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 3: ")):
            load_matrix(path, "csv")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_matrix(path, "binary")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NBPR" + b"\x01\x00\x00\x00" + b"\x00" * 6)
        message = f"{path}: truncated header (14 bytes)"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_matrix(path, "binary")

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.bin"
        save_matrix(path, np.ones((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        message = f"{path}: unsupported container version 2"
        with pytest.raises(FormatError, match=re.escape(message)):
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
        if fmt == "csv":
            np.savetxt(path, mat, delimiter=",", fmt="%.17g")
        else:
            save_matrix(path, mat)
        out = load_matrix(path, fmt)
        np.testing.assert_allclose(out, mat, rtol=1e-6, atol=1e-6)

    def test_csv_then_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.uniform(-5, 5, size=(9, 4))
        np.savetxt(tmp_path / "a.csv", mat, delimiter=",", fmt="%.17g")
        first = load_matrix(tmp_path / "a.csv", "csv")
        save_matrix(tmp_path / "a.bin", first)
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
        np.savetxt(tmp_path / "s.txt", values, fmt="%.17g")
        np.testing.assert_array_equal(load_scores(tmp_path / "s.txt"), values)

    def test_external_confidence_range_checked(self, tmp_path):
        (tmp_path / "c.txt").write_text("0.5\n1.5\n")
        with pytest.raises(FormatError, match=r"\[0, 1\]"):
            load_external_confidence(tmp_path / "c.txt")

    def test_probabilities_rows_validated_on_load(self, tmp_path):
        save_matrix(tmp_path / "p.bin", np.array([[0.7, 0.2]]))
        with pytest.raises(ValueError, match="sums to"):
            load_probabilities(tmp_path / "p.bin")

    def test_label_cap_is_inclusive(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text(f"0\n{LABEL_MAX}\n")
        np.testing.assert_array_equal(load_labels(path), [0, LABEL_MAX])
        path.write_text(f"0\n{LABEL_MAX + 1}\n")
        message = f"{path}: line 2: label {LABEL_MAX + 1} is above the largest class id"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_labels(path)


# The readers of every one-value-per-line format, and of CSV matrices.
TEXT_READERS = {
    "labels": (load_labels, "1"),
    "scores": (load_scores, "0.5"),
    "selected": (load_selected, "7"),
    "csv matrix": (lambda path: load_matrix(path, "csv"), "0.5,1"),
}


class TestNotUtf8:
    """A byte that is not UTF-8 is named by file and line, wherever the
    reader's 8 KiB decoding chunks fall and whatever the newlines."""

    @pytest.mark.parametrize("reader", list(TEXT_READERS))
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("before", [2, 5000])
    def test_bad_byte_names_file_and_line(self, tmp_path, reader, newline, before):
        read, line = TEXT_READERS[reader]
        path = tmp_path / "values.txt"
        good = (line + newline).encode()
        path.write_bytes(good * before + line.encode() + b"\xff" + newline.encode() + good)
        message = f"{path}: line {before + 1}: not UTF-8 text"
        with pytest.raises(FormatError, match=re.escape(message)):
            read(path)

    @pytest.mark.parametrize("bad", [b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"],
                             ids=["bad_continuation", "surrogate", "truncated_at_end"])
    def test_invalid_sequences_are_named(self, tmp_path, bad):
        path = tmp_path / "y.txt"
        path.write_bytes(b"0\n1\n" + bad)
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 3: not UTF-8 text")):
            load_labels(path)

    def test_valid_non_ascii_text_keeps_its_parse_error(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("0\n\u00e9\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 2: not an integer")):
            load_labels(path)


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
