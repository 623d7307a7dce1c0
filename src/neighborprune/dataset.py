"""Ingestion of embeddings, class probabilities, labels, and score files.

All file-format contracts live here: the "NBPR" binary matrix container
(shared by embeddings and probability matrices), headerless CSV matrices,
and the one-value-per-line text formats for labels, auxiliary scores, and
external confidences. Arrays load as float64/int64 (float32 container rows on
request) and are validated eagerly; non-finite values anywhere are hard errors.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .objective import confidence_values

MATRIX_MAGIC = b"NBPR"
MATRIX_VERSION = 1

CONFIDENCE_METRICS = ("max_prob", "diff_prob", "external")

# Probability floor applied before log in the small-loss score; keeps the
# cross-entropy finite for rows that assign (near-)zero mass to the label.
LOSS_PROB_FLOOR = 1e-12

PROB_ROW_SUM_TOL = 1e-5

# The largest class id a label file may hold: per_class_counts keeps one
# count per id up to the largest label, so the cap bounds it at 16 MiB.
LABEL_MAX = 2**21 - 1


class FormatError(ValueError):
    """An input file, or a probability matrix, violates its declared format."""


class LabelRangeError(FormatError):
    """A noisy label outside the probability matrix's classes."""


class ClassCountError(FormatError):
    """A probability matrix with fewer classes than a confidence metric needs."""


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values).reshape(-1))[0])
        raise FormatError(f"non-finite value in {what} (flat position {bad})")


# ---------------------------------------------------------------------------
# Matrix container (embeddings and probabilities share it)
# ---------------------------------------------------------------------------

def save_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Write a 2-d real matrix in the binary container: magic "NBPR",
    version uint32 LE, row count uint64 LE, column count uint32 LE, then
    rows*cols float32 LE row-major."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    _require_finite(matrix, "matrix to write")
    header = MATRIX_MAGIC + struct.pack(
        "<IQI", MATRIX_VERSION, matrix.shape[0], matrix.shape[1]
    )
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_matrix(path: str | Path, fmt: str = "binary", *, as_stored: bool = False) -> np.ndarray:
    """Read a binary container or a headerless CSV matrix as float64, or with
    as_stored a container's float32 payload as stored (a CSV stays float64)."""
    path = Path(path)
    if fmt == "binary":
        matrix = _load_matrix_binary(path)
        return matrix if as_stored else matrix.astype(np.float64)
    if fmt == "csv":
        return _load_matrix_csv(path)
    raise ValueError(f"unknown matrix format {fmt!r}")


def _load_matrix_binary(path: Path) -> np.ndarray:
    header_size = 4 + 4 + 8 + 4
    with path.open("rb") as handle:
        header = handle.read(header_size)
        if len(header) < header_size:
            raise FormatError(f"{path}: truncated header ({len(header)} bytes)")
        if header[:4] != MATRIX_MAGIC:
            raise FormatError(f"{path}: bad magic {header[:4]!r}, expected {MATRIX_MAGIC!r}")
        version, rows, cols = struct.unpack("<IQI", header[4:])
        if version != MATRIX_VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        if rows == 0 or cols == 0:
            raise FormatError(f"{path}: empty matrix ({rows} x {cols})")
        expected = rows * cols * 4
        size = path.stat().st_size - header_size
        if size == expected:  # checked first: the header sizes the array
            matrix = np.empty((rows, cols), dtype="<f4")
            size = handle.readinto(matrix.reshape(-1).view(np.uint8))
        if size != expected:
            raise FormatError(f"{path}: payload is {size} bytes, header implies {expected}")
    _require_finite(matrix, str(path))
    return matrix


def _load_matrix_csv(path: Path) -> np.ndarray:
    width = None  # the first row's, which every row must have

    def row(line: str) -> list[float]:
        nonlocal width
        fields = line.split(",")
        width = width or len(fields)
        if len(fields) != width:
            raise ValueError(f"has {len(fields)} values, expected {width}")
        return [float(text) for text in fields]

    matrix = np.array(read_values(path, row, "csv matrix"), dtype=np.float64)
    _require_finite(matrix, str(path))
    return matrix


def load_probabilities(path: str | Path, fmt: str = "binary") -> np.ndarray:
    """Load a class-probability matrix (m rows, c classes) and validate rows."""
    probs = load_matrix(path, fmt)
    _validate_probabilities(probs, where=str(path))
    return probs


# ---------------------------------------------------------------------------
# Line-oriented text formats
# ---------------------------------------------------------------------------

def save_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    Path(path).write_text(
        "\n".join(str(int(v)) for v in labels) + "\n", encoding="utf-8"
    )


def read_values(path: str | Path, parse, what: str) -> list:
    """The values parse() reads from each stripped, non-blank line of a text
    file. A parse error names the file and line; a file with no values fails.
    A byte that is not UTF-8 reads as a lone surrogate, which no parse
    accepts, so its line is named too (strict decoding fails a whole chunk)."""
    path = Path(path)
    values = []
    with path.open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(parse(line))
            except ValueError as exc:
                bad_byte = any("\udc80" <= ch <= "\udcff" for ch in line)
                reason = "not UTF-8 text" if bad_byte else exc
                raise FormatError(f"{path}: line {lineno}: {reason}") from exc
    if not values:
        raise FormatError(f"{path}: empty {what} file")
    return values


def parse_int64(text: str) -> int:
    """A line's integer, which must fit in int64."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError("not an integer") from None
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} does not fit in a 64-bit integer")
    return value


def _label(text: str) -> int:
    value = parse_int64(text)
    if value < 0:
        raise ValueError(f"negative label {value}")
    if value > LABEL_MAX:
        raise ValueError(f"label {value} is above the largest class id {LABEL_MAX}")
    return value


def load_labels(path: str | Path) -> np.ndarray:
    """Load zero-based integer class labels, one per line."""
    return np.array(read_values(path, _label, "label"), dtype=np.int64)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError("not a number") from None


def load_scores(path: str | Path) -> np.ndarray:
    """Load one real value per line."""
    values = np.array(read_values(path, _number, "score"), dtype=np.float64)
    _require_finite(values, str(path))
    return values


def load_external_confidence(path: str | Path) -> np.ndarray:
    """Load per-example confidences supplied by the user (values in [0, 1])."""
    values = load_scores(path)
    try:
        return confidence_values(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def _validate_probabilities(probs: np.ndarray, where: str = "probabilities") -> None:
    """The one check on a probability matrix, raising FormatError."""
    if probs.ndim != 2:
        raise FormatError(f"{where}: expected 2-d matrix, got shape {probs.shape}")
    _require_finite(probs, where)
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise FormatError(f"{where}: entries must lie in [0, 1]")
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_ROW_SUM_TOL)
    if bad.size:
        raise FormatError(
            f"{where}: row {int(bad[0])} sums to {sums[bad[0]]:.8f}, expected 1"
        )


def compute_confidence(probabilities: np.ndarray, metric: str) -> np.ndarray:
    """Derive per-example confidence from softmax probability rows.

    max_prob is the row maximum; diff_prob is the gap between the largest
    and second-largest entries (requires at least two classes).
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    _validate_probabilities(probs)
    if metric == "max_prob":
        values = probs.max(axis=1)
    elif metric == "diff_prob":
        if probs.shape[1] < 2:
            raise ClassCountError("diff_prob and margin selection require at least 2 classes")
        top2 = np.sort(probs, axis=1)[:, -2:]
        values = top2[:, 1] - top2[:, 0]
    else:
        raise ValueError(f"cannot compute confidence for metric {metric!r}")
    return values


def compute_small_loss_scores(
    probabilities: np.ndarray, noisy_labels: np.ndarray
) -> np.ndarray:
    """Per-example cross-entropy against the noisy label, probability-floored."""
    probs = np.asarray(probabilities, dtype=np.float64)
    _validate_probabilities(probs)
    labels = np.asarray(noisy_labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size != probs.shape[0]:
        raise ValueError("noisy_labels length must match probability rows")
    outside = np.flatnonzero((labels < 0) | (labels >= probs.shape[1]))
    if outside.size:
        row = int(outside[0])
        raise LabelRangeError(f"row {row} holds label {labels[row]}, out of range for "
                              f"the probability matrix's {probs.shape[1]} classes")
    picked = probs[np.arange(labels.size), labels]
    return -np.log(np.maximum(picked, LOSS_PROB_FLOOR))
