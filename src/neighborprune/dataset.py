"""Ingestion of embeddings, class probabilities, labels, and score files.

All file-format contracts live here: the "NBPR" binary matrix container
(shared by embeddings and probability matrices), headerless CSV matrices,
and the one-value-per-line text formats for labels, auxiliary scores, and
external confidences. Everything is loaded into plain float64/int64 numpy
arrays and validated eagerly; non-finite values anywhere are hard errors.
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


class FormatError(ValueError):
    """An input file violates its declared format."""


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values).reshape(-1))[0])
        raise FormatError(f"non-finite value in {what} (flat position {bad})")


# ---------------------------------------------------------------------------
# Matrix container (embeddings and probabilities share it)
# ---------------------------------------------------------------------------

def save_matrix(path: str | Path, matrix: np.ndarray, fmt: str = "binary") -> None:
    """Write a 2-d real matrix in the binary container or as headerless CSV.

    The binary container is: magic "NBPR", version uint32 LE, row count
    uint64 LE, column count uint32 LE, then rows*cols float32 LE row-major.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    _require_finite(matrix, "matrix to write")
    path = Path(path)
    if fmt == "binary":
        header = MATRIX_MAGIC + struct.pack(
            "<IQI", MATRIX_VERSION, matrix.shape[0], matrix.shape[1]
        )
        payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
        path.write_bytes(header + payload)
    elif fmt == "csv":
        lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_matrix(path: str | Path, fmt: str = "binary") -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`. Returns float64."""
    path = Path(path)
    if fmt == "binary":
        return _load_matrix_binary(path)
    if fmt == "csv":
        return _load_matrix_csv(path)
    raise ValueError(f"unknown matrix format {fmt!r}")


def _load_matrix_binary(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    header_size = 4 + 4 + 8 + 4
    if len(blob) < header_size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {MATRIX_MAGIC!r}")
    version, rows, cols = struct.unpack("<IQI", blob[4:header_size])
    if version != MATRIX_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    expected = rows * cols * 4
    payload = blob[header_size:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    matrix = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
    _require_finite(matrix, str(path))
    return matrix


def _load_matrix_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width: int | None = None
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise FormatError(
                    f"{path}: line {lineno} has {len(fields)} values, expected {width}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty csv matrix")
    matrix = np.array(rows, dtype=np.float64)
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


def load_labels(path: str | Path) -> np.ndarray:
    """Load zero-based integer class labels, one per line."""
    values: list[int] = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: not an integer") from exc
            if value < 0:
                raise FormatError(f"{path}: line {lineno}: negative label {value}")
            values.append(value)
    if not values:
        raise FormatError(f"{path}: empty label file")
    return np.array(values, dtype=np.int64)


def save_scores(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    _require_finite(values, "scores to write")
    Path(path).write_text(
        "\n".join(f"{v:.17g}" for v in values) + "\n", encoding="utf-8"
    )


def load_scores(path: str | Path) -> np.ndarray:
    """Load one real value per line."""
    values: list[float] = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: not a number") from exc
    if not values:
        raise FormatError(f"{path}: empty score file")
    out = np.array(values, dtype=np.float64)
    _require_finite(out, str(path))
    return out


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
    if probs.ndim != 2:
        raise ValueError(f"{where}: expected 2-d matrix, got shape {probs.shape}")
    _require_finite(probs, where)
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ValueError(f"{where}: entries must lie in [0, 1]")
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_ROW_SUM_TOL)
    if bad.size:
        raise ValueError(
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
            raise ValueError("diff_prob requires at least 2 classes")
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
    if labels.size and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        raise ValueError("label out of range for probability matrix")
    picked = probs[np.arange(labels.size), labels]
    return -np.log(np.maximum(picked, LOSS_PROB_FLOOR))
