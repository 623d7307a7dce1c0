"""Log-log slopes of `run_scaling_benchmark` rows, for criterion 9."""

import numpy as np


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
