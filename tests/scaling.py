"""Selection-phase scaling measurements and their log-log slopes, for
criterion 9."""

import time
from functools import partial

import numpy as np

from neighborprune.selectors import resolve_budget, select_kcenter_greedy
from neighborprune.similarity import build_graph
from neighborprune.verify import _greedy

SCALING_METHODS = ("prune4rel", "kcenter_greedy")


def run_scaling_benchmark(
    m_list, *, d: int, ratio: float, repeat: int, seed: int, tau: float, methods
) -> list[dict]:
    """Selection-phase seconds per (m, method); best of `repeat` runs.

    The confidence greedy runs eagerly so the measured per-step cost is the
    full candidate scan plus the neighborhood update, which is the cost model
    the near-linear claim is about; graph build time is excluded from the
    reported seconds (it is a one-off, and the claim is per selection step).
    The greedy is timed through run_selection, whose checks and report add
    O(m) work: about 2-3 ms of a 6-9 s run at m = 40 000, s = 20 000 (two
    cores of a shared host).
    """
    rows = []
    for m in m_list:
        rng = np.random.default_rng(seed + int(m))
        emb = rng.standard_normal((int(m), d))
        conf = rng.uniform(0.0, 1.0, size=int(m))
        s = resolve_budget(float(ratio), int(m))
        for method in methods:
            if method == "prune4rel":
                graph = build_graph(emb, tau)
                run = partial(_greedy, graph, conf, s, lazy=False)
            elif method == "kcenter_greedy":
                run = partial(select_kcenter_greedy, emb, s, seed=seed)
            else:
                raise ValueError(f"benchmark does not cover method {method!r}")
            best = np.inf
            for _ in range(max(1, repeat)):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            rows.append(
                {"m": int(m), "method": method, "seconds": float(best), "s": s}
            )
    return rows


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
