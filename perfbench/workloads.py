"""Workload definitions: input generation from a seed, and the `prune`
invocations one run of each workload makes.

The program only ever sees the files written here; the seed stays on the
benchmark's side.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from neighborprune.dataset import save_labels, save_matrix

WORKLOADS = ("gauss_dense", "clustered_sweep", "select_heavy")

# Full sizes follow the workload definitions in perfbench/README.md; smoke
# sizes keep every code path but finish in seconds, for the benchmark's
# own tests.
SIZES = {
    "full": {
        "gauss_dense": {"m": 40_000, "d": 32},
        "clustered_sweep": {"points_per_class": 2_000},
        "select_heavy": {"m": 20_000, "d": 32, "m_kcenter": 10_000},
    },
    "smoke": {
        "gauss_dense": {"m": 2_000, "d": 32},
        "clustered_sweep": {"points_per_class": 100},
        "select_heavy": {"m": 1_000, "d": 32, "m_kcenter": 500},
    },
}

GAUSS_TAU = 0.5
SWEEP_RATIOS = (0.2, 0.4, 0.6, 0.8)


def budget(ratio: float, m: int) -> int:
    """Round-half-up subset size, computed independently of the program."""
    return int(np.floor(ratio * m + 0.5))


@dataclass(frozen=True)
class Invocation:
    """One `neighborprune prune` call: its inputs, flags and sizes."""

    id: str
    method: str
    ratio: float
    m: int
    d: int
    tau: float | None
    inputs: tuple[tuple[str, str], ...]  # (flag, file name in the input dir)
    flags: tuple[str, ...] = ()

    @property
    def s(self) -> int:
        return budget(self.ratio, self.m)

    @property
    def uses_graph(self) -> bool:
        return self.method in ("prune4rel", "prune4rel_balanced")

    def argv(self, input_dir: Path, out_dir: Path) -> list[str]:
        args = ["prune", "--method", self.method, "--ratio", repr(self.ratio)]
        for flag, name in self.inputs:
            args += [flag, str(input_dir / name)]
        if self.tau is not None:
            args += ["--tau", repr(self.tau)]
        return args + list(self.flags) + ["--out", str(out_dir)]

    def describe(self) -> dict:
        return {
            "id": self.id,
            "method": self.method,
            "m": self.m,
            "d": self.d,
            "tau": self.tau,
            "s": self.s,
            "ratio": self.ratio,
            "flags": list(self.flags),
        }


def _write_confidence(path: Path, values: np.ndarray) -> None:
    # repr round-trips float64 exactly through the program's text parser.
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")


EXTERNAL_INPUTS = (("--embeddings", "emb.bin"), ("--confidence-file", "conf.txt"))
EXTERNAL_FLAGS = ("--confidence-metric", "external")


def _gauss_dense(input_dir: Path, seed: int, m: int, d: int) -> float:
    rng = np.random.default_rng(seed)
    save_matrix(input_dir / "emb.bin", rng.standard_normal((m, d)))
    _write_confidence(input_dir / "conf.txt", rng.uniform(0.0, 1.0, size=m))
    return 0.0


def _clustered_sweep(input_dir: Path, seed: int, points_per_class: int) -> float:
    from neighborprune.verify import TREND_SYNTH, SynthConfig, generate_synthetic

    config = SynthConfig(
        **dict(TREND_SYNTH, points_per_class=points_per_class), seed=seed
    )
    start = time.perf_counter()
    dataset = generate_synthetic(config)
    generate_s = time.perf_counter() - start
    save_matrix(input_dir / "emb.bin", dataset.embeddings)
    save_matrix(input_dir / "probs.bin", dataset.probabilities)
    save_labels(input_dir / "labels.txt", dataset.noisy_labels)
    return generate_s


def _select_heavy(input_dir: Path, seed: int, m: int, d: int, m_kcenter: int) -> float:
    rng = np.random.default_rng(seed)
    save_matrix(input_dir / "emb.bin", rng.standard_normal((m, d)))
    _write_confidence(input_dir / "conf.txt", rng.uniform(0.0, 1.0, size=m))
    save_matrix(input_dir / "emb_kc.bin", rng.standard_normal((m_kcenter, d)))
    return 0.0


def setup(workload: str, mode: str, input_dir: Path, seed: int) -> float:
    """Write the workload's input files; returns the seconds spent inside
    `verify.generate_synthetic` (0 for workloads that do not use it)."""
    input_dir.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[mode][workload]
    make = {
        "gauss_dense": _gauss_dense,
        "clustered_sweep": _clustered_sweep,
        "select_heavy": _select_heavy,
    }[workload]
    return make(input_dir, seed, **sizes)


def invocations(workload: str, mode: str) -> list[Invocation]:
    """The `prune` calls one run of the workload makes, in order."""
    sizes = SIZES[mode][workload]
    if workload == "gauss_dense":
        return [
            Invocation(
                id="prune4rel",
                method="prune4rel",
                ratio=0.5,
                m=sizes["m"],
                d=sizes["d"],
                tau=GAUSS_TAU,
                inputs=EXTERNAL_INPUTS,
                flags=EXTERNAL_FLAGS + ("--threads", "2"),
            )
        ]
    if workload == "clustered_sweep":
        from neighborprune.verify import TREND_SYNTH, TREND_TAU

        base = Invocation(
            id="",
            method="prune4rel",
            ratio=0.0,
            m=TREND_SYNTH["num_classes"] * sizes["points_per_class"],
            d=TREND_SYNTH["embedding_dim"],
            tau=TREND_TAU,
            inputs=(
                ("--embeddings", "emb.bin"),
                ("--probs", "probs.bin"),
                ("--labels", "labels.txt"),
            ),
        )
        sweep = [
            dataclasses.replace(base, id=f"prune4rel_r{r}", ratio=r) for r in SWEEP_RATIOS
        ]
        balanced = dataclasses.replace(
            base, id="prune4rel_balanced_r0.2", method="prune4rel_balanced", ratio=0.2
        )
        return sweep + [balanced]
    if workload == "select_heavy":
        m, d = sizes["m"], sizes["d"]
        greedy = Invocation(
            id="",
            method="prune4rel",
            ratio=0.5,
            m=m,
            d=d,
            tau=GAUSS_TAU,
            inputs=EXTERNAL_INPUTS,
        )
        return [
            dataclasses.replace(
                greedy, id="prune4rel_exact", flags=EXTERNAL_FLAGS + ("--gain-mode", "exact")
            ),
            dataclasses.replace(greedy, id="prune4rel_eager", flags=EXTERNAL_FLAGS + ("--eager",)),
            Invocation(
                id="kcenter_greedy",
                method="kcenter_greedy",
                ratio=0.5,
                m=sizes["m_kcenter"],
                d=d,
                tau=None,
                inputs=(("--embeddings", "emb_kc.bin"),),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
