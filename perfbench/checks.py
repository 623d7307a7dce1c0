"""Output checks for one `prune` invocation, reference values, and the
fault-injection self-check that proves the checks can fail.

Checks run after timing stops. An invocation fails when it exits nonzero
or any check below fails; a digest that differs from the reference is
counted separately as a digest mismatch.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Invocation

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Objective values and covering radii must match the reference within this
# relative tolerance, on any platform. Forcing other OpenBLAS kernels and
# numpy SIMD targets left them bit-identical, while replacing one selected
# example moves an objective by 5e-10 to 5e-5 (perfbench/README.md, "Output
# checks and references"); the tolerance sits between the two.
REL_TOL = 1e-9


def digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def close(value: float, expected: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def blas_kernel() -> str:
    """The OpenBLAS core chosen at run time (a DYNAMIC_ARCH build picks one
    per CPU), read from the library this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        # numpy's wheels bundle OpenBLAS with renamed symbols.
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def numpy_simd() -> str:
    """The highest SIMD target numpy dispatches its loops to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    used = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return used[-1] if used else "baseline"


def platform_key() -> str:
    """What byte-stable outputs depend on besides the code: the BLAS build
    and kernel, and numpy with the SIMD target it runs. Digests recorded
    under another key are not compared."""
    return f"{blas_build()} kernel {blas_kernel()}; numpy {np.__version__} {numpy_simd()}"


def read_reference_table() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


@dataclass
class Reference:
    """The recorded reference of one workload and seed: per invocation id,
    its digest, objective value and covering radius."""

    entries: dict[str, dict]
    same_platform: bool

    def expected(self) -> dict[str, dict]:
        """What outputs are compared with before the run has outputs of its
        own: everything on the recording platform, values only elsewhere."""
        return {
            inv_id: dict(entry, digest=entry["digest"] if self.same_platform else None)
            for inv_id, entry in self.entries.items()
        }


def load_reference(mode: str, workload: str, seed: int) -> Reference | None:
    """The reference recorded for this seed, or None when there is none."""
    table = read_reference_table()
    entries = table.get(mode, {}).get(workload, {}).get(str(seed))
    if entries is None:
        return None
    return Reference(entries, table.get("platform") == platform_key())


def recorded_seeds(mode: str, workload: str) -> list[int]:
    return sorted(int(seed) for seed in read_reference_table().get(mode, {}).get(workload, {}))


def covering_radius(emb_path: Path, selected: np.ndarray) -> float:
    """Largest distance from any example to its nearest selected center,
    the quantity k-center greedy minimises."""
    from neighborprune.dataset import load_matrix

    emb = load_matrix(emb_path)
    centers = emb[selected]
    center_sq = np.einsum("ij,ij->i", centers, centers)
    worst = 0.0
    for lo in range(0, emb.shape[0], 2048):
        block = emb[lo : lo + 2048]
        block_sq = np.einsum("ij,ij->i", block, block)
        sq = block_sq[:, None] - 2.0 * (block @ centers.T) + center_sq[None, :]
        worst = max(worst, float(np.max(np.min(sq, axis=1))))
    return math.sqrt(max(worst, 0.0))


@dataclass
class Outcome:
    """What one invocation produced and which checks it failed."""

    id: str
    wall_s: float = 0.0
    maxrss_kb: int = 0
    exit_code: int | None = None
    failures: list[str] = field(default_factory=list)
    digest: str | None = None
    objective: float | None = None
    radius: float | None = None
    digest_mismatch: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def _read_selected(path: Path, failures: list[str]) -> np.ndarray | None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        failures.append(f"selected.txt unreadable: {exc}")
        return None
    if not text.endswith("\n"):
        failures.append("selected.txt does not end with a newline")
        return None
    try:
        return np.array([int(line) for line in text[:-1].split("\n")], dtype=np.int64)
    except ValueError:
        failures.append("selected.txt holds a line that is not an integer")
        return None


def check_outputs(
    inv: Invocation,
    out_dir: Path,
    input_dir: Path,
    outcome: Outcome,
    expected: dict | None,
) -> None:
    """Fill `outcome` with the checked values and every failed check.

    `expected` holds the digest, objective and radius this invocation's
    outputs must reproduce (a None value is not compared), or is None when
    there is nothing to compare against.
    """
    failures = outcome.failures
    if outcome.exit_code != 0:
        failures.append(f"exit code {outcome.exit_code}")
        return
    selected = _read_selected(out_dir / "selected.txt", failures)
    if selected is None:
        return
    if selected.size != inv.s:
        failures.append(f"{selected.size} indices selected, expected {inv.s}")
    if selected.size and (selected.min() < 0 or selected.max() >= inv.m):
        failures.append(f"index out of range [0, {inv.m})")
    if np.unique(selected).size != selected.size:
        failures.append("duplicate indices in selected.txt")
    outcome.digest = digest(out_dir / "selected.txt")

    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        failures.append(f"report.json unreadable: {exc}")
        return
    if report.get("selected_count") != inv.s:
        failures.append(f"report selected_count {report.get('selected_count')} != {inv.s}")
    if inv.uses_graph:
        value = report.get("objective_value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"objective_value {value!r} is not a finite number")
        else:
            outcome.objective = float(value)
    elif inv.method == "kcenter_greedy" and not failures:
        emb_file = dict(inv.inputs)["--embeddings"]
        outcome.radius = covering_radius(input_dir / emb_file, selected)

    if expected is None:
        return
    for key, name, value in (
        ("objective", "objective_value", outcome.objective),
        ("radius", "covering radius", outcome.radius),
    ):
        want = expected.get(key)
        if value is not None and want is not None and not close(value, want):
            failures.append(f"{name} {value!r} != reference {want!r}")
    if expected.get("digest") is not None:
        outcome.digest_mismatch = outcome.digest != expected["digest"]


def expected_from(outcome: Outcome) -> dict:
    """Reference entry recorded from an invocation that passed its checks."""
    return {"digest": outcome.digest, "objective": outcome.objective, "radius": outcome.radius}


def completed(expected: dict[str, dict], outcomes: list[Outcome]) -> dict[str, dict]:
    """`expected` with every value it lacks taken from a pass's good
    outputs, so that later passes must reproduce that pass."""
    done = {inv_id: dict(entry) for inv_id, entry in expected.items()}
    for outcome in outcomes:
        if outcome.failed:
            continue
        entry = done.setdefault(outcome.id, {})
        for key, value in expected_from(outcome).items():
            if entry.get(key) is None:
                entry[key] = value
    return done


def self_check(
    inv: Invocation, out_dir: Path, input_dir: Path, expected: dict, scratch: Path
) -> list[str]:
    """Tamper with a copy of good outputs and confirm each tampering is
    caught. Returns the tamperings that went unnoticed (empty when the
    checks work)."""
    lines = (out_dir / "selected.txt").read_text(encoding="utf-8").split("\n")[:-1]
    tampered = {
        "duplicate index": lines[:-1] + [lines[0]],
        "index out of range": lines[:-1] + [str(inv.m)],
        "one index missing": lines[:-1],
    }
    if len(lines) > 1:
        tampered["selection order swapped"] = [lines[1], lines[0]] + lines[2:]
    missed = []
    for name, new_lines in tampered.items():
        target = _copy_outputs(out_dir, scratch / "tamper")
        (target / "selected.txt").write_text("\n".join(new_lines) + "\n", encoding="utf-8")
        if not _caught(inv, target, input_dir, expected):
            missed.append(name)
    if inv.uses_graph:
        target = _copy_outputs(out_dir, scratch / "tamper")
        report = json.loads((target / "report.json").read_text(encoding="utf-8"))
        report["objective_value"] = report["objective_value"] * (1.0 + 1e-6)
        (target / "report.json").write_text(json.dumps(report), encoding="utf-8")
        if not _caught(inv, target, input_dir, expected):
            missed.append("objective changed")
    shutil.rmtree(scratch / "tamper", ignore_errors=True)
    return missed


def _copy_outputs(out_dir: Path, target: Path) -> Path:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(out_dir, target)
    return target


def _caught(inv: Invocation, out_dir: Path, input_dir: Path, expected: dict) -> bool:
    probe = Outcome(id=inv.id, exit_code=0)
    check_outputs(inv, out_dir, input_dir, probe, expected)
    return probe.failed or probe.digest_mismatch
