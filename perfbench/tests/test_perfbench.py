"""Self-tests of the benchmark, on the reduced-size smoke workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.bootstrap()

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--smoke")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    # The smoke references for seed 0 are recorded, so digests were compared
    # with them; the count lines are printed with their units either way.
    assert "reference: recorded" in proc.stdout
    assert re.search(r"^  failed_ratio +0\.0 ratio$", proc.stdout, re.M)
    assert re.search(r"^  digest_mismatches +0 count$", proc.stdout, re.M)
    assert re.search(r"^  unreferenced_invocations +0 count$", proc.stdout, re.M)
    assert any(line.startswith("env {") for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def good_outputs(tmp_path_factory):
    """One checked smoke pass of select_heavy: greedy and k-center outputs."""
    work = tmp_path_factory.mktemp("outputs")
    invs = workloads.invocations("select_heavy", "smoke")
    workloads.setup("select_heavy", "smoke", work / "inputs", 0)
    with run.Launcher(run.child_env()) as launcher:
        outcomes = run.run_pass(invs, work / "inputs", work / "out", launcher, {}, run.Clock())
    assert not any(o.failed for o in outcomes)
    return work, invs, {o.id: checks.expected_from(o) for o in outcomes}


def test_self_check_catches_every_tampering(good_outputs):
    work, invs, expected = good_outputs
    for inv in invs:
        missed = checks.self_check(inv, work / "out" / inv.id, work / "inputs", expected[inv.id], work)
        assert missed == [], (inv.id, missed)


def test_tampered_outputs_count_as_failures(good_outputs):
    work, invs, expected = good_outputs
    greedy, kcenter = invs[0], invs[2]

    out = work / "out" / greedy.id
    outcome = checks.Outcome(id=greedy.id, exit_code=0)
    checks.check_outputs(greedy, out, work / "inputs", outcome, expected[greedy.id])
    assert not outcome.failed and not outcome.digest_mismatch

    wrong_objective = dict(expected[greedy.id], objective=expected[greedy.id]["objective"] + 1e-3)
    outcome = checks.Outcome(id=greedy.id, exit_code=0)
    checks.check_outputs(greedy, out, work / "inputs", outcome, wrong_objective)
    assert outcome.failed

    wrong_digest = dict(expected[greedy.id], digest="0" * 32)
    outcome = checks.Outcome(id=greedy.id, exit_code=0)
    checks.check_outputs(greedy, out, work / "inputs", outcome, wrong_digest)
    assert outcome.digest_mismatch and not outcome.failed

    wrong_radius = dict(expected[kcenter.id], radius=expected[kcenter.id]["radius"] * 0.5)
    outcome = checks.Outcome(id=kcenter.id, exit_code=0)
    checks.check_outputs(kcenter, work / "out" / kcenter.id, work / "inputs", outcome, wrong_radius)
    assert outcome.failed

    outcome = checks.Outcome(id=greedy.id, exit_code=3)
    checks.check_outputs(greedy, out, work / "inputs", outcome, expected[greedy.id])
    assert outcome.failed


def test_reference_from_another_platform_still_checks_values(good_outputs):
    work, invs, expected = good_outputs
    greedy = invs[0]
    other = checks.Reference(expected, same_platform=False)
    recorded = dict(other.expected()[greedy.id], objective=expected[greedy.id]["objective"] * (1 + 1e-8))
    assert recorded["digest"] is None

    outcome = checks.Outcome(id=greedy.id, exit_code=0)
    checks.check_outputs(greedy, work / "out" / greedy.id, work / "inputs", outcome, recorded)
    assert outcome.failed and not outcome.digest_mismatch

    # Values the run lacks are taken from a pass, so later passes must
    # reproduce that pass's digest.
    first = checks.Outcome(id=greedy.id, exit_code=0, digest="f" * 32, objective=1.0)
    done = checks.completed(other.expected(), [first])
    assert done[greedy.id]["digest"] == "f" * 32
    assert done[greedy.id]["objective"] == expected[greedy.id]["objective"]


def test_seed_without_reference_says_so():
    proc = _run("--workload", "select_heavy", "--seed", "999", "--seconds", "1", "--trace", "0", "--smoke")
    result = _result(proc)
    assert result["correct"] is True, proc.stdout
    assert "reference: none recorded for seed 999" in proc.stdout
    assert re.search(rf"^  unreferenced_invocations +{result['attempted']} count$", proc.stdout, re.M)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "gauss_dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
