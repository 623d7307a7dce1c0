#!/usr/bin/env python3
"""Layered benchmark of `neighborprune prune`.

    python3 perfbench/run.py --workload gauss_dense --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is the package in `src/` next to
this directory, never an installed copy. `--trace 0` spawns one process per
`prune` invocation, exactly as a user runs it, and reports the end-to-end
metrics. `--trace 1` also replays the same invocations in-process with one
span per layer call and reports the per-layer metrics. `--smoke` shrinks
every workload for the benchmark's own tests.

Invocations run one after another from this single process (a closed loop
with one client). No BLAS or OpenMP thread variable is set here, so the
program runs with whatever the environment gives it; the values are
recorded in the environment block. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One set-up takes well under 0.1 s and drifts with the machine's speed by
# tens of percent over a minute, so set-ups are repeated in batches of at
# least this many and this long: one before the first pass and one after
# each untraced pass, and setup_s is the median over all of them.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
IMPORT_REPEATS = 3
# Every run ends well inside 180 s: no repetition starts that is predicted
# to end past this budget, and a hung invocation is killed at it.
RUN_BUDGET_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENTRY = (
    "import sys; from neighborprune.cli import entrypoint; "
    "sys.argv[0] = 'neighborprune'; entrypoint()"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import neighborprune.cli; "
    "print(repr(time.perf_counter() - t))"
)

# The metrics and their units are the ones BENCHMARK.json lists.
SPEC = ROOT / "BENCHMARK.json"
# Printed on their own lines: they read zero on a correct build, so they are
# carried by `failed` and `correct` rather than by the metrics object.
# unreferenced_invocations counts the checked invocations of a seed that has
# no recorded reference: their outputs were compared with the run's own
# first pass only.
COUNT_UNITS = {
    "failed_ratio": "ratio",
    "digest_mismatches": "count",
    "unreferenced_invocations": "count",
}


def bootstrap() -> None:
    """Put the checkout's `src/` first on the import path, or stop.

    The benchmark's modules that import the program (workloads, checks,
    spans) are imported inside functions, after this has run."""
    if not (SRC / "neighborprune" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'neighborprune'}")
    sys.path.insert(0, str(SRC))
    import neighborprune

    if Path(neighborprune.__file__).resolve().parent != SRC / "neighborprune":
        raise SystemExit(f"error: imported neighborprune from {neighborprune.__file__}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Clock:
    """Seconds since the run started, and what is left of its budget."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return RUN_BUDGET_S - self.elapsed()


class Launcher:
    """The small helper process that starts and times every `prune` process
    (launcher.py says why this process must not fork them itself)."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def run(self, argv: list[str], cwd: Path, err_path: Path, timeout: float) -> dict:
        request = {
            "argv": argv,
            "env": self.env,
            "cwd": str(cwd),
            "stderr": str(err_path),
            "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            # Still inside an invocation: stop it and the launcher together.
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def run_pass(invs, input_dir, out_root, launcher, expected, clock):
    """One untraced pass: every invocation as its own process, timed from
    spawn to exit; outputs checked after all of them finished."""
    import checks

    outcomes = []
    for inv in invs:
        out_dir = out_root / inv.id
        out_dir.mkdir(parents=True, exist_ok=True)
        timed = launcher.run(
            [sys.executable, "-c", ENTRY, *inv.argv(input_dir, out_dir)],
            out_root,
            out_root / f"{inv.id}.stderr",
            clock.left(),
        )
        outcomes.append(checks.Outcome(id=inv.id, **timed))
    for inv, outcome in zip(invs, outcomes):
        checks.check_outputs(inv, out_root / inv.id, input_dir, outcome, expected.get(inv.id))
        if outcome.exit_code != 0:
            tail = (out_root / f"{inv.id}.stderr").read_text(errors="replace").strip()
            outcome.failures.append(tail.splitlines()[-1] if tail else "no stderr")
    return outcomes


@dataclass
class Setups:
    """Repeated generation of one workload's inputs from one seed."""

    workload: str
    mode: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    generate_s: list[float] = field(default_factory=list)
    digests: set = field(default_factory=set)

    def batch(self, input_dir: Path) -> None:
        """Write the inputs to `input_dir` over and over (at least
        SETUP_REPEATS times and SETUP_SECONDS long)."""
        import checks
        import workloads

        count, spent = 0, 0.0
        while count < SETUP_REPEATS or spent < SETUP_SECONDS:
            shutil.rmtree(input_dir, ignore_errors=True)
            start = time.perf_counter()
            self.generate_s.append(workloads.setup(self.workload, self.mode, input_dir, self.seed))
            self.setup_s.append(time.perf_counter() - start)
            self.digests.add(tuple(checks.digest(p) for p in sorted(input_dir.iterdir())))
            count, spent = count + 1, spent + self.setup_s[-1]

    def errors(self) -> list[str]:
        return [] if len(self.digests) == 1 else ["set-up wrote different files for one seed"]


def import_seconds(env, cwd, clock, repeats=IMPORT_REPEATS) -> list[float]:
    """Time `import neighborprune.cli` inside fresh interpreters."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=max(clock.left(), 1.0),
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: importing neighborprune.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip()))
    return times


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(invs) -> dict:
    import numpy as np
    import scipy

    import checks

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": checks.blas_build(),
        "platform": checks.platform_key(),
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "invocations": [inv.describe() for inv in invs],
    }


def measure_untraced(invs, input_dir, out_root, launcher, expected, seconds, clock, setups):
    """Repeat untraced passes, each followed by a batch of set-ups, while
    the next one is predicted to finish within `seconds` (at least one).
    What `expected` lacks (everything for a seed without a reference, the
    digests on another platform) is taken from the first pass, so later
    passes must reproduce it."""
    import checks

    passes = []
    start = time.perf_counter()
    while True:
        outcomes = run_pass(
            invs, input_dir, out_root / f"pass{len(passes)}", launcher, expected, clock
        )
        passes.append(outcomes)
        setups.batch(out_root / "setup")
        if len(passes) == 1:
            expected = checks.completed(expected, outcomes)
        spent = time.perf_counter() - start
        per_pass = spent / len(passes)
        if spent + per_pass > seconds or per_pass > clock.left() - 10.0:
            return passes, expected


def self_check_failures(invs, out_root, input_dir, expected, scratch) -> list[str]:
    """Fault injection on the first pass's good outputs: every tampered copy
    must be caught by the output checks."""
    import checks

    missed = []
    for inv in invs:
        if inv.id in expected and (out_root / inv.id / "selected.txt").is_file():
            missed += [
                f"{inv.id}: {name}"
                for name in checks.self_check(inv, out_root / inv.id, input_dir, expected[inv.id], scratch)
            ]
    return missed


def end_to_end(passes, setups) -> dict[str, float]:
    return {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "peak_rss_mb": statistics.median(max(o.maxrss_kb for o in p) / 1024 for p in passes),
        "setup_s": statistics.median(setups.setup_s),
    }


def measure_traced(invs, input_dir, out_root, expected, seconds, clock):
    """In-process passes, each invocation run untraced and then traced,
    under the same repetition rule. Returns the per-pass layer metrics, the
    tracers, the outcomes and any trace errors."""
    import checks
    import spans

    results, tracers, outcomes, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer()
        pass_dir = out_root / f"traced{len(results)}"
        plain_dir = out_root / f"plain{len(results)}"
        rep = spans.replay(invs, input_dir, pass_dir, plain_dir, tracer)
        for inv in invs:
            plain = checks.Outcome(id=inv.id, exit_code=rep.plain_exit_codes[inv.id])
            checks.check_outputs(inv, plain_dir / inv.id, input_dir, plain, expected.get(inv.id))
            outcome = checks.Outcome(id=inv.id, exit_code=rep.exit_codes[inv.id])
            checks.check_outputs(inv, pass_dir / inv.id, input_dir, outcome, expected.get(inv.id))
            replayed = rep.replay_objective.get(inv.id)
            if replayed is not None and outcome.objective is not None:
                if not checks.close(replayed, outcome.objective):
                    outcome.failures.append(
                        f"objective replayed through SelectionState.add is {replayed!r}, "
                        f"report says {outcome.objective!r}"
                    )
            outcomes += [plain, outcome]
        errors += spans.accounting_errors(tracer) + spans.graph_errors(rep, invs)
        results.append(spans.layer_metrics(rep, invs))
        tracers.append(tracer)
        spent = time.perf_counter() - start
        per_pass = spent / len(results)
        if spent + per_pass > seconds or per_pass > clock.left() - 10.0:
            return results, tracers, outcomes, errors


def reference_status(ref, mode, workload, seed) -> str:
    import checks

    if ref is None:
        seeds = checks.recorded_seeds(mode, workload)
        span = f"{len(seeds)} in {seeds[0]}-{seeds[-1]}" if seeds else "none"
        return (
            f"none recorded for seed {seed} (recorded {mode} seeds: {span}); "
            "outputs compared with this run's first pass only"
        )
    if ref.same_platform:
        return "recorded; digests, objective values and radii compared"
    return (
        f"recorded on another platform ({checks.read_reference_table().get('platform')}); "
        "objective values and radii compared, digests with this run's first pass"
    )


def print_report(args, mode, n_invocations, n_passes, status, shown, units, outcomes, errors):
    """Every metric by name and unit, then every failed check."""
    print(
        f"workload {args.workload} ({mode}) seed {args.seed} trace {args.trace}: "
        f"{n_passes} untraced pass(es) of {n_invocations} invocation(s); reference: {status}"
    )
    for name, value in shown.items():
        print(f"  {name:<26} {value!r} {units[name]}")
    for outcome in outcomes:
        for failure in outcome.failures:
            print(f"  FAILED {outcome.id}: {failure}")
        if outcome.digest_mismatch:
            print(f"  DIGEST MISMATCH {outcome.id}: {outcome.digest}")
    for error in errors:
        print(f"  ERROR {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for self-tests")
    args = parser.parse_args(argv)

    # Turn a termination request into a normal exit, so the launcher and any
    # running invocation are stopped by the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bootstrap()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(COUNT_UNITS)
    clock = Clock()
    mode = "smoke" if args.smoke else "full"
    invs = workloads.invocations(args.workload, mode)
    run_dir = WORK / f"{args.workload}-{mode}-seed{args.seed}-pid{os.getpid()}"
    input_dir = run_dir / "inputs"
    env = child_env()
    result: dict = {"workload": args.workload, "seed": args.seed, "mode": mode, "trace": args.trace}
    try:
        setups = Setups(args.workload, mode, args.seed)
        setups.batch(input_dir)
        ref = checks.load_reference(mode, args.workload, args.seed)
        expected = ref.expected() if ref else {}
        # Warm the interpreter's bytecode and the OS file cache: users do
        # not pay these on every run.
        import_seconds(env, run_dir, clock, repeats=1)

        with Launcher(env) as launcher:
            passes, expected = measure_untraced(
                invs,
                input_dir,
                run_dir / "untraced",
                launcher,
                expected,
                args.seconds if args.trace == 0 else 0.0,
                clock,
                setups,
            )
        missed = self_check_failures(invs, run_dir / "untraced" / "pass0", input_dir, expected, run_dir)
        errors = setups.errors() + [f"self-check did not catch: {m}" for m in missed]
        outcomes = [o for p in passes for o in p]
        e2e = end_to_end(passes, setups)

        if args.trace == 1:
            import_s = statistics.median(import_seconds(env, run_dir, clock))
            per_pass, tracers, traced_outcomes, trace_errors = measure_traced(
                invs, input_dir, run_dir / "traced", expected, args.seconds, clock
            )
            outcomes += traced_outcomes
            errors += trace_errors
            layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
            layers["cli.import_s"] = import_s
            layers["verify.generate_s"] = statistics.median(setups.generate_s)
            metrics = {name: layers[name] for name in listed}
            result["spans"] = [t.as_records() for t in tracers]
        else:
            metrics = {name: e2e[name] for name in listed}

        attempted = len(outcomes)
        failed = sum(o.failed for o in outcomes)
        mismatches = sum(o.digest_mismatch for o in outcomes)
        counts = {
            "failed_ratio": failed / attempted,
            "digest_mismatches": mismatches,
            "unreferenced_invocations": 0 if ref else attempted,
        }
        correct = failed == 0 and mismatches == 0 and not errors
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    shown = {**e2e, **counts, **metrics}
    status = reference_status(ref, mode, args.workload, args.seed)
    print_report(args, mode, len(invs), len(passes), status, shown, units, outcomes, errors)
    env_block = environment(invs)
    print("env " + json.dumps(env_block, sort_keys=True))

    result.update(
        reference=status,
        env=env_block,
        end_to_end=e2e,
        counts=counts,
        metrics=metrics,
        errors=errors,
        outcomes=[vars(o) for o in outcomes],
    )
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{mode}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
