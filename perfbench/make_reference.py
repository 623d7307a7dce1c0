#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py --mode full --seeds 0-63
    python3 perfbench/make_reference.py --mode smoke --seeds 0-3

For each workload and seed this writes the inputs, runs every `prune`
invocation once as its own process (the same path `run.py` times), checks
the outputs structurally, and stores the blake2b digest of `selected.txt`,
the report's `objective_value` (greedy methods) and the covering radius
(k-center) in `reference.json`. Entries for other seeds and modes are kept.
Run it only on a commit whose outputs are the intended ones: the reference
pins them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("full", "smoke"), required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 1,5,9")
    args = parser.parse_args()

    run.bootstrap()
    import checks
    import workloads

    table = checks.read_reference_table()
    if table.get("platform") != checks.platform_key():
        table = {}  # references from another platform cannot be compared here
    table["platform"] = checks.platform_key()
    for workload in workloads.WORKLOADS:
        invs = workloads.invocations(workload, args.mode)
        for seed in parse_seeds(args.seeds):
            run_dir = run.WORK / f"reference-{workload}-{args.mode}-{seed}-pid{os.getpid()}"
            try:
                workloads.setup(workload, args.mode, run_dir / "inputs", seed)
                with run.Launcher(run.child_env()) as launcher:
                    outcomes = run.run_pass(
                        invs, run_dir / "inputs", run_dir / "out", launcher, {}, run.Clock()
                    )
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            failed = [f"{o.id}: {f}" for o in outcomes for f in o.failures]
            if failed:
                raise SystemExit(f"{workload} seed {seed} failed its checks: {failed}")
            table.setdefault(args.mode, {}).setdefault(workload, {})[str(seed)] = {
                o.id: checks.expected_from(o) for o in outcomes
            }
            print(f"{workload} seed {seed}: " + ", ".join(f"{o.id} {o.wall_s:.2f}s" for o in outcomes), flush=True)
            checks.REFERENCE_FILE.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
