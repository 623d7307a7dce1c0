"""Command-line front end: ingestion -> graph -> selection -> reports.

Subcommands: prune (run any selector and write the subset), eval (subset
statistics from files), synth (write a synthetic dataset), verify (run the
property suite), bench (scaling measurements). Every failure path exits
nonzero with a single-line, greppable prefix: E_ARG (2) for bad or missing
flags, E_FORMAT (3) for malformed input files, E_GUARD (4) for tripped
resource guards. All randomness flows from --seed; outputs are byte-stable
across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    CONFIDENCE_METRICS,
    FormatError,
    compute_confidence,
    load_external_confidence,
    load_labels,
    load_matrix,
    load_probabilities,
    load_scores,
    save_labels,
    save_matrix,
)
from .objective import UTILITY_KINDS, Utility
from .selectors import (
    METHOD_TABLE,
    METHODS,
    TAU_PRESETS,
    PruneReport,
    SelectorConfig,
    load_selected,
    requirement_error,
    resolve_budget,
    run_selection,
    write_selected,
)
from .similarity import DEFAULT_EDGE_CAP, GuardError, build_graph
from . import verify as verify_mod


class CliError(Exception):
    """Bad command-line usage; maps to E_ARG / exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str]
    outputs: list[str]
    timings: dict[str, float]
    version: str = __version__

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")


def _input_digests(paths: dict[str, str | None]) -> dict[str, str]:
    return {
        name: hashlib.blake2b(Path(path).read_bytes(), digest_size=8).hexdigest()
        for name, path in paths.items() if path is not None
    }


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------

# Selector input (see selectors.METHOD_TABLE) -> the prune flag supplying it.
# The greedy's confidence comes from --confidence-file instead when
# --confidence-metric is external.
INPUT_FLAGS = {
    "embeddings": "--embeddings",
    "graph": "--tau",
    "confidence": "--probs",
    "noisy_labels": "--labels",
    "probabilities": "--probs",
    "scores": "--scores",
}


def method_inputs_help() -> str:
    """The flags each method reads, one method per line, from the table."""
    lines = ["method inputs (--tau may come from --preset):"]
    for method, spec in METHOD_TABLE.items():
        text = " + ".join(INPUT_FLAGS[name] for name in spec.inputs) or "(none)"
        if spec.direction is not None and "scores" not in spec.inputs:
            text += ", or --scores"
        lines.append(f"  {method:<20}{text}")
    lines.append(
        "greedy confidence: --probs with --confidence-metric max_prob|diff_prob,"
    )
    lines.append("  or --confidence-file with --confidence-metric external")
    return "\n".join(lines)


def _add_prune_parser(sub) -> None:
    p = sub.add_parser(
        "prune",
        help="select a subset and write indices + report",
        epilog=method_inputs_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--embeddings", required=True, help="embedding matrix file")
    p.add_argument("--embeddings-format", choices=("binary", "csv"), default="binary")
    p.add_argument("--method", required=True, choices=METHODS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--size", type=int, help="subset size")
    group.add_argument("--ratio", type=float, help="selection ratio in (0, 1]")
    p.add_argument("--probs", help="class-probability matrix file")
    p.add_argument("--probs-format", choices=("binary", "csv"), default="binary")
    p.add_argument("--labels", help="noisy labels file")
    p.add_argument("--scores", help="auxiliary score file")
    p.add_argument(
        "--confidence-file", help="external per-example confidence file"
    )
    p.add_argument(
        "--confidence-metric", choices=CONFIDENCE_METRICS, default="max_prob"
    )
    p.add_argument("--tau", type=float, help="neighborhood threshold")
    p.add_argument(
        "--preset",
        choices=tuple(TAU_PRESETS),
        help="named tau preset (overridden by an explicit --tau)",
    )
    p.add_argument("--utility", choices=UTILITY_KINDS, default="tanh")
    p.add_argument("--gain-mode", choices=("paper", "exact"), default="paper")
    p.add_argument("--eager", action="store_true", help="disable lazy evaluation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=int, default=1,
        help="no effect; OPENBLAS_NUM_THREADS caps the graph build's BLAS threads",
    )
    p.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_CAP)
    p.add_argument("--out", required=True, help="output directory")


def cmd_prune(args) -> int:
    method = args.method
    spec = METHOD_TABLE[method]
    needs_graph = "graph" in spec.inputs
    tau = args.tau
    if tau is None and args.preset:
        tau = TAU_PRESETS[args.preset]
    flags = dict(INPUT_FLAGS)
    if args.confidence_metric == "external":
        flags["confidence"] = "--confidence-file"
    values = vars(args) | {"tau": tau}  # argparse keeps --foo-bar as foo_bar
    supplied = {
        name for name, flag in flags.items()
        if values[flag[2:].replace("-", "_")] is not None
    }
    problem = requirement_error(method, supplied, spell=flags.get)
    if problem:
        raise CliError(problem)

    embeddings = load_matrix(args.embeddings, args.embeddings_format)
    probabilities = (
        load_probabilities(args.probs, args.probs_format) if args.probs else None
    )
    noisy_labels = load_labels(args.labels) if args.labels else None
    scores = load_scores(args.scores) if args.scores else None
    confidence = None
    if needs_graph:
        if args.confidence_metric == "external":
            confidence = load_external_confidence(args.confidence_file)
        else:
            confidence = compute_confidence(probabilities, args.confidence_metric)

    budget = args.size if args.size is not None else args.ratio
    try:
        resolve_budget(budget, embeddings.shape[0])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    config = SelectorConfig(
        method=method,
        budget=budget,
        tau=tau,
        utility=Utility(args.utility),
        gain_mode="paper_faithful" if args.gain_mode == "paper" else "exact_marginal",
        lazy=not args.eager,
        seed=args.seed,
    )

    graph = None
    graph_build_s = 0.0
    if needs_graph:
        start = time.perf_counter()
        graph = build_graph(embeddings, tau, edge_cap=args.max_edges)
        graph_build_s = time.perf_counter() - start

    report = run_selection(
        config,
        embeddings=embeddings,
        noisy_labels=noisy_labels,
        probabilities=probabilities,
        confidence=confidence,
        scores=scores,
        graph=graph,
        graph_build_s=graph_build_s,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    selected_path = out_dir / "selected.txt"
    report_path = out_dir / "report.json"
    manifest_path = out_dir / "manifest.json"
    write_selected(selected_path, report.selected)
    report_path.write_text(report.to_json(), encoding="utf-8")
    manifest = RunManifest(
        command="prune",
        config=config.as_dict(),
        inputs=_input_digests(
            {
                "embeddings": args.embeddings,
                "probs": args.probs,
                "labels": args.labels,
                "scores": args.scores,
                "confidence_file": args.confidence_file,
            }
        ),
        outputs=[str(selected_path), str(report_path)],
        timings=report.timings,
    )
    manifest.write(manifest_path)
    print(
        f"selected {len(report.selected)} of {embeddings.shape[0]} examples "
        f"-> {selected_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _add_eval_parser(sub) -> None:
    p = sub.add_parser("eval", help="subset statistics from files")
    p.add_argument("--selected", required=True)
    p.add_argument("--noisy-labels", required=True)
    p.add_argument("--true-labels")
    p.add_argument("--out", help="also write the JSON to this file")


def cmd_eval(args) -> int:
    selected = load_selected(args.selected)
    noisy = load_labels(args.noisy_labels)
    outside = selected[(selected < 0) | (selected >= noisy.size)]
    if outside.size:
        raise FormatError(
            f"{args.selected}: index {int(outside[0])} out of range "
            f"for {noisy.size} labels"
        )
    if selected.size != np.unique(selected).size:
        raise FormatError(f"{args.selected}: duplicate indices")
    num_classes = int(noisy.max()) + 1
    per_class = np.bincount(noisy[selected], minlength=num_classes).tolist()
    noise_ratio = None
    if args.true_labels:
        truth = load_labels(args.true_labels)
        if truth.size != noisy.size:
            raise FormatError("label files disagree on length")
        noise_ratio = float(np.mean(noisy[selected] != truth[selected]))
    result = {
        "selected_count": int(selected.size),
        "per_class_counts": per_class,
        "noise_ratio": noise_ratio,
        "manifest": asdict(
            RunManifest(
                command="eval",
                config={"selected": args.selected},
                inputs=_input_digests(
                    {
                        "selected": args.selected,
                        "noisy_labels": args.noisy_labels,
                        "true_labels": args.true_labels,
                    }
                ),
                outputs=[args.out] if args.out else [],
                timings={},
            )
        ),
    }
    text = json.dumps(result, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _add_synth_parser(sub) -> None:
    p = sub.add_parser("synth", help="write a synthetic noisy dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument(
        "--noise-model",
        choices=verify_mod.NOISE_MODELS,
        default="asymmetric_next_class",
    )
    p.add_argument("--concentration", type=float, default=20.0)
    p.add_argument("--separation", type=float, default=0.9)
    p.add_argument("--clean-conf-mean", type=float, default=0.9)
    p.add_argument("--clean-conf-std", type=float, default=0.05)
    p.add_argument("--noisy-conf-mean", type=float, default=0.35)
    p.add_argument("--noisy-conf-std", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")


def cmd_synth(args) -> int:
    try:
        config = verify_mod.SynthConfig(
            num_classes=args.classes,
            points_per_class=args.per_class,
            embedding_dim=args.dim,
            within_class_concentration=args.concentration,
            between_class_separation=args.separation,
            noise_rate=args.noise,
            noise_model=args.noise_model,
            clean_confidence=(args.clean_conf_mean, args.clean_conf_std),
            noisy_confidence=(args.noisy_conf_mean, args.noisy_conf_std),
            seed=args.seed,
        )
        data = verify_mod.generate_synthetic(config)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "embeddings": out_dir / "embeddings.bin",
        "probabilities": out_dir / "probabilities.bin",
        "noisy_labels": out_dir / "noisy_labels.txt",
        "true_labels": out_dir / "true_labels.txt",
    }
    save_matrix(paths["embeddings"], data.embeddings)
    save_matrix(paths["probabilities"], data.probabilities)
    save_labels(paths["noisy_labels"], data.noisy_labels)
    save_labels(paths["true_labels"], data.ground_truth_labels)
    flips = int(np.count_nonzero(data.noisy_labels != data.ground_truth_labels))
    manifest = RunManifest(
        command="synth",
        config={
            "classes": args.classes,
            "per_class": args.per_class,
            "dim": args.dim,
            "noise": args.noise,
            "noise_model": args.noise_model,
            "concentration": args.concentration,
            "separation": args.separation,
            "seed": args.seed,
        },
        inputs={},
        outputs=[str(p) for p in paths.values()],
        timings={},
    )
    manifest.write(out_dir / "manifest.json")
    print(
        f"wrote {len(data.noisy_labels)} examples ({flips} flipped labels) to {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _add_verify_parser(sub) -> None:
    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument(
        "--preset", choices=("exhaustive", "trend", "all"), default="exhaustive"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, help="override instance counts")
    p.add_argument("--probes", type=int, help="override probe counts")
    p.add_argument("--out", help="write a JSON summary to this file")


def cmd_verify(args) -> int:
    for flag, count in (("--instances", args.instances), ("--probes", args.probes)):
        if count is not None and count < 1:
            raise CliError(f"{flag} must be at least 1, got {count}")
    base = args.seed
    results = []
    if args.preset in ("exhaustive", "all"):
        n_inst = args.instances or 200
        n_probe = args.probes or 500
        results.append(
            verify_mod.check_greedy_bound(instances=n_inst, seed=20240501 + base)
        )
        results.append(
            verify_mod.check_monotonicity(probes=n_probe, seed=20240502 + base)
        )
        results.append(
            verify_mod.check_submodularity(probes=n_probe, seed=20240503 + base)
        )
        results.append(
            verify_mod.check_lazy_eager_equivalence(
                instances=args.instances or 100, seed=20240504 + base
            )
        )
        results.append(
            verify_mod.check_degenerate_equivalences(
                instances=args.instances or 100, seed=20240505 + base
            )
        )
        results.append(
            verify_mod.check_class_balance(
                instances=args.instances or 50, seed=20240506 + base
            )
        )
    correlation = None
    if args.preset in ("trend", "all"):
        trend = verify_mod.trend_correction_correlation(seed=20240507 + base)
        correlation = trend.data.get("report")
        results.append(trend)
        results.append(verify_mod.trend_subset_noise_ratio(seed=20240508 + base))
    for result in results:
        print(result.line())
    if args.out:
        summary = {
            r.name: {"ok": r.ok, "detail": r.detail}
            for r in results
        }
        Path(args.out).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        if correlation is not None:
            csv_path = Path(args.out).with_suffix(".correlation.csv")
            verify_mod.write_correlation_csv(csv_path, correlation)
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _add_bench_parser(sub) -> None:
    p = sub.add_parser("bench", help="scaling measurements, CSV output")
    p.add_argument("--m-list", required=True, help="comma-separated sizes")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument(
        "--methods", default="prune4rel,kcenter_greedy", help="comma-separated"
    )
    p.add_argument("--seed", type=int, default=20240509)
    p.add_argument("--out", help="CSV file (default stdout)")


def cmd_bench(args) -> int:
    try:
        m_list = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"--m-list must be comma-separated integers: {exc}") from exc
    if not m_list:
        raise CliError("--m-list is empty")
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    unknown = [name for name in methods if name not in verify_mod.SCALING_METHODS]
    if unknown:
        raise CliError(f"--methods: benchmark does not cover {unknown[0]!r}")
    rows = verify_mod.run_scaling_benchmark(
        m_list,
        d=args.d,
        ratio=args.ratio,
        repeat=args.repeat,
        seed=args.seed,
        tau=args.tau,
        methods=methods,
    )
    lines = ["m,method,seconds"]
    lines += [f"{r['m']},{r['method']},{r['seconds']:.6f}" for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        manifest = RunManifest(
            command="bench",
            config={
                "m_list": m_list,
                "d": args.d,
                "ratio": args.ratio,
                "repeat": args.repeat,
                "tau": args.tau,
                "methods": list(methods),
                "seed": args.seed,
            },
            inputs={},
            outputs=[args.out],
            timings={},
        )
        manifest.write(Path(args.out).with_suffix(".manifest.json"))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="neighborprune", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    _add_prune_parser(sub)
    _add_eval_parser(sub)
    _add_synth_parser(sub)
    _add_verify_parser(sub)
    _add_bench_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "prune": cmd_prune,
            "eval": cmd_eval,
            "synth": cmd_synth,
            "verify": cmd_verify,
            "bench": cmd_bench,
        }[args.command]
        return handler(args)
    except CliError as exc:
        print(f"E_ARG: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"E_FORMAT: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"E_GUARD: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"E_FORMAT: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"E_FORMAT: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
