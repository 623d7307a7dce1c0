"""Command-line front end: ingestion -> graph -> selection -> reports.

Subcommands: prune (run any selector and write the subset), eval (subset
statistics from files), synth (write a synthetic dataset), verify (run the
property suite). Every failure path exits nonzero with a single-line,
greppable prefix: E_ARG (2) for bad or missing flags, E_FORMAT (3) for
malformed input files, E_GUARD (4) for tripped resource guards. All
randomness flows from --seed; outputs are byte-stable across reruns and
thread counts.
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

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .dataset import (
    CONFIDENCE_METRICS,
    ClassCountError,
    FormatError,
    LabelRangeError,
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
    SelectorConfig,
    load_selected,
    requirement_error,
    resolve_budget,
    run_selection,
    subset_stats,
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
    timings: dict[str, float] = field(default_factory=dict)
    version: str = __version__

    def write(self, path: Path) -> None:
        _write(path, json.dumps(asdict(self), indent=2) + "\n")


def _write(path, text: str) -> None:
    """Write text to path, creating its missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _flags(args) -> dict:
    """The command's parsed flags in declaration order, as its manifest
    records them; the output path is recorded among the outputs."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "out")}


def _checked(convert, ok, rule: str):
    """argparse type: convert the flag's text and refuse a value unless
    ok(value); argparse names the flag, and main exits with E_ARG."""
    def parse(text):
        value = convert(text)
        if not ok(value):  # NaN fails every comparison, so it is refused
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _at_least(k: int):
    return _checked(int, lambda value: value >= k, f"an integer of at least {k}")


# The greedy refuses a negative tau, and no other method reads --tau.
_tau = _checked(float, lambda value: 0.0 <= value <= 1.0, "in [0, 1]")


def _can_be_dir(text: str) -> bool:  # its nearest existing ancestor is a directory
    path = Path(text)
    return next(p for p in (path, *path.parents) if p.exists()).is_dir()


def _can_be_file(text: str) -> bool:  # not a directory, and its parent can be one
    return not Path(text).is_dir() and _can_be_dir(Path(text).parent)


_out_dir = _checked(str, _can_be_dir, "a directory or a path below one")
_out_file = _checked(str, _can_be_file, "a file path, not a directory nor below a file")


def _sibling(out: str, suffix: str) -> Path:
    """The file a command writes beside its --out file, refused like --out
    (E_ARG) before any work when it is a directory; the parent is --out's."""
    path = Path(out).with_suffix(suffix)
    if path.is_dir():
        raise CliError(f"--out: {path}, written beside it, must be a file path, "
                       "not a directory")
    return path


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
    p.add_argument("--tau", type=_tau, help="neighborhood threshold")
    p.add_argument(
        "--preset",
        choices=tuple(TAU_PRESETS),
        help="named tau preset (overridden by an explicit --tau)",
    )
    p.add_argument("--utility", choices=UTILITY_KINDS, default=Utility.kind)
    p.add_argument("--gain-mode", choices=("paper", "exact"), default="paper")
    p.add_argument("--eager", action="store_true", help="disable lazy evaluation")
    p.add_argument("--seed", type=_at_least(0), default=SelectorConfig.seed)
    p.add_argument(
        "--threads", type=int, default=1,
        help="no effect; OPENBLAS_NUM_THREADS caps the graph build's BLAS threads",
    )
    p.add_argument("--max-edges", type=_at_least(1), default=DEFAULT_EDGE_CAP)
    p.add_argument("--out", type=_out_dir, required=True, help="output directory")


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MiB, or None where
    the resource module is missing. ru_maxrss counts KiB (bytes on macOS)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


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

    # Every file given is parsed, whatever the method reads, and digested.
    readers = {
        "embeddings": lambda path: load_matrix(path, args.embeddings_format, as_stored=True),
        "probs": lambda path: load_probabilities(path, args.probs_format),
        "labels": load_labels,
        "scores": load_scores,
        "confidence_file": load_external_confidence,
    }
    loaded = {dest: read(values[dest]) for dest, read in readers.items()
              if values[dest] is not None}
    embeddings, probabilities = loaded["embeddings"], loaded.get("probs")
    m = embeddings.shape[0]
    for dest, value in loaded.items():
        if len(value) != m:
            raise FormatError(
                f"--{dest.replace('_', '-')} {values[dest]} holds {len(value)} "
                f"examples, --embeddings {args.embeddings} holds {m}"
            )
    budget = args.size if args.size is not None else args.ratio
    try:
        resolve_budget(budget, m)
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

    confidence, graph, graph_build_s = loaded.get("confidence_file"), None, 0.0
    try:
        if needs_graph and args.confidence_metric != "external":
            confidence = compute_confidence(probabilities, args.confidence_metric)
        if needs_graph:
            start = time.perf_counter()
            graph = build_graph(embeddings, tau, edge_cap=args.max_edges)
            graph_build_s = time.perf_counter() - start
            # No graph method reads the rows again: let the selection reuse them.
            loaded["embeddings"] = embeddings = None
        report = run_selection(
            config,
            embeddings=embeddings,
            noisy_labels=loaded.get("labels"),
            probabilities=probabilities,
            confidence=confidence,
            scores=loaded.get("scores"),
            graph=graph,
        )
    except LabelRangeError as exc:  # small_loss indexes --probs by --labels
        raise FormatError(f"--labels {args.labels}, --probs {args.probs}: {exc}") from exc
    except ClassCountError as exc:  # diff_prob and margin read --probs' top two
        raise FormatError(f"--probs {args.probs}: {exc}") from exc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    selected_path = out_dir / "selected.txt"
    report_path = out_dir / "report.json"
    write_selected(selected_path, report.selected)
    report.timings = {"graph_build_s": graph_build_s} | report.timings
    report.peak_rss_mb = _peak_rss_mb()
    report_path.write_text(report.to_json(), encoding="utf-8")
    RunManifest(
        command="prune",
        config=config.as_dict(),
        inputs=_input_digests({dest: values[dest] for dest in loaded}),
        outputs=[str(selected_path), str(report_path)],
        timings=report.timings,
    ).write(out_dir / "manifest.json")
    print(
        f"selected {len(report.selected)} of {m} examples "
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
    p.add_argument("--out", type=_out_file, help="also write the JSON to this file")


def cmd_eval(args) -> int:
    selected = load_selected(args.selected)
    noisy = load_labels(args.noisy_labels)
    outside = selected[(selected < 0) | (selected >= noisy.size)]
    if outside.size:
        raise FormatError(f"{args.selected}: index {int(outside[0])} out of range "
                          f"for {noisy.size} labels")
    if selected.size != np.unique(selected).size:
        raise FormatError(f"{args.selected}: duplicate indices")
    truth = load_labels(args.true_labels) if args.true_labels else None
    if truth is not None and truth.size != noisy.size:
        raise FormatError(f"--true-labels {args.true_labels} holds {truth.size} examples, "
                          f"--noisy-labels {args.noisy_labels} holds {noisy.size}")
    per_class, noise_ratio = subset_stats(selected, noisy, truth)
    result = {
        "selected_count": int(selected.size),
        "per_class_counts": per_class,
        "noise_ratio": noise_ratio,
        "manifest": asdict(
            RunManifest(
                command="eval",
                config=_flags(args),
                inputs=_input_digests(_flags(args)),  # every flag names a file
                outputs=[args.out] if args.out else [],
            )
        ),
    }
    text = json.dumps(result, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _add_synth_parser(sub) -> None:
    p = sub.add_parser("synth", help="write a synthetic noisy dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, default=32)
    defaults = verify_mod.SynthConfig  # the class attributes are the field defaults
    p.add_argument("--noise", type=float, default=defaults.noise_rate)
    p.add_argument("--noise-model", choices=verify_mod.NOISE_MODELS,
                   default=defaults.noise_model)
    p.add_argument("--concentration", type=float,
                   default=defaults.within_class_concentration)
    p.add_argument("--separation", type=float, default=defaults.between_class_separation)
    p.add_argument("--clean-conf-mean", type=float, default=defaults.clean_confidence[0])
    p.add_argument("--clean-conf-std", type=float, default=defaults.clean_confidence[1])
    p.add_argument("--noisy-conf-mean", type=float, default=defaults.noisy_confidence[0])
    p.add_argument("--noisy-conf-std", type=float, default=defaults.noisy_confidence[1])
    p.add_argument("--seed", type=_at_least(0), default=defaults.seed)
    p.add_argument("--out", type=_out_dir, required=True, help="output directory")


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
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    data = verify_mod.generate_synthetic(config)
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
        config=_flags(args),
        inputs={},
        outputs=[str(p) for p in paths.values()],
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
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--instances", type=_at_least(1), help="override instance counts")
    p.add_argument("--probes", type=_at_least(1), help="override probe counts")
    p.add_argument("--out", type=_out_file, help="write a JSON summary to this file")


def cmd_verify(args) -> int:
    csv_path = _sibling(args.out, ".correlation.csv") if args.out else None
    results = []
    for k, (preset, check, count) in enumerate(verify_mod.SUITE):
        if args.preset not in (preset, "all"):
            continue
        kwargs = {"seed": verify_mod.SUITE_SEED + k + args.seed}
        if count is not None and getattr(args, count) is not None:
            kwargs[count] = getattr(args, count)
        results.append(check(**kwargs))
        print(results[-1].line())
    if args.out:
        summary = {
            r.name: {"ok": r.ok, "detail": r.detail}
            for r in results
        }
        _write(args.out, json.dumps(summary, indent=2) + "\n")
        for r in results:
            if "report" in r.data:  # the correction-confidence trend
                verify_mod.write_correlation_csv(csv_path, r.data["report"])
    return 0 if all(r.ok for r in results) else 1


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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"prune": cmd_prune, "eval": cmd_eval, "synth": cmd_synth,
                   "verify": cmd_verify}[args.command]
        return handler(args)
    except CliError as exc:
        print(f"E_ARG: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"E_GUARD: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"E_FORMAT: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
