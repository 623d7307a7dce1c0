"""In-process traced replay of a workload's `prune` invocations.

Each invocation runs through `neighborprune.cli.main` exactly as the
command line does, with the layer functions the CLI calls wrapped so that
every call records one span. Spans are kept in memory and written out when
the run ends. This is the traced run; end-to-end numbers come from the
untraced subprocess runs.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import neighborprune.cli as cli
import neighborprune.selectors as selectors
from neighborprune.objective import SelectionState, Utility, total_objective
from workloads import Invocation

# CLI-level name -> layer span name. The CLI resolves these names from its
# module globals at call time, so wrapping them there catches every call.
CLI_LAYERS = {
    "load_matrix": "dataset.load",
    "load_labels": "dataset.load",
    "load_scores": "dataset.load",
    "load_external_confidence": "dataset.load",
    "compute_confidence": "dataset.confidence",
    "build_graph": "similarity.build",
    "run_selection": None,  # named per method: selectors.select / selectors.kcenter
    "write_selected": "cli.write",
}
ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    invocation: str = ""
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            invocation=self.invocation,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_time(self, span: Span) -> float:
        children = sum(s.duration for s in self.spans if s.parent == span.id)
        return span.duration - children

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@dataclass
class Captured:
    """Objects the wrapped calls of one invocation returned or received."""

    graphs: list = field(default_factory=list)
    confidence: object = None


def _wrap(tracer: Tracer, captured: dict[str, Captured], attr: str, layer: str | None):
    original = getattr(cli, attr)

    def traced(*args, **kwargs):
        name = layer
        if attr == "run_selection":
            method = args[0].method
            name = "selectors.kcenter" if method == "kcenter_greedy" else "selectors.select"
            captured[tracer.invocation].confidence = kwargs.get("confidence")
        with tracer.span(name):
            result = original(*args, **kwargs)
        if attr == "build_graph":
            captured[tracer.invocation].graphs.append(result)
        return result

    return traced


@contextlib.contextmanager
def _instrumented(tracer: Tracer, captured: dict[str, Captured]):
    """Wrap the CLI's layer calls (and report serialisation) for the
    duration of the block, restoring the originals afterwards."""
    saved = {attr: getattr(cli, attr) for attr in CLI_LAYERS}
    to_json = selectors.PruneReport.to_json

    def traced_to_json(report):
        with tracer.span("cli.write"):
            return to_json(report)

    try:
        for attr, layer in CLI_LAYERS.items():
            setattr(cli, attr, _wrap(tracer, captured, attr, layer))
        selectors.PruneReport.to_json = traced_to_json
        yield
    finally:
        for attr, original in saved.items():
            setattr(cli, attr, original)
        selectors.PruneReport.to_json = to_json


@dataclass
class Replay:
    """One traced pass over a workload's invocations."""

    tracer: Tracer
    exit_codes: dict[str, int]
    captured: dict[str, Captured]
    replay_objective: dict[str, float]
    edges_touched: dict[str, int]
    plain_exit_codes: dict[str, int]
    overhead_s: float


def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def replay(
    invs: list[Invocation], input_dir: Path, out_root: Path, plain_root: Path, tracer: Tracer
) -> Replay:
    """Run every invocation in-process twice, first without and then with
    tracing, then replay each greedy selection through `SelectionState.add`.

    The untraced call writes to `plain_root`; its time next to the traced
    call's root span measures what tracing costs."""
    captured = {inv.id: Captured() for inv in invs}
    exit_codes, plain_exit_codes = {}, {}
    replay_objective = {}
    edges_touched = {}
    overhead_s = 0.0
    for inv in invs:
        start = time.perf_counter()
        plain_exit_codes[inv.id] = _main(inv.argv(input_dir, plain_root / inv.id))
        plain_s = time.perf_counter() - start
        tracer.invocation = inv.id
        with _instrumented(tracer, captured), tracer.span(ROOT_SPAN) as root:
            exit_codes[inv.id] = _main(inv.argv(input_dir, out_root / inv.id))
        overhead_s += root.duration - plain_s
    for inv in invs:
        cap = captured[inv.id]
        if not inv.uses_graph or exit_codes[inv.id] != 0 or not cap.graphs:
            continue
        tracer.invocation = inv.id
        selected = selectors.load_selected(out_root / inv.id / "selected.txt")
        state = SelectionState(cap.graphs[-1], cap.confidence)
        with tracer.span("objective.replay_add"):
            for x in selected.tolist():
                state.add(x)
        # Every workload runs with the default (tanh) utility.
        replay_objective[inv.id] = total_objective(state, Utility())
        edges_touched[inv.id] = int(np.sum(cap.graphs[-1].degrees()[selected]))
    return Replay(
        tracer, exit_codes, captured, replay_objective, edges_touched, plain_exit_codes, overhead_s
    )


def accounting_errors(tracer: Tracer) -> list[str]:
    """Check that each invocation's layer spans nest inside its root span
    without overlapping, so that the layer spans plus cli.other (the root's
    self time, never negative) add up to the invocation's wall time."""
    errors = []
    for root in (s for s in tracer.spans if s.name == ROOT_SPAN):
        children = sorted(
            (s for s in tracer.spans if s.parent == root.id), key=lambda s: s.start
        )
        prev_end = root.start
        for child in children:
            if child.start < prev_end or child.end > root.end:
                errors.append(f"{root.invocation}: span {child.name} overlaps or escapes")
            prev_end = child.end
        other = tracer.self_time(root)
        if other < 0.0:
            errors.append(f"{root.invocation}: layer spans exceed the invocation")
    return errors


def layer_metrics(rep: Replay, invs: list[Invocation]) -> dict[str, float]:
    """Per-layer totals over one traced pass. Times are self times summed
    over the pass; graph figures describe the graph the pass built (every
    build in one workload reads the same embeddings file)."""
    tracer = rep.tracer
    self_s: dict[str, float] = {}
    for span in tracer.spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + tracer.self_time(span)

    builds = [(inv, g) for inv in invs for g in rep.captured[inv.id].graphs]
    build_s = self_s.get("similarity.build", 0.0)
    gflop = sum(inv.m * inv.m * inv.d / 1e9 for inv, _ in builds)
    inv0, graph = builds[0] if builds else (None, None)
    edges = graph.num_edges if graph is not None else 0
    steps = sum(inv.s for inv in invs if inv.uses_graph)
    select_s = self_s.get("selectors.select", 0.0)
    return {
        "cli.write_s": self_s.get("cli.write", 0.0),
        "cli.other_s": self_s.get(ROOT_SPAN, 0.0),
        "dataset.load_s": self_s.get("dataset.load", 0.0),
        "dataset.confidence_s": self_s.get("dataset.confidence", 0.0),
        "similarity.build_s": build_s,
        "similarity.gflop": gflop,
        "similarity.gflop_per_s": gflop / build_s if build_s > 0 else 0.0,
        "similarity.edges": edges,
        "similarity.edge_yield": edges / inv0.m**2 if inv0 is not None else 0.0,
        "similarity.graph_mb": (
            (graph.indptr.nbytes + graph.indices.nbytes + graph.weights.nbytes) / 2**20
            if graph is not None
            else 0.0
        ),
        "selectors.select_s": select_s,
        "selectors.us_per_step": select_s / steps * 1e6 if steps else 0.0,
        "selectors.kcenter_s": self_s.get("selectors.kcenter", 0.0),
        "objective.replay_add_s": self_s.get("objective.replay_add", 0.0),
        "objective.edges_touched": sum(rep.edges_touched.values()),
        "trace.overhead_s": rep.overhead_s,
    }


def graph_errors(rep: Replay, invs: list[Invocation]) -> list[str]:
    """Every build of one workload reads the same file, so every graph
    must have the same stored-entry count."""
    counts = {g.num_edges for inv in invs for g in rep.captured[inv.id].graphs}
    return [] if len(counts) <= 1 else [f"graph builds disagree on edge count: {sorted(counts)}"]
