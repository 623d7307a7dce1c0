import argparse
import ast
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neighborprune import cli
from neighborprune import selectors as selectors_mod
from neighborprune import verify as verify_mod
from neighborprune.cli import main, method_inputs_help
from neighborprune.dataset import load_labels, load_matrix, save_labels, save_matrix
from neighborprune.selectors import SelectorConfig, load_selected, run_selection
from neighborprune.similarity import build_graph
from rss import child_peak


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synth", "--classes", "5", "--per-class", "40", "--dim", "8",
            "--noise", "0.2", "--seed", "11", "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """The criterion-10 dataset plus a seeded score file."""
    out = tmp_path_factory.mktemp("golden")
    code = main(
        [
            "synth", "--classes", "5", "--per-class", "40", "--dim", "8",
            "--noise", "0.2", "--seed", "3", "--out", str(out / "data"),
        ]
    )
    assert code == 0
    np.savetxt(out / "scores.txt", np.random.default_rng(99).uniform(0, 1, 200), fmt="%.17g")
    return out


def run_prune(synth_dir, out_dir, *extra):
    args = [
        "prune",
        "--embeddings", str(synth_dir / "embeddings.bin"),
        "--probs", str(synth_dir / "probabilities.bin"),
        "--labels", str(synth_dir / "noisy_labels.txt"),
        "--out", str(out_dir),
        *extra,
    ]
    return main(args)


class TestSynth:
    def test_manifest_records_confidence_parameters(self, tmp_path):
        configs = []
        for mean in ("0.9", "0.6"):
            out = tmp_path / mean
            code = main(
                ["synth", "--classes", "3", "--per-class", "10", "--dim", "4",
                 "--clean-conf-mean", mean, "--out", str(out)]
            )
            assert code == 0
            configs.append(json.loads((out / "manifest.json").read_text())["config"])
        assert configs[0]["clean_conf_mean"] == 0.9
        assert configs[1]["clean_conf_mean"] == 0.6
        for config in configs:
            assert config["clean_conf_std"] == 0.05
            assert config["noisy_conf_mean"] == 0.35
            assert config["noisy_conf_std"] == 0.1

    def test_outputs_and_flip_count(self, synth_dir):
        noisy = load_labels(synth_dir / "noisy_labels.txt")
        truth = load_labels(synth_dir / "true_labels.txt")
        assert noisy.size == 200
        assert int((noisy != truth).sum()) == 5 * 8
        emb = load_matrix(synth_dir / "embeddings.bin")
        assert emb.shape == (200, 8)
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["version"]

    def test_infeasible_geometry_is_arg_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--classes", "10", "--per-class", "5", "--dim", "4",
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "E_ARG" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--clean-conf-mean", "--clean-conf-std", "--noisy-conf-mean",
         "--noisy-conf-std", "--concentration", "--separation"],
    )
    def test_nan_parameter_is_arg_error_before_writing(self, tmp_path, capsys, flag):
        out = tmp_path / "sy"
        code = main(
            ["synth", "--classes", "3", "--per-class", "10", flag, "nan",
             "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("E_ARG:")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [["--noise", "1"], ["--noise", "-0.1"], ["--noise", "nan"],
         ["--classes", "0"], ["--classes", "1", "--noise-model", "symmetric"]],
    )
    def test_impossible_dataset_is_arg_error_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "sy"
        code = main(["synth", "--classes", "3", "--per-class", "10", *flags,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("E_ARG:")
        assert not out.exists()

    def test_one_class_has_certain_probabilities(self, tmp_path):
        out = tmp_path / "sy"
        code = main(["synth", "--classes", "1", "--per-class", "10", "--dim", "4",
                     "--out", str(out)])
        assert code == 0
        probs = load_matrix(out / "probabilities.bin")
        assert probs.shape == (10, 1) and np.all(probs == 1.0)


class TestPrune:
    def test_ratio_budget_line_count(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        code = run_prune(
            synth_dir, out, "--method", "prune4rel", "--ratio", "0.2",
            "--tau", "0.9", "--seed", "7",
        )
        assert code == 0
        selected = load_selected(out / "selected.txt")
        assert selected.size == 40  # round(0.2 * 200)
        assert np.unique(selected).size == 40
        report = json.loads((out / "report.json").read_text())
        assert report["selected_count"] == 40
        assert report["config"]["tau"] == 0.9
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"embeddings", "probs", "labels"}

    def test_uniform_full_ratio_selects_all(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        code = run_prune(synth_dir, out, "--method", "uniform", "--ratio", "1.0")
        assert code == 0
        selected = load_selected(out / "selected.txt")
        assert sorted(selected.tolist()) == list(range(200))

    def test_missing_tau_names_flag(self, synth_dir, tmp_path, capsys):
        code = run_prune(
            synth_dir, tmp_path / "run", "--method", "prune4rel", "--ratio", "0.2"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_ARG:")
        assert "--tau" in err

    def test_missing_scores_names_flag(self, synth_dir, tmp_path, capsys):
        code = run_prune(
            synth_dir, tmp_path / "run", "--method", "grand", "--ratio", "0.2"
        )
        assert code == 2
        assert "--scores" in capsys.readouterr().err

    def test_size_and_ratio_mutually_exclusive(self, synth_dir, tmp_path, capsys):
        code = run_prune(
            synth_dir, tmp_path / "run", "--method", "uniform",
            "--ratio", "0.2", "--size", "5",
        )
        assert code == 2
        assert "E_ARG" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--size", "0"], ["--size", "201"], ["--ratio", "0.001"]]
    )
    def test_budget_outside_one_to_m_is_arg_error(self, synth_dir, tmp_path, capsys, flags):
        out = tmp_path / "run"
        code = run_prune(synth_dir, out, "--method", "uniform", *flags)
        assert code == 2
        assert capsys.readouterr().err.startswith("E_ARG:")
        assert not (out / "selected.txt").exists()

    def test_bad_score_line_names_file_and_line(self, synth_dir, tmp_path, capsys):
        scores_path = tmp_path / "scores.txt"
        scores_path.write_text("0.5\n0.25\nhigh\n")
        code = run_prune(
            synth_dir, tmp_path / "run", "--method", "forgetting", "--size", "3",
            "--scores", str(scores_path),
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:")
        assert f"{scores_path}: line 3: not a number" in err

    def test_preset_sets_tau(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        code = run_prune(
            synth_dir, out, "--method", "prune4rel", "--ratio", "0.1",
            "--preset", "cifar100n",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau"] == 0.95

    def test_margin_rejects_unnormalized_probs(self, synth_dir, tmp_path, capsys):
        # --probs is checked on load whatever the method, so the error names
        # the file even for the flag sets that never read the matrix.
        probs = tmp_path / "probs.bin"
        values = tmp_path / "values.txt"
        np.savetxt(values, np.linspace(0.0, 1.0, 200), fmt="%.17g")
        flag_sets = (
            ["--method", "prune4rel", "--tau", "0.9"],
            ["--method", "prune4rel", "--tau", "0.9", "--confidence-metric",
             "external", "--confidence-file", str(values)],
            ["--method", "margin"],
            ["--method", "small_loss"],
            ["--method", "small_loss", "--scores", str(values)],
            ["--method", "uniform"],
        )
        for flags in flag_sets:
            for value in (0.25, 1.0):  # rows summing to 0.5, then to 2
                save_matrix(probs, np.full((200, 2), value))
                code = main(
                    ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                     "--probs", str(probs),
                     "--labels", str(synth_dir / "noisy_labels.txt"),
                     "--ratio", "0.2", "--out", str(tmp_path / "run"), *flags]
                )
                assert code == 3, flags
                err = capsys.readouterr().err
                assert err.startswith("E_FORMAT:")
                assert str(probs) in err

    @pytest.mark.parametrize("extra", [
        ["--method", "prune4rel", "--tau", "0.9"],
        ["--method", "prune4rel", "--tau", "0.9", "--confidence-metric", "external"],
        ["--method", "margin"],
        ["--method", "small_loss"],
        ["--method", "small_loss", "--scores"],
        ["--method", "uniform"],
    ])
    def test_probs_validated_once(self, synth_dir, tmp_path, monkeypatch, extra):
        # --probs is checked once on load, naming the file, before any step
        # reads it; public steps that read the matrix may check it again.
        import neighborprune.dataset as dataset_mod

        calls = []
        check = dataset_mod._validate_probabilities

        def counted(probs, where="probabilities"):
            calls.append((probs.shape, where))
            return check(probs, where=where)

        monkeypatch.setattr(dataset_mod, "_validate_probabilities", counted)
        values = tmp_path / "values.txt"
        np.savetxt(values, np.linspace(0.0, 1.0, 200), fmt="%.17g")
        if extra[-1] == "--scores":
            extra = extra + [str(values)]
        if "external" in extra:
            extra = extra + ["--confidence-file", str(values)]
        code = run_prune(synth_dir, tmp_path / "run", "--ratio", "0.2", *extra)
        assert code == 0
        on_load = ((200, 5), str(synth_dir / "probabilities.bin"))
        assert calls[0] == on_load
        assert calls.count(on_load) == 1
        assert all(shape == (200, 5) for shape, _ in calls)

    def test_bad_magic_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        code = main(
            ["prune", "--embeddings", str(bad), "--method", "uniform",
             "--ratio", "0.5", "--out", str(tmp_path / "run")]
        )
        assert code == 3
        assert "E_FORMAT" in capsys.readouterr().err

    def test_overflowing_embedding_row_keeps_its_edges(self, tmp_path):
        # Row 0's squares overflow, but the row is parallel to row 1, so it
        # is normalized like [1, 1] and all three rows are neighbors.
        emb, conf = tmp_path / "emb.csv", tmp_path / "conf.txt"
        emb.write_text("1e200,1e200\n1,1\n1,0.99\n")
        np.savetxt(conf, [0.5, 0.6, 0.7], fmt="%.17g")
        code = main(
            ["prune", "--embeddings", str(emb), "--embeddings-format", "csv",
             "--method", "prune4rel", "--tau", "0.9", "--confidence-metric",
             "external", "--confidence-file", str(conf), "--size", "2",
             "--out", str(tmp_path / "run")]
        )
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["graph"]["edges"] == 9

    def test_report_counts_screen_survivors(self, synth_dir, tmp_path):
        # Every entry (row <= col) of the graph passed the float32 screen:
        # the upper-triangle edges and the 200 self entries.
        code = run_prune(
            synth_dir, tmp_path / "run", "--method", "prune4rel", "--ratio", "0.2", "--tau", "0.9"
        )
        assert code == 0
        graph = json.loads((tmp_path / "run" / "report.json").read_text())["graph"]
        upper = (graph["edges"] + 200) // 2
        assert graph["edges"] > 200 and graph["screen_survivors"] >= upper

    def test_edge_cap_is_guard_error(self, synth_dir, tmp_path, capsys):
        code = run_prune(
            synth_dir, tmp_path / "run", "--method", "prune4rel",
            "--ratio", "0.2", "--tau", "0.0", "--max-edges", "100",
        )
        assert code == 4
        assert "E_GUARD" in capsys.readouterr().err

    def test_external_confidence_file(self, synth_dir, tmp_path):
        conf_path = tmp_path / "conf.txt"
        rng = np.random.default_rng(0)
        np.savetxt(conf_path, rng.uniform(0, 1, 200), fmt="%.17g")
        out = tmp_path / "run"
        code = run_prune(
            synth_dir, out, "--method", "prune4rel", "--ratio", "0.1",
            "--tau", "0.9", "--confidence-metric", "external",
            "--confidence-file", str(conf_path),
        )
        assert code == 0

    def test_scores_method(self, synth_dir, tmp_path):
        scores_path = tmp_path / "scores.txt"
        np.savetxt(scores_path, np.arange(200, dtype=float), fmt="%.17g")
        out = tmp_path / "run"
        code = run_prune(
            synth_dir, out, "--method", "forgetting", "--size", "3",
            "--scores", str(scores_path),
        )
        assert code == 0
        assert load_selected(out / "selected.txt").tolist() == [199, 198, 197]

    def test_repeat_runs_byte_identical(self, synth_dir, tmp_path):
        blobs = []
        for k, threads in enumerate(("1", "4", "1")):
            out = tmp_path / f"run{k}"
            code = run_prune(
                synth_dir, out, "--method", "prune4rel_balanced", "--ratio", "0.3",
                "--tau", "0.9", "--seed", "5", "--threads", threads,
            )
            assert code == 0
            blobs.append((out / "selected.txt").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestPeakMemory:
    def test_graph_method_peak_follows_the_bytes(self, tmp_path):
        # Above the imports, a prune4rel run holds its inputs, the graph and
        # scratch the size of a block; 16 MiB covers the scratch, the
        # selection and the report. A normalized copy of the rows, or CSR
        # arrays copied as they grow, took the run past it.
        m, d = 20_000, 32
        rng = np.random.default_rng(5)
        save_matrix(tmp_path / "emb.bin", rng.standard_normal((m, d)))
        np.savetxt(tmp_path / "conf.txt", rng.uniform(0, 1, m), fmt="%.17g")
        _, imports = child_peak("import neighborprune.cli")
        child_peak(
            "import sys; from neighborprune.cli import main; sys.exit(main(sys.argv[1:]))",
            "prune", "--embeddings", str(tmp_path / "emb.bin"), "--method", "prune4rel",
            "--tau", "0.5", "--ratio", "0.5", "--confidence-metric", "external",
            "--confidence-file", str(tmp_path / "conf.txt"), "--out", str(tmp_path / "run"),
        )
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        inputs = (m * d + m) * 8  # float64 rows and confidences
        graph = (m + 1) * 8 + report["graph"]["edges"] * (4 + 8)
        assert graph > 4 * 2**20
        assert report["peak_rss_mb"] - imports <= (inputs + graph) / 2**20 + 16


class TestPerfbenchSurface:
    """perfbench, which changes apart from the program, reads these."""

    def test_load_matrix_returns_float64_unless_asked(self, tmp_path):
        # checks.covering_radius takes radii in the dtype load_matrix(path)
        # returns, against float64 reference radii.
        rows = np.random.default_rng(0).standard_normal((5, 3))
        save_matrix(tmp_path / "m.bin", rows)
        np.savetxt(tmp_path / "m.csv", rows, delimiter=",")
        assert load_matrix(tmp_path / "m.bin").dtype == np.float64
        assert load_matrix(tmp_path / "m.csv", "csv").dtype == np.float64
        assert load_matrix(tmp_path / "m.bin", as_stored=True).dtype == np.float32
        assert load_matrix(tmp_path / "m.csv", "csv", as_stored=True).dtype == np.float64

    def test_traced_layers_are_cli_globals(self):
        # The traced pass wraps each name of spans.CLI_LAYERS in the cli
        # module's globals, which the CLI resolves at call time.
        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        tree = ast.parse(spans.read_text(encoding="utf-8"))
        (layers,) = [ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["CLI_LAYERS"]]
        assert "load_matrix" in layers and "build_graph" in layers
        for name in layers:
            assert callable(vars(cli).get(name)), name


# blake2b-128 of selected.txt and objective_value for every method on the
# criterion-10 dataset at --ratio 0.3 --seed 13; a refactor must keep both.
GOLDEN = {
    "prune4rel": ("1812593e29ef72135f22ee37055fda41", 199.99999979354214),
    "prune4rel_balanced": ("5514c34e4b02e468fa068924ca3721ba", 199.99999968587656),
    "uniform": ("1990f4646b375a2a44150058cdc1d54f", None),
    "small_loss": ("c238ee3de98869a3fed5401f7a943d42", None),
    "margin": ("104372466e89c50cbdbaa2804233961f", None),
    "kcenter_greedy": ("b572e599f76f402ee1ad909a7a72b0e3", None),
    "forgetting": ("9cc91662428b7f88c22b80199fff63b2", None),
    "grand": ("9cc91662428b7f88c22b80199fff63b2", None),
    "moderate": ("99d8fe5ccd8f81412358a0efc207afb8", None),
    "ssp": ("9cc91662428b7f88c22b80199fff63b2", None),
}
# The same runs of both greedy methods under --utility log1p, which does
# not saturate on this dataset the way tanh does, so objective_value itself
# pins the confidence plumbing.
GOLDEN_LOG1P = {
    "prune4rel": ("91cee61f740737cffd32b7b9df12997f", 501.3580201533749),
    "prune4rel_balanced": ("05cc047339a848fb2cd154cf57e86b38", 501.3580201533749),
}
# The same greedy runs under --gain-mode exact at --tau 0.9, where tanh
# saturates (objective within 1e-7 of the 200 examples); lazy and --eager
# select the same bytes here.
GOLDEN_EXACT = {
    "prune4rel": ("71f59bf14bb69baeddee1c433e86df18", 199.99999993290297),
    "prune4rel_balanced": ("f18519ae9ad1be6cffe0baacca4da672", 199.99999993290297),
}
# The paper-gain greedy runs of GOLDEN (tanh) and GOLDEN_LOG1P with --eager,
# recorded with the eager loop that compacted each pool and scored it with
# the array gain; on this dataset eager selects the lazy loop's bytes.
GOLDEN_EAGER = {
    ("tanh", "prune4rel"): GOLDEN["prune4rel"],
    ("tanh", "prune4rel_balanced"): GOLDEN["prune4rel_balanced"],
    ("log1p", "prune4rel"): GOLDEN_LOG1P["prune4rel"],
    ("log1p", "prune4rel_balanced"): GOLDEN_LOG1P["prune4rel_balanced"],
}
GOLDEN_EXTRA = {
    "prune4rel": ["--tau", "0.9"],
    "prune4rel_balanced": ["--tau", "0.9"],
    "forgetting": ["--scores"],
    "grand": ["--scores"],
    "ssp": ["--scores"],
}


class TestGolden:
    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_selected_bytes_and_objective(self, golden_dir, tmp_path, method):
        extra = GOLDEN_EXTRA.get(method, [])
        if extra == ["--scores"]:
            extra = ["--scores", str(golden_dir / "scores.txt")]
        out = tmp_path / "run"
        code = run_prune(
            golden_dir / "data", out, "--method", method, "--ratio", "0.3",
            "--seed", "13", *extra,
        )
        assert code == 0
        digest = hashlib.blake2b(
            (out / "selected.txt").read_bytes(), digest_size=16
        ).hexdigest()
        report = json.loads((out / "report.json").read_text())
        assert (digest, report["objective_value"]) == GOLDEN[method]
        assert list(report) == [
            "selected_count", "objective_value", "per_class_counts",
            "noise_ratio", "timings", "config", "graph", "peak_rss_mb",
        ]
        assert report["peak_rss_mb"] > 0
        assert list(report["config"]) == [
            "method", "budget", "tau", "utility", "gain_mode", "lazy", "seed",
            "tie_break",
        ]
        assert report["config"]["tie_break"] == "lowest_index"
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == [
            "command", "config", "inputs", "outputs", "timings", "version",
        ]
        assert manifest["config"] == report["config"]

    @pytest.mark.parametrize("method", sorted(GOLDEN_LOG1P))
    def test_log1p_selected_bytes_and_objective(self, golden_dir, tmp_path, method):
        out = tmp_path / "run"
        code = run_prune(
            golden_dir / "data", out, "--method", method, "--ratio", "0.3",
            "--seed", "13", "--tau", "0.9", "--utility", "log1p",
        )
        assert code == 0
        digest = hashlib.blake2b(
            (out / "selected.txt").read_bytes(), digest_size=16
        ).hexdigest()
        report = json.loads((out / "report.json").read_text())
        assert (digest, report["objective_value"]) == GOLDEN_LOG1P[method]

    @pytest.mark.parametrize("utility", ["tanh", "log1p"])
    @pytest.mark.parametrize("method", ["prune4rel", "prune4rel_balanced"])
    def test_paper_eager_selected_bytes_and_objective(
        self, golden_dir, tmp_path, method, utility
    ):
        out = tmp_path / "run"
        code = run_prune(
            golden_dir / "data", out, "--method", method, "--ratio", "0.3",
            "--seed", "13", "--tau", "0.9", "--utility", utility, "--eager",
        )
        assert code == 0
        digest = hashlib.blake2b(
            (out / "selected.txt").read_bytes(), digest_size=16
        ).hexdigest()
        report = json.loads((out / "report.json").read_text())
        assert (digest, report["objective_value"]) == GOLDEN_EAGER[utility, method]

    def test_peak_rss_is_null_without_resource(self, golden_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        out = tmp_path / "run"
        code = run_prune(
            golden_dir / "data", out, "--method", "margin", "--ratio", "0.3",
        )
        assert code == 0
        assert json.loads((out / "report.json").read_text())["peak_rss_mb"] is None

    @pytest.mark.parametrize("loop", ["lazy", "eager"])
    @pytest.mark.parametrize("method", sorted(GOLDEN_EXACT))
    def test_exact_gain_selected_bytes_and_objective(
        self, golden_dir, tmp_path, method, loop
    ):
        out = tmp_path / "run"
        code = run_prune(
            golden_dir / "data", out, "--method", method, "--ratio", "0.3",
            "--seed", "13", "--tau", "0.9", "--gain-mode", "exact",
            *(["--eager"] if loop == "eager" else []),
        )
        assert code == 0
        digest = hashlib.blake2b(
            (out / "selected.txt").read_bytes(), digest_size=16
        ).hexdigest()
        report = json.loads((out / "report.json").read_text())
        assert (digest, report["objective_value"]) == GOLDEN_EXACT[method]


# (method, flags beyond --embeddings/--ratio/--out, flag the error must name)
MISSING_INPUT_CASES = [
    ("prune4rel", ["--probs"], "--tau"),
    ("prune4rel", ["--probs", "--tau", "--confidence-metric", "external"],
     "--confidence-file"),
    ("prune4rel", ["--tau"], "--probs"),
    ("prune4rel_balanced", ["--probs", "--tau"], "--labels"),
    ("moderate", [], "--labels"),
    ("margin", ["--labels"], "--probs"),
    ("small_loss", ["--labels"], "--probs"),
    ("small_loss", ["--probs"], "--labels"),
    ("forgetting", ["--probs", "--labels"], "--scores"),
    ("grand", ["--probs", "--labels"], "--scores"),
    ("ssp", ["--probs", "--labels"], "--scores"),
]


class TestMissingInputs:
    @pytest.mark.parametrize(
        "method,flags,named", MISSING_INPUT_CASES,
        ids=[f"{m}-{n}" for m, _, n in MISSING_INPUT_CASES],
    )
    def test_exit_2_names_flag(self, synth_dir, tmp_path, capsys, method, flags, named):
        values = {
            "--probs": str(synth_dir / "probabilities.bin"),
            "--labels": str(synth_dir / "noisy_labels.txt"),
            "--tau": "0.9",
        }
        argv = [
            "prune", "--embeddings", str(synth_dir / "embeddings.bin"),
            "--method", method, "--ratio", "0.2", "--out", str(tmp_path / "run"),
        ]
        for flag in flags:
            argv += [flag, values[flag]] if flag in values else [flag]
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_ARG:")
        assert named in err
        assert not (tmp_path / "run").exists()


class TestPackaging:
    def test_cli_import_leaves_scipy_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, neighborprune.cli; "
            "sys.exit('scipy' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_src_imports_with_scipy_blocked(self):
        # scipy is installed on some hosts, so an accidental import would
        # pass every other test; None in sys.modules makes importing it fail.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "import neighborprune.cli, neighborprune.verify"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_readme_lists_method_inputs_from_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert method_inputs_help() in readme

    def test_readme_commands_are_the_parsers_subcommands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        shell_blocks = re.findall(r"```(?:bash|sh|shell)\n(.*?)```", readme, re.S)
        used = set(re.findall(r"\bneighborprune (\w+)", "".join(shell_blocks)))
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert used == set(subparsers.choices)


class TestEval:
    def test_counts_and_noise_ratio(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_prune(synth_dir, out, "--method", "uniform", "--ratio", "1.0") == 0
        capsys.readouterr()  # drop the prune status line
        code = main(
            [
                "eval",
                "--selected", str(out / "selected.txt"),
                "--noisy-labels", str(synth_dir / "noisy_labels.txt"),
                "--true-labels", str(synth_dir / "true_labels.txt"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_count"] == 200
        assert sum(payload["per_class_counts"]) == 200
        # the whole set: noise ratio equals the generator's flip rate
        assert payload["noise_ratio"] == pytest.approx(0.2)

    def test_all_clean_selection(self, synth_dir, tmp_path, capsys):
        noisy = load_labels(synth_dir / "noisy_labels.txt")
        truth = load_labels(synth_dir / "true_labels.txt")
        clean = np.flatnonzero(noisy == truth)[:10]
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("\n".join(str(i) for i in clean) + "\n")
        code = main(
            [
                "eval", "--selected", str(sel_path),
                "--noisy-labels", str(synth_dir / "noisy_labels.txt"),
                "--true-labels", str(synth_dir / "true_labels.txt"),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["noise_ratio"] == 0.0

    def test_noise_ratio_null_without_truth(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("0\n1\n")
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt")]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["noise_ratio"] is None

    def test_out_of_range_index_is_format_error(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("99999\n")
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt")]
        )
        assert code == 3
        assert "E_FORMAT" in capsys.readouterr().err

    def test_empty_selection_is_format_error(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("\n")
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt"),
             "--true-labels", str(synth_dir / "true_labels.txt")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("E_FORMAT:") and str(sel_path) in captured.err
        assert captured.out == ""

    def test_bad_entry_names_file_and_line(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("1\nabc\n")
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:") and f"{sel_path}: line 2:" in err

    def test_duplicate_index_is_format_error(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("3\n1\n3\n")
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("E_FORMAT:") and "duplicate indices" in captured.err
        assert captured.out == ""

    def test_label_files_of_different_lengths_are_format_error(
        self, synth_dir, tmp_path, capsys
    ):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("0\n1\n")
        truth_path = tmp_path / "truth.txt"
        truth_path.write_text("0\n" * 199)
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt"),
             "--true-labels", str(truth_path)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("E_FORMAT:")
        assert (f"--true-labels {truth_path} holds 199 examples, --noisy-labels "
                f"{synth_dir / 'noisy_labels.txt'} holds 200") in captured.err
        assert captured.out == ""

    def test_bad_label_line_names_file_and_line(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("0\n")
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n\n1.5\n")
        code = main(
            ["eval", "--selected", str(sel_path), "--noisy-labels", str(labels_path)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:") and f"{labels_path}: line 4: not an integer" in err

    def test_error_names_the_negative_index(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("0\n-1\n")
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n" * 30)
        code = main(
            ["eval", "--selected", str(sel_path), "--noisy-labels", str(labels_path)]
        )
        assert code == 3
        assert "index -1 out of range for 30 labels" in capsys.readouterr().err


class TestVerifyCommand:
    def test_reduced_suite_passes(self, capsys):
        code = main(["verify", "--preset", "exhaustive", "--instances", "6",
                     "--probes", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_checks_run_at_suite_seeds(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(["verify", "--preset", "exhaustive", "--instances", "3",
                     "--probes", "7", "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(out.read_text())
        direct = [
            (verify_mod.check_greedy_bound, {"instances": 3}),
            (verify_mod.check_monotonicity, {"probes": 7}),
            (verify_mod.check_submodularity, {"probes": 7}),
            (verify_mod.check_lazy_eager_equivalence, {"instances": 3}),
            (verify_mod.check_degenerate_equivalences, {"instances": 3}),
            (verify_mod.check_class_balance, {"instances": 3}),
        ]
        assert len(summary) == len(direct)
        for k, (check, count) in enumerate(direct):
            result = check(seed=20240501 + k + 2, **count)
            assert summary[result.name]["detail"] == result.detail

    def test_trend_writes_the_correlation_csv(self, tmp_path, monkeypatch, capsys):
        def cheap_trend(seed):
            rng = np.random.default_rng(seed)
            nbr_conf = rng.uniform(0, 5, 300)
            report = verify_mod.correlation_report(
                nbr_conf, rng.random(300) < nbr_conf / 5, verify_mod.TREND_BINS
            )
            return verify_mod.CheckResult("cheap_trend", True, "ok", {"report": report})

        monkeypatch.setattr(verify_mod, "SUITE", (("trend", cheap_trend, None),))
        out = tmp_path / "trend.json"
        assert main(["verify", "--preset", "trend", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text()) == {"cheap_trend": {"ok": True, "detail": "ok"}}
        lines = (tmp_path / "trend.correlation.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,correction_rate"
        assert len(lines) == 1 + 15
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 300

    @pytest.mark.parametrize(
        "flags",
        [["--instances", "-1", "--probes", "-1"], ["--instances", "0"],
         ["--probes", "0"]],
    )
    def test_counts_below_one_are_arg_errors(self, capsys, flags):
        code = main(["verify", "--preset", "exhaustive", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert "E_ARG" in captured.err and flags[0] in captured.err
        assert "PASS" not in captured.out


# Flag values outside their range, each with the flag the error must name.
BAD_FLAG_VALUES = [
    (["prune", "--method", "uniform", "--tau", "1.5"], "--tau"),
    (["prune", "--method", "uniform", "--tau", "-0.5"], "--tau"),
    (["prune", "--method", "prune4rel", "--tau", "nan"], "--tau"),
    (["prune", "--method", "prune4rel", "--tau", "-0.5"], "--tau"),
    (["prune", "--method", "prune4rel_balanced", "--tau", "-0.5"], "--tau"),
    (["prune", "--method", "uniform", "--seed", "-1"], "--seed"),
    (["prune", "--method", "kcenter_greedy", "--seed", "-1"], "--seed"),
    (["prune", "--method", "prune4rel", "--tau", "0.5", "--max-edges", "0"],
     "--max-edges"),
    (["verify", "--seed", "-1"], "--seed"),
    (["synth", "--seed", "-1"], "--seed"),
]


def manifest_config(path) -> dict:
    return json.loads(Path(path).read_text())["config"]


class TestManifestConfig:
    """A synth or eval manifest records the parsed flags, in order."""

    def assert_config(self, config, expected):
        assert config == expected
        assert list(config) == list(expected)

    def test_synth_records_every_flag(self, synth_dir):
        self.assert_config(manifest_config(synth_dir / "manifest.json"), {
            "classes": 5, "per_class": 40, "dim": 8, "noise": 0.2,
            "noise_model": "asymmetric_next_class", "concentration": 20.0,
            "separation": 0.9, "clean_conf_mean": 0.9, "clean_conf_std": 0.05,
            "noisy_conf_mean": 0.35, "noisy_conf_std": 0.1, "seed": 11,
        })

    def test_eval_records_every_flag(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("0\n1\n")
        labels = str(synth_dir / "noisy_labels.txt")
        code = main(["eval", "--selected", str(sel_path), "--noisy-labels", labels])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        self.assert_config(manifest["config"], {
            "selected": str(sel_path), "noisy_labels": labels, "true_labels": None,
        })


class TestOutputPaths:
    def test_missing_out_parents_are_created(self, synth_dir, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("0\n1\n")
        eval_out = tmp_path / "new" / "e.json"
        code = main(
            ["eval", "--selected", str(sel_path),
             "--noisy-labels", str(synth_dir / "noisy_labels.txt"),
             "--out", str(eval_out)]
        )
        assert code == 0
        assert json.loads(eval_out.read_text())["selected_count"] == 2
        verify_out = tmp_path / "v" / "v.json"
        code = main(
            ["verify", "--preset", "exhaustive", "--instances", "1", "--probes", "1",
             "--out", str(verify_out)]
        )
        assert code == 0
        assert len(json.loads(verify_out.read_text())) == 6


class TestParsing:
    @pytest.mark.parametrize(
        "argv, flag", BAD_FLAG_VALUES, ids=[" ".join(a) for a, _ in BAD_FLAG_VALUES]
    )
    def test_bad_flag_value_is_arg_error_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, flag
    ):
        import neighborprune.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("the command started work")

        monkeypatch.setattr(cli_mod, "build_graph", refuse)
        monkeypatch.setattr(verify_mod, "build_graph", refuse)
        absent = str(tmp_path / "absent")  # reading it would be E_FORMAT
        rest = {
            "prune": ["--embeddings", absent, "--probs", absent, "--labels", absent,
                      "--ratio", "0.5", "--out", str(tmp_path / "run")],
            "verify": [],
            "synth": ["--classes", "2", "--per-class", "5",
                      "--out", str(tmp_path / "synth")],
        }[argv[0]]
        code = main(argv + rest)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("E_ARG:") and flag in err

    def test_unknown_method_is_arg_error(self, synth_dir, tmp_path, capsys):
        code = run_prune(synth_dir, tmp_path / "r", "--method", "glister",
                         "--ratio", "0.5")
        assert code == 2
        assert "E_ARG" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        for command in (["transmogrify"], ["bench", "--m-list", "50"]):  # bench is retired
            code = main(command)
            assert code == 2
            assert capsys.readouterr().err.startswith("E_ARG:")


class TestClassIds:
    """Pools, moderate's classes and the subset statistics come from the
    class ids present; per_class_counts has one count per id from 0 to the
    largest noisy label."""

    @pytest.mark.parametrize("method", ["prune4rel_balanced", "moderate"])
    def test_absent_class_ids_select_as_compacted(self, synth_dir, tmp_path, method):
        compact = load_labels(synth_dir / "noisy_labels.txt") % 2
        outputs = {}
        for name, labels in (("compact", compact), ("sparse", compact * 2)):
            save_labels(tmp_path / f"{name}.txt", labels)
            code = main(
                ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                 "--probs", str(synth_dir / "probabilities.bin"),
                 "--labels", str(tmp_path / f"{name}.txt"), "--method", method,
                 "--tau", "0.9", "--size", "37", "--out", str(tmp_path / name)]
            )
            assert code == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            outputs[name] = ((tmp_path / name / "selected.txt").read_bytes(),
                             report["per_class_counts"])
        selected, (zeros, ones) = outputs["compact"]
        assert outputs["sparse"] == (selected, [zeros, 0, ones])

    def test_far_label_costs_one_pool(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        save_matrix(tmp_path / "emb.bin", rng.standard_normal((40, 4)))
        np.savetxt(tmp_path / "conf.txt", rng.uniform(0, 1, 40), fmt="%.17g")
        labels = np.zeros(40, dtype=np.int64)
        labels[17] = 1_000_000
        save_labels(tmp_path / "labels.txt", labels)
        pool_counts = []
        core = selectors_mod._greedy_core

        def spy(*args):
            pool_counts.append(len(args[-1]))
            return core(*args)

        monkeypatch.setattr(selectors_mod, "_greedy_core", spy)
        code = main(
            ["prune", "--embeddings", str(tmp_path / "emb.bin"),
             "--labels", str(tmp_path / "labels.txt"),
             "--confidence-metric", "external",
             "--confidence-file", str(tmp_path / "conf.txt"),
             "--method", "prune4rel_balanced", "--tau", "0.5", "--size", "3",
             "--out", str(tmp_path / "run")]
        )
        assert code == 0
        assert pool_counts == [2]
        counts = json.loads((tmp_path / "run" / "report.json").read_text())[
            "per_class_counts"]
        assert len(counts) == 1_000_001
        assert counts[0] == 2 and counts[1_000_000] == 1 and sum(counts) == 3

    def test_eval_matches_the_library_report(self, synth_dir, tmp_path, capsys):
        noisy = load_labels(synth_dir / "noisy_labels.txt") * 2
        truth = load_labels(synth_dir / "true_labels.txt") * 2
        truth[truth == 8] = 9  # a class id the noisy labels never use
        save_labels(tmp_path / "noisy.txt", noisy)
        save_labels(tmp_path / "truth.txt", truth)
        code = main(
            ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
             "--probs", str(synth_dir / "probabilities.bin"),
             "--labels", str(tmp_path / "noisy.txt"), "--method", "prune4rel_balanced",
             "--tau", "0.9", "--ratio", "0.3", "--out", str(tmp_path / "run")]
        )
        assert code == 0
        report = run_selection(
            SelectorConfig("prune4rel_balanced", 0.3, tau=0.9),
            noisy_labels=noisy, ground_truth_labels=truth,
            confidence=load_matrix(synth_dir / "probabilities.bin").max(axis=1),
            graph=build_graph(load_matrix(synth_dir / "embeddings.bin"), 0.9),
        )
        assert load_selected(tmp_path / "run" / "selected.txt").tolist() == report.selected
        capsys.readouterr()
        for truth_flags, noise_ratio in (([], None),
                                         (["--true-labels", str(tmp_path / "truth.txt")],
                                          report.noise_ratio)):
            code = main(["eval", "--selected", str(tmp_path / "run" / "selected.txt"),
                         "--noisy-labels", str(tmp_path / "noisy.txt"), *truth_flags])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["per_class_counts"] == report.per_class_counts
            assert payload["noise_ratio"] == noise_ratio
        assert len(report.per_class_counts) == 9 and report.noise_ratio > 0


class TestHostileInputs:
    """Inputs that are directories, an --out that cannot be a directory and
    integers outside int64 keep their error classes."""

    @pytest.mark.parametrize("flag", ["--embeddings", "--labels"])
    def test_input_that_is_a_directory_is_format_error(
        self, synth_dir, tmp_path, capsys, flag
    ):
        argv = ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                "--labels", str(synth_dir / "noisy_labels.txt"),
                "--method", "moderate", "--size", "5", "--out", str(tmp_path / "run")]
        argv[argv.index(flag) + 1] = str(tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:") and str(tmp_path) in err

    @pytest.mark.parametrize("command", ["prune", "synth"])
    @pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
    def test_out_that_cannot_be_a_directory_is_arg_error(
        self, synth_dir, tmp_path, monkeypatch, capsys, command, below
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "load_matrix", refuse)
        monkeypatch.setattr(cli, "load_labels", refuse)
        monkeypatch.setattr(verify_mod, "generate_synthetic", refuse)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "run" / "deeper" if below else blocker
        rest = {
            "prune": ["--embeddings", str(synth_dir / "embeddings.bin"),
                      "--labels", str(synth_dir / "noisy_labels.txt"),
                      "--method", "moderate", "--size", "5"],
            "synth": ["--classes", "2", "--per-class", "5"],
        }[command]
        code = main([command, *rest, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("E_ARG:") and "--out" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("below", [False, True], ids=["a_directory", "below_a_file"])
    def test_file_out_that_cannot_be_a_file_is_arg_error(
        self, synth_dir, tmp_path, monkeypatch, capsys, command, below
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the command started work")

        monkeypatch.setattr(cli, "load_selected", refuse)
        monkeypatch.setattr(verify_mod, "SUITE", (("exhaustive", refuse, None),))
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        taken_dir = tmp_path / "dir"
        taken_dir.mkdir()
        out = blocker / "x.json" if below else taken_dir
        rest = {
            "eval": ["--selected", str(blocker),
                     "--noisy-labels", str(synth_dir / "noisy_labels.txt")],
            "verify": [],
        }[command]
        code = main([command, *rest, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("E_ARG:") and "--out" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "taken"]
        assert list(taken_dir.iterdir()) == []
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command, suffix",
        [("verify", ".correlation.csv")],
    )
    def test_sibling_out_that_is_a_directory_is_arg_error(
        self, tmp_path, monkeypatch, capsys, command, suffix
    ):
        ran = []

        def spy(*args, **kwargs):
            ran.append(args or kwargs)
            raise AssertionError("the command started work")

        monkeypatch.setattr(verify_mod, "SUITE", (("trend", spy, None),))
        out = tmp_path / "t.json"
        (tmp_path / f"t{suffix}").mkdir()
        code = main([command, "--preset", "trend", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("E_ARG:") and "--out" in captured.err
        assert f"t{suffix}" in captured.err
        assert ran == [] and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"t{suffix}"]

    @pytest.mark.parametrize("flag", ["--probs", "--labels", "--scores",
                                      "--confidence-file"])
    def test_length_mismatch_names_flag_and_files(self, synth_dir, tmp_path, capsys, flag):
        short = tmp_path / "short.txt"
        if flag == "--probs":
            save_matrix(short, np.array([[0.5, 0.5], [0.25, 0.75]]))
        elif flag == "--labels":
            save_labels(short, np.array([0, 1]))
        else:
            np.savetxt(short, np.array([0.5, 0.25]), fmt="%.17g")
        embeddings = str(synth_dir / "embeddings.bin")
        code = main(["prune", "--embeddings", embeddings, flag, str(short),
                     "--method", "kcenter_greedy", "--size", "5",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:")
        assert f"{flag} {short} holds 2 examples" in err
        assert f"--embeddings {embeddings} holds 200" in err
        assert not (tmp_path / "run").exists()

    def test_small_loss_label_outside_probs_names_row_and_files(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        save_matrix(tmp_path / "emb.bin", rng.standard_normal((40, 4)))
        save_matrix(tmp_path / "probs.bin", rng.dirichlet(np.ones(3), size=40))
        labels = rng.integers(0, 3, size=40)
        labels[23] = 7
        save_labels(tmp_path / "labels.txt", labels)
        code = main(["prune", "--embeddings", str(tmp_path / "emb.bin"),
                     "--probs", str(tmp_path / "probs.bin"),
                     "--labels", str(tmp_path / "labels.txt"),
                     "--method", "small_loss", "--size", "5",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"E_FORMAT: --labels {tmp_path / 'labels.txt'}, "
                              f"--probs {tmp_path / 'probs.bin'}: ")
        assert "row 23 holds label 7" in err and "3 classes" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--embeddings", "--probs"])
    def test_empty_container_is_format_error_naming_the_file(
        self, synth_dir, tmp_path, capsys, flag
    ):
        files = {"--embeddings": str(synth_dir / "embeddings.bin"),
                 "--probs": str(synth_dir / "probabilities.bin")}
        empty = tmp_path / "empty.bin"
        save_matrix(empty, np.empty((0, 5)))
        files[flag] = str(empty)
        code = main(["prune", *itertools.chain(*files.items()), "--method", "prune4rel",
                     "--tau", "0.5", "--size", "1", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"E_FORMAT: {empty}: empty matrix (0 x 5)")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("route", [["--method", "margin"],
                                       ["--method", "prune4rel", "--tau", "0.5",
                                        "--confidence-metric", "diff_prob"]],
                             ids=["margin", "diff_prob"])
    def test_one_class_probs_names_the_file(self, synth_dir, tmp_path, capsys, route):
        probs = tmp_path / "one_class.bin"
        save_matrix(probs, np.ones((200, 1)))
        code = main(["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                     "--probs", str(probs), *route, "--size", "5",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"E_FORMAT: --probs {probs}: ")
        assert "at least 2 classes" in err
        assert not (tmp_path / "run").exists()

    HUGE = "99999999999999999999999"

    def test_label_outside_int64_is_format_error(self, synth_dir, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n" + self.HUGE + "\n" + "0\n" * 197)
        code = main(
            ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
             "--labels", str(labels), "--method", "moderate", "--size", "5",
             "--out", str(tmp_path / "run")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:") and f"{labels}: line 3:" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--noisy-labels", "--selected"])
    def test_eval_line_outside_int64_is_format_error(
        self, synth_dir, tmp_path, capsys, flag
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0\n{self.HUGE}\n")
        sel = tmp_path / "sel.txt"
        sel.write_text("0\n1\n")
        files = {"--selected": str(sel),
                 "--noisy-labels": str(synth_dir / "noisy_labels.txt")}
        files[flag] = str(bad)
        code = main(["eval", *itertools.chain(*files.items())])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("E_FORMAT:") and f"{bad}: line 2:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("label", [2**21, 2**40, 2**62])
    @pytest.mark.parametrize("flag", ["--labels", "--noisy-labels", "--true-labels"])
    def test_label_above_the_cap_is_format_error_before_work(
        self, synth_dir, tmp_path, monkeypatch, capsys, flag, label
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the command started work")

        monkeypatch.setattr(cli, "subset_stats", refuse)
        monkeypatch.setattr(cli, "run_selection", refuse)
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n" + f"{label}\n" + "0\n" * 197)
        sel = tmp_path / "sel.txt"
        sel.write_text("0\n1\n")
        if flag == "--labels":
            argv = ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                    "--labels", str(labels), "--method", "uniform", "--size", "5",
                    "--out", str(tmp_path / "run")]
        else:
            files = {"--noisy-labels": str(synth_dir / "noisy_labels.txt"),
                     "--true-labels": str(synth_dir / "true_labels.txt")}
            files[flag] = str(labels)
            argv = ["eval", "--selected", str(sel), *itertools.chain(*files.items())]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"E_FORMAT: {labels}: line 3: label {label} ")
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--labels", "--selected"])
    def test_bytes_that_are_not_utf8_name_file_and_line(
        self, synth_dir, tmp_path, capsys, flag
    ):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0\n1\n2\n3\xff\n" + b"0\n" * 196)
        if flag == "--labels":
            argv = ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                    "--labels", str(bad), "--method", "uniform", "--size", "5",
                    "--out", str(tmp_path / "run")]
        else:
            argv = ["eval", "--selected", str(bad),
                    "--noisy-labels", str(synth_dir / "noisy_labels.txt")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"E_FORMAT: {bad}: line 4: not UTF-8 text\n"
        assert captured.out == ""


class TestOneOwner:
    """prune parses every file it is given, and records exactly those; the
    command measures the graph build; flag defaults come from the library."""

    @pytest.mark.parametrize(
        "method, extra",
        [("prune4rel", ["--tau", "0.9"]),
         ("kcenter_greedy", ["--confidence-metric", "external"])],
    )
    def test_malformed_confidence_file_is_format_error(
        self, synth_dir, tmp_path, capsys, method, extra
    ):
        bad = tmp_path / "conf.txt"
        bad.write_text("0.5\nnot-a-number\n")
        code = run_prune(synth_dir, tmp_path / "run", "--method", method,
                         "--size", "5", "--confidence-file", str(bad), *extra)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("E_FORMAT:") and f"{bad}: line 2:" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method, extra", [("uniform", []),
                                               ("prune4rel", ["--tau", "0.9"])])
    def test_manifest_inputs_are_the_files_parsed(
        self, synth_dir, tmp_path, monkeypatch, capsys, method, extra
    ):
        parsed = []

        def recording(load):
            def read(path, *args, **kwargs):
                parsed.append(str(path))
                return load(path, *args, **kwargs)
            return read

        for name in ("load_matrix", "load_probabilities", "load_labels",
                     "load_scores", "load_external_confidence"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        conf = tmp_path / "conf.txt"
        np.savetxt(conf, np.random.default_rng(0).uniform(0, 1, 200), fmt="%.17g")
        scores = tmp_path / "scores.txt"
        np.savetxt(scores, np.arange(200, dtype=float), fmt="%.17g")
        out = tmp_path / "run"
        code = run_prune(synth_dir, out, "--method", method, "--size", "5",
                         "--scores", str(scores), "--confidence-file", str(conf), *extra)
        capsys.readouterr()
        assert code == 0
        files = {
            "embeddings": synth_dir / "embeddings.bin",
            "probs": synth_dir / "probabilities.bin",
            "labels": synth_dir / "noisy_labels.txt",
            "scores": scores,
            "confidence_file": conf,
        }
        assert sorted(parsed) == sorted(str(path) for path in files.values())
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {
            name: hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
            for name, path in files.items()
        }

    def test_graph_build_time_is_measured_by_prune(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert run_prune(synth_dir, out, "--method", "prune4rel", "--size", "5",
                         "--tau", "0.9") == 0
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert report["timings"]["graph_build_s"] > 0
        assert report["timings"] == manifest["timings"]
        assert list(manifest["timings"]) == ["graph_build_s", "selection_s"]

    def test_library_report_has_no_graph_build_time(self):
        graph = build_graph(np.eye(3), 0.5)
        config = SelectorConfig(method="prune4rel", budget=2, tau=0.5)
        report = run_selection(config, confidence=[0.2, 0.5, 0.9], graph=graph)
        assert json.loads(report.to_json())["timings"]["graph_build_s"] == 0.0

    def test_synth_and_prune_defaults_are_the_library_defaults(self, tmp_path):
        parser = cli.build_parser()
        args = parser.parse_args(["synth", "--classes", "2", "--per-class", "5",
                                  "--out", str(tmp_path)])
        library = verify_mod.SynthConfig(num_classes=2, points_per_class=5,
                                         embedding_dim=args.dim)
        assert (args.noise, args.noise_model, args.concentration, args.separation,
                (args.clean_conf_mean, args.clean_conf_std),
                (args.noisy_conf_mean, args.noisy_conf_std), args.seed) == (
            library.noise_rate, library.noise_model,
            library.within_class_concentration, library.between_class_separation,
            library.clean_confidence, library.noisy_confidence, library.seed)
        args = parser.parse_args(["prune", "--embeddings", "e", "--method", "uniform",
                                  "--size", "1", "--out", str(tmp_path)])
        library = SelectorConfig(method="uniform", budget=1)
        assert (args.seed, args.utility) == (library.seed, library.utility.kind)
