import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neighborprune import verify as verify_mod
from neighborprune.cli import main, method_inputs_help
from neighborprune.dataset import load_labels, load_matrix, save_labels, save_matrix, save_scores
from neighborprune.selectors import load_selected


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
    save_scores(out / "scores.txt", np.random.default_rng(99).uniform(0, 1, 200))
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
        # --probs is validated on load, also for methods that never read it.
        probs = tmp_path / "probs.bin"
        for method, value in (("margin", 0.25), ("uniform", 1.0)):
            save_matrix(probs, np.full((200, 2), value))
            code = main(
                ["prune", "--embeddings", str(synth_dir / "embeddings.bin"),
                 "--probs", str(probs), "--method", method, "--ratio", "0.2",
                 "--out", str(tmp_path / "run")]
            )
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("E_FORMAT:")
            assert str(probs) in err

    def test_bad_magic_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        code = main(
            ["prune", "--embeddings", str(bad), "--method", "uniform",
             "--ratio", "0.5", "--out", str(tmp_path / "run")]
        )
        assert code == 3
        assert "E_FORMAT" in capsys.readouterr().err

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
        save_scores(conf_path, rng.uniform(0, 1, 200))
        out = tmp_path / "run"
        code = run_prune(
            synth_dir, out, "--method", "prune4rel", "--ratio", "0.1",
            "--tau", "0.9", "--confidence-metric", "external",
            "--confidence-file", str(conf_path),
        )
        assert code == 0

    def test_scores_method(self, synth_dir, tmp_path):
        scores_path = tmp_path / "scores.txt"
        save_scores(scores_path, np.arange(200, dtype=float))
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
            "noise_ratio", "timings", "config",
        ]
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

    def test_readme_lists_method_inputs_from_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert method_inputs_help() in readme


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


class TestBenchCommand:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--m-list", "200,400", "--d", "8", "--ratio", "0.5",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,method,seconds"
        assert len(lines) == 1 + 2 * 2
        assert out.with_suffix(".manifest.json").exists()

    def test_bad_m_list(self, capsys):
        code = main(["bench", "--m-list", "17,zebra"])
        assert code == 2
        assert "--m-list" in capsys.readouterr().err

    def test_unknown_method_rejected_before_measuring(self, monkeypatch, capsys):
        measured = []

        def fake_benchmark(m_list, **kwargs):
            measured.append(kwargs["methods"])
            return []

        monkeypatch.setattr(verify_mod, "run_scaling_benchmark", fake_benchmark)
        code = main(["bench", "--m-list", "200", "--methods", "prune4rel,nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "E_ARG" in err and "'nope'" in err
        assert measured == []


class TestParsing:
    def test_unknown_method_is_arg_error(self, synth_dir, tmp_path, capsys):
        code = run_prune(synth_dir, tmp_path / "r", "--method", "glister",
                         "--ratio", "0.5")
        assert code == 2
        assert "E_ARG" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        code = main(["transmogrify"])
        assert code == 2
        assert "E_ARG" in capsys.readouterr().err
