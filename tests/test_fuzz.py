"""Seeded mutation fuzzing of the command line's error contract.

Each case copies one file of a small valid input set and mutates it: it
truncates the file, flips bytes, splices in a huge, negative, NaN or
non-UTF-8 token, or puts a directory in its place. It then runs a command
that reads the file through cli.main in this process. The command must exit
with 0, E_ARG (2), E_FORMAT (3) or E_GUARD (4) and raise nothing else; and
when the mutated file no longer loads on its own, the command must exit
with E_FORMAT naming that file.
"""

import numpy as np
import pytest

from neighborprune.cli import main
from neighborprune.dataset import (
    load_external_confidence,
    load_labels,
    load_matrix,
    load_probabilities,
    load_scores,
    save_labels,
    save_matrix,
)
from neighborprune.selectors import load_selected

M = 40
PREFIXES = {0: "", 2: "E_ARG: ", 3: "E_FORMAT: ", 4: "E_GUARD: "}

# Each input file with its loader.
READERS = {
    "emb.bin": load_matrix,
    "emb.csv": lambda path: load_matrix(path, "csv"),
    "probs.bin": load_probabilities,
    "labels.txt": load_labels,
    "true.txt": load_labels,
    "scores.txt": load_scores,
    "conf.txt": load_external_confidence,
    "selected.txt": load_selected,
}

# Commands, with input files named as in READERS.
COMMANDS = [
    ["prune", "--embeddings", "emb.bin", "--probs", "probs.bin", "--labels", "labels.txt",
     "--method", "prune4rel_balanced", "--tau", "0.5", "--size", "10"],
    ["prune", "--embeddings", "emb.csv", "--embeddings-format", "csv",
     "--confidence-metric", "external", "--confidence-file", "conf.txt",
     "--method", "prune4rel", "--tau", "0.5", "--size", "10"],
    ["prune", "--embeddings", "emb.bin", "--labels", "labels.txt",
     "--method", "uniform", "--size", "10"],
    ["prune", "--embeddings", "emb.bin", "--probs", "probs.bin", "--labels", "labels.txt",
     "--scores", "scores.txt", "--method", "small_loss", "--size", "10"],
    ["eval", "--selected", "selected.txt", "--noisy-labels", "labels.txt",
     "--true-labels", "true.txt"],
]

# Spliced tokens. A label of 2**40 once asked numpy for an 8 TiB count
# array, and a 0xff byte once gave an E_FORMAT that named no file.
TOKENS = [
    b"1099511627776", b"4611686018427387904", b"99999999999999999999999",
    b"1e308", b"-1", b"-0.5", b"nan", b"inf", b"\xff", b"\xc3(", b"\xed\xa0\x80",
]
MUTATIONS = ("truncate", "flip", "splice", "directory")
CASES_PER_SEED = 30


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    rng = np.random.default_rng(0)
    out = tmp_path_factory.mktemp("clean")
    emb = rng.standard_normal((M, 4))
    save_matrix(out / "emb.bin", emb)
    np.savetxt(out / "emb.csv", emb, delimiter=",", fmt="%.17g")
    save_matrix(out / "probs.bin", rng.dirichlet(np.ones(3), size=M))
    labels = rng.integers(0, 3, M)
    save_labels(out / "labels.txt", labels)
    save_labels(out / "true.txt", np.where(rng.uniform(size=M) < 0.8, labels, 0))
    np.savetxt(out / "scores.txt", rng.uniform(0, 1, M), fmt="%.17g")
    np.savetxt(out / "conf.txt", rng.uniform(0, 1, M), fmt="%.17g")
    save_labels(out / "selected.txt", rng.permutation(M)[:10])
    return out


def mutate(rng, blob: bytes) -> tuple[str, bytes | None]:
    """A mutation's name and the mutated bytes (None: a directory)."""
    kind = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
    data = bytearray(blob)
    if kind == "truncate":
        del data[int(rng.integers(len(data))):]
    elif kind == "flip":
        for pos in rng.integers(len(data), size=int(rng.integers(1, 4))):
            data[pos] ^= int(rng.integers(1, 256))
    elif kind == "splice":
        token = TOKENS[int(rng.integers(len(TOKENS)))]
        lines = data.split(b"\n")
        if rng.uniform() < 0.5:  # a whole line
            lines[int(rng.integers(len(lines) - 1))] = token
            data = bytearray(b"\n".join(lines))
        else:
            pos = int(rng.integers(len(data) + 1))
            data[pos:pos] = token
    else:
        return kind, None
    return kind, bytes(data)


@pytest.mark.parametrize("seed", range(10))
def test_mutated_inputs_keep_error_classes(clean_dir, tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    for case in range(CASES_PER_SEED):
        command = COMMANDS[int(rng.integers(len(COMMANDS)))]
        names = [arg for arg in command if arg in READERS]
        name = names[int(rng.integers(len(names)))]
        kind, data = mutate(rng, (clean_dir / name).read_bytes())
        case_dir = tmp_path / f"case{case}"
        case_dir.mkdir()
        mutated = case_dir / name
        if data is None:
            mutated.mkdir()
        else:
            mutated.write_bytes(data)
        argv = [str(mutated if arg == name else clean_dir / arg) if arg in READERS
                else arg for arg in command]
        if command[0] == "prune":
            argv += ["--out", str(case_dir / "run")]
        what = f"seed {seed} case {case}: {kind} {name}, {' '.join(command[:1] + command[-6:])}"

        code = main(argv)  # any other exception fails the test
        err = capsys.readouterr().err
        assert code in PREFIXES, what
        assert err.startswith(PREFIXES[code]) and err.count("\n") <= 1, (what, err)
        try:
            READERS[name](mutated)
        except (ValueError, OSError):
            assert code == 3 and str(mutated) in err, (what, err)
