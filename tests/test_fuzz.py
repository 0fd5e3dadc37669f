"""Seeded mutation fuzzing of every file the command line reads.

The method is Miller, Fredriksen & So (1990, "An Empirical Study of the
Reliability of UNIX Utilities", CACM): valid seeds of run.cfg, an SNLI
JSON-lines corpus, a norm conflict CSV, a checkpoint and its vocabulary
are mutated at fixed seeds, and each mutant goes through ``run_cli``. Each
must end in exit code 0 or 2 with no traceback. A run that exits 2 prints
one error line and leaves no output directory behind, and a checkpoint it
rejects is named by the section at fault, as ``load_checkpoint`` reports it.
"""

import copy
import csv
import hashlib
import io
import json
import random

import pytest
from helpers import build_toy_config, build_toy_params, make_corpus

from norminfer.base import CheckpointError
from norminfer.cli import EXIT_DATA, EXIT_OK, run_cli
from norminfer.persistence import load_checkpoint, load_config, parse_config_text, save_checkpoint
from norminfer.text import build_vocab, bundled_conflicts_path

SEEDS = (0, 1, 2)
# the sections a checkpoint error names first
SECTIONS = ("file", "magic", "version", "header", "config", "meta", "tensor manifest", "payload")
# config values of another kind than their key's, or outside its bounds
RETYPED = ("twelve", "4.5", "1e400", "-1e400", "nan", "inf", "-inf", "true", "False", "1_000",
           "-1", "0", "", "0x10", "1e-400", "+3", "٣", "None")
# JSON values of another kind than a field's
JSON_VALUES = (None, True, -1, 0, 2.5, 1e300, 10**20, "12", "", [], {})

CONFIG_LINES = (
    "n_blocks = 1",
    "n_heads = 2",
    "d_model = 8",
    "max_len = 16",
    "dropout = 0.1",
    "base_lr = 0.001",
    "batch_size = 8",
    "min_count = 1",
    "seed = 7",
)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid inputs for every reader, around a toy checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = make_corpus(12)
    (root / "train.jsonl").write_text(
        "".join(json.dumps({"sentence1": e.premise, "sentence2": e.hypothesis,
                            "gold_label": e.label}) + "\n" for e in corpus),
        encoding="utf-8",
    )
    (root / "empty.jsonl").write_text("", encoding="utf-8")
    vocab = build_vocab(corpus)
    vocab.save(root / "vocab.txt")
    config = build_toy_config(vocab_words=len(vocab), n_blocks=1)
    save_checkpoint(build_toy_params(config), {"best_epoch": 3, "vocab_sha256": vocab.content_hash()},
                    root / "checkpoint.bin")
    return root


def byte_mutants(rng, raw):
    """Truncation, a flipped bit, a NUL byte and bytes that are not UTF-8,
    each at a position drawn from ``rng``."""
    flipped = bytearray(raw)
    flipped[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    nul, latin = rng.randrange(len(raw)), rng.randrange(len(raw))
    return [
        ("truncate", raw[: rng.randrange(len(raw))]),
        ("flip a bit", bytes(flipped)),
        ("NUL byte", raw[:nul] + b"\0" + raw[nul:]),
        ("not UTF-8", raw[:latin] + b"\xff\xfe" + raw[latin:]),
    ]


def line_mutants(rng, lines):
    """Drop, duplicate or swap whole lines."""
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    swapped = list(lines)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [
        ("drop a line", lines[:i] + lines[i + 1 :]),
        ("duplicate a line", lines[: i + 1] + lines[i:]),
        ("swap two lines", swapped),
    ]


def check_run(argv, capsys, allowed, out=None):
    """Run ``argv`` and return its exit code and stdout, which must be one
    of ``allowed`` and come with no traceback. On exit 2 an error line
    names the fault and ``out`` is not left behind."""
    code = run_cli([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code in allowed, (argv, captured.err)
    assert "Traceback" not in captured.err
    if code == EXIT_DATA:
        assert ("\n" + captured.err).count("\nerror: ") == 1, captured.err
        assert out is None or not out.exists(), f"{out} left behind"
    return code, captured.out


def write_mutants(tmp_path, mutants, suffix):
    for i, (name, data) in enumerate(mutants):
        path = tmp_path / f"mutant{i}{suffix}"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        yield i, name, path


@pytest.mark.parametrize("seed", SEEDS)
def test_config_mutants(seeds, tmp_path, capsys, seed):
    """inspect echoes a config it accepts so that the echo parses back to
    it; train, whose corpus holds no usable example, exits 2 on every
    mutant."""
    rng = random.Random(seed)
    lines = [*CONFIG_LINES, f"train_path = {seeds / 'empty.jsonl'}", "output_dir = out"]
    mutants = [(name, "\n".join(m) + "\n") for name, m in line_mutants(rng, lines)]
    for i, line in enumerate(lines):
        key = line.partition(" = ")[0]
        mutants.append((f"retype {key}", "\n".join(
            lines[:i] + [f"{key} = {rng.choice(RETYPED)}"] + lines[i + 1 :]) + "\n"))
    i = rng.randrange(len(lines))
    mutants += [
        ("unknown key", "\n".join(lines[:i] + ["x" + lines[i]] + lines[i + 1 :]) + "\n"),
        ("no equals sign", "\n".join(lines[:i] + [lines[i].replace("=", "")]
                                     + lines[i + 1 :]) + "\n"),
        *byte_mutants(rng, ("\n".join(lines) + "\n").encode("utf-8")),
    ]
    for i, name, path in write_mutants(tmp_path, mutants, ".cfg"):
        code, out = check_run(["inspect", "--config", path], capsys, (EXIT_OK, EXIT_DATA))
        if code == EXIT_OK:
            count, _, echo = out.partition("\n")
            assert count.startswith("parameters = ")
            cfg = load_config(path)
            assert parse_config_text(echo) == cfg, name
            cfg.model_config(), cfg.train_config()  # what inspect accepts, train does
        check_run(["train", "--config", path, "--output-dir", tmp_path / f"out{i}"],
                  capsys, (EXIT_DATA,), out=tmp_path / f"out{i}")


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_mutants(seeds, tmp_path, capsys, seed):
    rng = random.Random(seed)
    records = [json.loads(line) for line in
               (seeds / "train.jsonl").read_text(encoding="utf-8").splitlines()]
    fields = ("sentence1", "sentence2", "gold_label")
    edits = {
        "drop a field": lambda r: r.pop(rng.choice(fields)),
        "empty text": lambda r: r.update({rng.choice(fields[:2]): rng.choice(("", "  ", "\t"))}),
        "unknown label": lambda r: r.update(gold_label=rng.choice(("maybe", "Entailment", "-", 0))),
        "retype a field": lambda r: r.update({rng.choice(fields): rng.choice(JSON_VALUES)}),
        "no consensus anywhere": lambda r: r.update(gold_label="-"),
    }
    mutants = []
    for name, edit in edits.items():
        mutated = copy.deepcopy(records)
        for r in mutated if name == "no consensus anywhere" else [rng.choice(mutated)]:
            edit(r)
        mutants.append((name, [json.dumps(r) for r in mutated]))
    lines = [json.dumps(r) for r in records]
    i = rng.randrange(len(lines))
    mutants.append(("not an object", lines[:i] + [rng.choice(("[1, 2]", '"x"', "3", "null", "{"))]
                    + lines[i + 1 :]))
    mutants = [(name, "\n".join(m) + "\n") for name, m in mutants + line_mutants(rng, lines)]
    mutants += byte_mutants(rng, (seeds / "train.jsonl").read_bytes())
    for i, name, path in write_mutants(tmp_path, mutants, ".jsonl"):
        check_run(["eval", "--checkpoint", seeds / "checkpoint.bin",
                   "--vocab", seeds / "vocab.txt", "--data", path], capsys, (EXIT_OK, EXIT_DATA))
        (tmp_path / f"run{i}.cfg").write_text(
            "\n".join([*CONFIG_LINES, "max_epochs = 0", f"train_path = {path}"]), encoding="utf-8")
        check_run(["train", "--config", tmp_path / f"run{i}.cfg", "--output-dir",
                   tmp_path / f"out{i}"], capsys, (EXIT_OK, EXIT_DATA), out=tmp_path / f"out{i}")


@pytest.mark.parametrize("seed", SEEDS)
def test_conflicts_mutants(seeds, tmp_path, capsys, seed):
    rng = random.Random(seed)
    with bundled_conflicts_path().open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[:5]

    def edit_cell(column, values):
        mutated = copy.deepcopy(rows)
        mutated[rng.randrange(1, len(rows))][column] = rng.choice(values)
        return mutated

    column = rng.randrange(3)
    i = rng.randrange(1, len(rows))
    mutants = [
        ("drop a column", [r[:column] + r[column + 1 :] for r in rows]),
        ("empty norm", edit_cell(rng.randrange(2), ("", "  "))),
        ("unknown type", edit_cell(2, ("deontic", "none", "", "Object Conditional"))),
        ("overlong field", edit_cell(rng.randrange(2), ("x " * 70_000,))),
        ("short row", rows[:i] + [rows[i][:-1]] + rows[i + 1 :]),
        ("extra cell", rows[:i] + [rows[i] + ["extra"]] + rows[i + 1 :]),
    ]
    mutants = [(name, _csv_text(m)) for name, m in mutants + line_mutants(rng, rows)]
    text = _csv_text(rows)
    quote = rng.randrange(len(text))
    mutants.append(("stray quote", text[:quote] + '"' + text[quote:]))
    mutants += byte_mutants(rng, text.encode("utf-8"))
    for i, name, path in write_mutants(tmp_path, mutants, ".csv"):
        check_run(["analyze-conflicts", "--checkpoint", seeds / "checkpoint.bin",
                   "--vocab", seeds / "vocab.txt", "--conflicts", path,
                   "--output-dir", tmp_path / f"out{i}"],
                  capsys, (EXIT_OK, EXIT_DATA), out=tmp_path / f"out{i}")


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_mutants(seeds, tmp_path, capsys, seed):
    rng = random.Random(seed)
    raw = (seeds / "checkpoint.bin").read_bytes()
    header_end = 20 + int.from_bytes(raw[12:20], "little")
    header = json.loads(raw[20:header_end])

    def rewritten(edit):
        mutated = copy.deepcopy(header)
        edit(mutated)
        data = json.dumps(mutated, sort_keys=True, separators=(",", ":")).encode()
        return raw[:12] + len(data).to_bytes(8, "little") + data + raw[header_end:]

    def consistent_config(h):
        h["config"][rng.choice(list(h["config"]))] = rng.choice((1, 2, 7, 1000, 10**12))
        h["config_sha256"] = hashlib.sha256(json.dumps(
            h["config"], sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    mutants = [
        ("delete a header field", rewritten(lambda h: h.pop(rng.choice(list(h))))),
        ("retype a header field",
         rewritten(lambda h: h.update({rng.choice(list(h)): rng.choice(JSON_VALUES)}))),
        ("retype a config value", rewritten(
            lambda h: h["config"].update({rng.choice(list(h["config"])): rng.choice(JSON_VALUES)}))),
        ("change a config value and its hash", rewritten(consistent_config)),
        ("retype a manifest entry", rewritten(lambda h: rng.choice(h["tensors"]).update(
            {rng.choice(("name", "shape", "dtype")): rng.choice(JSON_VALUES)}))),
        *((f"flip a bit in the {part}", _flip(rng, raw, lo, hi))
          for part, lo, hi in (("prefix", 0, 20), ("header", 20, header_end),
                               ("payload", header_end, len(raw)))),
        *byte_mutants(rng, raw),
    ]
    for _, name, path in write_mutants(tmp_path, mutants, ".bin"):
        code, _ = check_run(["infer", "--checkpoint", path, "--vocab", seeds / "vocab.txt",
                             "--premise", "a dog", "--hypothesis", "a cat"],
                            capsys, (EXIT_OK, EXIT_DATA))
        if code == EXIT_DATA:
            with pytest.raises(CheckpointError) as caught:
                load_checkpoint(path)
            assert str(caught.value).startswith(tuple(f"{s}: " for s in SECTIONS)), name


def _flip(rng, raw, lo, hi):
    out = bytearray(raw)
    out[rng.randrange(lo, hi)] ^= 1 << rng.randrange(8)
    return bytes(out)


@pytest.mark.parametrize("seed", SEEDS)
def test_vocabulary_mutants(seeds, tmp_path, capsys, seed):
    rng = random.Random(seed)
    raw = (seeds / "vocab.txt").read_bytes()
    tokens = raw.decode("utf-8").splitlines()
    mutants = [(name, "\n".join(m) + "\n") for name, m in line_mutants(rng, tokens)]
    mutants += [("empty file", b""), *byte_mutants(rng, raw)]
    for _, name, path in write_mutants(tmp_path, mutants, ".txt"):
        check_run(["infer", "--checkpoint", seeds / "checkpoint.bin", "--vocab", path,
                   "--premise", "a dog", "--hypothesis", "a cat"], capsys, (EXIT_OK, EXIT_DATA))
