"""Command-line behavior: subcommands, exit codes, artifact layout."""

import csv
import hashlib
import json
import resource
import shutil
import subprocess
import sys

import pytest
from helpers import build_toy_config, build_toy_params, make_corpus

from norminfer import estimator
from norminfer.base import CheckpointError
from norminfer.cli import (
    CHECKPOINT_FILE,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    OUTPUT_DIR_ENV,
    REPORT_CSV_FILE,
    REPORT_TEXT_FILE,
    RUNCONFIG_FILE,
    TRAINLOG_FILE,
    VOCAB_FILE,
    _load_classifier,
    _resolve_output_dir,
    run_cli,
)
from norminfer.model import count_parameters
from norminfer.persistence import RunConfig, load_checkpoint, save_checkpoint
from norminfer.text import CLASSES, Vocabulary

TINY_MODEL_LINES = (
    "n_blocks = 1",
    "n_heads = 2",
    "d_model = 8",
    "max_len = 16",
    "batch_size = 8",
    "max_epochs = 2",
    "seed = 7",
)


def write_jsonl(path, examples):
    lines = [
        json.dumps(
            {"sentence1": e.premise, "sentence2": e.hypothesis, "gold_label": e.label}
        )
        for e in examples
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path, *extra_lines):
    # later lines win so tests can override the tiny-model baseline
    merged = {}
    for line in TINY_MODEL_LINES + extra_lines:
        key, _, value = line.partition("=")
        merged[key.strip()] = value.strip()
    text = "\n".join(f"{k} = {v}" for k, v in merged.items())
    path.write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A completed training run whose artifacts the read-only tests share."""
    root = tmp_path_factory.mktemp("cli")
    write_jsonl(root / "train.jsonl", make_corpus(24))
    write_jsonl(root / "val.jsonl", make_corpus(8, seed=1))
    out_dir = root / "run"
    write_config(
        root / "run.cfg",
        f"train_path = {root / 'train.jsonl'}",
        f"validation_path = {root / 'val.jsonl'}",
        f"output_dir = {out_dir}",
    )
    assert run_cli(["train", "--config", str(root / "run.cfg")]) == EXIT_OK
    return root


def artifact(workspace, name):
    return str(workspace / "run" / name)


class TestTrain:
    def test_artifacts_written(self, workspace, capsys):
        out_dir = workspace / "run"
        for name in (CHECKPOINT_FILE, VOCAB_FILE, TRAINLOG_FILE, RUNCONFIG_FILE):
            assert (out_dir / name).is_file(), name

    def test_writes_stay_inside_output_dir(self, workspace):
        top_level = {p.name for p in workspace.iterdir()}
        assert top_level == {"train.jsonl", "val.jsonl", "run.cfg", "run"}

    def test_trainlog_has_epoch_rows(self, workspace):
        lines = (workspace / "run" / TRAINLOG_FILE).read_text().splitlines()
        assert lines[0].startswith("epoch\t")
        assert len(lines) >= 3

    def test_echoed_config_reparses(self, workspace):
        from norminfer.persistence import load_config

        cfg = load_config(workspace / "run" / RUNCONFIG_FILE)
        assert cfg.n_blocks == 1
        assert cfg.max_epochs == 2

    def test_output_dir_flag_beats_config(self, tmp_path, capsys):
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'from_config'}",
            "max_epochs = 1",
        )
        elsewhere = tmp_path / "from_flag"
        code = run_cli(
            ["train", "--config", str(tmp_path / "c.cfg"), "--output-dir", str(elsewhere)]
        )
        assert code == EXIT_OK
        assert (elsewhere / CHECKPOINT_FILE).is_file()
        assert not (tmp_path / "from_config").exists()

    def test_env_var_overrides_config(self, tmp_path, monkeypatch, capsys):
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'from_config'}",
            "max_epochs = 1",
        )
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_OK
        assert (tmp_path / "from_env" / CHECKPOINT_FILE).is_file()

    def test_missing_train_path_key(self, tmp_path, capsys):
        write_config(tmp_path / "c.cfg")
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert "train_path" in capsys.readouterr().err

    def test_nonexistent_train_file(self, tmp_path, capsys):
        write_config(tmp_path / "c.cfg", f"train_path = {tmp_path / 'nope.jsonl'}")
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert "nope.jsonl" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("n_blockz = 12\n")
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert "n_blockz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, code",
        [("n_classes = 7", EXIT_DATA), ("layer_norm_eps = 0.25", EXIT_DATA),
         ("n_classes = 3", EXIT_OK), ("layer_norm_eps = 1e-5", EXIT_OK)],
    )
    def test_model_keys_the_classifier_does_not_take(self, tmp_path, capsys, line, code):
        # train must build what run.cfg records, or refuse to train at all
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'out'}",
            "max_epochs = 1",
            line,
        )
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == code
        if code == EXIT_DATA:
            assert repr(line.split()[0]) in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        else:
            from norminfer.persistence import load_checkpoint, load_config

            built = load_checkpoint(tmp_path / "out" / CHECKPOINT_FILE).params.config
            recorded = load_config(tmp_path / "out" / RUNCONFIG_FILE)
            assert built == recorded.model_config(vocab_words=built.vocab_words)

    @pytest.mark.parametrize(
        "line",
        ["seed = -1", "base_lr = inf", "clip_bound = inf", "d_model = 9", "dropout = 1.0",
         "min_count = 0", "min_count = 1.5"],
    )
    def test_bad_train_values_exit_data_before_any_write(self, tmp_path, capsys, monkeypatch, line):
        def no_load(*args):
            raise AssertionError("train read its corpus before checking its config")

        monkeypatch.setattr("norminfer.cli.load_snli", no_load)
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        (tmp_path / "out").mkdir()
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'out'}",
            "max_epochs = 1",
            line,
        )
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert line.split()[0] in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("key", ["train_path", "validation_path"])
    def test_file_without_usable_examples_exits_data_before_the_model(
        self, tmp_path, capsys, monkeypatch, key
    ):
        from norminfer.model import ModelParameters

        def no_init(*args, **kwargs):
            raise AssertionError("train built a model for data it cannot use")

        monkeypatch.setattr(ModelParameters, "initialize", no_init)
        paths = {"train_path": tmp_path / "train.jsonl", "validation_path": tmp_path / "val.jsonl"}
        write_jsonl(paths["train_path"], make_corpus(16))
        write_jsonl(paths["validation_path"], make_corpus(8, seed=1))
        # a record without annotator consensus is dropped on load
        paths[key].write_text(
            json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "-"}) + "\n",
            encoding="utf-8",
        )
        write_config(
            tmp_path / "c.cfg",
            *(f"{name} = {path}" for name, path in paths.items()),
            f"output_dir = {tmp_path / 'out'}",
        )
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert f"error: {key} {paths[key]} holds no usable examples" in capsys.readouterr().err

    @pytest.mark.parametrize("before", ["missing", "empty", "in-use"])
    @pytest.mark.parametrize("key", ["train_path", "validation_path"])
    def test_file_without_usable_examples_leaves_no_directory_it_made(
        self, tmp_path, capsys, key, before
    ):
        """The output directory goes again only if this run made it and
        nothing is in it; one that was there is left as it was."""
        out = tmp_path / "deep" / "out"
        if before != "missing":
            out.mkdir(parents=True)
        if before == "in-use":
            (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        paths = {"train_path": tmp_path / "train.jsonl", "validation_path": tmp_path / "val.jsonl"}
        write_jsonl(paths["train_path"], make_corpus(16))
        write_jsonl(paths["validation_path"], make_corpus(8, seed=1))
        paths[key].write_text("", encoding="utf-8")
        write_config(
            tmp_path / "c.cfg",
            *(f"{name} = {path}" for name, path in paths.items()),
            f"output_dir = {out}",
        )
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert "holds no usable examples" in capsys.readouterr().err
        assert out.exists() == (before != "missing")
        assert out.parent.exists() == (before != "missing")
        if before == "in-use":
            assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_run_cfg_records_the_built_vocabulary(self, tmp_path, capsys):
        """run.cfg holds the size of the vocabulary train built, so
        inspect on it counts the parameters of the saved model."""
        from norminfer.persistence import load_checkpoint, load_config

        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'out'}",
            "max_epochs = 1",
        )
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_OK
        params = load_checkpoint(tmp_path / "out" / CHECKPOINT_FILE).params
        recorded = load_config(tmp_path / "out" / RUNCONFIG_FILE)
        vocab_lines = (tmp_path / "out" / VOCAB_FILE).read_text(encoding="utf-8").splitlines()
        assert recorded.vocab_words == params.config.vocab_words == len(vocab_lines)
        assert recorded.model_config() == params.config
        capsys.readouterr()
        assert run_cli(["inspect", "--config", str(tmp_path / "out" / RUNCONFIG_FILE)]) == EXIT_OK
        assert f"parameters = {params.n_parameters()}" in capsys.readouterr().out.splitlines()

    def test_zero_epochs_write_a_strict_json_header(self, tmp_path, capsys):
        """With no epoch there is no validation accuracy: the header holds
        null, not -Infinity, and parses as strict JSON."""
        from norminfer.persistence import load_checkpoint

        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'out'}",
            "max_epochs = 0",
        )
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_OK
        assert "val accuracy none" in capsys.readouterr().out
        raw = (tmp_path / "out" / CHECKPOINT_FILE).read_bytes()
        header_end = 20 + int.from_bytes(raw[12:20], "little")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        header = json.loads(raw[20:header_end], parse_constant=reject)
        assert header["meta"]["val_accuracy"] is None
        assert load_checkpoint(tmp_path / "out" / CHECKPOINT_FILE).meta["val_accuracy"] is None

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_output_dir_on_a_file_exits_data_before_fitting(
        self, tmp_path, capsys, monkeypatch, under
    ):
        from norminfer.estimator import NliClassifier

        def no_fit(*args):
            raise AssertionError("train fitted although it cannot write its output")

        monkeypatch.setattr(NliClassifier, "fit", no_fit)
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        (tmp_path / "taken").write_text("a file\n", encoding="utf-8")
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'taken' / under}",
        )
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(["train", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: cannot create output directory")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "a file\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_numeric(self, tmp_path, capsys):
        # the huge learning rate is meant to overflow; the warnings it
        # triggers on the way to NaN are part of the scenario
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(
            tmp_path / "c.cfg",
            f"train_path = {tmp_path / 'train.jsonl'}",
            f"output_dir = {tmp_path / 'out'}",
            "max_epochs = 3",
            "base_lr = 1e38",
        )
        code = run_cli(["train", "--config", str(tmp_path / "c.cfg")])
        assert code == EXIT_NUMERIC
        assert (tmp_path / "out" / CHECKPOINT_FILE).is_file()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run_cli(["train"]) == EXIT_USAGE

    def test_help_exits_ok(self, capsys):
        assert run_cli(["--help"]) == EXIT_OK
        assert "analyze-conflicts" in capsys.readouterr().out


class TestEval:
    def test_accuracy_line(self, workspace, capsys):
        code = run_cli(
            [
                "eval",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--data", str(workspace / "val.jsonl"),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("accuracy 0.")
        assert "on 8 pairs" in out

    def test_missing_data_file(self, workspace, capsys):
        code = run_cli(
            [
                "eval",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--data", str(workspace / "absent.jsonl"),
            ]
        )
        assert code == EXIT_DATA

    def test_corrupt_checkpoint(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken.bin"
        raw = bytearray((workspace / "run" / CHECKPOINT_FILE).read_bytes())
        raw[-1] ^= 0xFF
        broken.write_bytes(bytes(raw))
        code = run_cli(
            [
                "eval",
                "--checkpoint", str(broken),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--data", str(workspace / "val.jsonl"),
            ]
        )
        assert code == EXIT_DATA
        assert "checksum" in capsys.readouterr().err


class TestInfer:
    def test_probability_lines(self, workspace, capsys):
        code = run_cli(
            [
                "infer",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--premise", "a dog is walking in the park",
                "--hypothesis", "a dog is walking",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        named = dict(line.rsplit(" ", 1) for line in lines[:3])
        assert list(named) == ["entailment", "contradiction", "neutral"]
        assert sum(float(v) for v in named.values()) == pytest.approx(1.0, abs=1e-5)
        assert lines[3].split() == ["predicted", lines[3].split()[1]]
        assert lines[3].split()[1] in named

    @pytest.mark.parametrize("words", [1, 40], ids=["whole", "truncated"])
    def test_the_pair_is_encoded_once(self, workspace, capsys, monkeypatch, words):
        """infer encodes its pair once and prints what predict_proba gives,
        with the truncation note from that same encoding."""
        model = [artifact(workspace, CHECKPOINT_FILE), artifact(workspace, VOCAB_FILE)]
        pair = (" ".join(["a dog is walking"] * words), "a dog is walking")
        probs = _load_classifier(*model).predict_proba([pair])[0]
        want = "".join(f"{name} {value:.6f}\n" for name, value in zip(CLASSES, probs))
        want += f"predicted {CLASSES[int(probs.argmax())]}\n"
        calls, encode = [], estimator.encode_pair
        monkeypatch.setattr(estimator, "encode_pair",
                            lambda *a, **k: calls.append(1) or encode(*a, **k))
        code = run_cli(["infer", "--checkpoint", model[0], "--vocab", model[1],
                        "--premise", pair[0], "--hypothesis", pair[1]])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and calls == [1] and out == want
        assert ("note: input was truncated" in err) == (words == 40)

    def infer_with_header_edit(self, workspace, tmp_path, edit):
        """Run infer on a copy of the checkpoint whose JSON header ``edit`` changed."""
        raw = (workspace / "run" / CHECKPOINT_FILE).read_bytes()
        header_end = 20 + int.from_bytes(raw[12:20], "little")
        header = json.loads(raw[20:header_end])
        edit(header)
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        broken = tmp_path / "broken.bin"
        broken.write_bytes(
            raw[:12] + len(header_bytes).to_bytes(8, "little") + header_bytes
            + raw[header_end:]
        )
        return run_cli(
            [
                "infer",
                "--checkpoint", str(broken),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--premise", "a dog is walking in the park",
                "--hypothesis", "a dog is walking",
            ]
        )

    def test_manifest_without_shape_exits_data(self, workspace, tmp_path, capsys):
        def edit(header):
            del header["tensors"][0]["shape"]

        code = self.infer_with_header_edit(workspace, tmp_path, edit)
        assert code == EXIT_DATA
        assert "error: tensor manifest:" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [["vocab_sha256"], "ab12", 3, None],
                             ids=["list", "string", "number", "null"])
    def test_meta_not_an_object_exits_data(self, workspace, tmp_path, capsys, meta):
        code = self.infer_with_header_edit(
            workspace, tmp_path, lambda header: header.update(meta=meta)
        )
        assert code == EXIT_DATA
        assert "error: header: meta" in capsys.readouterr().err

    def test_mismatched_vocabulary(self, workspace, tmp_path, capsys):
        tampered = tmp_path / "vocab.txt"
        original = (workspace / "run" / VOCAB_FILE).read_text(encoding="utf-8")
        tampered.write_text(original + "zzzz\n", encoding="utf-8")
        code = run_cli(
            [
                "infer",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", str(tampered),
                "--premise", "a",
                "--hypothesis", "b",
            ]
        )
        assert code == EXIT_DATA
        assert "vocabulary" in capsys.readouterr().err

    def test_vocabulary_of_another_size_without_stored_hash(self, workspace, tmp_path, capsys):
        """With no vocabulary hash in the meta to compare, the size check
        alone rejects the vocabulary."""
        params = load_checkpoint(artifact(workspace, CHECKPOINT_FILE)).params
        checkpoint = tmp_path / "no_hash.bin"
        save_checkpoint(params, {}, checkpoint)
        longer = tmp_path / "vocab.txt"
        original = (workspace / "run" / VOCAB_FILE).read_text(encoding="utf-8")
        longer.write_text(original + "zzzz\n", encoding="utf-8")
        code = run_cli(["infer", "--checkpoint", str(checkpoint), "--vocab", str(longer),
                        "--premise", "a", "--hypothesis", "b"])
        n = params.config.vocab_words
        assert code == EXIT_DATA
        assert f"vocabulary has {n + 1} entries, the model has {n}" in capsys.readouterr().err


    @pytest.mark.parametrize("row", [0, 9])
    def test_infer_prints_the_conflict_report_row(self, workspace, tmp_path, capsys, row):
        """infer and analyze-conflicts score a direction the same way: a>b
        read as infer prints it, and b>a with premise and hypothesis swapped."""
        model = ["--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                 "--vocab", artifact(workspace, VOCAB_FILE)]
        assert run_cli(["analyze-conflicts", *model, "--output-dir", str(tmp_path)]) == EXIT_OK
        with (tmp_path / REPORT_CSV_FILE).open(newline="", encoding="utf-8") as fh:
            record = list(csv.DictReader(fh))[row]
        capsys.readouterr()
        for suffix, premise, hypothesis in (("ab", "norm_a", "norm_b"), ("ba", "norm_b", "norm_a")):
            assert run_cli(["infer", *model, "--premise", record[premise],
                            "--hypothesis", record[hypothesis]]) == EXIT_OK
            expected = [f"{name} {record[f'{name}_{suffix}']}" for name in CLASSES]
            expected.append(f"predicted {record[f'predicted_{suffix}']}")
            assert capsys.readouterr().out.splitlines() == expected


class TestInputsTheClassifierCannotRead:
    @pytest.mark.parametrize("command", ["infer", "eval", "analyze-conflicts"])
    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_checkpoint_with_other_class_count(self, workspace, tmp_path, capsys,
                                               n_classes, command):
        vocab = Vocabulary.load(artifact(workspace, VOCAB_FILE))
        config = build_toy_config(vocab_words=len(vocab), n_classes=n_classes)
        checkpoint = tmp_path / "classes.bin"
        save_checkpoint(build_toy_params(config), {"vocab_sha256": vocab.content_hash()},
                        checkpoint)
        extra = {
            "infer": ["--premise", "a dog", "--hypothesis", "a man"],
            "eval": ["--data", str(workspace / "val.jsonl")],
            "analyze-conflicts": ["--output-dir", str(tmp_path / "reports")],
        }[command]
        code = run_cli([command, "--checkpoint", str(checkpoint),
                        "--vocab", artifact(workspace, VOCAB_FILE), *extra])
        assert code == EXIT_DATA
        assert f"n_classes {n_classes}" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["conflicts", "corpus", "config", "vocabulary"])
    def test_file_that_is_not_utf8(self, workspace, tmp_path, capsys, reader):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"norm_a,norm_b,conflict_type\nthe caf\xe9 shall pay\xff\n")
        model = ["--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                 "--vocab", artifact(workspace, VOCAB_FILE)]
        argv = {
            "conflicts": ["analyze-conflicts", *model, "--conflicts", str(bad),
                          "--output-dir", str(tmp_path / "reports")],
            "corpus": ["eval", *model, "--data", str(bad)],
            "config": ["inspect", "--config", str(bad)],
            "vocabulary": ["infer", "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                           "--vocab", str(bad), "--premise", "a", "--hypothesis", "b"],
        }[reader]
        assert run_cli(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot read" in err and "utf-8" in err


def _header_edit(edit):
    """A fault that rewrites the JSON header with ``edit`` and fixes the
    header length to match."""
    def fault(raw):
        header_end = 20 + int.from_bytes(raw[12:20], "little")
        header = json.loads(raw[20:header_end])
        edit(header)
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return (raw[:12] + len(header_bytes).to_bytes(8, "little") + header_bytes
                + raw[header_end:])
    return fault


def _flip(where):
    """A fault that inverts one byte, at an offset ``where(raw, header_end)``."""
    def fault(raw):
        header_end = 20 + int.from_bytes(raw[12:20], "little")
        out = bytearray(raw)
        out[where(raw, header_end)] ^= 0xFF
        return bytes(out)
    return fault


def _mutate(field, value):
    return _header_edit(lambda header: header.__setitem__(field, value))


def _flip_meta_digit(raw):
    """Invert the lowest bit of the last digit of ``best_epoch``, which
    leaves the header valid JSON with another epoch number."""
    end = raw.index(b'"best_epoch":') + len(b'"best_epoch":')
    while raw[end : end + 1].isdigit():
        end += 1
    out = bytearray(raw)
    out[end - 1] ^= 0x01
    return bytes(out)


def _more_blocks(header):
    """A config of 10^12 blocks with its hash: too many to enumerate."""
    header["config"]["n_blocks"] = 10**12
    config_bytes = json.dumps(header["config"], sort_keys=True, separators=(",", ":")).encode()
    header["config_sha256"] = hashlib.sha256(config_bytes).hexdigest()


# fault name -> (section the error must name first, fault)
CHECKPOINT_FAULTS = {
    **{f"delete {field}": ("header", _header_edit(lambda header, field=field: header.pop(field)))
       for field in ("config", "config_sha256", "meta", "tensors", "payload_sha256")},
    "mutate config": ("config", _header_edit(lambda header: header["config"].update(n_heads=1))),
    "mutate config_sha256": ("config", _mutate("config_sha256", "0" * 64)),
    "mutate meta": ("header", _mutate("meta", ["vocab_sha256"])),
    "flip meta digit": ("meta", _flip_meta_digit),
    "mutate meta_sha256": ("meta", _mutate("meta_sha256", "0" * 64)),
    "mutate tensors": ("tensor manifest",
                       _header_edit(lambda header: header["tensors"].pop())),
    "more blocks than tensors": ("tensor manifest", _header_edit(_more_blocks)),
    "mutate payload_sha256": ("payload", _mutate("payload_sha256", "0" * 64)),
    "flip magic byte": ("magic", _flip(lambda raw, end: 0)),
    "flip version byte": ("version", _flip(lambda raw, end: 8)),
    "flip header length byte": ("header", _flip(lambda raw, end: 12)),
    "flip first header byte": ("header", _flip(lambda raw, end: 20)),
    "flip middle header byte": ("header", _flip(lambda raw, end: (20 + end) // 2)),
    "flip last header byte": ("header", _flip(lambda raw, end: end - 1)),
    "flip first payload byte": ("payload", _flip(lambda raw, end: end)),
    "flip middle payload byte": ("payload", _flip(lambda raw, end: (end + len(raw)) // 2)),
    "flip last payload byte": ("payload", _flip(lambda raw, end: len(raw) - 1)),
}


class TestCheckpointFuzz:
    """Every damaged checkpoint is a CheckpointError whose message starts
    with the section at fault, and analyze-conflicts exits 2 on it."""

    @pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
    def test_fault_names_its_section_and_exits_data(self, workspace, tmp_path, capsys, fault):
        section, damage = CHECKPOINT_FAULTS[fault]
        broken = tmp_path / "broken.bin"
        broken.write_bytes(damage((workspace / "run" / CHECKPOINT_FILE).read_bytes()))
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(broken)
        assert str(caught.value).startswith(f"{section}: ")
        code = run_cli(["analyze-conflicts", "--checkpoint", str(broken),
                        "--vocab", artifact(workspace, VOCAB_FILE),
                        "--output-dir", str(tmp_path / "reports")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {section}: ")


class TestNonFiniteWeights:
    """A checkpoint whose checksums hold but whose head holds a NaN: every
    command that scores pairs exits 3 naming a pair, and writes no report."""

    @staticmethod
    def nan_checkpoint(workspace, tmp_path):
        ckpt = load_checkpoint(artifact(workspace, CHECKPOINT_FILE))
        ckpt.params.w_cls.data[0, 0] = float("nan")
        broken = tmp_path / "nan.bin"
        save_checkpoint(ckpt.params, ckpt.meta, broken)
        return broken

    @pytest.mark.parametrize("command", ["infer", "eval", "analyze-conflicts"])
    def test_a_nan_weight_exits_numeric(self, workspace, tmp_path, capsys, command):
        broken = self.nan_checkpoint(workspace, tmp_path)
        out_dir = tmp_path / "reports"
        extra = {
            "infer": ["--premise", "a dog is walking", "--hypothesis", "a dog"],
            "eval": ["--data", str(workspace / "val.jsonl")],
            "analyze-conflicts": ["--output-dir", str(out_dir)],
        }[command]
        code = run_cli([command, "--checkpoint", str(broken),
                        "--vocab", artifact(workspace, VOCAB_FILE), *extra])
        out, err = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure: non-finite class logits for pair ")
        assert out == "" and not (out_dir / REPORT_CSV_FILE).exists()

    def test_the_report_names_the_first_direction_and_removes_its_directories(
        self, workspace, tmp_path, capsys
    ):
        code = run_cli(["analyze-conflicts", "--checkpoint",
                        str(self.nan_checkpoint(workspace, tmp_path)),
                        "--vocab", artifact(workspace, VOCAB_FILE),
                        "--output-dir", str(tmp_path / "out" / "deep")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric failure: non-finite class logits for pair 1 (a>b)\n")
        assert not (tmp_path / "out").exists()


class TestAnalyzeConflicts:
    def test_bundled_corpus_default(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = run_cli(
            [
                "analyze-conflicts",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "pairs analyzed: 14" in out
        assert "per-type means" in out
        assert (out_dir / REPORT_CSV_FILE).is_file()
        assert (out_dir / REPORT_TEXT_FILE).is_file()
        with (out_dir / REPORT_CSV_FILE).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 15

    def test_custom_conflicts_file(self, workspace, tmp_path, capsys):
        conflicts = tmp_path / "pairs.csv"
        conflicts.write_text(
            "norm_a,norm_b,conflict_type\n"
            "the seller must pay,the seller may pay,deontic-modality\n",
            encoding="utf-8",
        )
        code = run_cli(
            [
                "analyze-conflicts",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--conflicts", str(conflicts),
                "--output-dir", str(tmp_path / "r"),
            ]
        )
        assert code == EXIT_OK
        assert "pairs analyzed: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_output_dir_on_a_file_exits_data(self, workspace, tmp_path, capsys, under):
        (tmp_path / "taken").write_text("a file\n", encoding="utf-8")
        code = run_cli(
            [
                "analyze-conflicts",
                "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                "--vocab", artifact(workspace, VOCAB_FILE),
                "--output-dir", str(tmp_path / "taken" / under),
            ]
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot create output directory")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("before", ["missing", "empty", "in-use"])
    def test_missing_checkpoint_leaves_no_directory_it_made(self, workspace, tmp_path,
                                                            capsys, before):
        """Every directory this run made goes again; one that was there
        is left as it was."""
        out = tmp_path / "w2" / "out2" / "deep"
        if before != "missing":
            out.mkdir(parents=True)
        if before == "in-use":
            (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        code = run_cli(["analyze-conflicts", "--checkpoint", str(tmp_path / "absent.bin"),
                        "--vocab", artifact(workspace, VOCAB_FILE), "--output-dir", str(out)])
        assert code == EXIT_DATA
        assert "does not exist" in capsys.readouterr().err
        if before == "missing":
            assert list(tmp_path.iterdir()) == []
        else:
            assert [p.name for p in out.iterdir()] == (["notes.txt"] if before == "in-use" else [])

    def test_field_over_the_csv_limit_exits_data_and_leaves_no_directory(
        self, workspace, tmp_path, capsys
    ):
        conflicts = tmp_path / "pairs.csv"
        conflicts.write_text("norm_a,norm_b,conflict_type\n"
                             f"{'w ' * 70_000},the seller may pay,deontic-modality\n",
                             encoding="utf-8")
        code = run_cli(["analyze-conflicts", "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                        "--vocab", artifact(workspace, VOCAB_FILE), "--conflicts", str(conflicts),
                        "--output-dir", str(tmp_path / "reports")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {conflicts}:2: field larger than")
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.csv"]

    def test_reports_byte_identical_across_runs(self, workspace, tmp_path, capsys):
        outputs = []
        for name in ("r1", "r2"):
            code = run_cli(
                [
                    "analyze-conflicts",
                    "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                    "--vocab", artifact(workspace, VOCAB_FILE),
                    "--output-dir", str(tmp_path / name),
                ]
            )
            assert code == EXIT_OK
            outputs.append((tmp_path / name / REPORT_CSV_FILE).read_bytes())
        assert outputs[0] == outputs[1]


class TestInspect:
    def test_full_scale_defaults(self, capsys):
        assert run_cli(["inspect"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "parameters = 21900243" in out
        assert "n_blocks = 12" in out
        assert "base_lr = 6.25e-05" in out

    def test_config_file_changes_count(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("n_blocks = 2\nvocab_words = 100\n")
        assert run_cli(["inspect", "--config", str(tmp_path / "c.cfg")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n_blocks = 2" in out
        assert "parameters = " in out

    def test_bad_config_key(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("wat = 1\n")
        assert run_cli(["inspect", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA

    @pytest.mark.parametrize(
        "line",
        ["clip_bound = 1e400", "base_lr = 0", "base_lr = nan", "warmup_fraction = 1",
         "batch_size = 0", "patience_epochs = 0", "max_epochs = -1", "seed = -1",
         "min_count = 0"],
    )
    def test_out_of_range_training_key_exits_data(self, tmp_path, capsys, line):
        """inspect rejects each training value train rejects, naming its line."""
        (tmp_path / "c.cfg").write_text(f"n_blocks = 2\n{line}\n")
        assert run_cli(["inspect", "--config", str(tmp_path / "c.cfg")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'c.cfg'}:2: {line.split()[0]} must be ")

    def test_a_huge_model_is_counted_without_enumerating_it(self, tmp_path):
        """inspect counts 10^8 blocks under a 1.5 GB address-space limit."""
        config = tmp_path / "c.cfg"
        config.write_text("n_blocks = 100000000\n")
        want = count_parameters(RunConfig(n_blocks=100_000_000).model_config())
        limit = 1_500_000_000

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "norminfer", "inspect", "--config", str(config)],
            capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        assert want == 69336013579923
        assert f"parameters = {want}\n" in proc.stdout


class TestNulByteInAPath:
    """A path with a NUL byte, which no file system takes, exits 2 and names it."""

    @pytest.mark.parametrize("command", ["inspect", "train"])
    def test_config(self, tmp_path, capsys, command):
        path = tmp_path / "a\0b"
        assert run_cli([command, "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot read config {path} ")

    def test_train_output_dir(self, tmp_path, capsys):
        write_jsonl(tmp_path / "train.jsonl", make_corpus(16))
        write_config(tmp_path / "c.cfg", f"train_path = {tmp_path / 'train.jsonl'}")
        out = tmp_path / "o\0u"
        code = run_cli(["train", "--config", str(tmp_path / "c.cfg"), "--output-dir", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "train.jsonl"]

    def test_analyze_conflicts_output_dir(self, workspace, tmp_path, capsys):
        out = tmp_path / "o\0u"
        code = run_cli(["analyze-conflicts", "--checkpoint", artifact(workspace, CHECKPOINT_FILE),
                        "--vocab", artifact(workspace, VOCAB_FILE), "--output-dir", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("norminfer")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "inspect"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "parameters = 21900243" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "norminfer", "inspect"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "parameters = 21900243" in proc.stdout


class TestOutputDirResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from_env")
        assert str(_resolve_output_dir("from_cfg", "from_flag")) == "from_flag"

    def test_env_beats_config(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from_env")
        assert str(_resolve_output_dir("from_cfg", None)) == "from_env"

    def test_config_is_fallback(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert str(_resolve_output_dir("from_cfg", None)) == "from_cfg"
