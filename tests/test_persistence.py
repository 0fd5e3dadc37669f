"""Checkpoint binary integrity and run-config parsing."""

import dataclasses
import hashlib
import json
import struct
import typing
from pathlib import Path

import numpy as np
import pytest
from helpers import build_random_pair, build_toy_config, build_toy_params

from norminfer.base import CheckpointError, CheckpointVersionError, ConfigError, atomic_write
from norminfer.model import (
    BlockParameters,
    ModelConfig,
    count_parameters,
    forward_batch,
    make_batch,
    parameter_shapes,
)
from norminfer.persistence import (
    CHECKPOINT_VERSION,
    MAGIC,
    RunConfig,
    load_checkpoint,
    load_config,
    parse_config_text,
    save_checkpoint,
    save_config,
    serialize_config,
)

PREFIX = struct.Struct("<8sIQ")
README = Path(__file__).resolve().parents[1] / "README.md"


def split_file(raw):
    magic, version, header_len = PREFIX.unpack_from(raw)
    header_end = PREFIX.size + header_len
    header = json.loads(raw[PREFIX.size : header_end])
    return header, raw[header_end:]


def rebuild_file(header, payload, version=CHECKPOINT_VERSION, magic=MAGIC):
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return PREFIX.pack(magic, version, len(header_bytes)) + header_bytes + payload


@pytest.fixture()
def saved(tmp_path):
    config = build_toy_config()
    params = build_toy_params(config, seed=5)
    meta = {"best_epoch": 3, "val_accuracy": 0.625, "vocab_sha256": "ab12"}
    path = tmp_path / "model.bin"
    save_checkpoint(params, meta, path)
    return config, params, meta, path


class TestCheckpointRoundTrip:
    def test_tensors_bit_exact(self, saved):
        _, params, meta, path = saved
        loaded = load_checkpoint(path)
        originals = dict(params.named_tensors())
        for name, tensor in loaded.params.named_tensors():
            assert tensor.data.dtype == originals[name].data.dtype
            assert np.array_equal(tensor.data, originals[name].data)
        assert loaded.meta == meta
        assert loaded.params.config == params.config

    def test_forward_bit_exact_after_reload(self, saved):
        config, params, _, path = saved
        loaded = load_checkpoint(path).params
        rng = np.random.default_rng(0)
        pairs = [build_random_pair(rng, config) for _ in range(10)]
        batch = make_batch(pairs)
        before = forward_batch(batch, params).data
        after = forward_batch(batch, loaded).data
        assert np.array_equal(before, after)

    def test_float64_round_trip(self, tmp_path):
        config = build_toy_config(n_blocks=1)
        params = build_toy_params(config, seed=1, dtype=np.float64)
        path = tmp_path / "m64.bin"
        save_checkpoint(params, None, path)
        loaded = load_checkpoint(path).params
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded.embedding.data, params.embedding.data)

    def test_loaded_tensors_are_writable(self, saved):
        *_, path = saved
        loaded = load_checkpoint(path).params
        loaded.embedding.data[0, 0] = 42.0

    def test_save_is_byte_deterministic(self, saved, tmp_path):
        _, params, meta, path = saved
        again = tmp_path / "again.bin"
        save_checkpoint(params, meta, again)
        digests = {hashlib.sha256(p.read_bytes()).hexdigest() for p in (path, again)}
        assert len(digests) == 1

    def test_save_load_save_is_byte_identical(self, saved, tmp_path):
        _, _, meta, path = saved
        again = tmp_path / "again.bin"
        save_checkpoint(load_checkpoint(path).params, meta, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_tensors_are_disjoint_aligned_views(self, saved):
        *_, path = saved
        tensors = [t.data for _, t in load_checkpoint(path).params.named_tensors()]
        base = tensors[0].base
        assert base is not None and all(t.base is base for t in tensors)
        assert all(t.flags.aligned and t.flags.c_contiguous for t in tensors)
        spans = sorted((t.ctypes.data, t.ctypes.data + t.nbytes) for t in tensors)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    def test_numpy_meta_values_are_coerced(self, tmp_path):
        config = build_toy_config(n_blocks=1)
        params = build_toy_params(config)
        path = tmp_path / "m.bin"
        save_checkpoint(params, {"val_accuracy": np.float64(0.5)}, path)
        meta = load_checkpoint(path).meta
        assert meta["val_accuracy"] == 0.5
        assert isinstance(meta["val_accuracy"], float)

    def test_unserializable_meta_rejected(self, tmp_path):
        params = build_toy_params(build_toy_config(n_blocks=1))
        with pytest.raises(CheckpointError, match="header"):
            save_checkpoint(params, {"bad": object()}, tmp_path / "m.bin")

    @pytest.mark.parametrize("value", [float("-inf"), float("inf"), float("nan")], ids=str)
    def test_non_finite_meta_rejected(self, tmp_path, value):
        # the header is JSON (RFC 8259), which has no Infinity or NaN
        params = build_toy_params(build_toy_config(n_blocks=1))
        with pytest.raises(CheckpointError, match="header"):
            save_checkpoint(params, {"val_accuracy": value}, tmp_path / "m.bin")
        assert not (tmp_path / "m.bin").exists()


class TestCheckpointIntegrity:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="file"):
            load_checkpoint(tmp_path / "absent.bin")

    def test_too_short_for_magic(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"NRM")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_magic(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        bad = tmp_path / "bad.bin"
        bad.write_bytes(rebuild_file(header, payload, magic=b"ELFELF\x00\x00"))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_future_version_rejected(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        bad = tmp_path / "v2.bin"
        bad.write_bytes(rebuild_file(header, payload, version=2))
        with pytest.raises(CheckpointVersionError, match="version 2"):
            load_checkpoint(bad)

    def test_truncated_header(self, saved, tmp_path):
        *_, path = saved
        raw = path.read_bytes()
        bad = tmp_path / "cut.bin"
        bad.write_bytes(raw[: PREFIX.size + 10])
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(bad)

    def test_truncated_payload(self, saved, tmp_path):
        *_, path = saved
        raw = path.read_bytes()
        bad = tmp_path / "cut.bin"
        bad.write_bytes(raw[:-100])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(bad)

    def test_flipped_payload_byte(self, saved, tmp_path):
        *_, path = saved
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        bad = tmp_path / "flip.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(bad)

    def test_header_not_json(self, saved, tmp_path):
        *_, path = saved
        raw = path.read_bytes()
        _, _, header_len = PREFIX.unpack_from(raw)
        bad = tmp_path / "json.bin"
        bad.write_bytes(
            raw[: PREFIX.size] + b"{" * header_len + raw[PREFIX.size + header_len :]
        )
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(bad)

    def test_missing_header_field(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        del header["meta"]
        bad = tmp_path / "field.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="missing fields"):
            load_checkpoint(bad)

    def test_tampered_config_hash_mismatch(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["config"]["n_heads"] = 4
        bad = tmp_path / "cfg.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(bad)

    def test_manifest_name_mismatch(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["tensors"][0]["name"] = "bogus"
        bad = tmp_path / "name.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(bad)

    def test_manifest_shape_mismatch(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["tensors"][0]["shape"] = [1, 1]
        bad = tmp_path / "shape.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("header", [[1, 2], 3], ids=["list", "number"])
    def test_header_not_an_object(self, saved, tmp_path, header):
        *_, path = saved
        _, payload = split_file(path.read_bytes())
        bad = tmp_path / "header.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="header: expected an object"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("meta", [[1, 2], "ab12", 3, None],
                             ids=["list", "string", "number", "null"])
    def test_meta_not_an_object(self, saved, tmp_path, meta):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["meta"] = meta
        bad = tmp_path / "meta.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="header: meta"):
            load_checkpoint(bad)

    def test_tampered_meta_checksum_mismatch(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["meta"]["best_epoch"] = 2
        bad = tmp_path / "meta.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="^meta: checksum mismatch"):
            load_checkpoint(bad)

    def test_file_without_meta_checksum_loads(self, saved, tmp_path):
        """Files written before the meta checksum existed have no
        ``meta_sha256``; they load under the same format version."""
        _, params, meta, path = saved
        header, payload = split_file(path.read_bytes())
        del header["meta_sha256"]
        old = tmp_path / "old.bin"
        old.write_bytes(rebuild_file(header, payload))
        loaded = load_checkpoint(old)
        assert loaded.meta == meta
        for (_, want), (_, got) in zip(params.named_tensors(), loaded.params.named_tensors()):
            assert got.data.tobytes() == want.data.tobytes()

    def test_invalid_config_in_header(self, saved, tmp_path):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["config"]["n_blocks"] = -1
        header["config_sha256"] = "0" * 64
        bad = tmp_path / "badcfg.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(bad)



def _drop(field):
    def edit(tensors):
        del tensors[1][field]
    return edit


def _set(field, value):
    def edit(tensors):
        tensors[1][field] = value
    return edit


def _replace_entry(value):
    def edit(tensors):
        tensors[1] = value
    return edit


MANIFEST_FAULTS = {
    "name missing": _drop("name"),
    "shape missing": _drop("shape"),
    "dtype missing": _drop("dtype"),
    "name not a string": _set("name", 7),
    "shape not a list": _set("shape", "8,24"),
    "shape of floats": _set("shape", [8.0, 24.0]),
    "shape negative": _set("shape", [-8, 24]),
    "shape of bools": _set("shape", [True, True]),
    "dtype not a string": _set("dtype", 32),
    "dtype unsupported": _set("dtype", "int8"),
    "entry not an object": _replace_entry(["blocks.0.w_qkv", [8, 24], "float32"]),
    "entry null": _replace_entry(None),
}


class TestManifestFaults:
    """Every malformed manifest field is a CheckpointError naming the
    manifest, never a raw KeyError or TypeError."""

    @pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
    def test_entry_fault(self, saved, tmp_path, fault):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        MANIFEST_FAULTS[fault](header["tensors"])
        bad = tmp_path / "manifest.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="^tensor manifest: "):
            load_checkpoint(bad)

    @pytest.mark.parametrize("tensors", [{"embedding": [1]}, "embedding", 3, None])
    def test_tensors_not_a_list(self, saved, tmp_path, tensors):
        *_, path = saved
        header, payload = split_file(path.read_bytes())
        header["tensors"] = tensors
        bad = tmp_path / "manifest.bin"
        bad.write_bytes(rebuild_file(header, payload))
        with pytest.raises(CheckpointError, match="^tensor manifest: expected a list"):
            load_checkpoint(bad)

class TestAtomicWrites:
    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_failure_midway_keeps_the_old_file(self, tmp_path, binary):
        path = tmp_path / "artifact"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(path, binary=binary) as fh:
                fh.write(b"new, partial" if binary else "new, partial")
                fh.flush()
                raise RuntimeError("failed midway")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_clean_exit_replaces_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("old\n", encoding="utf-8")
        save_config(RunConfig(seed=3), path)
        assert load_config(path) == RunConfig(seed=3)
        assert list(tmp_path.iterdir()) == [path]


class TestExpectedShapes:
    def test_shape_table_matches_analytic_count(self):
        config = build_toy_config(n_blocks=3, d_model=12, n_heads=3)
        total = sum(
            int(np.prod(spec.shape)) for spec in parameter_shapes(config).values()
        )
        assert total == count_parameters(config)

    def test_shape_table_matches_initialized_params(self):
        config = build_toy_config()
        params = build_toy_params(config)
        specs = parameter_shapes(config)
        for name, tensor in params.named_tensors():
            assert specs[name].shape == tensor.data.shape

    def test_registry_is_the_saved_manifest(self, saved):
        config, _, _, path = saved
        header, _ = split_file(path.read_bytes())
        specs = parameter_shapes(config)
        assert [(e["name"], tuple(e["shape"])) for e in header["tensors"]] == [
            (name, spec.shape) for name, spec in specs.items()
        ]
        assert sum(int(np.prod(spec.shape)) for spec in specs.values()) == (
            count_parameters(config)
        )
        block_names = [n.split(".")[2] for n in specs if n.startswith("blocks.0.")]
        assert block_names == [f.name for f in dataclasses.fields(BlockParameters)]


class TestRunConfigParsing:
    def test_empty_text_gives_full_scale_defaults(self):
        cfg = parse_config_text("")
        assert (cfg.n_blocks, cfg.n_heads, cfg.d_model) == (12, 12, 240)
        assert cfg.base_lr == 6.25e-5
        assert cfg.vocab_words == 56220
        assert cfg.d_ffn is None
        assert cfg.output_dir == "out"

    def test_minimal_config_with_paths(self):
        cfg = parse_config_text(
            "train_path = data/train.jsonl\nvalidation_path = data/dev.jsonl\n"
        )
        assert cfg.train_path == "data/train.jsonl"
        assert cfg.n_blocks == 12

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# architecture\n\nn_blocks = 2\n  # done\n")
        assert cfg.n_blocks == 2

    def test_readme_sample_parses_to_the_defaults(self):
        text = README.read_text(encoding="utf-8")
        cfg = parse_config_text(text.split("```ini\n", 1)[1].split("```", 1)[0], "README")
        assert cfg.model_config() == RunConfig().model_config()
        unset = dataclasses.replace(cfg, d_ffn=None, train_path=None, validation_path=None)
        assert unset == RunConfig()

    @pytest.mark.parametrize("key", ["test_path", "conflicts_path"])
    def test_keys_no_command_reads_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = x.jsonl\n")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="n_blockz"):
            parse_config_text("n_blockz = 12\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_integer_key_rejects_word(self):
        with pytest.raises(ConfigError, match="n_blocks"):
            parse_config_text("n_blocks = twelve\n")

    def test_integer_key_rejects_fraction(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config_text("batch_size = 4.5\n")

    def test_float_key_accepts_scientific_notation(self):
        cfg = parse_config_text("base_lr = 6.25e-5\n")
        assert cfg.base_lr == 6.25e-5

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("n_blocks 12\n")

    def test_empty_path_value_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config_text("train_path =\n")

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("seed = 1\n\nwat = 9\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestRunConfigRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        cfg = RunConfig(
            n_blocks=2,
            d_model=64,
            d_ffn=128,
            base_lr=3e-4,
            train_path="a.jsonl",
            validation_path="b#1.jsonl",
            output_dir="runs/x",
            seed=11,
        )
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_defaults_are_echoed(self):
        text = serialize_config(RunConfig())
        assert "n_blocks = 12" in text
        assert "base_lr = 6.25e-05" in text
        assert "d_ffn" not in text

    def test_every_field_parses_by_its_annotation(self):
        # a value per annotation that differs from every default
        samples = {int: ("7", 7), float: ("0.25", 0.25), str: ("x/y.txt", "x/y.txt")}
        for name, hint in typing.get_type_hints(RunConfig).items():
            (kind,) = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
            text, value = samples[kind]
            cfg = parse_config_text(f"{name} = {text}\n")
            assert getattr(cfg, name) == value and type(getattr(cfg, name)) is kind, name
            assert parse_config_text(serialize_config(cfg)) == cfg, name
            if kind is not str:
                with pytest.raises(ConfigError, match=name):
                    parse_config_text(f"{name} = seven\n")

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(max_epochs=7, train_path="t.jsonl")
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg


class TestRunConfigViews:
    def test_model_config_resolves_ffn_default(self):
        mc = RunConfig(d_model=240).model_config()
        assert isinstance(mc, ModelConfig)
        assert mc.d_ffn == 960
        assert mc.vocab_words == 56220

    def test_model_config_vocab_override(self):
        assert RunConfig().model_config(vocab_words=100).vocab_words == 100

    def test_train_config_mapping(self):
        tc = RunConfig(batch_size=4, max_epochs=3, seed=9).train_config()
        assert (tc.batch_size, tc.max_epochs, tc.seed) == (4, 3, 9)
        assert tc.base_lr == 6.25e-5
