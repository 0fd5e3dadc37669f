"""Checkpoint binary format and run-configuration files.

Checkpoint layout, in file order:

  bytes 0..7    magic ``b"NRMINFR\\x00"``
  bytes 8..11   format version, unsigned 32-bit little-endian (currently 1)
  bytes 12..19  header length in bytes, unsigned 64-bit little-endian
  header        UTF-8 JSON, canonical form (sorted keys, no whitespace)
  payload       raw little-endian tensor bytes at one dtype, float32 or
                float64, in the deterministic parameter traversal order

The header records the model config and the caller metadata, each with
its hash, the tensor manifest the config implies (name, shape, dtype per
tensor), and the SHA-256 of the payload. Every section is verified on load
so corruption is reported by section name instead of surfacing as garbage
weights. Version 1 files written before ``meta_sha256`` load unverified meta.

Run configuration is a flat ``key = value`` text file. Unknown keys are
rejected rather than ignored, omitted keys take the full-scale defaults,
and serializing a loaded config parses back to an equal value.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .base import (CheckpointError, CheckpointVersionError, ConfigError, atomic_write,
                   check_fields, check_value, setting, shared_fields)
from .model import ModelConfig, ModelParameters, ParameterSpec, count_parameters, parameter_shapes
from .text import MIN_COUNT
from .training import TrainConfig

MAGIC = b"NRMINFR\x00"
CHECKPOINT_VERSION = 1
_PREFIX = struct.Struct("<8sIQ")
# Loaded tensors are views into the file buffer; starting the payload on a
# cache-line boundary keeps them aligned for BLAS and vectorized loops.
_PAYLOAD_ALIGN = 64


def _canonical_json(obj, **options) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), **options).encode("utf-8")


def _sha256_json(obj) -> str:
    return hashlib.sha256(_canonical_json(obj)).hexdigest()


def config_hash(config: ModelConfig) -> str:
    return _sha256_json(config.to_dict())


def _le_dtype(name: str) -> np.dtype:
    if name not in ("float32", "float64"):
        raise CheckpointError(f"tensor manifest: unsupported dtype {name!r}")
    return np.dtype(name).newbyteorder("<")


def _manifest(specs: dict[str, ParameterSpec], dtype: str) -> list[dict]:
    """The tensor manifest of a model with tensors ``specs``, each of ``dtype``."""
    return [{"name": name, "shape": list(spec.shape), "dtype": dtype}
            for name, spec in specs.items()]


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"metadata value {value!r} is not JSON-serializable")


def save_checkpoint(params: ModelParameters, meta: dict | None, path: str | Path) -> None:
    """Persist weights with enough integrity data to verify them on load.

    The file replaces ``path`` atomically: a failed save leaves any
    previous checkpoint there intact.
    """
    dtype = params.dtype.name
    arrays = []
    digest = hashlib.sha256()
    for name, tensor in params.named_tensors():
        if tensor.data.dtype != params.dtype:
            raise CheckpointError(f"tensor manifest: {name} is {tensor.data.dtype}, not {dtype}")
        arr = np.ascontiguousarray(tensor.data).astype(_le_dtype(dtype), copy=False)
        arrays.append(arr)
        digest.update(arr)
    try:
        # through JSON and back, so the checksum covers what a load reads
        meta = json.loads(_canonical_json(meta or {}, default=_jsonable, allow_nan=False))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"header: {exc}") from None
    header = {
        "config": params.config.to_dict(),
        "config_sha256": config_hash(params.config),
        "meta": meta,
        "meta_sha256": _sha256_json(meta),
        "tensors": _manifest(parameter_shapes(params.config), dtype),
        "payload_sha256": digest.hexdigest(),
    }
    header_bytes = _canonical_json(header)
    with atomic_write(path, binary=True) as fh:
        fh.write(_PREFIX.pack(MAGIC, CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for arr in arrays:
            fh.write(arr)


@dataclass
class Checkpoint:
    params: ModelParameters
    meta: dict


def _read_file(path: Path) -> np.ndarray:
    """The whole file as one writeable uint8 array, placed in memory so
    that the payload after the header starts on a ``_PAYLOAD_ALIGN``-byte
    boundary (read from the prefix when the file has one)."""
    try:
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_PREFIX.size)
            header_end = len(head)
            if header_end == _PREFIX.size:
                header_end += _PREFIX.unpack(head)[2]
            buf = np.empty(size + _PAYLOAD_ALIGN, dtype=np.uint8)
            start = -(buf.ctypes.data + header_end) % _PAYLOAD_ALIGN
            raw = buf[start : start + size]
            raw[: len(head)] = np.frombuffer(head, dtype=np.uint8)
            end = len(head) + fh.readinto(raw[len(head) :])
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise CheckpointError(f"file: cannot read {path} ({exc})") from None
    return raw[:end]


def _read_header(raw: np.ndarray) -> tuple[dict, int]:
    """The validated header of a checkpoint file and its end offset."""
    if len(raw) < _PREFIX.size:
        raise CheckpointError(
            f"magic: file too short ({len(raw)} bytes) to be a checkpoint"
        )
    magic, version, header_len = _PREFIX.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError(f"magic: {magic!r} is not a checkpoint signature")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"version: file has format version {version}; this reader "
            f"supports version {CHECKPOINT_VERSION}"
        )
    header_end = _PREFIX.size + header_len
    if len(raw) < header_end:
        raise CheckpointError(
            f"header: truncated ({len(raw) - _PREFIX.size} of {header_len} bytes)"
        )
    try:
        header = json.loads(raw[_PREFIX.size : header_end].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"header: not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"header: expected an object, got {type(header).__name__}")
    missing = {"config", "config_sha256", "meta", "tensors", "payload_sha256"} - set(header)
    if missing:
        raise CheckpointError(f"header: missing fields {sorted(missing)}")
    if not isinstance(header["meta"], dict):
        raise CheckpointError(
            f"header: meta must be an object, got {type(header['meta']).__name__}"
        )
    if "meta_sha256" in header and _sha256_json(header["meta"]) != header["meta_sha256"]:
        raise CheckpointError("meta: checksum mismatch, metadata is corrupt")
    return header, header_end


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read, verify, and rebuild parameters from a checkpoint file.

    The file is read once into one buffer; the payload checksum is verified
    on that buffer, and every tensor is a writeable view into it.
    """
    raw = _read_file(Path(path))
    header, header_end = _read_header(raw)
    payload = raw[header_end:]

    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"config: {exc}") from None
    if config_hash(config) != header["config_sha256"]:
        raise CheckpointError("config: hash mismatch, header is corrupt")

    manifest = header["tensors"]
    if not isinstance(manifest, list):
        raise CheckpointError(
            f"tensor manifest: expected a list, got {type(manifest).__name__}"
        )
    # every block has tensors of its own, so a config with as many blocks as
    # the manifest has entries, or more, cannot match it: it is not enumerated
    specs = parameter_shapes(config) if config.n_blocks < len(manifest) else {}
    first = manifest[0] if manifest else None
    dtype_name = first.get("dtype") if isinstance(first, dict) else None
    # compared as canonical JSON, where 8.0 and true differ from 8
    if not specs or _canonical_json(manifest) != _canonical_json(_manifest(specs, dtype_name)):
        raise CheckpointError("tensor manifest: does not list the config's tensors by name "
                              "and shape, in order, at one dtype")
    dtype = _le_dtype(dtype_name)

    expected_size = count_parameters(config) * dtype.itemsize
    if len(payload) != expected_size:
        raise CheckpointError(
            f"payload: {len(payload)} bytes, manifest requires {expected_size}"
        )
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("payload: checksum mismatch, tensor data is corrupt")

    values = payload.view(dtype) if dtype.isnative else payload.view(dtype).astype(dtype.name)
    ends = np.cumsum([math.prod(spec.shape) for spec in specs.values()])
    arrays = {name: part.reshape(spec.shape)
              for (name, spec), part in zip(specs.items(), np.split(values, ends[:-1]))}
    params = ModelParameters.from_arrays(config, arrays)
    return Checkpoint(params=params, meta=header["meta"])


_RunKeys = dataclasses.make_dataclass(
    "_RunKeys", [
        *shared_fields(ModelConfig, vocab_words=56220),
        ("min_count", "int", MIN_COUNT),
        *shared_fields(TrainConfig),
        ("train_path", "str | None", setting(None, str)),
        ("validation_path", "str | None", setting(None, str)),
        ("output_dir", "str", setting("out", str)),
    ], frozen=True,
)


@dataclass(frozen=True)
class RunConfig(_RunKeys):
    """One run's full recipe: architecture, optimization, data, output.

    The keys are ModelConfig's fields, min_count, TrainConfig's fields and
    the paths, in the order NliClassifier takes its arguments, and each
    value is checked when a RunConfig is made. vocab_words only
    sizes the embedding table for parameter accounting; training replaces
    it with the vocabulary actually built from data.
    """

    __post_init__ = check_fields

    def model_config(self, vocab_words: int | None = None) -> ModelConfig:
        values = {f.name: getattr(self, f.name) for f in fields(ModelConfig)}
        if vocab_words is not None:
            values["vocab_words"] = vocab_words
        return ModelConfig(**values)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse ``key = value`` lines. Blank lines are skipped, and so is a
    line whose first non-blank character is ``#``; a ``#`` inside a value
    is part of it. Each value converts to its key's kind and is checked
    against its bounds."""
    declared = {f.name: f for f in fields(RunConfig)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in declared:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        # text that does not convert stays text, which check_value rejects
        with contextlib.suppress(ValueError):
            value = declared[key].metadata["kind"](value)
        try:
            check_value(key, value, declared[key])
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
        values[key] = value
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ConfigError(f"cannot read config {path} ({exc})") from None
    return parse_config_text(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Every effective value, defaults included, one key per line.

    Unset optional paths are omitted; parsing the output reproduces cfg.
    """
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value!r}" if isinstance(value, float) else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(serialize_config(cfg))
