"""Checkpoint binary format and run-configuration files.

Checkpoint layout, in file order:

  bytes 0..7    magic ``b"NRMINFR\\x00"``
  bytes 8..11   format version, unsigned 32-bit little-endian (currently 1)
  bytes 12..19  header length in bytes, unsigned 64-bit little-endian
  header        UTF-8 JSON, canonical form (sorted keys, no whitespace)
  payload       raw little-endian tensor bytes, concatenated in the
                deterministic parameter traversal order

The header records the model config and the caller metadata, each with
its hash, a tensor manifest (name, shape, dtype per tensor), and the
SHA-256 of the payload. Every section is verified on load so corruption is
reported by section name instead of surfacing as garbage weights. Files
written before ``meta_sha256`` was added to version 1 load unverified meta.

Run configuration is a flat ``key = value`` text file. Unknown keys are
rejected rather than ignored, omitted keys take the full-scale defaults,
and serializing a loaded config parses back to an equal value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import CheckpointError, CheckpointVersionError, ConfigError, atomic_write
from .model import ModelConfig, ModelParameters, ParameterSpec, parameter_shapes
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


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"metadata value {value!r} is not JSON-serializable")


def save_checkpoint(params: ModelParameters, meta: dict | None, path: str | Path) -> None:
    """Persist weights with enough integrity data to verify them on load.

    The file replaces ``path`` atomically: a failed save leaves any
    previous checkpoint there intact.
    """
    manifest = []
    arrays = []
    digest = hashlib.sha256()
    for name, tensor in params.named_tensors():
        dtype_name = tensor.data.dtype.name
        arr = np.ascontiguousarray(tensor.data).astype(_le_dtype(dtype_name), copy=False)
        manifest.append(
            {"name": name, "shape": list(tensor.data.shape), "dtype": dtype_name}
        )
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
        "tensors": manifest,
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
    except OSError as exc:
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


def _check_manifest(manifest, specs: dict[str, ParameterSpec]) -> None:
    """Reject a tensor manifest unless it is a list of objects, each with a
    ``shape`` of non-negative integers and a supported ``dtype``, whose
    ``name`` fields list the tensors of ``specs`` in order, at the shapes
    the config requires."""
    if not isinstance(manifest, list):
        raise CheckpointError(
            f"tensor manifest: expected a list, got {type(manifest).__name__}"
        )
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict):
            raise CheckpointError(
                f"tensor manifest: entry {i} is a {type(entry).__name__}, not an object"
            )
        missing = {"name", "shape", "dtype"} - set(entry)
        if missing:
            raise CheckpointError(
                f"tensor manifest: entry {i} lacks fields {sorted(missing)}"
            )
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
        ):
            raise CheckpointError(
                f"tensor manifest: {entry['name']} has shape {shape!r}, "
                "not a list of non-negative integers"
            )
        _le_dtype(entry["dtype"])
    if [entry["name"] for entry in manifest] != list(specs):
        raise CheckpointError(
            "tensor manifest: names do not match the config's parameter set"
        )
    for entry in manifest:
        want = specs[entry["name"]].shape
        if tuple(entry["shape"]) != want:
            raise CheckpointError(
                f"tensor manifest: {entry['name']} has shape {entry['shape']}, "
                f"config requires {list(want)}"
            )


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
    _check_manifest(manifest, parameter_shapes(config))

    expected_size = sum(
        int(np.prod(e["shape"], dtype=np.int64)) * _le_dtype(e["dtype"]).itemsize
        for e in manifest
    )
    if len(payload) != expected_size:
        raise CheckpointError(
            f"payload: {len(payload)} bytes, manifest requires {expected_size}"
        )
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("payload: checksum mismatch, tensor data is corrupt")

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in manifest:
        dt = _le_dtype(entry["dtype"])
        nbytes = int(np.prod(entry["shape"], dtype=np.int64)) * dt.itemsize
        arr = payload[offset : offset + nbytes].view(dt).reshape(entry["shape"])
        arrays[entry["name"]] = arr if dt.isnative else arr.astype(entry["dtype"])
        offset += nbytes

    params = ModelParameters.from_arrays(config, arrays)
    return Checkpoint(params=params, meta=header["meta"])


@dataclass(frozen=True)
class RunConfig:
    """One run's full recipe: architecture, optimization, data, output.

    Values parse by their field annotations. vocab_words only sizes the
    embedding table for parameter accounting; training replaces it with
    the vocabulary actually built from data.
    """

    vocab_words: int = 56220
    n_blocks: int = ModelConfig.n_blocks
    n_heads: int = ModelConfig.n_heads
    d_model: int = ModelConfig.d_model
    d_ffn: int | None = ModelConfig.d_ffn
    max_len: int = ModelConfig.max_len
    n_classes: int = ModelConfig.n_classes
    layer_norm_eps: float = ModelConfig.layer_norm_eps
    dropout: float = ModelConfig.dropout
    base_lr: float = TrainConfig.base_lr
    warmup_fraction: float = TrainConfig.warmup_fraction
    clip_bound: float = TrainConfig.clip_bound
    batch_size: int = TrainConfig.batch_size
    patience_epochs: int = TrainConfig.patience_epochs
    max_epochs: int = TrainConfig.max_epochs
    min_count: int = 1
    seed: int = TrainConfig.seed
    train_path: str | None = None
    validation_path: str | None = None
    output_dir: str = "out"

    def _values_for(self, config_cls) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(config_cls)}

    def model_config(self, vocab_words: int | None = None) -> ModelConfig:
        values = self._values_for(ModelConfig)
        if vocab_words is not None:
            values["vocab_words"] = vocab_words
        return ModelConfig(**values)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._values_for(TrainConfig))


# Each field's value type, int, float or str: its annotation minus None.
_FIELD_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse ``key = value`` lines. Blank lines are skipped, and so is a
    line whose first non-blank character is ``#``; a ``#`` inside a value
    is part of it."""
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
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        kind = _FIELD_TYPES[key]
        if kind is str:
            if not value:
                raise ConfigError(f"{source}:{lineno}: key {key!r} has an empty value")
            values[key] = value
            continue
        try:
            values[key] = kind(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} needs {_TYPE_NAMES[kind]}, got {value!r}"
            ) from None
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path} ({exc})") from None
    return parse_config_text(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Every effective value, defaults included, one key per line.

    Unset optional paths are omitted; parsing the output reproduces cfg.
    """
    lines = []
    for name in _FIELD_TYPES:
        value = getattr(cfg, name)
        if value is None:
            continue
        lines.append(f"{name} = {value!r}" if isinstance(value, float) else f"{name} = {value}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(serialize_config(cfg))
