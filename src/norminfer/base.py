"""Shared plumbing: error types, estimator parameter handling, input checks,
atomic file writes.

Estimators in this package follow the scikit-learn conventions: constructor
arguments are stored verbatim, ``fit`` learns state into trailing-underscore
attributes and returns ``self``, and ``get_params``/``set_params`` expose the
constructor arguments so instances compose with ecosystem tooling such as
``sklearn.base.clone``.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import secrets
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

import numpy as np


class NorminferError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(NorminferError):
    """Operand dimensions are incompatible. The message names both shapes."""


class ContractError(NorminferError):
    """An argument violates a documented precondition."""


class ConfigError(NorminferError):
    """A configuration value or file is invalid."""


class IngestError(NorminferError):
    """A data file could not be read or parsed."""


class CheckpointError(NorminferError):
    """A checkpoint file failed validation."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint format version is not supported by this reader."""


class NumericError(NorminferError):
    """A non-finite value appeared where the math requires finite numbers."""


class NotFittedError(NorminferError):
    """The estimator was used before ``fit``."""


class ParamsMixin:
    """get_params/set_params support in the scikit-learn style.

    Parameter names are discovered from the subclass ``__init__`` signature,
    so subclasses only need keyword arguments that are stored as attributes
    of the same name.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        names = [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        return sorted(names)

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "ParamsMixin":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def split_seed(master_seed: int, *path: int) -> int:
    """Derive an independent child seed from a master seed.

    The master seed plus the integer path feed a numpy SeedSequence, so
    distinct paths give statistically independent streams and the mapping
    is stable across runs and platforms.
    """
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1)[0])


@contextlib.contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a file that replaces ``path`` whole or not at all.

    Writes go to a new temporary file in the same directory, which
    ``os.replace`` moves onto ``path`` once the block exits cleanly. If the
    block raises, the temporary file is removed and ``path`` is left as it
    was. Text is written as UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_fitted(estimator: Any, attributes: Iterable[str]) -> None:
    """Raise NotFittedError unless every named attribute exists and is set."""
    missing = [a for a in attributes if getattr(estimator, a, None) is None]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit first "
            f"(missing {missing})"
        )


def check_int(value: Any, name: str, minimum: int) -> None:
    """Raise ConfigError unless ``value`` is an int, not a bool, >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_float(value: Any, name: str, lo: float, hi: float, lo_closed: bool = False) -> None:
    """Raise ConfigError unless ``value`` is an int or float, not a bool, in
    (lo, hi), or in [lo, hi) with ``lo_closed``. NaN lies in neither."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not (lo <= value < hi if lo_closed else lo < value < hi)):
        interval = f"{'[' if lo_closed else '('}{lo}, {hi})"
        raise ConfigError(f"{name} must be a number in {interval}, got {value!r}")


def check_text(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ContractError(f"{name} must be a string, got {type(value).__name__}")
    if not value.strip():
        raise ContractError(f"{name} must be a non-empty string")
    return value
