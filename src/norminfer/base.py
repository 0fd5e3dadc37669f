"""Shared plumbing: error types, estimator parameter handling, input checks,
config fields that declare their kind and bounds, atomic file writes, and
the one helper thread that inference and training share with their caller.

Estimators in this package follow the scikit-learn conventions: constructor
arguments are stored verbatim, ``fit`` learns state into trailing-underscore
attributes and returns ``self``, and ``get_params``/``set_params`` expose the
constructor arguments so instances compose with ecosystem tooling such as
``sklearn.base.clone``.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import inspect
import math
import os
import secrets
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

# threads that run batches: the caller and, at 2, one helper
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@lru_cache(maxsize=1)
def _helper_pool(pid: int) -> ThreadPoolExecutor:
    """The helper thread's pool, made once per process: a forked child has none."""
    return ThreadPoolExecutor(1, thread_name_prefix="norminfer-helper")


def run_shared(run: Callable[[Any], None], items: Sequence) -> None:
    """Call ``run`` on each item, taken in order by the caller and, given two
    items or more and ``_WORKERS`` = 2, by the helper thread in a copy of the
    caller's context. Returns once both are done; a failure is raised here."""
    pending = iter(items)  # next() on it is atomic

    def drain() -> None:
        try:
            for item in pending:
                run(item)
        except BaseException:
            deque(pending, maxlen=0)  # so that no thread takes a further item
            raise

    jobs = [_helper_pool(os.getpid()).submit(contextvars.copy_context().run, drain)
            for _ in range(min(_WORKERS, len(items)) - 1)]
    try:
        drain()
    finally:
        wait(jobs)  # nothing is left running when this returns or raises
    for job in jobs:
        job.result()


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


def setting(default: Any = dataclasses.MISSING, kind: type = int, lo: float = 1,
            hi: float = math.inf, closed: bool = True) -> Any:
    """A dataclass field that declares its value's kind, int, float or str,
    and for a number the interval it lies in: [lo, hi), or (lo, hi) unless
    ``closed``; an int's hi is always inf. ``check_value`` reads them."""
    return dataclasses.field(default=default,
                             metadata={"kind": kind, "lo": lo, "hi": hi, "closed": closed})


def check_value(name: str, value: Any, declared: dataclasses.Field) -> None:
    """Raise ConfigError unless ``value`` is of the kind ``declared`` holds,
    within its bounds. A bool is no number, NaN lies in no interval, and a
    str is one non-empty line without surrounding blanks, as a config file
    line gives it."""
    kind, lo, hi, closed = declared.metadata.values()  # in the order setting gives them
    if kind is str:
        ok = isinstance(value, str) and value.splitlines() == [value] == [value.strip()]
        wanted = "a non-empty line without surrounding blanks"
    elif kind is int:
        ok, wanted = isinstance(value, int) and lo <= value, f"an integer >= {lo}"
    else:
        ok = (isinstance(value, (int, float)) and (lo <= value if closed else lo < value)
              and value < hi)
        wanted = f"a number in {'[' if closed else '('}{lo}, {hi})"
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")


def check_fields(config: Any) -> None:
    """check_value on each field of dataclass ``config`` that ``setting``
    declared; None passes where it is the field's default."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.metadata and not (value is None and f.default is None):
            check_value(f.name, value, f)


def shared_fields(config_cls: type, **defaults: Any) -> list[tuple]:
    """The fields of dataclass ``config_cls`` as ``make_dataclass`` specs:
    each keeps its kind, bounds and default, bar the defaults given here."""
    return [(f.name, f.type, dataclasses.field(default=defaults.get(f.name, f.default),
                                               metadata=f.metadata))
            for f in dataclasses.fields(config_cls)]


def check_text(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ContractError(f"{name} must be a string, got {type(value).__name__}")
    if not value.strip():
        raise ContractError(f"{name} must be a non-empty string")
    return value
