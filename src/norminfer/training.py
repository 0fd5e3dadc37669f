"""Training engine: loss, learning-rate schedule, gradient clipping, Adam,
length-sorted batching, and the epoch loop with early stopping.

The learning rate ramps linearly from zero to the base rate over the first
warmup_fraction of the step budget, then decays linearly back to zero at
the final step. The step budget is fixed up front as max_epochs times the
number of batches per epoch; early stopping simply leaves the tail of the
schedule unused.

Gradients, not parameters, are clamped elementwise into
[-clip_bound, +clip_bound] before every update.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .base import ConfigError, ContractError, NumericError, atomic_write, split_seed
from .model import Batch, ModelParameters, forward_batch, make_batch
from .tensor import GradTape, Tensor, clamp_min, log, mean, neg, row_tiles, take_rows
from .text import EncodedPair

logger = logging.getLogger(__name__)

LOSS_FLOOR = 1e-12

# seed-path components for deriving child seeds from the master seed
SEED_INIT = 0
SEED_BATCH = 1
SEED_DROPOUT = 2


@dataclass
class TrainConfig:
    base_lr: float = 6.25e-5
    warmup_fraction: float = 0.002
    clip_bound: float = 1.0
    batch_size: int = 16
    patience_epochs: int = 10
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.base_lr < math.inf):
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not (0.0 < self.warmup_fraction < 1.0):
            raise ConfigError(
                f"warmup_fraction must lie in (0, 1), got {self.warmup_fraction}"
            )
        if not (self.clip_bound > 0):
            raise ConfigError(f"clip_bound must be > 0, got {self.clip_bound}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigError(f"batch_size must be a positive integer, got {self.batch_size}")
        if not isinstance(self.patience_epochs, int) or self.patience_epochs < 1:
            raise ConfigError(
                f"patience_epochs must be a positive integer, got {self.patience_epochs}"
            )
        if not isinstance(self.max_epochs, int) or self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def nll_loss(probs: Tensor, gold: np.ndarray) -> Tensor:
    """Mean negative log probability of the gold class.

    probs has one row of class probabilities per example; gold holds the
    class indices. Probabilities are floored at 1e-12 inside the log so a
    fully confident wrong prediction keeps the loss finite.
    """
    gold = np.asarray(gold)
    if probs.ndim != 2:
        raise ContractError(f"probs must be (batch, classes), got {probs.shape}")
    if gold.shape != (probs.shape[0],):
        raise ContractError(
            f"gold shape {gold.shape} does not match batch size {probs.shape[0]}"
        )
    if gold.size and (gold.min() < 0 or gold.max() >= probs.shape[1]):
        raise ContractError(
            f"gold class index out of range [0, {probs.shape[1]})"
        )
    picked = take_rows(probs, gold)
    return neg(mean(log(clamp_min(picked, LOSS_FLOOR))))


def count_clamped(probs: Tensor, gold: np.ndarray) -> int:
    """How many gold-class probabilities fell at or below the loss floor."""
    picked = probs.data[np.arange(probs.shape[0]), np.asarray(gold)]
    return int(np.count_nonzero(picked <= LOSS_FLOOR))


def lr_at(step: float, total_steps: int, cfg: TrainConfig) -> float:
    """Learning rate at a given optimizer step.

    Linear ramp from 0 at step 0 to base_lr at warmup_fraction * total_steps,
    then linear decay reaching exactly 0 at total_steps. Steps past the end
    clamp to zero with a warning.
    """
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ContractError(f"step must be >= 0, got {step}")
    warmup_end = cfg.warmup_fraction * total_steps
    if step > total_steps:
        logger.warning("lr_at called past the schedule (%s > %d)", step, total_steps)
        return 0.0
    if step <= warmup_end:
        return cfg.base_lr * (step / warmup_end)
    return cfg.base_lr * ((total_steps - step) / (total_steps - warmup_end))


def clip_gradients(params: Iterable[tuple[str, Tensor]], bound: float) -> None:
    """Clamp every gradient of the (name, tensor) pairs ``params`` into
    [-bound, +bound] in place.

    Raises NumericError naming the tensor if a gradient holds NaN or +-inf.
    The check runs before the clamp, which would turn +-inf into +-bound.
    """
    if not (bound > 0):
        raise ContractError(f"clip bound must be > 0, got {bound}")
    for name, tensor in params:
        g = tensor.grad
        if g is None or not g.size:
            continue
        lo, hi = _finite_range(name, g)
        if lo < -bound or hi > bound:
            np.clip(g, -bound, bound, out=g)


def _finite_range(name: str, g: np.ndarray):
    """(min, max) of a non-empty gradient; NumericError naming the tensor
    if it holds NaN or +-inf. Two reductions, no boolean mask the size of
    the gradient."""
    lo, hi = g.min(), g.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError(f"non-finite gradient in {name}")
    return lo, hi


class AdamOptimizer:
    """Adam with bias correction.

    Moment accumulators mirror every parameter shape; the step counter
    increases by one per update across all parameters. Every row of every
    parameter is updated on every step (dense Adam).

    The update is lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - beta1^t)
    and v_hat = v / (1 - beta2^t). Both corrections are folded into scalars,
    lr / (1 - beta1^t) and 1 / sqrt(1 - beta2^t), so no corrected moment is
    materialized. Moments and weights are updated in place, one
    ``row_tiles`` tile of rows at a time through a tile-sized buffer per
    tensor that stays in cache. The update is elementwise, so the tiling
    leaves its bits as they are.
    """

    def __init__(
        self,
        params: Iterable[tuple[str, Tensor]],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.tensors: list[tuple[str, Tensor]] = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {name: np.zeros_like(t.data) for name, t in self.tensors}
        self.v = {name: np.zeros_like(t.data) for name, t in self.tensors}
        self.step_count = 0

    def step(self, lr: float) -> None:
        """Apply one update using the gradients currently on the tensors,
        then clear them. A non-finite gradient raises NumericError before
        any tensor, moment or the step count changes.
        """
        updates = [(name, t) for name, t in self.tensors if t.grad is not None]
        for name, tensor in updates:
            if tensor.grad.size:
                _finite_range(name, tensor.grad)
        self.step_count += 1
        t = self.step_count
        step_size = lr / (1.0 - self.beta1**t)
        v_scale = 1.0 / math.sqrt(1.0 - self.beta2**t)
        for name, tensor in updates:
            self._update(
                np.atleast_1d(tensor.data), np.atleast_1d(tensor.grad),
                np.atleast_1d(self.m[name]), np.atleast_1d(self.v[name]),
                step_size, v_scale,
            )
            tensor.grad = None

    def _update(self, w, g, m, v, step_size, v_scale) -> None:
        bounds, height = row_tiles(len(w), math.prod(w.shape[1:]))
        scratch = np.empty((height,) + w.shape[1:], dtype=w.dtype)
        for start, end in zip(bounds, bounds[1:]):
            gs, ms, vs = g[start:end], m[start:end], v[start:end]
            buf = scratch[: end - start]
            ms *= self.beta1
            np.multiply(gs, 1.0 - self.beta1, out=buf)
            ms += buf
            vs *= self.beta2
            np.multiply(gs, gs, out=buf)
            buf *= 1.0 - self.beta2
            vs += buf
            np.sqrt(vs, out=buf)
            buf *= v_scale
            buf += self.eps
            np.divide(ms, buf, out=buf)
            buf *= step_size
            w[start:end] -= buf


def make_batches(
    pairs: Sequence[EncodedPair], cfg: TrainConfig, epoch_seed: int
) -> list[Batch]:
    """Length-sorted batches in a shuffled order.

    Pairs are stably sorted by combined sentence length, chunked into
    batch_size groups of similar length, and the order of the batches
    (not their contents) is shuffled by the epoch seed.
    """
    if not pairs:
        raise ContractError("cannot batch an empty dataset")
    by_length = sorted(pairs, key=lambda p: p.premise_len + p.hypothesis_len)
    chunks = [
        by_length[i : i + cfg.batch_size]
        for i in range(0, len(by_length), cfg.batch_size)
    ]
    order = np.random.default_rng(epoch_seed).permutation(len(chunks))
    return [make_batch(chunks[i]) for i in order]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = float("-inf")
    stopped_early: bool = False
    aborted: bool = False
    clamp_events: int = 0
    total_steps: int = 0

    def to_tsv(self, path: str | Path) -> None:
        lines = ["epoch\ttrain_loss\ttrain_acc\tval_loss\tval_acc"]
        for s in self.epochs:
            lines.append(
                f"{s.epoch}\t{s.train_loss:.6f}\t{s.train_accuracy:.6f}"
                f"\t{s.val_loss:.6f}\t{s.val_accuracy:.6f}"
            )
        lines.append(f"# best_epoch\t{self.best_epoch}")
        with atomic_write(path) as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class TrainResult:
    params: ModelParameters
    log: TrainLog


class Trainer:
    """Runs the training loop and keeps the best-validation-epoch weights.

    Early stopping: after patience_epochs consecutive epochs without a new
    highest validation accuracy, training stops and the weights snapshotted
    at the best epoch are returned. Ties do not count as improvements, so
    the earliest epoch achieving the best accuracy wins.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg

    def evaluate(
        self, params: ModelParameters, batches: Iterable[Batch]
    ) -> tuple[float, float]:
        """Mean per-example loss and accuracy, dropout off."""
        total_loss = 0.0
        correct = 0
        count = 0
        for batch in batches:
            if batch.labels is None:
                raise ContractError("evaluation batches need labels")
            probs = forward_batch(batch, params)
            loss = nll_loss(probs, batch.labels)
            total_loss += loss.item() * batch.size
            correct += int((probs.data.argmax(axis=1) == batch.labels).sum())
            count += batch.size
        if count == 0:
            raise ContractError("evaluation needs at least one example")
        return total_loss / count, correct / count

    def fit(
        self,
        params: ModelParameters,
        train_pairs: Sequence[EncodedPair],
        val_pairs: Sequence[EncodedPair],
    ) -> TrainResult:
        cfg = self.cfg
        log = TrainLog()
        if cfg.max_epochs == 0:
            return TrainResult(params, log)
        if any(p.label_id is None for p in train_pairs):
            raise ContractError("all training pairs need labels")

        batches_per_epoch = math.ceil(len(train_pairs) / cfg.batch_size)
        total_steps = cfg.max_epochs * batches_per_epoch
        log.total_steps = total_steps
        named = list(params.named_tensors())
        optimizer = AdamOptimizer(named)
        val_batches = make_batches(val_pairs, cfg, epoch_seed=0)
        dropout_rng = (
            np.random.default_rng(split_seed(cfg.seed, SEED_DROPOUT))
            if params.config.dropout > 0
            else None
        )

        best_params = params.copy()
        step = 0
        for epoch in range(1, cfg.max_epochs + 1):
            epoch_loss = 0.0
            epoch_correct = 0
            epoch_count = 0
            try:
                for batch in make_batches(
                    train_pairs, cfg, split_seed(cfg.seed, SEED_BATCH, epoch)
                ):
                    with GradTape() as tape:
                        probs = forward_batch(batch, params, rng=dropout_rng)
                        log.clamp_events += count_clamped(probs, batch.labels)
                        loss = nll_loss(probs, batch.labels)
                        loss_value = loss.item()
                        if not math.isfinite(loss_value):
                            raise NumericError(
                                f"loss diverged at epoch {epoch}: {loss_value}"
                            )
                        tape.backward(loss)
                    clip_gradients(named, cfg.clip_bound)
                    step += 1
                    optimizer.step(lr_at(step, total_steps, cfg))
                    epoch_loss += loss_value * batch.size
                    epoch_correct += int(
                        (probs.data.argmax(axis=1) == batch.labels).sum()
                    )
                    epoch_count += batch.size
            except NumericError as exc:
                logger.error("training aborted: %s", exc)
                log.aborted = True
                break

            val_loss, val_accuracy = self.evaluate(params, val_batches)
            stats = EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / epoch_count,
                train_accuracy=epoch_correct / epoch_count,
                val_loss=val_loss,
                val_accuracy=val_accuracy,
            )
            log.epochs.append(stats)
            logger.info(
                "epoch %d: train loss %.4f acc %.4f, val loss %.4f acc %.4f",
                epoch, stats.train_loss, stats.train_accuracy, val_loss, val_accuracy,
            )
            if val_accuracy > log.best_val_accuracy:
                log.best_val_accuracy = val_accuracy
                log.best_epoch = epoch
                best_params = params.copy()
            elif epoch - log.best_epoch >= cfg.patience_epochs:
                log.stopped_early = True
                logger.info(
                    "no improvement for %d epochs, stopping; best epoch %d",
                    cfg.patience_epochs, log.best_epoch,
                )
                break

        return TrainResult(best_params, log)
