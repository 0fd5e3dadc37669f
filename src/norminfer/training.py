"""Training engine: loss, learning-rate schedule, gradient clipping, Adam,
length-sorted batching, and the epoch loop with early stopping.

Each step cuts its batch into two halves of about equal tokens, each run
forward and backward on its own tape, the second on the helper thread when
two CPUs are usable. Each half's loss gradient is weighted by its share of
the pairs and the two are summed: the gradient of the batch-mean loss,
with the same bytes whatever the thread count.

The learning rate ramps linearly from zero to the base rate over the first
warmup_fraction of the step budget, then decays linearly back to zero at
the final step. The step budget is fixed up front as max_epochs times the
number of batches per epoch; early stopping simply leaves the tail of the
schedule unused.

The step's tail is ``sum_gradients`` of the two halves and one Adam step,
which first checks each gradient for NaN or +-inf and clamps it, not the
parameters, elementwise into [-clip_bound, +clip_bound].

Inference and each epoch's validation both run through ``probabilities``,
the one forward-only loop.
"""

from __future__ import annotations

import functools
import logging
import math
import mmap
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import base
from .base import ContractError, NumericError, atomic_write, check_fields, setting, split_seed
from .model import Batch, ModelParameters, embedding_ids, forward_batch, make_batch
from .tensor import GradTape, RowGrad, Tensor, _dense, _result, row_tiles, untaped
from .text import EncodedPair

logger = logging.getLogger(__name__)

LOSS_FLOOR = 1e-12
# Adam's moment decay rates and denominator floor (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# past this share of a tensor's rows, Adam's dense sweep beats gathering them
SPARSE_ROW_SHARE = 0.25
# tokens one forward-only pass may hold (fairseq's --max-tokens)
BATCH_TOKENS = 1024
# tokens x d_model x n_blocks from which a forward-only call runs in passes of
# at most half its tokens, so the helper thread takes one: it cuts a paper-scale
# fit's 16 validation pairs (~620 tokens), which ran slower as one pass
SPLIT_WORK = 1 << 20

# seed-path components for deriving child seeds from the master seed
SEED_INIT = 0
SEED_BATCH = 1
SEED_DROPOUT = 2
Grads = dict[Tensor, np.ndarray | RowGrad]  # as ``GradTape.backward`` returns them


@dataclass
class TrainConfig:
    base_lr: float = setting(6.25e-5, float, lo=0, closed=False)
    warmup_fraction: float = setting(0.002, float, lo=0, hi=1, closed=False)
    clip_bound: float = setting(1.0, float, lo=0, closed=False)
    batch_size: int = setting(16)
    patience_epochs: int = setting(10)
    max_epochs: int = setting(100, lo=0)
    seed: int = setting(0, lo=0)

    __post_init__ = check_fields

    def to_dict(self) -> dict:
        return asdict(self)


def nll_loss(probs: Tensor, gold: np.ndarray) -> Tensor:
    """Mean negative log probability of the gold class, as one tape record.

    probs has one row of class probabilities per example; gold holds the
    integer class indices. Probabilities are floored at 1e-12 inside the
    log so a fully confident wrong prediction keeps the loss finite. The
    value is -mean(log(max(p_gold, floor))), and the pull puts
    -g / (B * max(p_gold, floor)) at each gold entry whose p_gold is above
    the floor, and 0 everywhere else.
    """
    gold, picked = _gold_probs(probs, gold)
    floor = probs.dtype.type(LOSS_FLOOR)
    clamped = np.maximum(picked, floor)
    data = -np.asarray(np.log(clamped).mean(), dtype=probs.dtype)

    def pull(g):
        g_picked = np.asarray(-g / len(gold), dtype=probs.dtype) / clamped
        g_probs = np.zeros_like(probs.data)
        g_probs[np.arange(len(gold)), gold] = np.where(picked > floor, g_picked, 0.0)
        return (g_probs,)

    return _result((probs,), data, pull)


def count_clamped(probs: Tensor, gold: np.ndarray) -> int:
    """How many gold-class probabilities fell at or below the loss floor."""
    return int(np.count_nonzero(_gold_probs(probs, gold)[1] <= LOSS_FLOOR))


def _gold_probs(probs: Tensor, gold) -> tuple[np.ndarray, np.ndarray]:
    """The checked gold indices and the probability each row gives its own."""
    gold = np.asarray(gold)
    if probs.ndim != 2:
        raise ContractError(f"probs must be (batch, classes), got {probs.shape}")
    if not np.issubdtype(gold.dtype, np.integer):
        raise ContractError(f"gold classes must be integers, got {gold.dtype}")
    if gold.shape != (probs.shape[0],):
        raise ContractError(
            f"gold shape {gold.shape} does not match batch size {probs.shape[0]}"
        )
    if gold.size and (gold.min() < 0 or gold.max() >= probs.shape[1]):
        raise ContractError(
            f"gold class index out of range [0, {probs.shape[1]})"
        )
    return gold, probs.data[np.arange(len(gold)), gold]


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


def clip_gradients(params: Iterable[tuple[str, Tensor]], grads: Grads, bound: float) -> None:
    """Clamp the gradient in ``grads`` of each of the (name, tensor) pairs
    ``params`` into [-bound, +bound] in place, largest first on both threads.

    Raises NumericError naming a tensor whose gradient holds NaN or +-inf.
    The check runs before the clamp, which would turn +-inf into +-bound.
    """
    if not (bound > 0):
        raise ContractError(f"clip bound must be > 0, got {bound}")
    items = _largest_first([(name, grads[t]) for name, t in params if t in grads])
    base.run_shared(functools.partial(_clip, bound=bound), items)


def _clip(item: tuple[str, np.ndarray | RowGrad], bound: float) -> None:
    """Check and clamp one (name, gradient) pair for ``clip_gradients``: two
    reductions, and no mask the size of the gradient or write within bound."""
    name, grad = item
    g = grad.values if isinstance(grad, RowGrad) else grad
    lo, hi = (g.min(), g.max()) if g.size else (0, 0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError(f"non-finite gradient in {name}")
    if lo < -bound or hi > bound:
        np.clip(g, -bound, bound, out=g)


def _largest_first(items: list) -> list:
    """``items`` whose second entry is a gradient, largest first: the order
    in which the caller and the helper thread share per-tensor work."""
    return sorted(items, key=lambda item: getattr(item[1], "values", item[1]).size, reverse=True)


def lazy_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros the OS maps in small pages as they are first written; numpy asks
    for 2 MiB pages from 4 MiB up, where a few rows written pin most of it."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size < 1 << 22:
        return np.zeros(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


class AdamOptimizer:
    """Adam with bias correction, at the fixed ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``, on gradients clamped elementwise.

    Moment accumulators mirror every parameter shape; the step counter
    increases by one per update across all parameters.

    With g = clamp(grad, -clip_bound, +clip_bound), m = beta1 * m + (1 - beta1) * g
    and v = beta2 * v + (1 - beta2) * g^2, the update is
    lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - beta1^t) and
    v_hat = v / (1 - beta2^t). Both corrections are folded into scalars,
    lr / (1 - beta1^t) and 1 / sqrt(1 - beta2^t), so no corrected moment is
    materialized. Moments and weights are updated in place, one
    ``row_tiles`` tile of rows at a time through a tile-sized buffer per
    tensor that stays in cache. The update is elementwise, so the tiling
    leaves its bits as they are.

    A :class:`RowGrad` names the rows outside which a gradient is zero. While
    the rows named so far are at most ``SPARSE_ROW_SHARE`` of them, only they
    are updated, with dense Adam's bits: rows never named have zero moments
    and stay. Each tile builds its gradient from the rows that fall in it.
    """

    def __init__(self, params: Iterable[tuple[str, Tensor]], clip_bound: float):
        if not (clip_bound > 0):
            raise ContractError(f"clip bound must be > 0, got {clip_bound}")
        self.tensors: list[tuple[str, Tensor]] = list(params)
        self.clip_bound = clip_bound
        self.m = {name: lazy_zeros(t.shape, t.dtype) for name, t in self.tensors}
        self.v = {name: lazy_zeros(t.shape, t.dtype) for name, t in self.tensors}
        # rows named so far, per tensor that still has rows outside them
        self.live = {name: np.zeros(len(np.atleast_1d(t.data)), bool) for name, t in self.tensors}
        self.step_count = 0

    def step(self, grads: Grads, lr: float) -> None:
        """Apply one update from ``grads``, keyed by tensor; a tensor without
        one keeps its weights and moments. ``clip_gradients`` first clamps
        each gradient in place, or raises NumericError on a non-finite one
        before any tensor, moment or the step count changes. The clamps, then
        the per-tensor updates, run largest first on the caller and the helper
        thread; which rows an update takes is settled on the caller first.
        Nothing of ``grads`` is kept.
        """
        clip_gradients(self.tensors, grads, self.clip_bound)
        updates = [(name, grads[t], t) for name, t in self.tensors if t in grads]
        self.step_count += 1
        t = self.step_count
        step_size = lr / (1.0 - ADAM_BETA1**t)
        v_scale = 1.0 / math.sqrt(1.0 - ADAM_BETA2**t)
        plan = []  # (work, gradient, weights, m, v, live row index or None)
        for name, g, tensor in updates:
            sparse = isinstance(g, RowGrad)
            w, m, v = (np.atleast_1d(a) for a in (tensor.data, self.m[name], self.v[name]))
            live = self.live.get(name)
            if live is not None:
                live[g.rows if sparse else slice(None)] = True
                if not sparse or np.count_nonzero(live) > SPARSE_ROW_SHARE * len(live):
                    del self.live[name]
            index = np.flatnonzero(live) if name in self.live else None
            work = w.size if index is None else len(index) * math.prod(w.shape[1:])
            plan.append((work, g if sparse else np.atleast_1d(g), w, m, v, index))

        def update(item: tuple) -> None:
            _, g, w, m, v, index = item
            if index is None:
                self._update(w, g, m, v, step_size, v_scale)
            else:
                w_rows, m_rows, v_rows = w[index], m[index], v[index]
                g = RowGrad(np.searchsorted(index, g.rows), g.values, w_rows.shape)
                self._update(w_rows, g, m_rows, v_rows, step_size, v_scale)
                w[index], m[index], v[index] = w_rows, m_rows, v_rows

        base.run_shared(update, sorted(plan, key=lambda item: item[0], reverse=True))

    def _update(self, w, g, m, v, step_size, v_scale) -> None:
        bounds, height = row_tiles(len(w), math.prod(w.shape[1:]))
        sparse = isinstance(g, RowGrad)
        scratch = np.empty((1 + sparse, height) + w.shape[1:], dtype=w.dtype)
        # a RowGrad's rows [a, b) fall in the tile [start, end)
        cuts = np.searchsorted(g.rows, bounds).tolist() if sparse else bounds
        for start, end, a, b in zip(bounds, bounds[1:], cuts, cuts[1:]):
            ms, vs, buf = m[start:end], v[start:end], scratch[0, : end - start]
            gs = scratch[1, : end - start] if sparse else g[start:end]
            if sparse:
                gs.fill(0)
                gs[g.rows[a:b] - start] = g.values[a:b]
            ms *= ADAM_BETA1
            np.multiply(gs, 1.0 - ADAM_BETA1, out=buf)
            ms += buf
            vs *= ADAM_BETA2
            np.multiply(gs, gs, out=buf)
            buf *= 1.0 - ADAM_BETA2
            vs += buf
            np.sqrt(vs, out=buf)
            buf *= v_scale
            buf += ADAM_EPS
            np.divide(ms, buf, out=buf)
            buf *= step_size
            w[start:end] -= buf


def length_sorted_chunks(
    pairs: Sequence[EncodedPair], size: int, tokens: bool = False
) -> list[list[int]]:
    """Indices of ``pairs``, stably sorted by pair length and cut into
    consecutive runs of at most ``size`` pairs or, with ``tokens``, of at
    most ``size`` tokens, where a longer pair runs alone: the batches of
    pairs of similar length that training (by pairs) and inference (by
    tokens) run."""
    chunks, used = [], size
    for i in sorted(range(len(pairs)), key=lambda i: len(pairs[i])):
        cost = len(pairs[i]) if tokens else 1
        if used + cost > size:
            chunks.append([])
            used = 0
        chunks[-1].append(i)
        used += cost
    return chunks


def probabilities(params: ModelParameters, encoded: Sequence[EncodedPair]) -> np.ndarray:
    """Float64 class probability rows for encoded pairs, in input order: the
    one forward-only loop, untaped and without dropout. Passes of length-sorted
    pairs hold at most ``BATCH_TOKENS`` tokens, or half the call's once its work
    reaches ``SPLIT_WORK``; a longer pair runs alone. They run longest first on
    the caller and the helper thread, with the bytes of one thread."""
    config, tokens = params.config, sum(len(pair) for pair in encoded)
    split = tokens * config.d_model * config.n_blocks >= SPLIT_WORK
    budget = min(BATCH_TOKENS, (tokens + 1) // 2) if split else BATCH_TOKENS
    out = np.empty((len(encoded), config.n_classes), dtype=np.float64)

    def run_chunk(idx: list[int]) -> None:
        out[idx] = forward_batch(make_batch([encoded[i] for i in idx]), params).data

    with untaped():
        base.run_shared(run_chunk, length_sorted_chunks(encoded, budget, tokens=True)[::-1])
    return out


def make_batches(
    pairs: Sequence[EncodedPair], cfg: TrainConfig, epoch_seed: int
) -> list[Batch]:
    """``length_sorted_chunks`` of batch_size pairs as batches, in an order
    (not their contents) shuffled by the epoch seed."""
    if not pairs:
        raise ContractError("cannot batch an empty dataset")
    chunks = length_sorted_chunks(pairs, cfg.batch_size)
    order = np.random.default_rng(epoch_seed).permutation(len(chunks))
    return [make_batch([pairs[j] for j in chunks[i]]) for i in order]


def split_batch(batch: Batch) -> list[Batch]:
    """A labelled batch as the prefix of its pairs whose tokens come closest
    to half (the first on a tie) and the rest; a one-pair batch stays whole."""
    if batch.size == 1:
        return [batch]
    ends = np.cumsum(batch.eos_index + 1)
    k = int(np.argmin(np.abs(2 * ends[:-1] - ends[-1]))) + 1
    t = ends[k - 1]
    return [Batch(batch.token_ids[:t], batch.eos_index[:k], batch.labels[:k]),
            Batch(batch.token_ids[t:], batch.eos_index[k:], batch.labels[k:])]


def sum_gradients(first: Grads, second: Grads) -> Grads:
    """``first`` with ``second`` added per tensor, largest first on the
    caller and the helper thread. Two arrays add in place in ``first``'s;
    two :class:`RowGrad` add up over the union of their rows, so nothing
    table-sized is made."""
    sums = [[t, f, second[t]] for t, f in first.items() if t in second]
    first.update((t, g) for t, g in second.items() if t not in first)
    base.run_shared(_add_pair, _largest_first(sums))
    first.update((t, f) for t, f, _ in sums)
    return first


def _add_pair(item: list) -> None:
    """Put the sum of the gradients ``item[1:]`` at ``item[1]``."""
    _, f, g = item
    if isinstance(f, RowGrad) and isinstance(g, RowGrad):
        rows = np.union1d(f.rows, g.rows)
        values = np.zeros((len(rows),) + g.values.shape[1:], dtype=g.values.dtype)
        values[np.searchsorted(rows, f.rows)] = f.values
        values[np.searchsorted(rows, g.rows)] += g.values
        item[1] = RowGrad(rows, values, g.shape)
    elif isinstance(f, RowGrad) or isinstance(g, RowGrad):
        item[1] = _dense(f) + _dense(g)
    else:
        f += g


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

    A snapshot is made only when a best epoch may be followed by another,
    once per fit, and refreshed in place; otherwise the live weights are
    returned: after an abort in the first epoch, those of its last finite
    step, with ``best_epoch`` 0.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg

    def evaluate(
        self, params: ModelParameters, pairs: Sequence[EncodedPair]
    ) -> tuple[float, float]:
        """Mean per-pair loss and accuracy over labelled encoded pairs, read
        off one ``probabilities`` array."""
        if not pairs:
            raise ContractError("evaluation needs at least one example")
        if any(p.label_id is None for p in pairs):
            raise ContractError("evaluation pairs need labels")
        gold, probs = np.array([p.label_id for p in pairs]), probabilities(params, pairs)
        correct = int((probs.argmax(axis=1) == gold).sum())
        return nll_loss(Tensor(probs), gold).item(), correct / len(pairs)

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
        for name, pairs in (("training", train_pairs), ("validation", val_pairs)):
            if not pairs:
                raise ContractError(f"fit needs at least one {name} pair")
            for start in range(0, len(pairs), cfg.batch_size):  # a forward pass's checks
                try:
                    batch = make_batch(pairs[start : start + cfg.batch_size])
                    embedding_ids(batch, params.config)
                except ContractError as exc:
                    raise ContractError(f"{name} batch at pair {start}: {exc}") from None
                if batch.labels is None:
                    raise ContractError(f"all {name} pairs need labels")

        total_steps = cfg.max_epochs * math.ceil(len(train_pairs) / cfg.batch_size)
        log.total_steps = total_steps
        named = list(params.named_tensors())
        optimizer = AdamOptimizer(named, cfg.clip_bound)

        def train_step(batch: Batch, step: int) -> tuple[float, int]:
            """One update; the batch's loss sum and correct count. Nothing
            else of the step outlives the call."""
            halves = split_batch(batch)
            results: list = [None] * len(halves)  # (gradients, loss sum, correct, clamped)

            def run_half(i: int) -> None:
                half = halves[i]
                rng = np.random.default_rng(split_seed(cfg.seed, SEED_DROPOUT, step, i))
                with GradTape() as tape:
                    probs = forward_batch(half, params, rng=rng)
                    clamped = count_clamped(probs, half.labels)
                    loss = nll_loss(probs, half.labels)
                    value = loss.item()
                    if not math.isfinite(value):
                        raise NumericError(f"loss diverged at epoch {epoch}: {value}")
                    grads = tape.backward(loss, half.size / batch.size)
                correct = int((probs.data.argmax(axis=1) == half.labels).sum())
                results[i] = grads, value * half.size, correct, clamped

            base.run_shared(run_half, range(len(halves)))
            grads = functools.reduce(sum_gradients, [r[0] for r in results])
            losses, corrects, clamps = zip(*(r[1:] for r in results))
            results.clear()  # the helper's closure may outlive the call
            log.clamp_events += sum(clamps)
            optimizer.step(grads, lr_at(step, total_steps, cfg))
            return sum(losses), sum(corrects)

        best_params = params  # the live weights until a best epoch is followed by another
        step = 0
        for epoch in range(1, cfg.max_epochs + 1):
            epoch_loss, epoch_correct, epoch_count = 0.0, 0, 0
            try:
                epoch_seed = split_seed(cfg.seed, SEED_BATCH, epoch)
                for batch in make_batches(train_pairs, cfg, epoch_seed):
                    step += 1
                    loss_sum, correct = train_step(batch, step)
                    epoch_loss += loss_sum
                    epoch_correct += correct
                    epoch_count += batch.size
            except NumericError as exc:
                logger.error("training aborted: %s", exc)
                log.aborted = True
                break

            val_loss, val_accuracy = self.evaluate(params, val_pairs)
            stats = EpochStats(epoch, epoch_loss / epoch_count, epoch_correct / epoch_count,
                               val_loss, val_accuracy)
            log.epochs.append(stats)
            logger.info("epoch %d: train loss %.4f acc %.4f, val loss %.4f acc %.4f",
                        epoch, stats.train_loss, stats.train_accuracy, val_loss, val_accuracy)
            if val_accuracy > log.best_val_accuracy:
                log.best_val_accuracy = val_accuracy
                log.best_epoch = epoch
                if epoch < cfg.max_epochs and best_params is not params:
                    for (_, best), (_, tensor) in zip(best_params.named_tensors(), named):
                        np.copyto(best.data, tensor.data)
                else:  # a first snapshot, or the last epoch's live weights
                    best_params = params.copy() if epoch < cfg.max_epochs else params
            elif epoch - log.best_epoch >= cfg.patience_epochs:
                log.stopped_early = True
                logger.info("no improvement for %d epochs, stopping; best epoch %d",
                            cfg.patience_epochs, log.best_epoch)
                break

        return TrainResult(best_params, log)
