import logging
import math
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from helpers import (
    build_random_pair,
    build_toy_config,
    build_toy_params,
    dense_grad,
    dot_with,
    max_rel_err,
    numeric_grad,
    reference_nll,
)

from norminfer.base import ConfigError, ContractError, NumericError
from norminfer import base, tensor as tensor_module, training
from norminfer.model import ModelParameters, forward_batch, make_batch
from norminfer.tensor import GradTape, RowGrad, Tensor, add, parameter
from norminfer.training import (
    AdamOptimizer,
    TrainConfig,
    Trainer,
    class_logits,
    clip_gradients,
    length_sorted_chunks,
    lr_at,
    make_batches,
    nll_loss,
    probabilities,
    split_batch,
    sum_gradients,
)

LN3 = 1.0986122886681098
LN2 = 0.6931471805599453

# Frozen trace: scalar parameter starting at 1.0, loss w^2, lr 0.1,
# gradients 2w, three hand-applied Adam updates with bias correction.
ADAM_QUADRATIC_TRACE = [0.9000000005, 0.8004122286917928, 0.7015862729460303]


def cfg(**kw):
    return TrainConfig(**kw)


def reference_adam(weights, grads, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook update with materialized bias-corrected moments."""
    weights = [w.copy() for w in weights]
    m = [np.zeros_like(w) for w in weights]
    v = [np.zeros_like(w) for w in weights]
    for t in range(1, steps + 1):
        for w, g, m_i, v_i in zip(weights, grads[t - 1], m, v):
            m_i *= beta1
            m_i += (1.0 - beta1) * g
            v_i *= beta2
            v_i += (1.0 - beta2) * (g * g)
            m_hat = m_i / (1.0 - beta1**t)
            v_hat = v_i / (1.0 - beta2**t)
            w -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return weights


class TestLrSchedule:
    def test_zero_at_origin(self):
        assert lr_at(0, 500_000, cfg()) == 0.0

    def test_exact_base_rate_at_warmup_end(self):
        c = cfg()
        total = 500_000
        warmup_end = c.warmup_fraction * total
        assert lr_at(warmup_end, total, c) == c.base_lr

    def test_exact_base_rate_at_fractional_boundary(self):
        c = cfg()
        total = 1234
        warmup_end = c.warmup_fraction * total
        assert lr_at(warmup_end, total, c) == c.base_lr

    def test_zero_at_final_step(self):
        assert lr_at(500_000, 500_000, cfg()) == 0.0

    def test_linear_within_segments(self):
        c = cfg()
        total = 500_000
        warmup_end = c.warmup_fraction * total
        assert lr_at(warmup_end / 2, total, c) == c.base_lr * 0.5
        mid_decay = (warmup_end + total) / 2
        assert abs(lr_at(mid_decay, total, c) - c.base_lr * 0.5) < 1e-18

    def test_maximum_sits_at_warmup_boundary(self):
        c = cfg()
        total = 10_000
        warmup_end = c.warmup_fraction * total
        grid = list(np.linspace(0, total, 401)) + [warmup_end]
        rates = [lr_at(s, total, c) for s in grid]
        assert max(rates) == c.base_lr
        assert rates.index(max(rates)) == len(grid) - 1 or math.isclose(
            grid[int(np.argmax(rates))], warmup_end, abs_tol=total / 400
        )

    def test_monotone_ramp_and_decay(self):
        c = cfg()
        total = 10_000
        warmup_end = c.warmup_fraction * total
        ramp = [lr_at(s, total, c) for s in np.linspace(0, warmup_end, 10)]
        assert all(a < b for a, b in zip(ramp, ramp[1:]))
        decay = [lr_at(s, total, c) for s in np.linspace(warmup_end, total, 10)]
        assert all(a > b for a, b in zip(decay, decay[1:]))

    def test_past_schedule_clamps_to_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="norminfer.training"):
            assert lr_at(600, 500, cfg()) == 0.0
        assert "past the schedule" in caplog.text

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            lr_at(1, 0, cfg())
        with pytest.raises(ContractError):
            lr_at(-1, 10, cfg())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cfg(base_lr=0.0)
        with pytest.raises(ConfigError, match="base_lr"):
            cfg(base_lr=math.inf)
        for seed in (-1, 1.0, True):
            with pytest.raises(ConfigError, match="seed"):
                cfg(seed=seed)
        with pytest.raises(ConfigError):
            cfg(warmup_fraction=0.0)
        with pytest.raises(ConfigError):
            cfg(warmup_fraction=1.0)
        with pytest.raises(ConfigError):
            cfg(clip_bound=-1.0)
        with pytest.raises(ConfigError, match="clip_bound"):
            cfg(clip_bound=math.inf)
        with pytest.raises(ConfigError):
            cfg(max_epochs=-1)

    @pytest.mark.parametrize("name", ["batch_size", "patience_epochs", "max_epochs", "seed"])
    def test_integer_fields_reject_bools(self, name):
        with pytest.raises(ConfigError, match=name):
            cfg(**{name: True})

    @pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
    @pytest.mark.parametrize("name", ["base_lr", "warmup_fraction", "clip_bound"])
    def test_float_fields_reject_bools_and_strings(self, name, value):
        with pytest.raises(ConfigError, match=name):
            cfg(**{name: value})

    def test_float_fields_take_ints(self):
        assert cfg(clip_bound=2, base_lr=1).clip_bound == 2
        with pytest.raises(ConfigError, match=r"warmup_fraction must be a number in \(0, 1\)"):
            cfg(warmup_fraction=math.nan)


def clip_one(gradient, bound):
    """Clamp one gradient through clip_gradients; returns the array it left."""
    w = parameter(np.zeros_like(gradient), dtype=np.float64)
    grads = {w: gradient}
    clip_gradients([("w", w)], grads, bound)
    return grads[w]


class TestClip:
    def test_clamps_to_bound(self):
        g = np.array([-5.0, -1.0, 0.25, 3.0])
        assert clip_one(g, 1.0) is g  # in place
        np.testing.assert_array_equal(g, [-1.0, -1.0, 0.25, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = rng.normal(scale=3.0, size=20)
            once = clip_one(g, 1.0).copy()
            np.testing.assert_array_equal(clip_one(g, 1.0), once)

    def test_within_bound_untouched(self):
        g = np.array([0.5, -0.5])
        np.testing.assert_array_equal(clip_one(g, 1.0), [0.5, -0.5])

    def test_invalid_bound(self):
        with pytest.raises(ContractError):
            clip_one(np.zeros(2), 0.0)
        with pytest.raises(ContractError):
            clip_gradients([], {}, 0.0)
        for bound in (0.0, -1.0, math.nan):
            with pytest.raises(ContractError, match="clip bound must be > 0"):
                AdamOptimizer([], bound)

    def test_row_gradient_is_clamped_in_its_values(self):
        w = parameter(np.zeros((6, 2)), dtype=np.float64)
        values = np.array([[3.0, -0.5], [-2.0, 0.25]])
        grads = {w: RowGrad(np.array([1, 4]), values, w.shape)}
        clip_gradients([("w", w)], grads, 1.0)
        assert grads[w].values is values  # in place
        np.testing.assert_array_equal(values, [[1.0, -0.5], [-1.0, 0.25]])
        values[1, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            clip_gradients([("w", w)], grads, 1.0)
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            AdamOptimizer([("w", w)], 1.0).step(grads, 0.1)
        assert not w.data.any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises_before_the_clamp(self, bad):
        w = parameter(np.array([1.0, 2.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)], 1.0)
        grads = {w: np.array([bad, 0.5])}
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            clip_gradients([("w", w)], grads, 1.0)
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            opt.step(grads, 0.1)
        np.testing.assert_array_equal(grads[w], [bad, 0.5])
        np.testing.assert_array_equal(w.data, [1.0, 2.0])


class TestAdam:
    def test_scalar_quadratic_matches_hand_recurrence(self):
        w = parameter(np.array([1.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)], math.inf)
        for expected in ADAM_QUADRATIC_TRACE:
            opt.step({w: 2.0 * w.data}, 0.1)
            np.testing.assert_allclose(w.data[0], expected, rtol=0, atol=1e-12)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        w = parameter(np.array([0.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)], math.inf)
        lr = 0.01
        for _ in range(100):
            before = w.data.copy()
            opt.step({w: np.array([0.3])}, lr)
            delta = w.data - before
            assert delta[0] < 0  # moves against the gradient
            assert abs(abs(delta[0]) - lr) < lr * 1e-6

    def test_state_mirrors_parameter_shapes_and_step_counts(self):
        params = build_toy_params(build_toy_config(vocab_words=8))
        opt = AdamOptimizer(params.named_tensors(), math.inf)
        for name, tensor in params.named_tensors():
            assert opt.m[name].shape == tensor.shape
            assert opt.v[name].shape == tensor.shape
        assert opt.step_count == 0
        opt.step({tensor: np.zeros_like(tensor.data) for _, tensor in params.named_tensors()}, 1e-3)
        assert opt.step_count == 1

    def test_gradients_cleared_after_step(self):
        """The optimizer keeps nothing of the gradients it was given."""
        w = parameter(np.array([1.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)], math.inf)
        grad = np.array([1.0])
        held = weakref.ref(grad)
        opt.step({w: grad}, 0.1)
        del grad
        assert held() is None

    def test_non_finite_gradient_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            w = parameter(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
            opt = AdamOptimizer([("w", w)], math.inf)
            with pytest.raises(NumericError, match="non-finite gradient in w"):
                opt.step({w: np.array([0.5, bad, -0.5])}, 0.1)
            np.testing.assert_array_equal(w.data, [1.0, 2.0, 3.0])

    def test_non_finite_gradient_leaves_every_tensor_unchanged(self):
        """A NaN in the second tensor stops the step before the first one
        moves: weights, gradients and the step count stay as they were, and
        the next finite step is the reference's first step."""
        a = parameter(np.array([1.0]), dtype=np.float64)
        b = parameter(np.array([2.0]), dtype=np.float64)
        opt = AdamOptimizer([("a", a), ("b", b)], math.inf)
        grads = {a: np.array([1.0]), b: np.array([np.nan])}
        with pytest.raises(NumericError, match="non-finite gradient in b"):
            opt.step(grads, 0.1)
        assert a.data[0] == 1.0 and b.data[0] == 2.0 and opt.step_count == 0
        assert grads[a][0] == 1.0 and np.isnan(grads[b][0])
        grads[b] = np.array([-0.5])
        opt.step(grads, 0.1)
        want = reference_adam([np.array([1.0]), np.array([2.0])],
                              [[np.array([1.0]), np.array([-0.5])]], 0.1, 1)
        for t, expected in zip((a, b), want):
            np.testing.assert_allclose(t.data, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tile", [5, 1 << 16])
    def test_fused_update_matches_reference(self, monkeypatch, tile):
        # a tiny tile splits every tensor into several row tiles
        monkeypatch.setattr("norminfer.tensor.TILE_ELEMENTS", tile)
        rng = np.random.default_rng(67)
        shapes = [(3,), (4, 5), (2, 3, 4), (1,), ()]
        start = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(scale=0.5, size=s) for s in shapes] for _ in range(5)]
        tensors = [parameter(w.copy(), dtype=np.float64) for w in start]
        opt = AdamOptimizer([(f"p{i}", t) for i, t in enumerate(tensors)], math.inf)
        for step_grads in grads:
            opt.step({t: g.copy() for t, g in zip(tensors, step_grads)}, 0.01)
        for t, expected in zip(tensors, reference_adam(start, grads, 0.01, 5)):
            np.testing.assert_allclose(t.data, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tile", [7, 1 << 16], ids=["row-tiles", "one-tile"])
    @pytest.mark.parametrize(
        "hints",
        [
            # row 1 is read only in step 1 and must keep decaying; step 6
            # takes the union past a quarter of the 40 rows, and from then
            # on the dense loop runs
            [[1, 3], [3, 4, 4], [], [0, 3, 9], [12, 20, 33], list(range(5, 15)), [4]],
            [list(range(40)), [2], [5, 0]],
        ],
        ids=["growing", "all-live"],
    )
    def test_row_hints_give_the_bits_of_dense_adam(self, monkeypatch, dtype, tile, hints):
        """A RowGrad of the rows each step reads, on the live-row path and
        then on the dense tiles, against the same update from the dense
        gradient."""
        monkeypatch.setattr("norminfer.tensor.TILE_ELEMENTS", tile)
        rng = np.random.default_rng(73)
        start = rng.normal(size=(40, 5)).astype(dtype)
        dense, hinted = parameter(start.copy(), dtype=dtype), parameter(start.copy(), dtype=dtype)
        dense_opt = AdamOptimizer([("e", dense)], math.inf)
        hinted_opt = AdamOptimizer([("e", hinted)], math.inf)
        seen = set()
        for rows in hints:
            g = np.zeros(start.shape, dtype=dtype)
            g[rows] = rng.normal(size=(len(rows), 5))
            read = np.unique(np.array(rows, dtype=np.int64))
            dense_opt.step({dense: g}, 0.01)
            hinted_opt.step({hinted: RowGrad(read, g[read], g.shape)}, 0.01)
            seen.update(rows)
            if len(seen) <= 10:
                assert set(np.flatnonzero(hinted_opt.live["e"])) == seen
            else:
                assert "e" not in hinted_opt.live
            assert dense.data.tobytes() == hinted.data.tobytes()
            for moments in ("m", "v"):
                want, got = getattr(dense_opt, moments)["e"], getattr(hinted_opt, moments)["e"]
                assert want.tobytes() == got.tobytes()
        assert "e" not in hinted_opt.live
        assert not np.array_equal(dense.data, start)

    def test_shared_read_only_leaf_gradient(self, monkeypatch):
        a = parameter(np.array([0.5, -1.5, 2.0]), dtype=np.float64)
        b = parameter(np.array([1.0, 0.0, -3.0]), dtype=np.float64)
        start = [a.data.copy(), b.data.copy()]
        named = [("a", a), ("b", b)]
        opt = AdamOptimizer(named, 0.5)
        leaf_grad, handed = tensor_module._leaf_grad, []

        def spy(grad, held):
            handed.append(grad)
            return leaf_grad(grad, held)

        monkeypatch.setattr(tensor_module, "_leaf_grad", spy)
        for _ in range(5):
            handed.clear()
            with GradTape() as tape:
                grads = tape.backward(dot_with(add(a, b), np.ones(3)))
            # the add hands both leaves one array of ones, which backward
            # must not leave shared; the bound of 0.5 makes the clamp
            # write into each
            assert len(handed) == 2 and handed[0] is handed[1]
            opt.step(grads, 0.01)
        halves = [np.full(3, 0.5), np.full(3, 0.5)]
        for t, expected in zip((a, b), reference_adam(start, [halves] * 5, 0.01, 5)):
            np.testing.assert_allclose(t.data, expected, rtol=1e-12, atol=0)

    def test_a_nan_in_any_tensor_moves_nothing_on_two_workers(self, monkeypatch):
        """Whichever thread would update the tensor whose gradient holds a
        NaN, no weight, moment or the step count moves."""
        monkeypatch.setattr(base, "_WORKERS", 2)
        params = build_toy_params(build_toy_config(vocab_words=8))
        named = list(params.named_tensors())
        opt = AdamOptimizer(named, 1.0)
        rng = np.random.default_rng(3)
        opt.step({t: rng.normal(size=t.shape).astype(t.dtype) for _, t in named}, 1e-2)
        state = [a.tobytes() for name, t in named for a in (t.data, opt.m[name], opt.v[name])]
        for bad_name, bad in named:
            grads = {t: rng.normal(size=t.shape).astype(t.dtype) for _, t in named}
            grads[bad].flat[-1] = np.nan
            with pytest.raises(NumericError, match=f"non-finite gradient in {bad_name}$"):
                opt.step(grads, 1e-2)
            with pytest.raises(NumericError, match=f"non-finite gradient in {bad_name}$"):
                clip_gradients(named, grads, 1.0)
            assert opt.step_count == 1
            assert [a.tobytes() for name, t in named
                    for a in (t.data, opt.m[name], opt.v[name])] == state

    def test_one_worker_and_two_update_with_the_same_bits(self, monkeypatch):
        """Dense, live-row and row-tile updates, shared between the caller
        and the helper thread, give the bits of the caller alone."""
        monkeypatch.setattr("norminfer.tensor.TILE_ELEMENTS", 16)
        config = build_toy_config(vocab_words=40)
        rng = np.random.default_rng(8)
        steps = []
        for rows in ([1, 5], [2, 30], list(range(3, 40))):
            grads = {name: rng.normal(size=t.shape).astype(np.float32)
                     for name, t in build_toy_params(config).named_tensors()}
            steps.append((grads, np.array(rows)))
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(base, "_WORKERS", workers)
            params = build_toy_params(config, seed=2)
            named = list(params.named_tensors())
            opt = AdamOptimizer(named, 1.0)
            for grads, rows in steps:
                step = {t: grads[name].copy() for name, t in named}
                table = step[params.embedding]
                step[params.embedding] = RowGrad(rows, table[rows], table.shape)
                opt.step(step, 1e-2)
            runs.append([a.tobytes() for name, t in named
                         for a in (t.data, opt.m[name], opt.v[name])])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("row_grad", [False, True], ids=["dense", "row-grad"])
    def test_the_gradient_is_clamped_before_the_moments(self, row_grad):
        """Bound 0.5 on [3.0, -0.2] updates weights and moments with the bits
        of unclipped Adam on [0.5, -0.2], the reference's update."""
        start = np.array([[1.0, -1.0], [0.25, 2.0], [0.0, 0.5]])

        def run(row, bound):
            w = parameter(start.copy(), dtype=np.float64)
            opt = AdamOptimizer([("w", w)], bound)
            for _ in range(3):
                g = np.zeros_like(start)
                g[1] = row
                opt.step({w: RowGrad(np.array([1]), g[1:2], g.shape) if row_grad else g}, 0.1)
            return [a.tobytes() for a in (w.data, opt.m["w"], opt.v["w"])], w.data

        (clipped, weights), (unclipped, _) = run([3.0, -0.2], 0.5), run([0.5, -0.2], math.inf)
        assert clipped == unclipped
        g = np.zeros_like(start)
        g[1] = [0.5, -0.2]
        [want] = reference_adam([start], [[g]] * 3, 0.1, 3)
        np.testing.assert_allclose(weights, want, rtol=1e-12, atol=0)
        assert not np.array_equal(weights, start)

    def test_parameters_without_gradient_skipped(self):
        w = parameter(np.array([1.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)], math.inf)
        opt.step({}, 0.1)
        assert w.data[0] == 1.0


@pytest.mark.parametrize("shape", [(3, 4), (1 << 20, 2)], ids=["allocated", "mapped"])
def test_lazy_zeros_are_writeable_zeros(shape):
    a = training.lazy_zeros(shape, np.float32)
    assert a.shape == shape and a.dtype == np.float32 and a.flags.writeable
    assert not a.any()
    a[-1] = 1.0
    assert a.sum() == shape[1]


class TestNllLoss:
    def test_uniform_three_class_gives_ln3(self):
        logits = Tensor(np.zeros((1, 3)), dtype=np.float64)
        assert abs(nll_loss(logits, np.array([0])).item() - LN3) < 1e-15

    def test_uniform_two_class_gives_ln2(self):
        logits = Tensor(np.zeros((1, 2)), dtype=np.float64)
        assert abs(nll_loss(logits, np.array([1])).item() - LN2) < 1e-15

    def test_certain_correct_prediction_gives_zero(self):
        logits = Tensor(np.array([[200.0, 0.0, 0.0]]), dtype=np.float64)
        assert nll_loss(logits, np.array([0])).item() == 0.0

    def test_a_wrong_logit_leading_by_30_gives_30_and_a_gradient(self):
        """In float32 p_gold is ~9e-14 here: a loss of the probability
        floored at 1e-12 would read 27.63, with a gradient of exactly zero."""
        logits = parameter(np.array([[0.0, 30.0, 0.0]]), dtype=np.float32)
        with GradTape() as tape:
            loss = nll_loss(logits, np.array([0]))
            grads = tape.backward(loss)
        assert loss.data.dtype == np.float32 and loss.item() == 30.0
        grad = grads[logits][0]
        np.testing.assert_allclose(grad, [-1.0, 1.0, 0.0], rtol=0, atol=1e-6)
        assert 0 < grad[2] < 1e-12

    def test_batch_mean(self):
        logits = Tensor(np.array([[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), dtype=np.float64)
        loss = nll_loss(logits, np.array([0, 2]))
        assert abs(loss.item() - LN3 / 2) < 1e-15

    def test_validation(self):
        logits = Tensor(np.zeros((2, 3)), dtype=np.float64)
        with pytest.raises(ContractError):
            nll_loss(logits, np.array([0]))
        with pytest.raises(ContractError):
            nll_loss(logits, np.array([0, 3]))
        with pytest.raises(ContractError):
            nll_loss(Tensor(np.zeros(3), dtype=np.float64), np.array([0, 1, 2]))

    @pytest.mark.parametrize("gold", [np.array([0.0, 1.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_gold_must_be_integers(self, gold):
        logits = Tensor(np.zeros((2, 3)), dtype=np.float64)
        with pytest.raises(ContractError, match="integers"):
            nll_loss(logits, gold)

    def test_one_tape_record(self):
        logits = parameter(np.zeros((4, 3)), dtype=np.float64)
        with GradTape() as tape:
            loss = nll_loss(logits, np.array([0, 2, 1, 2]))
        assert len(tape) == 1 and loss.requires_grad

    def test_gradient_matches_finite_differences(self):
        """float64, repeated gold classes, and one gold logit 40 below its
        row's leader, whose gradient is about -1/B, not 0."""
        rng = np.random.default_rng(151)
        gold = np.array([2, 0, 2, 2, 1])
        logits = parameter(rng.normal(scale=2.0, size=(5, 3)), dtype=np.float64)
        logits.data[3] = [0.0, 40.0, 0.0]
        with GradTape() as tape:
            grads = tape.backward(nll_loss(logits, gold))

        def f():
            z = logits.data
            return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(5), gold]))

        assert grads[logits][3, 2] == pytest.approx(-1 / 5, rel=1e-12)
        assert max_rel_err(grads[logits], numeric_grad(f, logits.data)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 16, 17, 64])
    def test_bytes_equal_the_chain_of_steps(self, batch, dtype):
        """Value and gradient are the bits of the log-sum-exp steps applied
        in turn, with one gold logit 60 below its row's leader."""
        rng = np.random.default_rng(batch)
        gold = rng.integers(0, 3, size=batch)
        data = rng.normal(scale=2.0, size=(batch, 3)).astype(dtype)
        data[batch // 2, gold[batch // 2]] -= 60
        logits = parameter(data, dtype=dtype)
        with GradTape() as tape:
            loss = nll_loss(logits, gold)
            grads = tape.backward(loss)
        want_value, want_grad = reference_nll(data, gold)
        for got, want in ((loss.data, want_value), (grads[logits], want_grad)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestMakeBatches:
    def build_pairs(self, n, config, seed=0):
        rng = np.random.default_rng(seed)
        return [
            build_random_pair(rng, config, t=int(rng.integers(2, config.max_len)),
                              label_id=int(rng.integers(0, 3)))
            for _ in range(n)
        ]

    def test_every_pair_used_exactly_once(self):
        config = build_toy_config(vocab_words=10, max_len=12)
        pairs = self.build_pairs(23, config)
        batches = make_batches(pairs, cfg(batch_size=4), epoch_seed=5)
        assert sorted(b.size for b in batches) == [3, 4, 4, 4, 4, 4]
        seen = sorted(
            tuple(ids) for b in batches
            for ids in np.split(b.token_ids, np.cumsum(b.eos_index + 1)[:-1])
        )
        expected = sorted(tuple(p.token_ids) for p in pairs)
        assert seen == expected

    def test_same_seed_same_batches(self):
        config = build_toy_config(vocab_words=10, max_len=12)
        pairs = self.build_pairs(20, config)
        a = make_batches(pairs, cfg(batch_size=6), epoch_seed=3)
        b = make_batches(pairs, cfg(batch_size=6), epoch_seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.token_ids, y.token_ids)

    def test_different_seed_changes_order(self):
        config = build_toy_config(vocab_words=10, max_len=12)
        pairs = self.build_pairs(40, config)
        a = make_batches(pairs, cfg(batch_size=4), epoch_seed=1)
        b = make_batches(pairs, cfg(batch_size=4), epoch_seed=2)
        assert any(
            x.token_ids.shape != y.token_ids.shape
            or not np.array_equal(x.token_ids, y.token_ids)
            for x, y in zip(a, b)
        )

    def test_lengths_sorted_within_batches(self):
        config = build_toy_config(vocab_words=10, max_len=14)
        pairs = self.build_pairs(30, config, seed=9)
        for batch in make_batches(pairs, cfg(batch_size=8), epoch_seed=7):
            lengths = [int(e) + 1 for e in batch.eos_index]
            assert lengths == sorted(lengths)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            make_batches([], cfg(), epoch_seed=0)

    def test_pair_without_eos_rejected(self):
        config = build_toy_config(vocab_words=10, max_len=12)
        pairs = self.build_pairs(6, config)
        pairs[4].token_ids[-1] = 3
        with pytest.raises(ContractError, match="end-of-sequence"):
            make_batches(pairs, cfg(batch_size=4), epoch_seed=0)


class TestEvaluate:
    def test_loss_and_accuracy_match_per_pair_values(self):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=6)
        rng = np.random.default_rng(3)
        pairs = [build_random_pair(rng, config, t=int(rng.integers(2, 8)), label_id=i % 3)
                 for i in range(9)]
        logits = [forward_batch(make_batch([p]), params).data[0].astype(np.float64)
                  for p in pairs]
        want_loss = np.mean([math.log(np.exp(z).sum()) - z[q.label_id]
                             for z, q in zip(logits, pairs)])
        want_accuracy = np.mean([z.argmax() == q.label_id for z, q in zip(logits, pairs)])
        loss, accuracy = Trainer(cfg()).evaluate(params, pairs)
        assert loss == pytest.approx(want_loss, rel=1e-5)
        assert accuracy == want_accuracy

    def test_a_gold_logit_40_below_the_leader_gives_a_loss_of_40(self):
        """A probability floored at 1e-12 would read 27.63 here."""
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=6)
        params.w_cls.data[:] = 0.0
        params.b_cls.data[:] = [0.0, 40.0, 0.0]
        rng = np.random.default_rng(3)
        pairs = [build_random_pair(rng, config, t=5, label_id=0) for _ in range(4)]
        loss, accuracy = Trainer(cfg()).evaluate(params, pairs)
        assert loss == pytest.approx(40.0, rel=1e-12) and accuracy == 0.0

    def test_unlabeled_pairs_rejected(self):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config)
        rng = np.random.default_rng(0)
        pairs = [build_random_pair(rng, config, t=4, label_id=1),
                 build_random_pair(rng, config, t=4)]
        with pytest.raises(ContractError, match="^evaluation pairs need labels$"):
            Trainer(cfg()).evaluate(params, pairs)

    def test_no_examples_rejected(self):
        params = build_toy_params(build_toy_config(vocab_words=10))
        with pytest.raises(ContractError, match="^evaluation needs at least one example$"):
            Trainer(cfg()).evaluate(params, [])

    def test_one_worker_and_two_give_the_same_bits(self, monkeypatch):
        """Loss and accuracy are read off one ``class_logits`` array, whose
        passes one worker and two share alike, so they agree in every bit;
        nothing is recorded onto a tape the caller has open."""
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=6)
        rng = np.random.default_rng(4)
        pairs = [build_random_pair(rng, config, t=int(rng.integers(2, 12)), label_id=i % 3)
                 for i in range(11)]
        monkeypatch.setattr(training, "BATCH_TOKENS", 16)  # several passes
        gold = np.array([p.label_id for p in pairs])
        want = (nll_loss(Tensor(class_logits(params, pairs), dtype=np.float64), gold).item(),
                int((probabilities(params, pairs).argmax(axis=1) == gold).sum()) / len(pairs))
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(base, "_WORKERS", workers)
            with GradTape() as tape:
                got.append(Trainer(cfg()).evaluate(params, pairs))
            assert tape._records == []
        assert got[0] == got[1] == want


class TestProbabilities:
    """Below ``SPLIT_WORK`` a call runs greedy ``BATCH_TOKENS`` passes; from
    it on, passes of at most half its tokens, with the same bytes on one
    worker and two."""

    LENGTHS = [9, 3, 12, 5, 7, 11, 2, 6]  # 55 tokens

    def passes(self, monkeypatch, params, pairs, workers):
        monkeypatch.setattr(base, "_WORKERS", workers)
        calls = []

        def recording(batch, params, **kw):
            calls.append(batch.token_ids.size)
            return forward_batch(batch, params, **kw)

        monkeypatch.setattr(training, "forward_batch", recording)
        out = probabilities(params, pairs).tobytes()
        return sorted(calls), out

    def test_work_from_the_constant_on_cuts_a_call_in_half(self, monkeypatch):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=3)
        pairs = numbered_pairs(config, self.LENGTHS)
        work = sum(self.LENGTHS) * config.d_model * config.n_blocks
        greedy = sorted(sum(self.LENGTHS[i] for i in chunk) for chunk in
                        length_sorted_chunks(pairs, training.BATCH_TOKENS, tokens=True))
        monkeypatch.setattr(training, "SPLIT_WORK", work + 1)  # below: the greedy pass
        assert self.passes(monkeypatch, params, pairs, 1)[0] == greedy == [55]
        monkeypatch.setattr(training, "SPLIT_WORK", work)  # reached: halves
        one = self.passes(monkeypatch, params, pairs, 1)
        two = self.passes(monkeypatch, params, pairs, 2)
        assert one == two
        assert len(one[0]) >= 2 and max(one[0]) <= 28 and sum(one[0]) == 55

    def test_a_single_pair_is_never_cut(self, monkeypatch):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config)
        monkeypatch.setattr(training, "SPLIT_WORK", 1)
        assert self.passes(monkeypatch, params, numbered_pairs(config, [12]), 2)[0] == [12]

    def test_rows_are_the_stabilized_softmax_of_the_head(self):
        """Each pass's head logits less their row max, exponentiated and
        over their row sum in float32, then widened: the bits a softmax at
        the end of ``forward_batch`` gave."""
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=3)
        pairs = numbered_pairs(config, self.LENGTHS)
        want = np.empty((len(pairs), config.n_classes))
        for idx in length_sorted_chunks(pairs, training.BATCH_TOKENS, tokens=True):
            z = forward_batch(make_batch([pairs[i] for i in idx]), params).data
            shifted = z - z.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            want[idx] = e / e.sum(axis=-1, keepdims=True)
        assert z.dtype == np.float32
        assert probabilities(params, pairs).tobytes() == want.tobytes()

    def test_a_non_finite_logit_is_a_numeric_error_naming_the_pair(self):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=3)
        pairs = numbered_pairs(config, self.LENGTHS)
        params.w_cls.data[0, 1] = np.nan
        with pytest.raises(NumericError, match="^non-finite class logits for pair 0$"):
            probabilities(params, pairs)


class FixedTraceTrainer(Trainer):
    """Trainer whose validation accuracy follows a scripted sequence."""

    def __init__(self, config, trace):
        super().__init__(config)
        self.trace = trace
        self.head_snapshots = {}
        self.snapshots = {}

    def evaluate(self, params, pairs):
        epoch = len(self.head_snapshots) + 1
        self.head_snapshots[epoch] = params.w_cls.data.copy()
        self.snapshots[epoch] = [t.data.copy() for _, t in params.named_tensors()]
        return 1.0, self.trace[epoch - 1]


class TestTrainerLoop:
    def small_dataset(self, config, n_train=8, n_val=4, seed=0):
        rng = np.random.default_rng(seed)
        train_pairs = [
            build_random_pair(rng, config, t=5, label_id=i % 3)
            for i in range(n_train)
        ]
        val_pairs = [
            build_random_pair(rng, config, t=5, label_id=i % 3)
            for i in range(n_val)
        ]
        return train_pairs, val_pairs

    def test_scripted_peak_stops_after_patience_and_restores_best(self, monkeypatch):
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        trace = [0.5 + 0.01 * e for e in range(1, 13)] + [0.5] * 30
        trainer = FixedTraceTrainer(
            cfg(max_epochs=40, patience_epochs=10, base_lr=1e-3, batch_size=4),
            trace,
        )
        params = build_toy_params(config, seed=3)
        copies = []
        copy = ModelParameters.copy
        monkeypatch.setattr(ModelParameters, "copy", lambda self: copies.append(1) or copy(self))
        result = trainer.fit(params, train_pairs, val_pairs)

        # one snapshot per fit, refreshed in place at each better epoch
        assert len(copies) == 1
        best = [t.data for _, t in result.params.named_tensors()]
        assert all(np.array_equal(a, b) for a, b in zip(best, trainer.snapshots[12]))
        assert not all(np.array_equal(a, b) for a, b in zip(best, trainer.snapshots[11]))

        assert len(result.log.epochs) == 22
        assert result.log.best_epoch == 12
        assert result.log.stopped_early
        assert np.array_equal(
            result.params.w_cls.data, trainer.head_snapshots[12]
        )
        assert not np.array_equal(
            result.params.w_cls.data, trainer.head_snapshots[22]
        )

    def test_a_fit_whose_last_epoch_is_best_returns_the_live_weights(self, monkeypatch):
        """One epoch is the last and the best: no copy is made."""
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        monkeypatch.setattr(ModelParameters, "copy", lambda self: pytest.fail("copied"))
        params = build_toy_params(config, seed=3)
        before = params.w_cls.data.copy()
        result = Trainer(cfg(max_epochs=1, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert result.params is params and result.log.best_epoch == 1
        assert not np.array_equal(params.w_cls.data, before)

    def test_an_abort_in_the_first_epoch_returns_the_last_finite_step(self, monkeypatch):
        """A NaN gradient at step 2 of epoch 1: the live weights after step
        1 come back, with best epoch 0."""
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        params = build_toy_params(config, seed=3)
        start = [t.data.tobytes() for _, t in params.named_tensors()]
        clip, calls, after_step_1 = training.clip_gradients, [], []

        def poisoned(named, grads, bound):
            calls.append(1)
            if len(calls) == 2:
                after_step_1.extend(t.data.tobytes() for _, t in named)
                grads[params.w_cls][0, 0] = np.nan
            clip(named, grads, bound)

        monkeypatch.setattr(training, "clip_gradients", poisoned)
        result = Trainer(cfg(max_epochs=3, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert result.log.aborted and result.log.epochs == [] and result.log.best_epoch == 0
        assert result.params is params
        assert [t.data.tobytes() for _, t in params.named_tensors()] == after_step_1 != start

    def test_a_non_finite_validation_row_aborts_the_run(self, monkeypatch):
        """Epoch 2's validation logits hold a NaN: the run stops as on a
        non-finite training loss, and epoch 1's weights come back."""
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        params = build_toy_params(config, seed=3)
        validations = []

        def poisoned(batch, params, rng=None, **kw):
            logits = forward_batch(batch, params, rng=rng, **kw)
            if rng is None:  # validation; a training step passes its generator
                validations.append(logits.data)
                if len(validations) == 2:
                    logits.data[-1, 0] = np.nan
            return logits

        monkeypatch.setattr(training, "forward_batch", poisoned)
        result = Trainer(cfg(max_epochs=3, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert result.log.aborted and len(validations) == 2
        assert len(result.log.epochs) == 1 and result.log.best_epoch == 1
        assert result.params is not params

    def test_each_step_checks_each_gradient_once(self, monkeypatch):
        """The finite check runs once per tensor per step, inside Adam."""
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        checked, clip = [], training._clip

        def counted(item, bound):
            checked.append(item[0])
            clip(item, bound)

        monkeypatch.setattr(training, "_clip", counted)
        params = build_toy_params(config, seed=3)
        result = Trainer(cfg(max_epochs=2, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert result.log.total_steps == 4 and len(result.log.epochs) == 2
        assert Counter(checked) == {name: 4 for name, _ in params.named_tensors()}

    def test_deterministic_given_seed(self):
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        # enough batches that two seeds almost surely shuffle differently
        train_pairs, val_pairs = self.small_dataset(config, n_train=16)

        def run(seed):
            params = build_toy_params(config, seed=7)
            result = Trainer(
                cfg(max_epochs=3, batch_size=2, base_lr=1e-3, seed=seed)
            ).fit(params, train_pairs, val_pairs)
            return result

        a, b = run(11), run(11)
        assert a.log == b.log
        for (_, ta), (_, tb) in zip(a.params.named_tensors(),
                                    b.params.named_tensors()):
            assert np.array_equal(ta.data, tb.data)

        c = run(12)
        assert any(
            not np.array_equal(ta.data, tc.data)
            for (_, ta), (_, tc) in zip(a.params.named_tensors(),
                                        c.params.named_tensors())
        )

    def test_embedding_row_hint_keeps_the_bits(self, monkeypatch):
        """The table's RowGrad tells Adam which embedding rows each batch
        read. Its live-row path, its dense tiles (from the first step, with
        no sparse share) and a dense table gradient give the same bits."""
        # 416 table rows, so the rows read stay under a quarter of them
        config = build_toy_config(vocab_words=400, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config, n_train=12)

        def run():
            params = build_toy_params(config, seed=9)
            result = Trainer(cfg(max_epochs=3, batch_size=4, base_lr=1e-2)).fit(
                params, train_pairs, val_pairs
            )
            return [t.data.tobytes() for p in (params, result.params)
                    for _, t in p.named_tensors()], params.embedding.data

        hinted, table = run()
        untouched = (table == build_toy_params(config, seed=9).embedding.data).all(axis=1)
        assert untouched.mean() > 1 - training.SPARSE_ROW_SHARE
        monkeypatch.setattr(training, "SPARSE_ROW_SHARE", 0.0)
        assert run()[0] == hinted
        clip = training.clip_gradients

        def densify_then_clip(named, grads, bound):
            for tensor, grad in grads.items():
                grads[tensor] = dense_grad(grad)
            clip(named, grads, bound)

        monkeypatch.setattr(training, "clip_gradients", densify_then_clip)
        assert run()[0] == hinted

    @pytest.mark.parametrize("share", [training.SPARSE_ROW_SHARE, 0.0], ids=["live", "tiles"])
    def test_a_step_allocates_nothing_table_sized(self, monkeypatch, share):
        """Backward and Adam with its clip, live-row path or dense tiles,
        each allocate well under a quarter of the embedding table."""
        monkeypatch.setattr(training, "SPARSE_ROW_SHARE", share)
        monkeypatch.setattr("norminfer.tensor.TILE_ELEMENTS", 1 << 12)
        config = build_toy_config(vocab_words=60_000, n_blocks=1, d_model=8)
        params = build_toy_params(config, seed=3)
        named = list(params.named_tensors())
        optimizer = AdamOptimizer(named, 1.0)
        rng = np.random.default_rng(5)
        batch = make_batch([build_random_pair(rng, config, t=n, label_id=0) for n in (7, 12)])
        table_bytes = params.embedding.data.nbytes
        for _ in range(2):
            with GradTape() as tape:
                loss = nll_loss(forward_batch(batch, params), batch.labels)
                peaks, grads = [], {}
                tracemalloc.start()
                try:
                    for run in (lambda: grads.update(tape.backward(loss)),
                                lambda: optimizer.step(grads, 1e-3)):
                        tracemalloc.reset_peak()
                        run()
                        peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks) < table_bytes / 4, [p / table_bytes for p in peaks]
        assert ("embedding" in optimizer.live) == bool(share)

    def test_loss_decreases_on_a_fixed_batch(self):
        config = build_toy_config(vocab_words=12, n_blocks=1, n_heads=2, d_model=8)
        rng = np.random.default_rng(77)
        pairs = [build_random_pair(rng, config, t=5, label_id=i % 3)
                 for i in range(8)]
        batch = make_batch(pairs)
        params = build_toy_params(config, seed=5)
        named = list(params.named_tensors())
        opt = AdamOptimizer(named, 1.0)
        losses = []
        for _ in range(50):
            with GradTape() as tape:
                loss = nll_loss(forward_batch(batch, params), batch.labels)
                grads = tape.backward(loss)
            opt.step(grads, 1e-3)
            losses.append(loss.item())
        non_decreases = sum(b >= a for a, b in zip(losses, losses[1:]))
        assert non_decreases <= 2
        assert losses[-1] < losses[0]

    def test_zero_epochs_returns_initial_weights_and_empty_log(self):
        config = build_toy_config(vocab_words=10)
        train_pairs, val_pairs = self.small_dataset(config)
        params = build_toy_params(config, seed=1)
        before = params.embedding.data.copy()
        result = Trainer(cfg(max_epochs=0)).fit(params, train_pairs, val_pairs)
        assert result.log.epochs == []
        np.testing.assert_array_equal(result.params.embedding.data, before)

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_a_fit_without_pairs_is_rejected_before_adam_is_built(self, monkeypatch, empty):
        config = build_toy_config(vocab_words=10)
        train_pairs, val_pairs = self.small_dataset(config)
        pairs = {"training": train_pairs, "validation": val_pairs}
        pairs[empty] = []
        params = build_toy_params(config)
        monkeypatch.setattr(training, "AdamOptimizer", lambda named, bound: pytest.fail("built"))
        with pytest.raises(ContractError, match=f"^fit needs at least one {empty} pair$"):
            Trainer(cfg(max_epochs=1)).fit(params, pairs["training"], pairs["validation"])
        result = Trainer(cfg(max_epochs=0)).fit(params, pairs["training"], pairs["validation"])
        assert result.params is params and result.log.epochs == []

    def test_unlabeled_training_pairs_rejected(self):
        config = build_toy_config(vocab_words=10)
        rng = np.random.default_rng(0)
        unlabeled = [build_random_pair(rng, config, t=4)]
        labeled = [build_random_pair(rng, config, t=4, label_id=0)]
        params = build_toy_params(config)
        with pytest.raises(ContractError):
            Trainer(cfg(max_epochs=1)).fit(params, unlabeled, labeled)

    def test_unlabeled_validation_pairs_rejected_before_any_step(self, monkeypatch):
        config = build_toy_config(vocab_words=10)
        train_pairs, val_pairs = self.small_dataset(config)
        val_pairs[-1].label_id = None
        params = build_toy_params(config)
        before = [t.data.tobytes() for _, t in params.named_tensors()]
        calls = []
        monkeypatch.setattr(training, "forward_batch", lambda *a, **k: calls.append(a))
        with pytest.raises(ContractError, match="validation"):
            Trainer(cfg(max_epochs=1, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert calls == []
        assert [t.data.tobytes() for _, t in params.named_tensors()] == before

    @pytest.mark.parametrize("which,defect,message", [
        ("validation", "id", "token id out of range"),
        ("training", "id", "token id out of range"),
        ("training", "length", "exceeds max_len"),
        ("training", "eos", "end-of-sequence"),
    ])
    def test_a_bad_pair_is_rejected_before_any_step(self, which, defect, message):
        """A pair a forward pass would reject, past the first batch, stops
        the fit before any weight moves."""
        config = build_toy_config(vocab_words=10, max_len=12)
        train_pairs, val_pairs = self.small_dataset(config, n_val=8)
        pairs = {"training": train_pairs, "validation": val_pairs}[which]
        if defect == "id":
            pairs[-1].token_ids[0] = 10**6
        elif defect == "eos":
            pairs[-1].token_ids[-1] = 3
        else:
            pairs[-1] = build_random_pair(np.random.default_rng(1), config, t=13, label_id=0)
        params = build_toy_params(config)
        before = [t.data.tobytes() for _, t in params.named_tensors()]
        with pytest.raises(ContractError, match=f"^{which} batch at pair 4: .*{message}"):
            Trainer(cfg(max_epochs=1, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert [t.data.tobytes() for _, t in params.named_tensors()] == before

    def test_divergence_aborts_with_flag(self):
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        params = build_toy_params(config, seed=2)
        params.embedding.data[:] = np.nan
        result = Trainer(cfg(max_epochs=3, batch_size=4)).fit(params, train_pairs, val_pairs)
        assert result.log.aborted
        assert result.log.epochs == []

    def test_log_export_format(self, tmp_path):
        config = build_toy_config(vocab_words=10, n_blocks=1, d_model=8)
        train_pairs, val_pairs = self.small_dataset(config)
        params = build_toy_params(config, seed=4)
        result = Trainer(cfg(max_epochs=2, batch_size=4)).fit(params, train_pairs, val_pairs)
        out = tmp_path / "log.tsv"
        result.log.to_tsv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\ttrain_acc\tval_loss\tval_acc"
        assert len(lines) == 1 + 2 + 1
        assert lines[-1].startswith("# best_epoch\t")
        assert lines[1].split("\t")[0] == "1"


def numbered_pairs(config, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [build_random_pair(rng, config, t=n, label_id=i % 3) for i, n in enumerate(lengths)]


def fit_weights(config, train_pairs, val_pairs, **kw):
    """The bytes of every weight after a fit from fixed initial weights."""
    params = build_toy_params(config, seed=7)
    result = Trainer(cfg(base_lr=1e-2, **kw)).fit(params, train_pairs, val_pairs)
    return [t.data.tobytes() for _, t in result.params.named_tensors()], result.log


class TestSplitStep:
    """Each step's batch runs as two halves of about equal tokens, one on
    the helper thread; the step follows the whole batch's mean loss."""

    def test_halves_cut_at_the_prefix_closest_to_half_the_tokens(self):
        config = build_toy_config(vocab_words=10, max_len=12)
        cases = [([2, 3, 3, 4, 10], 4), ([1, 2, 1], 1), ([5, 5], 1), ([1, 1, 12], 2)]
        for lengths, k in cases:
            batch = make_batch(numbered_pairs(config, lengths))
            first, second = split_batch(batch)
            assert (first.size, second.size) == (k, len(lengths) - k)
            for name in ("token_ids", "eos_index", "labels"):
                joined = np.concatenate([getattr(first, name), getattr(second, name)])
                assert joined.tobytes() == getattr(batch, name).tobytes()
        alone = make_batch(numbered_pairs(config, [7]))
        assert split_batch(alone) == [alone]

    def test_weighted_halves_give_the_whole_batch_gradient(self):
        """float64: each half's loss gradient weighted by its share of the
        pairs, summed, is the whole batch's gradient within 1e-12 for every
        parameter, the embedding's a RowGrad over rows both halves read."""
        config = build_toy_config(vocab_words=12, n_blocks=2, max_len=10)
        params = build_toy_params(config, seed=5, dtype=np.float64)
        batch = make_batch(numbered_pairs(config, [3, 4, 4, 6, 7, 9], seed=3))
        halves = split_batch(batch)

        def gradients(part, seed):
            with GradTape() as tape:
                loss = nll_loss(forward_batch(part, params), part.labels)
                return tape.backward(loss, seed)

        whole = gradients(batch, 1.0)
        parts = [gradients(half, half.size / batch.size) for half in halves]
        rows = [set(p[params.embedding].rows.tolist()) for p in parts]
        assert rows[0] & rows[1]  # the positions at least
        summed = sum_gradients(*parts)
        assert isinstance(summed[params.embedding], RowGrad)
        assert summed[params.embedding].rows.tolist() == whole[params.embedding].rows.tolist()
        assert set(summed) == set(whole) == {t for _, t in params.named_tensors()}
        for name, tensor in params.named_tensors():
            np.testing.assert_allclose(
                dense_grad(summed[tensor]), dense_grad(whole[tensor]), rtol=0, atol=1e-12,
                err_msg=name,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sum_adds_in_place_with_the_bits_of_one_worker(self, monkeypatch, workers):
        """Arrays add into the first map's own arrays; RowGrads over the
        union of their rows; a tensor in one map keeps its gradient."""
        monkeypatch.setattr(base, "_WORKERS", workers)
        rng = np.random.default_rng(9)
        tensors = [parameter(np.zeros(s), dtype=np.float32) for s in [(5, 3), (7,), (2, 2), (4,)]]
        a, b, c, d = tensors
        first = {a: rng.normal(size=(5, 3)).astype(np.float32),
                 b: rng.normal(size=7).astype(np.float32),
                 c: RowGrad(np.array([0]), np.ones((1, 2), np.float32), (2, 2))}
        second = {a: rng.normal(size=(5, 3)).astype(np.float32),
                  b: rng.normal(size=7).astype(np.float32),
                  c: RowGrad(np.array([0, 1]), np.full((2, 2), 2, np.float32), (2, 2)),
                  d: np.arange(4, dtype=np.float32)}
        want = {t: dense_grad(first[t]) + dense_grad(second[t]) for t in (a, b, c)}
        arrays = first[a], first[b]
        summed = sum_gradients(first, second)
        assert summed is first and set(summed) == set(tensors)
        assert summed[a] is arrays[0] and summed[b] is arrays[1]
        assert summed[d] is second[d] and summed[c].rows.tolist() == [0, 1]
        for t in (a, b, c):
            assert dense_grad(summed[t]).tobytes() == want[t].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fit_step_takes_the_whole_batch_gradient(self, monkeypatch, workers):
        """float64: the gradient one step of ``Trainer.fit`` clips is the
        whole batch's mean-loss gradient within 1e-12, on either thread count."""
        monkeypatch.setattr(base, "_WORKERS", workers)
        config = build_toy_config(vocab_words=12, n_blocks=2, max_len=10)
        pairs = numbered_pairs(config, [3, 4, 4, 6, 7, 9], seed=3)
        params = build_toy_params(config, seed=5, dtype=np.float64)
        batch = make_batch(pairs)
        with GradTape() as tape:
            whole = tape.backward(nll_loss(forward_batch(batch, params), batch.labels))
        clipped, clip = [], training.clip_gradients

        def spy(named, grads, bound):
            clipped.append({name: dense_grad(grads[t]).copy() for name, t in named})
            clip(named, grads, bound)

        monkeypatch.setattr(training, "clip_gradients", spy)
        Trainer(cfg(max_epochs=1, batch_size=6)).fit(params, pairs, pairs[:1])
        [got] = clipped
        for name, tensor in params.named_tensors():
            want = dense_grad(whole[tensor])
            np.testing.assert_allclose(got[name], want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_weights_do_not_depend_on_the_thread_count(self, monkeypatch, dropout):
        """Byte-identical weights run to run, and with one worker and two;
        each half draws its own dropout masks."""
        config = build_toy_config(vocab_words=20, n_blocks=2, max_len=12, dropout=dropout)
        train_pairs = numbered_pairs(config, np.random.default_rng(1).integers(2, 13, 30))
        val_pairs = numbered_pairs(config, [4, 6, 8], seed=2)
        runs = []
        for workers in (2, 2, 1):
            monkeypatch.setattr(base, "_WORKERS", workers)
            runs.append(fit_weights(config, train_pairs, val_pairs, max_epochs=2, batch_size=7))
        assert runs[0] == runs[1] == runs[2]
        if dropout:
            plain = build_toy_config(vocab_words=20, n_blocks=2, max_len=12)
            assert fit_weights(plain, train_pairs, val_pairs, max_epochs=2,
                               batch_size=7)[0] != runs[0][0]

    def test_concurrent_fits_share_the_helper_and_keep_their_bytes(self, monkeypatch):
        """Four callers train at once while thread switches are forced
        often, all through the one helper thread: every fit gives the bytes
        and log of a fit on one worker."""
        config = build_toy_config(vocab_words=20, n_blocks=1, max_len=12, dropout=0.1)
        train_pairs = numbered_pairs(config, np.random.default_rng(6).integers(2, 13, 24))
        val_pairs = numbered_pairs(config, [5, 7], seed=2)
        monkeypatch.setattr(base, "_WORKERS", 1)
        expected = fit_weights(config, train_pairs, val_pairs, max_epochs=2, batch_size=5)
        monkeypatch.setattr(base, "_WORKERS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                runs = [callers.submit(fit_weights, config, train_pairs, val_pairs,
                                       max_epochs=2, batch_size=5) for _ in range(12)]
                outputs = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(out == expected for out in outputs)

    @pytest.mark.parametrize("bad", ["caller", "helper"])
    def test_a_non_finite_half_aborts_after_the_helper_and_moves_no_weight(
        self, monkeypatch, bad
    ):
        monkeypatch.setattr(base, "_WORKERS", 2)
        config = build_toy_config(vocab_words=10, n_blocks=1, max_len=8)
        params = build_toy_params(config, seed=2)
        before = [t.data.tobytes() for _, t in params.named_tensors()]
        caller = threading.get_ident()
        meet = threading.Barrier(2, timeout=30)
        running, lock, aborts = [0], threading.Lock(), []

        def meeting(batch, params, **kw):
            with lock:
                running[0] += 1
            try:
                meet.wait()  # both halves are surely under way
                probs = forward_batch(batch, params, **kw)
                if (threading.get_ident() == caller) == (bad == "caller"):
                    probs.data[0] = np.nan
                else:
                    time.sleep(0.2)  # the other half fails long before this one ends
                return probs
            finally:
                with lock:
                    running[0] -= 1

        def abort(*args):
            aborts.append((threading.get_ident(), running[0], args))

        monkeypatch.setattr(training, "forward_batch", meeting)
        monkeypatch.setattr(training.logger, "error", abort)
        train_pairs, val_pairs = numbered_pairs(config, [4, 4]), numbered_pairs(config, [3])
        result = Trainer(cfg(max_epochs=2, batch_size=2)).fit(params, train_pairs, val_pairs)
        assert result.log.aborted and result.log.epochs == []
        [(thread, still_running, args)] = aborts
        assert thread == caller and still_running == 0
        assert isinstance(args[-1], NumericError) and "loss diverged" in str(args[-1])
        assert [t.data.tobytes() for _, t in params.named_tensors()] == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_gradient_of_a_step_outlives_it(self, monkeypatch, workers):
        """Every gradient array a step made, each half's and the summed
        ones, is freed once its update is done: none is alive at the next
        forward pass or after the fit."""
        monkeypatch.setattr(base, "_WORKERS", workers)
        made, done, lock = [], [], threading.Lock()

        def arrays(grads):
            return [g.values if isinstance(g, RowGrad) else g for g in grads.values()]

        class WatchedTape(GradTape):
            def backward(self, loss, seed=1.0):
                grads = super().backward(loss, seed)
                with lock:
                    made.extend(weakref.ref(a) for a in arrays(grads))
                return grads

        step = AdamOptimizer.step

        def watched_step(self, grads, lr):
            step(self, grads, lr)
            done.extend(made + [weakref.ref(a) for a in arrays(grads)])
            made.clear()

        def checked_forward(*args, **kw):
            assert all(ref() is None for ref in done)
            return forward_batch(*args, **kw)

        monkeypatch.setattr(training, "GradTape", WatchedTape)
        monkeypatch.setattr(AdamOptimizer, "step", watched_step)
        monkeypatch.setattr(training, "forward_batch", checked_forward)
        config = build_toy_config(vocab_words=20, n_blocks=2, max_len=12)
        train_pairs = numbered_pairs(config, np.random.default_rng(4).integers(2, 13, 20))
        fit_weights(config, train_pairs, numbered_pairs(config, [5]), max_epochs=2, batch_size=6)
        assert len(done) > 50 and made == []
        assert all(ref() is None for ref in done)
