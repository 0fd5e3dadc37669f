import logging
import math
import tracemalloc

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
from norminfer import tensor as tensor_module, training
from norminfer.model import ModelParameters, forward_batch, make_batch
from norminfer.tensor import GradTape, RowGrad, Tensor, add, parameter, softmax
from norminfer.training import (
    AdamOptimizer,
    TrainConfig,
    Trainer,
    clip_gradients,
    count_clamped,
    lr_at,
    make_batches,
    nll_loss,
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
    w.grad = gradient
    clip_gradients([("w", w)], bound)
    return w.grad


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
            clip_gradients([], 0.0)

    def test_row_gradient_is_clamped_in_its_values(self):
        w = parameter(np.zeros((6, 2)), dtype=np.float64)
        values = np.array([[3.0, -0.5], [-2.0, 0.25]])
        w.grad = RowGrad(np.array([1, 4]), values, w.shape)
        clip_gradients([("w", w)], 1.0)
        assert w.grad.values is values  # in place
        np.testing.assert_array_equal(values, [[1.0, -0.5], [-1.0, 0.25]])
        values[1, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            clip_gradients([("w", w)], 1.0)
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            AdamOptimizer([("w", w)]).step(0.1)
        assert not w.data.any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises_before_the_clamp(self, bad):
        w = parameter(np.array([1.0, 2.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)])
        w.grad = np.array([bad, 0.5])
        with pytest.raises(NumericError, match="non-finite gradient in w"):
            clip_gradients([("w", w)], 1.0)
            opt.step(0.1)
        np.testing.assert_array_equal(w.data, [1.0, 2.0])


class TestAdam:
    def test_scalar_quadratic_matches_hand_recurrence(self):
        w = parameter(np.array([1.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)])
        for expected in ADAM_QUADRATIC_TRACE:
            w.grad = 2.0 * w.data
            opt.step(0.1)
            np.testing.assert_allclose(w.data[0], expected, rtol=0, atol=1e-12)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        w = parameter(np.array([0.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)])
        lr = 0.01
        for _ in range(100):
            before = w.data.copy()
            w.grad = np.array([0.3])
            opt.step(lr)
            delta = w.data - before
            assert delta[0] < 0  # moves against the gradient
            assert abs(abs(delta[0]) - lr) < lr * 1e-6

    def test_state_mirrors_parameter_shapes_and_step_counts(self):
        params = build_toy_params(build_toy_config(vocab_words=8))
        opt = AdamOptimizer(params.named_tensors())
        for name, tensor in params.named_tensors():
            assert opt.m[name].shape == tensor.shape
            assert opt.v[name].shape == tensor.shape
        assert opt.step_count == 0
        for name, tensor in params.named_tensors():
            tensor.grad = np.zeros_like(tensor.data)
        opt.step(1e-3)
        assert opt.step_count == 1

    def test_gradients_cleared_after_step(self):
        w = parameter(np.array([1.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)])
        w.grad = np.array([1.0])
        opt.step(0.1)
        assert w.grad is None

    def test_non_finite_gradient_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            w = parameter(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
            opt = AdamOptimizer([("w", w)])
            w.grad = np.array([0.5, bad, -0.5])
            with pytest.raises(NumericError, match="non-finite gradient in w"):
                opt.step(0.1)
            np.testing.assert_array_equal(w.data, [1.0, 2.0, 3.0])

    def test_non_finite_gradient_leaves_every_tensor_unchanged(self):
        """A NaN in the second tensor stops the step before the first one
        moves: weights, gradients and the step count stay as they were, and
        the next finite step is the reference's first step."""
        a = parameter(np.array([1.0]), dtype=np.float64)
        b = parameter(np.array([2.0]), dtype=np.float64)
        opt = AdamOptimizer([("a", a), ("b", b)])
        a.grad, b.grad = np.array([1.0]), np.array([np.nan])
        with pytest.raises(NumericError, match="non-finite gradient in b"):
            opt.step(0.1)
        assert a.data[0] == 1.0 and b.data[0] == 2.0 and opt.step_count == 0
        assert a.grad[0] == 1.0 and np.isnan(b.grad[0])
        b.grad = np.array([-0.5])
        opt.step(0.1)
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
        opt = AdamOptimizer([(f"p{i}", t) for i, t in enumerate(tensors)])
        for step_grads in grads:
            for t, g in zip(tensors, step_grads):
                t.grad = g.copy()
            opt.step(0.01)
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
        dense_opt, hinted_opt = AdamOptimizer([("e", dense)]), AdamOptimizer([("e", hinted)])
        seen = set()
        for rows in hints:
            g = np.zeros(start.shape, dtype=dtype)
            g[rows] = rng.normal(size=(len(rows), 5))
            read = np.unique(np.array(rows, dtype=np.int64))
            dense.grad, hinted.grad = g, RowGrad(read, g[read], g.shape)
            dense_opt.step(0.01)
            hinted_opt.step(0.01)
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
        opt = AdamOptimizer(named)
        leaf_grad, handed = tensor_module._leaf_grad, []

        def spy(grad, held):
            handed.append(grad)
            return leaf_grad(grad, held)

        monkeypatch.setattr(tensor_module, "_leaf_grad", spy)
        for _ in range(5):
            handed.clear()
            with GradTape() as tape:
                tape.backward(dot_with(add(a, b), np.ones(3)))
            # the add hands both leaves one array of ones, which backward
            # must not leave shared; the bound of 0.5 makes the clamp
            # write into each
            assert len(handed) == 2 and handed[0] is handed[1]
            clip_gradients(named, 0.5)
            opt.step(0.01)
        halves = [np.full(3, 0.5), np.full(3, 0.5)]
        for t, expected in zip((a, b), reference_adam(start, [halves] * 5, 0.01, 5)):
            np.testing.assert_allclose(t.data, expected, rtol=1e-12, atol=0)

    def test_parameters_without_gradient_skipped(self):
        w = parameter(np.array([1.0]), dtype=np.float64)
        opt = AdamOptimizer([("w", w)])
        opt.step(0.1)
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
        probs = Tensor(np.full((1, 3), 1.0 / 3.0), dtype=np.float64)
        loss = nll_loss(probs, np.array([0]))
        assert abs(loss.item() - LN3) < 1e-9

    def test_uniform_two_class_gives_ln2(self):
        probs = Tensor(np.full((1, 2), 0.5), dtype=np.float64)
        assert abs(nll_loss(probs, np.array([1])).item() - LN2) < 1e-9

    def test_certain_correct_prediction_gives_zero(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0]]), dtype=np.float64)
        assert nll_loss(probs, np.array([0])).item() == 0.0

    def test_zero_gold_probability_stays_finite(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0]]), dtype=np.float64)
        loss = nll_loss(probs, np.array([1]))
        assert math.isfinite(loss.item())
        np.testing.assert_allclose(loss.item(), -math.log(1e-12), rtol=1e-12)
        assert count_clamped(probs, np.array([1])) == 1
        assert count_clamped(probs, np.array([0])) == 0

    def test_batch_mean(self):
        probs = Tensor(
            np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]), dtype=np.float64
        )
        loss = nll_loss(probs, np.array([0, 2]))
        assert abs(loss.item() - LN3 / 2) < 1e-9

    def test_validation(self):
        probs = Tensor(np.full((2, 3), 1 / 3), dtype=np.float64)
        with pytest.raises(ContractError):
            nll_loss(probs, np.array([0]))
        with pytest.raises(ContractError):
            nll_loss(probs, np.array([0, 3]))

    @pytest.mark.parametrize("gold", [np.array([0.0, 1.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_gold_must_be_integers(self, gold):
        probs = Tensor(np.full((2, 3), 1 / 3), dtype=np.float64)
        with pytest.raises(ContractError, match="integers"):
            nll_loss(probs, gold)
        with pytest.raises(ContractError, match="integers"):
            count_clamped(probs, gold)

    def test_one_tape_record(self):
        probs = parameter(np.full((4, 3), 1 / 3), dtype=np.float64)
        with GradTape() as tape:
            loss = nll_loss(probs, np.array([0, 2, 1, 2]))
        assert len(tape) == 1 and loss.requires_grad

    def test_gradient_matches_finite_differences(self):
        """float64, repeated gold classes, and one gold entry the floor
        binds across the whole difference step: its gradient is exactly 0."""
        rng = np.random.default_rng(151)
        gold = np.array([2, 0, 2, 2, 1])
        probs = parameter(rng.uniform(0.05, 1.0, size=(5, 3)), dtype=np.float64)
        probs.data[3, 2] = -0.5
        with GradTape() as tape:
            tape.backward(nll_loss(probs, gold))

        def f():
            picked = probs.data[np.arange(5), gold]
            return float(-np.mean(np.log(np.maximum(picked, 1e-12))))

        assert probs.grad[3, 2] == 0.0
        assert max_rel_err(probs.grad, numeric_grad(f, probs.data)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 16, 17, 64])
    def test_bytes_equal_the_chain_of_steps(self, batch, dtype):
        """Value and gradient are the bits of pick, floor, log, mean and
        negate applied in turn, with one entry below the floor."""
        rng = np.random.default_rng(batch)
        gold = rng.integers(0, 3, size=batch)
        data = softmax(Tensor(rng.normal(scale=2.0, size=(batch, 3)).astype(dtype))).data
        data[batch // 2, gold[batch // 2]] = 1e-13
        probs = parameter(data, dtype=dtype)
        with GradTape() as tape:
            loss = nll_loss(probs, gold)
            tape.backward(loss)
        want_value, want_grad = reference_nll(data, gold)
        for got, want in ((loss.data, want_value), (probs.grad, want_grad)):
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
        probs = [forward_batch(make_batch([p]), params).data[0] for p in pairs]
        want_loss = np.mean([-math.log(p[q.label_id]) for p, q in zip(probs, pairs)])
        want_accuracy = np.mean([p.argmax() == q.label_id for p, q in zip(probs, pairs)])
        loss, accuracy = Trainer(cfg()).evaluate(
            params, make_batches(pairs, cfg(batch_size=4), epoch_seed=0)
        )
        assert loss == pytest.approx(want_loss, rel=1e-5)
        assert accuracy == want_accuracy

    def test_unlabeled_batch_rejected(self):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config)
        batch = make_batch([build_random_pair(np.random.default_rng(0), config, t=4)])
        with pytest.raises(ContractError, match="labels"):
            Trainer(cfg()).evaluate(params, [batch])

    def test_no_examples_rejected(self):
        params = build_toy_params(build_toy_config(vocab_words=10))
        with pytest.raises(ContractError, match="at least one"):
            Trainer(cfg()).evaluate(params, [])


class FixedTraceTrainer(Trainer):
    """Trainer whose validation accuracy follows a scripted sequence."""

    def __init__(self, config, trace):
        super().__init__(config)
        self.trace = trace
        self.head_snapshots = {}
        self.snapshots = {}

    def evaluate(self, params, batches):
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

        def densify_then_clip(named, bound):
            for _, tensor in named:
                tensor.grad = dense_grad(tensor)
            clip(named, bound)

        monkeypatch.setattr(training, "clip_gradients", densify_then_clip)
        assert run()[0] == hinted

    @pytest.mark.parametrize("share", [training.SPARSE_ROW_SHARE, 0.0], ids=["live", "tiles"])
    def test_a_step_allocates_nothing_table_sized(self, monkeypatch, share):
        """Backward, clip and Adam, live-row path or dense tiles, each
        allocate well under a quarter of the embedding table."""
        monkeypatch.setattr(training, "SPARSE_ROW_SHARE", share)
        monkeypatch.setattr("norminfer.tensor.TILE_ELEMENTS", 1 << 12)
        config = build_toy_config(vocab_words=60_000, n_blocks=1, d_model=8)
        params = build_toy_params(config, seed=3)
        named = list(params.named_tensors())
        optimizer = AdamOptimizer(named)
        rng = np.random.default_rng(5)
        batch = make_batch([build_random_pair(rng, config, t=n, label_id=0) for n in (7, 12)])
        table_bytes = params.embedding.data.nbytes
        for _ in range(2):
            with GradTape() as tape:
                loss = nll_loss(forward_batch(batch, params), batch.labels)
                peaks = []
                tracemalloc.start()
                try:
                    for run in (lambda: tape.backward(loss),
                                lambda: clip_gradients(named, 1.0),
                                lambda: optimizer.step(1e-3)):
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
        opt = AdamOptimizer(named)
        losses = []
        for _ in range(50):
            with GradTape() as tape:
                probs = forward_batch(batch, params)
                loss = nll_loss(probs, batch.labels)
                tape.backward(loss)
            clip_gradients(named, 1.0)
            opt.step(1e-3)
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
