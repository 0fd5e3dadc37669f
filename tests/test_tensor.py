import numpy as np
import pytest
from helpers import max_rel_err, numeric_grad

from norminfer.base import ContractError, ShapeError
from norminfer import tensor as T
from norminfer.tensor import (
    CausalMask,
    GradTape,
    Tensor,
    add,
    clamp_min,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    log,
    masked_fill,
    matmul,
    mean,
    mul,
    neg,
    parameter,
    reshape,
    scale,
    softmax,
    take_rows,
    total,
    transpose,
)

# Frozen float64 oracle values, computed independently of the implementation.
SOFTMAX_123 = np.array([0.09003057317038046, 0.24472847105479764, 0.6652409557748218])
GELU_AT_1 = 0.8411919906082768


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_hand_arithmetic(self):
        out = matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_associativity_on_exact_integers(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = t64(rng.integers(-4, 5, size=(3, 4)).astype(np.float64))
            b = t64(rng.integers(-4, 5, size=(4, 2)).astype(np.float64))
            c = t64(rng.integers(-4, 5, size=(2, 5)).astype(np.float64))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.array_equal(left, right)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(t64(np.ones((2, 3))), t64(np.ones((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        out = matmul(t64(a), t64(b)).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(out[i, j], a[i, j] @ b[i, j], rtol=1e-12)

    def test_gradients_dense_and_batched(self):
        rng = np.random.default_rng(11)
        for sa, sb in [
            ((3, 4), (4, 2)),
            ((2, 3, 4), (2, 4, 5)),
            ((2, 3, 4), (4, 5)),
            ((2, 3, 4, 5), (5, 6)),
        ]:
            a = parameter(rng.normal(size=sa), dtype=np.float64)
            b = parameter(rng.normal(size=sb), dtype=np.float64)
            with GradTape() as tape:
                loss = mean(matmul(a, b))
                tape.backward(loss)

            def f():
                return float(np.mean(a.data @ b.data))

            assert max_rel_err(a.grad, numeric_grad(f, a.data)) < 1e-6
            assert max_rel_err(b.grad, numeric_grad(f, b.data)) < 1e-6


class TestSoftmax:
    def test_frozen_values(self):
        out = softmax(t64([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, SOFTMAX_123, rtol=0, atol=1e-12)

    def test_constant_row_is_exactly_uniform(self):
        out = softmax(Tensor(np.zeros(3, dtype=np.float32)))
        third = np.float32(1.0) / np.float32(3.0)
        assert np.array_equal(out.data, np.full(3, third, dtype=np.float32))

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(scale=10.0, size=(4, 7))
            out = softmax(t64(x)).data
            assert np.all(out >= 0.0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_shift_invariance_stability(self):
        x = t64([1000.0, 1001.0, 1002.0])
        out = softmax(x).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, SOFTMAX_123, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(13)
        x = parameter(rng.normal(size=(3, 5)), dtype=np.float64)
        w = rng.normal(size=(3, 5))
        with GradTape() as tape:
            loss = total(mul(softmax(x), Tensor(w, dtype=np.float64)))
            tape.backward(loss)

        def f():
            d = x.data
            e = np.exp(d - d.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            return float((p * w).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-6


class TestGelu:
    def test_closed_forms(self):
        assert gelu(t64([0.0])).data[0] == 0.0
        np.testing.assert_allclose(gelu(t64([1.0])).data[0], GELU_AT_1, atol=1e-12)
        assert abs(gelu(t64([-10.0])).data[0]) < 1e-5

    def test_gradient(self):
        rng = np.random.default_rng(17)
        x = parameter(rng.normal(scale=2.0, size=(11,)), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(gelu(x)))

        def f():
            d = x.data
            u = np.sqrt(2.0 / np.pi) * (d + 0.044715 * d**3)
            return float((0.5 * d * (1.0 + np.tanh(u))).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-5


class TestLayerNorm:
    def test_two_point_row(self):
        out = layer_norm(t64([[1.0, 3.0]]), t64([1.0, 1.0]), t64([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_gain_and_bias_applied(self):
        out = layer_norm(t64([[1.0, 3.0]]), t64([2.0, 2.0]), t64([5.0, 5.0]))
        np.testing.assert_allclose(out.data, [[3.0, 7.0]], atol=1e-4)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(19)
        x = t64(rng.normal(loc=3.0, scale=2.0, size=(6, 16)))
        ones, zeros = t64(np.ones(16)), t64(np.zeros(16))
        out = layer_norm(x, ones, zeros).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_gain_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.ones((2, 4))), t64(np.ones(3)), t64(np.zeros(4)))

    def test_gradients(self):
        rng = np.random.default_rng(23)
        x = parameter(rng.normal(size=(3, 8)), dtype=np.float64)
        gain = parameter(rng.normal(size=(8,)), dtype=np.float64)
        bias = parameter(rng.normal(size=(8,)), dtype=np.float64)
        w = rng.normal(size=(3, 8))
        with GradTape() as tape:
            out = layer_norm(x, gain, bias)
            tape.backward(total(mul(out, Tensor(w, dtype=np.float64))))

        def f():
            mu = x.data.mean(axis=-1, keepdims=True)
            c = x.data - mu
            v = (c * c).mean(axis=-1, keepdims=True)
            xh = c / np.sqrt(v + 1e-5)
            return float(((gain.data * xh + bias.data) * w).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-5
        assert max_rel_err(gain.grad, numeric_grad(f, gain.data)) < 1e-6
        assert max_rel_err(bias.grad, numeric_grad(f, bias.data)) < 1e-6


class TestCausalMask:
    def test_fill_is_most_negative_finite(self):
        scores = Tensor(np.zeros((3, 3), dtype=np.float32))
        out = masked_fill(scores, CausalMask(3)).data
        fill = np.finfo(np.float32).min
        for i in range(3):
            for j in range(3):
                assert out[i, j] == (0.0 if j <= i else fill)

    def test_softmax_after_mask_zeroes_future_exactly(self):
        rng = np.random.default_rng(29)
        scores = t64(rng.normal(size=(2, 5, 5)))
        w = softmax(masked_fill(scores, CausalMask(5))).data
        for i in range(5):
            assert np.all(w[:, i, i + 1 :] == 0.0)
            np.testing.assert_allclose(w[:, i, : i + 1].sum(axis=-1), 1.0, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            masked_fill(t64(np.zeros((3, 4))), CausalMask(4))

    def test_gradient_blocked_on_masked_positions(self):
        x = parameter(np.zeros((3, 3)), dtype=np.float64)
        # summing the huge finite fill values overflows harmlessly
        with np.errstate(over="ignore"), GradTape() as tape:
            tape.backward(total(masked_fill(x, CausalMask(3))))
        assert np.array_equal(x.grad, np.tril(np.ones((3, 3))))


class TestEmbeddingAndRowSelection:
    def test_lookup_rows(self):
        table = t64([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = embedding_lookup(table, np.array([[2, 0], [1, 1]]))
        assert out.shape == (2, 2, 2)
        assert out.data[0, 0].tolist() == [4.0, 5.0]

    def test_repeated_ids_accumulate_gradient(self):
        table = parameter(np.zeros((4, 2)), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(embedding_lookup(table, np.array([1, 1, 3]))))
        np.testing.assert_array_equal(
            table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]]
        )

        rng = np.random.default_rng(17)
        table = parameter(rng.normal(size=(6, 3)), dtype=np.float64)
        ids = np.array([[4, 1, 4, 0], [1, 1, 5, 4]])
        w = rng.normal(size=ids.shape + (3,))
        with GradTape() as tape:
            tape.backward(total(mul(embedding_lookup(table, ids), t64(w))))
        expected = np.zeros((6, 3))
        np.add.at(expected, ids, w)
        np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=0)

    def test_several_id_sets_sum_rows_and_share_one_gradient(self):
        rng = np.random.default_rng(19)
        table = parameter(rng.normal(size=(7, 3)), dtype=np.float64)
        words = np.array([[2, 0, 2], [5, 2, 0]])
        positions = np.array([[4, 5, 6], [4, 5, 6]])
        w = rng.normal(size=words.shape + (3,))
        with GradTape() as tape:
            out = embedding_lookup(table, words, positions)
            assert len(tape) == 1
            tape.backward(total(mul(out, t64(w))))
        assert np.array_equal(out.data, table.data[words] + table.data[positions])
        expected = np.zeros((7, 3))
        np.add.at(expected, words, w)
        np.add.at(expected, positions, w)
        np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=0)

    def test_id_sets_must_share_a_shape(self):
        with pytest.raises(ShapeError):
            embedding_lookup(t64(np.zeros((3, 2))), np.array([0, 1]), np.array([0]))

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ContractError):
            embedding_lookup(t64(np.zeros((3, 2))), np.array([3]))

    def test_take_rows_forward_and_backward(self):
        x = parameter(np.arange(12, dtype=np.float64).reshape(3, 4))
        idx = np.array([1, 0, 3])
        with GradTape() as tape:
            out = take_rows(x, idx)
            tape.backward(total(out))
        assert out.data.tolist() == [1.0, 4.0, 11.0]
        expected = np.zeros((3, 4))
        expected[np.arange(3), idx] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_take_rows_batch_of_rows(self):
        x = t64(np.arange(24).reshape(2, 3, 4))
        out = take_rows(x, np.array([2, 0]))
        assert out.shape == (2, 4)
        assert out.data[0].tolist() == [8.0, 9.0, 10.0, 11.0]

    def test_take_rows_index_out_of_range(self):
        with pytest.raises(ContractError):
            take_rows(t64(np.zeros((2, 3))), np.array([0, 3]))


class TestElementwiseAndReductions:
    def test_bias_broadcast_gradient_sums_leading_axes(self):
        x = parameter(np.ones((2, 3, 4)), dtype=np.float64)
        b = parameter(np.zeros(4), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(add(x, b)))
        np.testing.assert_array_equal(b.grad, np.full(4, 6.0))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_clamp_min_gates_gradient(self):
        x = parameter(np.array([0.5, 1e-15]), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(log(clamp_min(x, 1e-12))))
        np.testing.assert_allclose(x.grad, [2.0, 0.0])

    def test_mean_and_total(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        assert mean(x).item() == 2.5
        assert total(x).item() == 10.0

    def test_scale_and_neg(self):
        x = parameter(np.array([2.0, -4.0]), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(neg(scale(x, 0.5))))
        np.testing.assert_allclose(x.grad, [-0.5, -0.5])

    def test_reshape_transpose_roundtrip_gradient(self):
        x = parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        w = np.arange(6, dtype=np.float64).reshape(3, 2) * 0.1
        with GradTape() as tape:
            y = transpose(reshape(x, (2, 3)), (1, 0))
            tape.backward(total(mul(y, Tensor(w, dtype=np.float64))))
        np.testing.assert_allclose(x.grad, w.T)

    def test_mixed_dtypes_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(ContractError):
            add(a, b)


class TestTapeMechanics:
    def test_fanout_accumulates_additively(self):
        x = parameter(np.array([3.0]), dtype=np.float64)
        with GradTape() as tape:
            y = add(mul(x, x), x)
            tape.backward(total(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_each_record_visited_once(self):
        x = parameter(np.array([2.0]), dtype=np.float64)
        with GradTape() as tape:
            y = mul(x, x)
            z = add(y, y)
            loss = total(z)
            n_records = len(tape)
            tape.backward(loss)
        assert n_records == 3
        np.testing.assert_allclose(x.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3), dtype=np.float64)
        with GradTape() as tape:
            y = mul(x, x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_backward_without_tape_rejected(self):
        with pytest.raises(ContractError):
            T.backward(Tensor(np.array(1.0)))

    def test_no_recording_without_tape(self):
        x = parameter(np.ones(3), dtype=np.float64)
        y = mul(x, x)
        assert y.requires_grad
        tape = GradTape()
        assert len(tape) == 0

    def test_leaf_gradients_are_writeable_and_unshared(self):
        a = parameter(np.array([1.0, 2.0]), dtype=np.float64)
        b = parameter(np.array([3.0, 4.0]), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(add(a, b)))
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        a.grad *= 2.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_constants_receive_no_gradient(self):
        x = parameter(np.ones(2), dtype=np.float64)
        c = Tensor(np.full(2, 3.0), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(total(mul(x, c)))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [3.0, 3.0])


class TestDropout:
    def test_zero_probability_is_identity(self):
        x = t64([1.0, 2.0])
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_survivors_rescaled_and_gradient_matches_mask(self):
        rng = np.random.default_rng(31)
        x = parameter(np.ones(1000), dtype=np.float64)
        with GradTape() as tape:
            out = dropout(x, 0.25, rng)
            tape.backward(total(out))
        kept = out.data != 0.0
        assert 0.6 < kept.mean() < 0.9
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.75)
        np.testing.assert_allclose(x.grad[~kept], 0.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ContractError):
            dropout(t64([1.0]), 1.0, np.random.default_rng(0))


class TestFiniteDifferenceSweep:
    """Every differentiable primitive against the central-difference oracle."""

    def test_composite_chain(self):
        rng = np.random.default_rng(37)
        x = parameter(rng.normal(size=(4, 6)), dtype=np.float64)
        w = parameter(rng.normal(size=(6, 3)), dtype=np.float64)
        b = parameter(rng.normal(size=(3,)), dtype=np.float64)
        gain = parameter(np.ones(3), dtype=np.float64)
        bias = parameter(np.zeros(3), dtype=np.float64)
        sel = np.array([2, 0, 1, 1])

        def forward_value():
            h = np.log(
                np.maximum(
                    _softmax_np(_ln_np(gelu_np(x.data @ w.data + b.data), gain.data, bias.data)),
                    1e-12,
                )
            )
            return float(-np.mean(h[np.arange(4), sel]))

        with GradTape() as tape:
            h = layer_norm(gelu(add(matmul(x, w), b)), gain, bias)
            p = softmax(h)
            picked = take_rows(p, sel)
            loss = neg(mean(log(clamp_min(picked, 1e-12))))
            tape.backward(loss)

        assert abs(loss.item() - forward_value()) < 1e-12
        for t in (x, w, b, gain, bias):
            assert max_rel_err(t.grad, numeric_grad(forward_value, t.data)) < 1e-5


def gelu_np(d):
    u = np.sqrt(2.0 / np.pi) * (d + 0.044715 * d**3)
    return 0.5 * d * (1.0 + np.tanh(u))


def _ln_np(d, gain, bias):
    mu = d.mean(axis=-1, keepdims=True)
    c = d - mu
    v = (c * c).mean(axis=-1, keepdims=True)
    return gain * (c / np.sqrt(v + 1e-5)) + bias


def _softmax_np(d):
    e = np.exp(d - d.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
