import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import (
    dot_with,
    max_rel_err,
    numeric_grad,
    reference_ffn,
    reference_gelu,
    reference_layer_norm,
    reference_packed_attention,
)

from norminfer.base import ContractError, ShapeError
from norminfer import tensor as T
from norminfer.training import nll_loss
from norminfer.tensor import (
    GradTape,
    RowGrad,
    Tensor,
    add,
    causal_attention,
    dropout,
    embedding_lookup,
    feed_forward,
    layer_norm,
    matmul,
    parameter,
    softmax,
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

    @pytest.mark.parametrize("sb", [(2, 4, 5), (4,)], ids=str)
    def test_b_must_be_two_dimensional(self, sb):
        with pytest.raises(ShapeError, match="matmul needs"):
            matmul(t64(np.ones((2, 3, 4))), t64(np.ones(sb)))

    def test_gradients_dense_and_batched(self):
        rng = np.random.default_rng(11)
        for sa, sb in [
            ((3, 4), (4, 2)),
            ((2, 3, 4), (4, 5)),
            ((2, 3, 4, 5), (5, 6)),
        ]:
            a = parameter(rng.normal(size=sa), dtype=np.float64)
            b = parameter(rng.normal(size=sb), dtype=np.float64)
            with GradTape() as tape:
                out = matmul(a, b)
                tape.backward(dot_with(out, np.full(out.shape, 1.0 / out.data.size)))

            def f():
                return float(np.mean(a.data @ b.data))

            assert max_rel_err(a.grad, numeric_grad(f, a.data)) < 1e-6
            assert max_rel_err(b.grad, numeric_grad(f, b.data)) < 1e-6

    @pytest.mark.parametrize("sa,sb", [((1, 0), (0, 1)), ((2, 3, 0), (0, 4))], ids=str)
    def test_inner_dimension_zero_gives_zeros(self, sa, sb):
        a = parameter(np.zeros(sa), dtype=np.float64)
        b = parameter(np.zeros(sb), dtype=np.float64)
        with GradTape() as tape:
            out = matmul(a, b)
            assert out.data.tobytes() == (a.data @ b.data).tobytes()
            assert out.shape == sa[:-1] + sb[1:] and not out.data.any()
            tape.backward(dot_with(out, np.ones(out.shape)))
        assert a.grad.shape == sa and b.grad.shape == sb
        assert a.grad.dtype == b.grad.dtype == np.float64


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
            tape.backward(dot_with(softmax(x), w))

        def f():
            d = x.data
            e = np.exp(d - d.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            return float((p * w).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-6


def gelu_and_slope(x):
    """(gelu(x), its local slope) from ``tensor._gelu_rows`` on a copy of x."""
    slope, t, out = np.array(x), np.empty_like(x), np.empty_like(x)
    T._gelu_rows(slope, t, out, (np.empty_like(x), np.empty_like(x)))
    return out, slope


class TestGelu:
    """The in-place gelu kernel ``feed_forward`` runs on its hidden rows."""

    def test_closed_forms(self):
        assert gelu_and_slope(np.array([0.0]))[0][0] == 0.0
        np.testing.assert_allclose(gelu_and_slope(np.array([1.0]))[0][0], GELU_AT_1, atol=1e-12)
        assert abs(gelu_and_slope(np.array([-10.0]))[0][0]) < 1e-5

    def test_gradient(self):
        rng = np.random.default_rng(17)
        x = rng.normal(scale=2.0, size=(11,))
        _, slope = gelu_and_slope(x)

        def f():
            return float(gelu_np(x).sum())

        assert max_rel_err(slope, numeric_grad(f, x)) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (7,), (6, 960)], ids=str)
    def test_bytes_equal_formulas(self, shape, dtype):
        """The in-place output and slope give the bits of the formulas."""
        rng = np.random.default_rng(29)
        x = np.asarray(rng.normal(scale=3.0, size=shape), dtype=dtype)
        if x.size > 6:
            x.flat[:6] = [0.0, -0.0, 1e-40, 30.0, -30.0, 1e3]
        for got, want in zip(gelu_and_slope(x), reference_gelu(x, np.ones_like(x))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def ffn_arrays(rng, n, dtype, d=8, f=32):
    shapes = [(n, d), (d, f), (f,), (f, d), (d,)]
    scales = [1.0, 0.3, 0.5, 0.3, 0.5]
    return [(s * rng.normal(size=shape)).astype(dtype) for s, shape in zip(scales, shapes)]


def ffn_run(arrays, upstream):
    """(output, input gradients) of ``feed_forward`` under a tape, for the
    output gradient ``upstream``."""
    inputs = [parameter(a.copy(), dtype=a.dtype) for a in arrays]
    with GradTape() as tape:
        out = feed_forward(*inputs)
        tape.backward(dot_with(out, upstream))
    return out.data, [t.grad for t in inputs]


class TestFeedForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_tile_bytes_equal_composition(self, dtype):
        rng = np.random.default_rng(41)
        arrays = ffn_arrays(rng, 37, dtype)
        upstream = rng.normal(size=(37, 8)).astype(dtype)
        want, want_grads = reference_ffn(*arrays, upstream)
        got, grads = ffn_run(arrays, upstream)
        untaped = feed_forward(*(Tensor(a) for a in arrays)).data
        for a, b in zip([got, untaped] + grads, [want, want] + want_grads):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # no leaf gradient copy hides a read-only array from the pull
        assert all(g.flags.writeable for g in grads)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("n", [7, 8, 9, 29], ids=["tile-1", "tile", "tile+1", "3tile+5"])
    def test_tile_boundaries_match_composition(self, monkeypatch, dtype, tol, n):
        monkeypatch.setattr(T, "TILE_ELEMENTS", 8 * 32)  # 8 rows of the width 32
        rng = np.random.default_rng(43)
        arrays = ffn_arrays(rng, n, dtype)
        upstream = rng.normal(size=(n, 8)).astype(dtype)
        want, want_grads = reference_ffn(*arrays, upstream)
        got, grads = ffn_run(arrays, upstream)
        untaped = feed_forward(*(Tensor(a) for a in arrays)).data
        for a, b in zip([got, untaped] + grads, [want, want] + want_grads):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(47)
        arrays = ffn_arrays(rng, 5, np.float64, d=3, f=4)
        x, w1, b1, w2, b2 = inputs = [parameter(a, dtype=np.float64) for a in arrays]
        upstream = rng.normal(size=(5, 3))
        with GradTape() as tape:
            tape.backward(dot_with(feed_forward(*inputs), upstream))

        def f():
            return float((upstream * (gelu_np(x.data @ w1.data + b1.data) @ w2.data
                                      + b2.data)).sum())

        for t in inputs:
            assert max_rel_err(t.grad, numeric_grad(f, t.data)) < 1e-5

    def test_memory_untaped_in_tiles_taped_two_activations(self, monkeypatch):
        tile, f = 64, 256
        n = 16 * tile
        monkeypatch.setattr(T, "TILE_ELEMENTS", tile * f)
        arrays = ffn_arrays(np.random.default_rng(53), n, np.float64, d=64, f=f)
        inputs = [parameter(a, dtype=np.float64) for a in arrays]
        activation = n * f * 8  # bytes of one (N, d_ffn) float64 array

        def held(fn):
            """(peak, still held) bytes allocated by one call of fn."""
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*inputs)  # noqa: F841  keeps the output alive
            now, peak = tracemalloc.get_traced_memory()
            return peak - base, now - base

        tracemalloc.start()
        try:
            untaped_peak, _ = held(feed_forward)
            with GradTape():
                _, taped_kept = held(feed_forward)
        finally:
            tracemalloc.stop()
        assert untaped_peak < activation / 2
        # the output adds a quarter activation to the two kept arrays
        assert 2 * activation <= taped_kept < 3 * activation

    def test_shapes_checked(self):
        arrays = ffn_arrays(np.random.default_rng(59), 4, np.float64)
        for i, bad in enumerate([np.ones((4, 7)), np.ones((8, 5)), np.ones(5),
                                 np.ones((5, 8)), np.ones(3)]):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(bad)
            with pytest.raises(ShapeError, match="feed_forward"):
                feed_forward(*args)


def zeros64(shape):
    return t64(np.zeros(shape))


class TestLayerNorm:
    def test_two_point_row(self):
        out = layer_norm(t64([[1.0, 3.0]]), zeros64((1, 2)), t64([1.0, 1.0]), t64([0.0, 0.0]), 1e-5)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_gain_and_bias_applied(self):
        out = layer_norm(t64([[1.0, 3.0]]), zeros64((1, 2)), t64([2.0, 2.0]), t64([5.0, 5.0]), 1e-5)
        np.testing.assert_allclose(out.data, [[3.0, 7.0]], atol=1e-4)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(19)
        x = t64(rng.normal(loc=3.0, scale=2.0, size=(6, 16)))
        ones, zeros = t64(np.ones(16)), t64(np.zeros(16))
        out = layer_norm(x, zeros64((6, 16)), ones, zeros, 1e-5).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_gain_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.ones((2, 4))), zeros64((2, 4)), t64(np.ones(3)), t64(np.zeros(4)), 1e-5)

    def test_residual_shape_checked(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.ones((2, 4))), zeros64((4,)), t64(np.ones(4)), t64(np.zeros(4)), 1e-5)

    def test_gradients(self):
        rng = np.random.default_rng(23)
        x = parameter(rng.normal(size=(3, 8)), dtype=np.float64)
        gain = parameter(rng.normal(size=(8,)), dtype=np.float64)
        bias = parameter(rng.normal(size=(8,)), dtype=np.float64)
        w = rng.normal(size=(3, 8))
        residual = parameter(rng.normal(size=(3, 8)), dtype=np.float64)
        with GradTape() as tape:
            out = layer_norm(x, residual, gain, bias, 1e-5)
            tape.backward(dot_with(out, w))

        def f():
            s = x.data + residual.data
            mu = s.mean(axis=-1, keepdims=True)
            c = s - mu
            v = (c * c).mean(axis=-1, keepdims=True)
            xh = c / np.sqrt(v + 1e-5)
            return float(((gain.data * xh + bias.data) * w).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-5
        assert max_rel_err(residual.grad, numeric_grad(f, residual.data)) < 1e-5
        assert max_rel_err(gain.grad, numeric_grad(f, gain.data)) < 1e-6
        assert max_rel_err(bias.grad, numeric_grad(f, bias.data)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8,), (6, 16), (2, 5, 240)], ids=str)
    def test_bytes_equal_formulas(self, shape, dtype):
        """The in-place forward and pull give the bits of the formulas
        applied to ``x + residual``, and both summands get the same
        gradient, in separate memory."""
        rng = np.random.default_rng(31)
        x, gain, bias, residual = (
            parameter(rng.normal(loc=1.0, scale=2.0, size=s).astype(dtype), dtype=dtype)
            for s in (shape, shape[-1:], shape[-1:], shape)
        )
        upstream = rng.normal(size=shape).astype(dtype)
        with GradTape() as tape:
            out = layer_norm(x, residual, gain, bias, 1e-5)
            tape.backward(dot_with(out, upstream))
        want = reference_layer_norm(x.data + residual.data, gain.data, bias.data, 1e-5, upstream)
        for got, w in zip((out.data, x.grad, gain.grad, bias.grad), want):
            assert got.dtype == w.dtype and got.shape == w.shape
            assert got.tobytes() == w.tobytes()
        assert residual.grad.tobytes() == x.grad.tobytes()
        assert not np.shares_memory(residual.grad, x.grad)


class TestCausalMask:
    def test_gradient_blocked_on_masked_positions(self, monkeypatch):
        """With an output gradient on row i alone, the keys and values of
        the rows after i get exactly zero gradient, in one tile and in
        tiles of two rows."""
        n, n_heads, d = 6, 2, 6
        for tile, tiles in ((T.TILE_ELEMENTS, 1), (2 * n_heads * n, 3)):
            monkeypatch.setattr(T, "TILE_ELEMENTS", tile)
            assert len(T.row_tiles(n, n_heads * n)[0]) == tiles + 1
            for dtype in (np.float32, np.float64):
                rng = np.random.default_rng(139)
                qkv, _ = attention_qkv(rng, [n], n_heads, d // n_heads, dtype)
                for i in range(n):
                    upstream = np.zeros((n, d), dtype=dtype)
                    upstream[i] = rng.normal(size=d)
                    _, _, grad = attention_grads(qkv, [n], n_heads, upstream)
                    assert np.any(grad[: i + 1, d:] != 0.0)
                    assert np.all(grad[i + 1 :, d:] == 0.0), (tile, dtype, i)

    def test_cached_masks_are_read_only(self):
        """The drop-matrices are cached for the whole process, so a write
        into one would corrupt every later attention call."""
        with pytest.raises(ValueError):
            T._causal_matrix(5)[0, 4] = False
        assert T._causal_matrix(5) is T._causal_matrix(5)
        assert np.array_equal(T._causal_matrix(5), np.triu(np.ones((5, 5), dtype=bool), 1))


def packed_case(shape):
    """(lengths, n_heads, d_head) for a (T, d), (H, T, d) or (B, H, T, d)
    case: B sequences of T tokens, H heads of width d."""
    *lead, t, d_head = shape
    b, h = ([1, 1] + lead)[-2:]
    return [t] * b, h, d_head


def attention_qkv(rng, lengths, n_heads, d_head, dtype):
    """A packed (N, 3d) qkv leaf and an (N, d) output gradient."""
    n, d = sum(lengths), n_heads * d_head
    qkv = parameter(rng.normal(size=(n, 3 * d)).astype(dtype), dtype=dtype)
    return qkv, rng.normal(size=(n, d)).astype(dtype)


def attention_grads(qkv, lengths, n_heads, upstream):
    qkv.grad = None
    with GradTape() as tape:
        out, weights = causal_attention(qkv, lengths, n_heads, return_weights=True)
        tape.backward(dot_with(out, upstream))
    return out.data, weights, qkv.grad


def assert_bytes_equal_composition(rng, lengths, n_heads, d_head, dtype, copies):
    qkv, upstream = attention_qkv(rng, lengths, n_heads, d_head, dtype)
    out, weights, grad = attention_grads(qkv, lengths, n_heads, upstream)
    want_out, want_weights, want_grad = reference_packed_attention(
        qkv.data, lengths, n_heads, upstream, copies=copies
    )
    for got, want in zip([out, grad, *weights], [want_out, want_grad, *want_weights]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# (shape, heads_view): one sequence with one head, with several heads, and
# several sequences of one length (see packed_case); the composition runs
# on the head views of qkv, or on contiguous copies of them
ATTENTION_CASES = [
    ((5, 3), False),
    ((2, 6, 4), False),
    ((1, 3, 7, 4), False),
    ((3, 2, 9, 5), False),
    ((2, 3, 8, 4), True),
]


class TestCausalAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,heads_view", ATTENTION_CASES, ids=str)
    def test_bytes_equal_composition(self, shape, heads_view, dtype):
        rng = np.random.default_rng(sum(shape))
        assert_bytes_equal_composition(
            rng, *packed_case(shape), dtype, copies=not heads_view
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_lengths_bytes_equal_composition(self, dtype):
        """Sequences of 1, 7 and 130 tokens packed together each give the
        bits of the composition run on that sequence alone."""
        rng = np.random.default_rng(79)
        assert_bytes_equal_composition(rng, [1, 7, 130], 3, 4, dtype, copies=False)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_last_rows_bytes_equal_composition(self, dtype):
        """With only the last row of each sequence querying, the output,
        the (n_heads, 1, L) weights and every gradient are the bits of the
        unmasked composition run on that row of each sequence alone, and
        the rows that did not query get zero query-column gradients."""
        rng = np.random.default_rng(83)
        lengths, d = [1, 7, 130], 12
        qkv, _ = attention_qkv(rng, lengths, 3, 4, dtype)
        upstream = rng.normal(size=(len(lengths), d)).astype(dtype)
        with GradTape() as tape:
            out, weights = causal_attention(qkv, lengths, 3, return_weights=True, last_only=True)
            tape.backward(dot_with(out, upstream))
        want_out, want_weights, want_grad = reference_packed_attention(
            qkv.data, lengths, 3, upstream, last_only=True
        )
        assert [w.shape for w in weights] == [(3, 1, n) for n in lengths]
        for got, want in zip([out.data, qkv.grad, *weights], [want_out, want_grad, *want_weights]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        not_queried = np.ones(sum(lengths), dtype=bool)
        not_queried[np.cumsum(lengths) - 1] = False
        assert np.all(qkv.grad[not_queried, :d] == 0.0)

    @pytest.mark.parametrize("last_only", [False, True], ids=["all-rows", "last-row"])
    def test_weights_kept_or_not_give_the_same_bits(self, last_only):
        """Untaped, without weights, every sequence reuses one buffer; the
        output keeps the bits of the path that keeps each weights array."""
        rng = np.random.default_rng(89)
        lengths = [9, 1, 30, 4]
        qkv, _ = attention_qkv(rng, lengths, 3, 4, np.float32)
        plain = causal_attention(Tensor(qkv.data), lengths, 3, last_only=last_only)
        kept, weights = causal_attention(
            Tensor(qkv.data), lengths, 3, return_weights=True, last_only=last_only
        )
        with GradTape() as tape:
            taped = causal_attention(qkv, lengths, 3, last_only=last_only)
        assert len(tape) == 1 and len(weights) == len(lengths)
        assert plain.data.tobytes() == kept.data.tobytes() == taped.data.tobytes()

    def test_last_row_gradients_match_finite_differences(self):
        rng = np.random.default_rng(97)
        lengths = [1, 4, 3]
        qkv, _ = attention_qkv(rng, lengths, 2, 3, np.float64)
        upstream = rng.normal(size=(3, 6))

        def attend():
            return causal_attention(qkv, lengths, 2, last_only=True)

        with GradTape() as tape:
            tape.backward(dot_with(attend(), upstream))

        def f():
            return float(np.sum(attend().data * upstream))

        # 1.4e-6 is the worst at the default step, and it shrinks with a
        # larger step, so it is rounding in the differences
        assert max_rel_err(qkv.grad, numeric_grad(f, qkv.data)) < 1e-5

    def test_untaped_forward_matches_taped(self):
        rng = np.random.default_rng(67)
        lengths, n_heads, d_head = packed_case((2, 2, 6, 3))
        qkv, _ = attention_qkv(rng, lengths, n_heads, d_head, np.float32)
        plain = causal_attention(Tensor(qkv.data), lengths, n_heads, return_weights=True)
        with GradTape():
            taped = causal_attention(qkv, lengths, n_heads, return_weights=True)
        assert plain[0].data.tobytes() == taped[0].data.tobytes()
        for a, b in zip(plain[1], taped[1]):
            assert a.tobytes() == b.tobytes()
        assert not plain[0].requires_grad and taped[0].requires_grad

    @pytest.mark.parametrize("shape", [(4, 3), (2, 2, 5, 3)], ids=str)
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(71)
        lengths, n_heads, d_head = packed_case(shape)
        qkv, upstream = attention_qkv(rng, lengths, n_heads, d_head, np.float64)
        attention_grads(qkv, lengths, n_heads, upstream)

        def f():
            return float(np.sum(causal_attention(qkv, lengths, n_heads).data * upstream))

        assert max_rel_err(qkv.grad, numeric_grad(f, qkv.data)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_are_causal_rows_summing_to_one(self, dtype):
        rng = np.random.default_rng(73)
        qkv, _ = attention_qkv(rng, [7, 4], 3, 4, dtype)
        _, weights = causal_attention(qkv, [7, 4], 3, return_weights=True)
        atol = 1e-12 if dtype == np.float64 else 1e-6
        for w, n in zip(weights, [7, 4]):
            assert w.shape == (3, n, n) and w.dtype == dtype
            future = np.triu(np.ones((n, n), dtype=bool), 1)
            assert np.all(w[..., future] == 0.0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=atol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_and_inf_inputs_match_the_composition(self, dtype):
        """The row max ignores NaN, where the composition's max takes it;
        either way a score row that holds a NaN ends all-NaN, and the
        output keeps the bits and NaN pattern of the composition."""
        rng = np.random.default_rng(101)
        lengths, d = [6, 5], 6
        qkv, _ = attention_qkv(rng, lengths, 2, 3, dtype)
        data = qkv.data.copy()
        data[2, 0] = np.nan        # a query: its row's visible scores
        data[3, d + 4] = np.nan    # a key: its column from row 3 on
        data[7, 1] = np.inf
        data[9, d + 3] = -np.inf
        data[8, 5] = -np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            out = causal_attention(Tensor(data), lengths, 2)
            want, _, _ = reference_packed_attention(data, lengths, 2, np.zeros((11, d), dtype))
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert out.data.dtype == want.dtype
        np.testing.assert_array_equal(out.data, want)

    def test_lengths_must_cover_the_rows(self):
        qkv = t64(np.zeros((4, 6)))
        for lengths in ([3], [2, 3], [4, 0]):
            with pytest.raises(ShapeError, match="lengths"):
                causal_attention(qkv, lengths, 1)


# At 3 heads, tiles of at most 360 weights are one tile for 9 tokens or
# fewer, two tiles of 6 and 7 rows for 13 tokens and eight tiles of 3 or 4
# rows for 30 tokens.
SMALL_TILE = 360
TILED_LENGTHS = [9, 1, 30, 13]


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(T, "TILE_ELEMENTS", SMALL_TILE)
    assert len(T.row_tiles(30, 3 * 30)[0]) == 9


@pytest.mark.usefixtures("small_tiles")
class TestCausalAttentionTiles:
    """Sequences longer than one tile run in query-row tiles that score only
    the keys their rows can see."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_composition(self, dtype, tol):
        rng = np.random.default_rng(103)
        qkv, upstream = attention_qkv(rng, TILED_LENGTHS, 3, 4, dtype)
        out, weights, grad = attention_grads(qkv, TILED_LENGTHS, 3, upstream)
        want_out, want_weights, want_grad = reference_packed_attention(
            qkv.data, TILED_LENGTHS, 3, upstream
        )
        for got, want in zip([out, grad, *weights], [want_out, want_grad, *want_weights]):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plain_kept_and_taped_give_the_same_bits(self, dtype):
        rng = np.random.default_rng(107)
        qkv, _ = attention_qkv(rng, TILED_LENGTHS, 3, 4, dtype)
        plain = causal_attention(Tensor(qkv.data), TILED_LENGTHS, 3)
        kept, weights = causal_attention(Tensor(qkv.data), TILED_LENGTHS, 3, return_weights=True)
        with GradTape() as tape:
            taped, taped_weights = causal_attention(qkv, TILED_LENGTHS, 3, return_weights=True)
        assert len(tape) == 1
        assert plain.data.tobytes() == kept.data.tobytes() == taped.data.tobytes()
        for a, b in zip(weights, taped_weights):
            assert a.tobytes() == b.tobytes()

    def test_packed_rows_equal_each_sequence_alone(self):
        rng = np.random.default_rng(109)
        qkv, upstream = attention_qkv(rng, TILED_LENGTHS, 3, 4, np.float32)
        out, weights, grad = attention_grads(qkv, TILED_LENGTHS, 3, upstream)
        plain = causal_attention(Tensor(qkv.data), TILED_LENGTHS, 3).data
        start = 0
        for n, w in zip(TILED_LENGTHS, weights):
            rows = slice(start, start + n)
            start += n
            alone = parameter(qkv.data[rows].copy(), dtype=np.float32)
            alone_out, (alone_w,), alone_grad = attention_grads(alone, [n], 3, upstream[rows])
            assert out[rows].tobytes() == plain[rows].tobytes() == alone_out.tobytes()
            assert w.tobytes() == alone_w.tobytes()
            assert grad[rows].tobytes() == alone_grad.tobytes()

    def test_last_row_query_is_one_tile(self):
        rng = np.random.default_rng(113)
        qkv, _ = attention_qkv(rng, TILED_LENGTHS, 3, 4, np.float32)
        out, weights = causal_attention(
            Tensor(qkv.data), TILED_LENGTHS, 3, return_weights=True, last_only=True
        )
        want_out, want_weights, _ = reference_packed_attention(
            qkv.data, TILED_LENGTHS, 3, np.zeros((4, 12), dtype=np.float32), last_only=True
        )
        assert out.data.tobytes() == want_out.tobytes()
        for w, want in zip(weights, want_weights):
            assert w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_are_causal_rows_summing_to_one(self, dtype):
        rng = np.random.default_rng(127)
        qkv, _ = attention_qkv(rng, TILED_LENGTHS, 3, 4, dtype)
        _, weights = causal_attention(Tensor(qkv.data), TILED_LENGTHS, 3, return_weights=True)
        atol = 1e-12 if dtype == np.float64 else 1e-6
        for w, n in zip(weights, TILED_LENGTHS):
            assert w.shape == (3, n, n) and w.dtype == dtype
            future = np.triu(np.ones((n, n), dtype=bool), 1)
            assert np.all(w[..., future] == 0.0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=atol)

    def test_gradients_match_finite_differences(self, monkeypatch):
        # at 2 heads: 5 tokens run in one-row tiles, 3 in tiles of 1 and 2
        monkeypatch.setattr(T, "TILE_ELEMENTS", 12)
        rng = np.random.default_rng(131)
        lengths = [5, 1, 3]
        qkv, upstream = attention_qkv(rng, lengths, 2, 3, np.float64)
        attention_grads(qkv, lengths, 2, upstream)

        def f():
            return float(np.sum(causal_attention(qkv, lengths, 2).data * upstream))

        assert max_rel_err(qkv.grad, numeric_grad(f, qkv.data)) < 1e-6


@pytest.mark.parametrize("tile", [1, 5, 12, 360, T.TILE_ELEMENTS])
def test_row_tiles_are_balanced_and_within_the_tile(monkeypatch, tile):
    """Tiles cover [0, rows) in order, their heights differ by at most one,
    the reported height is the tallest, each tile holds at most
    ``TILE_ELEMENTS`` elements or is a single row, and no fewer tiles would
    do."""
    monkeypatch.setattr(T, "TILE_ELEMENTS", tile)
    rng = np.random.default_rng(149)
    cases = [(0, 3), (1, 1), (7, 0), (360, 240), (30, 90)]
    cases += [tuple(int(v) for v in rng.integers(1, 400, size=2)) for _ in range(40)]
    for rows, row_elements in cases:
        bounds, height = T.row_tiles(rows, row_elements)
        heights = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == rows
        assert height == heights.max()
        assert heights.max() - heights.min() <= 1
        assert rows == 0 or heights.min() >= 1
        assert height == 1 or height * row_elements <= tile, (rows, row_elements)
        per_tile = max(1, tile // max(1, row_elements))
        assert len(heights) == 1 or (len(heights) - 1) * per_tile < rows


def test_untaped_attention_peaks_below_half_a_weights_array():
    """At the default tile size, four 300-token sequences with 12 heads
    never hold one (12, 300, 300) weights array: the tile buffer is reused."""
    h, t, d_head = 12, 300, 4
    rng = np.random.default_rng(137)
    qkv = Tensor(rng.normal(size=(4 * t, 3 * h * d_head)).astype(np.float32))
    one_weights_bytes = h * t * t * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        causal_attention(qkv, [t] * 4, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_weights_bytes / 2, f"peak {peak / one_weights_bytes:.2f} weights arrays"


class TestEmbeddingAndRowSelection:
    def test_lookup_rows(self):
        table = t64([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = embedding_lookup(table, np.array([[2, 0], [1, 1]]))
        assert out.shape == (2, 2, 2)
        assert out.data[0, 0].tolist() == [4.0, 5.0]

    def test_repeated_ids_accumulate_gradient(self):
        table = parameter(np.zeros((4, 2)), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(dot_with(embedding_lookup(table, np.array([1, 1, 3])), np.ones((3, 2))))
        assert table.grad.rows.tolist() == [1, 3]
        np.testing.assert_array_equal(table.grad.values, [[2, 2], [1, 1]])
        np.testing.assert_array_equal(
            table.grad.dense(), [[0, 0], [2, 2], [0, 0], [1, 1]]
        )

        rng = np.random.default_rng(17)
        table = parameter(rng.normal(size=(6, 3)), dtype=np.float64)
        ids = np.array([[4, 1, 4, 0], [1, 1, 5, 4]])
        w = rng.normal(size=ids.shape + (3,))
        with GradTape() as tape:
            tape.backward(dot_with(embedding_lookup(table, ids), w))
        expected = np.zeros((6, 3))
        np.add.at(expected, ids, w)
        np.testing.assert_allclose(table.grad.dense(), expected, rtol=1e-12, atol=0)

    def test_several_id_sets_sum_rows_and_share_one_gradient(self):
        rng = np.random.default_rng(19)
        table = parameter(rng.normal(size=(7, 3)), dtype=np.float64)
        words = np.array([[2, 0, 2], [5, 2, 0]])
        positions = np.array([[4, 5, 6], [4, 5, 6]])
        w = rng.normal(size=words.shape + (3,))
        with GradTape() as tape:
            out = embedding_lookup(table, words, positions)
            assert len(tape) == 1
            tape.backward(dot_with(out, w))
        assert np.array_equal(out.data, table.data[words] + table.data[positions])
        expected = np.zeros((7, 3))
        np.add.at(expected, words, w)
        np.add.at(expected, positions, w)
        np.testing.assert_allclose(table.grad.dense(), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "id_sets",
        [
            [[[7, 2, 7, 7], [0, 2, 2, 9]]],
            [[[7, 2, 7, 0], [5, 2, 0, 0]], [[10, 11, 12, 13], [10, 11, 12, 13]]],
            [np.zeros((0,), dtype=np.int64)],
        ],
        ids=["repeated", "words-and-positions", "empty"],
    )
    def test_row_gradient_has_the_bits_of_a_dense_scatter(self, id_sets):
        """float32, where the order of the sums shows in the bits: each row
        is one numpy segment sum of its gradients in order of occurrence, id
        set by id set, scattered into a table of zeros."""
        rng = np.random.default_rng(23)
        table = parameter(rng.normal(size=(14, 3)), dtype=np.float32)
        id_sets = [np.asarray(i, dtype=np.int64) for i in id_sets]
        w = rng.normal(size=id_sets[0].shape + (3,)).astype(np.float32)
        with GradTape() as tape:
            out = embedding_lookup(table, *id_sets)
            tape.backward(dot_with(out, w))
        flat_ids = np.concatenate([id_set.reshape(-1) for id_set in id_sets])
        flat_w = np.concatenate([w.reshape(-1, 3)] * len(id_sets))
        expected = np.zeros((14, 3), dtype=np.float32)
        for row in np.unique(flat_ids):
            expected[row] = np.add.reduceat(flat_w[flat_ids == row], [0], axis=0)[0]
        summed_at = np.zeros((14, 3))
        for id_set in id_sets:
            np.add.at(summed_at, id_set, w.astype(np.float64))
        np.testing.assert_allclose(expected, summed_at, rtol=1e-5, atol=1e-6)
        grad = table.grad
        assert isinstance(grad, RowGrad) and grad.shape == (14, 3)
        assert grad.rows.tolist() == sorted({int(i) for s in id_sets for i in s.flat})
        assert grad.values.shape == (len(grad.rows), 3) and grad.values.dtype == np.float32
        assert grad.values.tobytes() == expected[grad.rows].tobytes()
        assert grad.dense().tobytes() == expected.tobytes()

    def test_gradient_matches_finite_differences(self):
        """float64, two id sets with repeats, into a leaf table (a RowGrad)
        and into a computed input (a dense gradient)."""
        rng = np.random.default_rng(29)
        table = parameter(rng.normal(size=(6, 3)), dtype=np.float64)
        w = parameter(rng.normal(size=(3, 3)), dtype=np.float64)
        words, positions = np.array([4, 1, 4, 0, 4, 1]), np.array([3, 5, 3, 3, 5, 3])
        up = rng.normal(size=(3, 3))
        rows = np.array([5, 5, 0])

        def out(t, m):
            looked = embedding_lookup(t, words, positions)
            return embedding_lookup(matmul(looked, m), rows)

        def f():
            return float(np.sum(out(Tensor(table.data), Tensor(w.data)).data * up))

        with GradTape() as tape:
            tape.backward(dot_with(out(table, w), up))
        assert isinstance(table.grad, RowGrad) and isinstance(w.grad, np.ndarray)
        assert max_rel_err(table.grad.dense(), numeric_grad(f, table.data)) < 1e-6
        assert max_rel_err(w.grad, numeric_grad(f, w.data)) < 1e-6

    def test_a_leaf_read_twice_ends_with_the_dense_sum(self):
        """A second gradient for the same leaf in one pass (a lookup, or a
        product reading the table, as a tied output head would) is summed
        densely, in pull order, into a writeable array."""
        rng = np.random.default_rng(31)
        table = parameter(rng.normal(size=(5, 4)).astype(np.float32))
        first, second = np.array([3, 0, 3]), np.array([1, 3])
        x = Tensor(rng.normal(size=(2, 5)).astype(np.float32))
        w1, w2, w3 = (rng.normal(size=s).astype(np.float32) for s in ((3, 4), (2, 4), (2, 4)))
        with GradTape() as tape:
            a = embedding_lookup(table, first)
            b = embedding_lookup(table, second)
            c = matmul(x, table)
            loss = add(add(dot_with(a, w1), dot_with(b, w2)), dot_with(c, w3))
            tape.backward(loss)
        by_product = x.data.T @ w3
        by_first, by_second = np.zeros((5, 4), np.float32), np.zeros((5, 4), np.float32)
        np.add.at(by_first, first, w1)
        np.add.at(by_second, second, w2)
        assert isinstance(table.grad, np.ndarray) and table.grad.flags.writeable
        assert table.grad.tobytes() == (by_product + by_second + by_first).tobytes()

    def test_id_sets_must_share_a_shape(self):
        with pytest.raises(ShapeError):
            embedding_lookup(t64(np.zeros((3, 2))), np.array([0, 1]), np.array([0]))

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ContractError):
            embedding_lookup(t64(np.zeros((3, 2))), np.array([3]))

class TestElementwiseAndReductions:
    def test_bias_broadcast_gradient_sums_leading_axes(self):
        x = parameter(np.ones((2, 3, 4)), dtype=np.float64)
        b = parameter(np.zeros(4), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(dot_with(add(x, b), np.ones((2, 3, 4))))
        np.testing.assert_array_equal(b.grad, np.full(4, 6.0))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_mixed_dtypes_rejected(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        with pytest.raises(ContractError):
            add(a, b)


class TestTapeMechanics:
    def test_fanout_accumulates_additively(self):
        x = parameter(np.array([[3.0]]), dtype=np.float64)
        with GradTape() as tape:
            y = add(matmul(x, x), x)
            tape.backward(y)
        np.testing.assert_allclose(x.grad, [[7.0]])

    def test_each_record_visited_once(self):
        x = parameter(np.array([[2.0]]), dtype=np.float64)
        with GradTape() as tape:
            y = matmul(x, x)
            loss = add(y, y)
            n_records = len(tape)
            tape.backward(loss)
        assert n_records == 2
        np.testing.assert_allclose(x.grad, [[8.0]])

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3), dtype=np.float64)
        with GradTape() as tape:
            y = add(x, x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_no_recording_without_tape(self):
        x = parameter(np.ones(3), dtype=np.float64)
        y = add(x, x)
        assert y.requires_grad
        tape = GradTape()
        assert len(tape) == 0

    def test_backward_releases_each_record_once_pulled(self):
        x = parameter(np.linspace(-1.0, 1.0, 6).reshape(2, 3), dtype=np.float64)
        w = parameter(np.ones((3, 4)), dtype=np.float64)
        with GradTape() as tape:
            h = matmul(x, w)
            a = softmax(h)
            loss = dot_with(a, np.ones(a.shape))
            activations = [weakref.ref(h.data), weakref.ref(a.data)]
            del h, a
            n_records = len(tape)
            tape.backward(loss)
            assert all(ref() is None for ref in activations)
            # matmul, softmax and the dot product
            assert len(tape) == n_records == 3
            assert loss.grad is None and x.grad is not None and w.grad is not None
            with pytest.raises(ContractError):
                tape.backward(loss)

    def test_untaped_suspends_open_tapes(self):
        x = parameter(np.ones(3), dtype=np.float64)
        with GradTape() as tape:
            with T.untaped():
                y = add(x, x)
            assert y.requires_grad and len(tape) == 0
            add(x, x)
        assert len(tape) == 1

    def test_leaf_gradients_are_writeable_and_unshared(self):
        a = parameter(np.array([1.0, 2.0]), dtype=np.float64)
        b = parameter(np.array([3.0, 4.0]), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(dot_with(add(a, b), np.ones(2)))
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        a.grad *= 2.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_constants_receive_no_gradient(self):
        x = parameter(np.ones((1, 2)), dtype=np.float64)
        c = Tensor(np.full((2, 1), 3.0), dtype=np.float64)
        with GradTape() as tape:
            tape.backward(matmul(x, c))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [[3.0, 3.0]])


class TestDropout:
    def test_zero_probability_is_identity(self):
        x = t64([1.0, 2.0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert dropout(x, 0.0, rng) is x
        assert rng.bit_generator.state == state

    def test_no_generator_is_identity(self):
        x = t64([1.0, 2.0])
        assert dropout(x, 0.5, None) is x
        assert dropout(x, 0.5) is x

    def test_survivors_rescaled_and_gradient_matches_mask(self):
        rng = np.random.default_rng(31)
        x = parameter(np.ones(1000), dtype=np.float64)
        with GradTape() as tape:
            out = dropout(x, 0.25, rng)
            tape.backward(dot_with(out, np.ones(1000)))
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
        """Feed-forward, dropout, add & norm, then a classifier head: the ops
        of a decoder block's second half and of the head, in one backward.
        Dropout draws the same mask on every call from a fresh generator."""
        rng = np.random.default_rng(37)
        x = parameter(rng.normal(size=(4, 6)), dtype=np.float64)
        w1 = parameter(rng.normal(size=(6, 5)), dtype=np.float64)
        b1 = parameter(rng.normal(size=(5,)), dtype=np.float64)
        w2 = parameter(rng.normal(size=(5, 6)), dtype=np.float64)
        b2 = parameter(rng.normal(size=(6,)), dtype=np.float64)
        gain = parameter(np.ones(6), dtype=np.float64)
        bias = parameter(np.zeros(6), dtype=np.float64)
        w = parameter(rng.normal(size=(6, 3)), dtype=np.float64)
        b = parameter(rng.normal(size=(3,)), dtype=np.float64)
        sel = np.array([2, 0, 1, 1])

        def forward_value():
            ffn = gelu_np(x.data @ w1.data + b1.data) @ w2.data + b2.data
            ffn = ffn * (np.random.default_rng(41).random(ffn.shape) >= 0.25) / 0.75
            h = _ln_np(ffn + x.data, gain.data, bias.data) @ w.data + b.data
            logp = np.log(np.maximum(_softmax_np(h), 1e-12))
            return float(-np.mean(logp[np.arange(4), sel]))

        with GradTape() as tape:
            ffn = dropout(feed_forward(x, w1, b1, w2, b2), 0.25, np.random.default_rng(41))
            h = layer_norm(ffn, x, gain, bias, 1e-5)
            p = softmax(add(matmul(h, w), b))
            loss = nll_loss(p, sel)
            tape.backward(loss)

        assert abs(loss.item() - forward_value()) < 1e-12
        for t in (x, w1, b1, w2, b2, gain, bias, w, b):
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
