import math
import threading
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
    reference_attention,
    reference_packed_attention,
)

from norminfer.base import ConfigError, ContractError
from norminfer.model import (
    Batch,
    ModelConfig,
    ModelParameters,
    count_parameters,
    decoder_block,
    embed,
    embedding_ids,
    forward_batch,
    make_batch,
)
from norminfer import tensor
from norminfer.tensor import GradTape, Tensor, causal_attention, matmul
from norminfer.text import EOS_ID
from norminfer.training import nll_loss

# Frozen closed-form count for the full-scale configuration:
# embedding (56220 + 360) * 240 = 13579200, twelve blocks of 693360,
# head 240 * 3 + 3 = 723.
FULL_SCALE_PARAM_COUNT = 21_900_243


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_words=10, d_model=10, n_heads=3)

    def test_ffn_width_defaults_to_four_times_model_width(self):
        config = ModelConfig(vocab_words=10, d_model=12, n_heads=2)
        assert config.d_ffn == 48

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_words=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_words=10, n_blocks=-1)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_words=10, dropout=1.0)
        with pytest.raises(ConfigError, match="layer_norm_eps"):
            ModelConfig(vocab_words=10, layer_norm_eps=math.inf)

    @pytest.mark.parametrize(
        "name", ["vocab_words", "n_blocks", "n_heads", "d_model", "d_ffn", "max_len", "n_classes"]
    )
    def test_integer_fields_reject_bools(self, name):
        with pytest.raises(ConfigError, match=name):
            ModelConfig(**{"vocab_words": 10, "d_model": 12, "n_heads": 2, name: True})

    @pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
    @pytest.mark.parametrize("name", ["layer_norm_eps", "dropout"])
    def test_float_fields_reject_bools_and_strings(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ModelConfig(vocab_words=10, **{name: value})

    def test_dropout_takes_zero_and_an_int(self):
        assert ModelConfig(vocab_words=10, dropout=0).dropout == 0
        with pytest.raises(ConfigError, match=r"dropout must be a number in \[0, 1\)"):
            ModelConfig(vocab_words=10, dropout=-0.1)

    @pytest.mark.parametrize("name,minimum", [("vocab_words", 3), ("n_classes", 2)])
    def test_integer_fields_below_their_minimum_rejected(self, name, minimum):
        ModelConfig(**{"vocab_words": 10, name: minimum})
        with pytest.raises(ConfigError, match=f"{name} must be an integer >= {minimum}"):
            ModelConfig(**{"vocab_words": 10, name: minimum - 1})

    def test_full_scale_parameter_count(self):
        config = ModelConfig(vocab_words=56220)
        count = count_parameters(config)
        assert count == FULL_SCALE_PARAM_COUNT
        assert 17_000_000 <= count <= 24_000_000

    def test_analytic_count_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(4):
            config = build_toy_config(
                vocab_words=int(rng.integers(5, 60)),
                n_blocks=int(rng.integers(1, 4)),
                n_heads=int(rng.choice([1, 2, 4])),
                d_model=int(rng.choice([8, 16])),
                max_len=int(rng.integers(4, 30)),
            )
            params = build_toy_params(config)
            assert params.n_parameters() == count_parameters(config)


class TestAttention:
    def brute_force(self, q, k, v):
        """Per-position loop oracle for causal attention."""
        t, d_k = q.shape
        out = np.zeros_like(q)
        for i in range(t):
            scores = np.array([q[i] @ k[j] / np.sqrt(d_k) for j in range(i + 1)])
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            for j in range(i + 1):
                out[i] += w[j] * v[j]
        return out

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            t = int(rng.integers(1, 7))
            d_k = int(rng.integers(1, 5))
            q, k, v = (rng.normal(size=(t, d_k)) for _ in range(3))
            got = causal_attention(
                Tensor(np.concatenate([q, k, v], axis=1), dtype=np.float64), [t], 1
            ).data
            np.testing.assert_allclose(got, self.brute_force(q, k, v), atol=1e-10)

    def test_shape_mismatch_rejected(self):
        qkv = Tensor(np.zeros((3, 12)))
        with pytest.raises(Exception, match="divisible into 3 heads"):
            causal_attention(qkv, [3], 3)

    def test_return_weights_gives_the_attention_weights(self):
        config = build_toy_config(n_heads=3, d_model=12)
        block = build_toy_params(config, seed=47).blocks[0]
        lengths = [6, 4]
        x = Tensor(np.random.default_rng(47).normal(size=(10, 12)).astype(np.float32))
        qkv = matmul(x, block.w_qkv)
        out, weights = causal_attention(qkv, lengths, 3, return_weights=True)
        _, want_weights, _ = reference_packed_attention(
            qkv.data, lengths, 3, np.zeros_like(x.data)
        )
        assert [w.shape for w in weights] == [(3, 6, 6), (3, 4, 4)]
        for w, want in zip(weights, want_weights):
            assert w.tobytes() == want.tobytes()
        plain = causal_attention(qkv, lengths, 3)
        assert plain.data.tobytes() == out.data.tobytes()

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_peak_memory_is_one_weights_array(self, taped):
        """Attention allocates one (H, L, L) array per sequence, not one per
        step of the score, mask and softmax chain."""
        b, h, t, d = 4, 2, 64, 8
        rng = np.random.default_rng(53)
        qkv = Tensor(
            rng.normal(size=(b * t, 3 * h * d)).astype(np.float32), requires_grad=taped
        )
        weights_bytes = b * h * t * t * np.dtype(np.float32).itemsize
        tape = GradTape()
        tracemalloc.start()
        try:
            if taped:
                with tape:
                    out = causal_attention(qkv, [t] * b, h)
            else:
                out = causal_attention(qkv, [t] * b, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad == taped and len(tape) == int(taped)
        assert peak < 2 * weights_bytes, f"peak {peak / weights_bytes:.2f} weights arrays"

    def test_untaped_attention_reuses_one_weights_buffer(self):
        """Without a tape or a request for the weights, four 200-token
        sequences share one (n_heads, 200, 200) buffer instead of keeping
        four such arrays."""
        h, t, d = 2, 200, 8
        rng = np.random.default_rng(101)
        qkv = Tensor(rng.normal(size=(4 * t, 3 * h * d)).astype(np.float32))
        one_weights_bytes = h * t * t * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            causal_attention(qkv, [t] * 4, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * one_weights_bytes, f"peak {peak / one_weights_bytes:.2f} weights arrays"

    def test_forward_peak_memory_follows_real_tokens(self):
        """Mixed lengths cost attention memory for the real tokens only:
        at most twice the sum over pairs of n_heads * L^2 weights, where
        padding every pair to the longest would take four times that."""
        config = build_toy_config(n_blocks=1, n_heads=2, d_model=8, max_len=200)
        params = build_toy_params(config, seed=59)
        rng = np.random.default_rng(59)
        lengths = [4, 4, 4, 200]
        batch = make_batch([build_random_pair(rng, config, t=n) for n in lengths])
        real_weights_bytes = config.n_heads * sum(n * n for n in lengths) * 4
        tracemalloc.start()
        try:
            forward_batch(batch, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * real_weights_bytes, (
            f"peak {peak / real_weights_bytes:.2f} times the real-token weights"
        )

    def test_single_head_equals_unsplit_formulation(self):
        config = build_toy_config(n_heads=1, d_model=8)
        params = build_toy_params(config, seed=3)
        block = params.blocks[0]
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(10, 8)).astype(np.float32))

        via_heads = matmul(causal_attention(matmul(x, block.w_qkv), [5, 5], 1), block.w_o).data

        for rows in (slice(0, 5), slice(5, 10)):
            qkv = matmul(Tensor(x.data[rows]), block.w_qkv).data
            q, k, v = (qkv[:, i : i + 8] for i in (0, 8, 16))
            direct = matmul(Tensor(reference_attention(q, k, v)[0]), block.w_o).data
            assert np.array_equal(via_heads[rows], direct)

    def test_last_rows_attend_as_the_full_block_does(self):
        """With ``last_only``, only each sequence's last row queries; its
        output and per-sequence (n_heads, 1, L) weights match those rows of
        the all-rows attention."""
        config = build_toy_config(n_heads=3, d_model=12)
        block = build_toy_params(config, seed=53, dtype=np.float64).blocks[0]
        lengths = [6, 1, 4]
        x = Tensor(np.random.default_rng(53).normal(size=(11, 12)))
        ends = np.cumsum(lengths) - 1
        qkv = matmul(x, block.w_qkv)
        full, full_weights = causal_attention(qkv, lengths, 3, return_weights=True)
        out, weights = causal_attention(qkv, lengths, 3, return_weights=True, last_only=True)
        assert out.shape == (3, 12)
        assert [w.shape for w in weights] == [(3, 1, n) for n in lengths]
        np.testing.assert_allclose(out.data, full.data[ends], rtol=0, atol=1e-12)
        for w, full_w in zip(weights, full_weights):
            np.testing.assert_allclose(w[:, 0], full_w[:, -1], rtol=0, atol=1e-12)

    def test_heads_attend_differently(self):
        config = build_toy_config(n_heads=2, d_model=8)
        params = build_toy_params(config, seed=9)
        x = Tensor(np.random.default_rng(5).normal(size=(6, 8)).astype(np.float32))
        _, weights = causal_attention(
            matmul(x, params.blocks[0].w_qkv), [6], 2, return_weights=True
        )
        assert [w.shape for w in weights] == [(2, 6, 6)]
        assert not np.allclose(weights[0][0], weights[0][1])


def assert_future_perturbation_leaves_prefix(rng):
    """Over ten random toy models and pairs, changing token j leaves every
    layer's rows before j bitwise identical."""
    for _ in range(10):
        config = build_toy_config(
            vocab_words=20,
            n_blocks=int(rng.integers(1, 3)),
            d_model=8,
            n_heads=2,
            max_len=10,
        )
        params = build_toy_params(config, seed=int(rng.integers(1000)),
                                  dtype=np.float64)
        t = int(rng.integers(3, 9))
        pair = build_random_pair(rng, config, t=t)
        j = int(rng.integers(1, t))

        perturbed = build_random_pair(rng, config, t=t)
        perturbed.token_ids[:] = pair.token_ids
        new_token = 3 + (int(pair.token_ids[j]) - 3 + 1) % (config.vocab_words - 3)
        perturbed.token_ids[j] = new_token

        _, h_base = forward_batch(make_batch([pair]), params, return_hidden=True)
        # built directly, since make_batch rejects a perturbed end-of-sequence token
        pert_batch = Batch(perturbed.token_ids, np.array([t - 1]))
        _, h_pert = forward_batch(pert_batch, params, return_hidden=True)
        # hidden layers are packed (N, d): rows before j are the prefix
        for layer_base, layer_pert in zip(h_base, h_pert):
            assert np.array_equal(layer_base[:j], layer_pert[:j])


class TestCausality:
    def test_future_perturbation_leaves_prefix_bitwise_identical(self):
        assert_future_perturbation_leaves_prefix(np.random.default_rng(47))

    def test_future_perturbation_at_multi_tile_sizes(self, monkeypatch):
        # at 2 heads, pairs of 3 to 8 tokens run in attention tiles of 1 or 2 rows
        monkeypatch.setattr(tensor, "TILE_ELEMENTS", 16)
        assert_future_perturbation_leaves_prefix(np.random.default_rng(139))

    def test_batch_rows_match_pairs_scored_alone(self):
        """Pairs of 5 and 140 tokens batched together score as they do
        alone, and their packed hidden rows match the rows computed alone."""
        config = build_toy_config(vocab_words=20, max_len=140)
        params = build_toy_params(config, seed=17)
        rng = np.random.default_rng(67)
        pairs = [build_random_pair(rng, config, t=n) for n in (5, 140)]
        probs, hidden = forward_batch(make_batch(pairs), params, return_hidden=True)
        starts = [0, 5]
        for i, pair in enumerate(pairs):
            alone, alone_hidden = forward_batch(make_batch([pair]), params, return_hidden=True)
            np.testing.assert_allclose(probs.data[i], alone.data[0], rtol=0, atol=1e-6)
            rows = slice(starts[i], starts[i] + len(pair))
            for h, h_alone in zip(hidden, alone_hidden):
                assert h.shape == (145, config.d_model)
                assert h_alone.shape == (len(pair), config.d_model)
                np.testing.assert_allclose(h[rows], h_alone, rtol=0, atol=1e-6)


class TestBlocksAndShapes:
    @pytest.mark.parametrize("t", [1, 7, 360])
    def test_block_preserves_full_width_shape(self, t):
        config = ModelConfig(vocab_words=10, n_blocks=1, n_heads=12, d_model=240,
                             max_len=360)
        params = build_toy_params(config, seed=2)
        x = Tensor(np.random.default_rng(0).normal(size=(t, 240)).astype(np.float32))
        out = decoder_block(x, params.blocks[0], config, [t])
        assert out.shape == (t, 240)

    def test_batched_and_single_block_agree(self):
        config = build_toy_config()
        params = build_toy_params(config, seed=8)
        x = np.random.default_rng(1).normal(size=(7, 8)).astype(np.float32)
        single = decoder_block(Tensor(x[:4]), params.blocks[0], config, [4]).data
        batched = decoder_block(Tensor(x), params.blocks[0], config, [4, 3]).data
        assert np.array_equal(single, batched[:4])

    def test_untaped_block_frees_the_projection_before_its_feed_forward(self, monkeypatch):
        """When the feed-forward step starts, an untaped block holds neither
        the (N, 3d) query/key/value projection nor the (N, d) attention
        context: besides its input, only the attention output and the first
        add & norm, two (N, d) arrays, are live."""
        n, d = 512, 64
        config = build_toy_config(n_heads=2, d_model=d, max_len=256)
        block = build_toy_params(config, seed=61).blocks[0]
        x = Tensor(np.random.default_rng(61).normal(size=(n, d)).astype(np.float32))
        held = []

        def measured(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return tensor.feed_forward(*args)

        monkeypatch.setattr("norminfer.model.feed_forward", measured)
        decoder_block(x, block, config, [256, 256])  # fills the causal-mask cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            decoder_block(x, block, config, [256, 256])
        finally:
            tracemalloc.stop()
        rows_bytes = n * d * np.dtype(np.float32).itemsize
        assert (held[-1] - base) / rows_bytes < 2.5


class TestEosOnlyLastBlock:
    """The head reads only end-of-sequence rows, so the last block computes
    only those; ``return_hidden`` still runs every block on every row."""

    @pytest.mark.parametrize("n_blocks", [1, 2])
    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    def test_probabilities_equal_all_rows(self, n_blocks, dtype, atol):
        config = build_toy_config(vocab_words=20, n_blocks=n_blocks, n_heads=2,
                                  d_model=8, max_len=130)
        params = build_toy_params(config, seed=71, dtype=dtype)
        rng = np.random.default_rng(71)
        batch = make_batch([build_random_pair(rng, config, t=n) for n in (1, 7, 130)])
        eos_only = forward_batch(batch, params).data
        all_rows, _ = forward_batch(batch, params, return_hidden=True)
        assert eos_only.dtype == dtype and eos_only.shape == (3, 3)
        np.testing.assert_allclose(eos_only, all_rows.data, rtol=0, atol=atol)

    def test_block_returns_the_last_rows(self):
        config = build_toy_config(n_heads=2, d_model=8)
        block = build_toy_params(config, seed=73, dtype=np.float64).blocks[0]
        lengths = [5, 1, 3]
        x = Tensor(np.random.default_rng(73).normal(size=(9, 8)))
        full = decoder_block(x, block, config, lengths).data
        last = decoder_block(x, block, config, lengths, eos_only=True).data
        assert last.shape == (3, 8)
        np.testing.assert_allclose(last, full[np.cumsum(lengths) - 1], rtol=0, atol=1e-12)

    def test_every_parameter_gradient_matches_finite_differences(self):
        """float64, every element of every parameter, through a full first
        block and the EOS-only last block, at mixed lengths."""
        config = build_toy_config(vocab_words=6, n_blocks=2, n_heads=2, d_model=4, max_len=6)
        params = build_toy_params(config, seed=79, dtype=np.float64)
        rng = np.random.default_rng(79)
        # O(1) weights give O(1) gradients, far above the rounding noise of
        # the differences, which the 0.02 initial scale would not
        for _, tensor in params.named_tensors():
            tensor.data[...] = rng.normal(scale=0.5, size=tensor.shape)
        batch = make_batch([build_random_pair(rng, config, t=n) for n in (1, 6, 3)])
        weights = rng.normal(size=(3, config.n_classes))

        with GradTape() as tape:
            grads = tape.backward(dot_with(forward_batch(batch, params), weights))

        def f():
            return float(np.sum(forward_batch(batch, params).data * weights))

        for name, tensor in params.named_tensors():
            assert max_rel_err(dense_grad(grads[tensor]), numeric_grad(f, tensor.data)) < 1e-6, name


class TestEmbedding:
    def test_word_and_position_rows_are_summed(self):
        config = build_toy_config(vocab_words=6, n_blocks=1, d_model=4, max_len=5)
        params = build_toy_params(config, seed=4)
        pair = build_random_pair(np.random.default_rng(3), config, t=3)
        x = embed(make_batch([pair]), params).data
        table = params.embedding.data
        assert x.shape == (3, 4)
        for pos in range(3):
            expected = table[pair.token_ids[pos]] + table[6 + pos]
            np.testing.assert_array_equal(x[pos], expected)

    def test_positions_restart_at_one_for_each_pair(self):
        config = build_toy_config(vocab_words=6, n_blocks=1, d_model=4, max_len=5)
        params = build_toy_params(config, seed=4)
        rng = np.random.default_rng(3)
        pairs = [build_random_pair(rng, config, t=n) for n in (3, 1, 5)]
        x = embed(make_batch(pairs), params).data
        table = params.embedding.data
        expected = [table[pair.token_ids[pos]] + table[6 + pos]
                    for pair in pairs for pos in range(len(pair))]
        assert x.shape == (9, 4)
        np.testing.assert_array_equal(x, np.array(expected))

    def test_gradient_is_zero_outside_the_rows_read(self):
        """Adam updates only the rows the table's ``RowGrad`` holds, so they
        must be the rows ``embedding_ids`` names, and the gradient exactly
        zero everywhere else."""
        config = build_toy_config(vocab_words=30, n_blocks=1, max_len=8)
        params = build_toy_params(config, seed=4)
        rng = np.random.default_rng(8)
        batch = make_batch([build_random_pair(rng, config, t=n, label_id=0) for n in (3, 6)])
        ids, positions = embedding_ids(batch, config)
        np.testing.assert_array_equal(ids, batch.token_ids)
        np.testing.assert_array_equal(positions, 30 + np.array([0, 1, 2, 0, 1, 2, 3, 4, 5]))
        with GradTape() as tape:
            grads = tape.backward(nll_loss(forward_batch(batch, params), batch.labels))
        read = np.zeros(config.embedding_rows, dtype=bool)
        read[ids] = read[positions] = True
        assert isinstance(grads[params.embedding], tensor.RowGrad)
        np.testing.assert_array_equal(grads[params.embedding].rows, np.flatnonzero(read))
        grad = grads[params.embedding].dense()
        assert not grad[~read].any()
        assert grad[read].any(axis=1).all()

    def test_out_of_range_token_rejected(self):
        config = build_toy_config(vocab_words=6, max_len=5)
        params = build_toy_params(config)
        pair = build_random_pair(np.random.default_rng(0), config, t=3)
        pair.token_ids[0] = 6
        with pytest.raises(ContractError):
            embed(make_batch([pair]), params)

    @pytest.mark.parametrize("eos_index", [[-1], [3], [1, 1]], ids=str)
    def test_eos_index_out_of_range_rejected(self, eos_index):
        config = build_toy_config(vocab_words=6, max_len=5)
        params = build_toy_params(config)
        batch = make_batch([build_random_pair(np.random.default_rng(0), config, t=3)])
        batch.eos_index = np.array(eos_index)
        with pytest.raises(ContractError, match="eos_index"):
            forward_batch(batch, params)

    def test_sequence_longer_than_max_len_rejected(self):
        config = build_toy_config(vocab_words=6, max_len=4)
        params = build_toy_params(config)
        long_batch = Batch(
            token_ids=np.array([3, 3, 3, 3, EOS_ID], dtype=np.int64),
            eos_index=np.array([4]),
        )
        with pytest.raises(ContractError, match="max_len"):
            forward_batch(long_batch, params)


class TestForward:
    def test_zero_head_gives_exactly_uniform_probabilities(self):
        config = build_toy_config(vocab_words=12)
        params = build_toy_params(config, seed=6)
        params.w_cls.data[:] = 0.0
        params.b_cls.data[:] = 0.0
        pair = build_random_pair(np.random.default_rng(8), config, t=5)
        probs = forward_batch(make_batch([pair]), params).data[0]
        third = float(np.float32(1.0) / np.float32(3.0))
        assert probs.tolist() == [third, third, third]

    def test_identical_texts_both_directions_agree(self):
        config = build_toy_config(vocab_words=12)
        params = build_toy_params(config, seed=7)
        pair = build_random_pair(np.random.default_rng(9), config, t=7)
        assert np.array_equal(
            forward_batch(make_batch([pair]), params).data,
            forward_batch(make_batch([pair]), params).data,
        )

    def test_probabilities_sum_to_one(self):
        config = build_toy_config(vocab_words=15)
        params = build_toy_params(config, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(5):
            probs = forward_batch(make_batch([build_random_pair(rng, config)]), params)
            assert abs(probs.data[0].astype(np.float64).sum() - 1.0) < 1e-6

    def test_missing_eos_rejected(self):
        config = build_toy_config(vocab_words=12)
        params = build_toy_params(config)
        pair = build_random_pair(np.random.default_rng(1), config, t=4)
        pair.token_ids[-1] = 3
        with pytest.raises(ContractError, match="end-of-sequence"):
            forward_batch(make_batch([pair]), params)

    def test_other_thread_records_nothing_on_an_open_tape(self):
        config = build_toy_config(vocab_words=12)
        params = build_toy_params(config)
        batch = make_batch([build_random_pair(np.random.default_rng(4), config, t=5)])
        results = []
        with GradTape() as tape:
            worker = threading.Thread(
                target=lambda: results.append(forward_batch(batch, params))
            )
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive() and len(results) == 1
            assert len(tape) == 0
            forward_batch(batch, params)
            assert len(tape) > 0

    def test_dropout_active_only_with_generator(self):
        config = build_toy_config(vocab_words=12, dropout=0.2)
        params = build_toy_params(config, seed=12)
        pair = build_random_pair(np.random.default_rng(2), config, t=5)
        batch = make_batch([pair])
        inference_a = forward_batch(batch, params).data
        inference_b = forward_batch(batch, params).data
        assert np.array_equal(inference_a, inference_b)
        a = forward_batch(batch, params, rng=np.random.default_rng(1)).data
        b = forward_batch(batch, params, rng=np.random.default_rng(2)).data
        assert not np.array_equal(a, b)


class TestMakeBatch:
    def test_concatenates_pair_tokens_and_labels(self):
        config = build_toy_config(vocab_words=10, max_len=9)
        rng = np.random.default_rng(21)
        pairs = [
            build_random_pair(rng, config, t=4, label_id=0),
            build_random_pair(rng, config, t=7, label_id=2),
            build_random_pair(rng, config, t=1, label_id=1),
        ]
        batch = make_batch(pairs)
        assert batch.token_ids.dtype == np.int64 and batch.token_ids.shape == (12,)
        assert batch.token_ids.tolist() == [i for p in pairs for i in p.token_ids.tolist()]
        assert batch.eos_index.tolist() == [3, 6, 0]
        assert batch.size == 3
        assert batch.labels.tolist() == [0, 2, 1]

    def test_labels_none_when_any_missing(self):
        config = build_toy_config(vocab_words=10)
        rng = np.random.default_rng(22)
        pairs = [
            build_random_pair(rng, config, t=3, label_id=1),
            build_random_pair(rng, config, t=3),
        ]
        assert make_batch(pairs).labels is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            make_batch([])


class TestEndToEndGradient:
    def test_all_parameter_gradients_match_finite_differences(self):
        config = build_toy_config(vocab_words=12, n_blocks=1, n_heads=2,
                                  d_model=8, max_len=8)
        params = build_toy_params(config, seed=13, dtype=np.float64)
        rng = np.random.default_rng(14)
        pairs = [build_random_pair(rng, config, t=5, label_id=i % 3)
                 for i in range(3)]
        batch = make_batch(pairs)

        def loss_value():
            probs = forward_batch(batch, params)
            picked = probs.data[np.arange(3), batch.labels]
            return float(-np.mean(np.log(np.maximum(picked, 1e-12))))

        with GradTape() as tape:
            loss = nll_loss(forward_batch(batch, params), batch.labels)
            grads = tape.backward(loss)

        check_rng = np.random.default_rng(15)
        for name, tensor in params.named_tensors():
            flat = tensor.data.reshape(-1)
            gflat = dense_grad(grads[tensor]).reshape(-1)
            n_checks = min(4, flat.size)
            coords = check_rng.choice(flat.size, size=n_checks, replace=False)
            for c in coords:
                orig = flat[c]
                h = 1e-5
                flat[c] = orig + h
                fp = loss_value()
                flat[c] = orig - h
                fm = loss_value()
                flat[c] = orig
                fd = (fp - fm) / (2 * h)
                assert max_rel_err(np.array([gflat[c]]), np.array([fd])) < 1e-4, name


def reference_initialize(config, rng, dtype):
    """The initial weights as one full-size float64 draw per tensor: each
    block's weights in turn, then the embedding, then the head."""
    d, f = config.d_model, config.d_ffn
    arrays = {}
    for i in range(config.n_blocks):
        for name, shape in (("w_qkv", (d, 3 * d)), ("w_o", (d, d)),
                            ("w_ffn1", (d, f)), ("w_ffn2", (f, d))):
            arrays[f"blocks.{i}.{name}"] = rng.normal(0.0, 0.02, shape).astype(dtype)
    arrays["embedding"] = rng.normal(0.0, 0.02, (config.embedding_rows, d)).astype(dtype)
    arrays["head.w_cls"] = rng.normal(0.0, 0.02, (d, config.n_classes)).astype(dtype)
    return arrays


class TestInitialize:
    @pytest.mark.parametrize("draw_elements", [7, 1 << 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_draw_matches_one_shot_draw(self, monkeypatch, draw_elements, dtype):
        monkeypatch.setattr("norminfer.tensor.TILE_ELEMENTS", draw_elements)
        # the embedding (600 + 16) x 128 spans two tiles of 1 << 16 elements
        config = build_toy_config(vocab_words=600, n_blocks=2, d_model=128, n_heads=2)
        params = build_toy_params(config, seed=5, dtype=dtype)
        want = reference_initialize(config, np.random.default_rng(5), dtype)
        for name, tensor in params.named_tensors():
            assert tensor.data.dtype == dtype, name
            if name in want:
                assert tensor.data.tobytes() == want[name].tobytes(), name
            elif "_gain" in name:
                assert (tensor.data == 1).all(), name
            else:
                assert (tensor.data == 0).all(), name


class TestParameterCopy:
    def test_copy_is_deep_and_equal(self):
        config = build_toy_config(vocab_words=10)
        params = build_toy_params(config, seed=19)
        clone = params.copy()
        for (name_a, a), (name_b, b) in zip(params.named_tensors(),
                                            clone.named_tensors()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)
            assert a.data is not b.data
        clone.embedding.data[0, 0] += 1.0
        assert params.embedding.data[0, 0] != clone.embedding.data[0, 0]
