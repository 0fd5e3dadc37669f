"""Decoder-only transformer classifier for three-way inference.

A premise-hypothesis pair is a single token sequence ending in the
end-of-sequence token. Word and position vectors live in one joint
embedding table: word rows first, then one row per position starting at
position 1. The sequence passes through a stack of identical blocks, each
applying causally masked multi-head self attention and a position-wise
feed-forward network, both followed by residual addition and layer
normalization. The hidden state of the end-of-sequence token feeds a
linear head whose softmax gives the class probabilities.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .base import ConfigError, ContractError
from .tensor import (
    Tensor,
    add,
    causal_attention,
    dropout as dropout_op,
    embedding_lookup,
    gelu,
    layer_norm,
    masked_fill,  # noqa: F401  unused here; kept importable from this module
    matmul,
    narrow,  # noqa: F401  unused here; kept importable from this module
    parameter,
    reshape,  # noqa: F401  unused here; kept importable from this module
    scale,  # noqa: F401  unused here; kept importable from this module
    softmax,
    take_rows,  # noqa: F401  unused here; kept importable from this module
    transpose,  # noqa: F401  unused here; kept importable from this module
)
from .text import CLASSES, EOS_ID, EncodedPair

logger = logging.getLogger(__name__)

INIT_STD = 0.02


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    d_ffn defaults to four times d_model when omitted. The joint embedding
    table has vocab_words + max_len rows.
    """

    vocab_words: int
    n_blocks: int = 12
    n_heads: int = 12
    d_model: int = 240
    d_ffn: int | None = None
    max_len: int = 360
    n_classes: int = 3
    layer_norm_eps: float = 1e-5
    dropout: float = 0.0

    def __post_init__(self):
        if self.d_ffn is None:
            self.d_ffn = 4 * self.d_model
        for name in ("vocab_words", "n_blocks", "n_heads", "d_model", "d_ffn",
                     "max_len", "n_classes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.vocab_words < 3:
            raise ConfigError(
                f"vocab_words must cover the 3 reserved tokens, got {self.vocab_words}"
            )
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}"
            )
        if not (self.layer_norm_eps > 0):
            raise ConfigError(f"layer_norm_eps must be > 0, got {self.layer_norm_eps}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def embedding_rows(self) -> int:
        return self.vocab_words + self.max_len

    def to_dict(self) -> dict:
        return {
            "vocab_words": self.vocab_words,
            "n_blocks": self.n_blocks,
            "n_heads": self.n_heads,
            "d_model": self.d_model,
            "d_ffn": self.d_ffn,
            "max_len": self.max_len,
            "n_classes": self.n_classes,
            "layer_norm_eps": self.layer_norm_eps,
            "dropout": self.dropout,
        }


def count_parameters(config: ModelConfig) -> int:
    """Learnable scalar count as a closed-form function of the config."""
    d, f = config.d_model, config.d_ffn
    embedding = config.embedding_rows * d
    per_block = (
        d * 3 * d        # fused query/key/value projection
        + d * d          # attention output projection
        + d * f + f      # first feed-forward layer and bias
        + f * d + d      # second feed-forward layer and bias
        + 4 * d          # two layer-norm gain/bias pairs
    )
    head = d * config.n_classes + config.n_classes
    return embedding + config.n_blocks * per_block + head


@dataclass
class BlockParameters:
    w_qkv: Tensor
    w_o: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    w_ffn1: Tensor
    b_ffn1: Tensor
    w_ffn2: Tensor
    b_ffn2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class ModelParameters:
    embedding: Tensor
    blocks: list[BlockParameters]
    w_cls: Tensor
    b_cls: Tensor
    config: ModelConfig = field(repr=False)

    @classmethod
    def initialize(
        cls,
        config: ModelConfig,
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> "ModelParameters":
        """Draw weights from N(0, 0.02^2); biases zero, norm gains one."""
        d, f = config.d_model, config.d_ffn

        def weight(*shape):
            return parameter(rng.normal(0.0, INIT_STD, shape).astype(dtype))

        def zeros(*shape):
            return parameter(np.zeros(shape, dtype=dtype))

        def ones(*shape):
            return parameter(np.ones(shape, dtype=dtype))

        blocks = [
            BlockParameters(
                w_qkv=weight(d, 3 * d),
                w_o=weight(d, d),
                ln1_gain=ones(d),
                ln1_bias=zeros(d),
                w_ffn1=weight(d, f),
                b_ffn1=zeros(f),
                w_ffn2=weight(f, d),
                b_ffn2=zeros(d),
                ln2_gain=ones(d),
                ln2_bias=zeros(d),
            )
            for _ in range(config.n_blocks)
        ]
        params = cls(
            embedding=weight(config.embedding_rows, d),
            blocks=blocks,
            w_cls=weight(d, config.n_classes),
            b_cls=zeros(config.n_classes),
            config=config,
        )
        logger.info(
            "initialized model: %d learnable parameters", params.n_parameters()
        )
        return params

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """Deterministic traversal order; serialization relies on it."""
        yield "embedding", self.embedding
        for i, blk in enumerate(self.blocks):
            yield f"blocks.{i}.w_qkv", blk.w_qkv
            yield f"blocks.{i}.w_o", blk.w_o
            yield f"blocks.{i}.ln1_gain", blk.ln1_gain
            yield f"blocks.{i}.ln1_bias", blk.ln1_bias
            yield f"blocks.{i}.w_ffn1", blk.w_ffn1
            yield f"blocks.{i}.b_ffn1", blk.b_ffn1
            yield f"blocks.{i}.w_ffn2", blk.w_ffn2
            yield f"blocks.{i}.b_ffn2", blk.b_ffn2
            yield f"blocks.{i}.ln2_gain", blk.ln2_gain
            yield f"blocks.{i}.ln2_bias", blk.ln2_bias
        yield "head.w_cls", self.w_cls
        yield "head.b_cls", self.b_cls

    def n_parameters(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())

    @property
    def dtype(self):
        return self.embedding.dtype

    def copy(self) -> "ModelParameters":
        """Deep copy of the weights; gradients are not carried over."""
        blocks = [
            BlockParameters(
                **{
                    name: parameter(getattr(blk, name).data.copy())
                    for name in (
                        "w_qkv", "w_o", "ln1_gain", "ln1_bias",
                        "w_ffn1", "b_ffn1", "w_ffn2", "b_ffn2",
                        "ln2_gain", "ln2_bias",
                    )
                }
            )
            for blk in self.blocks
        ]
        return ModelParameters(
            embedding=parameter(self.embedding.data.copy()),
            blocks=blocks,
            w_cls=parameter(self.w_cls.data.copy()),
            b_cls=parameter(self.b_cls.data.copy()),
            config=self.config,
        )


@dataclass
class Batch:
    """Right-padded model input.

    Each row holds one pair's tokens up to and including its
    end-of-sequence token at ``eos_index``, then padding. The model computes
    on the real tokens only: it packs them into one row per token, so
    padding costs nothing and cannot influence any result. position_ids
    keep counting through the padding to stay within the embedding table.
    """

    token_ids: np.ndarray
    position_ids: np.ndarray
    eos_index: np.ndarray
    labels: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def seq_len(self) -> int:
        return int(self.token_ids.shape[1])

    @property
    def real_tokens(self) -> np.ndarray:
        """(B, T) mask of each pair's tokens up to and including its EOS."""
        return np.arange(self.seq_len) < self.eos_index[:, None] + 1


def make_batch(pairs: Sequence[EncodedPair], pad_id: int = 0) -> Batch:
    if not pairs:
        raise ContractError("cannot build a batch from zero pairs")
    n = len(pairs)
    t = max(len(p) for p in pairs)
    token_ids = np.full((n, t), pad_id, dtype=np.int64)
    position_ids = np.tile(np.arange(1, t + 1, dtype=np.int64), (n, 1))
    eos_index = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    have_labels = True
    for i, pair in enumerate(pairs):
        k = len(pair)
        token_ids[i, :k] = pair.token_ids
        position_ids[i, :k] = pair.position_ids
        eos_index[i] = pair.eos_index
        if pair.label_id is None:
            have_labels = False
        else:
            labels[i] = pair.label_id
    return Batch(
        token_ids=token_ids,
        position_ids=position_ids,
        eos_index=eos_index,
        labels=labels if have_labels else None,
    )


def embed(batch: Batch, params: ModelParameters) -> Tensor:
    """Sum of word row and position row from the joint table, per real token.

    The result is packed, shape (N, d) with N the number of real tokens:
    each pair's tokens up to and including its end-of-sequence token, pairs
    in batch order. Both id sets go through one lookup, so the backward
    pass scatters into a single dense table gradient.
    """
    config = params.config
    ids = batch.token_ids
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_words):
        raise ContractError(
            f"token id out of range [0, {config.vocab_words}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    pos = batch.position_ids
    if pos.min() < 1 or pos.max() > config.max_len:
        raise ContractError(
            f"position out of range [1, {config.max_len}]: "
            f"min {pos.min()}, max {pos.max()}"
        )
    eos = batch.eos_index
    if eos.shape != (batch.size,) or eos.min() < 0 or eos.max() >= batch.seq_len:
        raise ContractError(
            f"eos_index needs one position in [0, {batch.seq_len}) per pair: "
            f"shape {eos.shape}, min {eos.min()}, max {eos.max()}"
        )
    real = batch.real_tokens
    return embedding_lookup(params.embedding, ids[real], config.vocab_words + pos[real] - 1)


def multi_head_attention(
    x: Tensor,
    block: BlockParameters,
    n_heads: int,
    lengths: Sequence[int],
    return_weights: bool = False,
):
    """Fused projection to queries, keys and values, independent causal
    attention per head within each packed sequence, concatenation, and
    output projection.

    ``x`` is (N, d): sequences of ``lengths`` rows packed one after
    another. With ``return_weights`` the attention weights also come back,
    as a (B, n_heads, T, T) array with T the longest length and exact zeros
    beyond each sequence's end.
    """
    ctx, weights = causal_attention(matmul(x, block.w_qkv), lengths, n_heads)
    out = matmul(ctx, block.w_o)
    if not return_weights:
        return out
    t = max(w.shape[-1] for w in weights)
    padded = np.zeros((len(weights), n_heads, t, t), dtype=x.dtype)
    for row, w in zip(padded, weights):
        row[:, : w.shape[-1], : w.shape[-1]] = w
    return out, padded


def position_wise_ffn(x: Tensor, block: BlockParameters) -> Tensor:
    """gelu(x W1 + b1) W2 + b2, applied at every position."""
    return add(matmul(gelu(add(matmul(x, block.w_ffn1), block.b_ffn1)), block.w_ffn2),
               block.b_ffn2)


def decoder_block(
    x: Tensor,
    block: BlockParameters,
    n_heads: int,
    lengths: Sequence[int],
    eps: float = 1e-5,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual attention then residual feed-forward, each followed by
    layer normalization, over (N, d) packed sequences of ``lengths`` rows.
    Shape is preserved.
    """
    live_dropout = dropout > 0.0 and rng is not None
    attn = multi_head_attention(x, block, n_heads, lengths)
    if live_dropout:
        attn = dropout_op(attn, dropout, rng)
    y = layer_norm(add(x, attn), block.ln1_gain, block.ln1_bias, eps)
    ffn = position_wise_ffn(y, block)
    if live_dropout:
        ffn = dropout_op(ffn, dropout, rng)
    return layer_norm(add(y, ffn), block.ln2_gain, block.ln2_bias, eps)


def forward_batch(
    batch: Batch,
    params: ModelParameters,
    rng: np.random.Generator | None = None,
    return_hidden: bool = False,
):
    """Class probabilities for every pair in the batch, shape (B, n_classes).

    Every layer runs on the packed real tokens (see ``embed``), so padding
    costs nothing. Dropout fires only when a generator is supplied; calls
    without one are the deterministic inference path. With
    return_hidden=True also returns the embedding output and each block
    output as plain (B, T, d) arrays, exactly zero after each
    end-of-sequence token.
    """
    config = params.config
    if batch.seq_len > config.max_len:
        raise ContractError(
            f"batch length {batch.seq_len} exceeds max_len {config.max_len}"
        )
    x = embed(batch, params)
    lengths = (batch.eos_index + 1).tolist()
    hidden = [x.data] if return_hidden else None
    for block in params.blocks:
        x = decoder_block(
            x, block, config.n_heads, lengths,
            eps=config.layer_norm_eps, dropout=config.dropout, rng=rng,
        )
        if return_hidden:
            hidden.append(x.data)
    final = embedding_lookup(x, np.cumsum(lengths) - 1)
    logits = add(matmul(final, params.w_cls), params.b_cls)
    probs = softmax(logits, axis=-1)
    if return_hidden:
        real = batch.real_tokens
        padded = []
        for h in hidden:
            full = np.zeros(real.shape + h.shape[-1:], dtype=h.dtype)
            full[real] = h
            padded.append(full)
        return probs, padded
    return probs


@dataclass(frozen=True)
class ClassProbabilities:
    entailment: float
    contradiction: float
    neutral: float

    def as_array(self) -> np.ndarray:
        return np.array([self.entailment, self.contradiction, self.neutral])

    @property
    def predicted(self) -> str:
        # first maximum wins, so ties resolve entailment, then
        # contradiction, then neutral
        return CLASSES[int(np.argmax(self.as_array()))]


def forward(pair: EncodedPair, params: ModelParameters) -> ClassProbabilities:
    """Probabilities for a single encoded pair."""
    if pair.token_ids[-1] != EOS_ID:
        raise ContractError("encoded pair must end with the end-of-sequence token")
    probs = forward_batch(make_batch([pair]), params).data[0]
    return ClassProbabilities(*(float(p) for p in probs))
