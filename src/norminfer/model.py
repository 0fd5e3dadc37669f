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

from .base import ConfigError, ContractError, ShapeError
from .tensor import (
    CausalMask,
    Tensor,
    add,
    causal_attention,
    dropout as dropout_op,
    embedding_lookup,
    gelu,
    layer_norm,
    masked_fill,  # noqa: F401  unused here; kept importable from this module
    matmul,
    narrow,
    parameter,
    reshape,
    scale,  # noqa: F401  unused here; kept importable from this module
    softmax,
    take_rows,
    transpose,
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

    Padding sits strictly after each example's end-of-sequence token, so
    under the causal mask it cannot influence any read row. position_ids
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
    """Sum of word row and position row from the joint table, per token.

    Both id sets go through one lookup, so the backward pass scatters into
    a single dense table gradient.
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
    return embedding_lookup(params.embedding, ids, config.vocab_words + pos - 1)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: CausalMask,
    return_weights: bool = False,
):
    """softmax(mask(q k^T / sqrt(d_k))) v over the trailing two dimensions.

    One fused primitive (``tensor.causal_attention``) computes the scores,
    mask, softmax and value product, so the attention weights are the only
    T x T array a call allocates. With ``return_weights`` the weights come
    back as a plain array of shape q.shape[:-1] + (T,).
    """
    out, weights = causal_attention(q, k, v, mask)
    if return_weights:
        return out, weights
    return out


def multi_head_attention(
    x: Tensor,
    block: BlockParameters,
    n_heads: int,
    mask: CausalMask,
    return_weights: bool = False,
):
    """Fused projection to queries, keys and values, independent causal
    attention per head, concatenation, and output projection.
    """
    b, t, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"width {d} not divisible into {n_heads} heads")
    d_head = d // n_heads

    def split_heads(m: Tensor) -> Tensor:
        return transpose(reshape(m, (b, t, n_heads, d_head)), (0, 2, 1, 3))

    qkv = matmul(x, block.w_qkv)
    q = split_heads(narrow(qkv, 0, d))
    k = split_heads(narrow(qkv, d, d))
    v = split_heads(narrow(qkv, 2 * d, d))
    ctx = scaled_dot_product_attention(q, k, v, mask, return_weights=return_weights)
    if return_weights:
        ctx, weights = ctx
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b, t, d))
    out = matmul(merged, block.w_o)
    if return_weights:
        return out, weights
    return out


def position_wise_ffn(x: Tensor, block: BlockParameters) -> Tensor:
    """gelu(x W1 + b1) W2 + b2, applied at every position."""
    return add(matmul(gelu(add(matmul(x, block.w_ffn1), block.b_ffn1)), block.w_ffn2),
               block.b_ffn2)


def decoder_block(
    x: Tensor,
    block: BlockParameters,
    n_heads: int,
    mask: CausalMask,
    eps: float = 1e-5,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual attention then residual feed-forward, each followed by
    layer normalization. Shape is preserved.
    """
    was_2d = x.ndim == 2
    if was_2d:
        x = reshape(x, (1,) + x.shape)
    live_dropout = dropout > 0.0 and rng is not None
    attn = multi_head_attention(x, block, n_heads, mask)
    if live_dropout:
        attn = dropout_op(attn, dropout, rng)
    y = layer_norm(add(x, attn), block.ln1_gain, block.ln1_bias, eps)
    ffn = position_wise_ffn(y, block)
    if live_dropout:
        ffn = dropout_op(ffn, dropout, rng)
    out = layer_norm(add(y, ffn), block.ln2_gain, block.ln2_bias, eps)
    if was_2d:
        out = reshape(out, out.shape[1:])
    return out


def forward_batch(
    batch: Batch,
    params: ModelParameters,
    rng: np.random.Generator | None = None,
    return_hidden: bool = False,
):
    """Class probabilities for every pair in the batch, shape (B, n_classes).

    Dropout fires only when a generator is supplied; calls without one are
    the deterministic inference path. With return_hidden=True also returns
    the embedding output and each block output as plain arrays.
    """
    config = params.config
    if batch.seq_len > config.max_len:
        raise ContractError(
            f"batch length {batch.seq_len} exceeds max_len {config.max_len}"
        )
    x = embed(batch, params)
    hidden = [x.data] if return_hidden else None
    mask = CausalMask(batch.seq_len)
    for block in params.blocks:
        x = decoder_block(
            x, block, config.n_heads, mask,
            eps=config.layer_norm_eps, dropout=config.dropout, rng=rng,
        )
        if return_hidden:
            hidden.append(x.data)
    final = take_rows(x, batch.eos_index)
    logits = add(matmul(final, params.w_cls), params.b_cls)
    probs = softmax(logits, axis=-1)
    if return_hidden:
        return probs, hidden
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
