"""Decoder-only transformer classifier for three-way inference.

A premise-hypothesis pair is a single token sequence ending in the
end-of-sequence token. Word and position vectors live in one joint
embedding table: word rows first, then one row per position starting at
position 1. The sequence passes through a stack of identical blocks, each
applying causally masked multi-head self attention and a position-wise
feed-forward network, both followed by residual addition and layer
normalization in one step. The hidden state of the end-of-sequence token
feeds a linear head whose softmax gives the class probabilities. Since
nothing else reads the last block's output, that block goes on past its
attention with the end-of-sequence rows alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .base import ConfigError, ContractError, check_fields, setting
from .tensor import (
    Tensor,
    add,
    causal_attention,
    dropout as dropout_op,
    embedding_lookup,
    feed_forward,
    layer_norm,
    matmul,
    parameter,
    row_tiles,
    softmax,
)
from .text import EOS_ID, MAX_LEN, EncodedPair

# perfbench/tracing.py wraps these names in this module, so each must exist;
# nothing calls them. ROADMAP item 1 drops this line with those tracer entries.
gelu = masked_fill = narrow = reshape = scale = take_rows = transpose = None

logger = logging.getLogger(__name__)

INIT_STD = 0.02
# tensor groups in the order initialize draws them
_DRAW_ORDER = ("blocks", "embedding", "head")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    d_ffn defaults to four times d_model when omitted. The joint embedding
    table has vocab_words + max_len rows.
    """

    vocab_words: int = setting(lo=3)  # the 3 reserved tokens at least
    n_blocks: int = setting(12)
    n_heads: int = setting(12)
    d_model: int = setting(240)
    d_ffn: int | None = setting(None)
    max_len: int = MAX_LEN
    n_classes: int = setting(3, lo=2)
    layer_norm_eps: float = setting(1e-5, float, lo=0, closed=False)
    dropout: float = setting(0.0, float, lo=0, hi=1)

    def __post_init__(self):
        check_fields(self)
        if self.d_ffn is None:
            self.d_ffn = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def embedding_rows(self) -> int:
        return self.vocab_words + self.max_len

    def to_dict(self) -> dict:
        return asdict(self)


class ParameterSpec(NamedTuple):
    """Shape of one learnable tensor and how ``initialize`` fills it:
    ``"normal"`` draws N(0, 0.02^2), ``"zeros"`` and ``"ones"`` are constant."""

    shape: tuple[int, ...]
    init: str


def _block_shapes(config: ModelConfig) -> dict[str, ParameterSpec]:
    """One block's tensors in ``BlockParameters`` field order."""
    d, f = config.d_model, config.d_ffn
    return {
        "w_qkv": ParameterSpec((d, 3 * d), "normal"),
        "w_o": ParameterSpec((d, d), "normal"),
        "ln1_gain": ParameterSpec((d,), "ones"),
        "ln1_bias": ParameterSpec((d,), "zeros"),
        "w_ffn1": ParameterSpec((d, f), "normal"),
        "b_ffn1": ParameterSpec((f,), "zeros"),
        "w_ffn2": ParameterSpec((f, d), "normal"),
        "b_ffn2": ParameterSpec((d,), "zeros"),
        "ln2_gain": ParameterSpec((d,), "ones"),
        "ln2_bias": ParameterSpec((d,), "zeros"),
    }


def parameter_shapes(config: ModelConfig) -> dict[str, ParameterSpec]:
    """Every learnable tensor by name, in traversal order: the embedding,
    each block's tensors in ``BlockParameters`` field order, then the head.

    This order is the checkpoint manifest order, so changing it changes the
    file format.
    """
    d, c = config.d_model, config.n_classes
    block = _block_shapes(config)
    specs = {"embedding": ParameterSpec((config.embedding_rows, d), "normal")}
    for i in range(config.n_blocks):
        specs.update((f"blocks.{i}.{name}", spec) for name, spec in block.items())
    specs["head.w_cls"] = ParameterSpec((d, c), "normal")
    specs["head.b_cls"] = ParameterSpec((c,), "zeros")
    return specs


def _scalars(specs: dict[str, ParameterSpec]) -> int:
    return sum(math.prod(spec.shape) for spec in specs.values())


def count_parameters(config: ModelConfig) -> int:
    """Learnable scalar count: a one-block model's tensors and one block's
    for each further block, so that no block is enumerated."""
    one_block = parameter_shapes(replace(config, n_blocks=1))
    return _scalars(one_block) + (config.n_blocks - 1) * _scalars(_block_shapes(config))


def _draw_normal(out: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``out`` with N(0, 0.02^2) draws, one ``row_tiles`` tile of rows
    at a time.

    The generator yields the same float64 sequence whether it is asked
    for one tile or for the whole array, so the weights match a one-shot
    draw cast to ``out.dtype``, without a full-size float64 temporary.
    """
    bounds, _ = row_tiles(len(out), math.prod(out.shape[1:]))
    for a, b in zip(bounds, bounds[1:]):
        out[a:b] = rng.normal(0.0, INIT_STD, out[a:b].shape)


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
    def from_arrays(
        cls, config: ModelConfig, arrays: Mapping[str, np.ndarray]
    ) -> "ModelParameters":
        """Parameters wrapping ``arrays`` (no copy), keyed by the names of
        ``parameter_shapes(config)``."""
        def block(i: int) -> BlockParameters:
            return BlockParameters(**{
                f.name: parameter(arrays[f"blocks.{i}.{f.name}"])
                for f in fields(BlockParameters)
            })

        return cls(
            embedding=parameter(arrays["embedding"]),
            blocks=[block(i) for i in range(config.n_blocks)],
            w_cls=parameter(arrays["head.w_cls"]),
            b_cls=parameter(arrays["head.b_cls"]),
            config=config,
        )

    @classmethod
    def initialize(
        cls,
        config: ModelConfig,
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> "ModelParameters":
        """Draw weights from N(0, 0.02^2); biases zero, norm gains one.

        Weights are drawn block by block, then the embedding, then the
        head, so a seed gives the same weights as it always has.
        """
        specs = parameter_shapes(config)
        arrays = {}
        for name in sorted(specs, key=lambda n: _DRAW_ORDER.index(n.split(".")[0])):
            shape, init = specs[name]
            if init == "normal":
                arrays[name] = np.empty(shape, dtype=dtype)
                _draw_normal(arrays[name], rng)
            else:
                arrays[name] = (np.ones if init == "ones" else np.zeros)(shape, dtype=dtype)
        params = cls.from_arrays(config, arrays)
        logger.info(
            "initialized model: %d learnable parameters", params.n_parameters()
        )
        return params

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """(name, tensor) in ``parameter_shapes`` order; serialization
        relies on it."""
        for name in parameter_shapes(self.config):
            *path, attr = name.split(".")
            owner = self.blocks[int(path[1])] if path[:1] == ["blocks"] else self
            yield name, getattr(owner, attr)

    def n_parameters(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())

    @property
    def dtype(self):
        return self.embedding.dtype

    def copy(self) -> "ModelParameters":
        """Deep copy of the weights."""
        return ModelParameters.from_arrays(
            self.config, {name: t.data.copy() for name, t in self.named_tensors()}
        )


@dataclass
class Batch:
    """Packed model input, with no padding.

    ``token_ids`` (N,) holds each pair's tokens up to and including its
    end-of-sequence token, pairs laid end to end in batch order. Pair i
    has ``eos_index[i] + 1`` tokens and its end-of-sequence token at
    offset ``eos_index[i]`` within them.
    """

    token_ids: np.ndarray
    eos_index: np.ndarray
    labels: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.eos_index.shape[0])


def make_batch(pairs: Sequence[EncodedPair]) -> Batch:
    """Packed batch of ``pairs``, each of which must end in the
    end-of-sequence token."""
    if not pairs:
        raise ContractError("cannot build a batch from zero pairs")
    for i, pair in enumerate(pairs):
        if not len(pair) or pair.token_ids[-1] != EOS_ID:
            raise ContractError(f"pair {i} must end in the end-of-sequence token")
    labels = [pair.label_id for pair in pairs]
    return Batch(
        token_ids=np.concatenate([pair.token_ids for pair in pairs], dtype=np.int64),
        eos_index=np.array([len(pair) - 1 for pair in pairs], dtype=np.int64),
        labels=None if None in labels else np.array(labels, dtype=np.int64),
    )


def embedding_ids(batch: Batch, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The joint-table rows each packed token reads, as (word rows, position
    rows); each pair's positions run from 1 to its length."""
    ids, lengths = batch.token_ids, batch.eos_index + 1
    if (ids.ndim != 1 or lengths.ndim != 1 or not lengths.size
            or lengths.min() < 1 or lengths.sum() != ids.size):
        raise ContractError(
            f"eos_index needs one offset >= 0 per pair, the pair lengths summing "
            f"to the {ids.size} packed tokens: got {batch.eos_index}"
        )
    if lengths.max() > config.max_len:
        raise ContractError(f"pair length {lengths.max()} exceeds max_len {config.max_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_words:
        raise ContractError(
            f"token id out of range [0, {config.vocab_words}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    # 0-based position of each token within its pair
    positions = np.arange(ids.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return ids, config.vocab_words + positions


def embed(batch: Batch, params: ModelParameters) -> Tensor:
    """Sum of word row and position row from the joint table, per token.

    The result is packed as ``batch.token_ids`` is, shape (N, d); the rows
    are those of ``embedding_ids``. Both id sets go through one lookup, so
    the table's gradient is one ``RowGrad`` over the distinct rows they
    read.
    """
    return embedding_lookup(params.embedding, *embedding_ids(batch, params.config))


def decoder_block(
    x: Tensor,
    block: BlockParameters,
    config: ModelConfig,
    lengths: Sequence[int],
    rng: np.random.Generator | None = None,
    eos_only: bool = False,
) -> Tensor:
    """Attention, then the feed-forward network, each closed by add & norm,
    LayerNorm(x + Sublayer(x)), over (N, d) packed sequences of ``lengths``
    rows. Shape is preserved, except that with ``eos_only`` only the last
    row of each sequence queries, and the block returns just those (B, d)
    rows. The attention sublayer is one expression, so an untaped block
    frees its (N, 3d) query/key/value projection and (N, d) context before
    the feed-forward step. With the fused primitives it also allocates no
    (N, d_ffn) array, at most one attention tile buffer and no separate
    residual sum. The heads, norm epsilon and dropout rate come from
    ``config``; dropout applies when ``rng`` is given.
    """
    attn = matmul(
        causal_attention(matmul(x, block.w_qkv), lengths, config.n_heads, last_only=eos_only),
        block.w_o,
    )
    attn = dropout_op(attn, config.dropout, rng)
    residual = embedding_lookup(x, np.cumsum(lengths) - 1) if eos_only else x
    y = layer_norm(attn, residual, block.ln1_gain, block.ln1_bias, config.layer_norm_eps)
    ffn = feed_forward(y, block.w_ffn1, block.b_ffn1, block.w_ffn2, block.b_ffn2)
    ffn = dropout_op(ffn, config.dropout, rng)
    return layer_norm(ffn, y, block.ln2_gain, block.ln2_bias, config.layer_norm_eps)


def forward_batch(
    batch: Batch,
    params: ModelParameters,
    rng: np.random.Generator | None = None,
    return_hidden: bool = False,
):
    """Class probabilities for every pair in the batch, shape (B, n_classes).

    Every layer runs on the packed tokens (see ``embed``). The head reads
    only the end-of-sequence rows, so in the last block (``decoder_block``
    with ``eos_only``) only each pair's last row queries, as one attention
    tile against all its rows, and the later steps run on B rows. Training
    takes the same path, and its gradients are exact. Dropout fires only
    when a generator is supplied; calls without one are the deterministic
    inference path. With return_hidden=True every block runs on every row
    instead, and the embedding output and each block output also come back
    as plain packed (N, d) arrays, row for row with ``batch.token_ids``.
    """
    x = embed(batch, params)
    lengths = (batch.eos_index + 1).tolist()
    hidden = [x.data] if return_hidden else None
    for i, block in enumerate(params.blocks):
        x = decoder_block(
            x, block, params.config, lengths, rng=rng,
            eos_only=not return_hidden and i == len(params.blocks) - 1,
        )
        if return_hidden:
            hidden.append(x.data)
    if return_hidden:
        x = embedding_lookup(x, np.cumsum(lengths) - 1)
    probs = softmax(add(matmul(x, params.w_cls), params.b_cls))
    return (probs, hidden) if return_hidden else probs
