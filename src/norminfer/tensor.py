"""Minimal reverse-mode automatic differentiation over numpy arrays.

The module provides the operations the decoder classifier runs: dense
matrix products with a weight, bias addition, embedding row gathers, fused
causal attention and feed-forward primitives, layer normalization of a
residual sum, and dropout. The loss, a fused log-softmax of the head's
logits, is one primitive of its own, ``training.nll_loss``.

Gradients are computed with a tape. While a :class:`GradTape` is open in
the current thread (and not suspended by ``untaped``), every primitive that
touches a tensor requiring gradients appends one record in execution order.
``GradTape.backward`` walks those records exactly once in reverse,
accumulating adjoints additively, so a value consumed by several later
operations receives the sum of the gradients from each use, and releases
each record once pulled, so activations are freed during the pass. With no
active tape the primitives run plain numpy with no bookkeeping, which is
the inference path.

The primitives take the shapes the model passes them, packed (N, d) rows
and 1-d ids, and any other shape is a ShapeError. ``matmul`` multiplies
(N, k) rows by a (k, n) weight. ``add`` sums two operands of one shape, or
(N, n) rows and a bias row (n,). ``layer_norm`` normalizes (N, d) rows.
``embedding_lookup`` gathers rows at 1-d ids, also at several id arrays
of one length at once. Its gradient is a :class:`RowGrad` of sorted
segment sums, one per distinct row read, which a leaf table keeps unless a
second gradient makes it dense.
``backward`` returns the gradients of the leaves, keyed by tensor; the
adjoint of any other tensor lives in the same local dict only until its
record is pulled. No gradient is stored on a tensor, so two tapes may
share leaves, each in its own thread. The returned arrays are writeable
and never shared between two leaves, so an optimizer may clip them in
place.

Causal attention is one primitive, ``causal_attention``, rather than a chain
of head split, score product, scaling, masking, softmax, value product and
head merge. It works on packed sequences: the fused query/key/value rows of
several sequences laid end to end in one (N, 3d) array, so padding is never
computed. Heads are split and merged through strided views. As in
FlashAttention (Dao et al., 2022), each sequence runs in query-row tiles of
at most ``TILE_ELEMENTS`` weights, filled in place from the score product
to the value product; rows [r0, r1) score only the keys [0, r1) they can
see. Every tile is weighed in one reused buffer, copied into a sequence's
own (H, L, L) weights array only when the caller asks for the weights,
and a tape's backward pass reruns the tiles, as gradient checkpointing
does (Chen et al., 2016). With ``last_only`` each sequence runs just one
tile, its last row against all its keys, on the same (N, 3d) input: that
is all a reader of the end-of-sequence rows needs. A sequence of one tile gets
the bits of the separate numpy steps (score product, scaling, masking,
softmax, value product) on it alone; longer ones differ by float32
rounding.

The position-wise feed-forward network, gelu(x W1 + b1) W2 + b2, is one
primitive too, ``feed_forward``. Its hidden layer is wider than its input
(four times, by default), so without a recording tape it runs over tiles
of rows, each at most ``TILE_ELEMENTS`` hidden activations, and never
holds a full-size hidden array. Under a tape it keeps one, the biased
pre-activation, from which its backward pass recomputes the gelu output
and slope.

Every loop over a large array in blocks of rows, these two and, outside
this module, the Adam update and the initial-weight draws, takes its tiles
from one rule, ``row_tiles``, and so from the one ``TILE_ELEMENTS``.

``layer_norm`` is the whole add & norm step, LayerNorm(x + Sublayer(x)),
and hands one gradient to both summands. It, the other elementwise passes
and ``feed_forward``'s gelu kernel, ``_gelu_rows``, work in place in a few
buffers, in the operation order of their textbook formulas, so they give
the bits those formulas give.

Forward compute defaults to float32. Gradient checking runs the same code in
float64 by constructing the inputs with ``dtype=np.float64``; every primitive
inherits the dtype of its tensor inputs and mixing dtypes is an error.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .base import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
# elements per tile of ``row_tiles``: 512 KiB of float32
TILE_ELEMENTS = 1 << 17


class Tensor:
    """A numpy array and whether a tape records gradients for it.

    A tensor holds no gradient; ``GradTape.backward`` returns them. Its
    hash is its identity. The flat buffer invariant (element count equals
    the product of the shape) is inherited from the backing ndarray.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class RowGrad:
    """Gradient of a table that is zero outside some rows: the sorted
    distinct ``rows`` and their ``values``, (len(rows),) + the row shape,
    of a table of ``shape``."""

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows, self.values, self.shape = rows, values, tuple(shape)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.rows] = self.values
        return out


class GradTape:
    """Ordered record of primitive operations for one backward pass.

    Execution order is a topological order of the data flow, so replaying
    the records back to front visits each operation exactly once with the
    full adjoint of its output already accumulated. ``len`` counts the
    records made, also once ``backward`` has released them.
    """

    def __init__(self):
        # (inputs, output, pull) per recorded call, None once pulled
        self._records: list[tuple | None] = []
        self._pulled = False

    def __enter__(self) -> "GradTape":
        _ACTIVE_TAPES.set(_ACTIVE_TAPES.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPES.set(tuple(t for t in _ACTIVE_TAPES.get() if t is not self))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor, seed: float = 1.0) -> dict[Tensor, np.ndarray | RowGrad]:
        """The gradient of ``seed`` times ``loss`` for every recorded leaf
        tensor that requires one, keyed by tensor.

        ``loss`` must be a scalar (a single-element tensor). Each record is
        dropped once pulled, with the activations its pull holds, and so is
        the adjoint of its output, so a tape runs backward once. Only a leaf
        with one gradient keeps a :class:`RowGrad` as it is.
        """
        if self._pulled:
            raise ContractError("backward already ran on this tape, which released its records")
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        self._pulled = True
        records = self._records
        produced = {id(output) for _, output, _ in records}
        held: set[int] = set()
        grads: dict[Tensor, np.ndarray | RowGrad] = {loss: np.full_like(loss.data, seed)}
        for i in reversed(range(len(records))):
            (inputs, output, pull), records[i] = records[i], None
            g_out = grads.pop(output, None)
            if g_out is None:
                continue
            for tensor, grad in zip(inputs, pull(g_out)):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor in grads:
                    grads[tensor] = _dense(grads[tensor]) + _dense(grad)
                elif id(tensor) in produced:
                    grads[tensor] = _dense(grad)
                else:
                    grads[tensor] = grad if isinstance(grad, RowGrad) else _leaf_grad(grad, held)
        return grads  # each non-leaf's adjoint went with its record


# Open tapes, innermost last. A context variable keeps them per thread (and
# per asyncio task), so inference in one thread never records onto a tape
# another thread is training with.
_ACTIVE_TAPES: ContextVar[tuple[GradTape, ...]] = ContextVar("active_tapes", default=())


@contextmanager
def untaped() -> Iterator[None]:
    """Suspend the open tapes of this context: nothing inside records."""
    token = _ACTIVE_TAPES.set(())
    try:
        yield
    finally:
        _ACTIVE_TAPES.reset(token)


def _dense(grad: np.ndarray | RowGrad) -> np.ndarray:
    return grad.dense() if isinstance(grad, RowGrad) else grad


def _leaf_grad(grad: np.ndarray, held: set[int]) -> np.ndarray:
    """First gradient of a leaf, copied if its memory already backs another
    leaf's gradient, e.g. both inputs of an ``add``. ``held`` collects the
    memory owners handed out so far.
    """
    owner = id(grad if grad.base is None else grad.base)
    if owner in held:
        grad = grad.copy()
        owner = id(grad)
    held.add(owner)
    return grad


def _recording(inputs: tuple[Tensor, ...]) -> GradTape | None:
    """The innermost open tape, if any of ``inputs`` requires a gradient."""
    tapes = _ACTIVE_TAPES.get()
    return tapes[-1] if tapes and any(t.requires_grad for t in inputs) else None


def _result(inputs: tuple[Tensor, ...], data: np.ndarray, pull: Callable) -> Tensor:
    """Wrap a primitive result, recording it if a tape is listening."""
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs), dtype=data.dtype)
    tape = _recording(inputs)
    if tape is not None:
        tape._records.append((inputs, out, pull))
    return out


def _check_dtypes(*tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"mixed tensor dtypes {sorted(map(str, dtypes))}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of ``a`` and ``b`` of its shape, or of (N, n) rows
    ``a`` and a bias row ``b`` (n,); any other pair is a ShapeError."""
    _check_dtypes(a, b)
    bias = a.ndim == 2 and b.shape == a.shape[1:]
    if b.shape != a.shape and not bias:
        raise ShapeError(f"add needs b of a's shape or a bias row, got {a.shape} + {b.shape}")
    return _result((a, b), a.data + b.data, lambda g: (g, g.sum(axis=0) if bias else g))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of rows ``a`` (N, k) and a weight ``b`` (k, n); any other
    pair of shapes is a ShapeError. The weight gradient is one ``a^T g``
    product."""
    _check_dtypes(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs a (N, k) @ b (k, n), got {a.shape} @ {b.shape}")
    return _result((a, b), a.data @ b.data, lambda g: (g @ b.data.T, a.data.T @ g))


def embedding_lookup(table: Tensor, ids: np.ndarray, *more_ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` at 1-d integer ids; output shape (len(ids), d).

    With several id arrays of one length, the output is the sum of their
    rows, added in argument order. The table gradient is a
    :class:`RowGrad`: the incoming row gradients of every id set are stably
    sorted by id and summed per run of equal ids (``np.add.reduceat``), one
    value row per distinct id read. Rows never looked up are left out.
    """
    id_sets = tuple(np.asarray(i) for i in (ids,) + more_ids)
    for id_set in id_sets:
        if not np.issubdtype(id_set.dtype, np.integer):
            raise ContractError(f"embedding ids must be integers, got {id_set.dtype}")
        if id_set.ndim != 1 or id_set.shape != id_sets[0].shape:
            raise ShapeError(
                f"embedding ids must be 1-d, of one length: {id_set.shape}, {id_sets[0].shape}"
            )
        if id_set.size and (id_set.min() < 0 or id_set.max() >= table.shape[0]):
            raise ContractError(
                f"embedding id out of range [0, {table.shape[0]}): "
                f"min {id_set.min()}, max {id_set.max()}"
            )
    data = table.data[id_sets[0]]
    for id_set in id_sets[1:]:
        data += table.data[id_set]

    def pull(g):
        flat = np.concatenate(id_sets)
        if not flat.size:
            return (RowGrad(flat, g, table.shape),)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        values = np.add.reduceat(g[order % id_sets[0].size], starts, axis=0)
        return (RowGrad(sorted_ids[starts], values, table.shape),)

    return _result((table,), data, pull)


@lru_cache(maxsize=64)
def _causal_matrix(size: int) -> np.ndarray:
    """Read-only (size, size) mask, True where key j is past query i."""
    mask = ~np.tri(size, dtype=bool)
    mask.flags.writeable = False
    return mask


def row_tiles(rows: int, row_elements: int) -> tuple[list[int], int]:
    """Bounds of balanced tiles over ``rows`` rows of ``row_elements``
    elements each, and the tallest tile's height. Heights differ by at most
    one, and a tile holds at most ``TILE_ELEMENTS`` elements or is one row."""
    per_tile = max(1, TILE_ELEMENTS // max(1, row_elements))
    tiles = max(1, -(-rows // per_tile))
    return [rows * i // tiles for i in range(tiles + 1)], -(-rows // tiles)


def causal_attention(
    qkv: Tensor,
    lengths: Sequence[int],
    n_heads: int,
    return_weights: bool = False,
    last_only: bool = False,
):
    """Multi-head causal self attention over packed sequences.

    ``qkv`` holds the fused query, key and value projections of N packed
    rows, shape (N, 3d): the sequences lie one after another, ``lengths``
    long, and attend only within themselves. For each sequence and head,
    softmax(mask(q k^T / sqrt(d / n_heads))) v is computed, and the heads
    are merged back into an (N, d) output tensor. With ``last_only`` only
    each sequence's last row queries, as one tile against all its keys, and
    the output is (B, d), one row per sequence.

    Returns the output, and with ``return_weights`` also each sequence's
    (n_heads, L, L) weights ((n_heads, 1, L) with ``last_only``). Heads are
    split and merged through strided views. Each sequence runs in the
    ``row_tiles`` of its (n_heads, rows, L) weights; rows [r0, r1) score
    keys [0, r1) only, mask just their diagonal block (for a last row
    alone, a 1 x 1 block that masks nothing) and weigh just those keys'
    values. Every tile is weighed in one shared buffer; ``return_weights``
    copies each into its sequence's weights array, zero past the tile's
    keys. A record keeps no weights: its pull reruns
    each sequence's tiles into one buffer. Tiles depend only on a
    sequence's own length. A one-tile sequence
    (n_heads * L**2 <= ``TILE_ELEMENTS``, or any with ``last_only``) gets
    the bits of the score product, scaling, masking, softmax and value
    product, each one numpy expression, on its (n_heads, L, d_head) head
    views; in a longer one, smaller products may take other BLAS kernels
    and move it by float32 rounding. The pull walks each sequence's full
    weights array and gives rows that did not query exact zeros in their
    query columns.
    """
    lengths = [int(n) for n in lengths]
    if qkv.ndim != 2 or qkv.shape[1] % (3 * n_heads):
        raise ShapeError(
            f"qkv must be (N, 3d) with d divisible into {n_heads} heads, got {qkv.shape}"
        )
    if not lengths or min(lengths) < 1 or sum(lengths) != qkv.shape[0]:
        raise ShapeError(
            f"sequence lengths {lengths} must be positive and sum to {qkv.shape[0]} rows"
        )
    d = qkv.shape[1] // 3
    d_head = d // n_heads
    dtype = qkv.dtype
    c = dtype.type(1.0 / np.sqrt(d_head))
    fill = np.finfo(dtype).min
    drop = _causal_matrix(max(lengths))
    starts = np.cumsum([0] + lengths[:-1]).tolist()
    # query rows per sequence, its last ones, and where its output rows start
    queries = [1 if last_only else n for n in lengths]
    outs = np.cumsum([0] + queries[:-1]).tolist()

    def heads(rows: np.ndarray, col: int) -> np.ndarray:
        """(n_heads, L, d_head) view of columns [col, col + d)."""
        cols = rows[:, col : col + d]
        return cols.reshape(-1, n_heads, d_head).swapaxes(0, 1)

    def weigh(tile: np.ndarray, q, k, first: int, r0: int, r1: int) -> None:
        """Softmax weights of query rows [r0, r1) over keys [0, first + r1)
        into ``tile``: score product, scaling, diagonal mask, row max shift,
        exp and row sum divide, in place."""
        np.matmul(q[:, r0:r1], k[:, : first + r1].swapaxes(-2, -1), out=tile)
        tile *= c
        np.copyto(tile[..., first + r0 :], fill, where=drop[: r1 - r0, : r1 - r0])
        tile -= np.fmax.reduce(tile, axis=-1, keepdims=True)
        np.exp(tile, out=tile)
        tile /= tile.sum(axis=-1, keepdims=True)

    data = qkv.data
    out = np.empty((sum(queries), d), dtype=dtype)
    tiles = [row_tiles(m, n_heads * n) for n, m in zip(lengths, queries)]
    size = max(n_heads * height * n for n, (_, height) in zip(lengths, tiles))
    shared = np.empty(size, dtype=dtype)
    weights = []
    for s, n, m, a, (bounds, _) in zip(starts, lengths, queries, outs, tiles):
        seg, first = data[s : s + n], n - m
        q, k, v = heads(seg[first:], 0), heads(seg, d), heads(seg, 2 * d)
        o = heads(out[a : a + m], 0)
        if return_weights:
            weights.append(np.zeros((n_heads, m, n), dtype=dtype))
        for r0, r1 in zip(bounds, bounds[1:]):
            keys = first + r1
            shape = (n_heads, r1 - r0, keys)
            tile = shared[: math.prod(shape)].reshape(shape)
            weigh(tile, q, k, first, r0, r1)
            np.matmul(tile, v[:, :keys], out=o[:, r0:r1])
            if return_weights:
                weights[-1][:, r0:r1, :keys] = tile

    def pull(g):
        g_qkv = np.empty_like(data)
        size = max(n_heads * m * n for n, m in zip(lengths, queries))
        # the weights, rebuilt tile by tile, their gradient and a product
        bufs = [np.empty(size, dtype=dtype) for _ in range(3)]
        for s, n, m, a, (bounds, _) in zip(starts, lengths, queries, outs, tiles):
            seg, g_rows, first = data[s : s + n], g_qkv[s : s + n], n - m
            q, k, v = heads(seg[first:], 0), heads(seg, d), heads(seg, 2 * d)
            g_seg = heads(g[a : a + m], 0)
            w, gs, prod = (b[: n_heads * m * n].reshape(n_heads, m, n) for b in bufs)
            for r0, r1 in zip(bounds, bounds[1:]):
                w[:, r0:r1, first + r1 :] = 0.0
                weigh(w[:, r0:r1, : first + r1], q, k, first, r0, r1)
            np.matmul(g_seg, v.swapaxes(-2, -1), out=gs)
            np.matmul(w.swapaxes(-2, -1), g_seg, out=heads(g_rows, 2 * d))
            np.multiply(gs, w, out=prod)
            gs -= prod.sum(axis=-1, keepdims=True)
            gs *= w
            gs *= c
            g_rows[:first, :d] = 0.0
            np.matmul(gs, k, out=heads(g_rows[first:], 0))
            np.matmul(q.swapaxes(-2, -1), gs, out=heads(g_rows, d).swapaxes(-2, -1))
        return (g_qkv,)

    result = _result((qkv,), out, pull)
    return (result, weights) if return_weights else result


def _gelu_rows(d: np.ndarray, t: np.ndarray, out: np.ndarray, scratch=None) -> None:
    """Write gelu(d) into ``out``, with ``t`` for its tanh term; ``out`` may
    be ``t``. Given ``scratch``, a pair of buffers shaped as ``d``, then
    write the local slope over ``d``: 0.5 * (1 + t) + 0.5 * d * (1 - t^2)
    * sqrt(2/pi) * (1 + 3 * 0.044715 * d^2). In place, in formula order."""
    np.multiply(_GELU_CUBIC, d, out=t)
    t *= d
    t *= d
    t += d
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    np.add(t, 1.0, out=out)
    out *= 0.5
    out *= d
    if scratch is None:
        return
    du, slope = scratch
    np.multiply(d, 3.0 * _GELU_CUBIC, out=du)
    du *= d
    du += 1.0
    du *= _GELU_SCALE
    np.multiply(d, 0.5, out=slope)
    np.multiply(t, t, out=d)
    np.subtract(1.0, d, out=d)
    slope *= d
    slope *= du
    np.add(t, 1.0, out=d)
    d *= 0.5
    d += slope


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward network, gelu(x W1 + b1) W2 + b2, for
    (N, d) rows ``x``, W1 (d, f) and W2 (f, d_out).

    Without a recording tape the rows run in ``row_tiles`` tiles of hidden
    activations, and every tile reuses two (rows, f) buffers: no (N, f)
    array is allocated. A recording tape gets one record whose products
    run over all N rows and which keeps one (N, f) array, the
    pre-activation. The pull recomputes the gelu output a ``row_tiles`` tile
    at a time, writes its slope over the pre-activation, and then writes g
    W2^T over the gelu output and multiplies the slope in. Both bias adds
    work in place on the product outputs. Taped, the output and the
    gradients are the bits of the separate numpy steps, product, bias add,
    gelu formula, product and bias add, and of their pulls in reverse
    (``tests/helpers.reference_ffn``). Untaped, each tile gives the bits of
    those products over its rows alone. With OpenBLAS 0.3.31, at the model's
    shapes, a tile of five rows or more gave the whole product's bits; a
    tile of one to four rows takes other kernels and may not. At the
    default tile size a tile is that short only when N is, and then the
    one tile is the whole product.
    """
    _check_dtypes(x, w1, b1, w2, b2)
    if (x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(
            f"feed_forward needs x (N, d), w1 (d, f), b1 (f,), w2 (f, e), b2 (e,); got "
            f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}"
        )
    n, f = x.shape[0], w1.shape[1]
    inputs = (x, w1, b1, w2, b2)
    recorded = _recording(inputs) is not None
    bounds, rows = ([0, n], n) if recorded else row_tiles(n, f)
    pre = np.empty((rows, f), dtype=x.dtype)

    def gelu(m: int, t: np.ndarray, act: np.ndarray, scratch=None) -> None:
        """gelu(pre[:m]) into ``act`` (and its slope over ``pre``) by tiles."""
        tiles = row_tiles(m, f)[0]
        for r0, r1 in zip(tiles, tiles[1:]):
            k = r1 - r0
            _gelu_rows(pre[r0:r1], t[:k], act[r0:r1], None if scratch is None else scratch[:, :k])

    height = row_tiles(rows, f)[1]
    t = np.empty((height, f), dtype=x.dtype)
    act = np.empty_like(pre) if recorded else t
    out = np.empty((n, w2.shape[1]), dtype=x.dtype)
    for a, b in zip(bounds, bounds[1:]):
        m = b - a
        np.matmul(x.data[a:b], w1.data, out=pre[:m])
        pre[:m] += b1.data
        gelu(m, t, act)
        np.matmul(act[:m], w2.data, out=out[a:b])
        out[a:b] += b2.data

    def pull(g):
        act, scratch = np.empty_like(pre), np.empty((3, height, f), dtype=pre.dtype)
        gelu(n, scratch[0], act, scratch[1:])
        g_w2 = act.T @ g
        g_pre = np.matmul(g, w2.data.T, out=act)
        g_pre *= pre
        return g_pre @ w1.data.T, x.data.T @ g_pre, g_pre.sum(axis=0), g_w2, g.sum(axis=0)

    return _result(inputs, out, pull)


def layer_norm(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Add & norm: normalize each row of ``x + residual``, both (N, d), to
    zero mean and unit variance, then apply a learned gain and bias (d,).

    Variance is the population variance over the last dimension; ``eps``
    sits inside the square root. The sum is centred in place in the buffer
    that forms it, so the bits are those of ``add`` then the normalization.
    The forward and the backward pass each work in two buffers, in place,
    and ``x`` and ``residual`` get one gradient, as from ``add``.
    """
    _check_dtypes(x, residual, gain, bias)
    row = x.shape[1:]
    if x.ndim != 2 or residual.shape != x.shape or gain.shape != row or bias.shape != row:
        raise ShapeError(
            f"layer_norm needs x and residual (N, d), gain and bias (d,); got "
            f"{x.shape}, {residual.shape}, {gain.shape} and {bias.shape}"
        )
    n = x.shape[1]
    xhat = np.add(x.data, residual.data)
    xhat -= xhat.mean(axis=-1, keepdims=True)
    data = np.multiply(xhat, xhat)
    var = data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def pull(g):
        scratch = np.multiply(g, xhat)
        g_gain = scratch.sum(axis=0)
        g_bias = g.sum(axis=0)
        gx = np.multiply(g, gain.data)
        g_hat_sum = gx.sum(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=scratch)
        np.multiply(xhat, scratch.sum(axis=-1, keepdims=True), out=scratch)
        # (inv / n) * (n * g_hat - sum(g_hat) - xhat * sum(g_hat * xhat))
        gx *= n
        gx -= g_hat_sum
        gx -= scratch
        gx *= inv / n
        return gx, gx, g_gain, g_bias

    return _result((x, residual, gain, bias), data, pull)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p, rescale survivors by 1/(1-p).
    Without a generator, or at p = 0, ``x`` passes through and nothing is drawn."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    inv = x.dtype.type(1.0 / (1.0 - p))
    data = x.data * keep * inv
    return _result((x,), data, lambda g: (g * keep * inv,))


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that accumulates gradients; dtype of the data is kept."""
    return Tensor(data, requires_grad=True, dtype=dtype)
