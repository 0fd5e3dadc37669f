"""Minimal reverse-mode automatic differentiation over numpy arrays.

The module provides exactly the operations the decoder classifier needs:
dense and batched matrix products, broadcast addition for biases, embedding
row gathers, causal masking, a numerically stabilized softmax, the tanh
form of the gaussian error linear unit, layer normalization, and the scalar
reductions used by the loss.

Gradients are computed with a tape. While a :class:`GradTape` is active,
every primitive that touches a tensor requiring gradients appends one record
in execution order. ``GradTape.backward`` walks those records exactly once in
reverse, accumulating adjoints additively, so a value consumed by several
later operations receives the sum of the gradients from each use. With no
active tape the primitives run plain numpy with no bookkeeping, which is the
inference path.

Dense products of a batched input with a 2-d weight fold every leading
dimension into rows, so the forward pass and both gradients are one matrix
product each. An embedding lookup may gather several id sets at once and
scatters its gradient into a single dense table with a sorted segment sum.
Leaf gradients left by ``backward`` are writeable and never shared between
two leaves, so an optimizer may clip them in place.

Forward compute defaults to float32. Gradient checking runs the same code in
float64 by constructing the inputs with ``dtype=np.float64``; every primitive
inherits the dtype of its tensor inputs and mixing dtypes is an error.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .base import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_GELU_SCALE = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


class Tensor:
    """A numpy array plus gradient metadata.

    ``grad`` stays ``None`` until a backward pass deposits into it. The
    flat buffer invariant (element count equals the product of the shape)
    is inherited from the backing ndarray.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, neg(other))

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


class _TapeRecord:
    __slots__ = ("inputs", "output", "pull")

    def __init__(self, inputs, output, pull):
        self.inputs = inputs
        self.output = output
        self.pull = pull


class GradTape:
    """Ordered record of primitive operations for one backward pass.

    Execution order is a topological order of the data flow, so replaying
    the records back to front visits each operation exactly once with the
    full adjoint of its output already accumulated.
    """

    def __init__(self):
        self._records: list[_TapeRecord] = []

    def __enter__(self) -> "GradTape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPES.remove(self)

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, inputs: tuple[Tensor, ...], output: Tensor, pull: Callable) -> None:
        self._records.append(_TapeRecord(inputs, output, pull))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every recorded tensor that requires it.

        ``loss`` must be a scalar (a single-element tensor); seeding the
        adjoint of a non-scalar output is not defined for this tape.
        """
        if loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        produced = {id(rec.output) for rec in self._records}
        held: set[int] = set()
        loss.grad = np.ones_like(loss.data)
        for rec in reversed(self._records):
            g_out = rec.output.grad
            if g_out is None:
                continue
            grads = rec.pull(g_out)
            for tensor, grad in zip(rec.inputs, grads):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor.grad is not None:
                    tensor.grad = tensor.grad + grad
                elif id(tensor) in produced:
                    tensor.grad = grad
                else:
                    tensor.grad = _leaf_grad(grad, held)

    def clear(self) -> None:
        self._records.clear()


_ACTIVE_TAPES: list[GradTape] = []


def _leaf_grad(grad: np.ndarray, held: set[int]) -> np.ndarray:
    """First gradient of a leaf, copied if read-only (a broadcast view) or
    if its memory already backs another leaf's gradient, e.g. both inputs of
    an ``add``. ``held`` collects the memory owners handed out so far.
    """
    owner = id(grad if grad.base is None else grad.base)
    if not grad.flags.writeable or owner in held:
        grad = grad.copy()
        owner = id(grad)
    held.add(owner)
    return grad


def backward(loss: Tensor) -> None:
    """Run the most recently opened tape backward from ``loss``."""
    if not _ACTIVE_TAPES:
        raise ContractError("backward called with no active GradTape")
    _ACTIVE_TAPES[-1].backward(loss)


def _result(inputs: tuple[Tensor, ...], data: np.ndarray, pull: Callable) -> Tensor:
    """Wrap a primitive result, recording it if a tape is listening."""
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs, dtype=data.dtype)
    if needs and _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1]._record(inputs, out, pull)
    return out


def _check_dtypes(*tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"mixed tensor dtypes {sorted(map(str, dtypes))}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting (used for bias rows)."""
    _check_dtypes(a, b)
    data = a.data + b.data

    def pull(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result((a, b), data, pull)


def neg(x: Tensor) -> Tensor:
    return _result((x,), -x.data, lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting."""
    _check_dtypes(a, b)
    data = a.data * b.data

    def pull(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _result((a, b), data, pull)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar, kept in the tensor's dtype."""
    c = x.dtype.type(factor)
    return _result((x,), x.data * c, lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading dimensions broadcast as in numpy.

    Covers the dense case, a 2-d ``b`` applied at every leading index of
    ``a``, and the batched case with head and batch dimensions in front of
    both operands. The contraction dimensions must agree.

    A dense product folds the leading dimensions of ``a`` into rows: the
    forward pass is one (rows, k) x (k, n) product, and the weight gradient
    is one ``a^T g`` product rather than a product per leading index summed
    afterwards.
    """
    _check_dtypes(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul contraction mismatch: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def dense_pull(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

        return _result((a, b), data, dense_pull)
    data = a.data @ b.data

    def pull(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-2, -1), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-2, -1) @ g, b.shape)
        return ga, gb

    return _result((a, b), data, pull)


def narrow(x: Tensor, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start + length) of the last dimension."""
    n = x.shape[-1]
    if not (0 <= start and start + length <= n):
        raise ShapeError(
            f"narrow range [{start}, {start + length}) exceeds last dim of {x.shape}"
        )
    data = x.data[..., start : start + length]

    def pull(g):
        gx = np.zeros_like(x.data)
        gx[..., start : start + length] = g
        return (gx,)

    return _result((x,), data, pull)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)
    return _result((x,), data, lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _result((x,), x.data.transpose(axes), lambda g: (g.transpose(inverse),))


def embedding_lookup(table: Tensor, ids: np.ndarray, *more_ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` at integer ids; output shape ids.shape + (d,).

    With several id arrays of one shape, the output is the sum of their
    rows, added in argument order. The backward pass builds one dense
    table gradient: the incoming row gradients of every id set are stably
    sorted by id and summed per run of equal ids (``np.add.reduceat``),
    then written once into each distinct row. Repeated ids therefore
    accumulate in order of occurrence, and rows never looked up stay zero.
    """
    id_sets = tuple(np.asarray(i) for i in (ids,) + more_ids)
    for id_set in id_sets:
        if not np.issubdtype(id_set.dtype, np.integer):
            raise ContractError(f"embedding ids must be integers, got {id_set.dtype}")
        if id_set.shape != id_sets[0].shape:
            raise ShapeError(
                f"embedding id arrays differ in shape: {id_set.shape} vs {id_sets[0].shape}"
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
        gt = np.zeros_like(table.data)
        flat = np.concatenate([id_set.reshape(-1) for id_set in id_sets])
        if not flat.size:
            return (gt,)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        g_rows = g.reshape((-1,) + table.shape[1:])
        gt[sorted_ids[starts]] = np.add.reduceat(
            g_rows[order % id_sets[0].size], starts, axis=0
        )
        return (gt,)

    return _result((table,), data, pull)


def take_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select ``x[i, indices[i]]`` for each leading index i.

    For a (B, T, d) tensor this picks one row per batch element, giving
    (B, d); for a (B, C) tensor it picks one scalar per row, giving (B,).
    """
    indices = np.asarray(indices)
    if x.ndim < 2:
        raise ShapeError(f"take_rows needs rank >= 2, got {x.shape}")
    if indices.shape != (x.shape[0],):
        raise ShapeError(
            f"take_rows indices shape {indices.shape} does not match leading dim of {x.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= x.shape[1]):
        raise ContractError(
            f"take_rows index out of range [0, {x.shape[1]}): "
            f"min {indices.min()}, max {indices.max()}"
        )
    rows = np.arange(x.shape[0])
    data = x.data[rows, indices]

    def pull(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, indices), g)
        return (gx,)

    return _result((x,), data, pull)


@lru_cache(maxsize=64)
def _keep_matrix(size: int) -> np.ndarray:
    return np.tril(np.ones((size, size), dtype=bool))


class CausalMask:
    """Keep-matrix for causal attention over a length ``size`` sequence.

    Position i may attend to positions j <= i only.
    """

    __slots__ = ("size", "keep")

    def __init__(self, size: int):
        if size < 1:
            raise ContractError(f"mask size must be >= 1, got {size}")
        self.size = size
        self.keep = _keep_matrix(size)


def masked_fill(scores: Tensor, mask: CausalMask) -> Tensor:
    """Replace disallowed attention scores with the most negative finite value.

    The fill value is finite rather than IEEE -inf so the stabilized softmax
    never forms inf - inf. After softmax the filled positions underflow to
    exactly zero weight.
    """
    if scores.ndim < 2 or scores.shape[-1] != scores.shape[-2]:
        raise ShapeError(f"masked_fill needs square trailing dims, got {scores.shape}")
    if scores.shape[-1] != mask.size:
        raise ShapeError(
            f"mask size {mask.size} does not match score shape {scores.shape}"
        )
    fill = np.finfo(scores.dtype).min
    data = np.where(mask.keep, scores.data, fill)

    def pull(g):
        return (np.where(mask.keep, g, 0.0),)

    return _result((scores,), data, pull)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax: shifts by the slice max before exponentiating."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def pull(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _result((x,), data, pull)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit in its tanh form.

    gelu(x) = 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
    """
    d = x.data
    u = _GELU_SCALE * (d + _GELU_CUBIC * d * d * d)
    t = np.tanh(u)
    data = 0.5 * d * (1.0 + t)

    def pull(g):
        du = _GELU_SCALE * (1.0 + 3.0 * _GELU_CUBIC * d * d)
        local = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * du
        return (g * local.astype(d.dtype, copy=False),)

    return _result((x,), data.astype(d.dtype, copy=False), pull)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean and unit variance, then
    apply a learned elementwise gain and bias.

    Variance is the population variance over the last dimension; ``eps``
    sits inside the square root.
    """
    _check_dtypes(x, gain, bias)
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must be ({n},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = centered * inv
    data = gain.data * xhat + bias.data

    def pull(g):
        g_gain = (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        g_bias = g.sum(axis=tuple(range(g.ndim - 1)))
        g_hat = g * gain.data
        gx = (inv / n) * (
            n * g_hat
            - g_hat.sum(axis=-1, keepdims=True)
            - xhat * (g_hat * xhat).sum(axis=-1, keepdims=True)
        )
        return gx.astype(x.dtype, copy=False), g_gain, g_bias

    return _result((x, gain, bias), data, pull)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)
    return _result((x,), data, lambda g: (g / x.data,))


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); gradient passes only where x > floor."""
    f = x.dtype.type(floor)
    data = np.maximum(x.data, f)
    passed = x.data > f
    return _result((x,), data, lambda g: (np.where(passed, g, 0.0),))


def mean(x: Tensor) -> Tensor:
    """Mean over all elements, returned as a scalar tensor."""
    data = np.asarray(x.data.mean(), dtype=x.dtype)

    def pull(g):
        return (np.broadcast_to(g / x.data.size, x.shape).astype(x.dtype, copy=False),)

    return _result((x,), data, pull)


def total(x: Tensor) -> Tensor:
    """Sum over all elements, returned as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=x.dtype)

    def pull(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)

    return _result((x,), data, pull)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, rescale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    inv = x.dtype.type(1.0 / (1.0 - p))
    data = x.data * keep * inv
    return _result((x,), data, lambda g: (g * keep * inv,))


def parameter(data, dtype=None) -> Tensor:
    """A leaf tensor that accumulates gradients; dtype of the data is kept."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()
