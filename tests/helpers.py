"""Shared numeric oracles for the test suite.

The finite-difference gradient oracle is deliberately independent of the
package's autodiff: it only calls a black-box scalar function and perturbs
raw float64 arrays.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 1e-5


def numeric_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x.

    x is mutated in place during probing and restored afterwards; it must
    be float64 for the stated accuracy.
    """
    assert x.dtype == np.float64
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-5) -> float:
    """Largest elementwise relative error with a small denominator floor.

    The floor keeps coordinates where both gradients are essentially zero
    from registering as spurious mismatches of finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def dense_grad(grad) -> np.ndarray:
    """A gradient as one full array: a looked-up table's ``RowGrad`` is
    scattered into zeros."""
    from norminfer.tensor import RowGrad

    return grad.dense() if isinstance(grad, RowGrad) else grad


def dot_with(out, upstream):
    """The scalar sum(out * upstream) as one tape record whose pull hands
    ``out`` exactly ``upstream`` as its gradient."""
    from norminfer.tensor import _result

    upstream = np.asarray(upstream, dtype=out.dtype).reshape(out.shape)
    return _result((out,), np.sum(out.data * upstream), lambda g: (g * upstream,))


def reference_attention(q, k, v, upstream=None, causal=True):
    """Causal attention in plain numpy on (..., L, d_head) arrays, as the
    separate steps ``tensor.causal_attention`` fuses: score product,
    scaling, masking, stabilized softmax, value product, each one numpy
    expression in that order. Returns the output and the weights; given
    the output gradient ``upstream``, also the gradients of q, k and v,
    pulled back through the same steps in reverse. Without ``causal`` the
    masking step is left out: a query at the last row sees every key, so
    no mask changes its scores."""
    c = q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    drop = ~np.tri(k.shape[-2], dtype=bool)
    scores = (q @ k.swapaxes(-2, -1)) * c
    if causal:
        scores = np.where(drop, np.finfo(scores.dtype).min, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = weights @ v
    if upstream is None:
        return out, weights
    g_weights = upstream @ v.swapaxes(-2, -1)
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    if causal:
        g_scores = np.where(drop, 0.0, g_scores)
    g_scores = g_scores * c
    g_k = (q.swapaxes(-2, -1) @ g_scores).swapaxes(-2, -1)
    return out, weights, (g_scores @ k, g_k, weights.swapaxes(-2, -1) @ upstream)


def split_heads(rows, n_heads):
    """(n_heads, L, d_head) views of the columns of (L, n_heads * d_head) rows."""
    return rows.reshape(rows.shape[0], n_heads, -1).swapaxes(0, 1)


def merge_heads(heads):
    """(n_heads, L, d_head) to (L, n_heads * d_head) rows."""
    return heads.swapaxes(0, 1).reshape(heads.shape[1], -1)


def reference_packed_attention(qkv, lengths, n_heads, upstream, copies=False, last_only=False):
    """``reference_attention`` run on each packed sequence alone, on the
    (n_heads, L, d_head) head views of its rows of the (N, 3d) array
    ``qkv``, or on contiguous copies of them. With ``upstream`` (N, d) as
    the output gradient, returns the (N, d) output, the per-sequence
    weights and the (N, 3d) gradient of ``qkv``.

    With ``last_only`` only the last row of each sequence queries, with no
    mask: the output and ``upstream`` are (B, d), and the query columns of
    the gradient are zero outside the last rows.
    """
    d = qkv.shape[1] // 3
    outs, weights, grads = [], [], []
    start = 0
    for i, n in enumerate(lengths):
        rows = qkv[start : start + n]
        g_out = upstream[i : i + 1] if last_only else upstream[start : start + n]
        start += n
        q, k, v = (split_heads(rows[:, j * d : (j + 1) * d], n_heads) for j in range(3))
        if last_only:
            q = q[:, -1:]
        if copies:
            q, k, v = q.copy(), k.copy(), v.copy()
        g_heads = np.ascontiguousarray(split_heads(g_out, n_heads))
        out, w, (g_q, g_k, g_v) = reference_attention(q, k, v, g_heads, causal=not last_only)
        outs.append(merge_heads(out))
        weights.append(w)
        g_q = merge_heads(g_q)
        if last_only:
            g_q = np.concatenate([np.zeros((n - 1, d), dtype=qkv.dtype), g_q])
        grads.append(np.concatenate([g_q, merge_heads(g_k), merge_heads(g_v)], axis=1))
    return np.concatenate(outs), weights, np.concatenate(grads)


def reference_gelu(x, upstream):
    """The gelu forward and pull as formulas, which ``tensor._gelu_rows``
    builds in place: (output, input gradient) for the output gradient
    ``upstream``. An ``upstream`` of ones gives the local slope itself."""
    scale, cubic = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(scale * (cubic * x * x * x + x))
    out = (t + 1.0) * 0.5 * x
    du = scale * (1.0 + 3.0 * cubic * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    return out, upstream * local.astype(x.dtype, copy=False)


def reference_ffn(x, w1, b1, w2, b2, upstream):
    """The feed-forward network as the separate numpy steps
    ``tensor.feed_forward`` fuses: product, bias add, ``reference_gelu``,
    product, bias add. Returns the output and the gradients of x, w1, b1,
    w2 and b2 for the output gradient ``upstream``, pulled back through the
    same steps in reverse."""
    pre = x @ w1 + b1
    act, g_pre = reference_gelu(pre, upstream @ w2.T)
    out = act @ w2 + b2
    grads = [g_pre @ w1.T, x.T @ g_pre, g_pre.sum(axis=0), act.T @ upstream, upstream.sum(axis=0)]
    return out, grads


def reference_nll(logits, gold):
    """The loss and its pull as the chain of steps ``training.nll_loss``
    fuses, each as its own formula: shift each row by its max, exp, row sum,
    log, less the shifted gold entry, mean; the pull is the softmax of the
    shifted rows less the one-hot gold rows, over the batch size. (value,
    logit gradient) for a loss gradient of one."""
    dtype = logits.dtype
    rows = np.arange(len(gold))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    value = np.asarray((np.log(e.sum(axis=1)) - shifted[rows, gold]).mean(), dtype=dtype)
    onehot = np.zeros_like(logits)
    onehot[rows, gold] = 1
    grad = (e / e.sum(axis=1, keepdims=True) - onehot) * (np.ones((), dtype=dtype) / len(gold))
    return value, grad


def reference_layer_norm(x, gain, bias, eps, upstream):
    """The layer-norm forward and pull as formulas, which
    ``tensor.layer_norm`` builds in place: (output, input, gain and bias
    gradients) for the output gradient ``upstream``."""
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = centered * inv
    out = gain * xhat + bias
    g = upstream
    lead = tuple(range(g.ndim - 1))
    g_hat = g * gain
    gx = (inv / n) * (
        n * g_hat
        - g_hat.sum(axis=-1, keepdims=True)
        - xhat * (g_hat * xhat).sum(axis=-1, keepdims=True)
    )
    return out, gx.astype(x.dtype, copy=False), (g * xhat).sum(axis=lead), g.sum(axis=lead)


def build_toy_config(vocab_words=24, n_blocks=2, n_heads=2, d_model=8, max_len=16, **kw):
    from norminfer.model import ModelConfig

    return ModelConfig(
        vocab_words=vocab_words,
        n_blocks=n_blocks,
        n_heads=n_heads,
        d_model=d_model,
        max_len=max_len,
        **kw,
    )


def build_toy_params(config, seed=0, dtype=np.float32):
    from norminfer.model import ModelParameters

    return ModelParameters.initialize(config, np.random.default_rng(seed), dtype=dtype)


def build_random_pair(rng, config, t=None, label_id=None):
    """An EncodedPair with random in-vocabulary ids ending in end-of-sequence."""
    from norminfer.text import EOS_ID, EncodedPair

    if t is None:
        t = int(rng.integers(2, config.max_len + 1))
    ids = rng.integers(3, config.vocab_words, size=t).astype(np.int64)
    ids[-1] = EOS_ID
    return EncodedPair(
        token_ids=ids,
        premise_len=max(1, (t - 1) // 2),
        truncated=False,
        label_id=label_id,
    )


CORPUS_PLACES = ("park", "street", "kitchen", "garden", "market", "river")
CORPUS_NOUNS = ("dog", "man", "woman", "child", "bird", "runner")
CORPUS_VERBS = ("walking", "sleeping", "eating", "running", "singing", "waiting")


def make_corpus(n, seed=0):
    """Small labeled corpus with a learnable surface cue per class."""
    from norminfer.text import CLASSES, NliExample

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        noun = CORPUS_NOUNS[rng.integers(len(CORPUS_NOUNS))]
        verb = CORPUS_VERBS[rng.integers(len(CORPUS_VERBS))]
        place = CORPUS_PLACES[rng.integers(len(CORPUS_PLACES))]
        premise = f"a {noun} is {verb} in the {place}"
        label = CLASSES[rng.integers(3)]
        if label == "entailment":
            hypothesis = f"a {noun} is {verb}"
        elif label == "contradiction":
            hypothesis = f"a {noun} is not {verb}"
        else:
            other = CORPUS_PLACES[(CORPUS_PLACES.index(place) + 1) % len(CORPUS_PLACES)]
            hypothesis = f"a {noun} is {verb} in the {other}"
        out.append(NliExample(premise=premise, hypothesis=hypothesis, label=label))
    return out


def fit_tiny_classifier(**overrides):
    """A quickly trained classifier for plumbing tests; accuracy is not the point."""
    from norminfer.estimator import NliClassifier

    kw = dict(
        n_blocks=1,
        n_heads=2,
        d_model=8,
        max_len=16,
        batch_size=8,
        max_epochs=2,
        seed=7,
    )
    kw.update(overrides)
    return NliClassifier(**kw).fit(make_corpus(24), make_corpus(8, seed=1))


def bundled_word_classifier(d_model=8, seed=3):
    """A one-block classifier over random weights and a vocabulary of every
    word in the bundled norm pairs, so no two of their directions encode
    alike; returns it with the pairs."""
    from norminfer.estimator import NliClassifier
    from norminfer.model import ModelConfig, ModelParameters
    from norminfer.text import (RESERVED_TOKENS, Vocabulary, bundled_conflicts_path,
                                load_norm_conflicts, tokenize)

    records = load_norm_conflicts(bundled_conflicts_path())
    words = {w for r in records for w in tokenize(f"{r.norm_a} {r.norm_b}")}
    vocab = Vocabulary(list(RESERVED_TOKENS) + sorted(words))
    config = ModelConfig(vocab_words=len(vocab), n_blocks=1, n_heads=2, d_model=d_model)
    params = ModelParameters.initialize(config, np.random.default_rng(seed))
    return NliClassifier.from_artifacts(params, vocab), records
