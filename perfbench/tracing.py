"""Span tracing of norminfer from outside the program.

The tracer replaces public callables at the names their callers look them
up by (``norminfer.training.forward_batch`` for the training loop,
``norminfer.cli.load_checkpoint`` for the CLI, the tensor ops as
``norminfer.model`` imports them), records one span per call in memory,
and reduces the spans to per-layer self times and counts. Spans are
recorded only inside an operation opened with ``Tracer.op``.

Each span's name is the per-layer metric its self time is added to, so
the per-layer self times partition the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path

import numpy as np

ROOT = "op"


def _batch_size(args, result):
    return args[0].size


def _padding(args, result):
    """(padding tokens, batch tokens) of a freshly built batch."""
    total = result.token_ids.size
    return total - int((result.eos_index + 1).sum()), total


def _tape_records(args, result):
    return len(args[0])


def _loss_value(args, result):
    return result.item()


_TENSOR_OPS = {
    "matmul": "tensor.matmul_s",
    "softmax": "tensor.softmax_s",
    "masked_fill": "tensor.masked_fill_s",
    "scale": "tensor.scale_s",
    "gelu": "tensor.gelu_s",
    "layer_norm": "tensor.layer_norm_s",
    "add": "tensor.add_s",
    "embedding_lookup": "tensor.embedding_lookup_s",
    "reshape": "tensor.layout_s",
    "transpose": "tensor.layout_s",
    "narrow": "tensor.layout_s",
    "take_rows": "tensor.layout_s",
}

# (module, attribute as the caller looks it up, span name, observer)
TARGETS = [
    ("norminfer.cli", "run_cli", "cli.self_s", None),
    ("norminfer.cli", "load_checkpoint", "persistence.load_s", None),
    ("norminfer.cli", "analyze_conflicts", "conflicts.analyze_s", None),
    ("norminfer.cli", "format_report", "conflicts.report_s", None),
    ("norminfer.cli", "write_report_csv", "conflicts.report_s", None),
    ("norminfer.cli", "write_report_text", "conflicts.report_s", None),
    ("norminfer.text", "Vocabulary.load", "text.vocab_s", None),
    ("norminfer.text", "Vocabulary.content_hash", "text.vocab_s", None),
    ("norminfer.estimator", "PairEncoder.transform", "text.encode_s", None),
    ("norminfer.estimator", "NliClassifier.predict_proba", "estimator.predict_proba_s", None),
    ("norminfer.estimator", "make_batch", "model.make_batch_s", _padding),
    ("norminfer.estimator", "forward_batch", "model.forward_s", _batch_size),
    ("norminfer.model", "make_batch", "model.make_batch_s", _padding),
    ("norminfer.model", "forward_batch", "model.forward_s", _batch_size),
    ("norminfer.model", "ModelParameters.copy", "training.snapshot_s", None),
    ("norminfer.training", "make_batch", "model.make_batch_s", _padding),
    ("norminfer.training", "forward_batch", "model.forward_s", _batch_size),
    ("norminfer.training", "Trainer.fit", "training.self_s", None),
    ("norminfer.training", "Trainer.evaluate", "training.evaluate_s", None),
    ("norminfer.training", "make_batches", "training.make_batches_s", None),
    ("norminfer.training", "nll_loss", "training.loss_s", _loss_value),
    ("norminfer.training", "count_clamped", "training.loss_s", None),
    ("norminfer.training", "clip_gradients", "training.clip_s", None),
    ("norminfer.training", "AdamOptimizer.__init__", "training.adam_s", None),
    ("norminfer.training", "AdamOptimizer.step", "training.adam_s", None),
    ("norminfer.tensor", "GradTape.backward", "tensor.backward_s", _tape_records),
] + [("norminfer.model", op, name, None) for op, name in _TENSOR_OPS.items()]

# Per-layer self times, seconds per operation.
SELF_TIMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, observed
    value, operation number] while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.ops = 0

    def _wrap(self, fn, name, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0, 0, stack[-1], None, self.ops]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if classes else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, observe))
            else:
                wrapped = self._wrap(original, name, observe)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self):
        """Open one traced operation; every span inside descends from it."""
        span = [ROOT, 0, 0, -1, None, self.ops]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            self.ops += 1

    def write(self, path: Path) -> None:
        lines = ["index\tparent\top\tname\tstart_ns\tend_ns\tvalue"]
        for i, (name, start, end, parent, value, op) in enumerate(self.spans):
            lines.append(f"{i}\t{parent}\t{op}\t{name}\t{start}\t{end}\t{'' if value is None else value}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layers(self, latency) -> tuple[dict[str, float], dict]:
        """Per-layer metrics per traced operation, and the sample behind
        the training-step percentiles.

        ``latency(values)`` summarizes a latency sample as a dict with
        ``p50``, ``tail``, ``tail_percentile`` and ``n``.
        """
        spans = self.spans
        n_ops = max(1, self.ops)
        duration = np.array([s[2] - s[1] for s in spans], dtype=np.float64) / 1e9
        child = np.zeros(len(spans))
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child[span[3]] += duration[i]
        self_time = duration - child

        out = {name: 0.0 for name in SELF_TIMES}
        wall = 0.0
        for i, span in enumerate(spans):
            if span[0] == ROOT:
                wall += duration[i]
            else:
                out[span[0]] += self_time[i]
        accounted = sum(out.values())
        for name in SELF_TIMES:
            out[name] /= n_ops

        names = [s[0] for s in spans]
        forwards = [s for s in spans if s[0] == "model.forward_s"]
        out["model.forward_calls"] = len(forwards) / n_ops
        out["model.pairs_per_call"] = (
            sum(s[4] for s in forwards) / len(forwards) if forwards else 0.0
        )
        padded = [s[4] for s in spans if s[0] == "model.make_batch_s"]
        out["model.pad_frac"] = (
            sum(p for p, _ in padded) / sum(t for _, t in padded) if padded else 0.0
        )
        out["tensor.ops"] = sum(
            1 for n in names if n.startswith("tensor.") and n != "tensor.backward_s"
        ) / n_ops
        backwards = [s[4] for s in spans if s[0] == "tensor.backward_s"]
        out["tensor.tape_records"] = sum(backwards) / len(backwards) if backwards else 0.0

        # A training step runs from the forward_batch call made directly by
        # Trainer.fit to the end of the Adam update that follows it.
        steps, last_loss, step_start = [], 0.0, None
        for span in spans:
            parent = names[span[3]] if span[3] >= 0 else None
            if parent != "training.self_s":
                continue
            if span[0] == "model.forward_s":
                step_start = span[1]
            elif span[0] == "training.loss_s" and span[4] is not None:
                last_loss = span[4]
            elif span[0] == "training.adam_s" and step_start is not None:
                steps.append((span[2] - step_start) / 1e9)
                step_start = None
        out["training.steps"] = len(steps) / n_ops
        out["training.loss_end"] = last_loss
        step_latency = latency(steps)
        out["training.step_p50_s"] = step_latency["p50"]
        out["training.step_tail_s"] = step_latency["tail"]

        reports = names.count("conflicts.analyze_s")
        under_report = sum(1 for s in forwards if names[s[3]] == "conflicts.analyze_s")
        out["conflicts.forward_calls_per_report"] = under_report / reports if reports else 0.0

        out["trace.accounted_frac"] = accounted / wall if wall else 0.0
        out["trace.spans"] = len(spans) / n_ops
        return out, {"training.step": step_latency}
