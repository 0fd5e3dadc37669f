"""Inputs and operations of the three benchmark workloads.

Every input is generated here from the workload seed: the vocabulary, the
sentence pairs and the initial parameters. The program under test receives
only those generated inputs, through public functions of ``norminfer``.

A workload object has four steps. ``setup`` builds all inputs (timed as
set-up), ``prepare`` readies one operation outside the timed region,
``run`` is the timed operation, and ``check`` validates its output and
returns a fingerprint that repeats of the operation must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import norminfer
from norminfer import cli
from norminfer.text import RESERVED_TOKENS


@dataclass(frozen=True)
class Scale:
    """Model size and input counts of one benchmark configuration."""

    name: str
    vocab_words: int
    n_blocks: int
    n_heads: int
    d_model: int
    d_ffn: int
    max_len: int
    batch_size: int
    train_pairs: int
    val_pairs: int
    infer_pairs: int
    setup_repeats: int

    def model_config(self) -> "norminfer.ModelConfig":
        return norminfer.ModelConfig(
            vocab_words=self.vocab_words,
            n_blocks=self.n_blocks,
            n_heads=self.n_heads,
            d_model=self.d_model,
            d_ffn=self.d_ffn,
            max_len=self.max_len,
        )

    def train_config(self) -> "norminfer.TrainConfig":
        return norminfer.TrainConfig(max_epochs=1, batch_size=self.batch_size)


# The paper's configuration: 21,900,243 parameters, 62% of them in the
# embedding table, so Adam and the embedding backward run at full size.
PAPER = Scale(
    name="paper", vocab_words=56220, n_blocks=12, n_heads=12, d_model=240,
    d_ffn=960, max_len=360, batch_size=16, train_pairs=64, val_pairs=16,
    infer_pairs=32, setup_repeats=3,
)
# A toy configuration that runs every workload and check in well under a
# second; the smoke test uses it.
TOY = Scale(
    name="toy", vocab_words=400, n_blocks=1, n_heads=2, d_model=8,
    d_ffn=16, max_len=360, batch_size=4, train_pairs=8, val_pairs=4,
    infer_pairs=4, setup_repeats=1,
)

# Token counts, inclusive ranges: the pair length T (with the
# end-of-sequence token) and each sentence's share of it. SNLI-like pairs
# span T = 19..59, median about 40; contract-clause pairs have 30..150
# tokens per sentence, so T = 61..301.
SNLI = ((19, 59), (12, 38), (6, 20))
CLAUSE = ((61, 301), (30, 150), (30, 150))
ZIPF_EXPONENT = 1.0

# Child-seed streams drawn from the workload seed.
STREAM_TRAIN, STREAM_VAL, STREAM_INFER, STREAM_INIT = range(4)

CONFLICT_PAIRS = 14


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def build_vocabulary(vocab_words: int) -> "norminfer.Vocabulary":
    """Reserved tokens, every token of the bundled norm pairs, then filler
    words up to ``vocab_words`` entries. The same for every seed."""
    tokens = list(RESERVED_TOKENS)
    seen = set(tokens)
    for record in norminfer.load_norm_conflicts(norminfer.bundled_conflicts_path()):
        for token in norminfer.tokenize(record.norm_a) + norminfer.tokenize(record.norm_b):
            if token not in seen:
                seen.add(token)
                tokens.append(token)
    index = 0
    while len(tokens) < vocab_words:
        word = f"w{index:05d}"
        index += 1
        if word not in seen:
            seen.add(word)
            tokens.append(word)
    if len(tokens) != vocab_words:
        raise ValueError(
            f"the bundled norm pairs alone need {len(tokens)} vocabulary entries"
        )
    return norminfer.Vocabulary(tokens)


def stratified_lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """n lengths in [lo, hi], one uniform draw from each of n equal strata,
    shuffled. Keeps the total work and the longest pairs nearly the same
    across seeds."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + np.floor(u * (hi - lo + 1)).astype(np.int64)


def split_lengths(rng, totals, first_range, second_range) -> tuple[np.ndarray, np.ndarray]:
    """Split each pair length T into premise and hypothesis token counts,
    T - 1 = premise + hypothesis, each within its range."""
    rest = totals - 1
    lo = np.maximum(first_range[0], rest - second_range[1])
    hi = np.minimum(first_range[1], rest - second_range[0])
    first = lo + np.floor(rng.random(len(totals)) * (hi - lo + 1)).astype(np.int64)
    return first, rest - first


def zipf_sentences(
    rng: np.random.Generator, vocab: "norminfer.Vocabulary", lengths: np.ndarray
) -> list[str]:
    """Sentences of the given token counts; word rank r is drawn with
    probability proportional to r**-ZIPF_EXPONENT in vocabulary order."""
    n_words = len(vocab) - len(RESERVED_TOKENS)
    weights = np.arange(1, n_words + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ids = rng.choice(n_words, size=int(lengths.sum()), p=weights / weights.sum())
    words = vocab.ids_to_tokens((ids + len(RESERVED_TOKENS)).tolist())
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [" ".join(words[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def sentence_pairs(rng, vocab, n, profile) -> list[tuple[str, str]]:
    """n (premise, hypothesis) pairs whose lengths follow ``profile``."""
    pair_range, premise_range, hypothesis_range = profile
    totals = stratified_lengths(rng, n, *pair_range)
    premise_lengths, hypothesis_lengths = split_lengths(rng, totals, premise_range, hypothesis_range)
    return list(zip(zipf_sentences(rng, vocab, premise_lengths),
                    zipf_sentences(rng, vocab, hypothesis_lengths)))


def labeled_pairs(rng, vocab, n, max_len) -> list["norminfer.EncodedPair"]:
    """Encoded SNLI-length pairs with labels spread evenly over the classes."""
    labels = rng.permutation(np.arange(n) % len(norminfer.CLASSES))
    return [
        norminfer.encode_pair(p, h, vocab, max_len=max_len, label=norminfer.CLASSES[y])
        for (p, h), y in zip(sentence_pairs(rng, vocab, n, SNLI), labels)
    ]


def initial_parameters(scale: Scale, seed: int) -> "norminfer.ModelParameters":
    rng = np.random.default_rng([seed, STREAM_INIT])
    return norminfer.ModelParameters.initialize(scale.model_config(), rng)


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class Workload:
    """Base class; subclasses set ``name`` and ``pairs_per_op``."""

    name = ""
    pairs_per_op = 0

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        # per-layer figures measured during set-up, reported by the traced run
        self.setup_layers: dict[str, float] = {}

    def reset(self) -> None:
        """Drop the inputs of the previous set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def run(self):
        raise NotImplementedError

    def check(self, output) -> object:
        raise NotImplementedError


class TrainSnli(Workload):
    """One epoch of ``Trainer.fit`` over SNLI-length pairs from fresh weights."""

    name = "train-snli"

    def reset(self) -> None:
        self.initial = self.params = None

    def setup(self) -> None:
        vocab = build_vocabulary(self.scale.vocab_words)
        max_len = self.scale.max_len
        self.train = labeled_pairs(
            np.random.default_rng([self.seed, STREAM_TRAIN]), vocab, self.scale.train_pairs, max_len
        )
        self.val = labeled_pairs(
            np.random.default_rng([self.seed, STREAM_VAL]), vocab, self.scale.val_pairs, max_len
        )
        self.initial = initial_parameters(self.scale, self.seed)
        self.pairs_per_op = len(self.train)
        self.expected_steps = math.ceil(len(self.train) / self.scale.batch_size)

    def prepare(self) -> None:
        # every fit starts from the same weights, so repeats must agree exactly
        self.params = None
        self.params = self.initial.copy()

    def run(self):
        return norminfer.Trainer(self.scale.train_config()).fit(self.params, self.train, self.val)

    def check(self, result) -> object:
        log = result.log
        require(not log.aborted, "training aborted on a non-finite loss")
        require(len(log.epochs) == 1, f"expected 1 epoch, got {len(log.epochs)}")
        require(
            log.total_steps == self.expected_steps,
            f"expected {self.expected_steps} steps, got {log.total_steps}",
        )
        stats = log.epochs[0]
        values = (stats.train_loss, stats.train_accuracy, stats.val_loss, stats.val_accuracy)
        require(all(math.isfinite(v) for v in values), f"non-finite epoch stats {values}")
        last = result.params.blocks[-1]
        return values, digest(result.params.w_cls.data, last.w_o.data, last.w_ffn2.data)


class InferLong(Workload):
    """Batched ``predict_proba`` over contract-clause-length pairs."""

    name = "infer-long"

    def reset(self) -> None:
        self.classifier = None

    def setup(self) -> None:
        vocab = build_vocabulary(self.scale.vocab_words)
        rng = np.random.default_rng([self.seed, STREAM_INFER])
        self.pairs = sentence_pairs(rng, vocab, self.scale.infer_pairs, CLAUSE)
        self.classifier = norminfer.NliClassifier.from_artifacts(
            initial_parameters(self.scale, self.seed), vocab, batch_size=self.scale.batch_size
        )
        self.pairs_per_op = len(self.pairs)

    def run(self):
        return self.classifier.predict_proba(self.pairs)

    def check(self, probs) -> object:
        n_classes = len(norminfer.CLASSES)
        require(
            probs.shape == (len(self.pairs), n_classes),
            f"probabilities have shape {probs.shape}",
        )
        require(bool(np.isfinite(probs).all()), "non-finite probabilities")
        # rows are float32 softmax outputs: each of the three terms is off
        # by at most one float32 rounding
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        require(worst <= 4 * np.finfo(np.float32).eps, f"a row sums to 1 {worst:+.3g}")
        return digest(probs)


class ConflictsCli(Workload):
    """In-process ``analyze-conflicts`` calls on the bundled norm pairs."""

    name = "conflicts-cli"
    pairs_per_op = 2 * CONFLICT_PAIRS  # both reading directions of each pair

    def setup(self) -> None:
        vocab = build_vocabulary(self.scale.vocab_words)
        params = initial_parameters(self.scale, self.seed)
        self.checkpoint = self.workdir / cli.CHECKPOINT_FILE
        self.vocab_path = self.workdir / cli.VOCAB_FILE
        self.out_dir = self.workdir / "report"
        vocab.save(self.vocab_path)
        start = time.perf_counter()
        norminfer.save_checkpoint(
            params, {"vocab_sha256": vocab.content_hash()}, self.checkpoint
        )
        self.setup_layers["persistence.save_s"] = time.perf_counter() - start
        self.setup_layers["persistence.checkpoint_mb"] = self.checkpoint.stat().st_size / 2**20
        self.argv = [
            "analyze-conflicts",
            "--checkpoint", str(self.checkpoint),
            "--vocab", str(self.vocab_path),
            "--output-dir", str(self.out_dir),
        ]

    def prepare(self) -> None:
        # the check must read this call's report, not the previous one's
        (self.out_dir / cli.REPORT_CSV_FILE).unlink(missing_ok=True)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli(self.argv)
        return code, err.getvalue()

    def check(self, output) -> object:
        code, err = output
        require(code == cli.EXIT_OK, f"run_cli returned {code}: {err.strip()}")
        data = (self.out_dir / cli.REPORT_CSV_FILE).read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        require(len(rows) == CONFLICT_PAIRS, f"report has {len(rows)} rows")
        types = {row["conflict_type"] for row in rows}
        require(
            types == set(norminfer.CONFLICT_TYPES),
            f"report covers conflict types {sorted(types)}",
        )
        return hashlib.sha256(data).hexdigest()


WORKLOADS = {w.name: w for w in (TrainSnli, InferLong, ConflictsCli)}
