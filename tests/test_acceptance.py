"""End-to-end acceptance gate.

Ten numbered criteria, one test each, every test printing a single
pass/fail line (visible under ``pytest -s``). Gradient and causality
checks run in 64-bit mode against independent oracles; the training
criteria use synthetic corpora sized to finish on a laptop. For the
desk-scale criterion a real SNLI pair of files can be supplied through
NORMINFER_SNLI_TRAIN / NORMINFER_SNLI_DEV; without them a generated
corpus in the same JSON-lines format is used.
"""

import csv
import math
import os
import time

import numpy as np
import pytest
from helpers import build_random_pair, dense_grad, make_corpus, max_rel_err

from norminfer.cli import REPORT_CSV_FILE, run_cli
from norminfer.estimator import NliClassifier
from norminfer.model import (
    ModelConfig,
    ModelParameters,
    count_parameters,
    forward_batch,
    make_batch,
    parameter_shapes,
)
from norminfer.persistence import (
    load_checkpoint,
    save_checkpoint,
)
from norminfer.tensor import GradTape, _gelu_rows, causal_attention, parameter
from norminfer.text import (
    CLASSES,
    NliExample,
    bundled_conflicts_path,
    load_norm_conflicts,
    load_snli,
)
from norminfer.training import TrainConfig, Trainer, lr_at, nll_loss

FD_STEP = 1e-5


def conclude(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def fd_at(f, arr: np.ndarray, idx: int, h: float = FD_STEP) -> float:
    orig = arr.flat[idx]
    arr.flat[idx] = orig + h
    fp = f()
    arr.flat[idx] = orig - h
    fm = f()
    arr.flat[idx] = orig
    return (fp - fm) / (2.0 * h)


def test_01_gradient_fidelity():
    """Analytic gradients of the loss match finite differences on 20
    randomized small configurations."""
    rng = np.random.default_rng(20260815)
    started = time.time()
    worst = 0.0
    for trial in range(20):
        n_heads = int(rng.choice([1, 2]))
        d_model = n_heads * int(rng.choice([2, 4, 8]))
        config = ModelConfig(
            vocab_words=12,
            n_blocks=int(rng.choice([1, 2])),
            n_heads=n_heads,
            d_model=d_model,
            max_len=8,
        )
        params = ModelParameters.initialize(
            config, np.random.default_rng(trial), dtype=np.float64
        )
        pairs = [
            build_random_pair(rng, config, t=int(rng.integers(2, 9)))
            for _ in range(2)
        ]
        batch = make_batch(pairs)
        labels = rng.integers(0, 3, size=len(pairs))

        with GradTape() as tape:
            loss = nll_loss(forward_batch(batch, params), labels)
            grads = tape.backward(loss)

        def loss_value():
            return nll_loss(forward_batch(batch, params), labels).item()

        for _, tensor in params.named_tensors():
            size = tensor.data.size
            n_probe = size if size <= 8 else 8
            coords = rng.choice(size, size=n_probe, replace=False)
            analytic = np.array([dense_grad(grads[tensor]).flat[i] for i in coords])
            numeric = np.array([fd_at(loss_value, tensor.data, i) for i in coords])
            worst = max(worst, max_rel_err(analytic, numeric))
    elapsed = time.time() - started
    conclude(
        "01 gradient-fidelity",
        worst < 1e-4 and elapsed < 120.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_causality():
    """Perturbing position j never changes hidden rows before j."""
    config = ModelConfig(vocab_words=12, n_blocks=2, n_heads=2, d_model=8, max_len=8)
    rng = np.random.default_rng(7)
    violations = 0
    for trial in range(100):
        params = (
            ModelParameters.initialize(config, np.random.default_rng(trial), dtype=np.float64)
            if trial % 10 == 0
            else params
        )
        t = int(rng.integers(3, 9))
        pair = build_random_pair(rng, config, t=t)
        j = int(rng.integers(1, t - 1))
        perturbed_ids = pair.token_ids.copy()
        choices = [i for i in range(3, config.vocab_words) if i != perturbed_ids[j]]
        perturbed_ids[j] = rng.choice(choices)
        perturbed = type(pair)(
            token_ids=perturbed_ids,
            premise_len=pair.premise_len,
            truncated=pair.truncated,
            label_id=pair.label_id,
        )
        _, h_base = forward_batch(make_batch([pair]), params, return_hidden=True)
        _, h_pert = forward_batch(make_batch([perturbed]), params, return_hidden=True)
        # hidden layers are packed (N, d): rows before j are the prefix
        for a, b in zip(h_base, h_pert):
            if not np.array_equal(a[:j], b[:j]):
                violations += 1
                break
    conclude("02 causality", violations == 0, f"{violations} violations in 100 trials")


def test_03_attention_oracle():
    """causal_attention equals a per-position loop oracle."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(1, 7))
        d_k = int(rng.integers(1, 5))
        q = rng.normal(size=(t, d_k))
        k = rng.normal(size=(t, d_k))
        v = rng.normal(size=(t, d_k))

        expected = np.zeros_like(v)
        for i in range(t):
            scores = np.array([q[i] @ k[j] for j in range(i + 1)]) / math.sqrt(d_k)
            e = np.exp(scores - scores.max())
            weights = e / e.sum()
            expected[i] = sum(w * v[j] for j, w in enumerate(weights))

        got = causal_attention(parameter(np.concatenate([q, k, v], axis=1)), [t], 1).data
        worst = max(worst, float(np.abs(got - expected).max()))
    conclude("03 attention-oracle", worst < 1e-10, f"max abs diff {worst:.2e}")


def test_04_closed_forms():
    """Activation, loss, and schedule values at analytically known points."""
    x = np.array([0.0, 1.0])
    g = np.empty_like(x)
    _gelu_rows(x, np.empty_like(x), g)
    gelu_zero_ok = g[0] == 0.0
    # tanh-approximation value at 1, computed in 64-bit from its formula
    gelu_one_ok = abs(g[1] - 0.8411919906082768) < 1e-4

    logits = parameter(np.zeros((1, 3), dtype=np.float64))
    nll = nll_loss(logits, np.array([1])).item()
    nll_ok = abs(nll - math.log(3.0)) < 1e-9

    cfg = TrainConfig(base_lr=6.25e-5, warmup_fraction=0.002)
    warmup_end_ok = lr_at(2, 1000, cfg) == 6.25e-5
    total_ok = lr_at(1000, 1000, cfg) == 0.0

    ok = gelu_zero_ok and gelu_one_ok and nll_ok and warmup_end_ok and total_ok
    conclude(
        "04 closed-forms",
        ok,
        f"gelu(1)={g[1]:.10f}, nll={nll:.12f}, "
        f"lr(warmup_end)={lr_at(2, 1000, cfg):.3e}",
    )


def marker_corpus(n=64, seed=0):
    """Pairs whose hypothesis carries an unambiguous class marker word."""
    rng = np.random.default_rng(seed)
    fillers = ["cat", "dog", "sun", "rain", "tree", "rock", "bird", "fish"]
    markers = {"entailment": "green", "contradiction": "red", "neutral": "blue"}
    out = []
    for i in range(n):
        label = CLASSES[i % 3]
        a, b = rng.choice(fillers, size=2)
        out.append(
            NliExample(
                premise=f"the {a} sees the {b}",
                hypothesis=f"signal {markers[label]} {rng.choice(fillers)}",
                label=label,
            )
        )
    return out


def test_05_overfit():
    """The 2-block, 32-wide model memorizes 64 marker pairs."""
    corpus = marker_corpus()
    started = time.time()
    clf = NliClassifier(
        n_blocks=2, n_heads=2, d_model=32, max_len=16,
        batch_size=8, base_lr=3e-3, max_epochs=200, patience_epochs=30, seed=0,
    )
    clf.fit(corpus, corpus)
    accuracy = clf.score(corpus)
    elapsed = time.time() - started
    conclude(
        "05 overfit",
        accuracy >= 0.95 and len(clf.train_log_.epochs) <= 200 and elapsed < 300.0,
        f"train accuracy {accuracy:.3f} after {len(clf.train_log_.epochs)} epochs, "
        f"{elapsed:.1f}s",
    )


def test_06_desk_scale_corpus(tmp_path):
    """Learning signal on a 10k-pair corpus read from JSON-lines files."""
    import json

    train_env = os.environ.get("NORMINFER_SNLI_TRAIN")
    dev_env = os.environ.get("NORMINFER_SNLI_DEV")
    if train_env and dev_env and os.path.isfile(train_env) and os.path.isfile(dev_env):
        train = load_snli(train_env)[:10000]
        val = load_snli(dev_env)[:1000]
        source = "provided SNLI files"
    else:
        for name, n, seed in (("train", 10000, 0), ("val", 1000, 1)):
            lines = [
                json.dumps(
                    {
                        "sentence1": e.premise,
                        "sentence2": e.hypothesis,
                        "gold_label": e.label,
                    }
                )
                for e in make_corpus(n, seed=seed)
            ]
            (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        train = load_snli(tmp_path / "train.jsonl")
        val = load_snli(tmp_path / "val.jsonl")
        source = "generated corpus"
    assert len(train) == 10000

    clf = NliClassifier(
        n_blocks=2, n_heads=2, d_model=32, max_len=32,
        batch_size=64, base_lr=1e-3, max_epochs=5, patience_epochs=5, seed=0,
    )
    clf.fit(train, val)
    best = clf.train_log_.best_val_accuracy
    conclude(
        "06 desk-scale",
        best >= 0.45 and len(clf.train_log_.epochs) <= 10,
        f"val accuracy {best:.3f} in {len(clf.train_log_.epochs)} epochs on {source}",
    )


def test_07_parameter_audit(capsys):
    """Full-scale parameter count is near 20m and printed by inspect."""
    config = ModelConfig(vocab_words=56220)
    analytic = count_parameters(config)
    enumerated = sum(int(np.prod(s.shape)) for s in parameter_shapes(config).values())
    assert run_cli(["inspect"]) == 0
    printed = f"parameters = {analytic}" in capsys.readouterr().out
    ok = (
        analytic == 21_900_243
        and 17_000_000 <= analytic <= 24_000_000
        and analytic == enumerated
        and printed
    )
    with capsys.disabled():
        conclude("07 parameter-audit", ok, f"count {analytic}")


def test_08_early_stopping_protocol():
    """A trace peaking at epoch 12 with patience 10 stops at 22 and keeps
    the epoch-12 weights."""
    trace = [0.30 + 0.02 * e for e in range(1, 13)] + [0.40] * 90

    class ScriptedTrainer(Trainer):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.calls = 0
            self.snapshots = {}

        def evaluate(self, params, batches):
            self.calls += 1
            self.snapshots[self.calls] = params.w_cls.data.copy()
            return 0.0, trace[self.calls - 1]

    from norminfer.estimator import PairEncoder

    corpus = make_corpus(16, seed=3)
    encoder = PairEncoder(max_len=16).fit(corpus)
    pairs = encoder.transform(corpus)
    params = ModelParameters.initialize(
        ModelConfig(
            vocab_words=len(encoder.vocabulary_),
            n_blocks=1, n_heads=2, d_model=8, max_len=16,
        ),
        np.random.default_rng(0),
    )
    trainer = ScriptedTrainer(
        TrainConfig(batch_size=8, max_epochs=100, patience_epochs=10, seed=0)
    )
    result = trainer.fit(params, pairs, pairs)
    log = result.log

    ok = (
        len(log.epochs) == 22
        and log.stopped_early
        and log.best_epoch == 12
        and np.array_equal(result.params.w_cls.data, trainer.snapshots[12])
        and not np.array_equal(result.params.w_cls.data, trainer.snapshots[22])
    )
    conclude(
        "08 early-stopping",
        ok,
        f"stopped after epoch {len(log.epochs)}, best epoch {log.best_epoch}",
    )


@pytest.fixture(scope="module")
def conflict_artifacts(tmp_path_factory):
    """A small trained model saved as checkpoint plus vocabulary."""
    root = tmp_path_factory.mktemp("acceptance")
    clf = NliClassifier(
        n_blocks=1, n_heads=2, d_model=8, max_len=64,
        batch_size=8, max_epochs=2, seed=7,
    )
    clf.fit(make_corpus(24), make_corpus(8, seed=1))
    clf.vocabulary_.save(root / "vocab.txt")
    save_checkpoint(
        clf.params_,
        {"vocab_sha256": clf.vocabulary_.content_hash()},
        root / "checkpoint.bin",
    )
    return root, clf


def test_09_conflict_pipeline(conflict_artifacts, capsys):
    """Bidirectional conflict report over the bundled transcribed pairs:
    complete, probability-consistent, and byte-deterministic."""
    from norminfer.conflicts import analyze_conflicts

    root, clf = conflict_artifacts
    records = load_norm_conflicts(bundled_conflicts_path())
    report = analyze_conflicts(clf, records)
    sums_ok = bool(np.all(np.abs(report.probs.sum(-1) - 1.0) < 1e-6))

    outputs = []
    for name in ("r1", "r2"):
        code = run_cli(
            [
                "analyze-conflicts",
                "--checkpoint", str(root / "checkpoint.bin"),
                "--vocab", str(root / "vocab.txt"),
                "--output-dir", str(root / name),
            ]
        )
        assert code == 0
        outputs.append((root / name / REPORT_CSV_FILE).read_bytes())
    with (root / "r1" / REPORT_CSV_FILE).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))

    ok = (
        report.probs.shape == (len(records), 2, 3)
        and sums_ok
        and outputs[0] == outputs[1]
        and len(rows) == 1 + len(records)
    )
    with capsys.disabled():
        conclude(
            "09 conflict-pipeline",
            ok,
            f"{len(records)} pairs, both directions, byte-identical runs",
        )


def test_10_persistence(conflict_artifacts, tmp_path):
    """Reloaded weights produce bit-identical probabilities."""
    _, clf = conflict_artifacts
    params = clf.params_
    config = params.config
    rng = np.random.default_rng(10)
    pairs = [build_random_pair(rng, config, t=int(rng.integers(2, 17))) for _ in range(10)]
    batch = make_batch(pairs)
    before = forward_batch(batch, params).data

    path = tmp_path / "round.bin"
    save_checkpoint(params, {"best_epoch": 1}, path)
    after = forward_batch(batch, load_checkpoint(path).params).data

    ok = np.array_equal(before, after)
    conclude("10 persistence", ok, "10 random inputs bit-exact")
