"""Estimator API: encoding step, classifier fit/predict, parameter plumbing."""

import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import make_corpus

from norminfer import base, estimator, training
from norminfer.base import ConfigError, ContractError, NotFittedError
from norminfer.estimator import FIXED_MODEL_KEYS, NliClassifier, PairEncoder
from norminfer.model import ModelConfig, ModelParameters, forward_batch, make_batch
from norminfer.persistence import RunConfig, load_checkpoint, save_checkpoint
from norminfer.tensor import GradTape, add
from norminfer.text import CLASSES, EOS_ID, MIN_COUNT, RESERVED_TOKENS, EncodedPair, Vocabulary
from norminfer.training import (BATCH_TOKENS, TrainConfig, length_sorted_chunks, probabilities,
                                softmax)


def tiny_classifier(**overrides):
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
    return NliClassifier(**kw)


class TestPairEncoder:
    def test_fit_builds_vocabulary(self):
        enc = PairEncoder().fit(make_corpus(8))
        assert enc.vocabulary_ is not None
        assert "dog" in enc.vocabulary_ or "man" in enc.vocabulary_

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            PairEncoder().transform([("a b", "c d")])

    def test_transform_keeps_labels_from_examples(self):
        corpus = make_corpus(6)
        enc = PairEncoder().fit(corpus)
        encoded = enc.transform(corpus)
        assert [p.label_id for p in encoded] == [
            CLASSES.index(ex.label) for ex in corpus
        ]

    def test_transform_tuples_have_no_label(self):
        enc = PairEncoder().fit(make_corpus(6))
        encoded = enc.transform([("a dog is walking", "a dog is walking")])
        assert encoded[0].label_id is None
        assert encoded[0].token_ids[-1] == EOS_ID

    @pytest.mark.parametrize(
        "bad",
        [("a dog",), ("a dog", "a cat", "a bird"), 5, SimpleNamespace(premise="a dog")],
        ids=["1-tuple", "3-tuple", "int", "premise-only"],
    )
    def test_transform_rejects_a_malformed_pair_by_index(self, bad):
        enc = PairEncoder().fit(make_corpus(6))
        with pytest.raises(ContractError, match="pair 1 must be"):
            enc.transform([("a dog is walking", "a dog is walking"), bad])

    def test_transform_names_the_pair_encode_rejects(self):
        enc = PairEncoder().fit(make_corpus(6))
        with pytest.raises(ContractError, match="pair 1: hypothesis"):
            enc.transform([("a dog", "a cat"), ("a dog", "  ")])
        bad_label = SimpleNamespace(premise="a dog", hypothesis="a cat", label="maybe")
        with pytest.raises(ContractError, match="pair 0: label"):
            enc.transform([bad_label])

    def test_fit_transform_matches_fit_then_transform(self):
        corpus = make_corpus(6)
        a = PairEncoder().fit_transform(corpus)
        b = PairEncoder().fit(corpus).transform(corpus)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.token_ids, pb.token_ids)

    def test_get_params_round_trip(self):
        enc = PairEncoder(min_count=2, max_len=32)
        assert enc.get_params() == {"min_count": 2, "max_len": 32}
        enc.set_params(min_count=3)
        assert enc.min_count == 3
        with pytest.raises(ConfigError):
            enc.set_params(window=5)


# a value out of each bounded argument's range
OUT_OF_RANGE = {
    "n_blocks": 0, "n_heads": 0, "d_model": 0, "d_ffn": 0, "max_len": 0, "dropout": 1.0,
    "min_count": 0, "base_lr": 0.0, "warmup_fraction": 1.0, "clip_bound": -1.0,
    "batch_size": 0, "patience_epochs": 0, "max_epochs": -1, "seed": -1,
}


class TestClassifierParams:
    def test_get_params_lists_constructor_args(self):
        clf = tiny_classifier()
        params = clf.get_params()
        assert params["n_blocks"] == 1
        assert params["d_model"] == 8
        assert params["seed"] == 7
        assert "params_" not in params

    def test_set_params_returns_self(self):
        clf = tiny_classifier()
        assert clf.set_params(seed=9) is clf
        assert clf.seed == 9

    def test_sklearn_clone_round_trip(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        clf = tiny_classifier(batch_size=4)
        cloned = sklearn_base.clone(clf)
        assert cloned.get_params() == clf.get_params()

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            tiny_classifier().predict([("a b", "c d")])

    def test_the_arguments_are_the_config_fields_in_declaration_order(self):
        fixed = ("vocab_words", "n_classes", "layer_norm_eps")
        declared = [(f.name, f.default) for f in fields(ModelConfig) if f.name not in fixed]
        declared += [("min_count", MIN_COUNT.default)]
        declared += [(f.name, f.default) for f in fields(TrainConfig)]
        declared += [("dtype", "float32")]
        parameters = inspect.signature(NliClassifier).parameters.values()
        assert [(p.name, p.default) for p in parameters] == declared
        assert NliClassifier._param_names() == sorted(name for name, _ in declared)
        assert FIXED_MODEL_KEYS == fixed

    def test_every_run_config_key_is_an_argument_or_fixed(self):
        run_only = {"train_path", "validation_path", "output_dir"}
        arguments = set(NliClassifier._param_names())
        for f in fields(RunConfig):
            assert f.name in arguments | set(FIXED_MODEL_KEYS) | run_only, f.name

    def test_each_bounded_argument_has_an_out_of_range_case(self):
        bounded = {f.name for f in fields(NliClassifier) if f.metadata}
        assert bounded == set(OUT_OF_RANGE)

    @pytest.mark.parametrize("name, value", OUT_OF_RANGE.items(), ids=list(OUT_OF_RANGE))
    def test_an_out_of_range_argument_is_rejected_before_the_vocabulary(
        self, monkeypatch, name, value
    ):
        """At one time the model keys were checked only once the vocabulary
        had been built from the whole corpus."""
        calls = []
        monkeypatch.setattr(estimator, "build_vocab", lambda *a, **kw: calls.append(a))
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            tiny_classifier(**{name: value}).fit(make_corpus(8), make_corpus(4, seed=1))
        assert calls == []

    def test_bad_dtype_rejected_at_fit(self):
        clf = tiny_classifier(dtype="int32")
        with pytest.raises(ConfigError, match="dtype"):
            clf.fit(make_corpus(8), make_corpus(4, seed=1))

    @pytest.mark.parametrize("dtype", ["foo", None])
    def test_dtype_that_names_no_float_type_rejected(self, dtype):
        """Not numpy's TypeError for a name it does not know, and not its
        float64 default for None."""
        with pytest.raises(ConfigError, match="dtype"):
            tiny_classifier(dtype=dtype).fit(make_corpus(8), make_corpus(4, seed=1))


@pytest.fixture(scope="module")
def fitted():
    clf = tiny_classifier()
    clf.fit(make_corpus(24), make_corpus(8, seed=1))
    return clf


class TestClassifierFit:
    def test_fit_sets_artifacts(self, fitted):
        assert fitted.params_ is not None
        assert fitted.train_log_.epochs
        assert fitted.model_config_.vocab_words == len(fitted.vocabulary_)
        assert list(fitted.classes_) == list(CLASSES)

    def test_predict_returns_known_labels(self, fitted):
        labels = fitted.predict([(e.premise, e.hypothesis) for e in make_corpus(5, seed=2)])
        assert labels.shape == (5,)
        assert set(labels) <= set(CLASSES)

    def test_predict_proba_rows_sum_to_one(self, fitted):
        probs = fitted.predict_proba([(e.premise, e.hypothesis) for e in make_corpus(5, seed=3)])
        assert probs.shape == (5, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_predict_proba_aligned_with_input_order(self, fitted):
        # Mixed lengths force the internal batching to reorder work; the
        # output rows must still land at their original indices.
        pairs = [
            ("a dog is walking in the park", "a dog is walking"),
            ("a man is eating", "a man is not eating"),
            ("a woman is singing in the kitchen near the big market", "a woman is singing"),
            ("a bird is waiting", "a bird is waiting in the river"),
        ]
        batched = fitted.predict_proba(pairs)
        for i, (premise, hypothesis) in enumerate(pairs):
            batch = make_batch(fitted.encoder_.transform([(premise, hypothesis)]))
            single = softmax(forward_batch(batch, fitted.params_).data)[0].astype(np.float64)
            assert np.allclose(batched[i], single, atol=1e-6)
            assert batched[i].argmax() == single.argmax()

    def test_predict_proba_rejects_a_pair_without_eos(self, fitted, monkeypatch):
        transform = fitted.encoder_.transform

        def drop_eos(pairs):
            encoded = transform(pairs)
            encoded[-1].token_ids[-1] = 3
            return encoded

        monkeypatch.setattr(fitted.encoder_, "transform", drop_eos)
        with pytest.raises(ContractError, match="end-of-sequence"):
            fitted.predict_proba([("a dog is walking", "a dog is walking")])

    def test_predict_accepts_example_objects(self, fitted):
        examples = make_corpus(4, seed=4)
        from_objects = fitted.predict(examples)
        from_tuples = fitted.predict([(e.premise, e.hypothesis) for e in examples])
        assert np.array_equal(from_objects, from_tuples)

    def test_score_matches_manual_accuracy(self, fitted):
        examples = make_corpus(10, seed=5)
        predicted = fitted.predict(examples)
        manual = float(np.mean([p == e.label for p, e in zip(predicted, examples)]))
        assert fitted.score(examples) == pytest.approx(manual)

    def test_score_with_explicit_labels(self, fitted):
        examples = make_corpus(6, seed=6)
        pairs = [(e.premise, e.hypothesis) for e in examples]
        y = [e.label for e in examples]
        assert fitted.score(pairs, y) == fitted.score(examples)

    def test_score_rejects_unknown_label(self, fitted):
        with pytest.raises(ContractError, match="unknown labels"):
            fitted.score([("a b", "c d")], ["maybe"])

    def test_score_rejects_unlabeled_pairs(self, fitted):
        with pytest.raises(ContractError, match="labeled"):
            fitted.score([("a b", "c d")])

    @pytest.mark.parametrize("y", [None, []], ids=["labels-from-examples", "empty-y"])
    def test_score_rejects_an_empty_set(self, fitted, y):
        with pytest.raises(ContractError, match="at least one example"):
            fitted.score([], y)

    def test_n_parameters_matches_params(self, fitted):
        assert fitted.n_parameters() == fitted.params_.n_parameters()


class TestFitVariants:
    def test_holdout_split_when_no_validation_given(self):
        clf = tiny_classifier(max_epochs=1)
        clf.fit(make_corpus(20))
        assert clf.params_ is not None
        assert clf.train_log_.epochs

    def test_holdout_sizes(self):
        clf = tiny_classifier()
        train, val = clf._holdout_split(make_corpus(20))
        assert len(val) == 2
        assert len(train) == 18
        train, val = clf._holdout_split(make_corpus(5))
        assert len(val) == 1

    def test_holdout_needs_two_examples(self):
        with pytest.raises(ContractError):
            tiny_classifier().fit(make_corpus(1))

    def test_empty_fit_rejected(self):
        with pytest.raises(ContractError):
            tiny_classifier().fit([])

    @pytest.mark.parametrize("validation", [None, make_corpus(4, seed=1)],
                             ids=["holdout", "given"])
    def test_negative_seed_rejected_before_any_draw(self, validation):
        with pytest.raises(ConfigError, match="seed"):
            tiny_classifier(seed=-1).fit(make_corpus(10), validation)

    @pytest.mark.parametrize("validation", [None, make_corpus(4, seed=1)],
                             ids=["holdout", "given"])
    @pytest.mark.parametrize("min_count", [0, -2, 1.5, True])
    def test_bad_min_count_rejected_before_any_draw(self, monkeypatch, validation, min_count):
        def no_seed(*args):
            raise AssertionError("fit drew a seed before checking min_count")

        monkeypatch.setattr("norminfer.estimator.split_seed", no_seed)
        with pytest.raises(ConfigError, match="min_count"):
            tiny_classifier(min_count=min_count).fit(make_corpus(10), validation)

    @pytest.mark.parametrize("validation", [[], ()], ids=["list", "tuple"])
    def test_empty_validation_rejected_before_the_model(self, monkeypatch, validation):
        from norminfer.model import ModelParameters

        calls = []
        monkeypatch.setattr(ModelParameters, "initialize", lambda *a, **kw: calls.append(a))
        with pytest.raises(ContractError, match="validation"):
            tiny_classifier().fit(make_corpus(10), validation)
        assert calls == []

    def test_float64_fit(self):
        clf = tiny_classifier(max_epochs=1, dtype="float64")
        clf.fit(make_corpus(10), make_corpus(4, seed=1))
        assert clf.params_.dtype == np.float64

    def test_same_seed_same_weights(self):
        train, val = make_corpus(12), make_corpus(4, seed=1)
        a = tiny_classifier(max_epochs=1).fit(train, val)
        b = tiny_classifier(max_epochs=1).fit(train, val)
        for (_, ta), (_, tb) in zip(a.params_.named_tensors(), b.params_.named_tensors()):
            assert np.array_equal(ta.data, tb.data)


class TestFromArtifacts:
    def test_round_trip_predictions_identical(self):
        clf = tiny_classifier(max_epochs=1)
        clf.fit(make_corpus(12), make_corpus(4, seed=1))
        rebuilt = NliClassifier.from_artifacts(clf.params_, clf.vocabulary_)
        pairs = [(e.premise, e.hypothesis) for e in make_corpus(6, seed=9)]
        assert np.array_equal(clf.predict_proba(pairs), rebuilt.predict_proba(pairs))

    def test_inference_never_records_onto_an_open_tape(self, fitted, tmp_path):
        save_checkpoint(fitted.params_, {}, tmp_path / "model.bin")
        params = load_checkpoint(tmp_path / "model.bin").params
        assert all(t.requires_grad for _, t in params.named_tensors())
        clf = NliClassifier.from_artifacts(params, fitted.vocabulary_)
        pairs = [(e.premise, e.hypothesis) for e in make_corpus(6, seed=9)]
        untaped = clf.predict_proba(pairs)
        with GradTape() as tape:
            taped = clf.predict_proba(pairs)
            assert len(tape) == 0
            add(params.w_cls, params.w_cls)  # the caller's tape records again
        assert len(tape) == 1
        assert taped.tobytes() == untaped.tobytes()

    @pytest.mark.parametrize("change", [-1, 1], ids=["smaller", "larger"])
    def test_vocabulary_of_another_size_rejected(self, fitted, change):
        tokens = fitted.vocabulary_.id_to_token
        n = len(tokens)
        words = tokens[:change] if change < 0 else tokens + ["zzzz"]
        with pytest.raises(ContractError,
                           match=f"vocabulary has {n + change} entries, the model has {n}"):
            NliClassifier.from_artifacts(fitted.params_, Vocabulary(words))

    @pytest.mark.parametrize("name, value", [("n_blocks", 3), ("dtype", "float64")])
    def test_an_argument_the_weights_fix_is_rejected(self, fitted, name, value):
        with pytest.raises(ContractError, match=f"the weights fix {name} = "):
            NliClassifier.from_artifacts(fitted.params_, fitted.vocabulary_, **{name: value})

    def test_constructor_args_forwarded(self):
        clf = tiny_classifier(max_epochs=1)
        clf.fit(make_corpus(12), make_corpus(4, seed=1))
        rebuilt = NliClassifier.from_artifacts(clf.params_, clf.vocabulary_, seed=5)
        assert rebuilt.seed == 5
        assert rebuilt.n_blocks == clf.n_blocks
        assert rebuilt.model_config_ == clf.model_config_


def random_classifier(n_pairs, max_len=360, n_heads=2, d_model=8, dtype=np.float32):
    """A one-block classifier over freshly drawn weights, with a word for
    the first token of each of ``n_pairs`` numbered pairs."""
    vocab = Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(n_pairs + 20)])
    config = ModelConfig(
        vocab_words=len(vocab), n_blocks=1, n_heads=n_heads, d_model=d_model, max_len=max_len
    )
    params = ModelParameters.initialize(config, np.random.default_rng(0), dtype=dtype)
    return NliClassifier.from_artifacts(params, vocab)


def numbered_pairs(lengths, vocab_size):
    """Encoded pairs of the given lengths whose first token id is 3 + their
    index, so a packed batch names the pairs it holds."""
    rng = np.random.default_rng(0)
    pairs = []
    for i, n in enumerate(lengths):
        ids = rng.integers(3, vocab_size, size=n)
        ids[0], ids[-1] = 3 + i, EOS_ID
        pairs.append(EncodedPair(ids.astype(np.int64), n // 2, False))
    return pairs


class TestTokenBudget:
    """Inference packs length-sorted pairs into forward passes of at most
    BATCH_TOKENS tokens; batch_size is the training batch and plays no part."""

    # ties, a run of exactly the budget (300 + 300 + 424), and 1,050
    # tokens, past it
    LENGTHS = [300, 2, 120, 1050, 300, 45, 700, 300, 9, 260, 512, 2, 424]

    def spy(self, monkeypatch):
        calls = []

        def recording(batch, params, **kw):
            starts = np.concatenate([[0], np.cumsum(batch.eos_index + 1)[:-1]])
            logits = forward_batch(batch, params, **kw)
            calls.append((batch.token_ids[starts] - 3, batch.token_ids.size, logits.data))
            return logits

        monkeypatch.setattr(training, "forward_batch", recording)
        return calls

    def test_batches_are_greedy_token_runs_of_the_length_order(self, monkeypatch):
        monkeypatch.setattr(base, "_WORKERS", 1)  # one thread: a fixed pass order
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        calls = self.spy(monkeypatch)
        out = probabilities(clf.params_, pairs)

        # the passes run longest first: the length order's runs, last run first
        assert [ids.tolist() for ids, _, _ in calls] == [
            [3], [6], [10], [4, 7, 12], [1, 11, 8, 5, 2, 9, 0]
        ]
        cut = calls[::-1]  # the runs in the length order they were cut in
        order = sorted(range(len(pairs)), key=lambda i: self.LENGTHS[i])
        assert [int(i) for ids, _, _ in cut for i in ids] == order
        sizes = [tokens for _, tokens, _ in calls]
        for (ids, tokens, _), after in zip(cut, cut[1:] + [None]):
            assert tokens <= BATCH_TOKENS or len(ids) == 1
            if after is not None:  # the next pair did not fit
                assert tokens + self.LENGTHS[after[0][0]] > BATCH_TOKENS
        assert [ids.tolist() for ids, _, _ in calls][0] == [3]  # 1,050 tokens, alone
        assert sizes == [1050, 700, 512, 1024, 738]
        for ids, _, logits in calls:  # rows land at their input index
            assert out[ids].tobytes() == softmax(logits).astype(np.float64).tobytes()

        calls.clear()  # two threads run the same passes, in either order
        monkeypatch.setattr(base, "_WORKERS", 2)
        assert probabilities(clf.params_, pairs).tobytes() == out.tobytes()
        assert sorted((ids.tolist(), tokens) for ids, tokens, _ in calls) == sorted(
            (ids.tolist(), tokens) for ids, tokens, _ in cut
        )

    def test_batch_size_does_not_shape_inference(self, monkeypatch):
        monkeypatch.setattr(base, "_WORKERS", 1)  # one thread: a fixed pass order
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        calls = self.spy(monkeypatch)
        runs = []
        for batch_size in (1, 16, 10_000):
            calls.clear()
            out = probabilities(clf.set_params(batch_size=batch_size).params_, pairs)
            runs.append(([ids.tolist() for ids, _, _ in calls], out.tobytes()))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == [[3], [6], [10], [4, 7, 12], [1, 11, 8, 5, 2, 9, 0]]

    def test_no_pairs_no_forward_pass(self, monkeypatch):
        calls = self.spy(monkeypatch)
        probs = random_classifier(1).predict_proba([])
        assert probs.shape == (0, len(CLASSES)) and probs.dtype == np.float64
        assert calls == []

    # BLAS picks its kernel by row count, so a pair's products round
    # differently alone and in a batch. Measured once on this case, 5 of 10
    # float32 rows differ, by at most 3.0e-8 (one float32 step at 1/3; 8.9e-8
    # on 32 paper-scale clause pairs), and float64 rows by at most 5.6e-17.
    # The float32 bound is float32's epsilon, 1.19e-7; never widen either.
    @pytest.mark.parametrize(
        "dtype,atol", [(np.float32, float(np.finfo(np.float32).eps)), (np.float64, 1e-12)]
    )
    def test_a_pair_alone_scores_as_in_a_batch(self, dtype, atol):
        lengths = np.random.default_rng(0).integers(61, 302, size=10).tolist()
        clf = random_classifier(len(lengths), n_heads=4, d_model=32, dtype=dtype)
        pairs = numbered_pairs(lengths, len(clf.vocabulary_))
        batched = probabilities(clf.params_, pairs)
        alone = np.concatenate([probabilities(clf.params_, [p]) for p in pairs])
        np.testing.assert_allclose(batched, alone, rtol=0, atol=atol)
        assert np.array_equal(batched.argmax(axis=1), alone.argmax(axis=1))


class TestTwoThreads:
    """The caller and one helper thread share the token-budget passes; the
    output bytes do not depend on how many threads ran them."""

    LENGTHS = TestTokenBudget.LENGTHS  # five passes

    def spy(self, monkeypatch, workers=2, fail_in_helper=False):
        """Run ``probabilities`` on ``workers`` threads. With two, each
        thread's first pass waits for the other's, so both surely take part.
        Returns the thread of each pass and the count of passes running."""
        monkeypatch.setattr(base, "_WORKERS", workers)
        caller = threading.get_ident()
        meet = threading.Barrier(workers, timeout=30)
        seen, running, lock = [], [0], threading.Lock()

        def meeting(batch, params, **kw):
            with lock:
                first = threading.get_ident() not in seen
                seen.append(threading.get_ident())
                running[0] += 1
            try:
                if first:
                    meet.wait()
                if fail_in_helper and threading.get_ident() != caller:
                    raise ContractError("the helper's pass failed")
                return forward_batch(batch, params, **kw)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(training, "forward_batch", meeting)
        return seen, running

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_bytes_do_not_depend_on_the_thread_count(self, monkeypatch, dtype):
        clf = random_classifier(len(self.LENGTHS), max_len=1100, dtype=dtype)
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        monkeypatch.setattr(base, "_WORKERS", 1)
        one = probabilities(clf.params_, pairs)
        seen, _ = self.spy(monkeypatch)
        two = probabilities(clf.params_, pairs)
        assert len(seen) == 5 and len(set(seen)) == 2
        assert two.tobytes() == one.tobytes()

    def test_an_open_tape_stays_empty(self, monkeypatch):
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        for _, t in clf.params_.named_tensors():
            t.requires_grad = True
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        untaped = probabilities(clf.params_, pairs)
        seen, _ = self.spy(monkeypatch)
        with GradTape() as tape:
            taped = probabilities(clf.params_, pairs)
        assert len(set(seen)) == 2
        assert len(tape) == 0
        assert taped.tobytes() == untaped.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_pass_raises_and_leaves_nothing_running(self, monkeypatch, workers):
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        pairs[10].token_ids[1] = len(clf.vocabulary_)  # an id past the vocabulary
        seen, running = self.spy(monkeypatch, workers)
        with pytest.raises(ContractError, match="id out of range"):
            probabilities(clf.params_, pairs)
        assert len(set(seen)) == workers
        assert running[0] == 0

    def test_a_pass_failing_in_the_helper_raises_in_the_caller(self, monkeypatch):
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        seen, running = self.spy(monkeypatch, fail_in_helper=True)
        with pytest.raises(ContractError, match="the helper's pass failed"):
            probabilities(clf.params_, pairs)
        assert len(set(seen)) == 2
        assert running[0] == 0  # the caller waited for the helper

    def test_a_single_pass_takes_no_thread(self, monkeypatch, fitted):
        monkeypatch.setattr(base, "_WORKERS", 2)
        made = []
        monkeypatch.setattr(base, "_helper_pool", lambda pid: made.append(pid))
        fitted.predict_proba([("the tenant shall pay rent", "the tenant may not pay rent")])
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        probabilities(clf.params_, numbered_pairs([300, 2, 120], len(clf.vocabulary_)))
        assert made == []

    def test_concurrent_callers_run_each_pass_once(self, monkeypatch):
        """Four callers share the one helper while thread switches are
        forced often: each call runs every pass once and fills every row."""
        monkeypatch.setattr(training, "BATCH_TOKENS", 64)
        lengths = np.random.default_rng(1).integers(2, 40, size=60).tolist()
        clf = random_classifier(len(lengths))
        pairs = numbered_pairs(lengths, len(clf.vocabulary_))
        monkeypatch.setattr(base, "_WORKERS", 1)
        expected = probabilities(clf.params_, pairs).tobytes()
        passes = {tuple(chunk) for chunk in length_sorted_chunks(pairs, 64, tokens=True)}
        monkeypatch.setattr(base, "_WORKERS", 2)
        counts, lock = Counter(), threading.Lock()

        def counting(batch, params, **kw):
            starts = np.concatenate([[0], np.cumsum(batch.eos_index + 1)[:-1]])
            with lock:
                counts[tuple((batch.token_ids[starts] - 3).tolist())] += 1
            return forward_batch(batch, params, **kw)

        monkeypatch.setattr(training, "forward_batch", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                runs = [callers.submit(probabilities, clf.params_, pairs) for _ in range(32)]
                outputs = [run.result(timeout=60).tobytes() for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert len(passes) > 10 and counts == Counter({p: 32 for p in passes})
        assert all(out == expected for out in outputs)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_makes_its_own_helper(self, monkeypatch):
        clf = random_classifier(len(self.LENGTHS), max_len=1100)
        pairs = numbered_pairs(self.LENGTHS, len(clf.vocabulary_))
        monkeypatch.setattr(base, "_WORKERS", 2)
        expected = probabilities(clf.params_, pairs)  # the parent's helper now exists
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the same call returns the same bytes
            try:
                same = probabilities(clf.params_, pairs).tobytes() == expected.tobytes()
                os._exit(0 if same else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0


# Run in a fresh process at the BLAS thread count its environment sets: a
# report over 28 directions at d_model 64, whose matmuls OpenBLAS threads,
# before any shared call; then a toy fit, whose first step makes the helper,
# its predict_proba, and its report with the directions shared. Prints the
# BLAS's thread count before and after (None where it cannot be asked), the
# worker count, and one SHA-256 over every output's bytes.
BLAS_CHILD = """
import hashlib, json
from helpers import bundled_word_classifier, fit_tiny_classifier, make_corpus
from norminfer import base, training
from norminfer.conflicts import analyze_conflicts, report_to_csv

threads = lambda: base._BLAS_THREADS and base._BLAS_THREADS()
wide, records = bundled_word_classifier(d_model=64, seed=0)
out = [report_to_csv(analyze_conflicts(wide, records)).encode()]
before = threads()
clf = fit_tiny_classifier()
out += [t.data.tobytes() for _, t in clf.params_.named_tensors()]
out.append(clf.predict_proba([(e.premise, e.hypothesis) for e in make_corpus(8, seed=2)]).tobytes())
training.SPLIT_WORK = 1
out.append(report_to_csv(analyze_conflicts(clf, records)).encode())
print(json.dumps({"before": before, "after": threads(), "workers": base._WORKERS,
                  "sha256": hashlib.sha256(b"".join(out)).hexdigest()}))
"""


class TestBlasThreads:
    """Once the helper thread exists, OpenBLAS runs one thread; the bytes do
    not depend on how many it ran before."""

    def run_child(self, blas_threads):
        env = {k: v for k, v in os.environ.items() if k != "MKL_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
        src = Path(base.__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), str(src)])
        proc = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_fit_predict_and_report_bytes_do_not_depend_on_the_blas_threads(self):
        one, two = self.run_child(1), self.run_child(2)
        assert one["sha256"] == two["sha256"]
        for run in (one, two):
            if run["before"] is not None and run["workers"] == 2 and base._SET_BLAS_THREADS:
                assert run["after"] == 1
        assert one["before"] in (1, None)
        if two["before"] is not None and two["before"] < 2:
            pytest.skip("the BLAS runs fewer than two threads on this CPU set")

    @pytest.mark.skipif(base._BLAS_THREADS is None or base._SET_BLAS_THREADS is None,
                        reason="the BLAS's thread count cannot be read or set")
    def test_a_shared_call_leaves_the_blas_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(base, "_WORKERS", 2)
        base.run_shared(lambda item: None, range(8))
        assert base._BLAS_THREADS() == 1

    @pytest.mark.parametrize("env, one", [
        ({}, False),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
        ({"MKL_NUM_THREADS": "2"}, False),
    ])
    def test_without_a_setter_the_environment_decides(self, monkeypatch, env, one):
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert base._env_pins_one_thread() is one
