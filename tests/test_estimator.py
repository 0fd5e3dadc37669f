"""Estimator API: encoding step, classifier fit/predict, parameter plumbing."""

import numpy as np
import pytest
from helpers import make_corpus

from norminfer.base import ConfigError, ContractError, NotFittedError
from norminfer.estimator import NliClassifier, PairEncoder
from norminfer.model import forward_batch, make_batch
from norminfer.persistence import load_checkpoint, save_checkpoint
from norminfer.tensor import GradTape, add
from norminfer.text import CLASSES, EOS_ID, Vocabulary


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

    def test_bad_dtype_rejected_at_fit(self):
        clf = tiny_classifier(dtype="int32")
        with pytest.raises(ConfigError, match="dtype"):
            clf.fit(make_corpus(8), make_corpus(4, seed=1))


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
            single = forward_batch(batch, fitted.params_).data[0].astype(np.float64)
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

    def test_constructor_args_forwarded(self):
        clf = tiny_classifier(max_epochs=1)
        clf.fit(make_corpus(12), make_corpus(4, seed=1))
        rebuilt = NliClassifier.from_artifacts(clf.params_, clf.vocabulary_, seed=5)
        assert rebuilt.seed == 5
        assert rebuilt.n_blocks == clf.n_blocks
        assert rebuilt.model_config_ == clf.model_config_
