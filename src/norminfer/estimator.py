"""Estimator front end over the tokenizer, model, and training engine.

PairEncoder is a fit/transform step from raw sentence pairs to encoded id
sequences. NliClassifier wires encoding, initialization, and the training
loop into a fit/predict classifier whose constructor arguments are built
from ModelConfig's and TrainConfig's fields.
"""

from __future__ import annotations

from dataclasses import field, fields, make_dataclass
from typing import Iterable, Sequence

import numpy as np

from .base import (ConfigError, ContractError, ParamsMixin, check_fields, check_fitted,
                   shared_fields, split_seed)
# forward_batch, make_batch: perfbench/tracing.py wraps them here; ROADMAP item 1 drops them
from .model import ModelConfig, ModelParameters, forward_batch, make_batch  # noqa: F401
from .text import (
    CLASSES,
    MAX_LEN,
    MIN_COUNT,
    EncodedPair,
    NliExample,
    Vocabulary,
    build_vocab,
    encode_pair,
)
from .training import SEED_INIT, TrainConfig, Trainer, probabilities

SEED_HOLDOUT = 3


class PairEncoder(ParamsMixin):
    """Learns a vocabulary from a corpus and encodes sentence pairs."""

    def __init__(self, min_count: int = MIN_COUNT.default, max_len: int = MAX_LEN.default):
        self.min_count = min_count
        self.max_len = max_len
        self.vocabulary_: Vocabulary | None = None

    def fit(self, examples: Sequence[NliExample], y=None) -> "PairEncoder":
        self.vocabulary_ = build_vocab(examples, min_count=self.min_count)
        return self

    def transform(self, pairs: Iterable) -> list[EncodedPair]:
        """Encode (premise, hypothesis) tuples, or objects with .premise and
        .hypothesis whose .label, if any, is kept. A pair of neither form,
        or one ``encode_pair`` rejects, raises ContractError naming its
        index."""
        check_fitted(self, ["vocabulary_"])
        encoded = []
        for i, item in enumerate(pairs):
            if hasattr(item, "premise") and hasattr(item, "hypothesis"):
                premise, hypothesis = item.premise, item.hypothesis
            else:
                try:
                    premise, hypothesis = item
                except (TypeError, ValueError):
                    raise ContractError(
                        f"pair {i} must be (premise, hypothesis) or have "
                        f".premise/.hypothesis attributes, got {item!r}"
                    ) from None
            try:
                encoded.append(encode_pair(
                    premise, hypothesis, self.vocabulary_, max_len=self.max_len,
                    label=getattr(item, "label", None),
                ))
            except ContractError as exc:
                raise ContractError(f"pair {i}: {exc}") from None
        return encoded

    def fit_transform(self, examples: Sequence[NliExample], y=None) -> list[EncodedPair]:
        return self.fit(examples).transform(examples)


# the ModelConfig fields the classifier takes no argument for: the built
# vocabulary sets vocab_words, and the other two keep their defaults
FIXED_MODEL_KEYS = ("vocab_words", "n_classes", "layer_norm_eps")
_MODEL_ARGS = [f.name for f in fields(ModelConfig) if f.name not in FIXED_MODEL_KEYS]

_Arguments = make_dataclass("_Arguments", [
    *(spec for spec in shared_fields(ModelConfig) if spec[0] in _MODEL_ARGS),
    ("min_count", "int", MIN_COUNT),
    *shared_fields(TrainConfig),
    ("dtype", "str", field(default="float32")),
], eq=False, repr=False)


class NliClassifier(ParamsMixin, _Arguments):
    """Three-way inference classifier over sentence pairs.

    The constructor arguments are ModelConfig's fields bar FIXED_MODEL_KEYS,
    then min_count, TrainConfig's fields and dtype, each with its config's
    default and bounds; they are stored verbatim and checked by fit.

    fit builds the vocabulary, initializes the decoder stack, and trains
    with Adam under the warmup/decay schedule, keeping the weights of the
    best validation epoch. predict and predict_proba run
    ``training.probabilities``, the one forward-only loop, which validation
    runs through too: its passes are cut by tokens, whatever batch_size, the
    training batch, is, and shared by two threads with the bytes of one.
    """

    def _np_dtype(self):
        try:
            dt = None if self.dtype is None else np.dtype(self.dtype)
        except (TypeError, ValueError):
            dt = None
        if dt not in (np.float32, np.float64):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        return dt

    def fit(
        self,
        examples: Sequence[NliExample],
        validation: Sequence[NliExample] | None = None,
    ) -> "NliClassifier":
        check_fields(self)
        train_config = TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})
        examples = list(examples)
        if not examples:
            raise ContractError("fit needs at least one training example")
        if validation is None:
            examples, validation = self._holdout_split(examples)
        elif not (validation := list(validation)):
            raise ContractError("fit needs at least one validation example")

        self.encoder_ = PairEncoder(min_count=self.min_count, max_len=self.max_len)
        self.encoder_.fit(examples)
        train_pairs = self.encoder_.transform(examples)
        val_pairs = self.encoder_.transform(validation)

        config = ModelConfig(
            vocab_words=len(self.encoder_.vocabulary_),
            **{name: getattr(self, name) for name in _MODEL_ARGS},
        )
        init_rng = np.random.default_rng(split_seed(self.seed, SEED_INIT))
        params = ModelParameters.initialize(config, init_rng, dtype=self._np_dtype())

        result = Trainer(train_config).fit(params, train_pairs, val_pairs)
        self.params_ = result.params
        self.train_log_ = result.log
        self.model_config_ = config
        self.classes_ = np.asarray(CLASSES, dtype=object)
        return self

    def _holdout_split(self, examples):
        if len(examples) < 2:
            raise ContractError(
                "fit needs a validation set or at least two examples to hold out"
            )
        rng = np.random.default_rng(split_seed(self.seed, SEED_HOLDOUT))
        order = rng.permutation(len(examples))
        n_val = max(1, len(examples) // 10)
        val_idx = set(order[:n_val].tolist())
        train = [e for i, e in enumerate(examples) if i not in val_idx]
        val = [e for i, e in enumerate(examples) if i in val_idx]
        return train, val

    @classmethod
    def from_artifacts(
        cls, params: ModelParameters, vocabulary: Vocabulary, **constructor_args
    ) -> "NliClassifier":
        """A fitted classifier from existing weights and their vocabulary.
        ``constructor_args`` set the arguments the weights leave open; one
        they fix, an architecture argument or dtype, raises ContractError."""
        config = params.config
        if config.n_classes != len(CLASSES):
            raise ContractError(
                f"model has n_classes {config.n_classes}, but the classifier "
                f"reads {len(CLASSES)} classes {CLASSES}"
            )
        if len(vocabulary) != config.vocab_words:
            raise ContractError(
                f"vocabulary has {len(vocabulary)} entries, the model has "
                f"{config.vocab_words} word rows"
            )
        fixed = {name: getattr(config, name) for name in _MODEL_ARGS}
        fixed["dtype"] = str(params.dtype)
        if clash := sorted(constructor_args.keys() & fixed.keys()):
            raise ContractError(f"the weights fix {', '.join(f'{n} = {fixed[n]!r}' for n in clash)}"
                                ", so from_artifacts takes no such argument")
        clf = cls(**fixed, **constructor_args)
        encoder = PairEncoder(max_len=config.max_len)
        encoder.vocabulary_ = vocabulary
        clf.encoder_ = encoder
        clf.params_ = params
        clf.model_config_ = config
        clf.classes_ = np.asarray(CLASSES, dtype=object)
        return clf

    def predict_proba(self, pairs) -> np.ndarray:
        """Class probability rows aligned with the input order."""
        check_fitted(self, ["params_", "encoder_"])
        return probabilities(self.params_, self.encoder_.transform(pairs))

    def predict(self, pairs) -> np.ndarray:
        probs = self.predict_proba(pairs)
        return np.asarray(CLASSES, dtype=object)[probs.argmax(axis=1)]

    def score(self, examples, y=None) -> float:
        """Accuracy against gold labels taken from the examples or from y."""
        examples = list(examples)
        if not examples:
            raise ContractError("score needs at least one example")
        if y is not None:
            labels = list(y)
        else:
            labels = [getattr(e, "label", None) for e in examples]
            if any(label is None for label in labels):
                raise ContractError("score needs labeled examples or explicit y")
        if len(labels) != len(examples):
            raise ContractError(
                f"{len(labels)} labels for {len(examples)} examples"
            )
        unknown = sorted(set(labels) - set(CLASSES))
        if unknown:
            raise ContractError(f"unknown labels {unknown}; expected {CLASSES}")
        predicted = self.predict(examples)
        gold = np.asarray(labels, dtype=object)
        return float((predicted == gold).mean())

    @property
    def vocabulary_(self) -> Vocabulary:
        check_fitted(self, ["encoder_"])
        return self.encoder_.vocabulary_

    def n_parameters(self) -> int:
        check_fitted(self, ["params_"])
        return self.params_.n_parameters()
