"""Text ingestion: tokenization, vocabulary, pair encoding, corpus loaders.

Tokenization is lowercasing with punctuation split into separate tokens.
A premise-hypothesis pair is encoded as one sequence, premise tokens then
hypothesis tokens then a single end-of-sequence token, with no separator
between the sentences.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .base import ContractError, IngestError, atomic_write, check_text, check_value, setting

logger = logging.getLogger(__name__)

# Class order fixes both the probability vector layout and the argmax
# tie-break: earlier entries win ties.
CLASSES = ("entailment", "contradiction", "neutral")
LABEL_TO_INDEX = {name: i for i, name in enumerate(CLASSES)}

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
EOS_TOKEN = "[EOS]"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, EOS_TOKEN)
PAD_ID, UNK_ID, EOS_ID = 0, 1, 2

# the most tokens an encoded pair holds, end of sequence included: ModelConfig.max_len
MAX_LEN = setting(360)
# a token enters the vocabulary once it occurs this often in the training corpus
MIN_COUNT = setting(1)

CONFLICT_TYPES = (
    "deontic-modality",
    "deontic-structure",
    "deontic-object",
    "object-conditional",
)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word and single-character punctuation tokens.

    Deterministic; never emits empty tokens. The reserved bracket tokens
    cannot be produced because brackets split off as punctuation.
    """
    if not isinstance(text, str):
        raise ContractError(f"text must be a string, got {type(text).__name__}")
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token table with the three reserved entries at indices 0, 1, 2."""

    def __init__(self, tokens: Sequence[str]):
        tokens = list(tokens)
        if tuple(tokens[:3]) != RESERVED_TOKENS:
            raise ContractError(
                f"vocabulary must start with {RESERVED_TOKENS}, got {tokens[:3]}"
            )
        if len(set(tokens)) != len(tokens):
            raise ContractError("vocabulary contains duplicate tokens")
        self.id_to_token: list[str] = tokens
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def token_id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def tokens_to_ids(self, tokens: Iterable[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def ids_to_tokens(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path: str | Path) -> None:
        """One token per line; the line number is the token id."""
        with atomic_write(path) as fh:
            fh.write("\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            content = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
            raise IngestError(f"cannot read vocabulary file {path}: {exc}") from exc
        tokens = content.splitlines()
        if not tokens:
            raise IngestError(f"vocabulary file {path} is empty")
        return cls(tokens)

    def content_hash(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocab(examples: Iterable["NliExample"],
                min_count: int = MIN_COUNT.default) -> Vocabulary:
    """Count tokens over premises and hypotheses, then order by descending
    frequency with ties broken lexicographically.
    """
    check_value("min_count", min_count, MIN_COUNT)
    counts: Counter[str] = Counter()
    n_examples = 0
    for ex in examples:
        n_examples += 1
        counts.update(tokenize(ex.premise))
        counts.update(tokenize(ex.hypothesis))
    if n_examples == 0:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(RESERVED_TOKENS) + kept)


@dataclass(frozen=True)
class NliExample:
    premise: str
    hypothesis: str
    label: str

    def __post_init__(self):
        if self.label not in CLASSES:
            raise ContractError(
                f"label must be one of {CLASSES}, got {self.label!r}"
            )


@dataclass
class EncodedPair:
    """One premise-hypothesis pair as model input.

    token_ids ends with the end-of-sequence id, whose hidden state feeds
    the classification head.
    """

    token_ids: np.ndarray
    premise_len: int
    truncated: bool
    label_id: int | None = None

    def __len__(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def hypothesis_len(self) -> int:
        return len(self) - 1 - self.premise_len


def encode_pair(
    premise: str,
    hypothesis: str,
    vocab: Vocabulary,
    max_len: int = MAX_LEN.default,
    label: str | None = None,
) -> EncodedPair:
    """Encode premise ++ hypothesis ++ end-of-sequence, capped at max_len,
    which must lie in ModelConfig.max_len's bounds (ConfigError).

    When the pair is too long the hypothesis tail is dropped first; only
    if the premise alone exceeds the budget is the premise tail dropped
    too. The end-of-sequence token is always kept.
    """
    check_value("max_len", max_len, MAX_LEN)
    check_text(premise, "premise")
    check_text(hypothesis, "hypothesis")
    if label is not None and label not in LABEL_TO_INDEX:
        raise ContractError(f"label must be one of {CLASSES}, got {label!r}")
    p_tokens = tokenize(premise)
    h_tokens = tokenize(hypothesis)
    if not p_tokens or not h_tokens:
        raise ContractError("premise and hypothesis must each produce tokens")

    budget = max_len - 1
    truncated = False
    if len(p_tokens) + len(h_tokens) > budget:
        truncated = True
        if len(p_tokens) > budget:
            p_tokens = p_tokens[:budget]
        h_tokens = h_tokens[: budget - len(p_tokens)]

    ids = vocab.tokens_to_ids(p_tokens) + vocab.tokens_to_ids(h_tokens) + [EOS_ID]
    return EncodedPair(
        token_ids=np.asarray(ids, dtype=np.int64),
        premise_len=len(p_tokens),
        truncated=truncated,
        label_id=LABEL_TO_INDEX[label] if label is not None else None,
    )


def load_snli(path: str | Path) -> list[NliExample]:
    """Read a JSON-lines natural language inference file.

    Each line carries sentence1, sentence2 and gold_label. Records whose
    gold label is "-" (no annotator consensus) are dropped; lines that do
    not parse or lack the fields are skipped and counted.
    """
    path = Path(path)
    examples: list[NliExample] = []
    malformed = 0
    undetermined = 0
    try:
        with path.open("r", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    premise = record["sentence1"]
                    hypothesis = record["sentence2"]
                    label = record["gold_label"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    malformed += 1
                    logger.warning("%s:%d: malformed record skipped", path, line_no)
                    continue
                if label == "-":
                    undetermined += 1
                    continue
                if (
                    label not in CLASSES
                    or not isinstance(premise, str)
                    or not isinstance(hypothesis, str)
                    or not premise.strip()
                    or not hypothesis.strip()
                ):
                    malformed += 1
                    logger.warning("%s:%d: malformed record skipped", path, line_no)
                    continue
                examples.append(NliExample(premise, hypothesis, label))
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise IngestError(f"cannot read corpus file {path}: {exc}") from exc
    logger.info(
        "%s: %d examples loaded, %d without consensus dropped, %d malformed skipped",
        path,
        len(examples),
        undetermined,
        malformed,
    )
    return examples


@dataclass(frozen=True)
class ConflictRecord:
    norm_a: str
    norm_b: str
    conflict_type: str


def _normalize_conflict_type(raw: str) -> str:
    return re.sub(r"[\s_]+", "-", raw.strip().lower())


def load_norm_conflicts(path: str | Path) -> list[ConflictRecord]:
    """Read norm pairs from a delimited text file with header
    norm_a, norm_b, conflict_type.

    Conflict types are normalized to the hyphenated spelling; a type
    outside the known set rejects the file.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if not {"norm_a", "norm_b", "conflict_type"}.issubset(reader.fieldnames or ()):
                raise IngestError(
                    f"{path}: header must contain norm_a, norm_b, conflict_type; "
                    f"got {reader.fieldnames}"
                )
            records = []
            for row_no, row in enumerate(reader, start=2):
                norm_a = (row["norm_a"] or "").strip()
                norm_b = (row["norm_b"] or "").strip()
                if not norm_a or not norm_b:
                    raise IngestError(f"{path}:{row_no}: empty norm text")
                ctype = _normalize_conflict_type(row["conflict_type"] or "")
                if ctype not in CONFLICT_TYPES:
                    raise IngestError(
                        f"{path}:{row_no}: unknown conflict type "
                        f"{row['conflict_type']!r}; known types are {CONFLICT_TYPES}"
                    )
                records.append(ConflictRecord(norm_a, norm_b, ctype))
    except csv.Error as exc:  # a field over the csv module's limit, or a NUL before 3.11
        raise IngestError(f"{path}:{reader.reader.line_num}: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise IngestError(f"cannot read conflicts file {path}: {exc}") from exc
    if not records:
        raise IngestError(f"{path}: no conflict records found")
    return records


def bundled_conflicts_path() -> Path:
    """Path of the norm pair table shipped with the package."""
    return Path(__file__).parent / "data" / "norm_conflicts.csv"
