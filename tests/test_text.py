import json
import logging

import numpy as np
import pytest

from norminfer.base import ConfigError, ContractError, IngestError
from norminfer.estimator import PairEncoder
from norminfer.text import (
    CLASSES,
    CONFLICT_TYPES,
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    ConflictRecord,
    NliExample,
    Vocabulary,
    build_vocab,
    bundled_conflicts_path,
    encode_pair,
    load_norm_conflicts,
    load_snli,
    tokenize,
)


def make_vocab(*texts):
    examples = [NliExample(t, t, "neutral") for t in texts]
    return build_vocab(examples)


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("A Car is being driven.") == [
            "a", "car", "is", "being", "driven", ".",
        ]

    def test_punctuation_chars_are_separate_tokens(self):
        assert tokenize("no, wait!") == ["no", ",", "wait", "!"]
        assert tokenize('"Products"') == ['"', "products", '"']

    def test_unicode_apostrophe_splits(self):
        assert tokenize("Buyer’s") == ["buyer", "’", "s"]

    def test_deterministic(self):
        text = "The Facility shall meet ALL legal standards."
        assert tokenize(text) == tokenize(text)

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_non_string_rejected(self):
        with pytest.raises(ContractError):
            tokenize(42)


class TestVocabulary:
    def test_reserved_tokens_first(self):
        vocab = make_vocab("a b c")
        assert tuple(vocab.id_to_token[:3]) == RESERVED_TOKENS
        assert vocab.token_to_id[EOS_TOKEN] == EOS_ID

    def test_frequency_then_lexicographic_order(self):
        examples = [
            NliExample("b b b c", "a a", "neutral"),
            NliExample("c a", "b", "neutral"),
        ]
        vocab = build_vocab(examples)
        # b appears 4 times, a 3 times, c 2 times
        assert vocab.id_to_token[3:] == ["b", "a", "c"]

    def test_ties_break_lexicographically(self):
        vocab = make_vocab("zebra apple")
        assert vocab.id_to_token[3:] == ["apple", "zebra"]

    def test_min_count_filters(self):
        examples = [NliExample("rare common common", "common", "neutral")]
        vocab = build_vocab(examples, min_count=2)
        assert "common" in vocab
        assert "rare" not in vocab

    def test_unknown_token_maps_to_unk(self):
        vocab = make_vocab("known words")
        assert vocab.token_id("unknown") == UNK_ID

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            build_vocab([])

    def test_roundtrip_ids_to_tokens(self):
        vocab = make_vocab("every token returns home")
        tokens = ["every", "token", "returns", "home"]
        assert vocab.ids_to_tokens(vocab.tokens_to_ids(tokens)) == tokens

    def test_save_load_roundtrip(self, tmp_path):
        vocab = make_vocab("saved and restored tokens .")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.content_hash() == vocab.content_hash()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            Vocabulary.load(tmp_path / "nope.txt")

    def test_load_skips_a_byte_order_mark(self, tmp_path):
        vocab = make_vocab("saved and restored tokens .")
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(vocab.id_to_token) + "\n", encoding="utf-8-sig")
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.content_hash() == vocab.content_hash()

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ContractError):
            Vocabulary(list(RESERVED_TOKENS) + ["x", "x"])


class TestEncodePair:
    def test_layout_premise_hypothesis_eos(self):
        vocab = make_vocab("a car is being driven . stuck")
        pair = encode_pair("A Car is being driven.", "A Car is stuck", vocab)
        assert pair.token_ids[-1] == EOS_ID
        assert len(pair) == 6 + 4 + 1
        assert pair.premise_len == 6
        assert pair.hypothesis_len == 4
        assert not pair.truncated
        assert PAD_ID not in pair.token_ids

    def test_label_id(self):
        vocab = make_vocab("x y")
        pair = encode_pair("x", "y", vocab, label="contradiction")
        assert pair.label_id == CLASSES.index("contradiction")
        assert encode_pair("x", "y", vocab).label_id is None

    def test_unknown_words_become_unk(self):
        vocab = make_vocab("known")
        pair = encode_pair("known", "mystery", vocab)
        assert pair.token_ids[1] == UNK_ID

    def test_hypothesis_tail_truncated_first(self):
        vocab = make_vocab("w")
        premise = " ".join(["w"] * 10)
        hypothesis = " ".join(["w"] * 30)
        pair = encode_pair(premise, hypothesis, vocab, max_len=20)
        assert pair.truncated
        assert len(pair) == 20
        assert pair.premise_len == 10
        assert pair.hypothesis_len == 9
        assert pair.token_ids[-1] == EOS_ID

    def test_oversized_premise_also_truncated(self):
        vocab = make_vocab("w")
        pair = encode_pair(" ".join(["w"] * 50), "w w", vocab, max_len=16)
        assert pair.truncated
        assert len(pair) == 16
        assert pair.premise_len == 15
        assert pair.hypothesis_len == 0
        assert pair.token_ids[-1] == EOS_ID

    def test_length_cap_property(self):
        vocab = make_vocab("w")
        rng = np.random.default_rng(41)
        for _ in range(25):
            np_, nh = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            pair = encode_pair(
                " ".join(["w"] * np_), " ".join(["w"] * nh), vocab, max_len=24
            )
            assert len(pair) <= 24
            assert pair.token_ids[-1] == EOS_ID
            assert pair.truncated == (np_ + nh + 1 > 24)

    def test_a_one_token_budget_keeps_only_the_end_of_sequence(self):
        pair = encode_pair("x y", "y", make_vocab("x y"), max_len=1)
        assert pair.token_ids.tolist() == [EOS_ID]
        assert pair.truncated

    @pytest.mark.parametrize("max_len", [0, -1, -360, 2.5, True])
    def test_a_budget_below_one_token_is_rejected(self, max_len):
        """max_len = 0 once gave the 3-token pair, longer than its bound, and
        a negative one encoded every pair as [EOS] alone."""
        vocab = make_vocab("x y")
        with pytest.raises(ConfigError, match="max_len must be an integer >= 1"):
            encode_pair("x", "y", vocab, max_len=max_len)
        encoder = PairEncoder(max_len=max_len).fit([NliExample("x", "y", "neutral")])
        with pytest.raises(ConfigError, match="max_len"):
            encoder.transform([("x", "y")])

    def test_empty_sides_rejected(self):
        vocab = make_vocab("x")
        with pytest.raises(ContractError):
            encode_pair("", "x", vocab)
        with pytest.raises(ContractError):
            encode_pair("x", "   ", vocab)


class TestLoadSnli:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_reads_records(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps(
                    {"sentence1": "A dog runs.", "sentence2": "An animal moves.",
                     "gold_label": "entailment", "captionID": "x"}
                ),
                json.dumps(
                    {"sentence1": "A dog runs.", "sentence2": "A cat sleeps.",
                     "gold_label": "contradiction"}
                ),
            ],
        )
        examples = load_snli(path)
        assert [e.label for e in examples] == ["entailment", "contradiction"]
        assert examples[0].premise == "A dog runs."

    def test_undetermined_labels_dropped(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "-"}),
                json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "neutral"}),
            ],
        )
        examples = load_snli(path)
        assert len(examples) == 1

    def test_malformed_lines_skipped_and_counted(self, tmp_path, caplog):
        path = self.write(
            tmp_path,
            [
                "{not json",
                json.dumps({"sentence1": "a", "gold_label": "neutral"}),
                json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "maybe"}),
                json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "neutral"}),
            ],
        )
        with caplog.at_level(logging.INFO, logger="norminfer.text"):
            examples = load_snli(path)
        assert len(examples) == 1
        assert "3 malformed skipped" in caplog.text

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_snli(tmp_path / "absent.jsonl")

    def test_byte_order_mark_keeps_the_first_record(self, tmp_path, caplog):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "neutral"}) + "\n",
            encoding="utf-8-sig",
        )
        with caplog.at_level(logging.INFO, logger="norminfer.text"):
            examples = load_snli(path)
        assert [(e.premise, e.label) for e in examples] == [("a", "neutral")]
        assert "0 malformed skipped" in caplog.text


class TestLoadNormConflicts:
    def test_bundled_table(self):
        records = load_norm_conflicts(bundled_conflicts_path())
        assert len(records) == 14
        assert {r.conflict_type for r in records} == set(CONFLICT_TYPES)
        assert any("arbitration" in r.norm_a for r in records)

    def test_type_spelling_normalized(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            'norm_a,norm_b,conflict_type\n"x shall y","x may y",deontic modality\n',
            encoding="utf-8",
        )
        records = load_norm_conflicts(path)
        assert records[0].conflict_type == "deontic-modality"

    def test_unknown_type_rejected_with_value(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            'norm_a,norm_b,conflict_type\n"a","b",temporal\n', encoding="utf-8"
        )
        with pytest.raises(IngestError, match="temporal"):
            load_norm_conflicts(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("norm_a,norm_b\na,b\n", encoding="utf-8")
        with pytest.raises(IngestError, match="header"):
            load_norm_conflicts(path)

    def test_empty_norm_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            'norm_a,norm_b,conflict_type\n"","b",deontic-object\n', encoding="utf-8"
        )
        with pytest.raises(IngestError, match="empty norm"):
            load_norm_conflicts(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_norm_conflicts(tmp_path / "absent.csv")

    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "norm_a,norm_b,conflict_type\nx shall y,x may y,deontic-modality\n"
            f"{'w ' * 70_000},x may y,deontic-modality\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as caught:
            load_norm_conflicts(path)
        assert str(caught.value).startswith(f"{path}:3: field larger than field limit")

    def test_byte_order_mark_before_the_header(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        path = tmp_path / "c.csv"
        path.write_text(
            "norm_a,norm_b,conflict_type\nx shall y,x may y,deontic-modality\n",
            encoding="utf-8-sig",
        )
        assert load_norm_conflicts(path) == [
            ConflictRecord("x shall y", "x may y", "deontic-modality")
        ]
