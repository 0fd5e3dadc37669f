"""Bidirectional conflict analysis: scoring, aggregation, report formats."""

import csv
import io
import re

import numpy as np
import pytest
from helpers import fit_tiny_classifier

from norminfer.base import ContractError
from norminfer.conflicts import (
    CSV_COLUMNS,
    ConflictReport,
    DirectionScore,
    PairAnalysis,
    analyze_conflicts,
    analyze_pair,
    format_report,
    report_to_csv,
    score_direction,
    summarize_type,
    write_report_csv,
    write_report_text,
)
from norminfer.text import (
    CLASSES,
    CONFLICT_TYPES,
    ConflictRecord,
    bundled_conflicts_path,
    load_norm_conflicts,
)


@pytest.fixture(scope="module")
def clf():
    return fit_tiny_classifier()


@pytest.fixture(scope="module")
def records():
    return [
        ConflictRecord("the seller must pay", "the seller may pay", "deontic-modality"),
        ConflictRecord("the buyer must notify", "the buyer must not notify", "deontic-structure"),
        ConflictRecord("pay in london", "pay in paris", "deontic-object"),
        ConflictRecord("deliver goods, monthly", "deliver goods if asked", "object-conditional"),
        ConflictRecord("a must ship", "a may ship", "deontic-modality"),
    ]


@pytest.fixture(scope="module")
def report(clf, records):
    return analyze_conflicts(clf, records)


class TestDirectionScore:
    def test_probabilities_sum_to_one(self, clf):
        score = score_direction(clf, "a dog is walking", "a dog is not walking")
        assert score.as_array().sum() == pytest.approx(1.0, abs=1e-6)
        assert score.predicted in CLASSES

    def test_prediction_matches_argmax(self, clf):
        score = score_direction(clf, "a man is eating", "a man is eating in the park")
        assert score.predicted == CLASSES[int(np.argmax(score.as_array()))]

    def test_argmax_tie_break_prefers_earlier_class(self):
        assert DirectionScore(0.4, 0.4, 0.2, truncated=False).predicted == "entailment"
        assert DirectionScore(0.2, 0.4, 0.4, truncated=False).predicted == "contradiction"
        assert DirectionScore(0.1, 0.2, 0.7, truncated=False).predicted == "neutral"

    def test_truncation_flag_surfaces(self, clf):
        long_text = " ".join(["word"] * 40)
        score = score_direction(clf, long_text, long_text)
        assert score.truncated is True
        short = score_direction(clf, "a b", "c d")
        assert short.truncated is False

    def test_requires_fitted_classifier(self):
        from norminfer.base import NotFittedError
        from norminfer.estimator import NliClassifier

        with pytest.raises(NotFittedError):
            score_direction(NliClassifier(), "a", "b")


class TestAnalyzePair:
    def test_directions_swap_premise_and_hypothesis(self, clf):
        record = ConflictRecord("a dog is walking", "a dog is sleeping", "deontic-object")
        analysis = analyze_pair(clf, record)
        fwd = score_direction(clf, record.norm_a, record.norm_b)
        bwd = score_direction(clf, record.norm_b, record.norm_a)
        assert analysis.forward == fwd
        assert analysis.backward == bwd

    def test_directions_differ_in_general(self, clf):
        # Both directions of a pair concatenate the same token multiset, and
        # near initialization attention is close to uniform, which averages
        # the directions to within float32 rounding of each other. Sharpen
        # attention so position order actually reaches the output.
        from norminfer.estimator import NliClassifier

        params = clf.params_.copy()
        params.embedding.data *= 20.0
        for blk in params.blocks:
            blk.w_qkv.data *= 20.0
        sharp = NliClassifier.from_artifacts(params, clf.vocabulary_)
        record = ConflictRecord(
            "a man is eating in the park", "a man is eating", "deontic-modality"
        )
        analysis = analyze_pair(sharp, record)
        assert not np.array_equal(
            analysis.forward.as_array(), analysis.backward.as_array()
        )


class TestReport:
    def test_pairs_keep_input_order(self, report, records):
        assert [p.record for p in report.pairs] == records

    def test_summaries_follow_canonical_type_order(self, report):
        types = [s.conflict_type for s in report.summaries]
        assert types == [t for t in CONFLICT_TYPES if t in types]
        assert set(types) == set(CONFLICT_TYPES)

    def test_counts_partition_pairs(self, report, records):
        assert sum(s.count for s in report.summaries) == len(records)
        by_type = {s.conflict_type: s.count for s in report.summaries}
        assert by_type["deontic-modality"] == 2

    def test_histograms_sum_to_count(self, report):
        for s in report.summaries:
            assert sum(s.forward_predictions.values()) == s.count
            assert sum(s.backward_predictions.values()) == s.count
            assert set(s.forward_predictions) == set(CLASSES)

    def test_means_match_manual_average(self, report):
        for s in report.summaries:
            of_type = [
                p for p in report.pairs if p.record.conflict_type == s.conflict_type
            ]
            manual = np.mean([p.forward.as_array() for p in of_type], axis=0)
            assert np.allclose(s.mean_forward, manual, atol=1e-12)

    def test_empty_inputs_rejected(self, clf):
        with pytest.raises(ContractError):
            analyze_conflicts(clf, [])
        with pytest.raises(ContractError):
            summarize_type("deontic-modality", [])

    def test_absent_types_are_skipped(self, clf):
        only_one = [ConflictRecord("a must pay", "a may pay", "deontic-modality")]
        rep = analyze_conflicts(clf, only_one)
        assert len(rep.summaries) == 1
        assert rep.summaries[0].conflict_type == "deontic-modality"


class TestCsvOutput:
    def test_header_and_row_count(self, report, records):
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + len(records)

    def test_probabilities_have_six_decimals(self, report):
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        for row in rows[1:]:
            for cell in row[3:9]:
                assert re.fullmatch(r"0\.\d{6}|1\.000000", cell), cell

    def test_row_values_round_trip(self, report):
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        for row, pair in zip(rows[1:], report.pairs):
            assert row[0] == pair.record.conflict_type
            assert row[1] == pair.record.norm_a
            assert float(row[3]) == pytest.approx(pair.forward.entailment, abs=5e-7)
            assert float(row[8]) == pytest.approx(pair.backward.neutral, abs=5e-7)
            assert row[9] == pair.forward.predicted
            assert row[12] == str(pair.backward.truncated).lower()

    def test_norms_with_commas_survive_quoting(self, clf):
        record = ConflictRecord('say "yes", then pay', "pay, then say", "deontic-object")
        text = report_to_csv(analyze_conflicts(clf, [record]))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][1] == 'say "yes", then pay'

    def test_byte_identical_across_runs(self, clf, records):
        a = report_to_csv(analyze_conflicts(clf, records))
        b = report_to_csv(analyze_conflicts(clf, records))
        assert a == b

    def test_write_to_file(self, report, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        assert out.read_text(encoding="utf-8") == report_to_csv(report)


class TestTextOutput:
    def test_mentions_every_type_and_direction(self, report):
        text = format_report(report)
        for s in report.summaries:
            assert s.conflict_type in text
        assert "a>b" in text and "b>a" in text
        assert f"pairs analyzed: {len(report.pairs)}" in text

    def test_deterministic(self, clf, records):
        a = format_report(analyze_conflicts(clf, records))
        b = format_report(analyze_conflicts(clf, records))
        assert a == b

    def test_write_to_file(self, report, tmp_path):
        out = tmp_path / "report.txt"
        write_report_text(report, out)
        assert out.read_text(encoding="utf-8") == format_report(report)


class TestBundledCorpus:
    def test_full_bundled_analysis(self, clf):
        records = load_norm_conflicts(bundled_conflicts_path())
        report = analyze_conflicts(clf, records)
        assert len(report.pairs) == 14
        assert {s.conflict_type for s in report.summaries} == set(CONFLICT_TYPES)
        for pair in report.pairs:
            assert pair.forward.as_array().sum() == pytest.approx(1.0, abs=1e-6)
            assert pair.backward.as_array().sum() == pytest.approx(1.0, abs=1e-6)
