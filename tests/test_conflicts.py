"""Bidirectional conflict analysis: scoring, aggregation, report formats."""

import csv
import io
import re
import threading

import numpy as np
import pytest
from helpers import bundled_word_classifier, fit_tiny_classifier

from norminfer import base, training
from norminfer.base import ContractError, NotFittedError, NumericError
from norminfer.conflicts import (
    CSV_COLUMNS,
    DIRECTIONS,
    ConflictReport,
    analyze_conflicts,
    format_report,
    report_to_csv,
    write_report_csv,
    write_report_text,
)
from norminfer.estimator import NliClassifier
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


def type_table(text):
    """The per-type rows of a text report: (type, n, dir) -> (means, counts)."""
    table = text.split("per-type means\n")[1].splitlines()[1:]
    rows = {}
    for line in filter(None, table):
        ctype, n, tag, e, c, nu, *preds = line.split()
        counts = dict(p.split("=") for p in preds)
        rows[ctype, int(n), tag] = ([e, c, nu], [int(counts[k[0].upper()]) for k in CLASSES])
    return rows


class TestDirectionScore:
    def test_probabilities_sum_to_one(self, report):
        assert np.allclose(report.probs.sum(-1), 1.0, atol=1e-6)
        assert set(report.predicted.ravel()) <= set(CLASSES)

    def test_prediction_matches_argmax(self, report):
        expected = np.asarray(CLASSES, dtype=object)[report.probs.argmax(-1)]
        assert report.predicted.shape == report.truncated.shape
        assert (report.predicted == expected).all()

    def test_argmax_tie_break_prefers_earlier_class(self):
        probs = np.array([[[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]], [[0.1, 0.2, 0.7], [0.5, 0.0, 0.5]]])
        tied = ConflictReport((), probs, np.zeros((2, 2), dtype=bool))
        assert tied.predicted.tolist() == [
            ["entailment", "contradiction"], ["neutral", "entailment"],
        ]

    def test_truncation_flag_surfaces(self, clf):
        long_text = " ".join(["word"] * 40)
        records = [
            ConflictRecord(long_text, "a b", "deontic-object"),
            ConflictRecord("a b", "c d", "deontic-object"),
        ]
        rep = analyze_conflicts(clf, records)
        for i, r in enumerate(records):
            for d, pair in enumerate([(r.norm_a, r.norm_b), (r.norm_b, r.norm_a)]):
                assert rep.truncated[i, d] == clf.encoder_.transform([pair])[0].truncated
        assert rep.truncated.tolist() == [[True, True], [False, False]]

    def test_requires_fitted_classifier(self, records):
        with pytest.raises(NotFittedError):
            analyze_conflicts(NliClassifier(), records)


class TestAnalyzePair:
    def test_directions_swap_premise_and_hypothesis(self, clf, report, records):
        """Each direction's row is predict_proba of that reading."""
        for i, r in enumerate(records):
            for d, pair in enumerate([(r.norm_a, r.norm_b), (r.norm_b, r.norm_a)]):
                assert np.array_equal(report.probs[i, d], clf.predict_proba([pair])[0])

    def test_directions_differ_in_general(self, clf):
        # Both directions of a pair concatenate the same token multiset, and
        # near initialization attention is close to uniform, which averages
        # the directions to within float32 rounding of each other. Sharpen
        # attention so position order actually reaches the output.
        params = clf.params_.copy()
        params.embedding.data *= 20.0
        for blk in params.blocks:
            blk.w_qkv.data *= 20.0
        sharp = NliClassifier.from_artifacts(params, clf.vocabulary_)
        record = ConflictRecord(
            "a man is eating in the park", "a man is eating", "deontic-modality"
        )
        probs = analyze_conflicts(sharp, [record]).probs
        assert not np.array_equal(probs[0, 0], probs[0, 1])


class TestReport:
    """The arrays, and the per-type table the text report prints from them."""

    def test_pairs_keep_input_order(self, report, records):
        assert report.records == tuple(records)
        assert report.probs.shape == (len(records), 2, len(CLASSES))
        assert report.probs.dtype == np.float64
        assert report.truncated.shape == (len(records), 2)
        assert report.truncated.dtype == bool

    def test_summaries_follow_canonical_type_order(self, report):
        types = [key[0] for key in type_table(format_report(report))][::2]
        assert types == [t for t in CONFLICT_TYPES if t in types]
        assert set(types) == set(CONFLICT_TYPES)

    def test_counts_partition_pairs(self, report, records):
        rows = type_table(format_report(report))
        assert sum(n for _, n, tag in rows if tag == "a>b") == len(records)
        assert ("deontic-modality", 2, "a>b") in rows

    def test_histograms_sum_to_count(self, report):
        for (ctype, n, tag), (_, counts) in type_table(format_report(report)).items():
            of_type = np.array([r.conflict_type == ctype for r in report.records])
            d = DIRECTIONS.index(tag)
            assert counts == [int((report.predicted[of_type, d] == c).sum()) for c in CLASSES]
            assert sum(counts) == n

    def test_means_match_manual_average(self, report):
        for (ctype, _, tag), (means, _) in type_table(format_report(report)).items():
            rows = [i for i, r in enumerate(report.records) if r.conflict_type == ctype]
            manual = np.mean([report.probs[i, DIRECTIONS.index(tag)] for i in rows], axis=0)
            assert means == [f"{m:.6f}" for m in manual]

    def test_empty_inputs_rejected(self, clf):
        with pytest.raises(ContractError):
            analyze_conflicts(clf, [])

    def test_absent_types_are_skipped(self, clf):
        records = [
            ConflictRecord("pay in london", "pay in paris", "deontic-object"),
            ConflictRecord("a must pay", "a may pay", "deontic-modality"),
        ]
        rows = type_table(format_report(analyze_conflicts(clf, records)))
        assert list(rows) == [
            (ctype, 1, tag) for ctype in ("deontic-modality", "deontic-object") for tag in DIRECTIONS
        ]


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
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
        for i, (row, r) in enumerate(zip(rows, report.records)):
            assert (row["conflict_type"], row["norm_a"], row["norm_b"]) == (
                r.conflict_type, r.norm_a, r.norm_b,
            )
            for d, suffix in enumerate(("ab", "ba")):
                for k, name in enumerate(CLASSES):
                    assert float(row[f"{name}_{suffix}"]) == pytest.approx(
                        report.probs[i, d, k], abs=5e-7
                    )
                assert row[f"predicted_{suffix}"] == report.predicted[i, d]
                assert row[f"truncated_{suffix}"] == str(bool(report.truncated[i, d])).lower()

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
        for r in report.records:
            assert r.conflict_type in text
        assert "a>b" in text and "b>a" in text
        assert f"pairs analyzed: {len(report.records)}" in text

    def test_pair_blocks_print_the_arrays(self, report):
        text = format_report(report)
        for i, r in enumerate(report.records):
            block = text.split(f"[{i + 1:02d}] type: {r.conflict_type}\n")[1].split("\n\n")[0]
            for d, tag in enumerate(DIRECTIONS):
                line = next(x for x in block.splitlines() if x.split()[0] == tag)
                assert line.split()[1:] == [
                    *(f"{p:.6f}" for p in report.probs[i, d]),
                    report.predicted[i, d],
                    str(bool(report.truncated[i, d])).lower(),
                ]

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
        assert len(report.records) == 14
        assert {r.conflict_type for r in report.records} == set(CONFLICT_TYPES)
        assert np.allclose(report.probs.sum(-1), 1.0, atol=1e-6)


class TestSharedDirections:
    """From ``SPLIT_WORK`` on, the caller and the helper thread take the
    directions; each is still scored alone, so the bytes stay the same."""

    @pytest.fixture(scope="class")
    def worded(self):
        return bundled_word_classifier()

    @pytest.fixture(scope="class")
    def clf(self, worded):
        return worded[0]

    @pytest.fixture(scope="class")
    def bundled(self, worded):
        return worded[1]

    def spy(self, monkeypatch, workers=2, poisoned=(), split_work=1):
        """Run with ``SPLIT_WORK`` at ``split_work`` on ``workers`` threads.
        With two, each thread's first pass waits for the other's, so both
        surely take part. A pass over an encoded pair in ``poisoned`` gives
        NaN logits. Returns the (thread, pairs, tokens) of each forward pass."""
        monkeypatch.setattr(training, "SPLIT_WORK", split_work)
        monkeypatch.setattr(base, "_WORKERS", workers)
        meet = threading.Barrier(workers, timeout=30)
        calls, lock, forward = [], threading.Lock(), training.forward_batch

        def meeting(batch, params, **kw):
            with lock:
                first = all(call[0] != threading.get_ident() for call in calls)
                calls.append((threading.get_ident(), batch.size, batch.token_ids.size))
            if first:
                meet.wait()
            logits = forward(batch, params, **kw)
            if any(np.array_equal(batch.token_ids, p.token_ids) for p in poisoned):
                logits.data[:] = np.nan
            return logits

        monkeypatch.setattr(training, "forward_batch", meeting)
        return calls

    def test_a_toy_report_submits_no_helper_job(self, monkeypatch, clf, bundled):
        calls = self.spy(monkeypatch, workers=1, split_work=training.SPLIT_WORK)
        monkeypatch.setattr(base, "_WORKERS", 2)
        made = []
        monkeypatch.setattr(base, "_helper_pool", lambda pid: made.append(pid))
        analyze_conflicts(clf, bundled)
        assert made == []
        assert [size for _, size, _ in calls] == [1] * 2 * len(bundled)

    def test_two_threads_take_the_directions_one_pair_each(self, monkeypatch, clf, bundled):
        calls = self.spy(monkeypatch)
        analyze_conflicts(clf, bundled)
        assert len(calls) == 2 * len(bundled)
        assert {size for _, size, _ in calls} == {1}
        assert len({thread for thread, _, _ in calls}) == 2

    def test_csv_bytes_do_not_depend_on_the_thread_count(self, monkeypatch, clf, bundled):
        alone = report_to_csv(analyze_conflicts(clf, bundled))
        calls = self.spy(monkeypatch, workers=1)
        one = report_to_csv(analyze_conflicts(clf, bundled))
        tokens = [n for _, _, n in calls]
        assert tokens == sorted(tokens, reverse=True) and len(set(tokens)) > 1  # longest first
        self.spy(monkeypatch, workers=2)
        two = report_to_csv(analyze_conflicts(clf, bundled))
        assert alone == one == two

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("poisoned, named", [
        ([(2, 1)], "pair 3 (b>a)"),
        ([(13, 0), (5, 0), (2, 1)], "pair 3 (b>a)"),
        ([(13, 1)], "pair 14 (b>a)"),
        ([(0, 0)], "pair 1 (a>b)"),
    ])
    def test_a_non_finite_direction_is_named(self, monkeypatch, clf, bundled,
                                             workers, poisoned, named):
        """Only the poisoned directions give NaN; the lowest is named,
        whichever thread met it first."""
        encoded = clf.encoder_.transform(
            [(r.norm_a, r.norm_b)[::1 - 2 * d] for r in bundled for d in range(2)]
        )
        assert len({p.token_ids.tobytes() for p in encoded}) == 2 * len(bundled)
        encoded = [encoded[2 * i + d] for i, d in poisoned]
        calls = self.spy(monkeypatch, workers, poisoned=encoded)
        with pytest.raises(NumericError) as caught:
            analyze_conflicts(clf, bundled)
        assert str(caught.value) == f"non-finite class logits for {named}"
        assert len(calls) == 2 * len(bundled)
