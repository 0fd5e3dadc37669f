"""Bidirectional conflict analysis over contract norm pairs.

Each norm pair is scored twice, once per reading direction, because a
conflict between obligations is not a symmetric relation: "must deliver
originals" against "may deliver copies" can look contradictory one way
and merely unentailed the other. The report keeps both directions side
by side and aggregates them per conflict type.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .base import ContractError, atomic_write, check_fitted
from .estimator import NliClassifier
from .text import CLASSES, CONFLICT_TYPES, ConflictRecord

CSV_COLUMNS = (
    "conflict_type",
    "norm_a",
    "norm_b",
    "entailment_ab",
    "contradiction_ab",
    "neutral_ab",
    "entailment_ba",
    "contradiction_ba",
    "neutral_ba",
    "predicted_ab",
    "predicted_ba",
    "truncated_ab",
    "truncated_ba",
)

PROB_FORMAT = "%.6f"


@dataclass(frozen=True)
class DirectionScore:
    """Model output for one reading direction of a norm pair."""

    entailment: float
    contradiction: float
    neutral: float
    truncated: bool

    def as_array(self) -> np.ndarray:
        return np.array([self.entailment, self.contradiction, self.neutral])

    @property
    def predicted(self) -> str:
        # first maximum wins, so ties resolve entailment, then
        # contradiction, then neutral
        return CLASSES[int(np.argmax(self.as_array()))]


@dataclass(frozen=True)
class PairAnalysis:
    """Both reading directions of one norm pair.

    forward reads norm_a as premise; backward reads norm_b as premise.
    """

    record: ConflictRecord
    forward: DirectionScore
    backward: DirectionScore


@dataclass(frozen=True)
class TypeSummary:
    """Aggregates over every analyzed pair of one conflict type."""

    conflict_type: str
    count: int
    mean_forward: tuple[float, float, float]
    mean_backward: tuple[float, float, float]
    forward_predictions: dict[str, int]
    backward_predictions: dict[str, int]


@dataclass(frozen=True)
class ConflictReport:
    pairs: tuple[PairAnalysis, ...]
    summaries: tuple[TypeSummary, ...]


def score_direction(
    classifier: NliClassifier, premise: str, hypothesis: str
) -> DirectionScore:
    """Probabilities for premise entailing, contradicting, or leaving
    the hypothesis undetermined."""
    check_fitted(classifier, ["params_", "encoder_"])
    pair = classifier.encoder_.transform([(premise, hypothesis)])[0]
    probs = classifier._probabilities([pair])[0]
    return DirectionScore(*(float(p) for p in probs), truncated=pair.truncated)


def analyze_pair(classifier: NliClassifier, record: ConflictRecord) -> PairAnalysis:
    return PairAnalysis(
        record=record,
        forward=score_direction(classifier, record.norm_a, record.norm_b),
        backward=score_direction(classifier, record.norm_b, record.norm_a),
    )


def summarize_type(
    conflict_type: str, pairs: Sequence[PairAnalysis]
) -> TypeSummary:
    if not pairs:
        raise ContractError(f"no pairs to summarize for {conflict_type!r}")
    fwd = np.mean([p.forward.as_array() for p in pairs], axis=0)
    bwd = np.mean([p.backward.as_array() for p in pairs], axis=0)
    fwd_pred = {c: 0 for c in CLASSES}
    bwd_pred = {c: 0 for c in CLASSES}
    for p in pairs:
        fwd_pred[p.forward.predicted] += 1
        bwd_pred[p.backward.predicted] += 1
    return TypeSummary(
        conflict_type=conflict_type,
        count=len(pairs),
        mean_forward=tuple(float(x) for x in fwd),
        mean_backward=tuple(float(x) for x in bwd),
        forward_predictions=fwd_pred,
        backward_predictions=bwd_pred,
    )


def analyze_conflicts(
    classifier: NliClassifier, records: Sequence[ConflictRecord]
) -> ConflictReport:
    """Score every record in both directions and summarize per type.

    Pair rows keep the input order; summaries follow the canonical
    conflict-type order, skipping types with no records.
    """
    records = list(records)
    if not records:
        raise ContractError("no conflict records to analyze")
    pairs = tuple(analyze_pair(classifier, r) for r in records)
    summaries = []
    for conflict_type in CONFLICT_TYPES:
        of_type = [p for p in pairs if p.record.conflict_type == conflict_type]
        if of_type:
            summaries.append(summarize_type(conflict_type, of_type))
    return ConflictReport(pairs=pairs, summaries=tuple(summaries))


def _csv_row(pair: PairAnalysis) -> list[str]:
    r, f, b = pair.record, pair.forward, pair.backward
    probs = [
        f.entailment, f.contradiction, f.neutral,
        b.entailment, b.contradiction, b.neutral,
    ]
    return (
        [r.conflict_type, r.norm_a, r.norm_b]
        + [PROB_FORMAT % p for p in probs]
        + [f.predicted, b.predicted, str(f.truncated).lower(), str(b.truncated).lower()]
    )


def report_to_csv(report: ConflictReport) -> str:
    """The per-pair rows as CSV text; fixed column order and six-decimal
    probabilities keep repeat runs byte-identical."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for pair in report.pairs:
        writer.writerow(_csv_row(pair))
    return buf.getvalue()


def write_report_csv(report: ConflictReport, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(report_to_csv(report))


def _clip_text(text: str, width: int = 48) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def format_report(report: ConflictReport) -> str:
    """Human-readable report: one block per pair, then per-type tables."""
    lines = []
    lines.append("norm conflict analysis")
    lines.append(f"pairs analyzed: {len(report.pairs)}")
    lines.append("")
    header = f"{'dir':<4} {'entail':>9} {'contra':>9} {'neutral':>9}  {'predicted':<13} {'truncated'}"
    for i, pair in enumerate(report.pairs, start=1):
        r = pair.record
        lines.append(f"[{i:02d}] type: {r.conflict_type}")
        lines.append(f"     a: {_clip_text(r.norm_a)}")
        lines.append(f"     b: {_clip_text(r.norm_b)}")
        lines.append("     " + header)
        for tag, d in (("a>b", pair.forward), ("b>a", pair.backward)):
            lines.append(
                f"     {tag:<4} {d.entailment:>9.6f} {d.contradiction:>9.6f} "
                f"{d.neutral:>9.6f}  {d.predicted:<13} {str(d.truncated).lower()}"
            )
        lines.append("")
    lines.append("per-type means")
    lines.append(
        f"{'type':<20} {'n':>3} {'dir':<4} {'entail':>9} {'contra':>9} {'neutral':>9}  predictions"
    )
    for s in report.summaries:
        for tag, mean, preds in (
            ("a>b", s.mean_forward, s.forward_predictions),
            ("b>a", s.mean_backward, s.backward_predictions),
        ):
            pred_text = " ".join(f"{c[0].upper()}={preds[c]}" for c in CLASSES)
            lines.append(
                f"{s.conflict_type:<20} {s.count:>3} {tag:<4} "
                f"{mean[0]:>9.6f} {mean[1]:>9.6f} {mean[2]:>9.6f}  {pred_text}"
            )
    lines.append("")
    return "\n".join(lines)


def write_report_text(report: ConflictReport, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(format_report(report))
