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
from .training import probabilities

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
# the reading directions, in the order of a report's second axis
DIRECTIONS = ("a>b", "b>a")


@dataclass(frozen=True)
class ConflictReport:
    """Both reading directions of every record, in input order.

    ``probs`` is a float64 (N, 2, 3) array: ``probs[i, 0]`` reads
    ``records[i].norm_a`` as premise (a>b), ``probs[i, 1]`` reads
    ``norm_b`` as premise (b>a), and the last axis follows CLASSES.
    ``truncated`` is the (N, 2) bool array of directions cut to the
    model's maximum length.
    """

    records: tuple[ConflictRecord, ...]
    probs: np.ndarray
    truncated: np.ndarray

    @property
    def predicted(self) -> np.ndarray:
        """(N, 2) labels. The first maximum wins, so ties resolve
        entailment, then contradiction, then neutral."""
        return np.asarray(CLASSES, dtype=object)[self.probs.argmax(-1)]


def analyze_conflicts(
    classifier: NliClassifier, records: Sequence[ConflictRecord]
) -> ConflictReport:
    """Score every record in both directions: all 2N directions are
    encoded at once, then each runs its own forward pass."""
    records = tuple(records)
    if not records:
        raise ContractError("no conflict records to analyze")
    check_fitted(classifier, ["params_", "encoder_"])
    encoded = classifier.encoder_.transform(
        [pair for r in records for pair in ((r.norm_a, r.norm_b), (r.norm_b, r.norm_a))]
    )
    probs = np.concatenate([probabilities(classifier.params_, [pair]) for pair in encoded])
    shape = (len(records), len(DIRECTIONS))
    return ConflictReport(
        records=records,
        probs=probs.reshape(*shape, len(CLASSES)),
        truncated=np.array([pair.truncated for pair in encoded]).reshape(shape),
    )


def report_to_csv(report: ConflictReport) -> str:
    """The per-pair rows as CSV text; fixed column order and six-decimal
    probabilities keep repeat runs byte-identical."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r, probs, predicted, truncated in zip(
        report.records, report.probs, report.predicted, report.truncated
    ):
        writer.writerow(
            [r.conflict_type, r.norm_a, r.norm_b]
            + [PROB_FORMAT % p for p in probs.ravel()]
            + list(predicted)
            + [str(t).lower() for t in truncated]
        )
    return buf.getvalue()


def write_report_csv(report: ConflictReport, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(report_to_csv(report))


def _clip_text(text: str, width: int = 48) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def format_report(report: ConflictReport) -> str:
    """Human-readable report: one block per pair, then per-type tables
    in canonical conflict-type order, skipping types with no records."""
    predicted = report.predicted
    lines = ["norm conflict analysis", f"pairs analyzed: {len(report.records)}", ""]
    header = f"{'dir':<4} {'entail':>9} {'contra':>9} {'neutral':>9}  {'predicted':<13} {'truncated'}"
    for i, r in enumerate(report.records):
        lines.append(f"[{i + 1:02d}] type: {r.conflict_type}")
        lines.append(f"     a: {_clip_text(r.norm_a)}")
        lines.append(f"     b: {_clip_text(r.norm_b)}")
        lines.append("     " + header)
        for d, tag in enumerate(DIRECTIONS):
            e, c, n = report.probs[i, d]
            lines.append(
                f"     {tag:<4} {e:>9.6f} {c:>9.6f} {n:>9.6f}  "
                f"{predicted[i, d]:<13} {str(report.truncated[i, d]).lower()}"
            )
        lines.append("")
    lines.append("per-type means")
    lines.append(
        f"{'type':<20} {'n':>3} {'dir':<4} {'entail':>9} {'contra':>9} {'neutral':>9}  predictions"
    )
    types = np.array([r.conflict_type for r in report.records])
    for conflict_type in CONFLICT_TYPES:
        of_type = types == conflict_type
        if not of_type.any():
            continue
        means = report.probs[of_type].mean(axis=0)
        for d, tag in enumerate(DIRECTIONS):
            counts = [int((predicted[of_type, d] == c).sum()) for c in CLASSES]
            pred_text = " ".join(f"{c[0].upper()}={k}" for c, k in zip(CLASSES, counts))
            lines.append(
                f"{conflict_type:<20} {int(of_type.sum()):>3} {tag:<4} "
                f"{means[d, 0]:>9.6f} {means[d, 1]:>9.6f} {means[d, 2]:>9.6f}  {pred_text}"
            )
    lines.append("")
    return "\n".join(lines)


def write_report_text(report: ConflictReport, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(format_report(report))
