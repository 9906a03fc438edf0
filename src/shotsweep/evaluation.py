"""Score predictions against gold labels: metrics, reports and traces."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from .corpus import LabelScheme
from .gateway import ParsedLabel

INVALID_COLUMN = "__invalid__"

SCORING_POLICIES = ("strict", "first_match")


class EvaluationError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Prediction:
    record_id: int
    gold: str
    parsed: ParsedLabel
    scored_as: str | None
    content_hash: str


def score_prediction(parsed: ParsedLabel, policy: str = "strict") -> str | None:
    """strict scores single labels only; first_match also takes the first of many."""
    if policy not in SCORING_POLICIES:
        raise EvaluationError(f"unknown scoring policy {policy!r}")
    if parsed.kind == "label":
        return parsed.labels[0]
    if parsed.kind == "multi_label" and policy == "first_match":
        return parsed.labels[0]
    return None


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    weighted_f1: float
    macro_f1: float
    confusion: dict[str, dict[str, int]]
    n_predictions: int
    n_unparseable: int
    n_multilabel: int
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def n_invalid(self) -> int:
        return sum(row[INVALID_COLUMN] for row in self.confusion.values())


def compute_report(
    predictions: Sequence[Prediction],
    scheme: LabelScheme,
    metadata: dict[str, object] | None = None,
) -> EvalReport:
    """Per-class P/R/F1 with 0/0 -> 0, weighted and macro F1, confusion matrix.

    Predictions that scored as None (unparseable, or multi-label under the
    strict policy) count as false negatives for their gold class and land in
    the invalid confusion column.
    """
    if not predictions:
        raise EvaluationError("cannot compute a report over zero predictions")
    label_ids = scheme.label_ids
    confusion: dict[str, dict[str, int]] = {
        gold: {col: 0 for col in (*label_ids, INVALID_COLUMN)} for gold in label_ids
    }
    n_unparseable = 0
    n_multilabel = 0
    for pred in predictions:
        if pred.gold not in confusion:
            raise EvaluationError(
                f"prediction for record {pred.record_id}: gold {pred.gold!r} "
                f"not in scheme {scheme.name!r}"
            )
        column = pred.scored_as if pred.scored_as is not None else INVALID_COLUMN
        if column != INVALID_COLUMN and column not in confusion:
            raise EvaluationError(
                f"prediction for record {pred.record_id}: scored label "
                f"{column!r} not in scheme {scheme.name!r}"
            )
        confusion[pred.gold][column] += 1
        if pred.parsed.kind == "unparseable":
            n_unparseable += 1
        elif pred.parsed.kind == "multi_label":
            n_multilabel += 1

    per_class: dict[str, ClassMetrics] = {}
    for lid in label_ids:
        support = sum(confusion[lid].values())
        tp = confusion[lid][lid]
        fp = sum(confusion[gold][lid] for gold in label_ids if gold != lid)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        per_class[lid] = ClassMetrics(precision, recall, f1, support)

    total = sum(m.support for m in per_class.values())
    weighted_f1 = sum(m.support / total * m.f1 for m in per_class.values())
    macro_f1 = sum(m.f1 for m in per_class.values()) / len(label_ids)
    return EvalReport(
        per_class=per_class,
        weighted_f1=weighted_f1,
        macro_f1=macro_f1,
        confusion=confusion,
        n_predictions=len(predictions),
        n_unparseable=n_unparseable,
        n_multilabel=n_multilabel,
        metadata=dict(metadata or {}),
    )


@dataclass(frozen=True)
class TraceRow:
    """One prediction row of a trace, as TraceWriter writes it and replay reads it."""

    record_id: int
    gold: str
    completion: str
    content_hash: str


class TraceWriter:
    """JSONL trace made by its first prediction; flushed per row so aborted runs keep data."""

    def __init__(self, path: str | Path, meta: dict[str, object]):
        self.path = Path(path)
        self._meta = {"kind": "meta", **meta}
        self._handle: IO[str] | None = None

    def _write(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def write_prediction(self, row: TraceRow) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
            self._write(self._meta)
        self._write({"kind": "prediction", **vars(row)})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class CellRun:
    report: EvalReport  # over the predictions of every partition
    per_partition: tuple[list[Prediction], ...]


def fold_reports(run: CellRun, scheme: LabelScheme) -> list[EvalReport]:
    """One report per partition of run, its metadata tagged with the fold."""
    return [
        compute_report(predictions, scheme, {**run.report.metadata, "fold": fold})
        for fold, predictions in enumerate(run.per_partition)
    ]
