"""Parse completions and score them against gold labels: metrics and reports."""

from __future__ import annotations

import functools
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from .corpus import LabelScheme, normalize_completion

INVALID_COLUMN = "__invalid__"

SCORING_POLICIES = ("strict", "first_match")

PARSE_KINDS = ("label", "multi_label", "unparseable")  # what a kinds column indexes


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class ParsedLabel:
    kind: str  # one of PARSE_KINDS
    labels: tuple[str, ...] = ()


@functools.lru_cache(maxsize=16)
def _form_patterns(scheme: LabelScheme) -> tuple[tuple[str, re.Pattern[str], str], ...]:
    """(normalized form, whole-word pattern, label id) for each surface form.

    One pattern per form, not one alternation: an alternation returns the
    leftmost match, which can hide a longer overlapping form further right.
    """
    patterns = []
    for label in scheme.labels:
        for form in label.surface_forms():
            norm_form = normalize_completion(form)  # never empty: see LabelScheme
            pattern = re.compile(rf"(?<![a-z0-9]){re.escape(norm_form)}(?![a-z0-9])")
            patterns.append((norm_form, pattern, label.label_id))
    return tuple(patterns)


def parse_label(completion: str, scheme: LabelScheme) -> ParsedLabel:
    """Total mapping from raw completion text to a ParsedLabel.

    Canonical names and aliases match as whole words on the normalized text;
    overlaps resolve longest-match-first, so a name embedded in a longer one
    (e.g. within a hyphenated compound) does not double count.
    """
    norm = normalize_completion(completion)
    if not norm:
        return ParsedLabel("unparseable")
    matches: list[tuple[int, int, str]] = []
    for norm_form, pattern, label_id in _form_patterns(scheme):
        if norm_form in norm:
            for hit in pattern.finditer(norm):
                matches.append((hit.start(), hit.end(), label_id))
    accepted: list[tuple[int, int, str]] = []
    for start, end, lid in sorted(matches, key=lambda m: (-(m[1] - m[0]), m[0])):
        if all(end <= a_start or start >= a_end for a_start, a_end, _ in accepted):
            accepted.append((start, end, lid))
    accepted.sort(key=lambda m: m[0])
    ordered_labels: list[str] = []
    for _, _, lid in accepted:
        if lid not in ordered_labels:
            ordered_labels.append(lid)
    if not ordered_labels:
        return ParsedLabel("unparseable")
    if len(ordered_labels) == 1:
        return ParsedLabel("label", (ordered_labels[0],))
    return ParsedLabel("multi_label", tuple(ordered_labels))


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
    gold: Sequence[int],
    scored: Sequence[int],
    kinds: Sequence[int],
    scheme: LabelScheme,
    metadata: dict[str, object] | None = None,
) -> EvalReport:
    """Per-class P/R/F1 with 0/0 -> 0, weighted and macro F1, confusion matrix,
    counted from class-index columns in step: gold indexes scheme.label_ids,
    scored does too or is -1, and kinds indexes PARSE_KINDS.

    An answer scored -1 (unparseable, or multi-label under the strict policy)
    counts as a false negative for its gold class and lands in the invalid
    confusion column.
    """
    if not gold:
        raise EvaluationError("cannot compute a report over zero predictions")
    label_ids = scheme.label_ids
    if not len(gold) == len(scored) == len(kinds):
        raise EvaluationError(f"columns of {len(gold)}, {len(scored)} and {len(kinds)} rows")
    n = len(label_ids)
    for name, column, low, end in (
        ("gold", gold, 0, n), ("scored", scored, -1, n), ("kinds", kinds, 0, len(PARSE_KINDS))
    ):
        if min(column) < low or max(column) >= end:  # min and max loop in C
            raise EvaluationError(f"{name} column holds an index outside [{low}, {end})")
    columns = (*label_ids, INVALID_COLUMN)  # scored -1 is the invalid column
    confusion = {lid: dict.fromkeys(columns, 0) for lid in label_ids}
    for (g, c), count in Counter(zip(gold, scored)).items():
        confusion[label_ids[g]][columns[c]] += count

    per_class: dict[str, ClassMetrics] = {}
    for lid in label_ids:
        support = sum(confusion[lid].values())
        tp = confusion[lid][lid]
        fp = sum(confusion[other][lid] for other in label_ids if other != lid)
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
        n_predictions=len(gold),
        n_unparseable=kinds.count(PARSE_KINDS.index("unparseable")),
        n_multilabel=kinds.count(PARSE_KINDS.index("multi_label")),
        metadata=dict(metadata or {}),
    )


@dataclass(frozen=True, slots=True)
class TraceRow:
    """One answer: a line of a trace, and what a sweep cell keeps per test record."""

    record_id: int
    gold: str
    completion: str
    content_hash: str


def score_rows(
    per_partition: Sequence[list[TraceRow]], scheme: LabelScheme, policy: str,
    metadata: dict[str, object],
) -> CellRun:
    """The run of a cell over its rows, partition by partition: each distinct
    completion parsed once and scored under policy, and the report over every
    partition, its metadata's scoring_policy set to policy."""
    index = {lid: i for i, lid in enumerate(scheme.label_ids)}
    by_completion: dict[str, tuple[int, int]] = {}  # completion -> (scored, kind)
    gold, scored, kinds = array("i"), array("i"), array("i")
    for row in chain.from_iterable(per_partition):
        if row.completion not in by_completion:
            parsed = parse_label(row.completion, scheme)
            label = score_prediction(parsed, policy)
            by_completion[row.completion] = (
                -1 if label is None else index[label], PARSE_KINDS.index(parsed.kind)
            )
        if row.gold not in index:
            raise EvaluationError(
                f"prediction for record {row.record_id}: gold {row.gold!r} "
                f"not in scheme {scheme.name!r}"
            )
        gold.append(index[row.gold])
        scored_as, kind = by_completion[row.completion]
        scored.append(scored_as)
        kinds.append(kind)
    report = compute_report(gold, scored, kinds, scheme, {**metadata, "scoring_policy": policy})
    return CellRun(report, tuple(per_partition), gold, scored, kinds)


@dataclass(frozen=True)
class CellRun:
    """A cell's report and rows, and its class-index columns (see
    compute_report) over every partition's rows in test order. Every cell of
    a partition has the same record order, so a (model, method)'s scored
    columns over k are its records x k outcome matrix."""

    report: EvalReport  # over the rows of every partition
    per_partition: tuple[list[TraceRow], ...]
    gold: array
    scored: array
    kinds: array


def fold_reports(run: CellRun, scheme: LabelScheme) -> list[EvalReport]:
    """One report per partition of run, from its slice of run's columns, its
    metadata tagged with the fold."""
    reports, start = [], 0
    for fold, rows in enumerate(run.per_partition):
        end = start + len(rows)
        reports.append(compute_report(
            run.gold[start:end], run.scored[start:end], run.kinds[start:end], scheme,
            {**run.report.metadata, "fold": fold},
        ))
        start = end
    return reports
