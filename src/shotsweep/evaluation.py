"""Score predictions against gold labels and orchestrate evaluation runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .corpus import Corpus, LabelScheme, RequirementRecord, SplitPlan
from .gateway import (
    Client,
    CompletionRecord,
    GatewayError,
    ModelProfile,
    ParsedLabel,
    PendingCompletion,
    parse_label,
)
from .promptkit import PromptError, PromptSpec, render_prompt
from .selection import SelectionConfig, SelectionError, build_pool, rank
from .vectorspace import EmbeddingProvider, VectorSpaceError

if TYPE_CHECKING:
    from .sweep import SweepPlan

INVALID_COLUMN = "__invalid__"

SCORING_POLICIES = ("strict", "first_match")


class EvaluationError(Exception):
    pass


# Failures that belong to one cell (its model, prompts or data); anything
# else is a harness bug and aborts the sweep.
CELL_ERRORS = (
    GatewayError,
    EvaluationError,
    SelectionError,
    PromptError,
    VectorSpaceError,
)


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
    """Per-prediction JSONL trace; flushed per row so aborted runs keep data."""

    def __init__(self, path: str | Path, meta: dict[str, object]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] = self.path.open("w", encoding="utf-8")
        self._write({"kind": "meta", **meta})

    def _write(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def write_prediction(self, row: TraceRow) -> None:
        self._write({"kind": "prediction", **vars(row)})

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _run_metadata(
    corpus: Corpus, cell: Cell, plan: SweepPlan, split_desc: str
) -> dict[str, object]:
    model, method, k = cell
    return {
        "dataset": corpus.records[0].dataset if corpus.records else "",
        "scheme": corpus.scheme.name,
        "model": model,
        "method": method,
        "k": k,
        "split": split_desc,
        "pool_size": plan.pool_size,
        "pool_seed": plan.pool_seed,
        "selection_seed": plan.selection_seed,
        "scoring_policy": plan.scoring_policy,
        "template_version": plan.template.version,
        "ordering": plan.ordering.name,
    }


_Partition = tuple[list[RequirementRecord], list[RequirementRecord]]
Cell = tuple[str, str, int]  # (model, method, shot count)


@dataclass(frozen=True)
class CellRun:
    report: EvalReport  # over the predictions of every partition
    per_partition: tuple[list[Prediction], ...]


def _complete_each(
    client: Client,
    profiles: Sequence[ModelProfile],
    prompt: PromptSpec,
) -> list[CompletionRecord | Exception]:
    """Each profile's completion of prompt, or the cell error it raised, in order.

    All on the calling thread: every profile's request is sent first (a
    cache hit sends none), then the replies are read in profiles order, and
    only then is a first attempt that failed in transport retried. An
    exception outside CELL_ERRORS closes the connections whose replies are
    unread and propagates.
    """
    pending: list[PendingCompletion] = []
    try:
        for profile in profiles:
            pending.append(client.start(profile, prompt))
        for completion in pending:
            completion.read()
        outcomes: list[CompletionRecord | Exception] = []
        for completion in pending:
            try:
                outcomes.append(completion.finish())
            except CELL_ERRORS as exc:
                outcomes.append(exc)
        return outcomes
    finally:
        for completion in pending:
            completion.close()


def evaluate_cells(
    plan: SweepPlan,
    corpus: Corpus,
    partitions: Sequence[_Partition],
    profiles: Mapping[str, ModelProfile],
    client: Client,
    provider: EmbeddingProvider | None,
    split_desc: str,
    trace: TraceWriter | None = None,
) -> Iterator[tuple[Cell, CellRun | Exception]]:
    """Evaluate every (model, method, k) cell, doing shared work once.

    Each (train, test) partition's pool is built from its train records
    once. Per partition and method, the space is fitted once and each test
    record ranked once, to the largest k, and every k slices that ranking.
    Each prompt is rendered once (a zero-shot prompt once for every method)
    and sent to every model before any reply is read, one request in flight
    per model, all from the calling thread (no other thread is started);
    results are parsed (once per distinct completion text), scored and
    recorded in plan.models order. plan gives the cells and the settings,
    and profiles maps each of its models to the profile its requests go to;
    cells are keyed by the plan's model, whatever the profile's name. Each
    prediction also goes to trace, if one is given (a one-cell sweep passes one).

    A cell is yielded, with its report and per-partition predictions or its
    first failure, as soon as its k is done on the last partition; the
    caller decides what to keep. An exception in CELL_ERRORS fails the
    cells that share the step that raised it (every cell, a method's k > 0,
    a (method, k) or one model's cell) and the rest go on; any other
    exception propagates.
    """
    scheme = corpus.scheme
    methods, grid = plan.methods, plan.shot_grid
    parsed_by_text: dict[str, ParsedLabel] = {}
    failed: dict[Cell, Exception] = {}
    collected: dict[Cell, list[list[Prediction]]] = {cell: [] for cell in plan.cells()}

    def fail(
        exc: Exception, method: str, ks: Iterable[int], models: Iterable[str]
    ) -> None:
        for k in ks:
            for model in models:
                failed.setdefault((model, method, k), exc)

    def live(method: str, k: int) -> list[str]:
        return [model for model in plan.models if (model, method, k) not in failed]

    def finish(cell: Cell) -> CellRun | Exception:
        per_partition = collected.pop(cell)
        if cell in failed:
            return failed[cell]
        pooled = [pred for predictions in per_partition for pred in predictions]
        meta = _run_metadata(corpus, cell, plan, split_desc)
        try:
            return CellRun(compute_report(pooled, scheme, meta), tuple(per_partition))
        except CELL_ERRORS as exc:
            return exc

    last = len(partitions) - 1
    for index, (train, test) in enumerate(partitions):
        for predictions in collected.values():
            predictions.append([])
        # the last partition's pool, rankings and prompts go before the next pool
        pool = rankings = zero_shot = None
        try:
            pool_size = plan.pool_size if plan.pool_size is not None else len(train)
            pool = build_pool(train, scheme, pool_size, plan.pool_seed)
        except CELL_ERRORS as exc:
            for method in methods:
                fail(exc, method, grid, plan.models)
            continue
        # a zero-shot prompt does not depend on the method: render it once
        zero_shot: dict[int, PromptSpec | Exception] = {}
        for method in methods:
            sel_cfg = SelectionConfig(
                method, max((k for k in grid if live(method, k)), default=0),
                plan.selection_seed,
            )
            try:
                rankings = rank(pool, test, sel_cfg, provider)
            except CELL_ERRORS as exc:
                fail(exc, method, [k for k in grid if k > 0], plan.models)
                rankings = rank(pool, test, replace(sel_cfg, k=0))

            for k in grid:
                for position, (record, ranking) in enumerate(zip(test, rankings)):
                    models = live(method, k)
                    if not models:
                        break
                    prompt = zero_shot.get(position) if k == 0 else None
                    if prompt is None:
                        try:
                            prompt = render_prompt(
                                plan.template, scheme, ranking.take(k), pool,
                                record.text, plan.ordering,
                            )
                        except CELL_ERRORS as exc:
                            prompt = exc
                        if k == 0:
                            zero_shot[position] = prompt
                    if isinstance(prompt, Exception):
                        fail(prompt, method, [k], models)
                        break
                    completions = _complete_each(
                        client, [profiles[model] for model in models], prompt
                    )
                    for model, completion in zip(models, completions):
                        if isinstance(completion, Exception):
                            fail(completion, method, [k], [model])
                            continue
                        parsed = parsed_by_text.get(completion.text)
                        if parsed is None:
                            parsed = parse_label(completion.text, scheme)
                            parsed_by_text[completion.text] = parsed
                        pred = Prediction(
                            record_id=record.record_id,
                            gold=record.label,
                            parsed=parsed,
                            scored_as=score_prediction(parsed, plan.scoring_policy),
                            content_hash=prompt.content_hash,
                        )
                        if trace is not None:
                            trace.write_prediction(TraceRow(
                                record.record_id, record.label, completion.text,
                                prompt.content_hash,
                            ))
                        collected[(model, method, k)][-1].append(pred)
                if index == last:
                    for model in plan.models:
                        cell = (model, method, k)
                        yield cell, finish(cell)
    for cell in list(collected):  # the last partition could not build its pool
        yield cell, finish(cell)


def partitions(
    corpus: Corpus, split: SplitPlan | None
) -> tuple[list[_Partition], str]:
    """The (train, test) partitions split evaluates, and its description.

    holdout tests partition 1 and kfold each fold in turn, each against a
    pool over the rest. None is the full corpus: every record is tested
    against a pool over all of them, and query self-exclusion keeps each
    record out of its own prompt.
    """
    records = list(corpus.records)
    if split is None:
        return [(records, records)], "full"
    tested = [1] if split.kind == "holdout" else range(int(split.param))
    parts = []
    for part in tested:
        train = [r for r in records if split.assignments[r.record_id] != part]
        test = [r for r in records if split.assignments[r.record_id] == part]
        if not test:
            raise EvaluationError(f"{split.kind} test partition is empty")
        parts.append((train, test))
    return parts, f"{split.kind}:{split.param}:{split.seed}"


def fold_reports(run: CellRun, scheme: LabelScheme) -> list[EvalReport]:
    """One report per partition of run, its metadata tagged with the fold."""
    return [
        compute_report(predictions, scheme, {**run.report.metadata, "fold": fold})
        for fold, predictions in enumerate(run.per_partition)
    ]
