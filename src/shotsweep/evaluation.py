"""Score predictions against gold labels and orchestrate evaluation runs."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .corpus import Corpus, LabelScheme, RequirementRecord, SplitPlan
from .gateway import Client, CompletionRecord, ModelProfile, ParsedLabel, parse_label
from .promptkit import (
    DEFAULT_TEMPLATE,
    OrderingPolicy,
    PromptSpec,
    PromptTemplate,
    render_prompt,
)
from .selection import FewShotPool, Ranking, SelectionConfig, build_pool, rank
from .vectorspace import (
    EmbeddingMatrix,
    EmbeddingProvider,
    TfidfModel,
    build_embedding_matrix,
    fit_tfidf,
)

INVALID_COLUMN = "__invalid__"

SCORING_POLICIES = ("strict", "first_match")


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
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
class ExperimentConfig:
    """The settings run, cv and sweep evaluate under; a sweep's cells set method and k."""

    method: str | None = None
    k: int | None = None
    pool_size: int | None = None
    pool_seed: int = 0
    selection_seed: int = 0
    scoring_policy: str = "strict"
    template: PromptTemplate = DEFAULT_TEMPLATE
    ordering: OrderingPolicy = OrderingPolicy()

    def __post_init__(self) -> None:
        if self.scoring_policy not in SCORING_POLICIES:
            raise EvaluationError(f"unknown scoring policy {self.scoring_policy!r}")


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


def fit_spaces(
    pool: FewShotPool,
    method: str,
    k: int,
    provider: EmbeddingProvider | None,
) -> tuple[TfidfModel | None, EmbeddingMatrix | None]:
    """Fit the vector space a selection method ranks the pool in, if any."""
    if k == 0 or not len(pool):
        return None, None
    if method == "tfidf":
        return fit_tfidf(pool.candidates), None
    if method == "embedding":
        if provider is None:
            raise EvaluationError("embedding method requires an embedding provider")
        return None, build_embedding_matrix(pool.candidates, provider)
    return None, None


def _run_metadata(
    corpus: Corpus, profile: ModelProfile, cfg: ExperimentConfig, split_desc: str
) -> dict[str, object]:
    return {
        "dataset": corpus.records[0].dataset if corpus.records else "",
        "scheme": corpus.scheme.name,
        "model": profile.name,
        "method": cfg.method,
        "k": cfg.k,
        "split": split_desc,
        "pool_size": cfg.pool_size,
        "pool_seed": cfg.pool_seed,
        "selection_seed": cfg.selection_seed,
        "scoring_policy": cfg.scoring_policy,
        "template_version": cfg.template.version,
        "ordering": cfg.ordering.name,
    }


_Partition = tuple[list[RequirementRecord], list[RequirementRecord]]
Cell = tuple[str, str, int]  # (model, method, shot count)


@dataclass(frozen=True)
class CellRun:
    report: EvalReport  # over the predictions of every partition
    per_partition: tuple[list[Prediction], ...]


def _rank_all(
    pool: FewShotPool,
    test: Sequence[RequirementRecord],
    cfg: SelectionConfig,
    provider: EmbeddingProvider | None,
) -> list[Ranking]:
    """Rank the pool once for every test record; the space is freed on return."""
    tfidf, embeddings = fit_spaces(pool, cfg.method, cfg.k, provider)
    return [rank(pool, record, cfg, tfidf, embeddings, provider) for record in test]


def _complete_each(
    client: Client,
    executor: ThreadPoolExecutor,
    profiles: Sequence[ModelProfile],
    prompt: PromptSpec,
    cell_errors: tuple[type[Exception], ...],
) -> list[CompletionRecord | Exception]:
    """Each profile's completion of prompt, or the cell error it raised, in order.

    Cache hits are looked up on the calling thread. The misses are sent at
    once, one per profile: the first by the calling thread itself, the rest
    through executor. All of them finish before any is read, so an
    exception outside cell_errors propagates with nothing left in flight.
    """
    outcomes: list[CompletionRecord | Exception | None] = []
    for profile in profiles:
        try:
            outcomes.append(client.lookup(profile, prompt))
        except cell_errors as exc:
            outcomes.append(exc)
    missed = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not missed:
        return outcomes  # type: ignore[return-value]  # no None is left
    first, *rest = missed
    futures = {i: executor.submit(client.complete, profiles[i], prompt) for i in rest}
    try:
        outcomes[first] = client.complete(profiles[first], prompt)
    except cell_errors as exc:
        outcomes[first] = exc
    finally:
        wait(futures.values())
    for i, future in futures.items():
        try:
            outcomes[i] = future.result()
        except cell_errors as exc:
            outcomes[i] = exc
    return outcomes  # type: ignore[return-value]


def evaluate_cells(
    corpus: Corpus,
    partitions: Sequence[_Partition],
    profiles: Sequence[ModelProfile],
    methods: Sequence[str],
    grid: Sequence[int],
    cfg: ExperimentConfig,
    client: Client,
    provider: EmbeddingProvider | None,
    split_desc: str,
    trace: TraceWriter | None = None,
    cell_errors: tuple[type[Exception], ...] = (),
) -> Iterator[tuple[Cell, CellRun | Exception]]:
    """Evaluate every (model, method, k) cell, doing shared work once.

    Each (train, test) partition's pool is built from its train records
    once. Per partition and method, the space is fitted once and each test
    record ranked once, to the largest k, and every k slices that ranking.
    Each prompt is rendered once (a zero-shot prompt once for every method)
    and sent to every model at once, one
    request in flight per model; results are parsed (once per distinct
    completion text), scored and recorded in profiles order. cfg gives
    everything but the method and k. Each prediction also goes to trace, if
    one is given (run and cv pass one for their single cell).

    A cell is yielded, with its report or its first failure, as soon as its
    k is done on the last partition, so a one-partition sweep holds only one
    (method, k) group's predictions. An exception in cell_errors fails the
    cells that share the step that raised it (every cell, a method's k > 0,
    a (method, k) or one model's cell) and the rest go on; any other
    exception propagates.
    """
    scheme = corpus.scheme
    by_name = {p.name: p for p in profiles}
    parsed_by_text: dict[str, ParsedLabel] = {}
    failed: dict[Cell, Exception] = {}
    collected: dict[Cell, list[list[Prediction]]] = {
        (p.name, method, k): [] for method in methods for k in grid for p in profiles
    }

    def fail(
        exc: Exception, method: str, ks: Iterable[int], models: Iterable[ModelProfile]
    ) -> None:
        for k in ks:
            for profile in models:
                failed.setdefault((profile.name, method, k), exc)

    def live(method: str, k: int) -> list[ModelProfile]:
        return [p for p in profiles if (p.name, method, k) not in failed]

    def finish(cell: Cell) -> CellRun | Exception:
        per_partition = collected.pop(cell)
        if cell in failed:
            return failed[cell]
        pooled = [pred for predictions in per_partition for pred in predictions]
        model, method, k = cell
        meta = _run_metadata(
            corpus, by_name[model], replace(cfg, method=method, k=k), split_desc
        )
        try:
            return CellRun(compute_report(pooled, scheme, meta), tuple(per_partition))
        except cell_errors as exc:
            return exc

    last = len(partitions) - 1
    # the calling thread sends one model's request, a worker each other's
    executor = ThreadPoolExecutor(max_workers=max(len(profiles) - 1, 1))
    try:
        for index, (train, test) in enumerate(partitions):
            for predictions in collected.values():
                predictions.append([])
            # the last partition's pool, rankings and prompts go before the next pool
            pool = rankings = zero_shot = None
            try:
                pool_size = cfg.pool_size if cfg.pool_size is not None else len(train)
                pool = build_pool(train, scheme, pool_size, cfg.pool_seed)
            except cell_errors as exc:
                for method in methods:
                    fail(exc, method, grid, profiles)
                continue
            # a zero-shot prompt does not depend on the method: render it once
            zero_shot: dict[int, PromptSpec | Exception] = {}
            for method in methods:
                sel_cfg = SelectionConfig(
                    method, max((k for k in grid if live(method, k)), default=0),
                    cfg.selection_seed,
                )
                try:
                    rankings = _rank_all(pool, test, sel_cfg, provider)
                except cell_errors as exc:
                    fail(exc, method, [k for k in grid if k > 0], profiles)
                    rankings = [rank(pool, r, replace(sel_cfg, k=0)) for r in test]

                for k in grid:
                    for position, (record, ranking) in enumerate(zip(test, rankings)):
                        models = live(method, k)
                        if not models:
                            break
                        prompt = zero_shot.get(position) if k == 0 else None
                        if prompt is None:
                            try:
                                prompt = render_prompt(
                                    cfg.template, scheme, ranking.take(k), pool,
                                    record.text, cfg.ordering,
                                )
                            except cell_errors as exc:
                                prompt = exc
                            if k == 0:
                                zero_shot[position] = prompt
                        if isinstance(prompt, Exception):
                            fail(prompt, method, [k], models)
                            break
                        completions = _complete_each(
                            client, executor, models, prompt, cell_errors
                        )
                        for profile, completion in zip(models, completions):
                            if isinstance(completion, Exception):
                                fail(completion, method, [k], [profile])
                                continue
                            parsed = parsed_by_text.get(completion.text)
                            if parsed is None:
                                parsed = parse_label(completion.text, scheme)
                                parsed_by_text[completion.text] = parsed
                            pred = Prediction(
                                record_id=record.record_id,
                                gold=record.label,
                                parsed=parsed,
                                scored_as=score_prediction(parsed, cfg.scoring_policy),
                                content_hash=prompt.content_hash,
                            )
                            if trace is not None:
                                trace.write_prediction(TraceRow(
                                    record.record_id, record.label, completion.text,
                                    prompt.content_hash,
                                ))
                            collected[(profile.name, method, k)][-1].append(pred)
                    if index == last:
                        for profile in profiles:
                            cell = (profile.name, method, k)
                            yield cell, finish(cell)
        for cell in list(collected):  # the last partition could not build its pool
            yield cell, finish(cell)
    finally:
        executor.shutdown(cancel_futures=True)


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


def evaluate_split(
    corpus: Corpus,
    split: SplitPlan | None,
    profile: ModelProfile,
    cfg: ExperimentConfig,
    client: Client,
    provider: EmbeddingProvider | None = None,
    trace_path: str | Path | None = None,
) -> CellRun:
    """Evaluate cfg's one cell over split's partitions, into one trace.

    The report pools every partition's predictions (micro aggregation);
    fold_reports gives one report per partition. Every error propagates.
    """
    parts, split_desc = partitions(corpus, split)
    meta = _run_metadata(corpus, profile, cfg, split_desc)
    opened = TraceWriter(trace_path, meta) if trace_path is not None else nullcontext()
    with opened as trace:
        ((_, run),) = evaluate_cells(
            corpus, parts, [profile], [cfg.method], [cfg.k], cfg, client,
            provider, split_desc, trace,
        )
    assert isinstance(run, CellRun)
    return run


def fold_reports(run: CellRun, scheme: LabelScheme) -> list[EvalReport]:
    """One report per partition of run, its metadata tagged with the fold."""
    return [
        compute_report(predictions, scheme, {**run.report.metadata, "fold": fold})
        for fold, predictions in enumerate(run.per_partition)
    ]
