"""Score predictions against gold labels and orchestrate evaluation runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from .corpus import Corpus, LabelScheme, RequirementRecord, SplitPlan, make_split
from .gateway import Client, ModelProfile, ParsedLabel, parse_label
from .promptkit import DEFAULT_TEMPLATE, OrderingPolicy, PromptTemplate, render_prompt
from .selection import FewShotPool, SelectionConfig, build_pool, select
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

    def to_dict(self) -> dict:
        return {
            "per_class": {
                lid: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for lid, m in self.per_class.items()
            },
            "weighted_f1": self.weighted_f1,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion,
            "n_predictions": self.n_predictions,
            "n_unparseable": self.n_unparseable,
            "n_multilabel": self.n_multilabel,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        return cls(
            per_class={
                lid: ClassMetrics(m["precision"], m["recall"], m["f1"], m["support"])
                for lid, m in payload["per_class"].items()
            },
            weighted_f1=payload["weighted_f1"],
            macro_f1=payload["macro_f1"],
            confusion={
                gold: dict(row) for gold, row in payload["confusion"].items()
            },
            n_predictions=payload["n_predictions"],
            n_unparseable=payload["n_unparseable"],
            n_multilabel=payload["n_multilabel"],
            metadata=payload.get("metadata", {}),
        )


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
    method: str
    k: int
    pool_size: int | None = None
    pool_seed: int = 0
    selection_seed: int = 0
    scoring_policy: str = "strict"
    template: PromptTemplate = DEFAULT_TEMPLATE
    ordering: OrderingPolicy = OrderingPolicy()


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

    def write_prediction(self, pred: Prediction, completion_text: str) -> None:
        self._write(
            {
                "kind": "prediction",
                "record_id": pred.record_id,
                "gold": pred.gold,
                "completion": completion_text,
                "content_hash": pred.content_hash,
            }
        )

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


def evaluate_records(
    test_records: Sequence[RequirementRecord],
    pool: FewShotPool,
    scheme: LabelScheme,
    profile: ModelProfile,
    cfg: ExperimentConfig,
    client: Client,
    provider: EmbeddingProvider | None = None,
    trace: TraceWriter | None = None,
) -> list[Prediction]:
    """select -> render -> complete -> parse -> score, for every test record."""
    tfidf, embeddings = fit_spaces(pool, cfg.method, cfg.k, provider)
    sel_cfg = SelectionConfig(cfg.method, cfg.k, cfg.selection_seed)
    predictions: list[Prediction] = []
    for record in test_records:
        chosen = select(
            pool,
            record,
            sel_cfg,
            tfidf=tfidf,
            embeddings=embeddings,
            provider=provider,
        )
        prompt = render_prompt(
            cfg.template, scheme, chosen, pool, record.text, cfg.ordering
        )
        completion = client.complete(profile, prompt)
        parsed = parse_label(completion.text, scheme)
        pred = Prediction(
            record_id=record.record_id,
            gold=record.label,
            parsed=parsed,
            scored_as=score_prediction(parsed, cfg.scoring_policy),
            content_hash=prompt.content_hash,
        )
        if trace is not None:
            trace.write_prediction(pred, completion.text)
        predictions.append(pred)
    return predictions


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


def _split_partition(corpus: Corpus, split: SplitPlan, test_part: int) -> _Partition:
    train = [r for r in corpus.records if split.assignments[r.record_id] != test_part]
    test = [r for r in corpus.records if split.assignments[r.record_id] == test_part]
    return train, test


def _evaluate_partitions(
    corpus: Corpus,
    partitions: Sequence[_Partition],
    profile: ModelProfile,
    cfg: ExperimentConfig,
    client: Client,
    provider: EmbeddingProvider | None,
    trace_path: str | Path | None,
    split_desc: str,
) -> tuple[EvalReport, list[list[Prediction]]]:
    """Evaluate each (train, test) partition with a pool built from its train
    records, into one trace; score the pooled predictions of all partitions."""
    meta = _run_metadata(corpus, profile, cfg, split_desc)
    trace = TraceWriter(trace_path, meta) if trace_path is not None else None
    per_partition: list[list[Prediction]] = []
    try:
        for train, test in partitions:
            pool_size = cfg.pool_size if cfg.pool_size is not None else len(train)
            pool = build_pool(train, corpus.scheme, pool_size, cfg.pool_seed)
            per_partition.append(
                evaluate_records(
                    test, pool, corpus.scheme, profile, cfg, client, provider, trace
                )
            )
    finally:
        if trace is not None:
            trace.close()
    pooled = [pred for predictions in per_partition for pred in predictions]
    return compute_report(pooled, corpus.scheme, meta), per_partition


def run_holdout(
    corpus: Corpus,
    split: SplitPlan,
    profile: ModelProfile,
    cfg: ExperimentConfig,
    client: Client,
    provider: EmbeddingProvider | None = None,
    trace_path: str | Path | None = None,
) -> EvalReport:
    """Evaluate the holdout test partition with a pool built from train only."""
    if split.kind != "holdout":
        raise EvaluationError(f"expected a holdout split, got {split.kind!r}")
    partition = _split_partition(corpus, split, 1)
    if not partition[1]:
        raise EvaluationError("holdout test partition is empty")
    split_desc = f"holdout:{split.param}:{split.seed}"
    report, _ = _evaluate_partitions(
        corpus, [partition], profile, cfg, client, provider, trace_path, split_desc
    )
    return report


def run_full(
    corpus: Corpus,
    profile: ModelProfile,
    cfg: ExperimentConfig,
    client: Client,
    provider: EmbeddingProvider | None = None,
    trace_path: str | Path | None = None,
) -> EvalReport:
    """Evaluate every record; the pool covers the whole corpus and query
    self-exclusion keeps each record out of its own prompt."""
    records = list(corpus.records)
    report, _ = _evaluate_partitions(
        corpus, [(records, records)], profile, cfg, client, provider, trace_path, "full"
    )
    return report


@dataclass(frozen=True)
class KfoldResult:
    aggregate: EvalReport
    per_fold: tuple[EvalReport, ...]
    split: SplitPlan


def run_kfold(
    corpus: Corpus,
    k_folds: int,
    profile: ModelProfile,
    cfg: ExperimentConfig,
    client: Client,
    split_seed: int = 0,
    provider: EmbeddingProvider | None = None,
    trace_path: str | Path | None = None,
    on_small_class: str = "error",
) -> KfoldResult:
    """Cross-validate: each fold is test once, pool rebuilt from the rest.

    The aggregate report pools every fold's predictions (micro aggregation);
    per-fold reports are kept so mean-of-folds can be recomputed downstream.
    """
    if k_folds < 2:
        raise EvaluationError(f"k_folds must be >= 2, got {k_folds}")
    split = make_split(corpus, "kfold", k_folds, split_seed, on_small_class)
    partitions = [_split_partition(corpus, split, fold) for fold in range(k_folds)]
    aggregate, per_fold = _evaluate_partitions(
        corpus, partitions, profile, cfg, client, provider, trace_path,
        f"kfold:{k_folds}:{split_seed}",
    )
    fold_reports = tuple(
        compute_report(predictions, corpus.scheme, {**aggregate.metadata, "fold": fold})
        for fold, predictions in enumerate(per_fold)
    )
    return KfoldResult(aggregate=aggregate, per_fold=fold_reports, split=split)
