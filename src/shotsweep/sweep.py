"""Shot-count sweeps: F1-vs-shots curves, optimal shot counts, over-prompting."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import SMALL_CLASS_POLICIES, Corpus, SplitPlan, make_split
from .evaluation import (
    SCORING_POLICIES,
    Cell,
    CellRun,
    EvalReport,
    EvaluationError,
    TraceWriter,
    _run_metadata,
    evaluate_cells,
    partitions,
)
from .gateway import Client, ModelProfile
from .promptkit import DEFAULT_TEMPLATE, OrderingPolicy, PromptTemplate
from .selection import METHODS
from .vectorspace import EmbeddingProvider

DEFAULT_GRID = (0, 5, 10, 20, 40, 80, 120, 160)
DEFAULT_OVERPROMPTING_THRESHOLD = 0.02


class SweepError(Exception):
    pass


@dataclass(frozen=True)
class SweepPlan:
    """Everything a run evaluates: its cells, its split and the settings they share."""

    models: tuple[str, ...]
    methods: tuple[str, ...]
    shot_grid: tuple[int, ...] = DEFAULT_GRID
    split_kind: str = "holdout"  # "holdout" | "kfold" | "full"
    split_param: float = 0.8  # holdout: the train fraction; kfold: the fold count
    split_seed: int = 0
    overprompting_threshold: float = DEFAULT_OVERPROMPTING_THRESHOLD
    on_small_class: str = "error"  # kfold: see corpus.make_split
    pool_size: int | None = None  # None: each partition's whole train set
    pool_seed: int = 0
    selection_seed: int = 0
    scoring_policy: str = "strict"
    template: PromptTemplate = DEFAULT_TEMPLATE
    ordering: OrderingPolicy = OrderingPolicy()

    def __post_init__(self) -> None:
        if not self.models:
            raise SweepError("sweep needs at least one model")
        if not self.methods:
            raise SweepError("sweep needs at least one method")
        for method in self.methods:
            if method not in METHODS:
                raise SweepError(f"unknown selection method {method!r}")
        for kind, names in (("model", self.models), ("method", self.methods)):
            if any(names.count(name) > 1 for name in names):  # names need not hash
                raise SweepError(f"repeated {kind} in {list(names)}")
        if not self.shot_grid:
            raise SweepError("empty shot grid")
        if any(k < 0 for k in self.shot_grid):
            raise SweepError("shot counts must be >= 0")
        if any(b <= a for a, b in zip(self.shot_grid, self.shot_grid[1:])):
            raise SweepError(f"shot grid must be strictly increasing: {self.shot_grid}")
        if self.split_kind not in ("holdout", "kfold", "full"):
            raise SweepError(f"unsupported sweep split kind {self.split_kind!r}")
        if self.split_kind == "holdout" and not 0.0 < self.split_param < 1.0:
            raise SweepError(f"holdout fraction must be in (0, 1), got {self.split_param}")
        if self.split_kind == "kfold" and self.split_param < 2:
            raise SweepError(f"k_folds must be >= 2, got {self.split_param}")
        if self.on_small_class not in SMALL_CLASS_POLICIES:
            raise SweepError(
                f"on_small_class must be error or allow, got {self.on_small_class!r}"
            )
        if self.scoring_policy not in SCORING_POLICIES:
            raise SweepError(f"unknown scoring policy {self.scoring_policy!r}")

    @property
    def n_cells(self) -> int:
        return len(self.models) * len(self.methods) * len(self.shot_grid)

    def cells(self) -> list[Cell]:
        return [
            (model, method, k)
            for model in self.models
            for method in self.methods
            for k in self.shot_grid
        ]


@dataclass(frozen=True)
class CurvePoint:
    shot_count: int
    weighted_f1: float
    macro_f1: float
    n_invalid: int


@dataclass(frozen=True)
class OverpromptingVerdict:
    flagged: bool
    peak_at: int
    max_post_peak_decline: float
    threshold: float


@dataclass(frozen=True)
class SweepCurve:
    model: str
    method: str
    points: tuple[CurvePoint, ...]
    optimal_shots: int
    peak_weighted_f1: float
    overprompting: OverpromptingVerdict


@dataclass(frozen=True)
class CellFailure:
    model: str
    method: str
    shot_count: int
    error: str


@dataclass(frozen=True)
class SweepRun:
    curves: tuple[SweepCurve, ...]
    outcomes: dict[Cell, CellRun | Exception]  # in plan.cells() order
    split: SplitPlan | None  # None: the full corpus

    @property
    def reports(self) -> dict[Cell, EvalReport]:
        return {
            cell: run.report
            for cell, run in self.outcomes.items()
            if isinstance(run, CellRun)
        }

    @property
    def failures(self) -> tuple[CellFailure, ...]:
        return tuple(
            CellFailure(*cell, f"{type(error).__name__}: {error}")
            for cell, error in self.outcomes.items()
            if isinstance(error, Exception)
        )


def find_optimum(points: Sequence[CurvePoint]) -> int:
    """Shot count with the highest weighted F1; ties go to the fewest shots."""
    if not points:
        raise SweepError("cannot take the optimum of an empty curve")
    ordered = sorted(points, key=lambda p: p.shot_count)
    best = ordered[0]
    for point in ordered[1:]:
        if point.weighted_f1 > best.weighted_f1:
            best = point
    return best.shot_count


def detect_overprompting(
    points: Sequence[CurvePoint],
    threshold: float = DEFAULT_OVERPROMPTING_THRESHOLD,
) -> OverpromptingVerdict:
    """Flag a peak-then-decline curve.

    Decline is peak minus the post-peak minimum, not the final value, so a
    dip followed by partial recovery still registers.
    """
    if len(points) < 2:
        raise SweepError("over-prompting detection needs at least 2 points")
    ordered = sorted(points, key=lambda p: p.shot_count)
    peak_at = find_optimum(ordered)
    peak_value = next(p.weighted_f1 for p in ordered if p.shot_count == peak_at)
    after = [p.weighted_f1 for p in ordered if p.shot_count > peak_at]
    decline = peak_value - min(after) if after else 0.0
    flagged = decline >= threshold and peak_at < ordered[-1].shot_count
    return OverpromptingVerdict(flagged, peak_at, decline, threshold)


def build_curve(
    model: str,
    method: str,
    reports_by_k: dict[int, EvalReport],
    threshold: float = DEFAULT_OVERPROMPTING_THRESHOLD,
) -> SweepCurve:
    points = tuple(
        CurvePoint(
            shot_count=k,
            weighted_f1=report.weighted_f1,
            macro_f1=report.macro_f1,
            n_invalid=report.n_invalid,
        )
        for k, report in sorted(reports_by_k.items())
    )
    if not points:
        raise SweepError(f"no completed cells for ({model}, {method})")
    verdict = (
        detect_overprompting(points, threshold)
        if len(points) >= 2
        else OverpromptingVerdict(False, points[0].shot_count, 0.0, threshold)
    )
    peak = next(p.weighted_f1 for p in points if p.shot_count == verdict.peak_at)
    return SweepCurve(model, method, points, verdict.peak_at, peak, verdict)


def run_sweep(
    plan: SweepPlan,
    corpus: Corpus,
    profiles: dict[str, ModelProfile],
    client: Client,
    provider: EmbeddingProvider | None = None,
    trace_path: str | Path | None = None,
) -> SweepRun:
    """Run every (model, method, shot_count) cell of plan and assemble curves.

    The cells share the plan's settings, its split (corpus.make_split, or
    none for "full") and its partitions, one pool per partition and one
    space per method, and each prompt is rendered once for all models
    (evaluation.evaluate_cells). A
    one-cell plan may write every prediction to a trace at trace_path.
    Cell failures (CELL_ERRORS) are recorded in plan.cells() order and the
    sweep continues; any other exception propagates. Completions are
    cache-backed, so re-running a plan only executes what is missing.
    """
    missing = [m for m in plan.models if m not in profiles]
    if missing:
        raise SweepError(f"no profile for model(s): {', '.join(missing)}")
    if trace_path is not None and plan.n_cells != 1:
        raise SweepError(f"a trace needs a one-cell plan, not {plan.n_cells} cells")
    split = None
    if plan.split_kind != "full":
        split = make_split(
            corpus, plan.split_kind, plan.split_param, plan.split_seed, plan.on_small_class
        )
    try:
        parts, split_desc = partitions(corpus, split)
    except EvaluationError as exc:  # an empty test partition fails every cell
        results: dict[Cell, CellRun | Exception] = dict.fromkeys(plan.cells(), exc)
    else:
        trace = nullcontext()
        if trace_path is not None:
            (cell,) = plan.cells()
            trace = TraceWriter(trace_path, _run_metadata(corpus, cell, plan, split_desc))
        with trace as writer:
            results = dict(evaluate_cells(
                plan, corpus, parts, profiles, client, provider, split_desc, writer
            ))
    outcomes = {cell: results[cell] for cell in plan.cells()}
    curves = []
    for model in plan.models:
        for method in plan.methods:
            by_k = {
                k: outcome.report
                for (m, meth, k), outcome in outcomes.items()
                if m == model and meth == method and isinstance(outcome, CellRun)
            }
            if by_k:
                curves.append(
                    build_curve(model, method, by_k, plan.overprompting_threshold)
                )
    return SweepRun(tuple(curves), outcomes, split)
