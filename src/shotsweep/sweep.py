"""Shot-count sweeps: F1-vs-shots curves, optimal shot counts, over-prompting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Corpus, make_split
from .evaluation import (
    Cell,
    CellRun,
    EvalReport,
    EvaluationError,
    ExperimentConfig,
    evaluate_cells,
    partitions,
)
from .gateway import Client, GatewayError, ModelProfile
from .promptkit import PromptError
from .selection import METHODS, SelectionError
from .vectorspace import EmbeddingProvider, VectorSpaceError

DEFAULT_GRID = (0, 5, 10, 20, 40, 80, 120, 160)
DEFAULT_OVERPROMPTING_THRESHOLD = 0.02

# Failures that belong to one cell (its model, prompts or data); anything
# else is a harness bug and aborts the sweep.
CELL_ERRORS = (
    GatewayError,
    EvaluationError,
    SelectionError,
    PromptError,
    VectorSpaceError,
)


class SweepError(Exception):
    pass


@dataclass(frozen=True)
class SweepPlan:
    models: tuple[str, ...]
    methods: tuple[str, ...]
    shot_grid: tuple[int, ...] = DEFAULT_GRID
    split_kind: str = "holdout"  # "holdout" | "full"
    split_param: float = 0.8
    split_seed: int = 0
    overprompting_threshold: float = DEFAULT_OVERPROMPTING_THRESHOLD

    def __post_init__(self) -> None:
        if not self.models:
            raise SweepError("sweep needs at least one model")
        if not self.methods:
            raise SweepError("sweep needs at least one method")
        for method in self.methods:
            if method not in METHODS:
                raise SweepError(f"unknown method {method!r}")
        for kind, names in (("model", self.models), ("method", self.methods)):
            if any(names.count(name) > 1 for name in names):  # names need not hash
                raise SweepError(f"repeated {kind} in {list(names)}")
        if not self.shot_grid:
            raise SweepError("empty shot grid")
        if any(k < 0 for k in self.shot_grid):
            raise SweepError("shot counts must be >= 0")
        if any(b <= a for a, b in zip(self.shot_grid, self.shot_grid[1:])):
            raise SweepError(f"shot grid must be strictly increasing: {self.shot_grid}")
        if self.split_kind not in ("holdout", "full"):
            raise SweepError(f"unsupported sweep split kind {self.split_kind!r}")

    @property
    def n_cells(self) -> int:
        return len(self.models) * len(self.methods) * len(self.shot_grid)

    def cells(self) -> list[tuple[str, str, int]]:
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
    reports: dict[tuple[str, str, int], EvalReport]
    failures: tuple[CellFailure, ...]


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
    cfg: ExperimentConfig = ExperimentConfig(),
) -> SweepRun:
    """Run every (model, method, shot_count) cell under cfg and assemble curves.

    Each cell sets its own method and k; cfg gives the rest. The cells share
    one partition, pool and space per method, and each prompt is rendered
    once for all models (evaluation.evaluate_cells).
    Cell failures (CELL_ERRORS) are recorded in plan.cells() order and the
    sweep continues; any other exception propagates. Completions are
    cache-backed, so re-running a plan only executes what is missing.
    """
    missing = [m for m in plan.models if m not in profiles]
    if missing:
        raise SweepError(f"no profile for model(s): {', '.join(missing)}")
    outcomes: Iterable[tuple[Cell, CellRun | Exception]]
    split = None
    if plan.split_kind == "holdout":
        split = make_split(corpus, "holdout", plan.split_param, plan.split_seed)
    try:
        parts, split_desc = partitions(corpus, split)
    except EvaluationError as exc:  # an empty test partition fails every cell
        outcomes = [(cell, exc) for cell in plan.cells()]
    else:
        outcomes = evaluate_cells(
            corpus,
            parts,
            [profiles[m] for m in plan.models],
            plan.methods,
            plan.shot_grid,
            cfg,
            client,
            provider,
            split_desc,
            cell_errors=CELL_ERRORS,
        )
    results = {
        cell: outcome.report if isinstance(outcome, CellRun) else outcome
        for cell, outcome in outcomes
    }
    reports = {c: results[c] for c in plan.cells() if isinstance(results[c], EvalReport)}
    failures = [
        CellFailure(*cell, f"{type(error).__name__}: {error}")
        for cell in plan.cells()
        if isinstance(error := results[cell], Exception)
    ]
    curves = []
    for model in plan.models:
        for method in plan.methods:
            by_k = {
                k: report
                for (m, meth, k), report in reports.items()
                if m == model and meth == method
            }
            if by_k:
                curves.append(
                    build_curve(model, method, by_k, plan.overprompting_threshold)
                )
    return SweepRun(tuple(curves), reports, tuple(failures))
