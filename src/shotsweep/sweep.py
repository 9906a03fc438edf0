"""Shot-count sweeps: F1-vs-shots curves, optimal shot counts, over-prompting."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .corpus import SMALL_CLASS_POLICIES, Corpus, SplitPlan, make_split
from .evaluation import (
    SCORING_POLICIES,
    CellRun,
    EvalReport,
    EvaluationError,
    TraceRow,
    score_rows,
)
from .gateway import Client, GatewayError, ModelProfile, PendingCompletion
from .promptkit import (
    DEFAULT_TEMPLATE,
    ORDERING_POLICIES,
    PromptError,
    PromptSpec,
    PromptTemplate,
    render_prompt,
)
from .selection import METHODS, SelectionConfig, SelectionError, build_pool, rank
from .vectorspace import EmbeddingProvider, VectorSpaceError

DEFAULT_GRID = (0, 5, 10, 20, 40, 80, 120, 160)
DEFAULT_OVERPROMPTING_THRESHOLD = 0.02


class SweepError(Exception):
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

Cell = tuple[str, str, int]  # (model, method, shot count)


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
    ordering: str = "ascending"  # one of promptkit.ORDERING_POLICIES

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
        if self.ordering not in ORDERING_POLICIES:
            raise SweepError(f"unknown ordering policy {self.ordering!r}")
        if self.pool_size is not None and self.pool_size < 0:
            raise SweepError(f"pool size must be >= 0, got {self.pool_size}")
        threshold = self.overprompting_threshold
        if not 0 < threshold < float("inf"):  # NaN compares false
            raise SweepError(f"overprompting_threshold must be finite and > 0, got {threshold}")

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
) -> SweepRun:
    """Run every (model, method, shot_count) cell of plan and assemble curves.

    The split is corpus.make_split's (holdout tests partition 1 and kfold
    each fold in turn, each against a pool over the rest; an empty test
    partition fails every cell) or, for "full", none: every record is tested
    against a pool over all of them, and query self-exclusion keeps each
    record out of its own prompt. Shared work is done once: each partition's
    pool; per method, one fitted space and one ranking per test record to
    the largest k, which every k slices; each prompt rendered once (a
    zero-shot prompt once for every method). At each (method, k), every model
    (profiles maps each of the plan's models to the profile its requests go
    to) walks the test records with one request in flight, all on the
    calling thread (no other thread is started). Replies are read oldest
    first; once one is read, that model's next prompt is sent before the
    reply is cached and recorded as a TraceRow in test order, and the prompt
    after it is rendered. A repeat of the prompt just answered waits for its
    cache row; a failed attempt is retried once every other reply in flight
    is read. Each cell's rows are scored once it is done; no file is written.

    An exception in CELL_ERRORS fails the cells that share the step that
    raised it (every cell, a method's k > 0, a (method, k) or one model's
    cell) and the rest go on; any other exception propagates. outcomes keeps
    each cell's CellRun (report, per-partition rows and class-index columns)
    or its first failure, in plan.cells() order, keyed by the plan's model
    whatever the profile's name; a failed cell is a missing column of its
    (model, method)'s outcome matrix. Completions are cache-backed, so a
    rerun only executes what is missing.
    """
    missing = [m for m in plan.models if m not in profiles]
    if missing:
        raise SweepError(f"no profile for model(s): {', '.join(missing)}")
    scheme = corpus.scheme
    methods, grid = plan.methods, plan.shot_grid
    failed: dict[Cell, Exception] = {}
    collected: dict[Cell, list[list[TraceRow]]] = {cell: [] for cell in plan.cells()}
    records = list(corpus.records)
    split, parts, split_desc = None, [(records, records)], "full"
    if plan.split_kind != "full":
        split = make_split(
            corpus, plan.split_kind, plan.split_param, plan.split_seed, plan.on_small_class
        )
        tested = [1] if split.kind == "holdout" else range(int(split.param))
        parts = []
        for part in tested:
            train = [r for r in records if split.assignments[r.record_id] != part]
            test = [r for r in records if split.assignments[r.record_id] == part]
            parts.append((train, test))
        split_desc = f"{split.kind}:{split.param}:{split.seed}"
        if not all(test for _, test in parts):
            exc = EvaluationError(f"{split.kind} test partition is empty")
            failed, parts = dict.fromkeys(plan.cells(), exc), []

    def metadata(cell: Cell) -> dict[str, object]:
        model, method, k = cell
        return {
            "dataset": corpus.records[0].dataset if corpus.records else "",
            "scheme": scheme.name,
            "model": model,
            "method": method,
            "k": k,
            "split": split_desc,
            "pool_size": plan.pool_size,
            "pool_seed": plan.pool_seed,
            "selection_seed": plan.selection_seed,
            "scoring_policy": plan.scoring_policy,
            "template_version": plan.template.version,
            "ordering": plan.ordering,
        }

    def fail(
        exc: Exception, method: str, ks: Iterable[int], models: Iterable[str]
    ) -> None:
        for k in ks:
            for model in models:
                failed.setdefault((model, method, k), exc)

    def live(method: str, k: int) -> list[str]:
        return [model for model in plan.models if (model, method, k) not in failed]

    def finish(cell: Cell) -> CellRun | Exception:
        if cell in failed:
            return failed[cell]
        try:
            return score_rows(collected[cell], scheme, plan.scoring_policy, metadata(cell))
        except CELL_ERRORS as exc:
            return exc

    for train, test in parts:
        for rows in collected.values():
            rows.append([])
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
                prompts = zero_shot if k == 0 else {}
                in_flight: deque[tuple[str, int, PromptSpec, PendingCompletion]] = deque()

                def prompt_at(position: int) -> PromptSpec | Exception | None:
                    if position < len(test) and position not in prompts:
                        try:
                            prompts[position] = render_prompt(
                                plan.template, scheme, rankings[position], k, pool,
                                test[position].text, plan.ordering,
                            )
                        except CELL_ERRORS as exc:
                            prompts[position] = exc
                    return prompts.get(position)  # None past the last record

                def send(model: str, position: int, prompt: PromptSpec | Exception | None) -> None:
                    if isinstance(prompt, Exception):
                        fail(prompt, method, [k], [model])
                    elif prompt is not None:
                        pending = client.start(profiles[model], prompt)
                        in_flight.append((model, position, prompt, pending))

                try:
                    for model in live(method, k):
                        send(model, 0, prompt_at(0))
                    while in_flight:
                        model, position, prompt, pending = in_flight.popleft()
                        if k:  # every live model has started it; zero_shot is kept
                            prompts.pop(position, None)
                        pending.read()
                        if pending.failed:  # a retry waits for every other reply
                            for *_, other in in_flight:
                                other.read()
                        following = prompt_at(position + 1)
                        # a repeat of this prompt waits for its cache row, so it is sent once
                        repeat = (
                            isinstance(following, PromptSpec)
                            and following.content_hash == prompt.content_hash
                        )
                        early = not (pending.failed or repeat)
                        if early:
                            send(model, position + 1, following)
                        try:
                            completion = pending.finish()
                        except CELL_ERRORS as exc:
                            fail(exc, method, [k], [model])
                            continue
                        record = test[position]
                        row = TraceRow(
                            record.record_id, record.label, completion, prompt.content_hash
                        )
                        collected[(model, method, k)][-1].append(row)
                        if not early:
                            send(model, position + 1, following)
                        prompt_at(position + 2)  # rendered while requests are in flight
                finally:
                    for *_, pending in in_flight:
                        pending.close()
    outcomes = {cell: finish(cell) for cell in plan.cells()}
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
