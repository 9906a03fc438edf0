"""Artifact JSON and CSV, run manifests, paper-shaped tables, trace replay."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import LabelScheme, SplitPlan
from .evaluation import ClassMetrics, EvalReport, TraceRow, score_rows
from .sweep import CurvePoint, SweepCurve


class ReportingError(Exception):
    pass


def atomic_write(path: str | Path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fields(obj: object) -> dict:
    if is_dataclass(obj):
        return vars(obj)  # json.dumps converts the values; no deep copy
    raise TypeError(f"{type(obj).__name__} is not an artifact")


def artifact_json(obj: object) -> str:
    """The JSON text of an artifact or of a payload holding dataclasses.

    A dataclass instance is written as its fields, so a field added to one
    appears in every artifact that holds it. Keys are sorted and indented,
    so the same object always gives the same bytes.
    """
    return json.dumps(obj, default=_fields, sort_keys=True, indent=2) + "\n"


def split_payload(split: SplitPlan) -> dict:
    """split.json's payload: record ids as str keys, so they sort as strings
    ("0", "1", "10", ...), not as numbers."""
    return {**vars(split), "assignments": {str(r): p for r, p in split.assignments.items()}}


def read_report(path: str | Path) -> EvalReport:
    """An EvalReport read back from its artifact_json file."""
    file = Path(path)
    if not file.exists():
        raise ReportingError(f"no such report: {file}")
    try:
        payload = json.loads(file.read_text(encoding="utf-8"))
        per_class = {lid: ClassMetrics(**m) for lid, m in payload.pop("per_class").items()}
        report = EvalReport(per_class=per_class, **payload)
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ReportingError(f"{file}: not a report ({type(exc).__name__}: {exc})") from exc
    confusion = report.confusion
    if not (isinstance(report.metadata, dict) and isinstance(confusion, dict)
            and all(isinstance(row, dict) for row in confusion.values())):
        raise ReportingError(f"{file}: metadata must be an object, confusion an object of objects")
    scores = [report.weighted_f1, report.macro_f1,
              *(v for m in per_class.values() for v in (m.precision, m.recall, m.f1))]
    counts = [report.n_predictions, report.n_unparseable, report.n_multilabel,
              *(m.support for m in per_class.values()),
              *(n for row in confusion.values() for n in row.values())]
    if not (all(type(v) in (int, float) for v in scores) and all(type(n) is int for n in counts)):
        raise ReportingError(f"{file}: a score is not a number, or a count not an integer")
    return report


def config_digest(config: dict) -> str:
    """Digest of the semantic config; key order never matters."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    config: dict
    artifacts: dict[str, str]
    tool_version: str
    started_at: str
    finished_at: str
    digest: str = field(init=False)  # config_digest(config)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", config_digest(self.config))


@dataclass(frozen=True)
class TableOutput:
    text: str
    csv_text: str


def _display(value: float) -> str:
    return f"{value:.2f}"


def _check_shared_scheme(reports: Sequence[EvalReport]) -> tuple[str, ...]:
    if not reports:
        raise ReportingError("no reports to tabulate")
    first = tuple(reports[0].per_class)
    for report in reports[1:]:
        if tuple(report.per_class) != first:
            raise ReportingError(
                "reports do not share a label scheme: "
                f"{first} vs {tuple(report.per_class)}"
            )
    return first


def _row_name(report: EvalReport) -> str:
    meta = report.metadata
    model = str(meta.get("model", "?"))
    method = meta.get("method")
    k = meta.get("k")
    if method is not None and k is not None:
        return f"{model} ({method}, k={k})"
    return model


def emit_table(reports: Sequence[EvalReport], layout: str) -> TableOutput:
    """Render reports as a per-class P/R/F1 table (text) plus full-precision CSV.

    binary: one P/R/F1 column group per class plus overall (weighted) F1.
    multiclass: the same grid over all classes plus a weighted average column.
    """
    if layout not in ("binary", "multiclass"):
        raise ReportingError(f"unknown table layout {layout!r}")
    labels = _check_shared_scheme(reports)
    if layout == "binary" and len(labels) != 2:
        raise ReportingError(f"binary layout needs exactly 2 classes, got {len(labels)}")

    name_width = max(len("Model"), *(len(_row_name(r)) for r in reports))
    overall = "Overall F1" if layout == "binary" else "Ave."
    lines = ["  ".join([f"{'Model':<{name_width}}",
                        *(f"{lid + ' P':>8}{'R':>6}{'F1':>6}" for lid in labels),
                        f"{overall:>12}"])]
    lines.append("-" * len(lines[0]))
    csv_rows: list[list[object]] = [
        ["model", *(f"{lid}_{f.name}" for lid in labels for f in fields(ClassMetrics)),
         "weighted_f1", "macro_f1", "n_predictions"]]
    for report in reports:
        cells = [f"{_row_name(report):<{name_width}}"]
        row: list[object] = [_row_name(report)]
        for lid in labels:
            m = report.per_class[lid]
            cells.append(f"{_display(m.precision):>8}{_display(m.recall):>6}{_display(m.f1):>6}")
            row += vars(m).values()
        cells.append(f"{_display(report.weighted_f1):>12}")
        lines.append("  ".join(cells))
        csv_rows.append([*row, report.weighted_f1, report.macro_f1, report.n_predictions])
    return TableOutput(text="\n".join(lines) + "\n", csv_text=_csv(csv_rows))


def _csv(rows: Iterable[Iterable[object]]) -> str:
    """CSV text: a field holding a comma, quote or newline is quoted; a float is its repr."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def curves_csv(curves: Sequence[SweepCurve]) -> str:
    """One row per curve point; curves.json is artifact_json({"series": curves})."""
    header = ["model", "method", *(f.name for f in fields(CurvePoint))]
    return _csv([header, *([c.model, c.method, *vars(p).values()]
                           for c in curves for p in c.points)])


def trace_jsonl(meta: dict[str, object], rows: Iterable[TraceRow]) -> str:
    """A cell's trace, as read_trace reads it: a meta line, then a line per row."""
    lines = [{"kind": "meta", **meta}]
    lines += ({"kind": "prediction", **{f: getattr(row, f) for f in TraceRow.__slots__}}
              for row in rows)
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def read_trace(path: str | Path) -> tuple[dict, list[TraceRow]]:
    """Parse a trace_jsonl file; corrupt rows fail with their line number."""
    path = Path(path)
    if not path.exists():
        raise ReportingError(f"no such trace: {path}")
    meta: dict | None = None
    rows: list[TraceRow] = []
    try:
        with path.open(encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReportingError(f"{path}: unreadable or not UTF-8 ({exc})") from exc
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportingError(f"{path}: line {line_no}: corrupt row ({exc})") from exc
        if not isinstance(payload, dict):
            raise ReportingError(f"{path}: line {line_no}: not a JSON object")
        kind = payload.pop("kind", None)
        if kind == "meta":
            if meta is not None:
                raise ReportingError(f"{path}: line {line_no}: duplicate meta row")
            meta = payload
        elif kind == "prediction":
            try:
                row = TraceRow(**payload)
            except TypeError as exc:  # a missing or unknown field
                raise ReportingError(f"{path}: line {line_no}: {exc}") from exc
            texts = (row.gold, row.completion, row.content_hash)
            if type(row.record_id) is not int or not all(isinstance(t, str) for t in texts):
                raise ReportingError(f"{path}: line {line_no}: mistyped prediction row")
            rows.append(row)
        else:
            raise ReportingError(f"{path}: line {line_no}: unknown row kind {kind!r}")
    if meta is None:
        raise ReportingError(f"{path}: missing meta row")
    return meta, rows


def replay(
    trace_path: str | Path, scheme: LabelScheme, policy: str | None = None
) -> EvalReport:
    """Re-score a trace without touching any model endpoint.

    With the original policy the result is identical to the original run's
    report; a different policy changes only the cells it touches.
    """
    meta, rows = read_trace(trace_path)
    effective_policy = policy if policy is not None else str(meta.get("scoring_policy", "strict"))
    return score_rows([rows], scheme, effective_policy, meta).report
