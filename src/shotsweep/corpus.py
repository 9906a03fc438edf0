"""Labeled requirement corpora: ingestion, label schemes, deterministic splits."""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path


class CorpusError(Exception):
    """Raised for malformed input data (CSV rows, labels, scheme files)."""


class SplitError(Exception):
    """Raised when a split cannot honor its stratification contract."""


_NON_WORD_RE = re.compile(r"[^a-z0-9]+")


def normalize_completion(text: str) -> str:
    """Lowercase and reduce to alphanumeric words; punctuation and markdown go."""
    return _NON_WORD_RE.sub(" ", text.lower()).strip()


@dataclass(frozen=True)
class LabelDef:
    label_id: str
    name: str
    aliases: tuple[str, ...] = ()

    def surface_forms(self) -> tuple[str, ...]:
        return (self.label_id, self.name, *self.aliases)


@dataclass(frozen=True)
class LabelScheme:
    name: str
    labels: tuple[LabelDef, ...]
    task_kind: str  # "binary" | "multiclass"

    def __post_init__(self) -> None:
        if self.task_kind not in ("binary", "multiclass"):
            raise CorpusError(f"unknown task_kind {self.task_kind!r}")
        if self.task_kind == "binary" and len(self.labels) != 2:
            raise CorpusError(
                f"binary scheme {self.name!r} must have exactly 2 labels, got {len(self.labels)}"
            )
        # forms are told apart as the label parser reads them
        seen: dict[str, str] = {}
        for label in self.labels:
            for form in label.surface_forms():
                key = normalize_completion(form)
                if not key:
                    raise CorpusError(
                        f"scheme {self.name!r}: form {form!r} has no letter or digit"
                    )
                if key in seen and seen[key] != label.label_id:
                    raise CorpusError(
                        f"scheme {self.name!r}: form {form!r} is ambiguous "
                        f"between {seen[key]} and {label.label_id}"
                    )
                seen[key] = label.label_id

    @property
    def label_ids(self) -> tuple[str, ...]:
        return tuple(label.label_id for label in self.labels)

    def canonical_name(self, label_id: str) -> str:
        for label in self.labels:
            if label.label_id == label_id:
                return label.name
        raise KeyError(label_id)

    def resolve(self, raw: str) -> str | None:
        """Map a raw label string to a label_id, case-insensitively, or None."""
        key = raw.strip().lower()
        for label in self.labels:
            for form in label.surface_forms():
                if form.strip().lower() == key:
                    return label.label_id
        return None


@dataclass(frozen=True)
class RequirementRecord:
    record_id: int
    text: str
    label: str
    dataset: str


@dataclass(frozen=True)
class Corpus:
    records: tuple[RequirementRecord, ...]
    scheme: LabelScheme
    class_counts: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        counts: dict[str, int] = {lid: 0 for lid in self.scheme.label_ids}
        seen_ids: set[int] = set()
        for record in self.records:
            if record.record_id in seen_ids:
                raise CorpusError(f"duplicate record_id {record.record_id}")
            seen_ids.add(record.record_id)
            if record.label not in counts:
                raise CorpusError(
                    f"record {record.record_id} labeled {record.label!r}, "
                    f"not in scheme {self.scheme.name!r}"
                )
            counts[record.label] += 1
        object.__setattr__(self, "class_counts", counts)

    def __len__(self) -> int:
        return len(self.records)


# Built-in schemes. The binary scheme folds the legacy subclass codes into
# NFR so a subclass-labeled export ingests directly as FR/NFR.
_NFR_SUBCLASS_CODES = ("A", "FT", "L", "LF", "MN", "O", "PE", "SC", "SE", "US", "PO")

BINARY_FRNFR = LabelScheme(
    name="frnfr",
    task_kind="binary",
    labels=(
        LabelDef("FR", "Functional", ("F", "functional requirement")),
        LabelDef(
            "NFR",
            "Non-Functional",
            ("NF", "non functional", "nonfunctional", "non-functional requirement")
            + _NFR_SUBCLASS_CODES,
        ),
    ),
)

PROMISE_12 = LabelScheme(
    name="promise12",
    task_kind="multiclass",
    labels=(
        LabelDef("F", "Functional", ("FR",)),
        LabelDef("A", "Availability", ()),
        LabelDef("FT", "Fault Tolerance", ("fault-tolerance",)),
        LabelDef("L", "Legal", ("legal & licensing",)),
        LabelDef("LF", "Look and Feel", ("look & feel",)),
        LabelDef("MN", "Maintainability", ()),
        LabelDef("O", "Operational", ("operability",)),
        LabelDef("PE", "Performance", ()),
        LabelDef("SC", "Scalability", ()),
        LabelDef("SE", "Security", ()),
        LabelDef("US", "Usability", ()),
        LabelDef("PO", "Portability", ()),
    ),
)

ISO25010_9 = LabelScheme(
    name="iso25010",
    task_kind="multiclass",
    labels=(
        LabelDef("FS", "Functional Suitability", ("functional",)),
        LabelDef("PE", "Performance Efficiency", ("performance",)),
        LabelDef("CO", "Compatibility", ()),
        LabelDef("IC", "Interaction Capability", ("usability",)),
        LabelDef("RE", "Reliability", ()),
        LabelDef("SE", "Security", ()),
        LabelDef("MN", "Maintainability", ()),
        LabelDef("FL", "Flexibility", ("portability",)),
        LabelDef("SA", "Safety", ()),
    ),
)

BUILTIN_SCHEMES: dict[str, LabelScheme] = {
    s.name: s for s in (BINARY_FRNFR, PROMISE_12, ISO25010_9)
}


def load_scheme(source: str | Path) -> LabelScheme:
    """Resolve a scheme by built-in name or load a declarative JSON file."""
    name = str(source)
    if name in BUILTIN_SCHEMES:
        return BUILTIN_SCHEMES[name]
    path = Path(source)
    if not path.exists():
        raise CorpusError(
            f"unknown scheme {name!r}: not a built-in "
            f"({', '.join(sorted(BUILTIN_SCHEMES))}) and no such file"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise CorpusError(f"scheme file {path}: not a readable JSON file ({exc})") from exc

    def aliases(item: dict) -> tuple[str, ...]:
        if type(listed := item.get("aliases", [])) is not list:  # a str: one alias per letter
            raise CorpusError(f"scheme file {path}: aliases must be a JSON list, got {listed!r}")
        return tuple(listed)

    try:
        labels = tuple(
            LabelDef(item["id"], item["name"], aliases(item)) for item in payload["labels"]
        )
        return LabelScheme(payload["name"], labels, payload["task_kind"])
    except KeyError as exc:
        raise CorpusError(f"scheme file {path}: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:  # a list, string or number out of place
        raise CorpusError(f"scheme file {path}: malformed scheme ({exc})") from exc


def load_corpus(
    path: str | Path,
    scheme: LabelScheme,
    text_col: str = "text",
    label_col: str = "label",
) -> Corpus:
    """Load a labeled CSV (RFC 4180) into a Corpus with sequential record ids."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"no such file: {path}")
    try:
        handle = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:  # a directory, or not readable
        raise CorpusError(f"{path}: cannot open ({exc})") from exc
    records: list[RequirementRecord] = []
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError(f"{path}: empty file") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CorpusError(f"{path}: malformed CSV or not UTF-8 ({exc})") from exc
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise CorpusError(f"{path}: duplicate header column(s): {', '.join(dupes)}")
        for col in (text_col, label_col):
            if col not in header:
                raise CorpusError(f"{path}: missing column {col!r} (header: {header})")
        text_idx = header.index(text_col)
        label_idx = header.index(label_col)
        try:
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise CorpusError(
                        f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
                    )
                text = row[text_idx].strip()
                if not text:
                    raise CorpusError(f"{path}: row {row_no}: empty text")
                raw_label = row[label_idx]
                label_id = scheme.resolve(raw_label)
                if label_id is None:
                    raise CorpusError(
                        f"{path}: row {row_no}: label {raw_label!r} not in scheme "
                        f"{scheme.name!r}"
                    )
                records.append(
                    RequirementRecord(len(records), text, label_id, path.stem)
                )
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CorpusError(f"{path}: malformed CSV or not UTF-8 ({exc})") from exc
    return Corpus(tuple(records), scheme)


@dataclass(frozen=True)
class SplitPlan:
    kind: str  # "holdout" | "kfold"
    param: float | int
    seed: int
    assignments: dict[int, int]


def _records_by_class(corpus: Corpus) -> dict[str, list[RequirementRecord]]:
    grouped: dict[str, list[RequirementRecord]] = {
        lid: [] for lid in corpus.scheme.label_ids
    }
    for record in corpus.records:
        grouped[record.label].append(record)
    return grouped


SMALL_CLASS_POLICIES = ("error", "allow")


def make_split(
    corpus: Corpus,
    kind: str,
    param: float | int,
    seed: int,
    on_small_class: str = "error",
) -> SplitPlan:
    """Build a deterministic stratified split plan.

    holdout: param is the train fraction; partition 0 is train, 1 is test.
    kfold: param is the fold count; partitions are fold indices. Classes
    smaller than k are an error unless on_small_class="allow".
    """
    if on_small_class not in SMALL_CLASS_POLICIES:
        raise SplitError(f"on_small_class must be error or allow, got {on_small_class!r}")
    if not corpus.records:
        raise SplitError("cannot split an empty corpus")
    grouped = _records_by_class(corpus)
    for lid, members in grouped.items():
        if not members:
            raise SplitError(f"class {lid} has no records")
    rng = random.Random(seed)
    assignments: dict[int, int] = {}

    if kind == "holdout":
        fraction = float(param)
        if not 0.0 < fraction < 1.0:
            raise SplitError(f"holdout fraction must be in (0, 1), got {fraction}")
        for lid in corpus.scheme.label_ids:
            members = list(grouped[lid])
            rng.shuffle(members)
            # half-up per class; banker's rounding would drift class to class
            n_train = min(len(members), math.floor(fraction * len(members) + 0.5))
            for i, record in enumerate(members):
                assignments[record.record_id] = 0 if i < n_train else 1
        return SplitPlan("holdout", fraction, seed, assignments)

    if kind == "kfold":
        k = int(param)
        if not 2 <= k <= len(corpus.records):
            raise SplitError(f"k must be in [2, {len(corpus.records)}], got {k}")
        small = [lid for lid in corpus.scheme.label_ids if len(grouped[lid]) < k]
        if small and on_small_class != "allow":
            raise SplitError(
                f"class(es) with fewer than {k} records: {', '.join(small)}; "
                "pass on_small_class='allow' to spread them over leading folds"
            )
        # Stagger remainders across classes so global fold sizes differ by <= 1.
        offset = 0
        for lid in corpus.scheme.label_ids:
            members = list(grouped[lid])
            rng.shuffle(members)
            base, rem = divmod(len(members), k)
            extras = {(offset + i) % k for i in range(rem)}
            pos = 0
            for fold in range(k):
                take = base + (1 if fold in extras else 0)
                for record in members[pos : pos + take]:
                    assignments[record.record_id] = fold
                pos += take
            offset = (offset + rem) % k
        return SplitPlan("kfold", k, seed, assignments)

    raise SplitError(f"unknown split kind {kind!r}")
