"""Benchmark inputs: the corpus read without shotsweep, and the planted replies.

The stub endpoint answers every prompt with a reply that is a pure function
of (seed, model name, query text, number of example blocks). The checker
recomputes the same replies to know what each run must report. Nothing here
imports shotsweep: the label vocabulary below is the benchmark's own copy of
the built-in schemes it exercises.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

GRID = (0, 5, 10, 20, 40, 80, 120, 160)

# Accuracy per shot count. Adjacent points that decide a curve's optimum are
# 0.15 apart, about 19 of 125 holdout queries, so the planted optimum and
# verdict are recovered on every seed; the peak model then drops by 0.45.
SWEEP_SCHEDULES: dict[str, dict[int, float]] = {
    "stub-peak": {0: 0.30, 5: 0.45, 10: 0.60, 20: 0.75, 40: 0.95, 80: 0.80, 120: 0.65, 160: 0.50},
    "stub-rise": {0: 0.20, 5: 0.30, 10: 0.40, 20: 0.50, 40: 0.60, 80: 0.70, 120: 0.80, 160: 0.95},
}
PLANTED_OPTIMUM = {"stub-peak": 40, "stub-rise": 160}
PLANTED_FLAGGED = {"stub-peak": True, "stub-rise": False}

CV_MODEL = "stub-cv"
CV_ACCURACY = 0.70


@dataclass(frozen=True)
class Scheme:
    name: str
    ids: tuple[str, ...]
    names: dict[str, str]
    aliases: dict[str, str] = field(default_factory=dict)  # one other surface form per label

    def gold_id(self, raw_label: str) -> str:
        if self.name == "frnfr":
            return "FR" if raw_label == "F" else "NFR"
        if raw_label not in self.names:
            raise ValueError(f"label {raw_label!r} not in {self.name}")
        return raw_label


FRNFR = Scheme("frnfr", ("FR", "NFR"), {"FR": "Functional", "NFR": "Non-Functional"})

PROMISE12 = Scheme(
    "promise12",
    ("F", "A", "FT", "L", "LF", "MN", "O", "PE", "SC", "SE", "US", "PO"),
    {
        "F": "Functional", "A": "Availability", "FT": "Fault Tolerance",
        "L": "Legal", "LF": "Look and Feel", "MN": "Maintainability",
        "O": "Operational", "PE": "Performance", "SC": "Scalability",
        "SE": "Security", "US": "Usability", "PO": "Portability",
    },
    {
        "F": "FR", "A": "A", "FT": "fault-tolerance", "L": "legal & licensing",
        "LF": "look & feel", "MN": "MN", "O": "operability", "PE": "PE",
        "SC": "SC", "SE": "SE", "US": "US", "PO": "PO",
    },
)

SCHEMES = {s.name: s for s in (FRNFR, PROMISE12)}


@dataclass(frozen=True)
class Corpus:
    texts: tuple[str, ...]  # record order = CSV row order
    raw_labels: tuple[str, ...]
    index: dict[str, int]

    def gold(self, scheme: Scheme) -> tuple[str, ...]:
        return tuple(scheme.gold_id(raw) for raw in self.raw_labels)


def read_corpus(path: str | Path) -> Corpus:
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    text_col, label_col = header.index("text"), header.index("label")
    texts, labels = [], []
    for row in rows[1:]:
        if row:
            texts.append(row[text_col].strip())
            labels.append(row[label_col].strip())
    index = {text: i for i, text in enumerate(texts)}
    if len(index) != len(texts):
        raise ValueError(f"{path}: duplicate texts; prompts could not be attributed")
    return Corpus(tuple(texts), tuple(labels), index)


def _unit(seed: int, *parts: object) -> float:
    key = "|".join(str(p) for p in (seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2.0**64


def _pick(seq, u: float):
    return seq[min(int(u * len(seq)), len(seq) - 1)]


@dataclass(frozen=True)
class Reply:
    text: str
    label: str | None  # the one label the text names; None if none or several
    form: str  # canonical | alias | punct | multi | unparseable


_PUNCT = ("**{}**", "{}.", "Category: {}!", "'{}'", "({})", "{}\n")
_MULTI_SEP = (" / ", ", ", " or ")
_UNPARSEABLE = ("I cannot decide.", "???", "Not sure, sorry.")


def planted_reply(
    scheme: Scheme, seed: int, model: str, query: str, n_blocks: int, gold: str
) -> Reply:
    """The stub's answer; also what the checker expects the harness to score."""
    if scheme is FRNFR:
        accuracy = SWEEP_SCHEDULES[model].get(n_blocks, 0.0)
        correct = _unit(seed, model, query, "correct") < accuracy
        label = gold if correct else next(l for l in scheme.ids if l != gold)
        return Reply(scheme.names[label], label, "canonical")
    if model != CV_MODEL:
        raise KeyError(model)
    key = (seed, model, query, n_blocks)
    if _unit(*key, "correct") < CV_ACCURACY:
        label = gold
    else:
        label = _pick([l for l in scheme.ids if l != gold], _unit(*key, "wrong"))
    form_u = _unit(*key, "form")
    style_u = _unit(*key, "style")
    name = scheme.names[label]
    if form_u < 0.55:
        return Reply(name, label, "canonical")
    if form_u < 0.70:
        return Reply(scheme.aliases[label], label, "alias")
    if form_u < 0.85:
        return Reply(_pick(_PUNCT, style_u).format(name), label, "punct")
    if form_u < 0.93:
        second = _pick([l for l in scheme.ids if l != label], _unit(*key, "second"))
        text = name + _pick(_MULTI_SEP, style_u) + scheme.names[second]
        return Reply(text, None, "multi")
    return Reply(_pick(_UNPARSEABLE, style_u), None, "unparseable")
