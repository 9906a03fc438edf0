"""Four-block classification prompts: role, task + classes, examples, input."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .corpus import LabelScheme
from .selection import FewShotPool, SelectionError, SelectionResult, derived_rng


class PromptError(Exception):
    pass


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")

ORDERING_POLICIES = ("ascending", "descending", "pool_order", "shuffle")


@dataclass(frozen=True)
class OrderingPolicy:
    """How rendered examples are ordered.

    ascending puts the most similar example last, next to the input;
    descending reverses that; pool_order keeps pool positions; shuffle is a
    seeded permutation. Random-draw selections carry no similarities and keep
    their draw order under ascending/descending.
    """

    name: str = "ascending"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in ORDERING_POLICIES:
            raise PromptError(f"unknown ordering policy {self.name!r}")


def _check_placeholders(template_text: str, allowed: set[str], where: str) -> None:
    for match in _PLACEHOLDER_RE.finditer(template_text):
        if match.group(1) not in allowed:
            raise PromptError(
                f"{where}: unresolved placeholder {{{match.group(1)}}}"
            )


@dataclass(frozen=True)
class PromptTemplate:
    system_role_text: str
    task_description_text: str  # must use {classes}
    example_block_format: str  # uses {text} and {label}
    input_block_format: str  # uses {text}
    examples_header: str = "Examples:"
    version: str = "custom-v0"

    def __post_init__(self) -> None:
        _check_placeholders(self.system_role_text, set(), "system block")
        _check_placeholders(self.task_description_text, {"classes"}, "task block")
        if "{classes}" not in self.task_description_text:
            raise PromptError("task block must contain the {classes} placeholder")
        _check_placeholders(self.example_block_format, {"text", "label"}, "example block")
        _check_placeholders(self.input_block_format, {"text"}, "input block")
        if "{text}" not in self.input_block_format:
            raise PromptError("input block must contain the {text} placeholder")


DEFAULT_TEMPLATE = PromptTemplate(
    system_role_text="You are a software requirements analyst.",
    task_description_text=(
        "Classify the software requirement given as input into exactly one of "
        "the following categories:\n{classes}\n\n"
        "Answer with exactly one category name from the list and nothing else."
    ),
    example_block_format="Text: {text}\nCategory: {label}",
    input_block_format="Input: {text}\nCategory:",
    version="analyst-v1",
)

_TEMPLATE_SECTIONS = {
    "system": "system_role_text",
    "task": "task_description_text",
    "examples_header": "examples_header",
    "example": "example_block_format",
    "input": "input_block_format",
    "version": "version",
}


def load_template(path: str | Path) -> PromptTemplate:
    """Read a template from a plain-text file with [section] markers."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PromptError(f"template {path}: cannot read a UTF-8 file ({exc})") from exc
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line_no, line in enumerate(text.splitlines(), 1):
        marker = line.strip()
        if marker.startswith("[") and marker.endswith("]"):
            current = marker[1:-1]
            if current not in _TEMPLATE_SECTIONS:
                raise PromptError(f"{path}:{line_no}: unknown section {current!r}")
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
        elif marker:
            raise PromptError(f"{path}:{line_no}: content before any [section]")
    missing = {"system", "task", "example", "input"} - set(sections)
    if missing:
        raise PromptError(f"{path}: missing section(s): {', '.join(sorted(missing))}")
    kwargs = {
        _TEMPLATE_SECTIONS[name]: "\n".join(lines).strip("\n")
        for name, lines in sections.items()
    }
    return PromptTemplate(**kwargs)


@dataclass(frozen=True)
class PromptSpec:
    system_message: str
    user_message: str
    example_provenance: tuple[int, ...]
    shot_count: int
    template_version: str
    content_hash: str
    query_text: str


def _content_hash(system_message: str, user_message: str) -> str:
    digest = hashlib.sha256()
    digest.update(system_message.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(user_message.encode("utf-8"))
    return digest.hexdigest()


def _order_examples(
    selection: SelectionResult, pool: FewShotPool, ordering: OrderingPolicy
) -> list[tuple[int, float | None]]:
    chosen = list(selection.chosen)
    if ordering.name in ("ascending", "descending"):
        if None in map(itemgetter(1), chosen):
            return chosen
        # a reverse sort keeps ties in order, as the ascending one does
        return sorted(chosen, key=itemgetter(1), reverse=ordering.name == "descending")
    if ordering.name == "pool_order":
        position = pool.positions
        return sorted(chosen, key=lambda item: position[item[0]])
    rng = derived_rng(ordering.seed, f"order:{selection.query_key}")
    rng.shuffle(chosen)
    return chosen


def _formatted(
    template: PromptTemplate, scheme: LabelScheme, pool: FewShotPool
) -> tuple[str, dict[int, str]]:
    """The task text, and the example blocks formatted so far by record id,
    for (pool, template, scheme); held on the pool, so they go with it."""
    key = (id(template), id(scheme))
    entry = pool.render_memo.get(key)
    if entry is None:
        classes_text = "\n".join(f"- {label.name}" for label in scheme.labels)
        task = template.task_description_text.format(classes=classes_text)
        # the entry holds template and scheme, so their ids stay theirs while it lives
        entry = pool.render_memo[key] = (template, scheme, task, {})
    return entry[2], entry[3]


def render_prompt(
    template: PromptTemplate,
    scheme: LabelScheme,
    selection: SelectionResult,
    pool: FewShotPool,
    query_text: str,
    ordering: OrderingPolicy = OrderingPolicy(),
) -> PromptSpec:
    """Assemble the prompt: system role, task with class list, examples, input.

    Zero-shot selections render with the examples block omitted entirely.
    The task text and each example block are formatted once per (pool,
    template, scheme).
    """
    task, formatted = _formatted(template, scheme, pool)
    provenance = tuple(map(itemgetter(0), _order_examples(selection, pool, ordering)))
    try:
        blocks = [formatted[rid] for rid in provenance]
    except KeyError:
        for rid in provenance:
            if rid not in formatted:
                try:
                    record = pool.record(rid)
                except SelectionError as exc:
                    raise PromptError(str(exc)) from exc
                formatted[rid] = template.example_block_format.format(
                    text=record.text, label=scheme.canonical_name(record.label)
                )
        blocks = [formatted[rid] for rid in provenance]
    parts = [task]
    if blocks:
        parts.append(template.examples_header + "\n\n" + "\n\n".join(blocks))
    parts.append(template.input_block_format.format(text=query_text))
    user_message = "\n\n".join(parts)
    return PromptSpec(
        system_message=template.system_role_text,
        user_message=user_message,
        example_provenance=provenance,
        shot_count=len(provenance),
        template_version=template.version,
        content_hash=_content_hash(template.system_role_text, user_message),
        query_text=query_text,
    )


def estimate_tokens(prompt: PromptSpec) -> int:
    """Conservative upper bound: ceil(total characters / 3)."""
    total = len(prompt.system_message) + len(prompt.user_message)
    return math.ceil(total / 3)
