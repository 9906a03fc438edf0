from __future__ import annotations

import gc
import re
import weakref

import pytest

from shotsweep import (
    DEFAULT_TEMPLATE,
    BINARY_FRNFR,
    OrderingPolicy,
    PromptSpec,
    PromptTemplate,
    build_pool,
    estimate_tokens,
    fit_tfidf,
    render_prompt,
    select,
    SelectionConfig,
)
from shotsweep.corpus import PROMISE_12, LabelDef, LabelScheme
from shotsweep.promptkit import (
    ORDERING_POLICIES,
    PromptError,
    load_template,
)
from shotsweep.selection import SelectionResult

from conftest import make_records
from oracles import oracle_render


def small_pool():
    rows = [
        ("the service shall encrypt all stored data", "FR"),
        ("the page shall load fast", "NFR"),
        ("users shall export reports", "FR"),
        ("uptime shall exceed targets", "NFR"),
    ]
    records = make_records(rows)
    return build_pool(records, BINARY_FRNFR, 4, seed=0)


def count_whole(name: str, text: str) -> int:
    pattern = rf"(?<![A-Za-z0-9-]){re.escape(name)}(?![A-Za-z0-9-])"
    return len(re.findall(pattern, text))


class TestTemplateValidation:
    def test_unknown_placeholder_rejected(self):
        with pytest.raises(PromptError, match="unresolved placeholder"):
            PromptTemplate(
                system_role_text="role",
                task_description_text="classes {classes} and {mystery}",
                example_block_format="{text} {label}",
                input_block_format="{text}",
            )

    def test_task_needs_classes(self):
        with pytest.raises(PromptError, match="classes"):
            PromptTemplate(
                system_role_text="role",
                task_description_text="no class list here",
                example_block_format="{text} {label}",
                input_block_format="{text}",
            )

    def test_ordering_policy_names(self):
        with pytest.raises(PromptError):
            OrderingPolicy("sideways")


class TestRenderPrompt:
    def test_zero_shot_omits_examples_block(self):
        pool = small_pool()
        selection = SelectionResult("text:q", (), "tfidf", 0, 0)
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "classify me"
        )
        assert prompt.shot_count == 0
        assert DEFAULT_TEMPLATE.examples_header not in prompt.user_message
        assert "Text:" not in prompt.user_message
        assert "Input: classify me" in prompt.user_message

    def test_zero_shot_identical_across_methods(self):
        pool = small_pool()
        prompts = [
            render_prompt(
                DEFAULT_TEMPLATE,
                BINARY_FRNFR,
                SelectionResult("text:q", (), method, 0, 0),
                pool,
                "classify me",
            )
            for method in ("random", "tfidf", "embedding")
        ]
        assert len({p.content_hash for p in prompts}) == 1

    def test_ascending_puts_most_similar_last(self):
        pool = small_pool()
        selection = SelectionResult(
            "text:q", ((0, 0.9), (2, 0.4)), "tfidf", 2, 2
        )
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "query",
            OrderingPolicy("ascending"),
        )
        assert prompt.example_provenance == (2, 0)

    def test_descending_puts_most_similar_first(self):
        pool = small_pool()
        selection = SelectionResult("text:q", ((0, 0.4), (2, 0.9)), "tfidf", 2, 2)
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "query",
            OrderingPolicy("descending"),
        )
        assert prompt.example_provenance == (2, 0)

    def test_pool_order(self):
        pool = small_pool()
        selection = SelectionResult("text:q", ((2, 0.9), (0, 0.1)), "tfidf", 2, 2)
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "query",
            OrderingPolicy("pool_order"),
        )
        positions = {rid: i for i, rid in enumerate(pool.candidate_ids)}
        rendered = [positions[rid] for rid in prompt.example_provenance]
        assert rendered == sorted(rendered)

    def test_shuffle_is_seeded(self):
        pool = small_pool()
        selection = SelectionResult(
            "text:q", ((0, None), (1, None), (2, None), (3, None)), "random", 4, 4
        )
        one = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "q",
            OrderingPolicy("shuffle", seed=5),
        )
        two = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "q",
            OrderingPolicy("shuffle", seed=5),
        )
        assert one.example_provenance == two.example_provenance
        assert one.content_hash == two.content_hash

    def test_identical_inputs_identical_hash(self):
        pool = small_pool()
        model = fit_tfidf(pool.candidates)
        sel = select(pool, "encrypt data", SelectionConfig("tfidf", 2), tfidf=model)
        one = render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, sel, pool, "encrypt data")
        two = render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, sel, pool, "encrypt data")
        assert one == two

    def test_different_provenance_different_hash(self):
        pool = small_pool()
        a = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR,
            SelectionResult("text:q", ((0, 0.5), (1, 0.4)), "tfidf", 2, 2),
            pool, "q",
        )
        b = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR,
            SelectionResult("text:q", ((1, 0.5), (0, 0.4)), "tfidf", 2, 2),
            pool, "q",
        )
        assert a.example_provenance != b.example_provenance
        assert a.content_hash != b.content_hash

    def test_every_class_name_once_in_task_block(self):
        pool = small_pool()
        selection = SelectionResult("text:q", ((0, 0.9),), "tfidf", 1, 1)
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "query text"
        )
        task_block = prompt.user_message.split(DEFAULT_TEMPLATE.examples_header)[0]
        for label in BINARY_FRNFR.labels:
            assert count_whole(label.name, task_block) == 1

    def test_multiclass_names_once_each(self):
        rows = [(f"requirement {i}", lid) for i, lid in enumerate(PROMISE_12.label_ids)]
        pool = build_pool(make_records(rows), PROMISE_12, len(rows), seed=0)
        selection = SelectionResult("text:q", (), "random", 0, 0)
        prompt = render_prompt(DEFAULT_TEMPLATE, PROMISE_12, selection, pool, "query")
        for label in PROMISE_12.labels:
            assert count_whole(label.name, prompt.user_message) == 1

    def test_example_count_equals_shot_count(self):
        pool = small_pool()
        for k in (1, 2, 3, 4):
            chosen = tuple((i, 1.0 - i * 0.1) for i in range(k))
            prompt = render_prompt(
                DEFAULT_TEMPLATE, BINARY_FRNFR,
                SelectionResult("text:q", chosen, "tfidf", k, k),
                pool, "the query sentence",
            )
            blocks = re.findall(r"(?m)^Text: ", prompt.user_message)
            assert len(blocks) == k == prompt.shot_count

    def test_query_appears_once_after_examples(self):
        pool = small_pool()
        chosen = ((0, 0.9), (1, 0.5))
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR,
            SelectionResult("text:q", chosen, "tfidf", 2, 2),
            pool, "a unique query sentence",
        )
        assert prompt.user_message.count("a unique query sentence") == 1
        query_pos = prompt.user_message.index("a unique query sentence")
        for rid in prompt.example_provenance:
            assert prompt.user_message.index(pool.record(rid).text) < query_pos

    def test_unresolvable_record_id(self):
        pool = small_pool()
        selection = SelectionResult("text:q", ((99, 0.5),), "tfidf", 1, 1)
        with pytest.raises(PromptError, match="99"):
            render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "q")


def memo_corpus():
    rows = [
        ("the service shall encrypt all stored data", "FR"),
        ("the page shall load fast", "NFR"),
        ("users shall export reports", "FR"),
        ("uptime shall exceed targets", "NFR"),
        ("the service shall encrypt all stored data", "NFR"),  # a tie with row 0
        ("admins shall export the audit log", "FR"),
        ("reports shall load within a second", "NFR"),
    ]
    return build_pool(make_records(rows), BINARY_FRNFR, len(rows), seed=3)


OTHER_TEMPLATE = PromptTemplate(
    system_role_text="You sort requirements.",
    task_description_text="Pick one of:\n{classes}",
    example_block_format="<{label}> {text}",
    input_block_format="Q: {text}",
    examples_header="Solved:",
    version="other-v1",
)
OTHER_SCHEME = LabelScheme(
    "frnfr-renamed",
    (LabelDef("FR", "Feature"), LabelDef("NFR", "Quality")),
    "binary",
)


def assert_renders_as_oracle(template, scheme, selection, pool, query, ordering):
    prompt = render_prompt(template, scheme, selection, pool, query, ordering)
    expected = oracle_render(template, scheme, selection, pool.candidates, query, ordering)
    got = (
        prompt.system_message, prompt.user_message, prompt.example_provenance,
        prompt.content_hash,
    )
    assert got == expected
    assert prompt.shot_count == len(expected[2])


class TestRenderMemo:
    """Blocks formatted once per (pool, template, scheme) render as a plain
    per-call formatting of the same selection would."""

    @pytest.mark.parametrize("policy", ORDERING_POLICIES)
    def test_memoised_prompts_equal_plain_formatting(self, policy):
        pool = memo_corpus()
        model = fit_tfidf(pool.candidates)
        ordering = OrderingPolicy(policy, seed=11)
        queries = ["encrypt stored data", "export reports", "load fast uptime"]
        for _ in range(2):  # the second pass renders from the memo
            for query in queries:
                for method in ("tfidf", "random"):
                    for k in range(len(pool) + 1):
                        selection = select(
                            pool, query, SelectionConfig(method, k, seed=2), tfidf=model
                        )
                        assert_renders_as_oracle(
                            DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, query, ordering
                        )
            tied = SelectionResult("text:t", ((4, 0.5), (0, 0.5), (2, 0.9)), "tfidf", 3, 3)
            assert_renders_as_oracle(
                DEFAULT_TEMPLATE, BINARY_FRNFR, tied, pool, "q", ordering
            )

    def test_other_template_or_scheme_renders_its_own_blocks(self):
        pool = memo_corpus()
        selection = SelectionResult("text:q", ((1, 0.2), (5, 0.7), (0, 0.9)), "tfidf", 3, 3)
        ordering = OrderingPolicy()
        for template, scheme in [
            (DEFAULT_TEMPLATE, BINARY_FRNFR),
            (OTHER_TEMPLATE, BINARY_FRNFR),
            (DEFAULT_TEMPLATE, OTHER_SCHEME),
            (OTHER_TEMPLATE, OTHER_SCHEME),
            (DEFAULT_TEMPLATE, BINARY_FRNFR),
        ]:
            assert_renders_as_oracle(template, scheme, selection, pool, "q", ordering)
        other = render_prompt(OTHER_TEMPLATE, OTHER_SCHEME, selection, pool, "q")
        assert "<Quality> the page shall load fast" in other.user_message
        assert "Text:" not in other.user_message

    def test_memo_does_not_keep_the_pool_alive(self):
        pool = memo_corpus()
        selection = SelectionResult("text:q", ((1, 0.2), (5, 0.7)), "tfidf", 2, 2)
        render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, "q")
        assert pool.render_memo  # the blocks were kept for the next prompt
        ref = weakref.ref(pool)
        del pool
        gc.collect()
        assert ref() is None


class TestEstimateTokens:
    def test_empty_prompt(self):
        prompt = PromptSpec("", "", (), 0, "v", "h", "")
        assert estimate_tokens(prompt) == 0

    def test_300_chars_is_100(self):
        prompt = PromptSpec("x" * 100, "y" * 200, (), 0, "v", "h", "")
        assert estimate_tokens(prompt) == 100

    def test_rounds_up(self):
        prompt = PromptSpec("x", "", (), 0, "v", "h", "")
        assert estimate_tokens(prompt) == 1


class TestBigPrompt:
    def test_160_shot_prompt_fits_a_128k_window(self, promise_binary):
        records = list(promise_binary.records)
        pool = build_pool(records, BINARY_FRNFR, 400, seed=0)
        model = fit_tfidf(pool.candidates)
        query = records[0].text
        cfg = SelectionConfig("tfidf", 160)
        selection = select(pool, query, cfg, tfidf=model)
        prompt = render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, selection, pool, query)
        assert prompt.shot_count == 160
        chars = len(prompt.system_message) + len(prompt.user_message)
        estimate = estimate_tokens(prompt)
        assert estimate == -(-chars // 3)  # oracle: ceil of character count / 3
        assert estimate < 131072


class TestTemplateFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "template.txt"
        path.write_text(
            "[system]\n"
            "You are a software requirements analyst.\n"
            "[task]\n"
            "Classify the software requirement given as input into exactly one of "
            "the following categories:\n"
            "{classes}\n"
            "\n"
            "Answer with exactly one category name from the list and nothing else.\n"
            "[examples_header]\n"
            "Examples:\n"
            "[example]\n"
            "Text: {text}\n"
            "Category: {label}\n"
            "[input]\n"
            "Input: {text}\n"
            "Category:\n"
            "[version]\n"
            "analyst-v1\n",
            encoding="utf-8",
        )
        again = load_template(path)
        assert again == DEFAULT_TEMPLATE

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[system]\nrole only\n", encoding="utf-8")
        with pytest.raises(PromptError, match="missing section"):
            load_template(path)
