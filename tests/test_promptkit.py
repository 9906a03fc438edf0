from __future__ import annotations

import gc
import re
import weakref
from array import array

import pytest

from shotsweep import (
    DEFAULT_TEMPLATE,
    BINARY_FRNFR,
    PromptSpec,
    PromptTemplate,
    HashEmbeddingProvider,
    build_pool,
    estimate_tokens,
    render_prompt,
)
from shotsweep.corpus import PROMISE_12, LabelDef, LabelScheme
from shotsweep.promptkit import (
    ORDERING_POLICIES,
    PromptError,
    load_template,
)
from shotsweep.selection import Ranking, rank
from shotsweep.sweep import CELL_ERRORS

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


def ranking_of(chosen, query_key="text:q"):
    """A Ranking of chosen's (id, similarity or None) pairs, as rank keeps them."""
    sims = [sim for _, sim in chosen if sim is not None]
    return Ranking(query_key, len(chosen), array("q", [rid for rid, _ in chosen]),
                   array("d", sims))


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

    @pytest.mark.parametrize(
        "task, input_block, message",
        [
            ("no class list here", "{text}", "task block must contain the {classes}"),
            ("{{classes}}", "{text}", "task block must contain the {classes}"),
            ("{classes}", "{{text}}", "input block must contain the {text}"),
        ],
        ids=["missing", "doubled-classes", "doubled-text"],
    )
    def test_block_needs_its_placeholder(self, task, input_block, message):
        """A doubled brace formats as a literal one, so {{text}} is no placeholder."""
        with pytest.raises(PromptError, match=re.escape(message)):
            PromptTemplate("role", task, "{text} {label}", input_block)

    @pytest.mark.parametrize(
        "task, example, input_block, block",
        [
            ('{classes} as {"label": x}', "{text} {label}", "{text}", "task block"),
            ("{classes} }", "{text} {label}", "{text}", "task block"),
            ("{classes}", "{0} {text} {label}", "{text}", "example block"),
            ("{classes}", "{text} {label}", "{ {text}", "input block"),
            ("{classes}", "{text} {label}", "{text.x}", "input block"),
            ("{classes}", "{text} {label}", "{text[x]}", "input block"),
        ],
        ids=["json-braces", "stray-close", "positional", "lone-open", "attribute", "key"],
    )
    def test_block_that_cannot_render_is_refused(self, task, example, input_block, block):
        with pytest.raises(PromptError, match=f"^{block}: .*literal brace is written {{{{"):
            PromptTemplate("role", task, example, input_block)

    def test_doubled_braces_render_as_single_ones(self):
        template = PromptTemplate(
            system_role_text='Reply as JSON: {"label": "<id>"}',  # never formatted
            task_description_text='{classes}\nAnswer {{"label": x}}',
            example_block_format="{text} -> {{{label}}}",
            input_block_format="{text} ->",
        )
        pool = small_pool()
        prompt = render_prompt(template, BINARY_FRNFR, ranking_of(((0, 0.9),)), 1, pool, "q")
        assert prompt.system_message == 'Reply as JSON: {"label": "<id>"}'
        assert 'Answer {"label": x}' in prompt.user_message
        assert f"{pool.record(0).text} -> {{Functional}}" in prompt.user_message

    def test_ordering_policy_names(self):
        ranking = ranking_of(((0, 0.9),))
        with pytest.raises(PromptError, match="unknown ordering policy 'sideways'"):
            render_prompt(
                DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 1, small_pool(), "q", "sideways"
            )


class TestRenderPrompt:
    def test_zero_shot_omits_examples_block(self):
        pool = small_pool()
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking_of(()), 0, pool, "classify me"
        )
        assert prompt.example_provenance == ()
        assert DEFAULT_TEMPLATE.examples_header not in prompt.user_message
        assert "Text:" not in prompt.user_message
        assert "Input: classify me" in prompt.user_message

    def test_zero_shot_identical_across_methods(self):
        pool = small_pool()
        provider = HashEmbeddingProvider(8)
        prompts = [
            render_prompt(
                DEFAULT_TEMPLATE,
                BINARY_FRNFR,
                rank(pool, ["classify me"], method, 2, provider=provider)[0],
                0,
                pool,
                "classify me",
            )
            for method in ("random", "tfidf", "embedding")
        ]
        assert len({p.content_hash for p in prompts}) == 1

    def test_ascending_puts_most_similar_last(self):
        pool = small_pool()
        ranking = ranking_of(((0, 0.9), (2, 0.4)))
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 2, pool, "query",
            "ascending",
        )
        assert prompt.example_provenance == (2, 0)

    def test_descending_puts_most_similar_first(self):
        pool = small_pool()
        ranking = ranking_of(((0, 0.4), (2, 0.9)))
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 2, pool, "query",
            "descending",
        )
        assert prompt.example_provenance == (2, 0)

    def test_pool_order(self):
        pool = small_pool()
        ranking = ranking_of(((2, 0.9), (0, 0.1)))
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 2, pool, "query",
            "pool_order",
        )
        rendered = [pool.positions[rid] for rid in prompt.example_provenance]
        assert rendered == sorted(rendered)

    def test_shuffle_is_seeded(self):
        pool = small_pool()
        ranking = ranking_of(((0, None), (1, None), (2, None), (3, None)))
        one = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 4, pool, "q",
            "shuffle",
        )
        two = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 4, pool, "q",
            "shuffle",
        )
        assert one.example_provenance == two.example_provenance
        assert one.content_hash == two.content_hash

    def test_identical_inputs_identical_hash(self):
        pool = small_pool()
        ranking = rank(pool, ["encrypt data"], "tfidf", 2)[0]
        one = render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 2, pool, "encrypt data")
        two = render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 2, pool, "encrypt data")
        assert one == two

    def test_different_provenance_different_hash(self):
        pool = small_pool()
        a = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR,
            ranking_of(((0, 0.5), (1, 0.4))), 2,
            pool, "q",
        )
        b = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR,
            ranking_of(((1, 0.5), (0, 0.4))), 2,
            pool, "q",
        )
        assert a.example_provenance != b.example_provenance
        assert a.content_hash != b.content_hash

    def test_every_class_name_once_in_task_block(self):
        pool = small_pool()
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking_of(((0, 0.9),)), 1, pool, "query text"
        )
        task_block = prompt.user_message.split(DEFAULT_TEMPLATE.examples_header)[0]
        for label in BINARY_FRNFR.labels:
            assert count_whole(label.name, task_block) == 1

    def test_multiclass_names_once_each(self):
        rows = [(f"requirement {i}", lid) for i, lid in enumerate(PROMISE_12.label_ids)]
        pool = build_pool(make_records(rows), PROMISE_12, len(rows), seed=0)
        prompt = render_prompt(DEFAULT_TEMPLATE, PROMISE_12, ranking_of(()), 0, pool, "query")
        for label in PROMISE_12.labels:
            assert count_whole(label.name, prompt.user_message) == 1

    def test_example_count_equals_shot_count(self):
        pool = small_pool()
        for k in (1, 2, 3, 4):
            chosen = tuple((i, 1.0 - i * 0.1) for i in range(k))
            prompt = render_prompt(
                DEFAULT_TEMPLATE, BINARY_FRNFR,
                ranking_of(chosen), k,
                pool, "the query sentence",
            )
            blocks = re.findall(r"(?m)^Text: ", prompt.user_message)
            assert len(blocks) == k == len(prompt.example_provenance)

    def test_query_appears_once_after_examples(self):
        pool = small_pool()
        chosen = ((0, 0.9), (1, 0.5))
        prompt = render_prompt(
            DEFAULT_TEMPLATE, BINARY_FRNFR,
            ranking_of(chosen), 2,
            pool, "a unique query sentence",
        )
        assert prompt.user_message.count("a unique query sentence") == 1
        query_pos = prompt.user_message.index("a unique query sentence")
        for rid in prompt.example_provenance:
            assert prompt.user_message.index(pool.record(rid).text) < query_pos

    def test_unresolvable_record_id(self):
        pool = small_pool()
        for ordering in ORDERING_POLICIES:
            with pytest.raises(PromptError, match="record 99 not in pool"):
                render_prompt(
                    DEFAULT_TEMPLATE, BINARY_FRNFR, ranking_of(((99, 0.5),)), 1, pool, "q",
                    ordering,
                )

    @pytest.mark.parametrize("method", ["random", "tfidf", "embedding"])
    def test_k_deeper_than_the_ranking_is_refused(self, method):
        """A ranking ranked to depth 5 cannot give 10 examples, although 11
        candidates are available; it must not render a 5-shot prompt."""
        pool = memo_corpus(12)
        ranking = rank(pool, ["encrypt stored data"], method, 5, 0, HashEmbeddingProvider(8))[0]
        assert (ranking.available, len(ranking.ids)) == (12, 5)
        with pytest.raises(CELL_ERRORS, match="selection of 10 asked of a ranking of depth 5"):
            render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 10, pool, "any query")


def memo_corpus(size=7):
    rows = [
        ("the service shall encrypt all stored data", "FR"),
        ("the page shall load fast", "NFR"),
        ("users shall export reports", "FR"),
        ("uptime shall exceed targets", "NFR"),
        ("the service shall encrypt all stored data", "NFR"),  # a tie with row 0
        ("admins shall export the audit log", "FR"),
        ("reports shall load within a second", "NFR"),
    ]
    rows += [(f"the system shall log event {i}", "FR") for i in range(size - len(rows))]
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


def assert_renders_as_oracle(template, scheme, ranking, k, pool, query, ordering):
    prompt = render_prompt(template, scheme, ranking, k, pool, query, ordering)
    expected = oracle_render(template, scheme, ranking, k, pool.candidates, query, ordering)
    got = (
        prompt.system_message, prompt.user_message, prompt.example_provenance,
        prompt.content_hash,
    )
    assert got == expected
    assert len(prompt.example_provenance) == min(k, ranking.available)


class TestRenderMemo:
    """Blocks formatted once per (pool, template, scheme) render as a plain
    per-call formatting of the same selection would."""

    @pytest.mark.parametrize("ordering", ORDERING_POLICIES)
    def test_memoised_prompts_equal_plain_formatting(self, ordering):
        pool = memo_corpus()
        queries = ["encrypt stored data", "export reports", "load fast uptime"]
        for _ in range(2):  # the second pass renders from the memo
            for query in queries:
                for method in ("tfidf", "random"):
                    for k in range(len(pool) + 1):
                        ranking = rank(pool, [query], method, k, seed=2)[0]
                        assert_renders_as_oracle(
                            DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, k, pool, query, ordering
                        )
            tied = ranking_of(((4, 0.5), (0, 0.5), (2, 0.9)), "text:t")
            assert_renders_as_oracle(
                DEFAULT_TEMPLATE, BINARY_FRNFR, tied, 3, pool, "q", ordering
            )

    def test_other_template_or_scheme_renders_its_own_blocks(self):
        pool = memo_corpus()
        ranking = ranking_of(((1, 0.2), (5, 0.7), (0, 0.9)))
        for template, scheme in [
            (DEFAULT_TEMPLATE, BINARY_FRNFR),
            (OTHER_TEMPLATE, BINARY_FRNFR),
            (DEFAULT_TEMPLATE, OTHER_SCHEME),
            (OTHER_TEMPLATE, OTHER_SCHEME),
            (DEFAULT_TEMPLATE, BINARY_FRNFR),
        ]:
            assert_renders_as_oracle(template, scheme, ranking, 3, pool, "q", "ascending")
        other = render_prompt(OTHER_TEMPLATE, OTHER_SCHEME, ranking, 3, pool, "q")
        assert "<Quality> the page shall load fast" in other.user_message
        assert "Text:" not in other.user_message

    def test_memo_does_not_keep_the_pool_alive(self):
        pool = memo_corpus()
        render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, ranking_of(((1, 0.2), (5, 0.7))), 2, pool,
                      "q")
        assert pool.render_memo  # the blocks were kept for the next prompt
        ref = weakref.ref(pool)
        del pool
        gc.collect()
        assert ref() is None


class TestEstimateTokens:
    def test_empty_prompt(self):
        prompt = PromptSpec("", "", (), "h", "")
        assert estimate_tokens(prompt) == 0

    def test_300_chars_is_100(self):
        prompt = PromptSpec("x" * 100, "y" * 200, (), "h", "")
        assert estimate_tokens(prompt) == 100

    def test_rounds_up(self):
        prompt = PromptSpec("x", "", (), "h", "")
        assert estimate_tokens(prompt) == 1


class TestBigPrompt:
    def test_160_shot_prompt_fits_a_128k_window(self, promise_binary):
        records = list(promise_binary.records)
        pool = build_pool(records, BINARY_FRNFR, 400, seed=0)
        query = records[0].text
        ranking = rank(pool, [query], "tfidf", 160)[0]
        prompt = render_prompt(DEFAULT_TEMPLATE, BINARY_FRNFR, ranking, 160, pool, query)
        assert len(prompt.example_provenance) == 160
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

    @pytest.mark.parametrize(
        "text, needle",
        [("[system]\nrole\n[footer]\nbye\n", r":3: unknown section 'footer'"),
         ("role\n[system]\nrole\n", r":1: content before any \[section\]"),
         ("[system]\nrole\n[task]\nt\n[example]\ne\n[input]\ni\n[system]\n",
          r"bad.txt:9: repeated section \[system\]")],
        ids=["unknown-section", "content-before-sections", "repeated-section"],
    )
    def test_malformed_template_rejected(self, tmp_path, text, needle):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PromptError, match=needle):
            load_template(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[system]\nrole only\n", encoding="utf-8")
        with pytest.raises(PromptError, match="missing section"):
            load_template(path)
