from __future__ import annotations

from itertools import chain
from pathlib import Path

import pytest

from shotsweep import (
    BINARY_FRNFR,
    Corpus,
    LabelDef,
    LabelScheme,
    RequirementRecord,
    SweepPlan,
    compute_report,
    load_corpus,
    run_sweep,
)
from shotsweep.evaluation import PARSE_KINDS
from shotsweep.reporting import atomic_write, trace_jsonl

REPO_ROOT = Path(__file__).resolve().parents[1]
PROMISE_CSV = REPO_ROOT / "data" / "promise_nfr.csv"


def make_records(texts_labels, dataset="test"):
    return [
        RequirementRecord(i, text, label, dataset)
        for i, (text, label) in enumerate(texts_labels)
    ]


def report_of(scheme, outcomes, metadata=None):
    """compute_report over (gold label, scored label or None, parse kind)
    triples, as class-index columns."""
    index = {lid: i for i, lid in enumerate(scheme.label_ids)}
    return compute_report(
        [index[gold] for gold, _, _ in outcomes],
        [-1 if scored is None else index[scored] for _, scored, _ in outcomes],
        [PARSE_KINDS.index(kind) for _, _, kind in outcomes],
        scheme, metadata,
    )


def evaluate_one_cell(corpus, split, profile, cfg, client, provider=None, trace_path=None):
    """cfg's (method, k) cell for profile over split (None: the full corpus),
    as a one-cell run_sweep: its CellRun, or its failure raised. cfg is a dict
    of method, k and any other SweepPlan settings. With a trace_path, a cell
    that completes writes its trace there, as the run command does."""
    settings = {key: value for key, value in cfg.items() if key not in ("method", "k")}
    plan = SweepPlan(
        (profile.name,), (cfg["method"],), (cfg["k"],),
        split_kind="full" if split is None else split.kind,
        split_param=0.8 if split is None else split.param,
        split_seed=0 if split is None else split.seed,
        **settings,
    )
    run = run_sweep(plan, corpus, {profile.name: profile}, client, provider)
    (outcome,) = run.outcomes.values()
    if isinstance(outcome, Exception):
        raise outcome
    if trace_path is not None:
        rows = chain(*outcome.per_partition)
        atomic_write(trace_path, trace_jsonl(outcome.report.metadata, rows))
    return outcome


@pytest.fixture(scope="session")
def promise_path() -> Path:
    return PROMISE_CSV


@pytest.fixture(scope="session")
def promise_binary() -> Corpus:
    return load_corpus(PROMISE_CSV, BINARY_FRNFR)


@pytest.fixture()
def tiny_scheme() -> LabelScheme:
    return LabelScheme(
        name="tiny",
        task_kind="binary",
        labels=(
            LabelDef("X", "Xray", ("ex",)),
            LabelDef("Y", "Yankee", ("why",)),
        ),
    )
