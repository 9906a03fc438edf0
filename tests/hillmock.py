"""Planted-accuracy mock setup for sweep tests.

Builds a balanced binary corpus and a deterministic backend whose accuracy
at each shot count follows a planted schedule exactly: for shot count k it
answers the wrong class for a fixed set of test texts ((1 - p) * m per
class, integral by construction) and the gold class otherwise. On a
balanced test split with symmetric errors, per-class precision = recall =
f1 = p, so weighted F1 equals the schedule value exactly.
"""

from __future__ import annotations

from shotsweep import BINARY_FRNFR, make_split
from shotsweep.corpus import Corpus, RequirementRecord
from shotsweep.gateway import CallableBackend

HILL_SCHEDULE = {0: 0.5, 5: 0.7, 10: 0.9, 20: 0.85, 40: 0.8}


def balanced_corpus(per_class: int = 40) -> Corpus:
    records = []
    for i in range(per_class):
        records.append(
            RequirementRecord(len(records), f"capability story number {i}", "FR", "hill")
        )
        records.append(
            RequirementRecord(len(records), f"quality constraint number {i}", "NFR", "hill")
        )
    return Corpus(tuple(records), BINARY_FRNFR)


def schedule_backend(corpus: Corpus, split, schedule: dict[int, float]) -> CallableBackend:
    test_by_class: dict[str, list[RequirementRecord]] = {"FR": [], "NFR": []}
    for record in corpus.records:
        if split.assignments[record.record_id] == 1:
            test_by_class[record.label].append(record)
    wrong_sets: dict[int, set[str]] = {}
    for k, accuracy in schedule.items():
        wrong: set[str] = set()
        for label, members in test_by_class.items():
            n_wrong = round((1.0 - accuracy) * len(members))
            assert abs(n_wrong - (1.0 - accuracy) * len(members)) < 1e-9, (
                "schedule requires integral error counts per class"
            )
            wrong.update(r.text for r in members[:n_wrong])
        wrong_sets[k] = wrong
    other = {"FR": "Non-Functional", "NFR": "Functional"}
    gold = {r.text: BINARY_FRNFR.canonical_name(r.label) for r in corpus.records}
    label_of = {r.text: r.label for r in corpus.records}

    def respond(profile, prompt):
        text = prompt.query_text
        if text in wrong_sets.get(len(prompt.example_provenance), ()):
            return other[label_of[text]]
        return gold[text]

    return CallableBackend(respond)


def hill_setup(schedule: dict[int, float] | None = None, split_seed: int = 0):
    """Returns (corpus, split, backend) for a planted F1-vs-shots curve."""
    schedule = schedule if schedule is not None else HILL_SCHEDULE
    corpus = balanced_corpus(40)
    split = make_split(corpus, "holdout", 0.5, seed=split_seed)
    backend = schedule_backend(corpus, split, schedule)
    return corpus, split, backend
