"""scripts/bench_pairs.py's verdict rules, on hand-made runs."""

from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_are_inclusive_and_a_single_run_is_its_own(bench_pairs):
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0)


def test_gain_needs_nine_in_ten_wins_and_a_median_beyond_the_parent_iqr(bench_pairs):
    parent = [100.0 + i for i in range(10)]  # IQR 4.5
    assert bench_pairs.verdict(parent, [p + 5 for p in parent], "higher", 0.25) == ("gain", 10)
    assert bench_pairs.verdict(parent, [p - 5 for p in parent], "lower", 0.25) == ("gain", 10)
    # every pair won, but by less than the parent's IQR
    assert bench_pairs.verdict(parent, [p + 1 for p in parent], "higher", 0.25) == (
        "no regression", 10,
    )
    # far ahead in the median, but only 8 of 10 pairs won
    change = [p + 20 for p in parent[:8]] + [parent[8] - 1, parent[9] - 1]
    assert bench_pairs.verdict(parent, change, "higher", 0.25) == ("no regression", 8)


def test_regression_is_a_median_worse_than_the_bound(bench_pairs):
    parent = [100.0] * 10
    assert bench_pairs.verdict(parent, [70.0] * 10, "higher", 0.25) == ("regression", 0)
    assert bench_pairs.verdict(parent, [130.0] * 10, "lower", 0.25) == ("regression", 0)
    assert bench_pairs.verdict(parent, [80.0] * 10, "higher", 0.25) == ("no regression", 0)


def test_an_iqr_wider_than_the_bound_is_unresolved(bench_pairs):
    spread = [50.0, 150.0] * 5  # median 100, IQR 100
    assert bench_pairs.verdict(spread, spread[::-1], "higher", 0.25) == ("unresolved", 5)
    # the change's own spread counts too
    assert bench_pairs.verdict([100.0] * 10, spread, "higher", 0.25) == ("unresolved", 5)


def test_every_run_better_is_not_unresolved(bench_pairs):
    parent = [80.0, 81.0, 82.0, 95.0, 96.0, 97.0, 98.0, 99.0, 99.5, 100.0]  # IQR 13.5
    assert bench_pairs.verdict(parent, [101.0] * 10, "higher", 0.05) == ("no regression", 10)
    # one change run no better than the parent's best: the spread decides
    assert bench_pairs.verdict(parent, [101.0] * 9 + [100.0], "higher", 0.05) == (
        "unresolved", 9,
    )


def test_ties_count_for_neither_side(bench_pairs):
    parent = [10.0] * 10
    assert bench_pairs.verdict(parent, parent, "higher", 0.25) == ("no regression", 0)
    assert bench_pairs.verdict(parent, parent, "lower", 0.25) == ("no regression", 0)
    # nine ties and one win is 1 pair won, not a gain
    assert bench_pairs.verdict(parent, [10.0] * 9 + [11.0], "higher", 0.25) == (
        "no regression", 1,
    )
