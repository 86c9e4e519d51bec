"""The summary and verdict rules of tools/pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# Quartiles (exclusive method) 10.75, 12 and 13.25: an IQR of 2.5.
PARENT = [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]


def test_nine_of_ten_wins_beyond_the_iqr_is_claimable():
    change = [p - 5 for p in PARENT]
    change[3] = 15  # one lost pair
    s = pairs.summarize(PARENT, change, "lower")
    assert s["pairs"] == 10 and s["wins"] == 9
    assert s["parent"] == (10.75, 12, 13.25)
    assert s["change"][1] == 7
    assert s["claimable"]


def test_eight_wins_are_not_enough():
    change = [p - 5 for p in PARENT]
    change[3] = change[4] = 20
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["claimable"]


def test_a_shift_inside_the_iqr_is_not_claimable():
    s = pairs.summarize(PARENT, [p - 1 for p in PARENT], "lower")
    assert s["wins"] == 10 and not s["claimable"]


def test_higher_is_better_and_ties_count_for_neither():
    change = [p + 5 for p in PARENT]
    change[0] = PARENT[0]
    s = pairs.summarize(PARENT, change, "higher")
    assert s["wins"] == 9 and s["claimable"]
    assert pairs.summarize(PARENT, change, "lower")["wins"] == 0


def test_needs_matched_pairs():
    with pytest.raises(ValueError):
        pairs.summarize(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")


# The verdict's margin is bound times the parent's median of 12.


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert pairs.verdict(PARENT, [p + 4 for p in PARENT], "lower", 0.25) == "worse"
    assert pairs.verdict(PARENT, [p - 4 for p in PARENT], "higher", 0.25) == "worse"


def test_a_median_worse_inside_the_bound_is_ok():
    assert pairs.verdict(PARENT, [p + 2 for p in PARENT], "lower", 0.25) == "ok"
    assert pairs.verdict(PARENT, [p + 9 for p in PARENT], "higher", 0.25) == "ok"


def test_a_parent_iqr_wider_than_the_margin_is_unresolved():
    # margin 1.2 against an IQR of 2.5
    assert pairs.verdict(PARENT, PARENT, "lower", 0.1) == "unresolved"
    assert pairs.verdict(PARENT, [p + 5 for p in PARENT], "lower", 0.1) == "worse"


def test_a_change_that_beats_every_parent_run_resolves_a_wide_iqr():
    assert pairs.verdict(PARENT, [9.5] * 10, "lower", 0.1) == "ok"
    assert pairs.verdict(PARENT, [14.5] * 10, "higher", 0.1) == "ok"
    # a tie with the best parent run is not a win
    assert pairs.verdict(PARENT, [10] * 10, "lower", 0.1) == "unresolved"
