"""The summary rule of tools/pairs.py, on fixed numbers."""

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
