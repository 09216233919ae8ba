import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

# Quartiles of PARENT by statistics.quantiles(n=4): 27.5, 55, 82.5.
PARENT = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


def test_summary_of_a_clear_gain():
    s = ab_pairs.summarise(PARENT, [p + 60 for p in PARENT], "higher")
    assert s["parent"] == {"median": 55, "q1": 27.5, "q3": 82.5}
    assert s["change"] == {"median": 115, "q1": 87.5, "q3": 142.5}
    assert (s["pairs"], s["wins"], s["gap"], s["parent_iqr"]) == (10, 10, 60, 55)
    assert s["claim"]


def test_every_pair_won_but_the_gap_is_inside_the_parent_spread():
    s = ab_pairs.summarise(PARENT, [p + 50 for p in PARENT], "higher")
    assert (s["wins"], s["gap"]) == (10, 50)
    assert not s["claim"]


def test_lower_is_better_and_ties_count_for_neither_side():
    change = [p - 100 for p in PARENT]
    change[0] = PARENT[0]           # a tie
    s = ab_pairs.summarise(PARENT, change, "lower")
    assert (s["wins"], s["gap"]) == (9, 90)
    assert s["claim"]               # 9 of 10 is enough
    change[1] = PARENT[1] + 1       # a loss
    s = ab_pairs.summarise(PARENT, change, "lower")
    assert s["wins"] == 8
    assert not s["claim"]


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        ab_pairs.summarise(PARENT, PARENT[:-1], "higher")
    with pytest.raises(ValueError):
        ab_pairs.summarise([], [], "higher")
