"""Percentiles, the ten-beyond tail rule and the max-rate estimate."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from perfbench import stats
from perfbench.serve import LADDER, max_rate


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


@pytest.mark.parametrize("n, pct", [
    (11, 0.0), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (400, 97.5), (1000, 99.0), (2000, 99.5), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = list(range(n))
    value, got_pct, beyond = stats.tail(values)
    if pct == 0.0:
        assert (got_pct, beyond) == (100.0, 0)
        assert value == n - 1
        return
    assert got_pct == pct
    assert beyond >= stats.MIN_BEYOND
    def rank(p):
        return math.ceil(Fraction(str(p)) * n / 100)

    assert value == rank(pct) - 1
    assert beyond == n - rank(pct)
    # No higher candidate still has ten samples beyond it.
    higher = [p for p in stats.TAIL_PERCENTILES if p > pct]
    assert all(n - rank(p) < stats.MIN_BEYOND for p in higher)


def test_summarize_reports_provenance():
    s = stats.summarize([float(i) for i in range(1, 101)])
    assert s["n"] == 100
    assert s["p50"] == 50.5
    assert (s["tail"], s["tail_pct"], s["tail_beyond"]) == (90.0, 90.0, 10)


def test_max_rate_takes_capacity_between_passing_and_failing_rungs():
    rungs = [(100.0, 5.0, True, 100.0), (200.0, 8.0, True, 199.0),
             (300.0, 400.0, False, 260.0), (400.0, 900.0, False, 255.0)]
    assert max_rate(rungs) == 260.0
    # Served rate clamps to the rungs around the crossing.
    rungs[2] = (300.0, 400.0, False, 150.0)
    assert max_rate(rungs) == 200.0
    # Every rung passing reports the top rung; none passing, the first
    # rung's served rate.
    assert max_rate([(100.0, 5.0, True, 100.0)]) == 100.0
    assert max_rate([(100.0, 90.0, False, 80.0)]) == 80.0


def test_ladder_is_geometric_to_well_past_one_server():
    assert LADDER[0] == 200.0 and LADDER[-1] == 3200.0
    ratios = {round(b / a, 2) for a, b in zip(LADDER, LADDER[1:])}
    assert ratios == {1.09}
