"""Order statistics and the percentile-support guard."""

import pytest

from ledger import stats


def test_pass_metrics_are_nearest_rank_over_slot_intervals():
    from ledger.child import pass_metrics

    durations = [0.001 * (index + 1) for index in range(100)]
    intervals = [(index, index + 1) for index in range(100)]
    metrics = pass_metrics(durations, intervals)
    assert metrics["wall_s"] == pytest.approx(5.05)
    assert metrics["query_p50_ms"] == pytest.approx(50.0)
    assert metrics["query_p95_ms"] == pytest.approx(95.0)


def test_guard_needs_ten_samples_beyond_the_percentile():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.supported(200, 95)
    assert not stats.supported(199, 95)
    # Six queries a pass (match_heavy) support no p95, barely a p50.
    assert not stats.supported(6, 95)
    assert not stats.supported(6, 50)
    assert stats.supported(210, 50) and stats.supported(210, 95)
    # p99 would need a thousand samples: why the ledger reports p95.
    assert not stats.supported(280, 99)
    assert stats.supported(1000, 99)


def test_floor_takes_each_slot_at_its_quietest():
    passes = [[1.0, 5.0, 2.0], [2.0, 4.0, 1.5], [1.5, 6.0, 3.0]]
    assert stats.floor_durations(passes) == [1.0, 4.0, 1.5]
    with pytest.raises(ValueError):
        stats.floor_durations([[1.0], [1.0, 2.0]])


def test_interval_sums_cover_half_open_slot_ranges():
    durations = [1.0, 2.0, 4.0, 8.0]
    assert stats.interval_sums(durations, [(0, 1), (1, 3), (0, 4)]) == [
        1.0, 6.0, 15.0,
    ]


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([10.0]) is None
    assert stats.spread([10.0] * 8) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert 0.0 <= stats.spread(values) < 0.05
