"""The rule for medians, percentiles and sample counts."""

import pytest

import stats


def test_median_and_count():
    middle, count, tail_q, tail = stats.summary([3.0, 1.0, 2.0])
    assert (middle, count) == (2.0, 3)
    assert tail_q is None and tail is None


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond_it():
    # p75 of 39 samples leaves 9 beyond it; of 40, exactly 10.
    assert stats.beyond(39, 75.0) == 9
    assert stats.supported_tail(39) is None
    assert stats.supported_tail(40) == 75.0
    assert stats.supported_tail(100) == 90.0
    assert stats.supported_tail(999) == 95.0
    assert stats.supported_tail(1000) == 99.0
    assert stats.supported_tail(10000) == 99.9


def test_summary_reports_the_supported_tail():
    values = [float(v) for v in range(1, 201)]
    middle, count, tail_q, tail = stats.summary(values)
    assert count == 200 and middle == 100.5
    assert tail_q == 95.0 and tail == 190.0
    assert stats.beyond(count, tail_q) >= stats.MIN_BEYOND


def test_relative_iqr():
    assert stats.relative_iqr([5.0]) == 0.0
    assert stats.relative_iqr([10.0] * 6) == 0.0
    spread = stats.relative_iqr([9.0, 10.0, 10.0, 11.0])
    assert spread == pytest.approx(0.15)
