"""The statistics behind the reported numbers."""

import pytest

from measure import coverage, mean, median, ratio, self_time_by_name, self_times, tail


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_mean():
    assert mean([4.0, 1.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        mean([])


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    percentile, value = tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert (percentile, value) == (90.0, 90.0)


def test_tail_of_few_samples_is_a_low_percentile():
    values = [float(v) for v in range(1, 12)]
    percentile, value = tail(values)
    assert value == 1.0
    assert percentile == pytest.approx(100 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_self_time_subtracts_the_children():
    spans = [
        ("root", 0.0, 10.0, None, 1),
        ("child", 1.0, 4.0, 0, 1),
        ("child", 5.0, 6.0, 0, 1),
        ("grandchild", 2.0, 3.0, 1, 1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert self_time_by_name(spans) == {"root": 6.0, "child": 3.0, "grandchild": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, None, 1), ("a", 1.0, 5.0, 0, 1), ("b", 3.0, 7.0, 0, 1)]
    assert self_times(spans)[0] == 4.0


def test_coverage_is_the_share_of_root_time_under_children():
    spans = [
        ("api.query", 0.0, 10.0, None, 1),
        ("work", 0.0, 9.0, 0, 1),
        ("api.query", 10.0, 20.0, None, 2),
        ("work", 10.0, 15.0, 2, 2),
    ]
    assert coverage(spans, "api.query") == pytest.approx(14.0 / 20.0)
    assert coverage([], "api.query") == 0.0


def test_ratio_of_nothing_is_zero():
    assert ratio(3, 0) == 0.0
    assert ratio(1, 4) == 0.25
