import math

import pytest

from stats import (
    MIN_BEYOND,
    block_ratios,
    percentile,
    ratio_of_sums,
)


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.9) == 90.0  # 10 samples beyond
    with pytest.raises(ValueError, match="need 10"):
        percentile(values[:99], 0.9)  # only 9 beyond p90
    assert percentile(values[:20], 0.5) == 10.0  # 10 beyond the median
    with pytest.raises(ValueError):
        percentile(values[:19], 0.5)


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4 + [9.0] * MIN_BEYOND
    assert percentile(values, 0.5) == percentile(sorted(values), 0.5)
    assert percentile(values, 0.5) == 4.0  # 15th of 30


def test_missing_samples_count_against_the_tail():
    values = [0.1] * 89 + [math.inf] * 11
    assert percentile(values, 0.9) == math.inf
    assert percentile(values, 0.5) == 0.1


def test_block_ratios_divide_by_neighbouring_references():
    assert block_ratios([2.0, 3.0], [1.0, 3.0, 1.0]) == [1.0, 1.5]
    with pytest.raises(ValueError):
        block_ratios([2.0, 3.0], [1.0, 3.0])


def test_block_ratios_make_a_two_job_mix_unimodal():
    # Alternating cheap and dear jobs: per job the ratios are bimodal,
    # so their median flips with the job order; per block they agree.
    jobs = [1.0, 3.0, 3.0, 1.0, 1.0, 3.0]
    refs = [1.0] * 7
    assert sorted(block_ratios(jobs, refs)) == [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
    assert block_ratios(jobs, refs, block=2) == [2.0, 2.0, 2.0]
    assert block_ratios(jobs[:5], refs[:6], block=2) == [2.0, 2.0]


def test_ratio_of_sums_cancels_a_uniform_slowdown():
    jobs, refs = [1.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0.5]
    slow = 1.8
    assert ratio_of_sums(jobs, refs) == pytest.approx(4.0)
    assert ratio_of_sums(
        [j * slow for j in jobs], [r * slow for r in refs]
    ) == pytest.approx(4.0)


def test_ratio_of_sums_weights_long_jobs_more_than_the_median_does():
    # One job straddles a 2x speed change: its own ratio is off, but
    # it moves the ratio of sums by its share of the total only.
    jobs = [1.0, 1.0, 1.0, 2.0]
    refs = [0.25] * 5
    assert ratio_of_sums(jobs, refs) == pytest.approx(5.0)

