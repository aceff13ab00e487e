"""Unit tests for the stable-time workload estimator."""

import pytest

from repro.mempool.stratus.estimator import StableTimeEstimator


def make_estimator(**kwargs):
    defaults = dict(window=10, percentile=95.0, busy_margin=2.0,
                    busy_slack=0.01)
    defaults.update(kwargs)
    return StableTimeEstimator(**defaults)


def test_no_samples_not_busy_and_status_zero():
    estimator = make_estimator()
    assert not estimator.is_busy()
    assert estimator.load_status() == 0.0
    assert estimator.estimate() is None


def test_baseline_is_the_smallest_sample_seen():
    estimator = make_estimator()
    for value in (0.5, 0.2, 0.8, 0.3):
        estimator.record(value)
    assert estimator.baseline == 0.2


def test_one_fast_sample_anchors_the_baseline_for_good():
    """The baseline is the smallest ST observed, as in the paper: it does
    not creep back up, so a replica whose STs stay high keeps reading
    itself as busy (ROADMAP d0-iv: a 1 % drift per sample taught the hot
    replica of Fig. 10 that its congestion was normal)."""
    estimator = make_estimator(window=10)
    estimator.record(0.001)
    for _ in range(500):
        estimator.record(0.1)
    assert estimator.baseline == 0.001
    assert estimator.is_busy()


def test_constant_load_is_not_busy():
    estimator = make_estimator()
    for _ in range(20):
        estimator.record(0.1)
    assert not estimator.is_busy()
    assert estimator.load_status() == pytest.approx(0.1)


def test_spike_makes_busy():
    estimator = make_estimator()
    for _ in range(10):
        estimator.record(0.1)
    for _ in range(10):
        estimator.record(1.0)  # fills the window with congested STs
    assert estimator.is_busy()
    assert estimator.load_status() is None


def test_recovery_after_spike():
    estimator = make_estimator()
    for _ in range(10):
        estimator.record(0.1)
    for _ in range(10):
        estimator.record(1.0)
    assert estimator.is_busy()
    for _ in range(10):
        estimator.record(0.1)  # window slides past the spike
    assert not estimator.is_busy()


def test_percentile_ignores_minority_outliers():
    estimator = make_estimator(percentile=50.0)
    for _ in range(9):
        estimator.record(0.1)
    estimator.record(5.0)  # single outlier above the median
    assert not estimator.is_busy()


def test_too_few_samples_never_busy():
    estimator = make_estimator()
    for _ in range(4):
        estimator.record(10.0)
    assert not estimator.is_busy()


def test_window_slides():
    estimator = make_estimator(window=5)
    for value in (1.0, 1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 0.1):
        estimator.record(value)
    assert estimator.estimate() == pytest.approx(0.1)


def test_estimate_is_nth_percentile():
    estimator = make_estimator(window=100, percentile=90.0)
    for value in range(1, 11):
        estimator.record(float(value))
    assert estimator.estimate() == pytest.approx(9.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        StableTimeEstimator(window=0)
    with pytest.raises(ValueError):
        StableTimeEstimator(percentile=0)
    with pytest.raises(ValueError):
        StableTimeEstimator(busy_margin=0.5)
    estimator = make_estimator()
    with pytest.raises(ValueError):
        estimator.record(-1.0)


def test_sample_count():
    estimator = make_estimator(window=3)
    for _ in range(10):
        estimator.record(0.1)
    assert estimator.sample_count == 10


def test_estimate_computed_once_per_record_cycle():
    """is_busy() + load_status() must share one percentile computation.

    Each DLB probe used to sort the window twice (once per call); the
    cached estimate makes the pair cost a single recompute.
    """
    estimator = make_estimator()
    for _ in range(10):
        estimator.record(0.1)
    before = estimator.estimate_recomputes
    estimator.is_busy()
    estimator.load_status()
    estimator.estimate()
    estimator.is_busy()
    assert estimator.estimate_recomputes == before + 1


def test_cache_invalidated_by_record():
    estimator = make_estimator(window=5, percentile=100.0)
    estimator.record(0.1)
    assert estimator.estimate() == pytest.approx(0.1)
    count = estimator.estimate_recomputes
    estimator.record(0.9)
    assert estimator.estimate() == pytest.approx(0.9)
    assert estimator.estimate_recomputes == count + 1


def test_incremental_window_matches_full_sort():
    """The insort-maintained window must agree with a per-call sort."""
    import math as _math
    import random

    rng = random.Random(7)
    estimator = make_estimator(window=16, percentile=95.0)
    history = []
    for _ in range(200):
        value = rng.uniform(0.0, 1.0)
        estimator.record(value)
        history.append(value)
        window = history[-16:]
        ordered = sorted(window)
        rank = max(0, _math.ceil(len(ordered) * 0.95) - 1)
        assert estimator.estimate() == pytest.approx(ordered[rank])


def test_duplicate_values_evict_correctly():
    estimator = make_estimator(window=3, percentile=100.0)
    for value in (0.5, 0.5, 0.5, 0.2, 0.2, 0.2):
        estimator.record(value)
    assert estimator.estimate() == pytest.approx(0.2)
