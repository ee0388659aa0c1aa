"""Tests for rate/interarrival measurement primitives.

The EWMA and the arrival-gap estimate ``d(v)`` live in :mod:`repro.obs`
(:class:`Ewma`, :class:`OperatorMetrics`); the sliding-window meter in
:mod:`repro.streams.rates`.
"""

import pytest

from repro.obs import Ewma, OperatorMetrics
from repro.streams.rates import NANOS_PER_SECOND, SlidingRateMeter


class TestEwmaEstimator:
    def test_first_observation_seeds_value(self):
        ewma = Ewma(alpha=0.5)
        ewma.observe(10.0)
        assert ewma.value == 10.0

    def test_blending(self):
        ewma = Ewma(alpha=0.5)
        ewma.observe(10.0)
        ewma.observe(20.0)
        assert ewma.value == pytest.approx(15.0)

    def test_alpha_one_tracks_last(self):
        ewma = Ewma(alpha=1.0)
        ewma.observe(10.0)
        ewma.observe(99.0)
        assert ewma.value == 99.0

    def test_constant_series_converges_to_constant(self):
        ewma = Ewma(alpha=0.2)
        for _ in range(50):
            ewma.observe(7.0)
        assert ewma.value == pytest.approx(7.0)

    def test_count_increments(self):
        ewma = Ewma()
        ewma.observe(1.0)
        ewma.observe(2.0)
        assert ewma.count == 2

    def test_reset(self):
        ewma = Ewma()
        ewma.observe(5.0)
        ewma.reset()
        assert ewma.value is None
        assert ewma.count == 0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha=alpha)


class TestInterarrivalTracker:
    """``OperatorMetrics.interarrival_ns``: the measured ``d(v)``."""

    @staticmethod
    def arrive(metrics, timestamp):
        metrics.observe(1, 1, 0, timestamp, timestamp)

    def test_no_estimate_before_two_arrivals(self):
        metrics = OperatorMetrics()
        self.arrive(metrics, 100)
        assert metrics.interarrival_ns is None
        assert metrics.rate_per_second is None

    def test_uniform_gaps(self):
        metrics = OperatorMetrics()
        for t in range(0, 10_000, 1_000):
            self.arrive(metrics, t)
        assert metrics.interarrival_ns == pytest.approx(1_000)

    def test_rate_is_reciprocal_of_gap(self):
        metrics = OperatorMetrics()
        # 1 ms gaps = 1000 elements per second.
        self.arrive(metrics, 0)
        self.arrive(metrics, 1_000_000)
        assert metrics.rate_per_second == pytest.approx(1_000.0)

    def test_out_of_order_arrival_counts_as_zero_gap(self):
        # Join/union outputs are not globally ordered; a tardy arrival
        # must not corrupt the estimate.  It yields no (negative) gap on
        # its own, and afterwards it counts as one more arrival inside
        # the first-to-last span.
        metrics = OperatorMetrics()
        self.arrive(metrics, 1_000)
        self.arrive(metrics, 999)
        assert metrics.interarrival_ns is None
        self.arrive(metrics, 2_000)
        # Span 1_000 over three arrivals: two gaps of 500 on average.
        assert metrics.interarrival_ns == 500.0

    def test_counts_arrivals(self):
        metrics = OperatorMetrics()
        for t in (0, 1, 2, 3):
            self.arrive(metrics, t)
        assert metrics.elements_in == 4


class TestSlidingRateMeter:
    def test_rate_over_window(self):
        meter = SlidingRateMeter(window_ns=NANOS_PER_SECOND)
        for t in range(0, NANOS_PER_SECOND, NANOS_PER_SECOND // 100):
            meter.observe_arrival(t)
        # 100 arrivals in the last second.
        assert meter.rate_at(NANOS_PER_SECOND - 1) == pytest.approx(100.0)

    def test_old_arrivals_are_evicted(self):
        meter = SlidingRateMeter(window_ns=NANOS_PER_SECOND)
        meter.observe_arrival(0)
        meter.observe_arrival(10 * NANOS_PER_SECOND)
        assert meter.rate_at(10 * NANOS_PER_SECOND) == pytest.approx(1.0)

    def test_total_arrivals_survive_eviction(self):
        meter = SlidingRateMeter(window_ns=100)
        for t in (0, 1_000, 2_000):
            meter.observe_arrival(t)
        assert meter.total_arrivals == 3

    def test_rejects_decreasing_timestamps(self):
        meter = SlidingRateMeter(window_ns=100)
        meter.observe_arrival(50)
        with pytest.raises(ValueError):
            meter.observe_arrival(49)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            SlidingRateMeter(window_ns=0)
