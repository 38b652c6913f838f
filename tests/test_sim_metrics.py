"""Tests for serving metrics types."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import LatencyStats, ServerPerformance, percentile


class TestPercentile:
    def test_basic(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 99) == pytest.approx(99.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyStats:
    def test_from_samples(self):
        samples_s = np.array([0.001, 0.002, 0.003, 0.010])
        stats = LatencyStats.from_samples_s(samples_s)
        assert stats.p50_ms == pytest.approx(2.5)
        assert stats.p99_ms <= 10.0 + 1e-9
        assert stats.mean_ms == pytest.approx(4.0)

    @given(st.lists(st.floats(1e-6, 10.0), min_size=2, max_size=50))
    def test_percentile_ordering_invariant(self, samples):
        stats = LatencyStats.from_samples_s(samples)
        assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms

    def test_sla_check(self):
        stats = LatencyStats(p50_ms=5, p95_ms=10, p99_ms=20, mean_ms=6)
        assert stats.meets(20.0)
        assert not stats.meets(19.9)


class TestServerPerformance:
    def _perf(self, qps=100.0, power=200.0):
        stats = LatencyStats(p50_ms=5, p95_ms=10, p99_ms=15, mean_ms=6)
        return ServerPerformance(qps=qps, latency=stats, power_w=power)

    def test_efficiency_metrics(self):
        perf = self._perf(qps=100, power=200)
        assert perf.qps_per_watt == pytest.approx(0.5)

    def test_infeasible_sentinel(self):
        bad = ServerPerformance.infeasible("over budget", power_w=50.0)
        assert not bad.feasible
        assert bad.qps == 0.0
        assert bad.qps_per_watt == 0.0
        assert math.isinf(bad.latency.p99_ms)
        assert "over budget" in bad.infeasible_reason
