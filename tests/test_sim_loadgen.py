"""Tests for the Poisson trace generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import QueryWorkload, generate_trace

WL = QueryWorkload.for_model(100)


def test_traces_are_time_sorted():
    trace = generate_trace(WL, arrival_rate_qps=500, duration_s=5, seed=1)
    times = [q.arrival_s for q in trace]
    assert times == sorted(times)


def test_arrival_rate_matches_poisson():
    trace = generate_trace(WL, arrival_rate_qps=1000, duration_s=20, seed=2)
    rate = len(trace) / 20.0
    assert rate == pytest.approx(1000, rel=0.05)


def test_traces_reproducible_by_seed():
    a = generate_trace(WL, 200, 3, seed=42)
    b = generate_trace(WL, 200, 3, seed=42)
    assert [(q.arrival_s, q.size) for q in a] == [(q.arrival_s, q.size) for q in b]
    c = generate_trace(WL, 200, 3, seed=43)
    assert [(q.arrival_s, q.size) for q in a] != [(q.arrival_s, q.size) for q in c]


def test_query_ids_are_consecutive():
    trace = generate_trace(WL, 100, 2, seed=0, first_id=50)
    assert [q.query_id for q in trace] == list(range(50, 50 + len(trace)))


def test_interarrival_times_exponential():
    trace = generate_trace(WL, 2000, 30, seed=9)
    gaps = np.diff([q.arrival_s for q in trace])
    # Exponential: std ~= mean, CV ~= 1.
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        generate_trace(WL, 0, 5)
    with pytest.raises(ValueError):
        generate_trace(WL, 100, 0)

