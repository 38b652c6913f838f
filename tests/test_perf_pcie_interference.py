"""Tests for the PCIe link and co-location interference models."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.perf import InterferenceModel, PcieLink


class TestPcieLink:
    def test_transfer_time_composition(self):
        link = PcieLink(bandwidth_bytes=16e9, latency_s=10e-6)
        assert link.transfer_s(16e9) == pytest.approx(1.0 + 10e-6)
        assert link.transfer_s(0) == 0.0

    def test_sharing_scales_linearly(self):
        link = PcieLink()
        alone = link.transfer_s(1e9, sharers=1)
        shared = link.transfer_s(1e9, sharers=4)
        assert shared > alone
        assert (shared - link.latency_s) == pytest.approx(
            4 * (alone - link.latency_s)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PcieLink(bandwidth_bytes=0)
        link = PcieLink()
        with pytest.raises(ValueError):
            link.transfer_s(-1)
        with pytest.raises(ValueError):
            link.transfer_s(1, sharers=0)


class TestInterferenceModel:
    def test_no_contention_below_peak(self):
        model = InterferenceModel()
        assert model.bandwidth_fraction(10e9, 34e9) == 1.0

    def test_fair_throttle_above_peak(self):
        model = InterferenceModel()
        assert model.bandwidth_fraction(68e9, 34e9) == pytest.approx(0.5)

    @given(threads=st.integers(1, 64))
    def test_llc_inflation_monotone_and_capped(self, threads):
        model = InterferenceModel(llc_penalty_per_thread=0.02, max_llc_penalty=0.5)
        inflation = model.llc_inflation(threads)
        assert 1.0 <= inflation <= 1.5
        if threads > 1:
            assert inflation >= model.llc_inflation(threads - 1)

    def test_single_thread_no_inflation(self):
        assert InterferenceModel().llc_inflation(1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceModel(llc_penalty_per_thread=-0.1)
        model = InterferenceModel()
        with pytest.raises(ValueError):
            model.bandwidth_fraction(-1, 10)
        with pytest.raises(ValueError):
            model.llc_inflation(0)
