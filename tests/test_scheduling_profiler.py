"""Tests for offline profiling and the workload-classification table."""

from __future__ import annotations

import hashlib

import pytest

from repro.hardware import SERVER_TYPES
from repro.models import MODEL_NAMES, build_model
from repro.scheduling import (
    ClassificationTable,
    EfficiencyTuple,
    OfflineProfiler,
)


from repro.plans import ExecutionPlan, Placement

_DUMMY_PLAN = ExecutionPlan(Placement.CPU_MODEL_BASED, threads=1)


def _tuple(server, model, qps, power, plan=_DUMMY_PLAN):
    return EfficiencyTuple(
        server_name=server, model_name=model, qps=qps, power_w=power, plan=plan
    )


class TestClassificationTable:
    def _table(self):
        table = ClassificationTable()
        table.add(_tuple("T2", "A", 1000, 100))
        table.add(_tuple("T3", "A", 2000, 120))
        table.add(_tuple("T7", "A", 3000, 400))
        table.add(_tuple("T2", "B", 50, 100))
        return table

    def test_lookup(self):
        table = self._table()
        assert table.qps("T3", "A") == 2000
        assert table.power("T7", "A") == 400
        with pytest.raises(KeyError, match="offline profiler"):
            table.get("T9", "A")

    def test_ranking_by_energy_efficiency(self):
        table = self._table()
        ranked = [t.server_name for t in table.rank_servers("A")]
        # qps/W: T3 = 16.7, T2 = 10, T7 = 7.5
        assert ranked == ["T3", "T2", "T7"]

    def test_ranking_by_qps(self):
        table = self._table()
        ranked = [t.server_name for t in table.rank_servers("A", metric="qps")]
        assert ranked == ["T7", "T3", "T2"]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            self._table().rank_servers("A", metric="latency")

    def test_normalized_to_baseline(self):
        table = self._table()
        norm = table.normalized(metric="qps", baseline_server="T2")
        assert norm["A"]["T2"] == pytest.approx(1.0)
        assert norm["A"]["T3"] == pytest.approx(2.0)
        assert norm["B"]["T2"] == pytest.approx(1.0)
        assert norm["B"]["T3"] == 0.0  # missing pair -> 0

    def test_infeasible_tuples_excluded_from_ranking(self):
        table = self._table()
        table.add(_tuple("T9", "A", 0.0, 50))  # infeasible (plan None, qps 0)
        ranked = [t.server_name for t in table.rank_servers("A")]
        assert "T9" not in ranked


class TestOfflineProfiler:
    def test_profile_pair_produces_tuple(self):
        profiler = OfflineProfiler()
        tup = profiler.profile_pair(SERVER_TYPES["T2"], build_model("DLRM-RMC1"))
        assert tup.feasible
        assert tup.qps > 0 and tup.power_w > 0
        assert tup.plan is not None
        assert tup.qps_per_watt == pytest.approx(tup.qps / tup.power_w)

    def test_profile_reuses_evaluators(self):
        profiler = OfflineProfiler()
        e1 = profiler.evaluator(SERVER_TYPES["T2"])
        e2 = profiler.evaluator(SERVER_TYPES["T2"])
        assert e1 is e2

    def test_small_table_covers_all_pairs(self, small_table):
        assert set(small_table.server_names) == {"T2", "T3", "T7"}
        assert set(small_table.model_names) == {"DLRM-RMC1", "DLRM-RMC2"}
        assert len(small_table.entries) == 6

    def test_fig8a_efficiency_ranking(self, small_table):
        """Fig. 8(a): CPU+NMP > CPU+GPU > CPU for RMC1 and RMC2."""
        for model in ("DLRM-RMC1", "DLRM-RMC2"):
            ranked = [t.server_name for t in small_table.rank_servers(model)]
            assert ranked[0] == "T3"
            assert ranked[-1] == "T2"

    def test_fig8a_nmp_gain_magnitudes(self, small_table):
        """Paper: NMPx2 gives ~1.75x (RMC1) / ~2.04x (RMC2) QPS/W over CPU."""
        for model, low, high in (
            ("DLRM-RMC1", 1.3, 2.6),
            ("DLRM-RMC2", 1.4, 2.8),
        ):
            gain = (
                small_table.get("T3", model).qps_per_watt
                / small_table.get("T2", model).qps_per_watt
            )
            assert low < gain < high


#: sha256 of the full 10 x 6 classification table's per-pair reprs
#: ``(server, model, qps, power_w, plan, evaluations)``: every float,
#: plan and search cost of the offline stage, pinned bit-for-bit.
_FULL_TABLE_SHA256 = (
    "48a5f96708e52f533a63cfa67532fde4f4cab9ff029481b960f2289274afe5ed"
)


def test_full_table_is_bit_identical():
    table = OfflineProfiler().profile(
        list(SERVER_TYPES.values()), [build_model(m) for m in MODEL_NAMES]
    )
    rows = [
        repr((t.server_name, t.model_name, t.qps, t.power_w,
              t.plan.describe() if t.plan else None, t.evaluations))
        for t in table.entries.values()
    ]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == _FULL_TABLE_SHA256, "\n".join(rows)
