"""Observability layer: sketches, probes, traces, and the inspector.

Three pillars:

- the P² streaming quantile sketch tracks ``numpy.percentile`` within
  a rank band on adversarial distributions (hypothesis lane) and is
  *exact* on the startup-buffer path;
- trace conservation: every arrival in the tracked log becomes exactly
  one span with a terminal outcome, child attempts nest inside the
  query's lifetime, and the warmup-measured span counts equal the
  :class:`FleetResult` totals;
- the exported artifacts round-trip: Chrome trace JSON validates
  against the schema checks Perfetto relies on (balanced async pairs,
  non-negative durations, metadata processes), and the CSV/JSONL
  metrics series agree row for row.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.state import Allocation
from repro.fleet import FaultSchedule, FleetSimulator, build_fleet, build_fleet_trace
from repro.obs import (
    METRIC_FIELDS,
    FleetProbe,
    P2Quantile,
    QuantileSketch,
    chrome_trace,
    diff_summaries,
    read_trace_jsonl,
    sniff_format,
    summarize_file,
    write_trace_jsonl,
)
from repro.sim import QueryWorkload


# ----------------------------------------------------------------------
# P² quantile sketch
# ----------------------------------------------------------------------


class TestP2Quantile:
    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value())

    def test_startup_buffer_matches_numpy_exactly(self):
        """Below five samples (marker initialization) the sketch
        interpolates the sorted buffer with numpy's linear rule --
        equality, not tolerance."""
        data = [7.0, 1.0, 4.0, 9.0, 2.0]
        for n in range(1, 5):
            for q in (0.5, 0.9, 0.99):
                sk = P2Quantile(q)
                for x in data[:n]:
                    sk.add(x)
                assert sk.value() == float(np.percentile(data[:n], q * 100))

    def test_constant_stream(self):
        sk = P2Quantile(0.99)
        for _ in range(1000):
            sk.add(3.25)
        assert sk.value() == 3.25

    def test_uniform_converges(self):
        rng = np.random.default_rng(7)
        sk = P2Quantile(0.5)
        for x in rng.uniform(0.0, 1.0, 20_000):
            sk.add(float(x))
        assert abs(sk.value() - 0.5) < 0.02

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.floats(100.0, 101.0),  # bimodal gap
                st.floats(0.0, 1e6),  # heavy spread
                st.just(5.0),  # duplicates / point mass
            ),
            min_size=50,
            max_size=600,
        ),
        order_seed=st.integers(0, 2**32 - 1),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_converges_to_numpy_on_adversarial_mixtures(
        self, data, order_seed, q
    ):
        """Fed in random order (the latency-stream regime), the P²
        estimate either lands within a 15-rank-point band of the true
        percentile or within a tenth of the data range of it -- the
        range clause covers atom-heavy data where any value error is a
        large rank error.  The combined bound was calibrated with zero
        failures over 48k adversarial mixtures."""
        stream = np.random.default_rng(order_seed).permutation(data)
        sk = P2Quantile(q)
        for x in stream:
            sk.add(float(x))
        v = sk.value()
        lo = float(np.percentile(data, max(0.0, q - 0.15) * 100))
        hi = float(np.percentile(data, min(1.0, q + 0.15) * 100))
        slack = 1e-9 + 1e-9 * max(abs(lo), abs(hi))
        in_band = lo - slack <= v <= hi + slack
        true = float(np.percentile(data, q * 100))
        near = abs(v - true) <= 0.10 * (max(data) - min(data)) + 1e-9
        assert in_band or near

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(6, 2000), reverse=st.booleans())
    def test_sorted_and_reversed_streams(self, n, reverse):
        """Monotone arrival order is the P² worst case for marker
        drift; the median of 0..n-1 must stay within a generous
        rank band even then."""
        data = np.arange(n, dtype=float)
        stream = data[::-1] if reverse else data
        sk = P2Quantile(0.5)
        for x in stream:
            sk.add(float(x))
        lo = float(np.percentile(data, 30))
        hi = float(np.percentile(data, 70))
        assert lo <= sk.value() <= hi

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestQuantileSketch:
    def test_summary_stats(self):
        sk = QuantileSketch()
        for x in (4.0, 1.0, 3.0):
            sk.add(x)
        assert sk.count == 3
        assert sk.min == 1.0
        assert sk.max == 4.0
        assert sk.mean == pytest.approx(8.0 / 3.0)
        assert sk.quantile(0.5) == float(np.percentile([4.0, 1.0, 3.0], 50))

    def test_unknown_quantile_raises(self):
        with pytest.raises(KeyError):
            QuantileSketch().quantile(0.42)


class TestAddManyBitIdentity:
    """Batched insertion is the scalar path, float for float.

    ``add_many`` is the metrics-hook hot path (windows flush buffered
    observations in one call); it must leave *exactly* the state a
    one-at-a-time ``add`` loop would -- marker heights, positions,
    desired positions, startup buffer, running sum -- or the batched
    probe would drift from the documented estimator.
    """

    @staticmethod
    def _p2_state(sk):
        return (sk._count, sk._buf, sk._q, sk._n, sk._desired)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=120
        ),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        q=st.sampled_from([0.5, 0.95, 0.99]),
    )
    def test_p2_chunked_equals_scalar(self, data, cuts, q):
        scalar = P2Quantile(q)
        for x in data:
            scalar.add(x)
        batched = P2Quantile(q)
        bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == 1:
                batched.add(data[lo])  # interleave scalar adds too
            else:
                batched.add_many(data[lo:hi])
        assert self._p2_state(batched) == self._p2_state(scalar)
        assert (batched.value() == scalar.value()) or (
            math.isnan(batched.value()) and math.isnan(scalar.value())
        )

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.floats(0.0, 1e4, allow_nan=False), min_size=0, max_size=80
        ),
        cut=st.integers(0, 80),
    )
    def test_sketch_chunked_equals_scalar(self, data, cut):
        scalar = QuantileSketch()
        for x in data:
            scalar.add(x)
        batched = QuantileSketch()
        cut = cut % (len(data) + 1)
        batched.add_many(data[:cut])
        batched.add_many(data[cut:])
        assert batched.count == scalar.count
        assert batched._sum == scalar._sum
        for p in scalar.quantiles:
            a, b = batched.quantile(p), scalar.quantile(p)
            assert a == b or (math.isnan(a) and math.isnan(b))
        assert (batched.min == scalar.min) or (
            math.isnan(batched.min) and math.isnan(scalar.min)
        )
        assert (batched.max == scalar.max) or (
            math.isnan(batched.max) and math.isnan(scalar.max)
        )


# ----------------------------------------------------------------------
# probe construction and fleet fixtures
# ----------------------------------------------------------------------


class TestProbeValidation:
    def test_rejects_nothing_enabled(self):
        with pytest.raises(ValueError):
            FleetProbe(metrics=False, trace=False)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FleetProbe(window_s=0.0)

    def test_rejects_bad_quantiles(self):
        with pytest.raises(ValueError):
            FleetProbe(quantiles=(0.5, 1.5))


@pytest.fixture()
def small_fleet(small_table):
    from repro.models import build_model

    models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
    workloads = {
        "DLRM-RMC1": QueryWorkload.for_model(
            models["DLRM-RMC1"].config.mean_query_size
        )
    }
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 3)
    allocation.add("T7", "DLRM-RMC1", 1)
    capacity = 3 * small_table.qps("T2", "DLRM-RMC1") + small_table.qps(
        "T7", "DLRM-RMC1"
    )
    trace = build_fleet_trace(
        workloads, {"DLRM-RMC1": [(0.65 * capacity, 2.0)]}, seed=13
    )

    def run(probe=None, **kwargs):
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(
            servers,
            policy="p2c",
            sla_ms={"DLRM-RMC1": 20.0},
            seed=7,
            observer=probe,
            **kwargs,
        )
        return sim, sim.run(trace, warmup_s=0.2)

    return run


# ----------------------------------------------------------------------
# streaming metrics
# ----------------------------------------------------------------------


class TestMetricsSeries:
    def test_rows_conserve_counts(self, small_fleet):
        probe = FleetProbe(window_s=0.25)
        _, result = small_fleet(probe)
        rows = probe.metrics_rows
        assert rows, "windows were sampled"
        assert all(set(METRIC_FIELDS) == set(r) for r in rows)
        # A drained fault-free run resolves every arrival: the windowed
        # series must account for each exactly once.
        arrivals = sum(r["arrivals"] for r in rows)
        completed = sum(r["completed"] for r in rows)
        dropped = sum(r["dropped"] for r in rows)
        assert arrivals == completed + dropped
        assert sum(r["failed"] for r in rows) == 0
        # The run-wide measured count is a subset (warmup excluded).
        assert completed >= result.total_completed
        # Windows are monotone on the clock and flagged per model.
        times = [r["t"] for r in rows]
        assert times == sorted(times)
        assert {r["model"] for r in rows} == {"DLRM-RMC1"}

    def test_registry_totals(self, small_fleet):
        probe = FleetProbe(window_s=0.25)
        small_fleet(probe)
        snap = probe.registry.snapshot()
        rows = probe.metrics_rows
        assert snap["counters"]["queries.arrivals"] == sum(
            r["arrivals"] for r in rows
        )
        assert snap["counters"]["windows.sampled"] == len(rows)
        assert snap["gauges"]["run.availability"] == 1.0

    def test_quantile_columns_track_percentiles(self, small_fleet):
        """Each window's p50/p99 lie inside that window's latency range
        and order correctly."""
        probe = FleetProbe(window_s=0.5)
        small_fleet(probe)
        for row in probe.metrics_rows:
            if row["completed"] < 2:
                continue
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["p50_ms"] > 0.0

    def test_csv_jsonl_roundtrip_agree(self, small_fleet, tmp_path):
        probe = FleetProbe(window_s=0.25)
        small_fleet(probe)
        csv_path = tmp_path / "m.csv"
        jsonl_path = tmp_path / "m.jsonl"
        probe.export_metrics(str(csv_path))
        probe.export_metrics(str(jsonl_path))
        assert sniff_format(str(csv_path)) == "metrics-csv"
        assert sniff_format(str(jsonl_path)) == "metrics-jsonl"
        a = summarize_file(str(csv_path))
        b = summarize_file(str(jsonl_path))
        delta = diff_summaries(a, b)
        for model_delta in delta["deltas"].values():
            assert all(d["delta"] == 0 for d in model_delta.values())
        # CSV floats are written with repr: parse one back exactly.
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        first = dict(zip(header, rows[1].split(",")))
        assert float(first["t"]) == probe.metrics_rows[0]["t"]
        assert float(first["qps"]) == probe.metrics_rows[0]["qps"]

    def test_export_requires_metrics(self, small_fleet, tmp_path):
        probe = FleetProbe(metrics=False, trace=True)
        small_fleet(probe)
        with pytest.raises(ValueError):
            probe.export_metrics(str(tmp_path / "m.csv"))

    def test_unknown_extension_rejected(self, small_fleet, tmp_path):
        probe = FleetProbe()
        small_fleet(probe)
        with pytest.raises(ValueError):
            probe.export_metrics(str(tmp_path / "m.parquet"))


# ----------------------------------------------------------------------
# tracing: conservation, nesting, schema
# ----------------------------------------------------------------------


def _span_invariants(spans, sim, result, warmup_s):
    """The conservation properties every traced run must satisfy."""
    log = sim.last_query_log
    assert len(spans) == len(log)
    qids = [s["qid"] for s in spans]
    assert len(set(qids)) == len(qids), "one span per query"
    measured = {"completed": 0, "failed": 0, "dropped": 0}
    for span in spans:
        assert span["outcome"] in ("completed", "failed", "dropped")
        if span["outcome"] == "dropped":
            assert not span["attempts"]
        else:
            assert span["attempts"], "resolved spans carry attempts"
        for i, at in enumerate(span["attempts"]):
            assert at["start_s"] >= span["arrival_s"] - 1e-12
            if at["end_s"] is not None:
                assert at["end_s"] >= at["start_s"] - 1e-12
            assert at["kind"] == "initial" if i == 0 else at["kind"] in (
                "retry",
                "hedge",
            )
        if span["outcome"] == "completed":
            # The winning attempt closes the span; a losing hedge may
            # drain on its replica past the winner's finish.
            ends = [at["end_s"] for at in span["attempts"] if at["end_s"] is not None]
            assert any(abs(e - span["finish_s"]) <= 1e-12 for e in ends)
        if span["measured"]:
            measured[span["outcome"]] += 1
    assert measured["completed"] == result.total_completed
    assert measured["failed"] == result.total_failed
    assert measured["dropped"] == result.total_dropped
    # Retry/hedge attribution uses only the warmup cut (the engine's
    # counters have no horizon clause), unlike the measured flag.
    late = [s for s in spans if s["arrival_s"] >= warmup_s]
    assert sum(s["retries"] for s in late) == result.total_retried
    assert sum(1 for s in late if s["hedged"]) == result.total_hedged


class TestTraceConservation:
    def test_fault_free(self, small_fleet):
        probe = FleetProbe(trace=True)
        sim, result = small_fleet(probe)
        _span_invariants(probe.spans, sim, result, 0.2)

    def test_with_faults_retries_and_hedging(self, small_fleet):
        probe = FleetProbe(trace=True)
        sim, result = small_fleet(
            probe,
            faults=FaultSchedule.parse("crash@0.6:0+0.4;slow@0.9:2*3+0.3"),
            retries=2,
            hedge_ms=8.0,
        )
        spans = probe.spans
        _span_invariants(spans, sim, result, 0.2)
        kinds = {at["kind"] for s in spans for at in s["attempts"]}
        assert "hedge" in kinds
        notes = {a for s in spans for at in s["attempts"] for a in at["annotations"]}
        assert any(n.startswith("straggler_x") for n in notes)
        if result.total_retried:
            assert "retry" in kinds
            assert "killed_by_crash" in notes

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_conservation_over_seeds(self, small_table, seed):
        """Hypothesis lane: arbitrary seeds under a crashy schedule
        never leak or duplicate a query span."""
        from repro.models import build_model

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 2)
        capacity = 2 * small_table.qps("T2", "DLRM-RMC1")
        trace = build_fleet_trace(
            workloads, {"DLRM-RMC1": [(0.7 * capacity, 1.0)]}, seed=seed
        )
        probe = FleetProbe(trace=True)
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(
            servers,
            policy="p2c",
            sla_ms={"DLRM-RMC1": 20.0},
            seed=seed,
            observer=probe,
            faults=FaultSchedule.parse("crash@0.3:0+0.2"),
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.1)
        _span_invariants(probe.spans, sim, result, 0.1)


class TestChromeTrace:
    def test_schema_and_balance(self, small_fleet, tmp_path):
        probe = FleetProbe(trace=True)
        small_fleet(probe, faults=FaultSchedule.parse("crash@0.6:0+0.4"), retries=1)
        path = tmp_path / "trace.json"
        probe.export_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert {"warmup_s", "horizon_s"} <= set(doc["otherData"])
        phases = {}
        begins, ends = {}, {}
        for ev in events:
            assert ev["ph"] in ("b", "e", "X", "i", "M")
            phases[ev["ph"]] = phases.get(ev["ph"], 0) + 1
            if ev["ph"] != "M":
                assert ev["ts"] >= 0.0
                assert ev["pid"] in (0, 1, 2)
            if ev["ph"] == "b":
                begins[ev["id"]] = begins.get(ev["id"], 0) + 1
            elif ev["ph"] == "e":
                ends[ev["id"]] = ends.get(ev["id"], 0) + 1
            elif ev["ph"] == "X":
                assert ev["dur"] >= 0.0
        assert begins == ends, "every async begin closes exactly once"
        assert phases.get("M", 0) >= 3, "process_name metadata present"
        assert phases["b"] == len(probe.spans)
        assert phases["X"] == sum(len(s["attempts"]) for s in probe.spans)

    def test_direct_dict_matches_export(self, small_fleet):
        probe = FleetProbe(trace=True)
        sim, _ = small_fleet(probe)
        doc = chrome_trace(
            probe.spans, probe.control_events, probe.warmup_s, probe.horizon
        )
        assert len([e for e in doc["traceEvents"] if e["ph"] == "b"]) == len(
            probe.spans
        )

    def test_trace_jsonl_roundtrip(self, small_fleet, tmp_path):
        probe = FleetProbe(trace=True)
        small_fleet(probe)
        path = tmp_path / "trace.jsonl"
        probe.export_trace(str(path))
        meta, spans, control = read_trace_jsonl(str(path))
        assert meta["spans"] == len(probe.spans) == len(spans)
        assert meta["control_events"] == len(control)
        assert spans == probe.spans

    @pytest.mark.parametrize("ext", [".JSONL", ".ndjson"])
    def test_trace_jsonl_extensions(self, small_fleet, tmp_path, ext):
        """The tagged export takes the row-file JSONL extensions, in any
        case, and ``observe`` reads them back; a CSV path is refused."""
        probe = FleetProbe(trace=True)
        small_fleet(probe)
        path = str(tmp_path / f"trace{ext}")
        probe.export_trace(path)
        assert read_trace_jsonl(path)[1] == probe.spans
        assert summarize_file(path)["format"] == "trace-jsonl"
        with pytest.raises(ValueError, match="trace path"):
            probe.export_trace(str(tmp_path / "trace.csv"))

    def test_export_requires_trace(self, small_fleet, tmp_path):
        probe = FleetProbe(metrics=True, trace=False)
        small_fleet(probe)
        with pytest.raises(ValueError):
            probe.export_trace(str(tmp_path / "t.json"))


# ----------------------------------------------------------------------
# control-plane timeline
# ----------------------------------------------------------------------


class TestControlLog:
    def test_fault_events_and_phases_on_timeline(self, small_fleet):
        probe = FleetProbe(trace=True)
        _, result = small_fleet(
            probe, faults=FaultSchedule.parse("crash@0.6:0+0.4"), retries=1
        )
        kinds = {ev["kind"] for ev in probe.control_events}
        assert "fault" in kinds
        assert "phase" in kinds
        times = [ev["t"] for ev in probe.control_events]
        assert times == sorted(times)
        faults = [ev for ev in probe.control_events if ev["kind"] == "fault"]
        assert len(faults) == len(result.fault_events)

    def test_autoscaler_ticks_recorded(self, small_table):
        """An autoscaled run logs decision events with forecast inputs."""
        from repro.fleet import PredictiveAutoscaler
        from repro.models import build_model

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 2)
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 2)
        capacity = 2 * small_table.qps("T2", "DLRM-RMC1")
        trace = build_fleet_trace(
            workloads,
            {"DLRM-RMC1": [(0.4 * capacity, 1.0), (1.6 * capacity, 1.0)]},
            seed=3,
        )
        servers = build_fleet(
            allocation, small_table, models, workloads, standby=standby
        )
        probe = FleetProbe(window_s=0.25)
        sim = FleetSimulator(
            servers,
            policy="p2c",
            sla_ms={"DLRM-RMC1": 20.0},
            seed=3,
            autoscaler=PredictiveAutoscaler({"DLRM-RMC1": 20.0}, window_s=0.25),
            observer=probe,
        )
        result = sim.run(trace, warmup_s=0.1)
        ticks = [
            ev for ev in probe.control_events if ev["kind"] == "autoscaler_tick"
        ]
        assert ticks, "autoscaler decisions were captured"
        decisions = [d for ev in ticks for d in ev.get("decisions", ())]
        assert len(decisions) == len(result.scale_events)
        assert any("forecast_qps" in ev for ev in ticks)
