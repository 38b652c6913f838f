"""Property lane for the arrival-process subsystem (``repro.traces``).

Hypothesis pins the invariants every consumer relies on:

- timestamps are non-decreasing and stay inside the process's span;
- ids are consecutive from ``first_id``;
- per-segment arrival counts conserve the configured rate (within
  Poisson concentration bounds);
- identical seeds reproduce identical streams, different seeds differ;
- a recorded trace round-trips through the CSV/JSONL writer/reader
  with exact floats.

Unit tests cover the ``--arrivals`` grammar, the recorded-trace
scanner, and the engine's unsorted-stream guard.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import QueryWorkload
from repro.sim.queries import Query
from repro.traces import (
    DiurnalProcess,
    FleetArrivals,
    MMPPProcess,
    PiecewisePoissonProcess,
    PoissonProcess,
    RecordedTrace,
    SuperposedProcess,
    parse_arrivals,
    read_trace,
    save_trace,
)

WL = QueryWorkload.for_model(80)

segments_st = st.lists(
    st.tuples(st.floats(0.0, 1500.0), st.floats(0.1, 1.5)),
    min_size=1,
    max_size=4,
)


def _assert_stream_invariants(queries, end_s, first_id=0):
    times = [q.arrival_s for q in queries]
    assert times == sorted(times)
    assert all(0.0 <= t <= end_s for t in times)
    assert [q.query_id for q in queries] == list(
        range(first_id, first_id + len(queries))
    )
    assert all(q.size >= 1 and q.pooling_scale > 0 for q in queries)


class TestPiecewisePoisson:
    @settings(max_examples=20, deadline=None)
    @given(segments=segments_st, seed=st.integers(0, 10_000))
    def test_sorted_bounded_consecutive(self, segments, seed):
        process = PiecewisePoissonProcess(WL, segments)
        queries = list(process.stream(seed=seed))
        _assert_stream_invariants(queries, process.end_s)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_segment_rate_conservation(self, seed):
        """Each segment's count concentrates around rate * duration."""
        segments = [(400.0, 2.0), (1600.0, 1.5), (200.0, 1.0)]
        process = PiecewisePoissonProcess(WL, segments)
        queries = list(process.stream(seed=seed))
        clock = 0.0
        for qps, dur in segments:
            count = sum(1 for q in queries if clock <= q.arrival_s < clock + dur)
            expected = qps * dur
            # 6-sigma Poisson bound: ~1e-9 flake probability per segment.
            assert abs(count - expected) <= 6.0 * math.sqrt(expected) + 1.0
            clock += dur

    @settings(max_examples=10, deadline=None)
    @given(segments=segments_st, seed=st.integers(0, 10_000))
    def test_seed_determinism(self, segments, seed):
        process = PiecewisePoissonProcess(WL, segments)
        a = list(process.stream(seed=seed))
        b = list(process.stream(seed=seed))
        assert a == b
        if sum(q * d for q, d in segments if q > 0 and d > 0) > 50:
            c = list(process.stream(seed=seed + 1))
            assert a != c

    def test_matches_legacy_loadgen_exactly(self):
        from repro.sim.loadgen import generate_trace

        queries = list(PoissonProcess(WL, 700.0, 3.0).stream(seed=13))
        assert queries == generate_trace(WL, 700.0, 3.0, seed=13)


class TestShapedProcesses:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        low=st.floats(0.0, 300.0),
        high=st.floats(500.0, 3000.0),
        dwell=st.floats(0.05, 1.0),
        duration=st.floats(0.5, 3.0),
    )
    def test_mmpp_invariants(self, seed, low, high, dwell, duration):
        process = MMPPProcess(WL, [low, high], dwell, duration)
        queries = list(process.stream(seed=seed))
        _assert_stream_invariants(queries, process.end_s)
        assert queries == list(process.stream(seed=seed))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        noise=st.floats(0.0, 0.4),
        steps=st.integers(4, 32),
        days=st.integers(1, 2),
    )
    def test_diurnal_invariants(self, seed, noise, steps, days):
        process = DiurnalProcess(
            WL, 900.0, 4.0, steps=steps, noise=noise, days=days
        )
        queries = list(process.stream(seed=seed))
        _assert_stream_invariants(queries, process.end_s)
        assert queries == list(process.stream(seed=seed))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_superposition_merges_and_renumbers(self, seed):
        base = PoissonProcess(WL, 400.0, 3.0)
        burst = MMPPProcess(WL, [0.0, 1500.0], [1.0, 0.2], 3.0)
        combined = SuperposedProcess([base, burst])
        queries = list(combined.stream(seed=seed))
        _assert_stream_invariants(queries, combined.end_s)
        # Superposition conserves the component draws: same count as
        # the parts streamed with the component seeds.
        parts = len(list(base.stream(seed=seed))) + len(
            list(burst.stream(seed=seed + 1))
        )
        assert len(queries) == parts

    def test_mmpp_mean_rate_is_dwell_weighted(self):
        process = MMPPProcess(WL, [100.0, 1900.0], [3.0, 1.0], 10.0)
        assert process.mean_qps == pytest.approx((100 * 3 + 1900 * 1) / 4.0)

    def test_diurnal_level_peaks_at_peak_position(self):
        process = DiurnalProcess(WL, 1000.0, 8.0, peak_position=0.5)
        assert process.level_at(0.5) == pytest.approx(1.0)
        assert process.level_at(0.0) == pytest.approx(process.trough_ratio)


class TestRecordedRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), fmt=st.sampled_from(["csv", "jsonl"]))
    def test_write_read_exact(self, seed, fmt):
        source = FleetArrivals(
            {
                "A": PoissonProcess(WL, 300.0, 1.5),
                "B": MMPPProcess(WL, [50.0, 900.0], 0.3, 1.5),
            },
            seed=seed,
        )
        original = list(source)
        path = tempfile.mktemp(suffix=f".{fmt}")
        try:
            assert save_trace(path, original) == len(original)
            recorded = RecordedTrace(path)
            replayed = list(recorded)
            assert [
                (m, q.arrival_s, q.size, q.pooling_scale) for m, q in replayed
            ] == [(m, q.arrival_s, q.size, q.pooling_scale) for m, q in original]
            assert recorded.validate() == len(original)
            assert recorded.end_s == original[-1][1].arrival_s
            assert recorded.models() == ("A", "B")
        finally:
            os.unlink(path)

    def test_single_model_file_and_default_model(self):
        queries = list(PoissonProcess(WL, 500.0, 1.0).stream(seed=3))
        path = tempfile.mktemp(suffix=".csv")
        try:
            save_trace(path, queries)  # bare Query records, no model column
            with pytest.raises(ValueError, match="no model"):
                list(read_trace(path))
            pairs = list(read_trace(path, default_model="M"))
            assert [q.arrival_s for _, q in pairs] == [
                q.arrival_s for q in queries
            ]
            assert {m for m, _ in pairs} == {"M"}
        finally:
            os.unlink(path)

    def test_unsorted_file_fails_validation_and_replay(self):
        path = tempfile.mktemp(suffix=".csv")
        try:
            save_trace(
                path,
                [("M", Query(0, 1.0, 10, 1.0)), ("M", Query(1, 0.5, 10, 1.0))],
            )
            with pytest.raises(ValueError, match="regress"):
                RecordedTrace(path).validate()
        finally:
            os.unlink(path)

    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError, match="format"):
            save_trace("/tmp/trace.txt", [])

    def test_truncated_csv_row_names_file_and_line(self):
        """A ragged CSV row (truncated write, manual edit) must fail
        with the file and 1-based line number, not a bare unpack
        error deep in the scanner."""
        path = tempfile.mktemp(suffix=".csv")
        try:
            save_trace(
                path,
                [("M", Query(0, 0.5, 10, 1.0)), ("M", Query(1, 0.9, 10, 1.0))],
            )
            with open(path) as fh:
                lines = fh.readlines()
            lines[-1] = lines[-1].rsplit(",", 2)[0] + "\n"  # truncate row
            with open(path, "w") as fh:
                fh.writelines(lines)
            with pytest.raises(ValueError, match=rf"{path}:3: row has"):
                list(read_trace(path))
        finally:
            os.unlink(path)

    @pytest.mark.parametrize("ext", [".csv", ".jsonl"])
    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, float("nan"), "arrival time must be finite"),
            (2, 0, "query size must be >= 1"),
            (3, -1.0, "pooling_scale must be positive"),
        ],
    )
    def test_bad_row_value_names_file_and_line(
        self, tmp_path, ext, column, value, message
    ):
        """A NaN arrival, a zero size or a non-positive pooling scale in
        the third row fails with the file and line (a NaN arrival must
        not replay as 2 of 4 queries completed, none dropped)."""
        rows = [["M", 0.1 * (k + 1), 10, 1.0] for k in range(4)]
        rows[2][column] = value
        path = tmp_path / f"trace{ext}"
        if ext == ".csv":
            lines = ["model,arrival_s,size,pooling_scale"]
            lines += [",".join(repr(v) if k else v for k, v in enumerate(r))
                      for r in rows]
            line_no = 4
        else:
            lines = [
                json.dumps({"model": m, "t": t, "size": sz, "pooling": pl})
                for m, t, sz, pl in rows
            ]
            line_no = 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=rf"{re.escape(str(path))}:{line_no}: {message}"
        ):
            list(RecordedTrace(str(path)))

    def test_csv_rejects_model_names_that_would_corrupt_rows(self):
        """A comma or newline in a model name would silently shift every
        column on read; the CSV writer must refuse up front (JSONL
        handles such names fine and round-trips them)."""
        queries = [("web,burst", Query(0, 0.5, 10, 1.0))]
        csv_path = tempfile.mktemp(suffix=".csv")
        try:
            with pytest.raises(ValueError, match="comma or newline"):
                save_trace(csv_path, queries)
        finally:
            if os.path.exists(csv_path):
                os.unlink(csv_path)
        jsonl_path = tempfile.mktemp(suffix=".jsonl")
        try:
            save_trace(jsonl_path, queries)
            replayed = list(read_trace(jsonl_path))
            assert [m for m, _ in replayed] == ["web,burst"]
        finally:
            os.unlink(jsonl_path)

    def test_mean_qps_single_timestamp_uses_one_second_span(self):
        """A trace whose arrivals share one timestamp has zero span;
        ``mean_qps`` must treat it as one second (documented fallback),
        not divide by a 1e-9 epsilon into a 10⁹x rate."""
        path = tempfile.mktemp(suffix=".csv")
        try:
            save_trace(
                path,
                [("M", Query(0, 2.5, 10, 1.0)), ("M", Query(1, 2.5, 12, 1.0))],
            )
            assert RecordedTrace(path).mean_qps == {"M": pytest.approx(2.0)}
        finally:
            os.unlink(path)


class TestArrivalSpecGrammar:
    @pytest.mark.parametrize(
        "spec,shapes",
        [
            ("poisson:level=0.75", ["poisson"]),
            ("mmpp:levels=0.3/2.0,dwell=1.5/0.2", ["mmpp"]),
            ("diurnal:steps=48,noise=0.15", ["diurnal"]),
            (
                "diurnal:noise=0.15+mmpp:levels=0/1.2,dwell=3/0.25",
                ["diurnal", "mmpp"],
            ),
        ],
    )
    def test_valid_specs_parse_and_build(self, spec, shapes):
        parsed = parse_arrivals(spec)
        assert [s.shape for s in parsed.sections] == shapes
        process = parsed.build(WL, peak_qps=1000.0, duration_s=4.0)
        queries = list(process.stream(seed=1))
        _assert_stream_invariants(queries, process.end_s)

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "poisson:bogus=1",
            "mmpp:dwell=1",  # missing levels
            "mmpp:levels=1/2",  # missing dwell
            "sawtooth:level=1",
            "poisson:level=0.5+",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_arrivals(spec)

    def test_duplicate_key_raises_not_last_wins(self):
        """``mmpp:dwell=1,dwell=2`` used to silently keep the last
        value; a repeated key is always a typo and must raise."""
        for spec in (
            "mmpp:levels=1/2,dwell=1,dwell=2",
            "poisson:level=0.5,level=0.9",
            "diurnal:noise=0.1+mmpp:levels=0/1,dwell=3/0.2,levels=0/2",
        ):
            with pytest.raises(ValueError, match="duplicate"):
                parse_arrivals(spec)

    def test_diurnal_days_validated_at_build(self):
        for bad in ("diurnal:days=0", "diurnal:days=-1"):
            with pytest.raises(ValueError, match="days"):
                parse_arrivals(bad).build(WL, 1000.0, 4.0)

    def test_levels_scale_with_peak(self):
        process = parse_arrivals("poisson:level=0.5").build(WL, 2000.0, 2.0)
        assert process.mean_qps == pytest.approx(1000.0)
        absolute = parse_arrivals("poisson:qps=300").build(WL, 2000.0, 2.0)
        assert absolute.mean_qps == pytest.approx(300.0)


class TestEngineStreamGuards:
    def test_unsorted_stream_raises_in_engine(self, small_table):
        from repro.cluster.state import Allocation
        from repro.fleet import FleetSimulator, build_fleet
        from repro.models import build_model

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 1)
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0})
        bad = iter(
            [
                ("DLRM-RMC1", Query(0, 1.0, 10, 1.0)),
                ("DLRM-RMC1", Query(1, 0.5, 10, 1.0)),
            ]
        )
        with pytest.raises(ValueError, match="not sorted"):
            sim.run(bad)

    def test_empty_stream_raises(self, small_table):
        from repro.cluster.state import Allocation
        from repro.fleet import FleetSimulator, build_fleet
        from repro.models import build_model

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 1)
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0})
        with pytest.raises(ValueError, match="empty"):
            sim.run(iter([]))

    def test_end_s_not_touched_without_stochastic_faults(self, small_table):
        """The engine must not force a RecordedTrace's full-file scan
        (its ``end_s``) unless a stochastic schedule actually needs the
        draw horizon."""
        from repro.cluster.state import Allocation
        from repro.fleet import FleetSimulator, build_fleet
        from repro.models import build_model
        from repro.traces import FleetArrivals, PoissonProcess

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 1)

        class _ExpensiveEnd(FleetArrivals):
            @property
            def end_s(self):
                raise AssertionError("end_s fetched without stochastic faults")

        source = _ExpensiveEnd(
            {"DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 300.0, 1.0)}
        )
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0})
        result = sim.run(source)
        assert result.total_completed > 0

    def test_stochastic_faults_need_horizon(self, small_table):
        from repro.cluster.state import Allocation
        from repro.fleet import FaultSchedule, FleetSimulator, build_fleet
        from repro.models import build_model

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 2)
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(
            servers,
            policy="rr",
            sla_ms={"DLRM-RMC1": 20.0},
            faults=FaultSchedule.parse("random:crash_mtbf=5"),
        )
        # A bare iterator exposes no end_s: stochastic draws would run
        # forever, so the engine must refuse actionably.
        stream = iter([("DLRM-RMC1", Query(0, 0.1, 10, 1.0))])
        with pytest.raises(ValueError, match="end_s"):
            sim.run(stream)
