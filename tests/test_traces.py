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

import dataclasses
import heapq
import json
import math
import os
import re
import tempfile

import numpy as np
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


# ----------------------------------------------------------------------
# The block pipeline: blocks() is every process's primitive, rows are
# derived from it, and one block merge replaces heapq.merge
# ----------------------------------------------------------------------


def _legacy_segment_with_rng(workload, rng, arrival_rate_qps, start_s,
                             duration_s, first_id):
    """Verbatim copy of the pre-block ``arrivals._segment_with_rng``."""
    count = int(rng.poisson(arrival_rate_qps * duration_s)) if arrival_rate_qps > 0 else 0
    if count == 0:
        return []
    times = (np.sort(rng.uniform(0.0, duration_s, size=count)) + start_s).tolist()
    sizes = workload.size_dist.sample(rng, count).tolist()
    if workload.pooling_cv > 0:
        shape = 1.0 / workload.pooling_cv**2
        pooling = np.maximum(rng.gamma(shape, 1.0 / shape, size=count), 1e-3).tolist()
    else:
        pooling = [1.0] * count
    return list(
        map(
            Query._make,
            zip(range(first_id, first_id + count), times, sizes, pooling),
        )
    )


def _legacy_piecewise_stream(self, seed=0, first_id=0):
    """Verbatim copy of the pre-block ``PiecewisePoissonProcess.stream``
    (``poisson_segment`` is pinned to the legacy loadgen elsewhere)."""
    from repro.traces import poisson_segment

    clock = 0.0
    next_id = first_id
    for s_idx, (qps, dur) in enumerate(self.segments):
        if qps > 0 and dur > 0:
            queries = poisson_segment(
                self.workload,
                qps,
                dur,
                seed=seed + self.seed_offset + self.seed_stride * s_idx,
                start_s=clock,
                first_id=next_id,
            )
            next_id += len(queries)
            yield from queries
        clock += dur


def _legacy_mmpp_stream(self, seed=0, first_id=0):
    """Verbatim copy of the pre-block ``MMPPProcess.stream``."""
    rng = np.random.default_rng(seed)
    clock = 0.0
    state = 0
    next_id = first_id
    n_states = len(self.rates)
    while clock < self.duration_s:
        dwell = float(rng.exponential(self.dwell_s[state]))
        dwell = min(dwell, self.duration_s - clock)
        if dwell > 0.0:
            queries = _legacy_segment_with_rng(
                self.workload, rng, self.rates[state], clock, dwell, next_id
            )
            next_id += len(queries)
            yield from queries
        clock += dwell
        state = (state + 1) % n_states


def _legacy_diurnal_stream(self, seed=0, first_id=0):
    """Verbatim copy of the pre-block ``DiurnalProcess.stream``."""
    rng = np.random.default_rng(seed)
    seg = self.duration_s / self.steps
    clock = 0.0
    next_id = first_id
    for _day in range(self.days):
        for i in range(self.steps):
            rate = self.peak_qps * self.level_at(i / self.steps)
            if self.noise > 0.0:
                rate *= max(0.0, 1.0 + self.noise * float(rng.standard_normal()))
            queries = _legacy_segment_with_rng(
                self.workload, rng, rate, clock, seg, next_id
            )
            next_id += len(queries)
            yield from queries
            clock += seg


def _legacy_superposed_stream(self, seed=0, first_id=0):
    """Verbatim copy of the pre-block ``SuperposedProcess.stream``
    (parts stream through their legacy bodies too)."""
    streams = [
        _legacy_stream(part, seed=seed + k) for k, part in enumerate(self.parts)
    ]
    for qid, q in enumerate(
        heapq.merge(*streams, key=lambda query: query[1]), start=first_id
    ):
        yield Query._make((qid, q[1], q[2], q[3]))


def _legacy_stream(process, seed=0, first_id=0):
    body = {
        PoissonProcess: _legacy_piecewise_stream,
        PiecewisePoissonProcess: _legacy_piecewise_stream,
        MMPPProcess: _legacy_mmpp_stream,
        DiurnalProcess: _legacy_diurnal_stream,
        SuperposedProcess: _legacy_superposed_stream,
    }[type(process)]
    return body(process, seed, first_id)


def _legacy_fleet_rows(source):
    """The pre-block ``FleetArrivals.__iter__``: tagged legacy streams
    merged by ``heapq.merge`` on arrival time."""

    def tag(model, stream):
        for query in stream:
            yield (model, query)

    tagged = [
        tag(model, _legacy_stream(process, seed=source.seed + 7919 * m_idx))
        for m_idx, (model, process) in enumerate(source.processes.items())
    ]
    return list(heapq.merge(*tagged, key=lambda pair: pair[1][1]))


_WL_FLAT = dataclasses.replace(QueryWorkload.for_model(40), pooling_cv=0.0)

_SHAPES = {
    "mmpp": lambda: MMPPProcess(WL, [150.0, 2200.0], [0.4, 0.1], 2.5),
    "mmpp-flat-pooling": lambda: MMPPProcess(
        _WL_FLAT, [0.0, 900.0, 300.0], [0.3, 0.2, 0.5], 2.0
    ),
    "diurnal-noise": lambda: DiurnalProcess(
        WL, 1200.0, 1.5, steps=12, noise=0.3, days=2
    ),
    "superposed": lambda: SuperposedProcess(
        [
            DiurnalProcess(WL, 900.0, 3.0, steps=8, noise=0.2),
            MMPPProcess(WL, [0.0, 1500.0], [0.6, 0.15], 3.0),
            PoissonProcess(WL, 250.0, 3.0),
        ]
    ),
    "superposed-nested": lambda: SuperposedProcess(
        [
            SuperposedProcess([PoissonProcess(WL, 300.0, 2.0)] * 2),
            PiecewisePoissonProcess(WL, [(500.0, 0.5), (0.0, 0.5), (800.0, 1.0)]),
        ]
    ),
}


@st.composite
def _block_sources(draw):
    """1-4 sorted sources cut into blocks: coarse times force ties
    within a block, across block boundaries and across sources; repeated
    cut points make empty blocks (and a source may be empty)."""
    sources = []
    for k in range(draw(st.integers(1, 4))):
        times = sorted(draw(st.lists(st.integers(0, 12), max_size=25)))
        cuts = sorted(draw(st.lists(st.integers(0, len(times)), max_size=5)))
        bounds = [0, *cuts, len(times)]
        blocks = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            t = np.array(times[a:b], dtype=np.float64) / 4.0
            # size encodes (source, position), pooling the source.
            blocks.append(
                (t, np.arange(a, b, dtype=np.int64) + 1000 * k,
                 np.full(b - a, float(k)))
            )
        sources.append(blocks)
    return sources


def _block_rows(blocks):
    return [
        row
        for block in blocks
        for row in zip(*(col.tolist() for col in block))
    ]


class TestBlockPipeline:
    @settings(max_examples=300, deadline=None)
    @given(sources=_block_sources())
    def test_block_merge_equals_heapq_merge(self, sources):
        from repro.traces.arrivals import _merge_blocks

        merged = list(_merge_blocks([iter(blocks) for blocks in sources]))
        reference = list(
            heapq.merge(
                *(_block_rows(blocks) for blocks in sources),
                key=lambda row: row[0],
            )
        )
        rows = _block_rows(merged)
        assert [row[:3] for row in rows] == reference
        assert [row[3] for row in rows] == [int(row[2]) for row in reference]
        assert all(len(block[0]) for block in merged)

    @pytest.mark.parametrize(
        "blocks,message",
        [
            ([[1.0, 2.0], [1.5, 3.0]], "t=1.5 after t=2.0"),
            ([[1.0, 0.5]], "t=0.5 after t=1.0"),
            ([[1.0, math.nan]], "t=nan after t=1.0"),
        ],
    )
    def test_merge_refuses_unsorted_sources(self, blocks, message):
        from repro.traces.arrivals import _merge_blocks

        bad = [
            (np.array(t), np.ones(len(t), dtype=np.int64), np.ones(len(t)))
            for t in blocks
        ]
        steady = [(np.array([0.25, 4.0]), np.ones(2, dtype=np.int64), np.ones(2))]
        for sources in ([bad], [steady, bad]):
            with pytest.raises(ValueError, match=re.escape(message)):
                list(_merge_blocks([iter(s) for s in sources]))

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("seed,first_id", [(0, 0), (7, 5), (123, 1000)])
    def test_stream_equals_legacy_body(self, shape, seed, first_id):
        process = _SHAPES[shape]()
        assert list(process.stream(seed=seed, first_id=first_id)) == list(
            _legacy_stream(process, seed=seed, first_id=first_id)
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fleet_rows_equal_legacy_merge(self, seed):
        source = FleetArrivals(
            {name: make() for name, make in _SHAPES.items()}, seed=seed
        )
        assert list(source) == _legacy_fleet_rows(source)

    def test_blocks_are_columnar_and_sorted(self):
        for make in _SHAPES.values():
            for t, size, pooling in make().blocks(seed=2):
                assert t.dtype == np.float64 and pooling.dtype == np.float64
                assert size.dtype == np.int64
                assert len(t) == len(size) == len(pooling) > 0
                assert bool((np.diff(t) >= 0.0).all())


class TestNonFiniteParameters:
    """NaN and inf parameters used to build processes that silently
    emitted nothing (or surfaced numpy's sampling errors); every
    constructor check is a negated comparison, so both now fail."""

    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:level=nan",
            "poisson:qps=nan",
            "poisson:level=inf",
            "diurnal:level=nan",
            "diurnal:noise=nan",
            "diurnal:sharpness=nan",
            "mmpp:levels=0.2/1.0,dwell=nan",
            "mmpp:levels=nan/1.0,dwell=1",
        ],
    )
    def test_spec_error_names_the_section(self, spec):
        for text in (spec, f"poisson:level=0.5+{spec}"):
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                parse_arrivals(text).build(WL, 100.0, 2.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PoissonProcess(WL, math.nan, 2.0),
            lambda: PoissonProcess(WL, math.inf, 2.0),
            lambda: PoissonProcess(WL, 100.0, math.nan),
            lambda: PiecewisePoissonProcess(WL, [(100.0, math.nan), (100.0, 1.0)]),
            lambda: PiecewisePoissonProcess(WL, [(math.nan, 1.0)]),
            lambda: MMPPProcess(WL, [20.0, 100.0], 1.0, math.nan),
            lambda: MMPPProcess(WL, [math.nan, 100.0], 1.0, 2.0),
            lambda: MMPPProcess(WL, [20.0, 100.0], [1.0, math.nan], 2.0),
            lambda: MMPPProcess(WL, [20.0, math.inf], 1.0, 2.0),
            lambda: DiurnalProcess(WL, 100.0, math.nan),
            lambda: DiurnalProcess(WL, math.nan, 2.0),
            lambda: DiurnalProcess(WL, 100.0, 2.0, noise=math.nan),
            lambda: DiurnalProcess(WL, 100.0, 2.0, sharpness=math.nan),
            lambda: DiurnalProcess(WL, 100.0, 2.0, sharpness=math.inf),
        ],
    )
    def test_constructors_refuse(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


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
