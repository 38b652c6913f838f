"""Sharded fleet replay: bit-identical merge, sketch-backed reports.

The scale-out runner (``repro.fleet.sharded``) promises that replaying
a fleet sharded by model across worker processes reproduces — in exact
percentile mode — the *same floats* the single-process engine reports:
per-model stats, replica rows, fleet energy, the interleaved
scale-event timeline, and the events counter.  The hypothesis lane
pins that across routing policies, shard counts, and seeds (the
``fleet_replay_sharded`` perfbench scenario asserts the same equality
at benchmark scale).  Sketch mode keeps the counting stats float-exact
and is held to the calibrated P² rank-band criterion from
``tests/test_obs.py`` on percentiles.

Every merge test runs its workers on the python core and on the core
``auto`` picks (the vector core for every built-in routing policy).
Unit tests cover the shard planner, the actionable refusals (policy
instances, bare iterators), orphan models, arrival seed lanes, and the
engine's forced horizon on both exact cores.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.state import Allocation
from repro.fleet import (
    FaultSchedule,
    FleetSimulator,
    ReactiveAutoscaler,
    build_fleet,
)
from repro.fleet.routing import make_policy
from repro.fleet.sharded import plan_shards, run_fleet_sharded
from repro.models import build_model
from repro.obs import FleetProbe
from repro.sim import QueryWorkload
from repro.traces import FleetArrivals, MMPPProcess, PoissonProcess, save_trace

MODELS = ("DLRM-RMC1", "DLRM-RMC2")
SLA = {"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0}
#: Worker cores the merge is pinned on: the per-event core, and the one
#: ``auto`` picks (the vector core wherever routing allows it).
CORES = ("python", "auto")
#: The cores that honour a forced horizon.
EXACT_CORES = ("python", "vector")
FALLBACK_LOG = "core='auto': falling back to the python event core ("


@pytest.fixture(scope="module")
def fleet_inputs(small_table):
    models = {m: build_model(m) for m in MODELS}
    workloads = {
        m: QueryWorkload.for_model(models[m].config.mean_query_size)
        for m in MODELS
    }
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 2)
    allocation.add("T3", "DLRM-RMC2", 2)
    return small_table, models, workloads, allocation


def _source(workloads, seed=0, duration=1.2):
    return FleetArrivals(
        {
            "DLRM-RMC1": MMPPProcess(
                workloads["DLRM-RMC1"], [150.0, 900.0], 0.3, duration
            ),
            "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 250.0, duration),
        },
        seed=seed,
    )


def _run(
    inputs,
    source,
    *,
    shards,
    policy="rr",
    seed=0,
    percentile_mode="exact",
    autoscale=False,
    standby=None,
    core="python",
):
    table, models, workloads, allocation = inputs
    autoscaler = (
        ReactiveAutoscaler(SLA, window_s=0.2, cooldown_s=0.4)
        if autoscale
        else None
    )
    return run_fleet_sharded(
        allocation,
        table,
        models,
        workloads,
        source,
        shards=shards,
        policy=policy,
        sla_ms=SLA,
        autoscaler=autoscaler,
        seed=seed,
        percentile_mode=percentile_mode,
        warmup_s=0.1,
        standby=standby,
        core=core,
        max_workers=2,
    )


class TestShardedMergeBitIdentity:
    @settings(max_examples=5, deadline=None)
    @given(
        policy=st.sampled_from(["rr", "p2c", "least", "weighted"]),
        shards=st.integers(2, 4),
        seed=st.integers(0, 1000),
    )
    def test_matches_single_process_exactly(
        self, fleet_inputs, policy, shards, seed
    ):
        """float-`==` across the whole report: per-model stats, replica
        rows, energy, events — for every policy, shard count, seed and
        worker core."""
        source = _source(fleet_inputs[2], seed=seed)
        ref = _run(fleet_inputs, source, shards=1, policy=policy, seed=seed)
        for core in CORES:
            out = _run(
                fleet_inputs, source, shards=shards, policy=policy,
                seed=seed, core=core,
            )
            assert out.to_dict() == ref.to_dict()
            for m, stats in ref.per_model.items():
                got = out.per_model[m]
                assert (got.p50_ms, got.p95_ms, got.p99_ms) == (
                    stats.p50_ms,
                    stats.p95_ms,
                    stats.p99_ms,
                )
                assert (got.qps, got.mean_ms, got.violation_rate) == (
                    stats.qps,
                    stats.mean_ms,
                    stats.violation_rate,
                )
            assert out.avg_power_w == ref.avg_power_w
            assert out.events == ref.events

    @pytest.mark.parametrize(
        "policy, mode",
        [
            pytest.param(policy, "exact", id=policy)
            for policy in ("p2c", "least", "rr", "weighted")
        ]
        + [pytest.param("p2c", "sketch", id="p2c-sketch")],
    )
    def test_autoscaled_timeline_interleaves_identically(
        self, fleet_inputs, policy, mode, caplog
    ):
        """With a reactive autoscaler and a standby pool, the merged
        scale-event timeline is the single-process timeline.  The parent
        logs the engine's fallback once when the workers cannot run the
        vector core (sketch percentiles), and nothing when they all
        do."""
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 2)
        standby.add("T3", "DLRM-RMC2", 1)
        source = _source(fleet_inputs[2], seed=7)
        ref = _run(
            fleet_inputs, source, shards=1, policy=policy, seed=7,
            autoscale=True, standby=standby, percentile_mode=mode,
        )
        for core in CORES:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro.fleet"):
                out = _run(
                    fleet_inputs, source, shards=2, policy=policy, seed=7,
                    autoscale=True, standby=standby, core=core,
                    percentile_mode=mode,
                )
            assert out.to_dict() == ref.to_dict()
            assert len(out.scale_events) == len(ref.scale_events)
            for a, b in zip(out.scale_events, ref.scale_events):
                assert (
                    a.time_s, a.model, a.action, a.server.index, a.reason
                ) == (b.time_s, b.model, b.action, b.server.index, b.reason)
            logged = [
                r.getMessage() for r in caplog.records
                if r.getMessage().startswith(FALLBACK_LOG)
            ]
            falls_back = core == "auto" and mode == "sketch"
            assert len(logged) == falls_back
            if falls_back:
                assert "sketch-mode reports" in logged[0]

    def test_materialized_list_source(self, fleet_inputs):
        """A pre-drawn list shards without a phase-A scan (its horizon
        is knowable) and still merges bit-identically."""
        trace = list(_source(fleet_inputs[2], seed=11))
        ref = _run(fleet_inputs, trace, shards=1)
        for core in CORES:
            out = _run(fleet_inputs, trace, shards=2, core=core)
            assert out.to_dict() == ref.to_dict()

    def test_recorded_trace_source(self, fleet_inputs, tmp_path):
        """A recorded trace file replays sharded through the filtered
        per-worker view and merges bit-identically."""
        from repro.traces import RecordedTrace

        path = str(tmp_path / "trace.jsonl")
        save_trace(path, list(_source(fleet_inputs[2], seed=5)))
        ref = _run(fleet_inputs, RecordedTrace(path), shards=1)
        for core in CORES:
            out = _run(fleet_inputs, RecordedTrace(path), shards=2, core=core)
            assert out.to_dict() == ref.to_dict()

    def test_orphan_model_arrivals_count_as_drops(self, fleet_inputs):
        """Arrivals for a model with no replicas anywhere must be folded
        into a live shard so the merged drop accounting matches."""
        table, models, workloads, allocation = fleet_inputs
        wl = workloads["DLRM-RMC1"]
        source = FleetArrivals(
            {
                "DLRM-RMC1": PoissonProcess(wl, 300.0, 1.0),
                "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 200.0, 1.0),
                "ZZ-unserved": PoissonProcess(wl, 50.0, 1.0),
            },
            seed=3,
        )
        ref = _run(fleet_inputs, source, shards=1)
        for core in CORES:
            out = _run(fleet_inputs, source, shards=2, core=core)
            assert out.to_dict() == ref.to_dict()
            assert out.per_model["ZZ-unserved"].dropped > 0

    def test_shard_with_no_arrivals_idles_over_full_window(self, fleet_inputs):
        """A shard whose models drew zero arrivals still accounts its
        idle replicas across the shared horizon -- and, autoscaled,
        ticks over it, draining the idle replicas exactly as the
        single-process run does."""
        table, models, workloads, allocation = fleet_inputs
        source = FleetArrivals(
            {"DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 400.0, 1.0)},
            seed=9,
        )
        for autoscale in (False, True):
            ref = _run(fleet_inputs, source, shards=1, autoscale=autoscale)
            if autoscale:
                assert any(ev.model == "DLRM-RMC2" for ev in ref.scale_events)
            for core in CORES:
                out = _run(
                    fleet_inputs, source, shards=2, autoscale=autoscale,
                    core=core,
                )
                assert out.to_dict() == ref.to_dict()
                assert out.per_model["DLRM-RMC2"].completed == 0
                assert out.avg_power_w == ref.avg_power_w


class TestSketchMode:
    def test_counting_stats_exact_percentiles_in_rank_band(self, fleet_inputs):
        """Sketch mode keeps counts/qps/violations float-identical and
        its percentiles inside the calibrated P² rank band (±15 rank
        points, or within a tenth of the data range — the criterion
        ``tests/test_obs.py`` calibrated over 48k adversarial
        mixtures)."""
        table, models, workloads, allocation = fleet_inputs
        source = _source(workloads, seed=3, duration=2.0)
        servers = build_fleet(allocation, table, models, workloads)
        probe = FleetProbe(metrics=False, trace=True)
        sim = FleetSimulator(
            servers, policy="rr", sla_ms=SLA, seed=0, core="python",
            observer=probe,
        )
        ref = sim.run(source, warmup_s=0.1)
        samples = {m: [] for m in MODELS}
        for span in probe.spans:
            if span["outcome"] == "completed" and span["measured"]:
                samples[span["model"]].append(span["latency_ms"])

        out = _run(fleet_inputs, source, shards=2, percentile_mode="sketch")
        for m in MODELS:
            stats, got = ref.per_model[m], out.per_model[m]
            assert got.completed == stats.completed == len(samples[m])
            assert got.dropped == stats.dropped
            assert got.qps == stats.qps
            assert got.violation_rate == stats.violation_rate
            assert got.mean_ms == pytest.approx(stats.mean_ms, rel=1e-9)
            data = samples[m]
            for q, v in (
                (0.5, got.p50_ms), (0.95, got.p95_ms), (0.99, got.p99_ms)
            ):
                lo = float(np.percentile(data, max(0.0, q - 0.15) * 100))
                hi = float(np.percentile(data, min(1.0, q + 0.15) * 100))
                slack = 1e-9 + 1e-9 * max(abs(lo), abs(hi))
                true = float(np.percentile(data, q * 100))
                near = abs(v - true) <= 0.10 * (max(data) - min(data)) + 1e-9
                assert (lo - slack <= v <= hi + slack) or near
        # Replica and power accounting are untouched by the report mode.
        assert [s.to_dict() for s in out.servers] == [
            s.to_dict() for s in ref.servers
        ]
        assert out.avg_power_w == ref.avg_power_w

    def test_sharded_sketch_equals_unsharded_sketch(self, fleet_inputs):
        """The merge is deterministic in sketch mode too: identical
        per-model streams feed identical P² marker updates."""
        source = _source(fleet_inputs[2], seed=21)
        ref = _run(fleet_inputs, source, shards=1, percentile_mode="sketch")
        out = _run(fleet_inputs, source, shards=2, percentile_mode="sketch")
        assert out.to_dict() == ref.to_dict()

    def test_sketch_mode_reports_no_phases(self, fleet_inputs, small_table):
        """Phase breakdowns need the stored sample list; sketch-mode
        fault runs skip them by design."""
        table, models, workloads, allocation = fleet_inputs
        servers = build_fleet(allocation, table, models, workloads)
        sim = FleetSimulator(
            servers, policy="rr", sla_ms=SLA, core="python",
            percentile_mode="sketch",
            faults=FaultSchedule.parse("crash@0.3:0+0.5"),
        )
        result = sim.run(_source(workloads, seed=2, duration=1.0), warmup_s=0.05)
        assert result.phases == ()
        assert result.total_completed > 0

    def test_bad_mode_rejected(self, fleet_inputs):
        table, models, workloads, allocation = fleet_inputs
        servers = build_fleet(allocation, table, models, workloads)
        with pytest.raises(ValueError, match="percentile_mode"):
            FleetSimulator(servers, sla_ms=SLA, percentile_mode="approx")


class TestPlanAndRefusals:
    def test_plan_round_robins_sorted_names(self):
        assert plan_shards(["c", "a", "b"], 2) == [["a", "c"], ["b"]]
        assert plan_shards(["a", "b"], 4) == [["a"], ["b"]]  # clamped
        assert plan_shards(["a"], 1) == [["a"]]
        with pytest.raises(ValueError, match="shards"):
            plan_shards(["a"], 0)

    def test_policy_instance_refused(self, fleet_inputs):
        source = _source(fleet_inputs[2])
        with pytest.raises(ValueError, match="policy name"):
            _run(fleet_inputs, source, shards=2, policy=make_policy("p2c"))

    def test_vector_core_shards_exactly(self, fleet_inputs):
        """A forced ``core="vector"`` is not refused: its workers replay
        under the fleet-wide horizon and merge exactly."""
        source = _source(fleet_inputs[2])
        ref = _run(fleet_inputs, source, shards=1)
        out = _run(fleet_inputs, source, shards=2, core="vector")
        assert out.to_dict() == ref.to_dict()

    def test_bare_iterator_refused(self, fleet_inputs):
        with pytest.raises(ValueError, match="re-iterable"):
            _run(fleet_inputs, iter(list(_source(fleet_inputs[2]))), shards=2)

    def test_empty_source_refused(self, fleet_inputs):
        with pytest.raises(ValueError, match="empty"):
            _run(fleet_inputs, [], shards=2)


class TestSeedLanes:
    def test_explicit_seeds_reproduce_default_lanes(self, fleet_inputs):
        """Pinning each model's lane to its fleet-wide default draws the
        identical stream — the invariant the sharded runner rests on."""
        from repro.traces.arrivals import MODEL_SEED_STRIDE

        workloads = fleet_inputs[2]
        procs = {
            "DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 300.0, 0.5),
            "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 200.0, 0.5),
        }
        default = FleetArrivals(procs, seed=4)
        lanes = {
            m: 4 + MODEL_SEED_STRIDE * i for i, m in enumerate(sorted(procs))
        }
        pinned = FleetArrivals(procs, seed=4, seeds=lanes)
        assert list(default) == list(pinned)
        # A sub-fleet with pinned lanes draws the same per-model stream.
        sub = FleetArrivals(
            {"DLRM-RMC2": procs["DLRM-RMC2"]},
            seed=4,
            seeds={"DLRM-RMC2": lanes["DLRM-RMC2"]},
        )
        want = [(m, q) for m, q in default if m == "DLRM-RMC2"]
        got = list(sub)
        assert [(m, q.arrival_s, q.size) for m, q in got] == [
            (m, q.arrival_s, q.size) for m, q in want
        ]

    def test_seeds_must_cover_every_model(self, fleet_inputs):
        workloads = fleet_inputs[2]
        procs = {"DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 100.0, 0.5)}
        with pytest.raises(ValueError, match="seeds"):
            FleetArrivals(procs, seeds={})


class TestForcedHorizon:
    """``run(horizon_s=)`` on both exact cores."""

    def _sim(self, fleet_inputs, core, **kwargs):
        table, models, workloads, allocation = fleet_inputs
        servers = build_fleet(allocation, table, models, workloads)
        return FleetSimulator(
            servers, policy="rr", sla_ms=SLA, core=core, **kwargs
        )

    def test_forcing_the_natural_horizon_changes_nothing(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        end = max(q.arrival_s for _, q in source)
        for core in EXACT_CORES:
            ref = self._sim(fleet_inputs, core).run(source, warmup_s=0.05)
            out = self._sim(fleet_inputs, core).run(
                source, warmup_s=0.05, horizon_s=end
            )
            assert out.to_dict() == ref.to_dict()

    def test_horizon_before_last_arrival_raises(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        for core in EXACT_CORES:
            with pytest.raises(ValueError, match="last arrival"):
                self._sim(fleet_inputs, core).run(
                    source, warmup_s=0.05, horizon_s=0.06
                )

    def test_horizon_inside_warmup_raises(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        for core in EXACT_CORES:
            with pytest.raises(ValueError, match="warmup"):
                self._sim(fleet_inputs, core).run(
                    source, warmup_s=0.5, horizon_s=0.4
                )

    def test_fault_mode_refuses_forced_horizon(self, fleet_inputs):
        source = _source(fleet_inputs[2], seed=6, duration=0.8)
        for core in EXACT_CORES:
            sim = self._sim(
                fleet_inputs, core,
                faults=FaultSchedule.parse("crash@0.3:0+0.2"),
            )
            with pytest.raises(ValueError, match="fault-free"):
                sim.run(source, warmup_s=0.05, horizon_s=2.0)

    def test_empty_stream_idles_up_to_the_horizon(self, fleet_inputs):
        """Under a forced horizon an empty stream replays: replicas idle
        over the window and autoscaler ticks fire up to it.  Without a
        horizon it is still an error."""
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 1)
        table, models, workloads, allocation = fleet_inputs
        # An empty list, and a stream whose one process draws nothing.
        silent = PoissonProcess(workloads["DLRM-RMC1"], 1e-9, 0.5)
        sources = ([], FleetArrivals({"DLRM-RMC1": silent}))
        results = []
        for core in EXACT_CORES:
            for source in sources:
                servers = build_fleet(
                    allocation, table, models, workloads, standby=standby
                )
                sim = FleetSimulator(
                    servers, policy="rr", sla_ms=SLA, core=core,
                    autoscaler=ReactiveAutoscaler(SLA, window_s=0.2),
                )
                with pytest.raises(ValueError, match="empty fleet trace"):
                    sim.run(source, warmup_s=0.05)
                out = sim.run(source, warmup_s=0.05, horizon_s=1.0)
                assert sim.last_tick_count == 4  # 0.2 .. 0.8, before 1.0
                assert out.total_completed == 0
                assert out.scale_events  # the idle active replicas drain
                active = [s for s in out.servers if s.ever_active]
                assert active and all(0 < s.active_s <= 1.0 for s in active)
                results.append(out.to_dict())
        assert all(r == results[0] for r in results)
