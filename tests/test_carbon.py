"""Carbon layer: trace exactness, policy properties, fleet integration.

Three lanes:

- **Property lane** (hypothesis): on generated step traces and job
  sets, every policy conserves work (submitted == completed +
  suspended + dropped), never trades a feasible deadline for carbon,
  and respects the exemplar's emission ladder ``no-wait >=
  lowest-carbon-slot >= carbon-waiting >= suspend-resume``; trace
  files round-trip bit-exactly through CSV and JSONL.
- **Error lane**: malformed trace rows fail with ``"{path}:{line}:"``
  prefixes, spec mini-language mistakes name the offending section.
- **Fleet lane**: pricing a finished replay populates ``result.carbon``
  deterministically, on the python and the vector core alike.  (The
  priced == unpriced differential pin lives in
  ``tests/test_perf_equivalence.py``.)
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon import (
    DEFERRABLE_POLICIES,
    CarbonTrace,
    DeferrableJob,
    attach_carbon,
    parse_carbon,
    parse_deferrable,
    read_carbon_trace,
    realtime_power_profile,
    run_deferrable,
    save_carbon_trace,
)
from repro.fleet.report import J_PER_KWH, fleet_power_summary

_HORIZON = 100.0

#: The provable emission ladder, cheapest-last (module docstring of
#: ``repro.carbon.deferrable`` explains why each step holds).
_LADDER = ("no-wait", "lowest-carbon-slot", "carbon-waiting", "suspend-resume")


@st.composite
def carbon_traces(draw):
    """Step traces with strictly increasing times and >= 0 intensity."""
    n = draw(st.integers(1, 8))
    t0 = draw(st.floats(0.0, 10.0))
    gaps = draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
    times = []
    acc = t0
    for gap in gaps:
        times.append(acc)
        acc += gap
    intensities = draw(
        st.lists(st.floats(0.0, 1000.0), min_size=n, max_size=n)
    )
    return CarbonTrace(times, intensities)


@st.composite
def job_sets(draw):
    """1-5 jobs submitted inside the first 60% of the horizon."""
    count = draw(st.integers(1, 5))
    jobs = []
    for i in range(count):
        submit = draw(st.floats(0.0, _HORIZON * 0.6))
        duration = draw(st.floats(0.05, _HORIZON * 0.25))
        slack = draw(st.floats(0.0, 3.0))
        power = draw(st.floats(10.0, 1000.0))
        jobs.append(
            DeferrableJob(
                name=f"job-{i}",
                submit_s=submit,
                duration_s=duration,
                power_w=power,
                deadline_s=submit + duration * (1.0 + slack),
            )
        )
    return jobs


class TestDeferrableProperties:
    @settings(max_examples=40, deadline=None)
    @given(trace=carbon_traces(), jobs=job_sets(),
           policy=st.sampled_from(DEFERRABLE_POLICIES))
    def test_work_conservation(self, trace, jobs, policy):
        """Every submitted job ends in exactly one terminal state."""
        report = run_deferrable(
            jobs, trace, policy=policy, horizon_s=_HORIZON
        )
        assert report.submitted == len(jobs)
        assert (
            report.completed + report.suspended + report.dropped
            == report.submitted
        )
        for outcome in report.outcomes:
            # run + remaining always reconstructs the job's duration.
            job = next(j for j in jobs if j.name == outcome.name)
            assert outcome.run_s + outcome.remaining_s == pytest.approx(
                job.duration_s, abs=1e-6
            )
            if outcome.status == "completed":
                assert outcome.remaining_s == 0.0

    @settings(max_examples=40, deadline=None)
    @given(trace=carbon_traces(), jobs=job_sets(),
           policy=st.sampled_from(DEFERRABLE_POLICIES))
    def test_no_policy_violates_a_feasible_deadline(self, trace, jobs, policy):
        """Uncapped, every deadline inside the horizon is met.

        The forced-run safety net (``forced_at = latest_finish -
        remaining``) makes this hold for every policy, including the
        carbon-waiting waiter the issue singles out.
        """
        report = run_deferrable(
            jobs, trace, policy=policy, horizon_s=_HORIZON
        )
        for outcome in report.outcomes:
            if outcome.deadline_s <= _HORIZON:
                assert outcome.status == "completed"
                assert outcome.finish_s <= outcome.deadline_s + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(trace=carbon_traces(), jobs=job_sets())
    def test_emission_ladder(self, trace, jobs):
        """Carbon-aware policies emit <= no-wait on every trace; the
        full ladder holds whenever every policy completes all jobs.

        The completion gate matters: a deadline past the horizon lets
        carbon-waiting legitimately park work beyond the measurement
        window (job ends *suspended*), and running less work always
        emits less gas -- comparing those totals against a policy that
        finished everything would reward incompleteness, not carbon
        awareness.
        """
        reports = {
            policy: run_deferrable(
                jobs, trace, policy=policy, horizon_s=_HORIZON
            )
            for policy in _LADDER
        }
        totals = {p: r.total_gco2 for p, r in reports.items()}
        slack = 1e-6 * max(1.0, totals["no-wait"])
        for policy in _LADDER[1:]:
            assert totals[policy] <= totals["no-wait"] + slack, (
                f"{policy} emitted more than no-wait: {totals}"
            )
        if all(r.completed == len(jobs) for r in reports.values()):
            for costlier, cheaper in zip(_LADDER, _LADDER[1:]):
                assert totals[cheaper] <= totals[costlier] + slack, (
                    f"{cheaper} emitted more than {costlier}: {totals}"
                )

    @settings(max_examples=20, deadline=None)
    @given(trace=carbon_traces(), jobs=job_sets(),
           policy=st.sampled_from(DEFERRABLE_POLICIES))
    def test_executor_is_deterministic(self, trace, jobs, policy):
        """Same inputs, same report -- byte for byte."""
        first = run_deferrable(jobs, trace, policy=policy, horizon_s=_HORIZON)
        second = run_deferrable(jobs, trace, policy=policy, horizon_s=_HORIZON)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_power_cap_starves_oversized_jobs(self):
        """A job that never fits under the cap ends dropped, and the
        realtime profile is what consumes the headroom."""
        trace = CarbonTrace.constant(300.0)
        jobs = [DeferrableJob("big", 0.0, 5.0, 800.0, 20.0)]
        profile = ((0.0, 100.0, 900.0),)
        report = run_deferrable(
            jobs, trace, policy="no-wait", horizon_s=_HORIZON,
            power_cap_w=1200.0, realtime_profile=profile,
        )
        assert report.dropped == 1
        assert report.outcomes[0].run_s == 0.0
        # Raise the cap and the same job completes immediately.
        report = run_deferrable(
            jobs, trace, policy="no-wait", horizon_s=_HORIZON,
            power_cap_w=2000.0, realtime_profile=profile,
        )
        assert report.completed == 1

    def test_executor_validates_knobs(self):
        """The executor owns its knobs' validation: policy name, power
        cap and deferral horizon are checked where they are used."""
        trace = CarbonTrace.constant(100.0)
        jobs = [DeferrableJob("a", 0.0, 1.0, 10.0, 5.0)]
        with pytest.raises(ValueError, match="policy"):
            run_deferrable(jobs, trace, policy="greedy", horizon_s=_HORIZON)
        with pytest.raises(ValueError, match="power_cap_w"):
            run_deferrable(jobs, trace, horizon_s=_HORIZON, power_cap_w=0.0)
        with pytest.raises(ValueError, match="deferral_horizon_s"):
            run_deferrable(
                jobs, trace, horizon_s=_HORIZON, deferral_horizon_s=-1.0
            )

    def test_deferral_horizon_tightens_deadline(self):
        """deferral_horizon_s caps slip past the natural finish."""
        trace = CarbonTrace.step((0.0, 10.0), (1000.0, 10.0))
        job = DeferrableJob("j", 0.0, 2.0, 100.0, 50.0)
        free = run_deferrable(
            [job], trace, policy="suspend-resume", horizon_s=_HORIZON
        )
        # Unconstrained, the job waits for the cheap step at t=10.
        assert free.outcomes[0].start_s >= 10.0
        tight = run_deferrable(
            [job], trace, policy="suspend-resume", horizon_s=_HORIZON,
            deferral_horizon_s=1.0,
        )
        # Effective deadline 0 + 2 + 1 = 3s: must run in the dirty step.
        assert tight.outcomes[0].status == "completed"
        assert tight.outcomes[0].finish_s <= 3.0 + 1e-9
        assert tight.outcomes[0].gco2_g > free.outcomes[0].gco2_g

    def test_suspend_resume_splits_across_a_peak(self):
        """The preemptive policy runs cheap seconds on both sides of an
        expensive plateau, counting one suspension."""
        trace = CarbonTrace.step((0.0, 2.0, 6.0), (50.0, 900.0, 50.0))
        job = DeferrableJob("j", 0.0, 4.0, 100.0, 12.0)
        report = run_deferrable(
            [job], trace, policy="suspend-resume", horizon_s=20.0
        )
        outcome = report.outcomes[0]
        assert outcome.status == "completed"
        assert outcome.suspensions == 1
        assert outcome.run_windows[0][1] <= 2.0 + 1e-9
        assert outcome.run_windows[-1][0] >= 6.0 - 1e-9
        # Only cheap seconds were bought: 4s x 100W at 50 g/kWh.
        assert outcome.gco2_g == pytest.approx(
            100.0 * 50.0 * 4.0 / J_PER_KWH
        )


class TestCarbonTrace:
    def test_step_semantics_and_integral(self):
        trace = CarbonTrace.step((0.0, 10.0, 20.0), (100.0, 400.0, 200.0))
        assert trace.intensity_at(-5.0) == 100.0  # first extends back
        assert trace.intensity_at(9.999) == 100.0
        assert trace.intensity_at(10.0) == 400.0
        assert trace.intensity_at(99.0) == 200.0  # last extends forward
        assert trace.integral(0.0, 20.0) == pytest.approx(
            10 * 100.0 + 10 * 400.0
        )
        assert trace.integral(5.0, 25.0) == pytest.approx(
            5 * 100.0 + 10 * 400.0 + 5 * 200.0
        )
        assert trace.mean(0.0, 20.0) == pytest.approx(250.0)

    def test_lowest_window_prefers_trough_then_earliest(self):
        trace = CarbonTrace.step((0.0, 10.0, 20.0), (300.0, 50.0, 300.0))
        # The 5s window fits wholly inside the [10, 20) trough.
        assert trace.lowest_window(5.0, 0.0, 40.0) == 10.0
        # Ties (flat trace) resolve to the earliest start.
        flat = CarbonTrace.constant(100.0)
        assert flat.lowest_window(5.0, 3.0, 40.0) == 3.0

    def test_diurnal_shape(self):
        trace = CarbonTrace.diurnal(
            base=350.0, swing=150.0, period_s=24.0, steps=24
        )
        assert len(trace) == 24
        # Trough lands mid-period (solar midday), peak at the edges.
        assert min(trace.intensities) == trace.intensity_at(12.0)
        assert min(trace.intensities) >= 200.0 - 1e-9
        assert max(trace.intensities) <= 500.0 + 1e-9
        with pytest.raises(ValueError, match="swing"):
            CarbonTrace.diurnal(base=100.0, swing=200.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increase"):
            CarbonTrace((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError, match=">= 0"):
            CarbonTrace((0.0,), (-1.0,))
        with pytest.raises(ValueError, match="at least one"):
            CarbonTrace((), ())
        with pytest.raises(ValueError, match="pair up"):
            CarbonTrace((0.0, 1.0), (1.0,))

    @pytest.mark.parametrize(
        "times,intensities",
        [
            ((0.0, math.nan, 10.0), (100.0, 200.0, 300.0)),
            ((0.0, 10.0, math.inf), (100.0, 200.0, 300.0)),
            ((-math.inf, 10.0), (100.0, 200.0)),
            ((0.0, 10.0), (100.0, math.nan)),
            ((0.0, 10.0), (100.0, math.inf)),
        ],
    )
    def test_non_finite_breakpoints_refused(self, times, intensities):
        """A NaN time used to slip past the strictly-increasing check
        (every comparison with NaN is False) and an inf intensity made
        ``integral`` inf; both now fail at construction."""
        with pytest.raises(ValueError, match="finite"):
            CarbonTrace(times, intensities)


class TestCarbonTraceRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(trace=carbon_traces(), fmt=st.sampled_from(["csv", "jsonl"]))
    def test_write_read_exact(self, trace, fmt):
        """repr-written floats make the round trip bit-identical."""
        path = tempfile.mktemp(suffix=f".{fmt}")
        try:
            assert save_carbon_trace(path, trace) == len(trace)
            loaded = read_carbon_trace(path)
            assert loaded == trace  # tuple equality: exact floats
            assert loaded.times == trace.times
            assert loaded.intensities == trace.intensities
        finally:
            os.unlink(path)

    def test_extension_routing_and_override(self):
        trace = CarbonTrace.constant(250.0)
        path = tempfile.mktemp(suffix=".ndjson")
        try:
            trace.save(path)
            assert CarbonTrace.load(path) == trace
            # fmt= overrides a lying extension.
            assert read_carbon_trace(path, fmt="jsonl") == trace
        finally:
            os.unlink(path)
        with pytest.raises(ValueError, match="format"):
            save_carbon_trace("/tmp/carbon.txt", trace)

    def _write(self, suffix: str, text: str) -> str:
        path = tempfile.mktemp(suffix=suffix)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def test_malformed_rows_name_path_and_line(self):
        cases = [
            (".csv", "time_s,gco2_per_kwh\n0.0,100.0\n1.0\n", 3, "columns"),
            (".csv", "time_s,gco2_per_kwh\n0.0,abc\n", 2, "not numeric"),
            (".csv", "time_s,gco2_per_kwh\n0.0,100.0\n0.0,50.0\n", 3,
             "strictly"),
            (".csv", "time_s,gco2_per_kwh\n0.0,-4.0\n", 2, ">= 0"),
            (".jsonl", '{"t": 0.0, "gco2_per_kwh": 100.0}\nnot json\n', 2,
             "invalid JSON"),
            (".jsonl", '{"t": 0.0}\n', 1, "needs keys"),
        ]
        for suffix, text, line, detail in cases:
            path = self._write(suffix, text)
            try:
                with pytest.raises(ValueError) as exc:
                    read_carbon_trace(path)
                assert str(exc.value).startswith(f"{path}:{line}:"), (
                    f"{detail}: {exc.value}"
                )
                assert detail in str(exc.value)
            finally:
                os.unlink(path)

    @pytest.mark.parametrize(
        "suffix,text,line",
        [
            (".csv", "time_s,gco2_per_kwh\n0.0,100.0\n5.0,nan\n10.0,300.0\n", 3),
            (".csv", "time_s,gco2_per_kwh\n0.0,100.0\nnan,200.0\n", 3),
            (".csv", "time_s,gco2_per_kwh\n0.0,inf\n", 2),
            (".csv", "time_s,gco2_per_kwh\ninf,100.0\n", 2),
            (".jsonl", '{"t": 0.0, "gco2_per_kwh": 100.0}\n'
                       '{"t": NaN, "gco2_per_kwh": 200.0}\n', 2),
            (".jsonl", '{"t": 0.0, "gco2_per_kwh": Infinity}\n', 1),
        ],
    )
    def test_non_finite_rows_name_path_and_line(self, suffix, text, line):
        """``5.0,nan`` used to load (then ``mean(0.0, 10.0)`` was NaN),
        as did a NaN time; every non-finite breakpoint now fails with
        the reader's location prefix."""
        path = self._write(suffix, text)
        try:
            with pytest.raises(ValueError) as exc:
                read_carbon_trace(path)
            assert str(exc.value).startswith(f"{path}:{line}:")
            assert "finite" in str(exc.value)
        finally:
            os.unlink(path)

    def test_empty_file_and_bad_header(self):
        path = self._write(".csv", "time_s,gco2_per_kwh\n")
        try:
            with pytest.raises(ValueError, match="empty carbon trace"):
                read_carbon_trace(path)
        finally:
            os.unlink(path)
        path = self._write(".csv", "a,b\n0.0,1.0\n")
        try:
            with pytest.raises(ValueError, match="needs time_s"):
                read_carbon_trace(path)
        finally:
            os.unlink(path)


class TestSpecs:
    def test_carbon_spec_shapes_and_superposition(self):
        flat = parse_carbon("constant:intensity=400").build()
        assert flat.intensity_at(123.0) == 400.0
        stepped = parse_carbon("step:levels=400/120/400,at=0/3600/7200").build()
        assert stepped.intensity_at(3600.0) == 120.0
        both = parse_carbon(
            "constant:intensity=100+step:levels=50/10,at=0/10"
        ).build()
        assert both.intensity_at(0.0) == 150.0
        assert both.intensity_at(10.0) == 110.0
        day = parse_carbon("diurnal:base=300,swing=100,period=10,steps=5")
        assert len(day.build()) == 5

    def test_carbon_spec_errors_name_section(self):
        with pytest.raises(ValueError, match="unknown carbon shape"):
            parse_carbon("sawtooth:x=1")
        with pytest.raises(ValueError, match="constant:intensity=4,bogus=2"):
            parse_carbon("constant:intensity=4,bogus=2")
        with pytest.raises(ValueError, match="duplicate"):
            parse_carbon("constant:intensity=4,intensity=5")
        with pytest.raises(ValueError, match="levels= and at="):
            parse_carbon("step:levels=1/2")
        with pytest.raises(ValueError, match="matching levels/at"):
            parse_carbon("step:levels=1/2,at=0").build()
        with pytest.raises(ValueError, match="empty"):
            parse_carbon("  ")

    def test_deferrable_spec_builds_jobs(self):
        spec = parse_deferrable(
            "jobs:count=3,duration=10,power=500,slack=2.0,start=5,every=20"
        )
        jobs = spec.build(100.0)
        assert [j.submit_s for j in jobs] == [5.0, 25.0, 45.0]
        assert all(j.duration_s == 10.0 and j.power_w == 500.0 for j in jobs)
        assert all(j.deadline_s == j.submit_s + 30.0 for j in jobs)
        assert len({j.name for j in jobs}) == 3
        # every= defaults to spreading the batch across the window.
        spread = parse_deferrable("jobs:count=4,duration=1,power=10").build(80.0)
        assert [j.submit_s for j in spread] == [0.0, 20.0, 40.0, 60.0]

    def test_deferrable_spec_errors(self):
        with pytest.raises(ValueError, match="duration= and power="):
            parse_deferrable("jobs:count=2")
        with pytest.raises(ValueError, match="only 'jobs'"):
            parse_deferrable("tasks:duration=1,power=1")
        with pytest.raises(ValueError, match="slack"):
            parse_deferrable("jobs:duration=1,power=1,slack=-1").build(10.0)


class TestFleetPowerSummary:
    def test_rows_fold_in_order(self):
        energy, avg = fleet_power_summary([(100.0, 2.0), (50.0, 4.0)], 10.0)
        assert energy == 400.0
        assert avg == 40.0

    def test_zero_horizon_never_divides_by_zero(self):
        """The shared seam clamps the horizon instead of raising -- the
        empty-run edge both the engine and the sharded merge hit."""
        energy, avg = fleet_power_summary([], 0.0)
        assert (energy, avg) == (0.0, 0.0)
        energy, avg = fleet_power_summary([(100.0, 2.0)], 0.0)
        assert energy == 200.0
        assert avg == 200.0 / 1e-9  # clamped, finite
        assert math.isfinite(avg)


class TestFleetIntegration:
    @pytest.fixture()
    def fleet_run(self, small_table):
        from repro.cluster.state import Allocation
        from repro.fleet import FleetSimulator, build_fleet, build_fleet_trace
        from repro.models import build_model
        from repro.sim import QueryWorkload

        models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
        workloads = {
            "DLRM-RMC1": QueryWorkload.for_model(
                models["DLRM-RMC1"].config.mean_query_size
            )
        }
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 2)
        qps = 2 * small_table.qps("T2", "DLRM-RMC1")
        trace = build_fleet_trace(
            workloads, {"DLRM-RMC1": [(0.5 * qps, 2.0)]}, seed=11
        )

        def run(core="auto"):
            servers = build_fleet(allocation, small_table, models, workloads)
            sim = FleetSimulator(
                servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0}, seed=5,
                core=core,
            )
            return sim, sim.run(trace, warmup_s=0.2)

        return run

    @staticmethod
    def _price(sim, result, carbon, jobs=(), **knobs):
        """Price a finished replay the way the ``fleet`` command does."""
        report = None
        if jobs:
            report = run_deferrable(
                jobs, carbon, horizon_s=sim.last_horizon_s,
                realtime_profile=realtime_power_profile(sim.servers), **knobs,
            )
        return attach_carbon(
            result, sim.servers, carbon, sim.last_horizon_s, report
        )

    def test_carbon_block_populates_and_is_deterministic(self, fleet_run):
        carbon = CarbonTrace.diurnal(period_s=2.0, steps=8)
        jobs = (
            DeferrableJob("a", 0.1, 0.3, 500.0, 1.9),
            DeferrableJob("b", 0.5, 0.2, 300.0, 1.8),
        )
        first, second = (
            self._price(
                *fleet_run(), carbon, jobs,
                policy="carbon-waiting", power_cap_w=4000.0,
            )
            for _ in range(2)
        )
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        stats = first.carbon
        assert stats is not None
        assert stats.realtime_g > 0.0
        assert stats.total_g == stats.realtime_g + stats.deferrable_g
        assert stats.jobs_submitted == 2
        assert stats.policy == "carbon-waiting"
        # The formatted report carries the carbon lines.
        assert "gCO2" in first.format()
        assert "carbon-waiting" in first.format()
        # And the unpriced run has no carbon key at all.
        _, dark = fleet_run()
        assert dark.carbon is None
        assert "carbon" not in dark.to_dict()

    def test_vector_core_prices_carbon(self, fleet_run):
        """The vector core records the python core's activation
        windows, so a carbon run prices identically on it."""
        carbon = CarbonTrace.constant(100.0)
        (py_sim, py), (vec_sim, vec) = fleet_run("python"), fleet_run("vector")
        assert [s.active_windows for s in vec_sim.servers] == [
            s.active_windows for s in py_sim.servers
        ]
        priced = self._price(vec_sim, vec, carbon)
        assert priced.carbon.realtime_g > 0.0
        assert priced.to_dict() == self._price(py_sim, py, carbon).to_dict()
