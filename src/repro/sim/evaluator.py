"""Closed-form steady-state evaluator for one (model, server, plan) point.

The gradient-based search (Algorithm 1) evaluates hundreds of candidate
scheduling configurations per workload/server pair; re-simulating each
with the discrete-event engine would be needlessly slow.  This module
computes the same quantities analytically:

- per-batch stage timings from the roofline op models, with co-location
  interference applied;
- steady-state capacity, queueing delay (M[X]/D/m approximation with
  bulk arrivals from query splitting), and p99 tail latency;
- component utilizations and wall power;
- the *latency-bounded throughput*: the largest arrival rate whose p99
  latency meets the SLA and whose power fits the provisioned budget.

The discrete-event simulator (:mod:`repro.sim.server_sim`) validates
these formulas; the integration tests compare the two.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.hardware.server import ServerType
from repro.hardware.power import ComponentUtilization
from repro.models.graph import Graph
from repro.models.partition import PartitionedModel
from repro.perf.interference import InterferenceModel
from repro.perf.nmp import NmpLut
from repro.perf.opmodel import CpuOpModel, GpuOpModel
from repro.perf.pcie import PcieLink
from repro.perf.opmodel import CPU_DISPATCH_OVERHEAD_S
from repro.perf.schedule import list_makespan
from repro.plans import ExecutionPlan, Placement
from repro.sim.metrics import LatencyStats, ServerPerformance
from repro.sim.plan_cache import model_key
from repro.sim.queries import QueryWorkload

__all__ = ["ServerEvaluator", "PlanTimings", "Stage"]

#: Exponential-tail multiplier turning a mean queueing delay into p99.
_P99_WAIT_FACTOR = 4.6
#: p95 multiplier under the same exponential approximation (ln 20).
_P95_WAIT_FACTOR = 3.0

#: Scattered sparse-index tensors achieve only a fraction of PCIe peak
#: (many small pinned-memory copies) -- this is what makes data loading
#: dominate for multi-hot models on GPUs (Fig. 7a).
SPARSE_TRANSFER_EFFICIENCY = 0.30

#: Utilization ceiling for the queueing model; beyond it the system is
#: considered overloaded.
_MAX_RHO = 0.995


@dataclass(frozen=True)
class Stage:
    """One pipelined execution stage of a plan.

    Attributes:
        name: ``"sparse"``, ``"dense"``, ``"loading"``, ``"inference"``.
        batch_s: Service time of one batch at this stage.
        units: Parallel service units (threads) at this stage.
        items_per_batch: Items one batch carries.
    """

    name: str
    batch_s: float
    units: int
    items_per_batch: float

    @property
    def capacity_items_s(self) -> float:
        if self.batch_s <= 0:
            return math.inf
        return self.units * self.items_per_batch / self.batch_s

    def span_s(self, query_size: int) -> float:
        """Time for this stage to process one whole query of given size."""
        batches = math.ceil(query_size / self.items_per_batch)
        rounds = math.ceil(batches / self.units)
        return rounds * self.batch_s


@dataclass(frozen=True)
class PlanTimings:
    """Load-independent timing/cost profile of one execution plan.

    Attributes:
        stages: Pipeline stages in traversal order.
        bulk_mean: Mean sub-batches per query (bulk-arrival factor).
        fill_items: Items that must accumulate before a batch launches
            (query fusion); 0 when batches form by splitting.
        cpu_core_s_per_item: Physical-core-seconds consumed per item.
        gpu_busy_s_per_item: GPU-seconds consumed per item.
        mem_bytes_per_item: Host memory traffic per item.
        gpu_power_util_scale: Scales GPU busy time into power-relevant
            utilization (small batches keep SMs idle but draw less).
    """

    stages: tuple[Stage, ...]
    bulk_mean: float
    fill_items: float
    cpu_core_s_per_item: float
    gpu_busy_s_per_item: float
    mem_bytes_per_item: float
    gpu_power_util_scale: float = 1.0

    def __hash__(self) -> int:
        # PlanTimings keys the shared span memo, which the bisection
        # hits millions of times; rehashing the stage tuple each lookup
        # dwarfed the memoized work, so the hash is computed once.
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            h = hash(
                (
                    self.stages,
                    self.bulk_mean,
                    self.fill_items,
                    self.cpu_core_s_per_item,
                    self.gpu_busy_s_per_item,
                    self.mem_bytes_per_item,
                    self.gpu_power_util_scale,
                )
            )
            object.__setattr__(self, "_hash_cache", h)
            return h

    @property
    def capacity_items_s(self) -> float:
        # Lazily cached: the latency-bounded bisection reads this once
        # per probed rate (frozen dataclass, so object.__setattr__).
        try:
            return object.__getattribute__(self, "_capacity_cache")
        except AttributeError:
            capacity = min(s.capacity_items_s for s in self.stages)
            object.__setattr__(self, "_capacity_cache", capacity)
            return capacity

    @property
    def bottleneck(self) -> Stage:
        try:
            return object.__getattribute__(self, "_bottleneck_cache")
        except AttributeError:
            stage = min(self.stages, key=lambda s: s.capacity_items_s)
            object.__setattr__(self, "_bottleneck_cache", stage)
            return stage

    def span_cache(self) -> dict:
        """Per-instance ``query_size -> service_span_s`` memo table."""
        try:
            return object.__getattribute__(self, "_span_cache")
        except AttributeError:
            cache: dict[int, float] = {}
            object.__setattr__(self, "_span_cache", cache)
            return cache

    def service_span_s(self, query_size: int) -> float:
        """End-to-end service time of one query (no queueing)."""
        return sum(s.span_s(query_size) for s in self.stages)

    def power_at(
        self, server: ServerType, items_per_s: float
    ) -> tuple[float, float, float, float]:
        """Utilization and wall power of ``server`` serving ``items_per_s``.

        The one power-at-rate model: the closed-form evaluator prices
        an offered rate with it, and the single-node DES, each fleet
        replica and the telemetry probe a measured one.  Returns
        ``(cpu_util, gpu_util, mem_util, power_w)``, each utilization
        clamped at 1; the GPU's power term is its busy fraction scaled
        by ``gpu_power_util_scale``.
        """
        cpu = min(1.0, items_per_s * self.cpu_core_s_per_item / server.cpu.cores)
        gpu = min(1.0, items_per_s * self.gpu_busy_s_per_item)
        mem = min(
            1.0, items_per_s * self.mem_bytes_per_item / server.memory.peak_bw_bytes
        )
        power = server.power_w(
            ComponentUtilization(
                cpu=cpu, memory=mem, gpu=gpu * self.gpu_power_util_scale
            )
        )
        return cpu, gpu, mem, power


class ServerEvaluator:
    """Evaluates execution plans for one server type.

    Args:
        server: The Table II server type.
        interference: Co-location interference model.
        nmp_lut: Pre-built NMP LUT; built automatically for NMP servers
            when omitted (mirrors the offline-profiling methodology).
        sparse_transfer_efficiency: Effective PCIe efficiency for
            scattered sparse-index payloads.
    """

    def __init__(
        self,
        server: ServerType,
        interference: InterferenceModel | None = None,
        nmp_lut: NmpLut | None = None,
        sparse_transfer_efficiency: float = SPARSE_TRANSFER_EFFICIENCY,
    ) -> None:
        if not 0 < sparse_transfer_efficiency <= 1:
            raise ValueError("sparse_transfer_efficiency must be in (0, 1]")
        self.server = server
        self.interference = interference or InterferenceModel()
        if server.has_nmp and nmp_lut is None:
            nmp_lut = NmpLut(server.memory)
        self.cpu_model = CpuOpModel(server.cpu, server.memory, nmp_lut)
        self.gpu_model = GpuOpModel(server.gpu) if server.has_gpu else None
        self.pcie = (
            PcieLink(bandwidth_bytes=server.gpu.pcie_bw_bytes)
            if server.has_gpu
            else None
        )
        self.sparse_transfer_efficiency = sparse_transfer_efficiency
        # Per-(graph, items) hoisted op components for the contention
        # fixpoint, and sink output bytes; id-keyed with pinning
        # (process-local by design).
        self._graph_profiles: dict[tuple, tuple] = {}
        self._output_bytes: dict[tuple, float] = {}
        self._pinned_graphs: dict[int, Graph] = {}
        # Per-model weight bytes for the host-memory fit check, keyed by
        # content (``model_key``): every CPU plan of a search re-checks it.
        self._weight_bytes: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def plan_timings(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
    ) -> PlanTimings:
        """Load-independent timing profile of ``plan``.

        A pure function of the arguments, computed on every call: the
        search scores each plan once and keeps only its operating
        point.  Callers that re-read the timings of a plan they run
        (fleet replicas, provisioning) share
        :func:`repro.sim.plan_cache.timings_for`'s memo.
        """
        if not plan.fits(self.server):
            raise ValueError(
                f"plan {plan.describe()} does not fit server {self.server.name}"
            )
        if not plan.placement.uses_gpu:
            key = model_key(partitioned.model)
            weights = self._weight_bytes.get(key)
            if weights is None:
                weights = partitioned.model.graph.total_weight_bytes()
                self._weight_bytes[key] = weights
            if weights > self.server.memory.capacity_bytes:
                raise ValueError(
                    f"{partitioned.name} needs {weights / 1e9:.0f} GB, host has "
                    f"{self.server.memory.capacity_bytes / 1e9:.0f} GB"
                )
        if plan.placement is Placement.CPU_MODEL_BASED:
            return self._cpu_model_based(partitioned, workload, plan)
        if plan.placement is Placement.CPU_SD_PIPELINE:
            return self._cpu_sd_pipeline(partitioned, workload, plan)
        if plan.placement is Placement.GPU_SD:
            return self._gpu_sd(partitioned, workload, plan)
        if plan.placement is Placement.GPU_MODEL_BASED:
            return self._gpu_model_based(partitioned, workload, plan)
        raise AssertionError(f"unhandled placement {plan.placement}")

    def evaluate(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
        arrival_qps: float,
        power_budget_w: float | None = None,
    ) -> ServerPerformance:
        """Steady-state performance at a fixed arrival rate."""
        try:
            timings = self.plan_timings(partitioned, workload, plan)
        except ValueError as exc:
            return ServerPerformance.infeasible(str(exc))
        return self.perf_at(timings, workload, arrival_qps, power_budget_w)

    def latency_bounded(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
        sla_ms: float,
        power_budget_w: float | None = None,
    ) -> ServerPerformance:
        """Latency-bounded throughput: max QPS meeting SLA and power budget.

        This is the offline-profiling measurement the efficiency tuple
        records (Section IV-A).
        """
        try:
            timings = self.plan_timings(partitioned, workload, plan)
        except ValueError as exc:
            return ServerPerformance.infeasible(str(exc))

        capacity_qps = timings.capacity_items_s / workload.mean_size
        if not math.isfinite(capacity_qps) or capacity_qps <= 0:
            return ServerPerformance.infeasible("plan has no capacity")

        meets_sla = self._sla_probe(timings, workload, sla_ms, power_budget_w)

        # Find a feasible anchor scanning down from capacity, then
        # bisect between it and the lowest infeasible rate above it.
        fractions = (0.98, 0.95, 0.9, 0.8, 0.65, 0.5, 0.35, 0.2, 0.1, 0.05, 0.02)
        hi = capacity_qps
        for frac in fractions:
            lo = capacity_qps * frac
            if meets_sla(lo):
                break
            hi = lo
        else:
            return ServerPerformance.infeasible(
                f"SLA {sla_ms} ms unreachable at any load"
            )
        for _ in range(24):
            mid = (lo + hi) / 2.0
            if meets_sla(mid):
                lo = mid
            else:
                hi = mid
        # The probe decides exactly as perf_at does, so the operating
        # point is built once, at the winning rate.
        return self.perf_at(timings, workload, lo, power_budget_w)

    def _sla_probe(
        self,
        timings: PlanTimings,
        workload: QueryWorkload,
        sla_ms: float,
        power_budget_w: float | None,
    ) -> Callable[[float], bool]:
        """``qps -> bool``: is ``perf_at(timings, workload, qps,
        power_budget_w)`` feasible with its p99 within ``sla_ms``?

        Without a power budget only the utilization check and the p99
        arithmetic decide that, so the probe evaluates exactly those, in
        :meth:`perf_at`'s operation order, and builds nothing.  With a
        budget, power decides too and the probe calls :meth:`perf_at`.
        """
        if power_budget_w is not None:

            def meets_sla(qps: float) -> bool:
                perf = self.perf_at(timings, workload, qps, power_budget_w)
                return perf.feasible and perf.latency.p99_ms <= sla_ms

            return meets_sla

        mean_size = workload.mean_size
        capacity = timings.capacity_items_s
        half_bulk = timings.bulk_mean / 2.0
        units = timings.bottleneck.units
        batch_s = timings.bottleneck.batch_s
        fill_items = timings.fill_items
        spans = timings.span_cache()
        tail = workload.tail_size(99.0)
        tail_span = spans.get(tail)
        if tail_span is None:
            tail_span = spans[tail] = timings.service_span_s(tail)

        def meets_sla(qps: float) -> bool:
            arrival_items = qps * mean_size
            rho = arrival_items / capacity
            if rho >= _MAX_RHO:
                return False
            wait_mean = half_bulk * rho / (units * (1.0 - rho)) * batch_s
            fill_s = fill_items / arrival_items if fill_items > 0 else 0.0
            p99_ms = (_P99_WAIT_FACTOR * wait_mean + fill_s + tail_span) * 1e3
            return p99_ms <= sla_ms

        return meets_sla

    # ------------------------------------------------------------------
    # queueing + power
    # ------------------------------------------------------------------

    def perf_at(
        self,
        timings: PlanTimings,
        workload: QueryWorkload,
        arrival_qps: float,
        power_budget_w: float | None = None,
    ) -> ServerPerformance:
        """Queueing-model performance at a given arrival rate."""
        if arrival_qps <= 0:
            raise ValueError("arrival rate must be positive")
        arrival_items = arrival_qps * workload.mean_size
        rho = arrival_items / timings.capacity_items_s
        if rho >= _MAX_RHO:
            return ServerPerformance.infeasible(
                f"overloaded: rho={rho:.3f} at {arrival_qps:.1f} qps"
            )

        bottleneck = timings.bottleneck
        wait_mean = (
            (timings.bulk_mean / 2.0)
            * rho
            / (bottleneck.units * (1.0 - rho))
            * bottleneck.batch_s
        )
        fill_s = (
            timings.fill_items / arrival_items if timings.fill_items > 0 else 0.0
        )

        # Spans are memoized per (timings, size): the latency-bounded
        # bisection re-evaluates the same four percentile sizes for
        # every probed rate.  Inlined dict probes on the per-instance
        # span table -- this is the innermost loop of the whole
        # offline profiling pass.
        spans = timings.span_cache()
        tail_size = workload.tail_size
        sizes = (tail_size(50.0), tail_size(95.0), tail_size(99.0),
                 int(workload.mean_size))
        vals = []
        for size in sizes:
            span = spans.get(size)
            if span is None:
                span = timings.service_span_s(size)
                spans[size] = span
            vals.append(span)
        latency = LatencyStats(
            p50_ms=(wait_mean + fill_s + vals[0]) * 1e3,
            p95_ms=(_P95_WAIT_FACTOR * wait_mean + fill_s + vals[1]) * 1e3,
            p99_ms=(_P99_WAIT_FACTOR * wait_mean + fill_s + vals[2]) * 1e3,
            mean_ms=(wait_mean + fill_s + vals[3]) * 1e3,
        )

        cpu_util, gpu_util, mem_util, power = timings.power_at(
            self.server, arrival_items
        )
        if power_budget_w is not None and power > power_budget_w:
            return ServerPerformance.infeasible(
                f"power {power:.0f} W exceeds budget {power_budget_w:.0f} W",
                power_w=power,
            )

        # Stage breakdown of *mean* latency, the quantity Fig. 7 plots:
        # queuing (wait + fusion fill), data loading, model inference.
        mean_size = int(workload.mean_size)
        total = latency.mean_ms / 1e3
        queuing = wait_mean + fill_s
        loading = sum(
            s.span_s(mean_size) for s in timings.stages if s.name == "loading"
        )
        breakdown = {
            "queuing": queuing / total if total else 0.0,
            "loading": loading / total if total else 0.0,
            "inference": max(0.0, 1.0 - (queuing + loading) / total) if total else 0.0,
        }
        return ServerPerformance(
            qps=arrival_qps,
            latency=latency,
            power_w=power,
            cpu_util=cpu_util,
            gpu_util=gpu_util,
            mem_util=mem_util,
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    # placement-specific timing models
    # ------------------------------------------------------------------

    def _graph_profile(self, graph: Graph, items: int) -> tuple:
        """Hoisted per-(graph, items) inputs of the contention fixpoint.

        Returns ``(nodes, deps, mem_bytes, nmp_bytes)``, index-keyed in
        the graph's topological order:

        - ``nodes``: per node ``(overhead_s, compute_s, is_sparse,
          mem_term, bw)`` -- exactly the values
          :meth:`CpuOpModel.op_timing` derives before applying
          ``bw_fraction``, whose memory time is ``mem_term / (bw *
          bw_fraction)``: ``mem_bytes`` at the roofline bandwidth, or
          the NMP LUT latency with ``bw = 1.0`` (``1.0 * f`` is exactly
          ``f``).  Hoisting them keeps the bisection's per-share work
          to one divide and two multiplies per node.
        - ``deps``: per node, the indices of its dependencies -- the
          topology :func:`list_makespan` schedules.
        - ``mem_bytes`` / ``nmp_bytes``: :meth:`Graph.total_mem_bytes`
          and the NMP-eligible share of it (0.0 off NMP servers).

        Keyed by object identity (graphs are long-lived partition
        members, pinned here); this cache never crosses processes.
        """
        key = (id(graph), items)
        cached = self._graph_profiles.get(key)
        if cached is not None:
            return cached
        cpu_model = self.cpu_model
        nmp_ok = self.server.memory.is_nmp
        gather_bw = self.server.memory.gather_bw_bytes
        peak_bw = self.server.memory.peak_bw_bytes
        nodes = []
        for node in graph:
            op = node.op
            is_sparse = op.kind.is_sparse
            if is_sparse and nmp_ok and cpu_model._nmp_eligible(op):
                # NMP path: compute_s is 0, memory term is the LUT
                # latency scaled by 1/share.
                assert cpu_model.nmp_lut is not None
                nodes.append(
                    (CPU_DISPATCH_OVERHEAD_S, 0.0, True,
                     cpu_model.nmp_lut.latency_s(op, items), 1.0)
                )
            else:
                timing = cpu_model.op_timing(op, items, 1.0)
                bw = gather_bw if is_sparse else peak_bw
                nodes.append(
                    (timing.overhead_s, timing.compute_s, is_sparse,
                     op.mem_bytes(items), bw)
                )
        index = {name: i for i, name in enumerate(graph.node_names)}
        deps = tuple(tuple(index[d] for d in n.deps) for n in graph)
        nmp_bytes = (
            sum(n.op.mem_bytes(items) for n in graph if cpu_model._nmp_eligible(n.op))
            if nmp_ok
            else 0.0
        )
        profile = (tuple(nodes), deps, graph.total_mem_bytes(items), nmp_bytes)
        self._graph_profiles[key] = profile
        self._pinned_graphs[id(graph)] = graph
        return profile

    def _cpu_graph_timing(
        self,
        graph: Graph,
        items: int,
        workers: int,
        co_located_threads: int,
        mem_scale: float = 1.0,
    ) -> tuple[float, float, float]:
        """(makespan_s, busy_core_s, mem_bytes) for one batch on the host.

        Applies a two-pass interference fixpoint: timings are computed
        contention-free, aggregate bandwidth demand is derived, and the
        memory components are rescaled by the resulting share.
        """
        nodes, deps, graph_bytes, graph_nmp_bytes = self._graph_profile(graph, items)
        rows = [
            (overhead, compute_s * mem_scale if is_sparse else compute_s, mem_term, bw)
            for overhead, compute_s, is_sparse, mem_term, bw in nodes
        ]

        def latencies(f: float) -> list[float]:
            # Bit-identical to per-node ``op_timing(op, items, f)`` with
            # the memory term scaled by mem_scale, in the un-hoisted
            # operation order; ``m if m > c else c`` is ``max(c, m)``.
            return [
                overhead
                + (m if (m := mem_term / (bw * f) * mem_scale) > compute else compute)
                for overhead, compute, mem_term, bw in rows
            ]

        mem_bytes = graph_bytes * mem_scale
        nmp_bytes = graph_nmp_bytes * mem_scale
        host_bytes = mem_bytes - nmp_bytes
        inflation = self.interference.llc_inflation(co_located_threads)

        # Rank-side NMP traffic contends against the rank-parallel
        # gather-reduce bandwidth; everything else against the host
        # gather bandwidth.  One share throttles all memory ops, so the
        # binding pool wins.  Co-location degrades the *achievable*
        # peak itself (more threads -> more row-buffer conflicts and LLC
        # thrashing) -- the effect that makes 10x2 beat 20x1 on
        # memory-dominated models (Fig. 4).
        f_max = 1.0 / inflation
        # Both share searches open at the full share, and an uncontended
        # batch runs at it: the schedule is a pure function of the
        # share, so it is computed once.
        full = list_makespan(deps, latencies(f_max), workers)

        def span_at(f: float) -> float:
            if f == f_max:
                return full[0]
            return list_makespan(deps, latencies(f), workers)[0]

        memory = self.server.memory
        effective = min(
            _saturating_share(
                span_at,
                co_located_threads * host_bytes,
                memory.gather_bw_bytes / inflation,
                f_max,
            ),
            _saturating_share(
                span_at,
                co_located_threads * nmp_bytes,
                memory.nmp_gather_reduce_bw_bytes / inflation,
                f_max,
            ),
        )
        if effective == f_max:
            makespan, busy = full
        else:
            makespan, busy = list_makespan(deps, latencies(effective), workers)
        return makespan, busy, mem_bytes

    def _sink_output_bytes(self, graph: Graph, items: int) -> float:
        """:meth:`Graph.total_output_bytes`, memoized per (graph, items)
        like :meth:`_graph_profile` (every plan of a search re-reads it)."""
        key = (id(graph), items)
        out = self._output_bytes.get(key)
        if out is None:
            out = self._output_bytes[key] = graph.total_output_bytes(items)
            self._pinned_graphs[id(graph)] = graph
        return out

    def _cpu_model_based(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
    ) -> PlanTimings:
        """Whole-graph execution on co-located host threads (Fig. 10, base)."""
        d = plan.batch_size
        m = plan.threads
        makespan, busy, mem_bytes = self._cpu_graph_timing(
            partitioned.model.graph, d, plan.cores_per_thread, m
        )
        stage = Stage(name="inference", batch_s=makespan, units=m, items_per_batch=d)
        bulk = max(1.0, workload.mean_size / d)
        return PlanTimings(
            stages=(stage,),
            bulk_mean=bulk,
            fill_items=0.0,
            cpu_core_s_per_item=busy / d,
            gpu_busy_s_per_item=0.0,
            mem_bytes_per_item=mem_bytes / d,
        )

    def _cpu_sd_pipeline(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
    ) -> PlanTimings:
        """SparseNet and DenseNet threads pipelined on the host (Fig. 10b)."""
        d = plan.batch_size
        total_threads = plan.sparse_threads + plan.dense_threads
        sparse_span, sparse_busy, sparse_bytes = self._cpu_graph_timing(
            partitioned.sparse, d, plan.sparse_cores, total_threads
        )
        dense_span, dense_busy, dense_bytes = self._cpu_graph_timing(
            partitioned.dense, d, 1, total_threads
        )
        # Pooled sparse output crosses a host-side queue.
        queue_bytes = self._sink_output_bytes(partitioned.sparse, d)
        queue_s = queue_bytes / self.server.memory.peak_bw_bytes
        stages = (
            Stage("sparse", sparse_span, plan.sparse_threads, d),
            Stage("dense", dense_span + queue_s, plan.dense_threads, d),
        )
        bulk = max(1.0, workload.mean_size / d)
        return PlanTimings(
            stages=stages,
            bulk_mean=bulk,
            fill_items=0.0,
            cpu_core_s_per_item=(sparse_busy + dense_busy) / d,
            gpu_busy_s_per_item=0.0,
            mem_bytes_per_item=(sparse_bytes + dense_bytes + queue_bytes) / d,
        )

    def _fused_batch_items(
        self, workload: QueryWorkload, plan: ExecutionPlan
    ) -> float:
        """Items per accelerator batch: fusion limit or one mean query."""
        if plan.fusion_limit > 0:
            return float(plan.fusion_limit)
        return float(workload.mean_size)

    def _gpu_graph_time(self, graph: Graph, items: int, co_located: int) -> float:
        """Sequential kernel execution of a (sub-)graph on the GPU."""
        assert self.gpu_model is not None
        return sum(
            self.gpu_model.op_timing(node.op, items, co_located).latency_s
            for node in graph
        )

    def _gpu_sd(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
    ) -> PlanTimings:
        """SparseNet on host, DenseNet on the accelerator (Fig. 10c)."""
        assert self.pcie is not None and self.gpu_model is not None
        d = plan.batch_size
        g = plan.threads
        sparse_span, sparse_busy, sparse_bytes = self._cpu_graph_timing(
            partitioned.sparse, d, plan.sparse_cores, plan.sparse_threads
        )
        b = int(self._fused_batch_items(workload, plan))
        # Pooled sparse vectors + dense features transit PCIe.
        payload = self._sink_output_bytes(partitioned.sparse, b)
        payload += b * partitioned.model.config.dense_in * 4.0
        load_s = self.pcie.transfer_s(payload, sharers=g)
        infer_s = self._gpu_graph_time(partitioned.dense, b, g)
        stages = (
            Stage("sparse", sparse_span, plan.sparse_threads, d),
            Stage("loading", load_s, g, b),
            Stage("inference", infer_s, g, b),
        )
        # infer_s already includes the 1/g device share, so whole-device
        # busy seconds per item divide back by g.
        gpu_busy = infer_s / (b * g)
        return PlanTimings(
            stages=stages,
            bulk_mean=max(1.0, workload.mean_size / d),
            fill_items=float(plan.fusion_limit),
            cpu_core_s_per_item=sparse_busy / d,
            gpu_busy_s_per_item=gpu_busy,
            mem_bytes_per_item=sparse_bytes / d,
            gpu_power_util_scale=self.gpu_model.gpu.utilization(b),
        )

    def _gpu_model_based(
        self,
        partitioned: PartitionedModel,
        workload: QueryWorkload,
        plan: ExecutionPlan,
    ) -> PlanTimings:
        """Hot-SparseNet + DenseNet on the accelerator (Fig. 10d).

        The host serves the cold fraction of lookups and forwards the
        partial sums; sparse indices for hot lookups cross PCIe as
        scattered tensors at reduced efficiency.
        """
        assert self.pcie is not None and self.gpu_model is not None
        if partitioned.hot_sparse is None:
            raise ValueError(
                "GPU model-based placement requires a hot-sparse partition "
                "(partition the model with the device memory budget)"
            )
        g = plan.threads
        b = int(self._fused_batch_items(workload, plan))
        hit = partitioned.hot_hit_rate
        miss = partitioned.cold_miss_rate

        weights = (
            partitioned.hot_sparse.total_weight_bytes()
            + partitioned.dense.total_weight_bytes()
        )
        gpu_mem = self.gpu_model.gpu.memory_bytes
        if weights * g > gpu_mem * 1.05:
            raise ValueError(
                f"{g} co-located threads need {weights * g / 1e9:.1f} GB "
                f"> {gpu_mem / 1e9:.0f} GB device memory"
            )

        # Data loading: hot indices (scattered), cold partial sums,
        # dense features.
        index_bytes = partitioned.sparse.total_input_bytes(b) * hit
        payload = index_bytes / self.sparse_transfer_efficiency
        if miss > 0:
            payload += self._sink_output_bytes(partitioned.sparse, b)
        payload += b * partitioned.model.config.dense_in * 4.0
        load_s = self.pcie.transfer_s(payload, sharers=g)

        infer_s = self._gpu_graph_time(partitioned.hot_sparse, b, g)
        infer_s += self._gpu_graph_time(partitioned.dense, b, g)

        stages = [
            Stage("loading", load_s, g, b),
            Stage("inference", infer_s, g, b),
        ]
        cpu_core_s_per_item = 0.0
        mem_bytes_per_item = 0.0
        if miss > 0:
            if plan.sparse_threads < 1:
                raise ValueError(
                    f"{partitioned.name}: cold miss rate {miss:.2f} needs host "
                    "sparse threads (plan.sparse_threads = 0)"
                )
            d = plan.batch_size
            cold_span, cold_busy, cold_bytes = self._cpu_graph_timing(
                partitioned.sparse,
                d,
                plan.sparse_cores,
                plan.sparse_threads,
                mem_scale=miss,
            )
            stages.insert(0, Stage("sparse", cold_span, plan.sparse_threads, d))
            cpu_core_s_per_item = cold_busy / d
            mem_bytes_per_item = cold_bytes / d

        gpu_busy = infer_s / (b * g)
        return PlanTimings(
            stages=tuple(stages),
            bulk_mean=1.0,
            fill_items=float(plan.fusion_limit),
            cpu_core_s_per_item=cpu_core_s_per_item,
            gpu_busy_s_per_item=gpu_busy,
            mem_bytes_per_item=mem_bytes_per_item,
            gpu_power_util_scale=self.gpu_model.gpu.utilization(b),
        )


#: Steps of the host bandwidth-share bisection, and its lower end.
_SHARE_STEPS = 24
_MIN_SHARE = 1e-3
#: Guess-and-verify rounds that narrow the evaluated bracket before
#: :func:`_saturating_share` replays the bisection.
_GUESS_ROUNDS = 6


def _guess_walk(f_max: float, guess: float) -> tuple[float, float]:
    """The fixed share bisection walked as if exactly the shares ``<=
    guess`` passed.

    Returns the walk's last passing and last failing midpoints
    (``-inf`` / ``inf`` when it has none).  Passing midpoints rise along
    a walk and failing ones fall, so these are its largest passing and
    smallest failing midpoints.
    """
    lo, hi = _MIN_SHARE, f_max
    last_pass, last_fail = -math.inf, math.inf
    for _ in range(_SHARE_STEPS):
        mid = (lo + hi) / 2.0
        if mid <= guess:
            lo = last_pass = mid
        else:
            hi = last_fail = mid
    return last_pass, last_fail


def _saturating_share(
    span_at: Callable[[float], float],
    demand: float,
    peak_eff: float,
    f_max: float,
) -> float:
    """The bandwidth share at which a memory pool's demand hits its peak.

    ``span_at(f)`` is the graph's makespan with every memory term
    scaled by ``1/f``; ``demand`` is the co-located threads times the
    pool's bytes per batch, so ``demand / span_at(f)`` is the achieved
    aggregate bandwidth.  If even ``f_max`` keeps it within
    ``peak_eff`` there is no contention and the result is ``f_max``.
    Otherwise the result is exactly the ``lo`` of the fixed 24-step
    bisection of ``[1e-3, f_max]`` on ``demand / span_at(mid) <=
    peak_eff``, which evaluates every midpoint.

    **The predicate holds on a prefix of shares.**

    - Each node latency ``overhead + max(compute, mem_term / (bw * f)
      * mem_scale)`` is non-increasing in ``f``: ``bw``, ``mem_scale``
      and ``f`` are positive, and every operation on that path is
      monotone under round-to-nearest.
    - :func:`list_makespan` dispatches the nodes in a fixed topological
      order, each to the earliest-free worker.  By induction over the
      nodes, lowering latencies lowers every finish time and every
      entry of the sorted worker-free vector: order statistics are
      monotone, and no node is dispatched out of order, so Graham's
      list-scheduling anomaly cannot occur.  The span is therefore
      non-increasing in ``f``, and ``demand / span`` non-decreasing.

    So a midpoint at or below an evaluated passing share passes, and
    one at or above an evaluated failing share fails.  The search keeps
    the evaluated bracket ``(yes, no)`` and replays the bisection,
    evaluating only the midpoints strictly inside it: the result is the
    fixed bisection's, whichever shares the bracket came from.

    **Tightening the bracket first.**  After the first midpoint, which
    the bisection always evaluates, each round guesses the threshold by
    a secant in ``x = 1/f`` through the last two evaluated shares (on a
    stretch where the same ops are memory-bound, the span is affine in
    ``1/f``), walks the bisection with the guessed outcomes, and
    evaluates only the walk's last passing and last failing midpoints.
    If both confirm the guess, every midpoint of the walk is decided:
    the walk is the bisection's own path, and the replay evaluates
    nothing.  If not, they tighten the bracket for the next round.  A
    degenerate fit (equal spans, ``x <= 0``, or a guess outside the
    bracket) guesses the bracket's midpoint instead.  After
    ``_GUESS_ROUNDS`` rounds the replay evaluates whatever midpoints
    the bracket leaves open.
    """
    if demand <= 0:
        return f_max
    span = span_at(f_max)
    if demand / span <= peak_eff:
        return f_max
    # The span at which the predicate flips, for the secant.
    target = demand / peak_eff if peak_eff > 0 else math.inf
    yes, no = -math.inf, f_max
    # The last two evaluated ``(share, span)`` points, for the secant.
    last = before = (f_max, span)

    def evaluate(f: float) -> None:
        nonlocal yes, no, last, before
        span = span_at(f)
        before, last = last, (f, span)
        if demand / span <= peak_eff:
            yes = f
        else:
            no = f

    evaluate((_MIN_SHARE + f_max) / 2.0)
    for _ in range(_GUESS_ROUNDS):
        (f1, span1), (f2, span2) = last, before
        x = (
            1.0 / f1 + (target - span1) * (1.0 / f2 - 1.0 / f1) / (span2 - span1)
            if span2 != span1
            else 0.0
        )
        guess = 1.0 / x if x > 0.0 else math.nan
        if not yes < guess < no:
            guess = (max(yes, _MIN_SHARE) + no) / 2.0
        probed = False
        for f in _guess_walk(f_max, guess):
            if yes < f < no:
                evaluate(f)
                probed = True
        if not probed:
            break
    lo, hi = _MIN_SHARE, f_max
    for _ in range(_SHARE_STEPS):
        mid = (lo + hi) / 2.0
        if mid <= yes or (mid < no and demand / span_at(mid) <= peak_eff):
            lo = mid
        else:
            hi = mid
    return lo
