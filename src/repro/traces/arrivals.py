"""Arrival processes: first-class workload-traffic models.

Every consumer in the repo used to hard-code piecewise-Poisson arrivals
materialized into one sorted query list.  This module makes the arrival
process itself a pluggable object: a :class:`ArrivalProcess` describes
*how* traffic arrives (steady Poisson, Markov-modulated bursts, diurnal
ramps, superpositions).

The primitive every process implements is ``blocks(seed)``: it lazily
yields time-sorted ``(t, size, pooling)`` numpy arrays, one segment at
a time, exactly as the process draws them -- so a multi-million-query
replay never holds the whole trace in memory, and a columnar consumer
never sees a Python object per arrival.  Rows are derived from blocks
in one place: ``stream()`` turns them into consecutive-id
:class:`~repro.sim.queries.Query` records.

Two shapes flow through the repo:

- single-model streams (``Iterator[Query]``) feed the single-node DES;
- multi-model streams (``Iterator[(model_name, Query)]``) feed the
  fleet engine.  :class:`FleetArrivals` merges per-model block streams
  into one time-sorted stream and is *re-iterable*: each ``iter()``
  restarts the replay, which is what lets the fault-aware provisioner
  replay the same traffic at every candidate ``R``.  The iterator it
  returns yields rows, or -- to a bulk consumer that asks before
  pulling any row (the vectorized fleet core) -- hands over the merged
  ``(t, size, pooling, model_index)`` blocks instead.

One block merge serves :class:`SuperposedProcess` and
:class:`FleetArrivals`.  It emits only arrivals strictly earlier than
the smallest last-buffered time among the sources that may still
yield, ordered by (time, source index, position): ``heapq.merge``'s
order, so ties resolve exactly as the legacy row-at-a-time merge did.

Bit-compatibility: :class:`PiecewisePoissonProcess` reproduces the
legacy ``repro.sim.loadgen`` draw sequence exactly (same per-segment
seeds, same vectorized numpy draws), and :class:`FleetArrivals` over
such processes reproduces the legacy ``build_fleet_trace`` merge order
element-for-element -- ``tests/test_perf_equivalence.py`` pins both
with ``==`` on floats.

HPC benchmarking practice (RZBENCH; the Broadwell/Cascade Lake
characterizations) warns that synthetic-only inputs flatter
steady-state designs; :mod:`repro.traces.recorded` adds measured-trace
replay on the same row protocol.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.sim.queries import Query, QueryWorkload

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "PiecewisePoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "SuperposedProcess",
    "FleetArrivals",
    "poisson_segment",
    "MODEL_SEED_STRIDE",
]

#: Per-model seed offset stride the fleet trace builder has always used
#: (models in sorted-name order draw from disjoint seed lanes).
MODEL_SEED_STRIDE = 7919

#: One block of arrivals: ``(arrival_s, size, pooling_scale)`` arrays of
#: equal length (float64, int64, float64), sorted by arrival time.
Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _draw_block(
    workload: QueryWorkload,
    rng: np.random.Generator,
    arrival_rate_qps: float,
    start_s: float,
    duration_s: float,
) -> Block | None:
    """One Poisson segment's arrays, or ``None`` when it drew none.

    Draw the arrival count then sort uniforms: equivalent to a Poisson
    process without growing a list of exponential gaps.  Nothing is
    drawn after a zero count, so processes that run one generator
    through many segments (MMPP dwells, diurnal noise) stay on the
    historically pinned sequence.
    """
    if not arrival_rate_qps > 0:
        return None
    count = int(rng.poisson(arrival_rate_qps * duration_s))
    if count == 0:
        return None
    times = np.sort(rng.uniform(0.0, duration_s, size=count)) + start_s
    sizes = workload.size_dist.sample(rng, count)
    if workload.pooling_cv > 0:
        shape = 1.0 / workload.pooling_cv**2
        pooling = np.maximum(rng.gamma(shape, 1.0 / shape, size=count), 1e-3)
    else:
        pooling = np.ones(count)
    return times, sizes, pooling


def _query_rows(ids: Iterable[int], t, size, pooling) -> Iterator[Query]:
    """:class:`Query` records for one block.

    ``tolist`` converts each column to Python scalars in one C pass, and
    ``tuple.__new__`` builds each record as ``Query._make`` does, minus
    its Python frame: per-field validation is skipped because every
    field is already validated in bulk (sizes clipped >= min_size >= 1,
    times shifted by a non-negative start, pooling clamped positive).
    """
    return map(
        tuple.__new__,
        repeat(Query),
        zip(ids, t.tolist(), size.tolist(), pooling.tolist()),
    )


def poisson_segment(
    workload: QueryWorkload,
    arrival_rate_qps: float,
    duration_s: float,
    seed: int = 0,
    start_s: float = 0.0,
    first_id: int = 0,
) -> list[Query]:
    """One fully-drawn Poisson segment (the legacy loadgen core).

    ``repro.sim.loadgen.generate_trace`` is a thin wrapper around this
    function, so the draw sequence here is the historically pinned one
    -- change it and the float-equivalence suite fails.
    """
    # Negated comparisons so NaN fails them too.
    if not 0 < arrival_rate_qps < math.inf:
        raise ValueError("arrival rate must be positive and finite")
    if not 0 < duration_s < math.inf:
        raise ValueError("duration must be positive and finite")
    block = _draw_block(
        workload, np.random.default_rng(seed), arrival_rate_qps, start_s,
        duration_s,
    )
    if block is None:
        return []
    return list(_query_rows(range(first_id, first_id + len(block[0])), *block))


class ArrivalProcess:
    """One model's arrival traffic, described as a process.

    Subclasses implement :meth:`blocks`, lazily yielding time-sorted
    :data:`Block` arrays drawn from ``seed``; :meth:`stream` derives
    :class:`Query` records with non-decreasing ``arrival_s`` and
    consecutive ids from ``first_id``.  The three derived quantities
    every consumer needs are part of the protocol:

    - ``end_s`` -- the nominal end of the process (the replay horizon
      hint used to bound stochastic fault draws and autoscaler
      windows); ``None`` when unknown without a scan.
    - ``mean_qps`` -- the time-averaged offered rate (used to size
      fleets and SLAs against capacity).
    - ``peak_qps`` -- the highest instantaneous segment rate (what a
      provisioner must cover).
    """

    workload: QueryWorkload

    @property
    def end_s(self) -> float | None:
        raise NotImplementedError

    @property
    def mean_qps(self) -> float:
        raise NotImplementedError

    @property
    def peak_qps(self) -> float:
        return self.mean_qps

    def blocks(self, seed: int = 0) -> Iterator[Block]:
        raise NotImplementedError

    def stream(self, seed: int = 0, first_id: int = 0) -> Iterator[Query]:
        next_id = first_id
        for t, size, pooling in self.blocks(seed):
            yield from _query_rows(
                range(next_id, next_id + len(t)), t, size, pooling
            )
            next_id += len(t)

    def materialize(self, seed: int = 0, first_id: int = 0) -> list[Query]:
        """The fully-drawn trace (legacy list shape)."""
        return list(self.stream(seed=seed, first_id=first_id))


class PiecewisePoissonProcess(ArrivalProcess):
    """Chained constant-rate Poisson segments (the legacy workload).

    Args:
        workload: Size/pooling distributions to sample.
        segments: ``(qps, duration_s)`` chain laid back to back from
            t=0.  Segments with non-positive rate or duration are
            skipped (a positive duration still advances the clock),
            exactly as the legacy fleet trace builder did.
        seed_offset / seed_stride: Segment ``s`` draws with seed
            ``seed + seed_offset + seed_stride * s`` -- the historical
            schedule (offset 0, stride 1) by default.
    """

    def __init__(
        self,
        workload: QueryWorkload,
        segments: Sequence[tuple[float, float]],
        seed_offset: int = 0,
        seed_stride: int = 1,
    ) -> None:
        self.workload = workload
        self.segments = tuple((float(q), float(d)) for q, d in segments)
        if not self.segments:
            raise ValueError("need at least one segment")
        for q, d in self.segments:
            if not (-math.inf < q < math.inf and -math.inf < d < math.inf):
                raise ValueError(
                    "segment rates and durations must be finite, got "
                    f"({q!r}, {d!r})"
                )
        if not sum(max(d, 0.0) for _, d in self.segments) > 0:
            raise ValueError("need positive total duration")
        self.seed_offset = seed_offset
        self.seed_stride = seed_stride

    @property
    def end_s(self) -> float:
        return sum(max(d, 0.0) for _, d in self.segments)

    @property
    def mean_qps(self) -> float:
        total = self.end_s
        return (
            sum(max(q, 0.0) * d for q, d in self.segments if d > 0) / total
        )

    @property
    def peak_qps(self) -> float:
        return max(q for q, _ in self.segments)

    def blocks(self, seed: int = 0) -> Iterator[Block]:
        clock = 0.0
        for s_idx, (qps, dur) in enumerate(self.segments):
            if qps > 0 and dur > 0:
                rng = np.random.default_rng(
                    seed + self.seed_offset + self.seed_stride * s_idx
                )
                block = _draw_block(self.workload, rng, qps, clock, dur)
                if block is not None:
                    yield block
            clock += dur


class PoissonProcess(PiecewisePoissonProcess):
    """A single constant-rate Poisson segment."""

    def __init__(
        self, workload: QueryWorkload, qps: float, duration_s: float
    ) -> None:
        if not 0 < qps < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        if not 0 < duration_s < math.inf:
            raise ValueError("duration must be positive and finite")
        super().__init__(workload, [(qps, duration_s)])


class MMPPProcess(ArrivalProcess):
    """Markov-modulated Poisson process: bursty, correlated arrivals.

    The process cycles through ``rates`` states; state ``k`` lasts an
    exponential dwell with mean ``dwell_s[k]`` and emits Poisson
    arrivals at ``rates[k]``.  A two-state (low/high) configuration is
    the classic burst model: long quiet stretches punctured by short
    storms whose *within-storm* rate far exceeds the mean -- the
    traffic shape that makes steady-state tail numbers lie.

    Memory: one dwell's arrivals at a time.
    """

    def __init__(
        self,
        workload: QueryWorkload,
        rates: Sequence[float],
        dwell_s: Sequence[float] | float,
        duration_s: float,
    ) -> None:
        self.workload = workload
        self.rates = tuple(float(r) for r in rates)
        if len(self.rates) < 2:
            raise ValueError("MMPP needs at least two states")
        if any(not 0 <= r < math.inf for r in self.rates):
            raise ValueError("state rates must be finite and >= 0")
        if not max(self.rates) > 0:
            raise ValueError("at least one state rate must be positive")
        if isinstance(dwell_s, (int, float)):
            dwell_s = [float(dwell_s)] * len(self.rates)
        self.dwell_s = tuple(float(d) for d in dwell_s)
        if len(self.dwell_s) != len(self.rates):
            raise ValueError("need one dwell time per state")
        if any(not 0 < d < math.inf for d in self.dwell_s):
            raise ValueError("dwell times must be finite and > 0")
        if not 0 < duration_s < math.inf:
            raise ValueError("duration must be positive and finite")
        self.duration_s = float(duration_s)

    @property
    def end_s(self) -> float:
        return self.duration_s

    @property
    def mean_qps(self) -> float:
        # Stationary occupancy of a cyclic chain is dwell-proportional.
        total = sum(self.dwell_s)
        return sum(r * d for r, d in zip(self.rates, self.dwell_s)) / total

    @property
    def peak_qps(self) -> float:
        return max(self.rates)

    def blocks(self, seed: int = 0) -> Iterator[Block]:
        # One sequentially-consumed generator keeps the whole dwell
        # trajectory deterministic per seed.
        rng = np.random.default_rng(seed)
        clock = 0.0
        state = 0
        n_states = len(self.rates)
        while clock < self.duration_s:
            dwell = float(rng.exponential(self.dwell_s[state]))
            dwell = min(dwell, self.duration_s - clock)
            if dwell > 0.0:
                block = _draw_block(
                    self.workload, rng, self.rates[state], clock, dwell
                )
                if block is not None:
                    yield block
            clock += dwell
            state = (state + 1) % n_states


class DiurnalProcess(ArrivalProcess):
    """A compressed diurnal day with optional per-segment noise.

    The day-periodic shape matches the cluster layer's
    ``DiurnalTrace`` (sharpened cosine between ``trough_ratio`` and 1):
    ``steps`` piecewise-constant segments span ``duration_s`` seconds
    per day for ``days`` days.  ``noise`` multiplies each segment's
    rate by ``1 + noise * N(0, 1)`` (clamped positive), drawn from the
    stream seed -- ramp realism without hand-written segment tables.
    """

    def __init__(
        self,
        workload: QueryWorkload,
        peak_qps: float,
        duration_s: float,
        steps: int = 24,
        trough_ratio: float = 0.4,
        peak_position: float = 20.0 / 24.0,
        sharpness: float = 2.0,
        noise: float = 0.0,
        days: int = 1,
    ) -> None:
        # Negated comparisons so NaN (and inf, where bounded) fail them.
        if not 0 < peak_qps < math.inf:
            raise ValueError("peak_qps must be positive and finite")
        if not 0 < duration_s < math.inf:
            raise ValueError("duration must be positive and finite")
        if not (steps >= 1 and days >= 1):
            raise ValueError("need steps >= 1 and days >= 1")
        if not 0.0 < trough_ratio <= 1.0:
            raise ValueError("trough_ratio must be in (0, 1]")
        if not 0.0 <= peak_position < 1.0:
            raise ValueError("peak_position must be in [0, 1)")
        if not 1.0 <= sharpness < math.inf:
            raise ValueError("sharpness must be finite and >= 1")
        if not 0.0 <= noise < math.inf:
            raise ValueError("noise must be finite and >= 0")
        self.workload = workload
        self._peak_qps = float(peak_qps)
        self.duration_s = float(duration_s)
        self.steps = int(steps)
        self.trough_ratio = float(trough_ratio)
        self.peak_position = float(peak_position)
        self.sharpness = float(sharpness)
        self.noise = float(noise)
        self.days = int(days)

    @property
    def end_s(self) -> float:
        return self.duration_s * self.days

    def level_at(self, fraction_of_day: float) -> float:
        """Noise-free load level in [trough_ratio, 1] at a day fraction."""
        phase = (fraction_of_day - self.peak_position) * 2.0 * math.pi
        base = (1.0 + math.cos(phase)) / 2.0  # 1 at peak, 0 at trough
        return self.trough_ratio + (1.0 - self.trough_ratio) * base**self.sharpness

    @property
    def mean_qps(self) -> float:
        return self.peak_qps * (
            sum(self.level_at(i / self.steps) for i in range(self.steps)) / self.steps
        )

    @property
    def peak_qps(self) -> float:
        return self._peak_qps

    def blocks(self, seed: int = 0) -> Iterator[Block]:
        rng = np.random.default_rng(seed)
        seg = self.duration_s / self.steps
        clock = 0.0
        for _day in range(self.days):
            for i in range(self.steps):
                rate = self.peak_qps * self.level_at(i / self.steps)
                if self.noise > 0.0:
                    rate *= max(0.0, 1.0 + self.noise * float(rng.standard_normal()))
                block = _draw_block(self.workload, rng, rate, clock, seg)
                if block is not None:
                    yield block
                clock += seg


class SuperposedProcess(ArrivalProcess):
    """Superposition of independent arrival processes for one model.

    Streams are merged by arrival time and re-numbered so ids stay
    consecutive -- e.g. a diurnal ramp carrying an MMPP burst overlay.
    Component ``k`` draws from ``seed + k`` so the parts stay
    independent under one stream seed.
    """

    def __init__(self, parts: Sequence[ArrivalProcess]) -> None:
        if not parts:
            raise ValueError("need at least one component process")
        self.parts = tuple(parts)
        self.workload = self.parts[0].workload

    @property
    def end_s(self) -> float | None:
        ends = [p.end_s for p in self.parts]
        return None if any(e is None for e in ends) else max(ends)

    @property
    def mean_qps(self) -> float:
        return sum(p.mean_qps for p in self.parts)

    @property
    def peak_qps(self) -> float:
        # Conservative: components may peak at different times, so the
        # sum bounds the true instantaneous peak.
        return sum(p.peak_qps for p in self.parts)

    def blocks(self, seed: int = 0) -> Iterator[Block]:
        merged = _merge_blocks(
            [part.blocks(seed=seed + k) for k, part in enumerate(self.parts)]
        )
        for t, size, pooling, _ in merged:
            yield t, size, pooling


def _checked(blocks: Iterable[Block]) -> Iterator[Block]:
    """Pass a source's non-empty blocks through, refusing any arrival
    earlier than its predecessor (a NaN fails the comparison too) --
    the merge is exact only over sorted sources."""
    last = -math.inf
    for block in blocks:
        t = block[0]
        if not len(t):
            continue
        ok = t >= np.concatenate(([last], t[:-1]))
        if not ok.all():
            bad = int(np.argmin(ok))
            before = last if bad == 0 else t[bad - 1]
            raise ValueError(
                "arrival stream is not sorted by time "
                f"(t={float(t[bad])!r} after t={float(before)!r})"
            )
        last = t[-1]
        yield block


def _take(pending: list, cut: float | None):
    """Split every pending block at ``cut`` (all of it when ``None``)
    and merge the heads: a stable sort of their source-ordered
    concatenation orders them by (time, source, position)."""
    heads = []
    for k, block in enumerate(pending):
        if block is None:
            continue
        n = len(block[0]) if cut is None else int(np.searchsorted(block[0], cut))
        if n == 0:
            continue
        heads.append((k, [col[:n] for col in block]))
        pending[k] = tuple(col[n:] for col in block) if n < len(block[0]) else None
    if not heads:
        return None
    if len(heads) == 1:
        k, (t, size, pooling) = heads[0]
        return t, size, pooling, np.full(len(t), k, dtype=np.int64)
    t, size, pooling = (
        np.concatenate([cols[c] for _, cols in heads]) for c in range(3)
    )
    src = np.concatenate(
        [np.full(len(cols[0]), k, dtype=np.int64) for k, cols in heads]
    )
    order = np.argsort(t, kind="stable")
    return t[order], size[order], pooling[order], src[order]


def _merge_blocks(
    sources: Sequence[Iterable[Block]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Merge time-sorted block sources into ``(t, size, pooling,
    source_index)`` blocks, in ``heapq.merge(..., key=time)`` order.

    Each source keeps its unemitted arrivals buffered.  An arrival is
    emitted only once it is strictly earlier than the smallest
    last-buffered time among the sources that may still yield: no
    later block can then precede it, and ties at that time wait until
    every source holding them has been merged.  The source that set
    the bound is refilled by one block per round, so each round makes
    progress; a source that breaks time order raises ``ValueError``.
    """
    its = [_checked(blocks) for blocks in sources]
    pending: list = [next(it, None) for it in its]
    live = [k for k, block in enumerate(pending) if block is not None]
    while live:
        lead = min(live, key=lambda k: pending[k][0][-1])
        merged = _take(pending, pending[lead][0][-1])
        if merged is not None:
            yield merged
        block = next(its[lead], None)
        if block is None:
            live.remove(lead)
        else:
            # The lead's last arrival sits at the bound, so it is still
            # buffered (never emitted): ``pending[lead]`` is non-empty.
            pending[lead] = tuple(
                np.concatenate((old, new))
                for old, new in zip(pending[lead], block)
            )
    merged = _take(pending, None)
    if merged is not None:
        yield merged


class _FleetRows(chain):
    """The ``(model_name, Query)`` rows of one :class:`FleetArrivals` pass.

    A ``chain`` over per-block row iterators, so pulling a row runs no
    Python frame.  A bulk consumer may instead call :meth:`take_blocks`
    before pulling any row and receive the merged ``(t, size, pooling,
    model_index)`` blocks (``models[model_index]`` names each arrival).
    """

    __slots__ = ("models", "_merged")

    def take_blocks(self):
        """The merged blocks, or ``None`` once rows have been pulled."""
        return self._merged.pop() if self._merged else None


def _fleet_rows(models: tuple[str, ...], merged) -> _FleetRows:
    # One slot shared by both readers: the first row pulled or a
    # take_blocks() call empties it, so the merge has one consumer.
    cell = [merged]
    rows = _FleetRows.from_iterable(_row_blocks(models, cell))
    rows.models = models
    rows._merged = cell
    return rows


def _row_blocks(models: tuple[str, ...], cell: list) -> Iterator[Iterator]:
    """Per merged block, its rows; ids count per model from 0."""
    if not cell:
        raise RuntimeError("these arrivals were already taken as blocks")
    merged = cell.pop()
    names = np.array(models, dtype=object)
    next_id = [0] * len(models)
    for t, size, pooling, src in merged:
        ids = np.empty(len(t), dtype=np.int64)
        for k in range(len(models)):
            sel = src == k
            count = int(np.count_nonzero(sel))
            if count:
                ids[sel] = np.arange(next_id[k], next_id[k] + count)
                next_id[k] += count
        yield zip(
            names[src].tolist(),
            _query_rows(ids.tolist(), t, size, pooling),
        )


class FleetArrivals:
    """Re-iterable multi-model arrival source for the fleet engine.

    Merges per-model :class:`ArrivalProcess` blocks into one
    time-sorted ``(model_name, Query)`` stream.  Models are taken in
    sorted-name order and model ``m`` draws with seed
    ``seed + MODEL_SEED_STRIDE * m`` -- the exact seed schedule and
    (stable) tie order of the legacy ``build_fleet_trace``, so a fleet
    of :class:`PiecewisePoissonProcess` inputs replays the historical
    trace element-for-element.

    Each ``iter()`` call restarts the replay from scratch: the fleet
    engine consumes it lazily, and repeat-replay consumers (the
    fault-aware provisioner, A/B benchmarks) simply iterate again.
    The returned iterator yields rows; the vectorized core calls its
    ``take_blocks()`` first and ingests the merged arrays instead.

    ``seeds`` pins each model's stream seed explicitly instead of the
    positional ``seed + stride * m_idx`` schedule.  The sharded runner
    uses this to hand a *subset* of models to a worker while keeping
    every stream's lane exactly where the full fleet would put it
    (``seed + stride * global_sorted_index``), so a sub-fleet draws
    bit-identical arrivals.
    """

    def __init__(
        self,
        processes: dict[str, ArrivalProcess],
        seed: int = 0,
        seeds: dict[str, int] | None = None,
    ) -> None:
        if not processes:
            raise ValueError("need at least one model process")
        self.processes = dict(sorted(processes.items()))
        self.seed = seed
        if seeds is not None:
            missing = sorted(set(self.processes) - set(seeds))
            if missing:
                raise ValueError(
                    f"seeds= must cover every model; missing {missing}"
                )
        self.seeds = dict(seeds) if seeds is not None else None

    @property
    def end_s(self) -> float | None:
        ends = [p.end_s for p in self.processes.values()]
        return None if any(e is None for e in ends) else max(ends)

    @property
    def mean_qps(self) -> dict[str, float]:
        return {m: p.mean_qps for m, p in self.processes.items()}

    def __iter__(self) -> Iterator[tuple[str, Query]]:
        sources = []
        for m_idx, (model, process) in enumerate(self.processes.items()):
            if self.seeds is not None:
                lane = self.seeds[model]
            else:
                lane = self.seed + MODEL_SEED_STRIDE * m_idx
            sources.append(process.blocks(seed=lane))
        return _fleet_rows(tuple(self.processes), _merge_blocks(sources))

    def materialize(self) -> list[tuple[str, Query]]:
        """The fully-drawn legacy list shape."""
        return list(self)
