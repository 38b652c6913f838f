"""Grid carbon-intensity traces: on-disk replay and synthetic models.

A :class:`CarbonTrace` is the :class:`~repro.traces.RecordedTrace`
sibling for the grid signal: a step-function time series of carbon
intensity (gCO2 per kWh) the fleet's energy is priced against.  On
disk it is a row file (:mod:`repro.rowfile`: extensions, ``repr``-exact
floats, ``{path}:{line}:`` errors) with one breakpoint per row:

- **CSV**: header ``time_s,gco2_per_kwh``.
- **JSONL**: keys ``t``, ``gco2_per_kwh``.

The exact round trip is pinned by the hypothesis lane in
``tests/test_carbon.py``.  Unlike arrival traces, a carbon series is
small (hourly grid data: dozens to thousands of points), so the trace
is held in memory and offers exact step-function integration, which
the deferrable-job planner needs.

Synthetic constructors cover the two shapes the carbon-aware-computing
literature leans on: a **diurnal** sinusoid (solar dip midday, fossil
peak in the evening) sampled into piecewise-constant segments, and an
explicit **step** schedule.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

from repro.rowfile import Column, read_rows, row_format, write_rows

__all__ = ["CarbonTrace", "save_carbon_trace", "read_carbon_trace"]

_COLUMNS = (Column("time_s", "t"), Column("gco2_per_kwh", "gco2_per_kwh"))


def save_carbon_trace(path: str, trace: "CarbonTrace", fmt: str | None = None) -> int:
    """Write a carbon trace file; returns the number of breakpoints.

    Floats go out via ``repr``, so reading the file back reproduces the
    trace bit-for-bit (same convention as the arrival-trace writer).
    """
    fmt = row_format(path, fmt, "carbon trace")
    return write_rows(path, fmt, _COLUMNS, zip(trace.times, trace.intensities))


def read_carbon_trace(
    path: str, fmt: str | None = None
) -> "CarbonTrace":
    """Read a carbon trace file into a :class:`CarbonTrace`.

    Every malformed row raises a :class:`ValueError` prefixed
    ``"{path}:{line}:"`` naming the offending line, matching the
    arrival-trace reader's convention.
    """
    fmt = row_format(path, fmt, "carbon trace")
    times: list[float] = []
    intensities: list[float] = []
    for line_no, (t, g) in read_rows(path, fmt, _COLUMNS, "carbon trace"):
        try:
            t, g = _breakpoint(t, g, times[-1] if times else None)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        times.append(t)
        intensities.append(g)
    if not times:
        raise ValueError(f"{path}: empty carbon trace file")
    return CarbonTrace(times, intensities)


def _breakpoint(t, g, prev: float | None) -> tuple[float, float]:
    """``(t, g)`` as floats; a value that is not numeric, a non-finite
    time, a time not after ``prev`` and a non-finite or negative
    intensity raise."""
    try:
        t, g = float(t), float(g)
    except (TypeError, ValueError):
        raise ValueError(
            f"breakpoint is not numeric (time={t!r}, intensity={g!r})"
        ) from None
    # Negated comparisons so NaN fails them too.
    if not -math.inf < t < math.inf:
        raise ValueError(f"breakpoint time must be finite, got {t!r}")
    if prev is not None and t <= prev:
        raise ValueError(
            f"breakpoint times must strictly increase (t={t!r} after t={prev!r})"
        )
    if not 0.0 <= g < math.inf:
        raise ValueError(f"carbon intensity must be finite and >= 0, got {g!r}")
    return t, g


class CarbonTrace:
    """A step-function carbon-intensity series (gCO2 per kWh).

    ``intensity_at(t)`` holds each breakpoint's value until the next
    one; the first value extends backward before the first breakpoint
    and the last extends forward past ``end_s`` (grid data keeps
    arriving; a replay outlasting the series sees the latest reading).
    Integration is exact over the step function, which makes the
    deferrable planner's slot search deterministic and closed-form.
    """

    __slots__ = ("times", "intensities")

    def __init__(
        self, times: Sequence[float], intensities: Sequence[float]
    ) -> None:
        if len(times) != len(intensities):
            raise ValueError(
                f"times and intensities must pair up "
                f"({len(times)} vs {len(intensities)})"
            )
        if not times:
            raise ValueError("a carbon trace needs at least one breakpoint")
        self.times = tuple(float(t) for t in times)
        self.intensities = tuple(float(g) for g in intensities)
        prev = None
        for t, g in zip(self.times, self.intensities):
            _breakpoint(t, g, prev)
            prev = t

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, intensity: float) -> "CarbonTrace":
        """A flat grid: every joule costs the same."""
        return cls((0.0,), (intensity,))

    @classmethod
    def step(
        cls, times: Sequence[float], intensities: Sequence[float]
    ) -> "CarbonTrace":
        """An explicit breakpoint schedule (alias of the constructor)."""
        return cls(times, intensities)

    @classmethod
    def diurnal(
        cls,
        base: float = 350.0,
        swing: float = 150.0,
        period_s: float = 86400.0,
        trough_at: float = 0.5,
        steps: int = 24,
        days: int = 1,
        start_s: float = 0.0,
    ) -> "CarbonTrace":
        """A sinusoidal day sampled into piecewise-constant segments.

        Intensity dips to ``base - swing`` at ``trough_at`` (fraction
        of the period; 0.5 = solar midday) and peaks at ``base +
        swing`` half a period away.  Each of the ``steps`` segments per
        period takes the sinusoid's value at its midpoint, repeated for
        ``days`` periods.
        """
        if swing < 0.0 or base - swing < 0.0:
            raise ValueError("need 0 <= swing <= base (intensity stays >= 0)")
        if period_s <= 0.0 or steps < 1 or days < 1:
            raise ValueError("need period_s > 0, steps >= 1, days >= 1")
        seg = period_s / steps
        times = []
        intensities = []
        for k in range(steps * days):
            mid = (k + 0.5) * seg
            phase = (mid / period_s) - trough_at
            times.append(start_s + k * seg)
            intensities.append(base - swing * math.cos(2.0 * math.pi * phase))
        return cls(times, intensities)

    @classmethod
    def load(cls, path: str, fmt: str | None = None) -> "CarbonTrace":
        """Read a trace file (see :func:`read_carbon_trace`)."""
        return read_carbon_trace(path, fmt=fmt)

    # -- queries --------------------------------------------------------

    @property
    def start_s(self) -> float:
        return self.times[0]

    @property
    def end_s(self) -> float:
        """Last breakpoint (the value holds beyond it)."""
        return self.times[-1]

    def intensity_at(self, t: float) -> float:
        """The step function's value at ``t`` (gCO2/kWh)."""
        times = self.times
        if t < times[0]:
            return self.intensities[0]
        j = bisect.bisect_right(times, t) - 1
        return self.intensities[j]

    def integral(self, t0: float, t1: float) -> float:
        """Exact ``∫ intensity dt`` over ``[t0, t1]`` (gCO2/kWh x s)."""
        if t1 <= t0:
            return 0.0
        times = self.times
        vals = self.intensities
        total = 0.0
        cursor = t0
        j = max(bisect.bisect_right(times, t0) - 1, 0)
        n = len(times)
        while cursor < t1:
            seg_end = times[j + 1] if j + 1 < n else t1
            upto = min(seg_end, t1)
            if upto > cursor:
                total += vals[j] * (upto - cursor)
                cursor = upto
            if j + 1 < n and cursor >= times[j + 1]:
                j += 1
        return total

    def mean(self, t0: float, t1: float) -> float:
        """Time-average intensity over ``[t0, t1]``."""
        if t1 <= t0:
            return self.intensity_at(t0)
        return self.integral(t0, t1) / (t1 - t0)

    def breakpoints_between(self, t0: float, t1: float) -> list[float]:
        """Breakpoint times strictly inside ``(t0, t1)``, in order."""
        lo = bisect.bisect_right(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        return list(self.times[lo:hi])

    def lowest_window(
        self, duration_s: float, earliest_s: float, latest_start_s: float
    ) -> float:
        """Earliest start in ``[earliest, latest_start]`` minimizing the
        window integral ``∫ intensity`` over ``[start, start+duration]``.

        For a step function the optimum lies where the window boundary
        aligns with a breakpoint (or at the interval's own ends), so
        only those candidate starts are priced.  Ties resolve to the
        earliest start -- deterministic, and it fills grid troughs
        front-to-back.
        """
        if latest_start_s < earliest_s:
            raise ValueError("latest_start_s must be >= earliest_s")
        if duration_s <= 0.0:
            return earliest_s
        candidates = {earliest_s, latest_start_s}
        for bp in self.times:
            for start in (bp, bp - duration_s):
                if earliest_s < start < latest_start_s:
                    candidates.add(start)
        best_start = earliest_s
        best_cost = None
        for start in sorted(candidates):
            cost = self.integral(start, start + duration_s)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_start = start
        return best_start

    # -- persistence ----------------------------------------------------

    def save(self, path: str, fmt: str | None = None) -> int:
        """Write this trace (see :func:`save_carbon_trace`)."""
        return save_carbon_trace(path, self, fmt=fmt)

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CarbonTrace):
            return NotImplemented
        return self.times == other.times and self.intensities == other.intensities

    def __hash__(self) -> int:
        return hash((self.times, self.intensities))

    def __repr__(self) -> str:
        return (
            f"CarbonTrace({len(self.times)} breakpoints, "
            f"[{self.start_s:g}s, {self.end_s:g}s], "
            f"{min(self.intensities):g}-{max(self.intensities):g} gCO2/kWh)"
        )
