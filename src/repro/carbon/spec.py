"""The ``--carbon`` and ``--deferrable`` CLI mini-languages.

Both follow the ``--arrivals`` conventions exactly: a spec is a list
of ``shape:key=value,...`` sections joined with ``+``, unknown or
duplicate keys raise naming the offending section, and the full
reference lives in ``docs/cli.md``.

``--carbon`` describes the grid's carbon-intensity series.  A value
ending in ``.csv``/``.jsonl`` is read as a recorded trace file
(:func:`~repro.carbon.read_carbon_trace`); otherwise it is a synthetic
spec whose sections *superpose additively* (intensities sum, sharing
every breakpoint):

- ``constant:intensity=400`` -- a flat grid at 400 gCO2/kWh.
- ``diurnal:base=350,swing=150,period=86400,trough_at=0.5,steps=24,days=1``
  -- a sinusoidal day sampled into ``steps`` piecewise-constant
  segments (trough at ``trough_at`` of the period; solar midday).
- ``step:levels=400/120/400,at=0/3600/7200`` -- explicit breakpoints.

``--deferrable`` describes deadline-bound batch jobs; each section
contributes a batch:

- ``jobs:count=4,duration=120,power=800,slack=2.0,start=0,every=600``
  -- ``count`` jobs of ``duration`` seconds at ``power`` watts,
  submitted at ``start``, ``start+every``, ...; each deadline is
  ``submit + duration * (1 + slack)``.  ``every`` defaults to
  spreading the batch evenly across the replay window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.deferrable import DeferrableJob
from repro.carbon.trace import CarbonTrace, read_carbon_trace
from repro.spec import floats, parse_kv

__all__ = [
    "CarbonSpec",
    "DeferrableSpec",
    "load_carbon",
    "parse_carbon",
    "parse_deferrable",
]

_CARBON_SHAPES = ("constant", "diurnal", "step")
_CONSTANT_KEYS = {"intensity"}
_DIURNAL_KEYS = {"base", "swing", "period", "trough_at", "steps", "days"}
_STEP_KEYS = {"levels", "at"}
_JOBS_KEYS = {"count", "duration", "power", "slack", "start", "every"}


@dataclass(frozen=True)
class _CarbonSection:
    shape: str
    params: dict

    def build(self) -> CarbonTrace:
        p = self.params
        if self.shape == "constant":
            return CarbonTrace.constant(float(p.get("intensity", 400.0)))
        if self.shape == "diurnal":
            return CarbonTrace.diurnal(
                base=float(p.get("base", 350.0)),
                swing=float(p.get("swing", 150.0)),
                period_s=float(p.get("period", 86400.0)),
                trough_at=float(p.get("trough_at", 0.5)),
                steps=int(p.get("steps", 24)),
                days=int(p.get("days", 1)),
            )
        # step
        levels = floats(self.params["levels"], "levels")
        at = floats(self.params["at"], "at")
        if len(levels) != len(at):
            raise ValueError(
                f"step needs matching levels/at lists "
                f"({len(levels)} vs {len(at)})"
            )
        return CarbonTrace.step(at, levels)


@dataclass(frozen=True)
class CarbonSpec:
    """A parsed ``--carbon`` spec: one or more superposed shapes."""

    sections: tuple[_CarbonSection, ...]

    def build(self) -> CarbonTrace:
        built = [s.build() for s in self.sections]
        if len(built) == 1:
            return built[0]
        # Superpose additively on the union of breakpoints.
        times = sorted({t for tr in built for t in tr.times})
        intensities = [
            sum(tr.intensity_at(t) for tr in built) for t in times
        ]
        return CarbonTrace(times, intensities)

    def describe(self) -> str:
        return "+".join(s.shape for s in self.sections)


def parse_carbon(spec: str) -> CarbonSpec:
    """Parse the synthetic ``--carbon`` mini-language.

    Raises :class:`ValueError` naming the offending section or key.
    Trace *files* are not handled here -- the CLI routes values ending
    in ``.csv``/``.jsonl`` to :func:`~repro.carbon.read_carbon_trace`.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty --carbon spec")
    sections: list[_CarbonSection] = []
    for raw in spec.split("+"):
        raw = raw.strip()
        if not raw:
            raise ValueError(f"empty section in --carbon spec {spec!r}")
        shape, _, body = raw.partition(":")
        shape = shape.strip()
        if shape == "constant":
            params = parse_kv("--carbon", raw, body, _CONSTANT_KEYS)
        elif shape == "diurnal":
            params = parse_kv("--carbon", raw, body, _DIURNAL_KEYS)
        elif shape == "step":
            params = parse_kv("--carbon", raw, body, _STEP_KEYS)
            if "levels" not in params or "at" not in params:
                raise ValueError(f"{raw!r}: step needs levels= and at=")
        else:
            raise ValueError(
                f"unknown carbon shape {shape!r} in {raw!r}; one of "
                f"{', '.join(_CARBON_SHAPES)}"
            )
        sections.append(_CarbonSection(shape, params))
    return CarbonSpec(tuple(sections))


def load_carbon(value: str) -> CarbonTrace:
    """Resolve a ``--carbon`` flag value: trace file or synthetic spec."""
    if value.strip().lower().endswith((".csv", ".jsonl", ".ndjson")):
        return read_carbon_trace(value.strip())
    return parse_carbon(value).build()


@dataclass(frozen=True)
class _JobsSection:
    params: dict

    def build(self, horizon_s: float, index: int) -> tuple[DeferrableJob, ...]:
        p = self.params
        count = int(p.get("count", 1))
        if count < 1:
            raise ValueError(f"jobs count= must be >= 1, got {count}")
        if "duration" not in p or "power" not in p:
            raise ValueError("jobs needs duration= and power=")
        duration = float(p["duration"])
        power = float(p["power"])
        slack = float(p.get("slack", 1.0))
        if slack < 0.0:
            raise ValueError(f"jobs slack= must be >= 0, got {slack}")
        start = float(p.get("start", 0.0))
        if "every" in p:
            every = float(p["every"])
        else:
            every = max(horizon_s - start, 0.0) / count
        jobs = []
        for i in range(count):
            submit = start + i * every
            jobs.append(
                DeferrableJob(
                    name=f"job-{index}-{i}",
                    submit_s=submit,
                    duration_s=duration,
                    power_w=power,
                    deadline_s=submit + duration * (1.0 + slack),
                )
            )
        return tuple(jobs)


@dataclass(frozen=True)
class DeferrableSpec:
    """A parsed ``--deferrable`` spec: one or more job batches."""

    sections: tuple[_JobsSection, ...]

    def build(self, horizon_s: float) -> tuple[DeferrableJob, ...]:
        """Instantiate the jobs against the replay window length."""
        if horizon_s <= 0.0:
            raise ValueError("horizon_s must be > 0")
        jobs: list[DeferrableJob] = []
        for index, section in enumerate(self.sections):
            jobs.extend(section.build(horizon_s, index))
        jobs.sort(key=lambda j: (j.submit_s, j.name))
        return tuple(jobs)

    def describe(self) -> str:
        return "+".join(
            f"jobs x{int(s.params.get('count', 1))}" for s in self.sections
        )


def parse_deferrable(spec: str) -> DeferrableSpec:
    """Parse the ``--deferrable`` mini-language."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty --deferrable spec")
    sections: list[_JobsSection] = []
    for raw in spec.split("+"):
        raw = raw.strip()
        if not raw:
            raise ValueError(f"empty section in --deferrable spec {spec!r}")
        shape, _, body = raw.partition(":")
        if shape.strip() != "jobs":
            raise ValueError(
                f"unknown deferrable shape {shape.strip()!r} in {raw!r}; "
                "only 'jobs' is defined"
            )
        params = parse_kv("--deferrable", raw, body, _JOBS_KEYS)
        if "duration" not in params or "power" not in params:
            raise ValueError(f"{raw!r}: jobs needs duration= and power=")
        sections.append(_JobsSection(params))
    return DeferrableSpec(tuple(sections))
