"""The ``--arrivals`` CLI mini-language.

A spec describes one model's arrival-process *shape*; the CLI applies
it to every model stream, scaled to that model's peak rate.  Grammar
(full reference in ``docs/cli.md``):

The spec is a list of sections separated by ``+``; each section is
``shape:key=value,...`` and the sections are superposed (their streams
merge).  Rates are *relative*: ``level`` keys are fractions of the
model's peak QPS, so one spec reuses across models of very different
traffic volumes.  Absolute rates are available via ``qps=``.

Shapes:

- ``poisson:level=0.6`` -- constant-rate Poisson at 60% of peak
  (``level`` defaults to 1.0; ``qps=`` overrides absolutely).
- ``mmpp:levels=0.2/1.5,dwell=2.0/0.3`` -- Markov-modulated burst
  process cycling through the listed state levels with the listed
  exponential mean dwells (one shared dwell is allowed:
  ``dwell=0.5``).
- ``diurnal:steps=24,trough=0.4,sharpness=2,noise=0.1,days=1,level=1``
  -- compressed diurnal ramp; ``noise`` adds multiplicative
  per-segment rate noise, ``peak_at`` moves the peak (fraction of the
  day, default ``0.8333`` ≈ hour 20).

Examples: ``poisson:level=0.75``, ``mmpp:levels=0.3/2.0,dwell=1.5/0.2``,
``diurnal:noise=0.15+mmpp:levels=0/1.2,dwell=3/0.25`` (a noisy diurnal
ramp carrying burst storms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.queries import QueryWorkload
from repro.spec import floats, parse_kv
from repro.traces.arrivals import (
    ArrivalProcess,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    SuperposedProcess,
)

__all__ = ["ArrivalSpec", "parse_arrivals"]

_SHAPES = ("poisson", "mmpp", "diurnal")

#: Allowed keys per shape (value parser, default).
_POISSON_KEYS = {"level", "qps"}
_MMPP_KEYS = {"levels", "qps", "dwell"}
_DIURNAL_KEYS = {
    "steps",
    "trough",
    "sharpness",
    "noise",
    "days",
    "level",
    "peak_at",
}


@dataclass(frozen=True)
class _Section:
    shape: str
    params: dict

    def describe(self) -> str:
        return f"{self.shape}:" + ",".join(
            f"{k}={v}" for k, v in self.params.items()
        )

    def build(
        self, workload: QueryWorkload, peak_qps: float, duration_s: float
    ) -> ArrivalProcess:
        p = self.params
        if self.shape == "poisson":
            qps = float(p["qps"]) if "qps" in p else peak_qps * float(
                p.get("level", 1.0)
            )
            return PoissonProcess(workload, qps, duration_s)
        if self.shape == "mmpp":
            if "qps" in p:
                rates = floats(p["qps"], "qps")
            elif "levels" in p:
                rates = tuple(
                    peak_qps * lv for lv in floats(p["levels"], "levels")
                )
            else:
                raise ValueError("mmpp needs levels= (or qps=)")
            if "dwell" not in p:
                raise ValueError("mmpp needs dwell=")
            dwell = floats(p["dwell"], "dwell")
            return MMPPProcess(
                workload,
                rates,
                dwell if len(dwell) > 1 else dwell[0],
                duration_s,
            )
        # diurnal
        days = int(p.get("days", 1))
        if days < 1:
            raise ValueError(f"diurnal days= must be >= 1, got {days}")
        return DiurnalProcess(
            workload,
            peak_qps * float(p.get("level", 1.0)),
            duration_s / days,
            steps=int(p.get("steps", 24)),
            trough_ratio=float(p.get("trough", 0.4)),
            peak_position=float(p.get("peak_at", 20.0 / 24.0)),
            sharpness=float(p.get("sharpness", 2.0)),
            noise=float(p.get("noise", 0.0)),
            days=days,
        )


@dataclass(frozen=True)
class ArrivalSpec:
    """A parsed ``--arrivals`` spec: one or more superposed shapes.

    ``build`` instantiates the concrete process for one model given its
    workload, peak rate, and the replay duration (the whole spec spans
    ``duration_s`` seconds).
    """

    sections: tuple[_Section, ...]

    def build(
        self, workload: QueryWorkload, peak_qps: float, duration_s: float
    ) -> ArrivalProcess:
        if not 0 < peak_qps < math.inf:
            raise ValueError("peak_qps must be positive and finite")
        if not 0 < duration_s < math.inf:
            raise ValueError("duration must be positive and finite")
        built = []
        for section in self.sections:
            try:
                built.append(section.build(workload, peak_qps, duration_s))
            except ValueError as exc:
                raise ValueError(
                    f"bad arrivals section {section.describe()!r}: {exc}"
                ) from exc
        return built[0] if len(built) == 1 else SuperposedProcess(built)

    def describe(self) -> str:
        return "+".join(s.shape for s in self.sections)


def parse_arrivals(spec: str) -> ArrivalSpec:
    """Parse the ``--arrivals`` mini-language into an :class:`ArrivalSpec`.

    Raises :class:`ValueError` naming the offending section or key on
    any syntax error; numeric validation (finite positive rates, dwell
    > 0) happens at :meth:`ArrivalSpec.build` time through the process
    constructors, whose errors are prefixed with the section.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty --arrivals spec")
    sections: list[_Section] = []
    for raw in spec.split("+"):
        raw = raw.strip()
        if not raw:
            raise ValueError(f"empty section in --arrivals spec {spec!r}")
        shape, _, body = raw.partition(":")
        shape = shape.strip()
        if shape == "poisson":
            params = parse_kv("arrivals", raw, body, _POISSON_KEYS)
        elif shape == "mmpp":
            params = parse_kv("arrivals", raw, body, _MMPP_KEYS)
            if "levels" not in params and "qps" not in params:
                raise ValueError(f"{raw!r}: mmpp needs levels= (or qps=)")
            if "dwell" not in params:
                raise ValueError(f"{raw!r}: mmpp needs dwell=")
        elif shape == "diurnal":
            params = parse_kv("arrivals", raw, body, _DIURNAL_KEYS)
        else:
            raise ValueError(
                f"unknown arrival shape {shape!r} in {raw!r}; one of "
                f"{', '.join(_SHAPES)}"
            )
        sections.append(_Section(shape, params))
    return ArrivalSpec(tuple(sections))
