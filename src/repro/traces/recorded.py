"""Recorded-trace replay: save and stream measured arrival traces.

Synthetic processes are controllable; measured traces are honest.  This
module gives the repo a round-trippable on-disk trace format so a
production capture (or a synthesized trace worth keeping) can be
replayed through every consumer.  A trace is a row file
(:mod:`repro.rowfile`: extensions, ``repr``-exact floats, streaming
reads, ``{path}:{line}:`` errors) with one row per query:

- **CSV**: header ``model,arrival_s,size,pooling_scale`` (the ``model``
  column may be omitted for single-model traces).
- **JSONL**: keys ``model``, ``t``, ``size``, ``pooling`` (``model``
  optional, ``size`` defaults to 1, ``pooling`` to 1.0).

The exact round trip is pinned by the hypothesis lane in
``tests/test_traces.py``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from repro.rowfile import Column, read_rows, row_format, write_rows
from repro.sim.queries import Query

__all__ = ["RecordedTrace", "save_trace", "read_trace"]

_COLUMNS = (
    Column("model", "model", None),
    Column("arrival_s", "t"),
    Column("size", "size", 1),
    Column("pooling_scale", "pooling", 1.0),
)


def save_trace(path: str, trace: Iterable, fmt: str | None = None) -> int:
    """Write a trace file; returns the number of queries written.

    ``trace`` may yield bare :class:`Query` records (single-model) or
    ``(model_name, Query)`` pairs (fleet shape).  Format comes from the
    extension (``.csv`` / ``.jsonl``) unless ``fmt`` forces it.
    """
    fmt = row_format(path, fmt)
    return write_rows(path, fmt, _COLUMNS, _rows(trace))


def _rows(trace: Iterable) -> Iterator[tuple]:
    for item in trace:
        model, q = (None, item) if isinstance(item, Query) else item
        yield model, q.arrival_s, q.size, q.pooling_scale


def read_trace(
    path: str, default_model: str | None = None, fmt: str | None = None
) -> Iterator[tuple[str, Query]]:
    """Stream ``(model, Query)`` pairs from a trace file.

    Query ids are assigned per model in file order (0, 1, ...), the
    same convention the synthetic processes use.  Rows without a model
    take ``default_model``; a file with neither raises.  Every bad row
    raises a :class:`ValueError` prefixed ``"{path}:{line}:"``.
    """
    fmt = row_format(path, fmt)
    next_id: dict[str, int] = {}
    for line_no, (model, t, size, pooling) in read_rows(path, fmt, _COLUMNS, "trace"):
        model = model or default_model
        if not model:
            raise ValueError(
                f"{path}:{line_no}: row names no model and no "
                "default_model was given"
            )
        qid = next_id.get(model, 0)
        next_id[model] = qid + 1
        try:
            query = Query(qid, float(t), int(size), float(pooling))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        yield model, query


class RecordedTrace:
    """A re-iterable fleet arrival source backed by a trace file.

    Iterating yields time-sorted ``(model, Query)`` pairs streamed from
    disk; each ``iter()`` re-opens the file, so repeat-replay consumers
    (the provisioner, A/B comparisons) work unchanged.  ``end_s``,
    ``mean_qps``, ``models()`` and ``validate()`` share one cached scan
    of the file, which checks every row and that arrival times never
    regress; a plain iteration leaves the order check to the engine.
    """

    def __init__(
        self, path: str, default_model: str | None = None, fmt: str | None = None
    ) -> None:
        self.path = path
        self.default_model = default_model
        self.fmt = row_format(path, fmt)
        self._stats: tuple[float, float, dict[str, int]] | None = None

    def __iter__(self) -> Iterator[tuple[str, Query]]:
        return read_trace(self.path, self.default_model, self.fmt)

    def _scan(self) -> tuple[float, float, dict[str, int]]:
        if self._stats is None:
            first = last = None
            counts: dict[str, int] = {}
            for row, (model, q) in enumerate(self):
                t = q.arrival_s
                if first is None:
                    first = t
                elif t < last:
                    # Pairs carry no line numbers: a second pass, on
                    # this error path only, finds the row's line.
                    rows = read_rows(self.path, self.fmt, _COLUMNS, "trace")
                    line_no = next(islice(rows, row, None))[0]
                    raise ValueError(
                        f"{self.path}:{line_no}: arrival times regress at t={t!r}"
                    )
                last = t
                counts[model] = counts.get(model, 0) + 1
            if first is None:
                raise ValueError(f"{self.path}: empty trace file")
            self._stats = (first, last, counts)
        return self._stats

    def validate(self) -> int:
        """Full scan: monotone timestamps, parseable rows; returns count."""
        return sum(self._scan()[2].values())

    @property
    def end_s(self) -> float:
        return self._scan()[1]

    @property
    def mean_qps(self) -> dict[str, float]:
        """Per-model mean rate over the trace span.

        A trace whose queries share a single timestamp has no measurable
        span; it is treated as one second of traffic (rate = count/1s)
        rather than dividing by an epsilon and reporting ~1e9 qps.
        """
        first, last, counts = self._scan()
        span = last - first
        if span <= 0.0:
            span = 1.0
        return {m: c / span for m, c in sorted(counts.items())}

    def models(self) -> tuple[str, ...]:
        return tuple(sorted(self._scan()[2]))
