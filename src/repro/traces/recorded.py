"""Recorded-trace replay: save and stream measured arrival traces.

Synthetic processes are controllable; measured traces are honest.  This
module gives the repo a round-trippable on-disk trace format so a
production capture (or a synthesized trace worth keeping) can be
replayed through every consumer:

- **CSV**: header ``model,arrival_s,size,pooling_scale`` (the ``model``
  column may be omitted for single-model traces), one row per query.
- **JSONL**: one object per line with keys ``model``, ``t``, ``size``,
  ``pooling`` (``model`` optional, ``pooling`` defaults to 1.0).

Floats are written with ``repr`` so a write/read round trip is exact
(bit-identical arrival times and pooling scales -- pinned by the
hypothesis lane in ``tests/test_traces.py``).  Readers stream the file
line by line: replaying a multi-gigabyte capture holds one query in
memory at a time.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator

from repro.sim.queries import Query

__all__ = ["RecordedTrace", "save_trace", "read_trace"]

_CSV_FIELDS = ("model", "arrival_s", "size", "pooling_scale")


def _format_for(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown trace format {fmt!r}; use 'csv' or 'jsonl'")
        return fmt
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "csv"
    if ext in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ValueError(
        f"cannot infer trace format from {path!r}; use a .csv or .jsonl "
        "extension or pass fmt="
    )


def _as_pairs(trace: Iterable) -> Iterator[tuple[str | None, Query]]:
    for item in trace:
        if isinstance(item, Query):
            yield None, item
        else:
            model, query = item
            yield model, query


def save_trace(path: str, trace: Iterable, fmt: str | None = None) -> int:
    """Write a trace file; returns the number of queries written.

    ``trace`` may yield bare :class:`Query` records (single-model) or
    ``(model_name, Query)`` pairs (fleet shape).  Format comes from the
    extension (``.csv`` / ``.jsonl``) unless ``fmt`` forces it.
    """
    fmt = _format_for(path, fmt)
    count = 0
    with open(path, "w") as fh:
        if fmt == "csv":
            fh.write(",".join(_CSV_FIELDS) + "\n")
            for model, q in _as_pairs(trace):
                if model and any(c in model for c in ",\n\r"):
                    raise ValueError(
                        f"model name {model!r} contains a comma or newline, "
                        "which would corrupt the CSV trace; rename the model "
                        "or save as .jsonl"
                    )
                fh.write(
                    f"{model or ''},{q.arrival_s!r},{q.size},{q.pooling_scale!r}\n"
                )
                count += 1
        else:
            for model, q in _as_pairs(trace):
                rec = {"t": q.arrival_s, "size": q.size, "pooling": q.pooling_scale}
                if model is not None:
                    rec["model"] = model
                fh.write(json.dumps(rec) + "\n")
                count += 1
    return count


def _row_query(path: str, line_no: int, qid: int, t, size, pooling) -> Query:
    """One row's :class:`Query`; a malformed or out-of-range value
    (a NaN arrival, a zero size, ...) raises naming ``{path}:{line}``."""
    try:
        return Query(qid, float(t), int(size), float(pooling))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{line_no}: {exc}") from None


def read_trace(
    path: str, default_model: str | None = None, fmt: str | None = None
) -> Iterator[tuple[str, Query]]:
    """Stream ``(model, Query)`` pairs from a trace file.

    Query ids are assigned per model in file order (0, 1, ...), the
    same convention the synthetic processes use.  Rows without a model
    take ``default_model``; a file with neither raises.  Every bad row
    raises a :class:`ValueError` prefixed ``"{path}:{line}:"``.
    """
    fmt = _format_for(path, fmt)
    next_id: dict[str, int] = {}
    with open(path) as fh:
        if fmt == "csv":
            header = fh.readline().strip()
            fields = [f.strip() for f in header.split(",")]
            if "arrival_s" not in fields:
                raise ValueError(
                    f"{path}: CSV trace needs an arrival_s column "
                    f"(header was {header!r})"
                )
            idx = {name: fields.index(name) for name in fields}
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < len(fields):
                    raise ValueError(
                        f"{path}:{line_no}: row has {len(parts)} columns but "
                        f"the header names {len(fields)} ({line!r})"
                    )
                model = (
                    parts[idx["model"]].strip() if "model" in idx else ""
                ) or default_model
                if not model:
                    raise ValueError(
                        f"{path}:{line_no}: row names no model and no "
                        "default_model was given"
                    )
                qid = next_id.get(model, 0)
                next_id[model] = qid + 1
                yield model, _row_query(
                    path,
                    line_no,
                    qid,
                    parts[idx["arrival_s"]],
                    parts[idx["size"]] if "size" in idx else 1,
                    parts[idx["pooling_scale"]] if "pooling_scale" in idx else 1.0,
                )
        else:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                model = rec.get("model") or default_model
                if not model:
                    raise ValueError(
                        f"{path}:{line_no}: record names no model and no "
                        "default_model was given"
                    )
                qid = next_id.get(model, 0)
                next_id[model] = qid + 1
                yield model, _row_query(
                    path,
                    line_no,
                    qid,
                    rec["t"],
                    rec.get("size", 1),
                    rec.get("pooling", 1.0),
                )


class RecordedTrace:
    """A re-iterable fleet arrival source backed by a trace file.

    Iterating yields time-sorted ``(model, Query)`` pairs streamed from
    disk; each ``iter()`` re-opens the file, so repeat-replay consumers
    (the provisioner, A/B comparisons) work unchanged.  ``end_s`` and
    ``mean_qps`` scan the file once on first use and are cached.

    The reader validates monotone timestamps lazily (the fleet engine
    does too); ``validate()`` forces a full scan up front.
    """

    def __init__(
        self, path: str, default_model: str | None = None, fmt: str | None = None
    ) -> None:
        self.path = path
        self.default_model = default_model
        self.fmt = _format_for(path, fmt)
        self._stats: tuple[float, float, dict[str, int]] | None = None

    def __iter__(self) -> Iterator[tuple[str, Query]]:
        return read_trace(self.path, default_model=self.default_model, fmt=self.fmt)

    def _scan(self) -> tuple[float, float, dict[str, int]]:
        if self._stats is None:
            first = last = None
            counts: dict[str, int] = {}
            for model, q in self:
                t = q.arrival_s
                if first is None:
                    first = t
                last = t
                counts[model] = counts.get(model, 0) + 1
            if first is None:
                raise ValueError(f"{self.path}: empty trace file")
            self._stats = (first, last, counts)
        return self._stats

    def validate(self) -> int:
        """Full scan: monotone timestamps, parseable rows; returns count."""
        prev = -float("inf")
        count = 0
        for _model, q in self:
            if q.arrival_s < prev:
                raise ValueError(
                    f"{self.path}: arrival times regress at t={q.arrival_s!r}"
                )
            prev = q.arrival_s
            count += 1
        if count == 0:
            raise ValueError(f"{self.path}: empty trace file")
        return count

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
