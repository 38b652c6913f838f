"""Summarize and diff exported telemetry files (``repro.cli observe``).

Three file shapes are sniffed by extension and content:

- ``*.csv`` -- a windowed metrics series (:data:`repro.obs.probe.
  METRIC_FIELDS` columns);
- ``*.jsonl`` (or ``*.ndjson``) -- either a metrics series (one row
  object per line) or a tagged trace (``type`` =
  ``meta``/``span``/``control``);
- ``*.json`` -- a Chrome trace-event document.

The first two are row files (:mod:`repro.rowfile`), so every bad line
raises naming ``{path}:{line}``.

Every summary is a plain dict (printable with :func:`format_summary`,
or emitted as JSON by the CLI); summaries of the same family can be
diffed.  The chrome summary recomputes the run's measured outcome
counts from the span events' args, which is how the round-trip
against ``FleetResult`` is checked.
"""

from __future__ import annotations

import json

from repro.obs.probe import METRIC_COLUMNS, METRIC_FIELDS
from repro.obs.trace import read_trace_jsonl
from repro.rowfile import extension_format, read_jsonl, read_rows

__all__ = [
    "sniff_format",
    "summarize_file",
    "format_summary",
    "diff_summaries",
    "format_diff",
]

_INT_FIELDS = {
    "arrivals", "completed", "dropped", "failed", "violations",
    "queue_depth", "active_replicas",
}
#: Each metric field's type, in field order.
_KINDS = tuple(
    str if name == "model" else int if name in _INT_FIELDS else float
    for name in METRIC_FIELDS
)


def sniff_format(path: str) -> str:
    """Classify a telemetry file: metrics-csv / metrics-jsonl /
    trace-jsonl / chrome-trace."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        if "traceEvents" in doc:
            return "chrome-trace"
        raise ValueError(f"{path} is JSON but not a Chrome trace (no traceEvents)")
    fmt = extension_format(path)
    if fmt is None:
        raise ValueError(
            f"cannot classify {path!r} (expect .csv, .jsonl, .ndjson or .json)"
        )
    if fmt == "csv":
        return "metrics-csv"
    first = next(read_jsonl(path), None)
    if first is None:
        raise ValueError(f"{path} is empty")
    return "trace-jsonl" if "type" in first[1] else "metrics-jsonl"


def _read_metrics(path: str, fmt: str) -> list[dict]:
    """The series' rows, each value converted to its field's type."""
    rows: list[dict] = []
    for line_no, values in read_rows(path, fmt, METRIC_COLUMNS, "metrics"):
        row: dict = {}
        for name, kind, value in zip(METRIC_FIELDS, _KINDS, values):
            try:
                row[name] = kind(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}:{line_no}: {name} must be {kind.__name__}, "
                    f"got {value!r}"
                ) from None
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def summarize_file(path: str) -> dict:
    """Summarize one exported telemetry file into a plain dict."""
    fmt = sniff_format(path)
    if fmt == "metrics-csv":
        return _summarize_metrics(path, fmt, _read_metrics(path, "csv"))
    if fmt == "metrics-jsonl":
        return _summarize_metrics(path, fmt, _read_metrics(path, "jsonl"))
    if fmt == "trace-jsonl":
        return _summarize_trace_jsonl(path)
    return _summarize_chrome(path)


def _summarize_metrics(path: str, fmt: str, rows: list[dict]) -> dict:
    if not rows:
        raise ValueError(f"{path} has no metric rows")
    per_model: dict[str, dict] = {}
    peak_queue = 0
    peak_active = 0
    power_sum = 0.0
    times = sorted({row["t"] for row in rows})
    for row in rows:
        m = per_model.setdefault(
            row["model"],
            {
                "arrivals": 0, "completed": 0, "dropped": 0, "failed": 0,
                "violations": 0, "peak_qps": 0.0, "peak_p99_ms": 0.0,
            },
        )
        for key in ("arrivals", "completed", "dropped", "failed", "violations"):
            m[key] += row[key]
        if row["qps"] > m["peak_qps"]:
            m["peak_qps"] = row["qps"]
        p99 = row["p99_ms"]
        if p99 == p99 and p99 > m["peak_p99_ms"]:  # skip NaN windows
            m["peak_p99_ms"] = p99
        peak_queue = max(peak_queue, row["queue_depth"])
        peak_active = max(peak_active, row["active_replicas"])
    # Fleet-wide gauges repeat across the models of one window; average
    # over distinct windows, not rows.
    seen_t = set()
    for row in rows:
        if row["t"] not in seen_t:
            seen_t.add(row["t"])
            power_sum += row["power_w"]
    return {
        "file": path,
        "format": fmt,
        "rows": len(rows),
        "windows": len(times),
        "t_start": times[0],
        "t_end": times[-1],
        "models": sorted(per_model),
        "per_model": per_model,
        "fleet": {
            "peak_queue_depth": peak_queue,
            "peak_active_replicas": peak_active,
            "mean_power_w": power_sum / len(times),
        },
    }


def _count_outcomes(spans, warmup_s: float) -> dict:
    """Measured-window outcome counts, matching ``FleetResult``.

    Completions/failures are measured when the span is (arrival after
    warmup, resolution by the horizon -- the exporter's ``measured``
    flag); retried/hedged attribution needs only the warmup cut, like
    the engine's counters.
    """
    out = {"completed": 0, "failed": 0, "dropped": 0, "retried": 0, "hedged": 0}
    for span in spans:
        if span["measured"]:
            out[span["outcome"]] = out.get(span["outcome"], 0) + 1
        if span["arrival_s"] >= warmup_s:
            out["retried"] += span["retries"]
            if span["hedged"]:
                out["hedged"] += 1
    return out


def _summarize_trace_jsonl(path: str) -> dict:
    meta, spans, control = read_trace_jsonl(path)
    attempt_kinds: dict[str, int] = {}
    annotations: dict[str, int] = {}
    attempts = 0
    for span in spans:
        for att in span["attempts"]:
            attempts += 1
            attempt_kinds[att["kind"]] = attempt_kinds.get(att["kind"], 0) + 1
            for ann in att["annotations"]:
                annotations[ann] = annotations.get(ann, 0) + 1
    control_kinds: dict[str, int] = {}
    for ev in control:
        control_kinds[ev["kind"]] = control_kinds.get(ev["kind"], 0) + 1
    outcomes: dict[str, int] = {}
    for span in spans:
        outcomes[span["outcome"]] = outcomes.get(span["outcome"], 0) + 1
    return {
        "file": path,
        "format": "trace-jsonl",
        "warmup_s": meta.get("warmup_s", 0.0),
        "horizon_s": meta.get("horizon_s"),
        "spans": len(spans),
        "outcomes": outcomes,
        "measured": _count_outcomes(spans, meta.get("warmup_s", 0.0)),
        "attempts": attempts,
        "attempt_kinds": attempt_kinds,
        "annotations": annotations,
        "control_events": control_kinds,
    }


def _summarize_chrome(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    other = doc.get("otherData", {})
    warmup_s = other.get("warmup_s", 0.0)
    by_phase: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    spans = []
    attempts = 0
    instants: dict[str, int] = {}
    for ev in events:
        ph = ev["ph"]
        by_phase[ph] = by_phase.get(ph, 0) + 1
        if ph == "b" and ev.get("cat") == "query":
            args = ev.get("args", {})
            outcomes[args["outcome"]] = outcomes.get(args["outcome"], 0) + 1
            spans.append(
                {
                    "outcome": args["outcome"],
                    "measured": args["measured"],
                    "retries": args["retries"],
                    "hedged": args["hedged"],
                    "arrival_s": args["arrival_s"],
                }
            )
        elif ph == "X":
            attempts += 1
        elif ph == "i":
            cat = ev.get("cat", "?")
            instants[cat] = instants.get(cat, 0) + 1
    return {
        "file": path,
        "format": "chrome-trace",
        "warmup_s": warmup_s,
        "horizon_s": other.get("horizon_s"),
        "events": len(events),
        "by_phase": by_phase,
        "balanced": by_phase.get("b", 0) == by_phase.get("e", 0),
        "spans": len(spans),
        "outcomes": outcomes,
        "measured": _count_outcomes(spans, warmup_s),
        "attempts": attempts,
        "instants": instants,
    }


# ----------------------------------------------------------------------
# Formatting and diffing
# ----------------------------------------------------------------------


def format_summary(summary: dict) -> str:
    lines = [f"{summary['file']} ({summary['format']})"]
    if summary["format"].startswith("metrics"):
        lines.append(
            f"  {summary['windows']} windows over "
            f"[{summary['t_start']:.2f}s, {summary['t_end']:.2f}s], "
            f"{summary['rows']} rows"
        )
        for model in summary["models"]:
            m = summary["per_model"][model]
            lines.append(
                f"  {model}: completed {m['completed']}, dropped {m['dropped']}, "
                f"failed {m['failed']}, violations {m['violations']}, "
                f"peak qps {m['peak_qps']:.0f}, peak p99 {m['peak_p99_ms']:.1f} ms"
            )
        fleet = summary["fleet"]
        lines.append(
            f"  fleet: peak queue {fleet['peak_queue_depth']}, "
            f"peak active {fleet['peak_active_replicas']}, "
            f"mean power {fleet['mean_power_w'] / 1e3:.2f} kW"
        )
    else:
        measured = summary["measured"]
        lines.append(
            f"  {summary['spans']} query spans, {summary['attempts']} attempts"
        )
        lines.append(
            "  measured: "
            + ", ".join(f"{k} {v}" for k, v in sorted(measured.items()))
        )
        outcomes = ", ".join(
            f"{k} {v}" for k, v in sorted(summary["outcomes"].items())
        )
        lines.append(f"  outcomes (all spans): {outcomes}")
        if summary["format"] == "chrome-trace":
            lines.append(
                f"  {summary['events']} trace events, async pairs "
                f"{'balanced' if summary['balanced'] else 'UNBALANCED'}"
            )
        extra = summary.get("annotations") or summary.get("instants")
        if extra:
            lines.append(
                "  annotations/instants: "
                + ", ".join(f"{k} {v}" for k, v in sorted(extra.items()))
            )
    return "\n".join(lines)


def _family(fmt: str) -> str:
    return "metrics" if fmt.startswith("metrics") else "trace"


def diff_summaries(a: dict, b: dict) -> dict:
    """Field-by-field comparison of two same-family summaries."""
    if _family(a["format"]) != _family(b["format"]):
        raise ValueError(
            f"cannot diff {a['format']} against {b['format']}"
        )
    deltas: dict[str, dict] = {}
    if _family(a["format"]) == "metrics":
        models = sorted(set(a["per_model"]) | set(b["per_model"]))
        zero = {"arrivals": 0, "completed": 0, "dropped": 0, "failed": 0,
                "violations": 0, "peak_qps": 0.0, "peak_p99_ms": 0.0}
        for model in models:
            ma = a["per_model"].get(model, zero)
            mb = b["per_model"].get(model, zero)
            deltas[model] = {
                key: {"a": ma[key], "b": mb[key], "delta": mb[key] - ma[key]}
                for key in zero
            }
    else:
        keys = sorted(set(a["measured"]) | set(b["measured"]))
        deltas["measured"] = {
            key: {
                "a": a["measured"].get(key, 0),
                "b": b["measured"].get(key, 0),
                "delta": b["measured"].get(key, 0) - a["measured"].get(key, 0),
            }
            for key in keys
        }
    return {"a": a["file"], "b": b["file"], "family": _family(a["format"]),
            "deltas": deltas}


def format_diff(diff: dict) -> str:
    lines = [f"diff ({diff['family']}): {diff['a']} -> {diff['b']}"]
    for group, fields in sorted(diff["deltas"].items()):
        lines.append(f"  {group}:")
        for key, cell in fields.items():
            delta = cell["delta"]
            if isinstance(delta, float):
                rendered = f"{cell['a']:.1f} -> {cell['b']:.1f} ({delta:+.1f})"
            else:
                rendered = f"{cell['a']} -> {cell['b']} ({delta:+d})"
            lines.append(f"    {key}: {rendered}")
    return "\n".join(lines)
