"""The row-file layer (``repro.rowfile``) and every reader built on it.

Arrival traces, carbon traces, the metrics series and the tagged query
trace share one CSV/JSONL reader, so each bad line fails the same way:
a :class:`ValueError` that starts ``{path}:{line}:``.  One
parametrized test per reader walks the boundary cases; the extension
table and the writers' exact bytes are pinned once.
"""

from __future__ import annotations

import json

import pytest

from repro.carbon import CarbonTrace, load_carbon, read_carbon_trace, save_carbon_trace
from repro.obs import METRIC_FIELDS, FleetProbe, read_trace_jsonl, summarize_file
from repro.rowfile import Column, write_jsonl, write_rows
from repro.sim.queries import Query
from repro.traces import RecordedTrace, save_trace


#: The boundary cases of one reader, in the order its table lists them.
_BAD_LINES = [
    "bad-json", "not-object", "missing-key", "non-numeric-json",
    "missing-column", "short-row", "non-numeric-csv",
]


def _raises_at(path, line: int, detail: str, call) -> None:
    with pytest.raises(ValueError) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(f"{path}:{line}:"), message
    assert detail in message, message


@pytest.mark.parametrize(
    "ext, text, line, detail",
    [
        (".jsonl", '{"model": "m", "t": 0.1}\n{"model": "m", t: 0.2}\n', 2,
         "invalid JSON"),
        (".jsonl", '{"model": "m", "t": 0.1}\n[0.2]\n', 2, "not a JSON object"),
        (".jsonl", '{"model": "m", "t": 0.1}\n{"model": "m", "size": 3}\n', 2,
         "needs key t"),
        (".jsonl", '{"model": "m", "t": "soon"}\n', 1, "could not convert"),
        (".csv", "model,size\nm,3\n", 1, "needs arrival_s column"),
        (".csv", "model,arrival_s,size\nm,0.1,3\nm,0.2\n", 3,
         "row has 2 columns"),
        (".csv", "model,arrival_s\nm,0.1\n\nm,soon\n", 4, "could not convert"),
    ],
    ids=_BAD_LINES,
)
def test_arrival_trace_boundaries(tmp_path, ext, text, line, detail):
    path = tmp_path / f"trace{ext}"
    path.write_text(text)
    _raises_at(path, line, detail, lambda: list(RecordedTrace(str(path))))


@pytest.mark.parametrize(
    "ext, text, line, detail",
    [
        (".jsonl", '{"t": 0.0, "gco2_per_kwh": 1.0}\n{"t": 1.0,\n', 2,
         "invalid JSON"),
        (".jsonl", '{"t": 0.0, "gco2_per_kwh": 1.0}\n3\n', 2,
         "not a JSON object"),
        (".jsonl", '{"gco2_per_kwh": 1.0}\n', 1, "needs keys t and gco2_per_kwh"),
        (".jsonl", '{"t": 0.0, "gco2_per_kwh": "high"}\n', 1, "not numeric"),
        (".csv", "time_s\n0.0\n", 1, "needs gco2_per_kwh column"),
        (".csv", "time_s,gco2_per_kwh\n0.0,1.0\n1.0\n", 3, "row has 1 columns"),
        (".csv", "time_s,gco2_per_kwh\nnoon,1.0\n", 2, "not numeric"),
    ],
    ids=_BAD_LINES,
)
def test_carbon_trace_boundaries(tmp_path, ext, text, line, detail):
    path = tmp_path / f"grid{ext}"
    path.write_text(text)
    _raises_at(path, line, detail, lambda: read_carbon_trace(str(path)))


def _metric_row(**overrides) -> dict:
    row = {name: 1.0 for name in METRIC_FIELDS}
    row.update(model="m", arrivals=3, completed=3, dropped=0, failed=0,
               violations=0, queue_depth=1, active_replicas=2)
    row.update(overrides)
    return row


def _metrics_csv(rows) -> str:
    return "\n".join(
        [",".join(METRIC_FIELDS)]
        + [",".join(str(row[name]) for name in METRIC_FIELDS) for row in rows]
    ) + "\n"


def _metrics_jsonl(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


_NO_QPS = {k: v for k, v in _metric_row().items() if k != "qps"}


@pytest.mark.parametrize(
    "ext, text, line, detail",
    [
        (".jsonl", _metrics_jsonl([_metric_row()]) + "{oops}\n", 2,
         "invalid JSON"),
        (".jsonl", _metrics_jsonl([_metric_row()]) + "[]\n", 2,
         "not a JSON object"),
        (".jsonl", _metrics_jsonl([_metric_row(), _NO_QPS]), 2, "needs keys"),
        (".jsonl", _metrics_jsonl([_metric_row(qps="x")]), 1,
         "qps must be float, got 'x'"),
        (".csv", _metrics_csv([_metric_row()]).replace("qps,", "", 1), 1,
         "needs qps column"),
        (".csv", _metrics_csv([_metric_row()]).rsplit(",", 2)[0] + "\n", 2,
         "row has 13 columns"),
        (".csv", _metrics_csv([_metric_row(), _metric_row(queue_depth="x")]), 3,
         "queue_depth must be int, got 'x'"),
    ],
    ids=_BAD_LINES,
)
def test_metrics_boundaries(tmp_path, ext, text, line, detail):
    path = tmp_path / f"metrics{ext}"
    path.write_text(text)
    _raises_at(path, line, detail, lambda: summarize_file(str(path)))


_META = '{"type": "meta", "warmup_s": 0.0, "horizon_s": 1.0}\n'


@pytest.mark.parametrize(
    "text, line, detail",
    [
        (_META + '{"type": "span", "qid": 0,\n', 2, "invalid JSON"),
        (_META + '"span"\n', 2, "not a JSON object"),
        (_META + '\n{"qid": 0}\n', 3, "unknown trace line type None"),
    ],
    ids=["bad-json", "not-object", "missing-type"],
)
def test_tagged_trace_boundaries(tmp_path, text, line, detail):
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    _raises_at(path, line, detail, lambda: read_trace_jsonl(str(path)))
    _raises_at(path, line, detail, lambda: summarize_file(str(path)))


def test_validate_names_the_regressing_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("model,arrival_s\nm,0.5\n\nm,1.0\nm,0.75\n")
    _raises_at(path, 5, "arrival times regress at t=0.75",
               RecordedTrace(str(path)).validate)


def test_metrics_model_with_comma_refused_in_csv_kept_in_jsonl(tmp_path):
    """A comma in a model name would shift every later CSV cell, so the
    CSV export refuses it; JSONL round-trips it."""
    probe = FleetProbe()
    probe.metrics_rows = [_metric_row(model="web,burst")]
    csv_path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="comma or newline"):
        probe.export_metrics(str(csv_path))
    jsonl_path = tmp_path / "m.jsonl"
    probe.export_metrics(str(jsonl_path))
    assert summarize_file(str(jsonl_path))["models"] == ["web,burst"]


@pytest.mark.parametrize(
    "ext, fmt",
    [(".CSV", "csv"), (".Csv", "csv"), (".ndjson", "jsonl"), (".NDJSON", "jsonl"),
     (".JSONL", "jsonl")],
)
def test_extension_table(tmp_path, ext, fmt):
    """Every row-file reader and writer takes the same extensions, in
    any case."""
    trace = [("A", Query(0, 0.25, 3, 1.5)), ("B", Query(0, 0.5, 7, 0.75))]
    path = str(tmp_path / f"trace{ext}")
    assert save_trace(path, trace) == 2
    assert list(RecordedTrace(path)) == trace
    assert RecordedTrace(path).fmt == fmt

    grid = CarbonTrace.step((0.0, 60.0), (400.0, 120.0))
    path = str(tmp_path / f"grid{ext}")
    assert save_carbon_trace(path, grid) == 2
    assert read_carbon_trace(path) == grid
    assert load_carbon(path) == grid

    probe = FleetProbe()
    probe.metrics_rows = [_metric_row()]
    path = str(tmp_path / f"metrics{ext}")
    probe.export_metrics(path)
    assert summarize_file(path)["format"] == f"metrics-{fmt}"


def _refused_writes():
    """One call per writer that refuses or fails on its second row,
    keyed by the file name it writes."""
    good = ("A", Query(0, 0.25, 3, 1.5))
    probe = FleetProbe()
    probe.metrics_rows = [_metric_row(), _metric_row(model="web,burst")]
    columns = (Column("a", "a"), Column("b", "b"))
    return {
        "trace.csv": lambda p: save_trace(p, [good, ("web,burst", good[1])]),
        "trace.jsonl": lambda p: save_trace(p, [good, (b"A", good[1])]),
        "metrics.csv": probe.export_metrics,
        "rows.csv": lambda p: write_rows(p, "csv", columns, [(1, 2), ("x,y", 3)]),
        "rows.jsonl": lambda p: write_rows(p, "jsonl", columns, [(1, 2), ({1}, 3)]),
        "records.jsonl": lambda p: write_jsonl(p, [{"a": 1}, {"a": {1}}]),
    }


@pytest.mark.parametrize("name", sorted(_refused_writes()))
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_refused_write_leaves_the_path_as_it_was(tmp_path, name, existing):
    """A writer that refuses a row (or fails on one) leaves no new file,
    an existing file byte for byte, and no temporary file behind."""
    path = tmp_path / name
    if existing:
        path.write_text("kept\n")
    before = sorted(tmp_path.iterdir())
    with pytest.raises((ValueError, TypeError)):
        _refused_writes()[name](str(path))
    assert sorted(tmp_path.iterdir()) == before
    if existing:
        assert path.read_text() == "kept\n"


def test_writers_keep_their_bytes(tmp_path):
    """CSV cells are ``repr`` for floats, ``str`` otherwise and empty
    for ``None``; JSONL omits ``None``."""
    trace = [Query(0, 0.1, 3, 1.0), Query(1, 0.30000000000000004, 12, 0.7)]
    path = tmp_path / "t.csv"
    save_trace(str(path), trace)
    assert path.read_text() == (
        "model,arrival_s,size,pooling_scale\n"
        ",0.1,3,1.0\n"
        ",0.30000000000000004,12,0.7\n"
    )
    path = tmp_path / "t.jsonl"
    save_trace(str(path), [("m", trace[1])])
    assert path.read_text() == (
        '{"model": "m", "t": 0.30000000000000004, "size": 12, "pooling": 0.7}\n'
    )
    path = tmp_path / "g.csv"
    save_carbon_trace(str(path), CarbonTrace.step((0.0, 1e-07), (0.1, 2.0)))
    assert path.read_text() == "time_s,gco2_per_kwh\n0.0,0.1\n1e-07,2.0\n"


def test_csv_cells_ignore_surrounding_whitespace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("arrival_s, model ,size\n0.5,  web burst\t,4\n")
    assert list(RecordedTrace(str(path))) == [("web burst", Query(0, 0.5, 4, 1.0))]
