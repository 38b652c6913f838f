"""Row files: the one CSV/JSONL format of traces and telemetry.

Arrival and carbon traces and the fleet's exported metrics and query
traces are row files; each caller keeps only its columns and value
checks.  ``.csv`` is CSV and ``.jsonl``/``.ndjson`` JSONL, in any case.
A CSV header names the columns and every row splits on commas, with no
quoting (the stdlib ``csv`` module's quoting would change what parses
and how fast), so a cell may hold no comma or newline; whitespace
around a cell is ignored.  A JSONL line is one object keyed by column.
Blank lines are skipped, floats are written with ``repr`` (exact round
trips), ``None`` is an empty cell or an omitted key, and every error
about a line starts ``"{path}:{line}:"``.  A write that fails or
refuses a row leaves the path as it was.  See docs/cli.md, "Row files".
"""

from __future__ import annotations

import contextlib
import json
import os
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = ["REQUIRED", "Column", "extension_format", "row_format",
           "csv_cell_refusal", "read_rows", "read_jsonl", "write_rows",
           "write_jsonl"]

_EXTENSIONS = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}

#: The default of a column every file must carry.
REQUIRED = object()


class Column(NamedTuple):
    """One column: its CSV header name, its JSONL key, and the value an
    absent column reads (:data:`REQUIRED`: the column must be there)."""

    name: str
    key: str
    default: object = REQUIRED


def extension_format(path: str) -> str | None:
    """``"csv"`` or ``"jsonl"`` by ``path``'s extension, else ``None``."""
    return _EXTENSIONS.get(os.path.splitext(path)[1].lower())


def row_format(path: str, fmt: str | None = None, what: str = "trace") -> str:
    """``fmt``, or the format of ``path``'s extension; anything else
    raises naming ``what``."""
    if fmt is None:
        fmt = extension_format(path)
        if fmt is None:
            raise ValueError(
                f"cannot infer {what} format from {path!r}; use a .csv or "
                ".jsonl extension or pass fmt="
            )
    elif fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown {what} format {fmt!r}; use 'csv' or 'jsonl'")
    return fmt


def csv_cell_refusal(column: str, cell: str) -> str | None:
    """Why ``cell`` cannot be a CSV cell of ``column``, or ``None``:
    the rule :func:`write_rows` applies, for callers that check names
    before they produce rows."""
    if "," in cell or "\n" in cell or "\r" in cell:
        return (
            f"{column} {cell!r} contains a comma or newline, which would "
            "corrupt the CSV file; rename it or save as .jsonl"
        )
    return None


def _listed(names: Sequence[str]) -> str:
    """``a``, ``a and b``, ``a, b and c``."""
    head = ", ".join(names[:-1])
    return f"{head} and {names[-1]}" if head else names[-1]


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, record)`` for every non-blank line; a line that
    is not a JSON object raises."""
    loads = json.loads
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                rec = loads(line)
            except json.JSONDecodeError as exc:
                if not line.strip():  # a blank line
                    continue
                msg = f"{path}:{line_no}: invalid JSON ({exc.msg})"
                raise ValueError(msg) from None
            if type(rec) is not dict:
                raise ValueError(f"{path}:{line_no}: record is not a JSON object")
            yield line_no, rec


def read_rows(
    path: str, fmt: str, columns: Sequence[Column], what: str
) -> Iterator[tuple[int, tuple]]:
    """Yield ``(line_no, values)`` per row, ``values`` in ``columns``
    order: CSV cells as text, JSONL values as decoded, and an absent
    column's default.  ``what`` names the file in a header error."""
    if fmt == "csv":
        return _csv_rows(path, columns, what)
    return _jsonl_rows(path, columns)


def _csv_rows(path, columns, what):
    with open(path) as fh:
        header = fh.readline().strip()
        fields = [name.strip() for name in header.split(",")]
        missing = [c.name for c in columns
                   if c.default is REQUIRED and c.name not in fields]
        if missing:
            raise ValueError(
                f"{path}:1: {what} CSV needs {_listed(missing)} column"
                f"{'s' if len(missing) > 1 else ''} (header was {header!r})"
            )
        width = len(fields)
        # An absent column's default is appended to every row and picked
        # by a negative index, past any extra trailing cells.
        absent = [c for c in columns if c.name not in fields]
        tail = [c.default for c in absent]
        pick = itemgetter(*(
            absent.index(c) - len(absent) if c in absent else fields.index(c.name)
            for c in columns
        ))
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) < width:
                raise ValueError(
                    f"{path}:{line_no}: row has {len(cells)} columns but "
                    f"the header names {width} ({line!r})"
                )
            if " " in line or "\t" in line:
                cells = [cell.strip() for cell in cells]
            if tail:
                cells += tail
            yield line_no, pick(cells)


def _jsonl_rows(path, columns):
    pick = itemgetter(*(c.key for c in columns))
    fill = {c.key: c.default for c in columns if c.default is not REQUIRED}
    required = [c.key for c in columns if c.default is REQUIRED]
    needs = f"key{'s' if len(required) > 1 else ''} {_listed(required)}"
    # Filling in the defaults costs a dict per record, so a file pays
    # for it only from its first record that omits an optional key.
    merge = False
    for line_no, rec in read_jsonl(path):
        try:
            values = pick({**fill, **rec} if merge else rec)
        except KeyError:
            merge = True
            try:
                values = pick({**fill, **rec})
            except KeyError:
                raise ValueError(f"{path}:{line_no}: record needs {needs}") from None
        yield line_no, values


@contextlib.contextmanager
def _replacing(path: str):
    """Open a sibling temporary file that replaces ``path`` on success.

    Any exception removes the temporary file and leaves ``path`` as it
    was.  Plain ``open`` keeps the new file's mode the umask's.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    """Write one JSON object per line; returns the number written."""
    count = 0
    with _replacing(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
            count += 1
    return count


def write_rows(
    path: str, fmt: str, columns: Sequence[Column], rows: Iterable[Sequence]
) -> int:
    """Write ``rows`` (values in ``columns`` order); returns the number
    written.  A CSV cell with a comma or newline raises, and leaves
    ``path`` as it was."""
    if fmt == "jsonl":
        keys = [c.key for c in columns]
        return write_jsonl(
            path, ({k: v for k, v in zip(keys, row) if v is not None} for row in rows)
        )
    commas = len(columns) - 1
    count = 0
    with _replacing(path) as fh:
        fh.write(",".join(c.name for c in columns) + "\n")
        for row in rows:
            cells = [
                repr(v) if isinstance(v, float) else "" if v is None else str(v)
                for v in row
            ]
            line = ",".join(cells)
            if line.count(",") != commas or "\n" in line or "\r" in line:
                refusal = next(
                    refusal for c, cell in zip(columns, cells)
                    if (refusal := csv_cell_refusal(c.name, cell))
                )
                raise ValueError(f"{path}:{count + 2}: {refusal}")
            fh.write(line + "\n")
            count += 1
    return count
