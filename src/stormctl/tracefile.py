"""File formats: traces, tickets, fit parameters, scenarios, summaries.

Everything written here is deterministic: no timestamps, keys sorted,
floats rendered with repr so a read round-trips to the identical value
and identical runs produce byte-identical files.

Formats:

  * count trace   CSV `t_ms,count`, one burst sample per row;
  * channel trace CSV with one `*` row per tick for the shared channel
    followed by one row per node (node rows leave the channel-only
    columns empty);
  * tickets       JSON lines, one trouble ticket per line;
  * parameters    JSON record of a fitted growth curve;
  * scenario      versioned JSON document for the simulator;
  * summary       JSON rollup of a simulation run.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import os
from dataclasses import MISSING, fields, is_dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union, get_args, get_origin, get_type_hints

from .agents import TriggerCause, TroubleTicket
from .growth import FitResult, PtrModelParams, TracePoint
from .simulation import Scenario, ScenarioError, SimTrace, _tuple_new

PathLike = Union[str, Path]

CHANNEL_NODE = "*"
CHANNEL_HEADER = (
    "t_ms", "node_id", "bcast_pkts", "total_pkts", "bcast_bytes",
    "total_bytes", "ipg_ns", "utilization", "verdict", "stage",
)
SCENARIO_SCHEMA = 2


def write_text(path: PathLike, text: Union[str, Iterable[str]]) -> None:
    """Write text, a str or an iterable of str chunks, to path as UTF-8:
    the one way stormctl writes a file.

    The file is overwritten in place and cut to the new length only when
    it held more: opening it with O_TRUNC would free its blocks and, on
    ext4, start writeback at close.  A str is encoded before the file is
    opened, so an encoding error leaves the file as it was.  Chunks are
    encoded and written as they arrive, so the whole text is never held;
    a chunk that fails to encode, or an iterator that raises, cuts the
    file to the bytes written, as a failed write does, so no old byte
    survives.  A device or FIFO has no size and is never cut.  A new file
    gets mode 0o666 less the umask; an existing one keeps its mode and
    links, and a symlink is written through.
    """
    # a str is itself an iterable of str
    blocks = (text.encode("utf-8"),) if isinstance(text, str) else _blocks(text)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    written = 0
    try:
        for block in blocks:
            data = memoryview(block)
            while data:
                n = os.write(fd, data)
                written += n
                data = data[n:]
    finally:
        try:
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _blocks(chunks: Iterable[str]) -> Iterator[bytes]:
    """The chunks as UTF-8, small ones gathered into blocks of at least
    io.DEFAULT_BUFFER_SIZE bytes; a chunk that large passes uncopied."""
    pending: list[bytes] = []
    size = 0
    for chunk in chunks:
        data = chunk.encode("utf-8")
        if len(data) >= io.DEFAULT_BUFFER_SIZE:
            if pending:
                yield b"".join(pending)
                pending, size = [], 0
            yield data
            continue
        pending.append(data)
        size += len(data)
        if size >= io.DEFAULT_BUFFER_SIZE:
            yield b"".join(pending)
            pending, size = [], 0
    if pending:
        yield b"".join(pending)


def _csv_rows(path: PathLike,
              names: Sequence[str]) -> list[tuple[str, ...]]:
    """The cells named `names`, in that order, of each non-blank row under
    the header of the UTF-8 CSV file at path; a row shorter than the
    header is an error."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    if not set(names) <= set(header):
        raise ValueError(f"{path}: expected a {','.join(names)} header")
    width = len(header)
    pick = itemgetter(*map(header.index, names))
    rows = []
    for row, cells in enumerate(filter(None, reader), start=1):
        if len(cells) < width:
            raise ValueError(f"{path}: row {row}: expected {width} "
                             f"cells, got {len(cells)}")
        rows.append(pick(cells))
    return rows


# -- count traces --------------------------------------------------------


def format_trace(points: Iterable) -> str:
    return "t_ms,count\n" + "".join(f"{float(t)!r},{float(count)!r}\n"
                                     for t, count in points)


def write_trace(points: Iterable, path: PathLike) -> None:
    write_text(path, format_trace(points))


def read_trace(path: PathLike) -> list[TracePoint]:
    """The count trace at path, one point per row.

    The columns are found by their header names, `t_ms` and `count`, in
    any order, and other columns are allowed.  Blank rows are skipped
    and not numbered.  Cells may be quoted as CSV quotes them.  A row
    with fewer cells than the header, or a time or count that is not a
    finite number, is a ValueError naming the path and the row.
    """
    isfinite = math.isfinite
    points = []
    for row, (t, count) in enumerate(_csv_rows(path, ("t_ms", "count")),
                                     start=1):
        t, count = float(t), float(count)
        if not (isfinite(t) and isfinite(count)):
            raise ValueError(f"{path}: row {row}: t_ms and count must "
                             f"be finite")
        points.append(_tuple_new(TracePoint, (t, count)))
    return points


# -- channel traces ------------------------------------------------------


def channel_csv_chunks(trace: SimTrace) -> Iterator[str]:
    """The channel CSV of trace, one chunk per tick after the header's.

    No cell holds a comma, quote or newline, so each line is formatted
    directly, as `csv.writer` would write it.
    """
    yield ",".join(CHANNEL_HEADER) + "\n"
    # A node row is the tick's time, the node's prefix and the text of its
    # four counts.  Each tick copies the idle rows and rewrites those of
    # its senders, from their columns; bytes are frames times the frame
    # size, so each distinct (broadcast, total) pair's text is formatted
    # once per trace, and a sender that delivered nothing gets the idle
    # text.
    prefix = [f",{n}," for n in range(trace.scenario.node_count)]
    idle = [p + "0,0,0,0,,,,\n" for p in prefix]
    size = trace.scenario.frame_size
    counts_text: dict[tuple[int, int], str] = {}
    for rec in trace.records:
        rows = idle.copy()
        senders = rec.senders
        for n, pair in zip(senders.nodes,
                           zip(senders.bcast_pkts, senders.total_pkts)):
            text = counts_text.get(pair)
            if text is None:
                b, total = pair
                text = counts_text[pair] = "%s,%s,%s,%s,,,,\n" % (
                    b, total, b * size, total * size)
            rows[n] = prefix[n] + text
        stats, c = rec.stats, rec.classification
        t = repr(rec.t)     # heads the channel line and every node row
        yield "%s,%s,%s,%s,%s,%s,%r,%r,%s,%s\n%s%s" % (
            t, CHANNEL_NODE, stats.broadcast_pkts, stats.total_pkts,
            stats.broadcast_bytes, stats.total_bytes, stats.observed_ipg,
            c.utilization, c.verdict.value, c.stage.value, t, t.join(rows))


def write_channel_csv(trace: SimTrace, path: PathLike) -> None:
    """Write the channel CSV tick by tick, never holding it whole."""
    write_text(path, channel_csv_chunks(trace))


def read_channel_csv(path: PathLike) -> list[dict]:
    """Rows as dicts; numeric fields parsed, node_id left as written."""
    numeric = {"t_ms", "bcast_pkts", "total_pkts", "bcast_bytes",
               "total_bytes", "ipg_ns", "utilization"}
    return [{key: (float(cell) if cell else None) if key in numeric
             else cell for key, cell in zip(CHANNEL_HEADER, cells)}
            for cells in _csv_rows(path, CHANNEL_HEADER)]


# -- tickets ---------------------------------------------------------------


def ticket_to_dict(ticket: TroubleTicket) -> dict:
    return {
        "ticket_id": ticket.ticket_id,
        "node": ticket.node,
        "t_ms": ticket.t,
        "cause": ticket.cause.value,
        "observed": ticket.observed,
        "threshold": ticket.threshold,
    }


def ticket_from_dict(record: dict) -> TroubleTicket:
    return TroubleTicket(
        ticket_id=int(record["ticket_id"]),
        node=int(record["node"]),
        t=float(record["t_ms"]),
        cause=TriggerCause(record["cause"]),
        observed=float(record["observed"]),
        threshold=float(record["threshold"]),
    )


def format_tickets(tickets: Sequence[TroubleTicket]) -> str:
    return "".join(json.dumps(ticket_to_dict(t), sort_keys=True) + "\n"
                   for t in tickets)


def write_tickets(tickets: Sequence[TroubleTicket], path: PathLike) -> None:
    write_text(path, format_tickets(tickets))


def read_tickets(path: PathLike) -> list[TroubleTicket]:
    text = Path(path).read_text(encoding="utf-8")
    return [ticket_from_dict(json.loads(line))
            for line in text.splitlines() if line.strip()]


# -- fit parameters ----------------------------------------------------------


def params_to_dict(fit: FitResult) -> dict:
    p = fit.params
    return {"p_start": p.p_start, "p_end": p.p_end, "m": p.m,
            "a": p.a, "b": p.b, "rmse": fit.rmse}


def write_params(fit: FitResult, path: PathLike) -> None:
    write_text(path, json.dumps(params_to_dict(fit), sort_keys=True,
                                indent=2) + "\n")


def read_params(path: PathLike) -> FitResult:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    params = PtrModelParams(p_start=float(record["p_start"]),
                            p_end=float(record["p_end"]),
                            m=float(record["m"]))
    return FitResult(params=params, rmse=float(record["rmse"]))


# -- summaries ---------------------------------------------------------------


def write_summary(summary: dict, path: PathLike) -> None:
    write_text(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")


# -- scenarios ----------------------------------------------------------------
# A scenario document is the `Scenario` as JSON plus a schema number: each
# dataclass an object keyed by field name, a tuple a list, an enum its value.
# Reading follows the field types, and an omitted field takes its default.


def _encode(value):
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value.value if isinstance(value, enum.Enum) else value


def _mismatch(path: str, expected: str, value) -> ScenarioError:
    got = type(value).__name__ if isinstance(value, (dict, list)) else repr(value)
    return ScenarioError(f"{path}: expected {expected}, got {got}")


def _decode(hint, value, path: str):
    """value, parsed from JSON, as the type `hint`; path names it in errors."""
    if get_origin(hint) is Union:                       # Optional[X]
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise _mismatch(path, "an object", value)
        hints = get_type_hints(hint)
        for key in sorted(value.keys() - hints.keys()):
            raise ScenarioError(f"{path}.{key}: unknown key")
        for f in fields(hint):
            if f.name not in value and f.default is f.default_factory is MISSING:
                raise ScenarioError(f"{path}.{f.name}: missing")
        kwargs = {key: _decode(hints[key], item, f"{path}.{key}")
                  for key, item in value.items()}
        try:
            return hint(**kwargs)
        except ValueError as exc:   # the dataclass's own checks
            message = str(exc)      # prefixed unless it names its own path
            if not message.startswith(f"{path}."):
                message = f"{path}: {message}"
            raise ScenarioError(message) from exc
    if get_origin(hint) is tuple:                       # tuple[X, ...]
        if not isinstance(value, list):
            raise _mismatch(path, "a list", value)
        return tuple(_decode(get_args(hint)[0], item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    if isinstance(hint, type) and issubclass(hint, tuple):  # a NamedTuple
        hints = list(get_type_hints(hint).values())
        if not isinstance(value, list) or len(value) != len(hints):
            raise _mismatch(path, f"a list of {len(hints)}", value)
        return hint(*(_decode(h, item, f"{path}[{i}]")
                      for i, (h, item) in enumerate(zip(hints, value))))
    if isinstance(hint, enum.EnumMeta):
        allowed = [member.value for member in hint]
        if value in allowed:
            return hint(value)
        raise _mismatch(path, f"one of {allowed}", value)
    # exact types: a bool is no number and a float no int; an int is a float
    if type(value) is hint or (hint is float and type(value) is int):
        return hint(value)
    raise _mismatch(path, hint.__name__, value)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {"schema": SCENARIO_SCHEMA, **_encode(scenario)}


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise _mismatch("scenario", "an object", doc)
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise _mismatch("scenario.schema", str(SCENARIO_SCHEMA), doc.get("schema"))
    return _decode(Scenario, {k: v for k, v in doc.items() if k != "schema"},
                   "scenario")


def write_scenario(scenario: Scenario, path: PathLike) -> None:
    write_text(path, json.dumps(scenario_to_dict(scenario), sort_keys=True,
                                indent=2) + "\n")


def read_scenario(path: PathLike) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
