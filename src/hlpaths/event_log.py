"""Event log ingestion and the step/segment view of a log.

An event log is an immutable, time-ordered collection of events, each
carrying a case id, an activity name, a resource name and a timestamp.
From a log we derive *traces* (the per-case event sequences), *steps*
(pairs of directly-following events within one case) and *segments*
(the (activity, activity) label of a step). Steps and segments are the
spatial unit everything downstream works on.

Supported inputs, plain or gzipped (a ``.gz`` name in any case): CSV
with a header row and configurable column names (:func:`parse_csv`,
written back by :func:`write_csv`), and flat XES (:func:`parse_xes`),
read in one expat pass. Both parsers only turn input into events;
:class:`EventLog` alone orders a log, repairs repeated timestamps and
records its time bounds. Events and steps are named tuples, and each step
carries its segment, so downstream code reads fields instead of
rebuilding them.
"""

from __future__ import annotations

import csv
import gzip
import io
import warnings
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple
from xml.parsers import expat

from .errors import ConfigError, LogParseError

_MILLISECOND = timedelta(milliseconds=1)
# the latest time an event can be moved 1 ms past
_LAST_MOVABLE = datetime.max.replace(tzinfo=timezone.utc) - _MILLISECOND


class Event(NamedTuple):
    """One activity execution."""

    id: str
    case: str
    activity: str
    resource: str
    time: datetime


class Segment(NamedTuple):
    """The (from-activity, to-activity) label of a step."""

    from_activity: str
    to_activity: str


class Step(NamedTuple):
    """A pair of directly-following events of the same case, with the
    segment it lies on, set once by :func:`derive_steps`."""

    first: Event
    second: Event
    segment: Segment

    @property
    def case(self) -> str:
        return self.first.case


_CASE_TIME = itemgetter(1, 4)  # (Event.case, Event.time)
_XES_CHUNK = 1 << 14  # bytes fed to the XML parser at a time


class EventLog:
    """Immutable event log with per-case traces; the one place that orders
    a log.

    The constructor sorts the events by (case, time) once (stable, so ties
    keep input order) and walks them once: it rejects a repeated event id,
    moves an event not later than its predecessor in its case 1 ms past
    that one (with one warning giving the count; later events can cascade,
    t, t, t+0.5 ms become t, t+1 ms, t+2 ms), groups the traces and records
    ``min_time``/``max_time``. An empty input raises :class:`LogParseError`.
    Instances are safe to share across threads.
    """

    __slots__ = ("events", "min_time", "max_time", "_traces")

    def __init__(self, events: Iterable[Event]):
        ordered = sorted(events, key=_CASE_TIME)
        if not ordered:
            raise LogParseError("log has no events")
        traces: dict[str, list[Event]] = {}
        seen_ids: set[str] = set()
        repaired = 0
        prev = None
        for i, event in enumerate(ordered):
            if event.id in seen_ids:
                raise LogParseError(f"duplicate event id {event.id!r}")
            seen_ids.add(event.id)
            if prev is None or event.case != prev.case:
                trace = traces[event.case] = []
            elif event.time <= prev.time:
                if prev.time > _LAST_MOVABLE:
                    raise LogParseError(f"case {event.case!r}: no time left to move "
                                        f"event {event.id!r} past {prev.time}")
                event = ordered[i] = event._replace(time=prev.time + _MILLISECOND)
                repaired += 1
            trace.append(event)
            prev = event
        if repaired:
            warnings.warn(
                f"offset {repaired} duplicate-timestamp event(s) by 1 ms to keep "
                f"traces strictly ordered",
                stacklevel=2,
            )
        self.events: tuple[Event, ...] = tuple(ordered)
        self._traces: dict[str, tuple[Event, ...]] = {
            case: tuple(trace) for case, trace in traces.items()
        }
        # every trace is now strictly increasing: its ends bound the log
        self.min_time: datetime = min(trace[0].time for trace in traces.values())
        self.max_time: datetime = max(trace[-1].time for trace in traces.values())

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def cases(self) -> tuple[str, ...]:
        return tuple(self._traces)

    def trace(self, case: str) -> tuple[Event, ...]:
        return self._traces[case]

    def activity_sequence(self, case: str) -> tuple[str, ...]:
        return tuple(e.activity for e in self._traces[case])


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for CSV input.

    ``case``, ``activity`` and ``timestamp`` are required in the header;
    ``resource`` and ``lifecycle`` may be set to None when the log has no
    such column. Any further columns are ignored.
    """

    case: str = "case"
    activity: str = "activity"
    timestamp: str = "timestamp"
    resource: str | None = "resource"
    lifecycle: str | None = None

    def required_columns(self) -> list[str]:
        cols = [self.case, self.activity, self.timestamp]
        if self.resource is not None:
            cols.append(self.resource)
        if self.lifecycle is not None:
            cols.append(self.lifecycle)
        return cols


def parse_timestamp(raw: str) -> datetime:
    """Parse ISO-8601 or "YYYY-MM-DD HH:MM:SS[.fff]"; normalize to UTC.

    Timezone-less inputs are assumed UTC; one whose UTC time falls outside
    the datetime range is malformed.
    """
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            return ts.replace(tzinfo=timezone.utc)
        return ts.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        raise LogParseError(f"malformed timestamp {raw!r}") from None


def merge_lifecycle(activity: str, lifecycle: str) -> str:
    """Combine an activity name with its lifecycle state, "activity|LIFECYCLE"."""
    life = lifecycle.strip()
    return f"{activity}|{life.upper()}" if life else activity


@contextmanager
def _open(source: str | Path | IO | bytes, binary: bool) -> Iterator[IO]:
    """A byte (``binary``) or UTF-8 text stream over ``source``: a path,
    gunzipped when its name ends in ``.gz`` in any case, bytes, or an open
    stream. Undecodable input raises :class:`LogParseError`; what is opened
    here is closed here."""
    owned = isinstance(source, (str, Path, bytes, bytearray))
    if isinstance(source, (str, Path)):
        stream = gzip.open(source) if str(source).lower().endswith(".gz") else open(source, "rb")
    elif isinstance(source, (bytes, bytearray)):
        stream = io.BytesIO(source)
    else:
        stream = source
    if not binary and not isinstance(stream, io.TextIOBase):
        stream = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        yield stream
    except UnicodeDecodeError as exc:
        raise LogParseError(f"not valid UTF-8: {exc.reason}") from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise LogParseError(f"not a readable gzip file: {exc}") from None
    finally:
        if owned:
            stream.close()
        elif stream is not source:
            stream.detach()  # the caller's byte stream stays open


def parse_csv(
    source: str | Path | IO | bytes,
    schema: CsvSchema = CsvSchema(),
) -> EventLog:
    """Load a CSV event log (UTF-8, a leading byte-order mark ignored).

    Each row becomes an event; :class:`EventLog` orders them and offsets
    repeated timestamps. When a lifecycle column is configured, the
    activity is rewritten to "activity|LIFECYCLE". Columns the schema does
    not name are ignored. A row with the wrong number of fields, an empty
    case id or a malformed timestamp raises :class:`LogParseError` with its
    line number.
    """
    raw_events: list[Event] = []
    with _open(source, binary=False) as stream:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise LogParseError("empty CSV: no header row")
        header = list(reader.fieldnames)
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        reader.fieldnames = header
        missing = [c for c in schema.required_columns() if c not in header]
        if missing:
            raise ConfigError(f"missing required column(s): {', '.join(missing)}")

        for n, row in enumerate(reader):
            # DictReader files surplus fields under None and pads short rows with None
            if None in row or None in row.values():
                raise LogParseError(f"row does not have the header's {len(header)} fields",
                                    line=reader.line_num)
            case = row[schema.case].strip()
            if not case:
                raise LogParseError("row has an empty case id", line=reader.line_num)
            try:
                time = parse_timestamp(row[schema.timestamp])
            except LogParseError as exc:
                raise LogParseError(str(exc), line=reader.line_num) from None
            activity = row[schema.activity].strip()
            if schema.lifecycle is not None:
                activity = merge_lifecycle(activity, row[schema.lifecycle])
            resource = row[schema.resource].strip() if schema.resource else ""
            raw_events.append(Event(
                id=f"e{n}",
                case=case,
                activity=activity,
                resource=resource,
                time=time,
            ))
    return EventLog(raw_events)


class _OpenTrace:
    """A ``trace`` element being read: its depth, its case name once seen,
    the attribute maps of its finished events and of the open one."""

    __slots__ = ("depth", "name", "events", "event")

    def __init__(self, depth: int):
        self.depth = depth
        self.name: str | None = None
        self.events: list[dict[str | None, str]] = []
        self.event: dict[str | None, str] | None = None


def parse_xes(source: str | Path | IO | bytes) -> EventLog:
    """Load a flat XES log (the keyed attributes of trace and event elements).

    The file is read in one ``xml.parsers.expat`` pass whose start and end
    handlers track the element depth; no element tree is built. Elements
    match by local name, in any namespace. Of a ``trace``, only its first
    ``string`` child keyed concept:name (the case id) and its ``event``
    children are read. Of an ``event``, the ``key`` and ``value`` of each
    child element are read: concept:name is the activity, org:resource the
    resource, time:timestamp the timestamp, and lifecycle:transition is
    merged into the activity name. Nested meta-attributes and events
    outside a trace are ignored. Each distinct activity and resource is
    built once per parse and shared by its events.

    A trace is handled when it ends, so a trace nested in another one is
    numbered first. A trace without a name or with a malformed timestamp
    raises :class:`LogParseError` naming its 1-based position, as does
    input the XML parser refuses. Entity references that a document's
    unread external DTD may declare are skipped, as a non-validating
    parser does. Events without a timestamp are skipped (one warning with
    the count). :class:`EventLog` orders the events and offsets repeated
    timestamps.
    """
    raw_events: list[Event] = []
    skipped = 0
    n_traces = 0
    depth = 0
    open_traces: list[_OpenTrace] = []
    local_names: dict[str, str] = {}
    activities: dict[tuple[str, str], str] = {}
    resources: dict[str, str] = {}

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth
        depth += 1
        name = local_names.get(tag)
        if name is None:
            name = local_names[tag] = tag.rpartition("}")[2]
        if name == "trace":
            open_traces.append(_OpenTrace(depth))
        elif open_traces:
            trace = open_traces[-1]
            if trace.event is not None:
                if depth == trace.depth + 2:
                    trace.event[attrs.get("key")] = attrs.get("value", "")
            elif depth == trace.depth + 1:
                if name == "event":
                    trace.event = {}
                elif (name == "string" and trace.name is None
                      and attrs.get("key") == "concept:name"):
                    trace.name = attrs.get("value", "")

    def end(tag: str) -> None:
        nonlocal depth, n_traces
        if open_traces:
            trace = open_traces[-1]
            if depth == trace.depth:
                open_traces.pop()
                n_traces += 1
                add_trace(trace, n_traces)
            elif depth == trace.depth + 1 and trace.event is not None:
                trace.events.append(trace.event)
                trace.event = None
        depth -= 1

    def add_trace(trace: _OpenTrace, n: int) -> None:
        nonlocal skipped
        case = trace.name
        if not case:
            raise LogParseError(f"trace {n} has no concept:name")
        for fields in trace.events:
            stamp = fields.get("time:timestamp")
            if stamp is None:
                skipped += 1
                continue
            try:
                time = parse_timestamp(stamp)
            except LogParseError as exc:
                raise LogParseError(f"trace {n}: {exc}") from None
            key = (fields.get("concept:name", ""), fields.get("lifecycle:transition", ""))
            activity = activities.get(key)
            if activity is None:
                activity = activities[key] = merge_lifecycle(key[0].strip(), key[1])
            raw = fields.get("org:resource", "")
            resource = resources.get(raw)
            if resource is None:
                resource = resources[raw] = raw.strip()
            raw_events.append(Event(f"e{len(raw_events)}", case, activity, resource, time))

    parser = expat.ParserCreate(None, "}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    with _open(source, binary=True) as stream:
        try:
            while chunk := stream.read(_XES_CHUNK):
                parser.Parse(chunk, False)
            parser.Parse(b"", True)
        except LogParseError:
            raise
        except (expat.ExpatError, LookupError, ValueError) as exc:
            # ValueError: a declared multi-byte encoding expat cannot use
            raise LogParseError(f"not valid XML: {exc}") from None
    if skipped:
        warnings.warn(f"skipped {skipped} event(s) without a timestamp", stacklevel=2)
    return EventLog(raw_events)


def derive_steps(log: EventLog) -> tuple[tuple[Step, ...], Counter]:
    """All steps of the log plus the per-segment step counts.

    A case with k events contributes exactly k-1 steps.
    """
    steps: list[Step] = []
    counts: Counter = Counter()
    segments: dict[Segment, Segment] = {}
    for case in log.cases:
        trace = log.trace(case)
        for first, second in zip(trace, trace[1:]):
            segment = Segment(first.activity, second.activity)
            segment = segments.setdefault(segment, segment)
            steps.append(Step(first, second, segment))
            counts[segment] += 1
    return tuple(steps), counts


def select_top_segments(segment_counts: Counter, k: int) -> set[Segment]:
    """The k most frequent segments; ties break lexicographically.

    Downstream pattern evaluation considers only steps of the selected
    segments; full traces stay available for the non-participation check.
    """
    if k < 1:
        raise ConfigError(f"top-segment count must be >= 1, got {k}")
    if k > len(segment_counts):
        if k != len(segment_counts):
            warnings.warn(
                f"requested top {k} segments but the log only has "
                f"{len(segment_counts)}; keeping all",
                stacklevel=2,
            )
        k = len(segment_counts)
    ranked = sorted(segment_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {segment for segment, _ in ranked[:k]}


def write_csv(
    log: EventLog,
    target: str | Path | IO,
    schema: CsvSchema = CsvSchema(),
) -> None:
    """Write a log in the canonical CSV layout: case, activity, timestamp
    and, when the schema names one, resource."""
    own = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        columns = [schema.case, schema.activity, schema.timestamp]
        if schema.resource:
            columns.append(schema.resource)
        writer = csv.writer(stream)
        writer.writerow(columns)
        for event in log.events:
            row = [event.case, event.activity, event.time.isoformat()]
            if schema.resource:
                row.append(event.resource)
            writer.writerow(row)
    finally:
        if own:
            stream.close()
