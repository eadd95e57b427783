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
read one trace at a time. Both parsers only turn input into events;
:class:`EventLog` alone orders a log, repairs repeated timestamps and
records its time bounds.
"""

from __future__ import annotations

import csv
import gzip
import io
import warnings
import xml.etree.ElementTree as ET
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ConfigError, LogParseError

_MILLISECOND = timedelta(milliseconds=1)
# the latest time an event can be moved 1 ms past
_LAST_MOVABLE = datetime.max.replace(tzinfo=timezone.utc) - _MILLISECOND


@dataclass(frozen=True, slots=True)
class Event:
    """One activity execution. ``attrs`` holds extra input columns verbatim."""

    id: str
    case: str
    activity: str
    resource: str
    time: datetime
    attrs: tuple[tuple[str, str], ...] = ()

    def attr(self, name: str) -> str | None:
        for key, value in self.attrs:
            if key == name:
                return value
        return None


class Step(NamedTuple):
    """A pair of directly-following events of the same case."""

    first: Event
    second: Event

    @property
    def segment(self) -> "Segment":
        return Segment(self.first.activity, self.second.activity)

    @property
    def case(self) -> str:
        return self.first.case


class Segment(NamedTuple):
    """The (from-activity, to-activity) label of a step."""

    from_activity: str
    to_activity: str


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

    __slots__ = ("events", "attribute_schema", "min_time", "max_time", "_traces")

    def __init__(self, events: Iterable[Event], attribute_schema: Iterable[str] = ()):
        ordered = sorted(events, key=lambda e: (e.case, e.time))
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
                event = ordered[i] = Event(event.id, event.case, event.activity,
                                           event.resource, prev.time + _MILLISECOND,
                                           event.attrs)
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
        self.attribute_schema: tuple[str, ...] = tuple(attribute_schema)
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

    @property
    def traces(self) -> dict[str, tuple[Event, ...]]:
        return dict(self._traces)

    def trace(self, case: str) -> tuple[Event, ...]:
        return self._traces[case]

    def activity_sequence(self, case: str) -> tuple[str, ...]:
        return tuple(e.activity for e in self._traces[case])


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for CSV input.

    ``case``, ``activity`` and ``timestamp`` are required in the header;
    ``resource`` and ``lifecycle`` may be set to None when the log has no
    such column. Any further columns are retained as extra attributes.
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
    activity is rewritten to "activity|LIFECYCLE". A row with the wrong
    number of fields, an empty case id or a malformed timestamp raises
    :class:`LogParseError` with its line number.
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
        known = set(schema.required_columns())
        extra_columns = [c for c in header if c not in known]

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
            attrs = tuple((c, row[c]) for c in extra_columns)
            raw_events.append(Event(
                id=f"e{n}",
                case=case,
                activity=activity,
                resource=resource,
                time=time,
                attrs=attrs,
            ))
    return EventLog(raw_events, attribute_schema=extra_columns)


def _xes_traces(stream: IO[bytes]) -> Iterator[ET.Element]:
    """The ``trace`` elements of an XES stream, each as it ends. Input the
    XML parser refuses, an unknown declared encoding included, raises
    :class:`LogParseError`."""
    try:
        for _, elem in ET.iterparse(stream):
            tag = elem.tag
            if tag == "trace" or tag.endswith("}trace"):
                yield elem
    except (ET.ParseError, LookupError) as exc:
        raise LogParseError(f"not valid XML: {exc}") from None


def parse_xes(source: str | Path | IO | bytes) -> EventLog:
    """Load a flat XES log (string/date attributes of trace/event elements).

    The log is read one ``trace`` element at a time, each cleared once
    read. concept:name of a trace maps to the case id, concept:name of an
    event to the activity, org:resource to the resource, time:timestamp to
    the timestamp and lifecycle:transition is merged into the activity
    name. A trace without a name or with a malformed timestamp raises
    :class:`LogParseError` naming its 1-based position. Events without a
    timestamp are skipped (one warning with the count). :class:`EventLog`
    orders the events and offsets repeated timestamps.
    """
    raw_events: list[Event] = []
    skipped = 0
    with _open(source, binary=True) as stream:
        for n_trace, elem in enumerate(_xes_traces(stream), start=1):
            name = elem.find("{*}string[@key='concept:name']")
            case = "" if name is None else name.get("value", "")
            if not case:
                raise LogParseError(f"trace {n_trace} has no concept:name")
            for ev in elem.iterfind("{*}event"):
                fields = {attr.get("key"): attr.get("value", "") for attr in ev}
                if "time:timestamp" not in fields:
                    skipped += 1
                    continue
                try:
                    time = parse_timestamp(fields["time:timestamp"])
                except LogParseError as exc:
                    raise LogParseError(f"trace {n_trace}: {exc}") from None
                activity = fields.get("concept:name", "").strip()
                lifecycle = fields.get("lifecycle:transition", "")
                if lifecycle:
                    activity = merge_lifecycle(activity, lifecycle)
                raw_events.append(Event(
                    id=f"e{len(raw_events)}",
                    case=case,
                    activity=activity,
                    resource=fields.get("org:resource", "").strip(),
                    time=time,
                ))
            elem.clear()
    if skipped:
        warnings.warn(f"skipped {skipped} event(s) without a timestamp", stacklevel=2)
    return EventLog(raw_events)


def derive_steps(log: EventLog) -> tuple[tuple[Step, ...], Counter]:
    """All steps of the log plus the per-segment step counts.

    A case with k events contributes exactly k-1 steps.
    """
    steps: list[Step] = []
    counts: Counter = Counter()
    for case in log.cases:
        trace = log.trace(case)
        for first, second in zip(trace, trace[1:]):
            step = Step(first, second)
            steps.append(step)
            counts[step.segment] += 1
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
    """Write a log in the canonical CSV layout (plus any extra attributes)."""
    own = isinstance(target, (str, Path))
    stream = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        columns = [schema.case, schema.activity, schema.timestamp]
        if schema.resource:
            columns.append(schema.resource)
        columns.extend(log.attribute_schema)
        writer = csv.writer(stream)
        writer.writerow(columns)
        for event in log.events:
            row = [event.case, event.activity, event.time.isoformat()]
            if schema.resource:
                row.append(event.resource)
            row.extend(event.attr(name) or "" for name in log.attribute_schema)
            writer.writerow(row)
    finally:
        if own:
            stream.close()
