"""Event log ingestion and the step/segment view of a log.

An event log is an immutable, time-ordered collection of events, each
carrying a case id, an activity name, a resource name and a timestamp.
From a log we derive *traces* (the per-case event sequences), *steps*
(pairs of directly-following events within one case) and *segments*
(the (activity, activity) label of a step). Steps and segments are the
spatial unit everything downstream works on.

Supported inputs, plain or gzipped: CSV with a header row and
configurable column names (:func:`parse_csv`, written back by
:func:`write_csv`), and flat XES (:func:`parse_xes`).
"""

from __future__ import annotations

import csv
import gzip
import io
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import ConfigError, LogParseError

_MILLISECOND = timedelta(milliseconds=1)


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
    """Immutable event log with per-case traces.

    Events are stored sorted by (case, time); traces are strictly
    time-ordered per case (the constructor enforces this — repair happens
    at parse time, see :func:`parse_csv`). Instances are safe to share
    across threads.
    """

    __slots__ = ("events", "attribute_schema", "_traces")

    def __init__(self, events: Iterable[Event], attribute_schema: Iterable[str] = ()):
        ordered = sorted(events, key=lambda e: (e.case, e.time))
        self.events: tuple[Event, ...] = tuple(ordered)
        self.attribute_schema: tuple[str, ...] = tuple(attribute_schema)
        traces: dict[str, list[Event]] = {}
        seen_ids: set[str] = set()
        for event in self.events:
            if event.id in seen_ids:
                raise LogParseError(f"duplicate event id {event.id!r}")
            seen_ids.add(event.id)
            traces.setdefault(event.case, []).append(event)
        for case, trace in traces.items():
            for prev, cur in zip(trace, trace[1:]):
                if cur.time <= prev.time:
                    raise LogParseError(
                        f"case {case!r}: events {prev.id!r} and {cur.id!r} are not "
                        f"strictly time-ordered ({prev.time} vs {cur.time})"
                    )
        self._traces: dict[str, tuple[Event, ...]] = {
            case: tuple(trace) for case, trace in traces.items()
        }

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

    @property
    def min_time(self) -> datetime:
        return min(e.time for e in self.events)

    @property
    def max_time(self) -> datetime:
        return max(e.time for e in self.events)


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

    Timezone-less inputs are assumed UTC.
    """
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise LogParseError(f"malformed timestamp {raw!r}") from None
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def merge_lifecycle(activity: str, lifecycle: str) -> str:
    """Combine an activity name with its lifecycle state, "activity|LIFECYCLE"."""
    life = lifecycle.strip()
    return f"{activity}|{life.upper()}" if life else activity


def _finalize(raw_events: list[Event], extra_columns: Iterable[str]) -> EventLog:
    """Sort the events by (case, time) and make every trace strictly
    time-ordered: an event not later than its predecessor in the case is
    pushed 1 ms past it, in input order (the sort is stable)."""
    events = sorted(raw_events, key=lambda e: (e.case, e.time))
    if not events:
        raise LogParseError("log has no events")
    repaired = 0
    prev = events[0]
    for i in range(1, len(events)):
        event = events[i]
        if event.case == prev.case and event.time <= prev.time:
            event = Event(event.id, event.case, event.activity, event.resource,
                          prev.time + _MILLISECOND, event.attrs)
            events[i] = event
            repaired += 1
        prev = event
    if repaired:
        warnings.warn(
            f"offset {repaired} duplicate-timestamp event(s) by 1 ms to keep "
            f"traces strictly ordered",
            stacklevel=3,
        )
    return EventLog(events, attribute_schema=extra_columns)


def _open_text(source: str | Path | IO) -> IO:
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            return gzip.open(path, "rt", encoding="utf-8")
        return open(path, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return source
    # binary stream
    return io.TextIOWrapper(source, encoding="utf-8")


def parse_csv(
    source: str | Path | IO | bytes,
    schema: CsvSchema = CsvSchema(),
) -> EventLog:
    """Load a CSV event log.

    Rows become events sorted by (case, time). When a lifecycle column is
    configured, the activity is rewritten to "activity|LIFECYCLE". An
    event not later than the one before it in its case (repeated
    timestamps) is moved 1 ms past that one, in input order, with one
    warning giving the count; later events can cascade
    (t, t, t+0.5 ms become t, t+1 ms, t+2 ms).
    """
    stream = _open_text(source)
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise LogParseError("empty CSV: no header row")
    header = list(reader.fieldnames)
    missing = [c for c in schema.required_columns() if c not in header]
    if missing:
        raise ConfigError(f"missing required column(s): {', '.join(missing)}")
    known = set(schema.required_columns())
    extra_columns = [c for c in header if c not in known]

    raw_events: list[Event] = []
    for n, row in enumerate(reader):
        # DictReader files surplus fields under None and pads short rows with None
        if None in row or None in row.values():
            raise LogParseError(f"row does not have the header's {len(header)} fields",
                                line=reader.line_num)
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
            case=row[schema.case].strip(),
            activity=activity,
            resource=resource,
            time=time,
            attrs=attrs,
        ))
    return _finalize(raw_events, extra_columns)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(source: str | Path | IO | bytes) -> EventLog:
    """Load a flat XES log (string/date attributes of trace/event elements).

    concept:name of a trace maps to the case id (a trace without one raises
    LogParseError naming its 1-based position), concept:name of an event
    to the activity, org:resource to the resource, time:timestamp to the
    timestamp and lifecycle:transition is merged into the activity name.
    Events without a timestamp are skipped (one warning with the count).
    Repeated timestamps within a trace are offset as in :func:`parse_csv`.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        opener = gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb")
    elif isinstance(source, (bytes, bytearray)):
        opener = io.BytesIO(source)
    else:
        opener = source
    raw_events: list[Event] = []
    skipped = 0
    counter = 0
    try:
        with opener as stream:
            context = ET.iterparse(stream, events=("end",))
            n_traces = 0
            for _, elem in context:
                if _localname(elem.tag) != "trace":
                    continue
                n_traces += 1
                case = ""
                trace_events = []
                for child in elem:
                    name = _localname(child.tag)
                    if name == "string" and child.get("key") == "concept:name":
                        case = child.get("value", "")
                    elif name == "event":
                        trace_events.append(child)
                if not case:
                    raise LogParseError(f"trace {n_traces} has no concept:name")
                for ev in trace_events:
                    fields: dict[str, str] = {}
                    for attr in ev:
                        key = attr.get("key")
                        if key:
                            fields[key] = attr.get("value", "")
                    if "time:timestamp" not in fields:
                        skipped += 1
                        continue
                    activity = fields.get("concept:name", "").strip()
                    lifecycle = fields.get("lifecycle:transition", "")
                    if lifecycle:
                        activity = merge_lifecycle(activity, lifecycle)
                    raw_events.append(Event(
                        id=f"e{counter}",
                        case=case,
                        activity=activity,
                        resource=fields.get("org:resource", "").strip(),
                        time=parse_timestamp(fields["time:timestamp"]),
                    ))
                    counter += 1
                elem.clear()
    except ET.ParseError as exc:
        raise LogParseError(f"not valid XML: {exc}") from None
    if skipped:
        warnings.warn(f"skipped {skipped} event(s) without a timestamp", stacklevel=2)
    return _finalize(raw_events, ())


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
