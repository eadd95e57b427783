"""Discretize time into windows and index a log over process space-time.

A framing maps timestamps onto consecutive window indices; a coordinate
is a (segment, window) or (segment, window-pair) position. The
:class:`StepIndex` built here is the one immutable lookup structure the
pattern evaluation works from: steps per segment and the occupied entry
windows, exit windows and (entry-window, exit-window) pairs per segment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Iterable, NamedTuple, Union

from .errors import ConfigError
from .event_log import EventLog, Segment, Step, derive_steps, select_top_segments

Theta = Union[int, tuple[int, int]]

_TICK = timedelta(microseconds=1)

_DURATION_RE = re.compile(r"^\s*(\d+)\s*(d|h|m|s)\s*$", re.IGNORECASE)

_DURATION_UNITS = {"d": 86400, "h": 3600, "m": 60, "s": 1}


def parse_duration(text: str) -> timedelta:
    """Parse a duration string: a whole number plus d/h/m/s."""
    match = _DURATION_RE.match(text)
    if not match:
        raise ConfigError(f"cannot parse duration {text!r} (expected e.g. '1d', '4h')")
    value, unit = match.groups()
    seconds = int(value) * _DURATION_UNITS[unit.lower()]
    if seconds <= 0:
        raise ConfigError(f"duration must be positive, got {text!r}")
    return timedelta(seconds=seconds)


@dataclass(frozen=True)
class Framing:
    """Uniform time discretization: window i covers [origin + i*width,
    origin + (i+1)*width). Left-closed right-open, hence monotone."""

    width: timedelta
    origin: datetime

    def __post_init__(self):
        if self.width <= timedelta(0):
            raise ConfigError("framing width must be positive")
        if self.origin.tzinfo is None:
            raise ConfigError("framing origin must be timezone-aware")

    def window_index(self, t: datetime) -> int:
        if t < self.origin:
            raise ValueError(f"timestamp {t} precedes framing origin {self.origin}")
        return (t - self.origin) // self.width

    def window(self, index: int) -> "Window":
        start = self.origin + index * self.width
        return Window(index=index, start=start, end=start + self.width - _TICK)

    @classmethod
    def for_log(cls, log: EventLog, width: timedelta) -> "Framing":
        """Framing anchored at midnight UTC of the first event's day."""
        first = log.min_time.astimezone(timezone.utc)
        origin = first.replace(hour=0, minute=0, second=0, microsecond=0)
        return cls(width=width, origin=origin)


class Window(NamedTuple):
    index: int
    start: datetime
    end: datetime


def windows_of_log(log: EventLog, framing: Framing) -> list[Window]:
    """All windows from the first to the last event, empty ones included."""
    lo = framing.window_index(log.min_time)
    hi = framing.window_index(log.max_time)
    return [framing.window(i) for i in range(lo, hi + 1)]


class StepIndex:
    """Immutable lookups for pattern evaluation.

    * ``steps_by_segment``: segment -> its steps (restricted to the
      retained segments), in :func:`~hlpaths.event_log.derive_steps`
      order, which every bucket keeps too.
    * ``pairs_by_segment``: segment -> {(entry window, exit window) ->
      steps}; only occupied pairs are materialized, the value anywhere
      else is zero.
    * ``entering_by_segment`` / ``exiting_by_segment``: segment ->
      {entry / exit window -> steps}, again occupied windows only.

    Every bucket map is in ascending window (pair) order. Steps are filed
    under the segment they carry. Their windows are floor divisions by the
    framing width; the framing's origin check is made once, on the log's
    first event, which no step precedes.
    """

    __slots__ = (
        "framing", "segments", "window_range", "steps_by_segment",
        "pairs_by_segment", "entering_by_segment", "exiting_by_segment",
    )

    def __init__(self, log: EventLog, framing: Framing,
                 segments: set[Segment] | frozenset[Segment], all_steps: Iterable[Step]):
        """Index those of ``all_steps`` (the steps of ``log``) that lie on
        one of ``segments``."""
        self.framing = framing
        self.segments = frozenset(segments)
        lo = framing.window_index(log.min_time)
        hi = framing.window_index(log.max_time)
        self.window_range = range(lo, hi + 1)

        steps_by_segment: dict[Segment, list[Step]] = {}
        for step in all_steps:
            segment = step.segment
            if segment in self.segments:
                steps_by_segment.setdefault(segment, []).append(step)

        self.steps_by_segment: dict[Segment, tuple[Step, ...]] = {}
        self.pairs_by_segment: dict[Segment, dict[tuple[int, int], tuple[Step, ...]]] = {}
        self.entering_by_segment: dict[Segment, dict[int, tuple[Step, ...]]] = {}
        self.exiting_by_segment: dict[Segment, dict[int, tuple[Step, ...]]] = {}
        origin, width = framing.origin, framing.width
        for segment, steps in steps_by_segment.items():
            self.steps_by_segment[segment] = tuple(steps)
            pairs: dict[tuple[int, int], list[Step]] = {}
            enter: dict[int, list[Step]] = {}
            exit_: dict[int, list[Step]] = {}
            for step in steps:
                w_in = (step.first.time - origin) // width
                w_out = (step.second.time - origin) // width
                pairs.setdefault((w_in, w_out), []).append(step)
                enter.setdefault(w_in, []).append(step)
                exit_.setdefault(w_out, []).append(step)
            self.pairs_by_segment[segment] = {p: tuple(s) for p, s in sorted(pairs.items())}
            self.entering_by_segment[segment] = {w: tuple(s) for w, s in sorted(enter.items())}
            self.exiting_by_segment[segment] = {w: tuple(s) for w, s in sorted(exit_.items())}

    def steps_of(self, segment: Segment) -> tuple[Step, ...]:
        return self.steps_by_segment.get(segment, ())

    def occupied_pairs(self, segment: Segment) -> tuple[tuple[int, int], ...]:
        return tuple(self.pairs_by_segment.get(segment, {}))

    def sorted_segments(self) -> list[Segment]:
        return sorted(self.segments)


def build_indices(log: EventLog, framing: Framing, *,
                  top_segments: int | None = None) -> StepIndex:
    """Index the log for pattern evaluation, deriving its steps once.

    ``top_segments=k`` keeps only the steps of the k most frequent
    segments (:func:`~hlpaths.event_log.select_top_segments`); by default
    every segment of the log is kept.
    """
    if framing.origin > log.min_time:
        raise ValueError("framing origin must not be later than the first event")
    steps, counts = derive_steps(log)
    segments = set(counts) if top_segments is None else select_top_segments(counts, top_segments)
    return StepIndex(log, framing, segments, steps)
