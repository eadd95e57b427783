"""The six congestion-style feature patterns evaluated at a coordinate.

Per-window types:

* ``enter``   — steps of the segment whose first event falls in the window.
* ``exit``    — steps whose second event falls in the window.
* ``workload``— exit steps executed by one and the same resource.
* ``handover``— exit steps whose two events were executed by different
  resources (real work handover).

Window-pair types:

* ``batch``   — steps entering the segment in the first window and exiting
  in the second.
* ``delay``   — the batch steps, but only when the window distance reaches
  the segment's delay threshold; empty otherwise.

Every pattern value is the size of its step set. Steps with an empty or
blacklisted resource on either endpoint still count for enter/exit/batch/
delay but for neither workload nor handover.

One filter decides which steps of an index bucket count, and
:func:`counted_steps` is the one place that applies it: to every occupied
coordinate of a (type, segment), for thresholds and detection alike.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

from .errors import ConfigError
from .event_log import Segment, Step
from .framing import StepIndex, Theta


class FeatureType(str, enum.Enum):
    ENTER = "enter"
    EXIT = "exit"
    WORKLOAD = "workload"
    HANDOVER = "handover"
    BATCH = "batch"
    DELAY = "delay"

    @property
    def uses_window_pair(self) -> bool:
        return self in (FeatureType.BATCH, FeatureType.DELAY)

    @classmethod
    def parse(cls, name: str) -> "FeatureType":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown feature type {name!r}") from None


ALL_FEATURE_TYPES: tuple[FeatureType, ...] = tuple(FeatureType)

# segment -> minimum window distance for the delay pattern
DelayThresholds = dict[Segment, int]


def resource_qualifies(step: Step, blacklist: frozenset[str]) -> bool:
    """True when both endpoints carry a usable (non-empty, non-blacklisted)
    resource, i.e. the step may count for workload/handover."""
    r1, r2 = step.first.resource, step.second.resource
    return bool(r1) and bool(r2) and r1 not in blacklist and r2 not in blacklist


def nearest_rank(
    values: Iterable[float],
    p: float,
    *,
    zeros: int = 0,
    past_end: float | None = None,
) -> float:
    """Nearest-rank percentile: the element at 0-based rank floor(p*n/100)
    of the sorted population.

    The population is ``values`` plus ``zeros`` further zeros, which are
    counted, not built (``values`` must be non-negative). At p=100 the rank
    is n, past the last element: that reads as the maximum, or as
    ``past_end`` when given. Deterministic and interpolation-free; p=0
    gives the minimum.
    """
    ordered = sorted(values)
    n = zeros + len(ordered)
    if not n and past_end is None:
        raise ValueError("percentile of empty population")
    if not 0 <= p <= 100:
        raise ConfigError(f"percentile must lie in [0, 100], got {p}")
    pos = math.floor(p * n / 100)
    if pos >= n:
        if past_end is not None:
            return past_end
        pos = n - 1
    return 0.0 if pos < zeros else ordered[pos - zeros]


def _buckets(
    ftype: FeatureType, segment: Segment, idx: StepIndex
) -> dict[Theta, tuple[Step, ...]]:
    """Where the type's steps sit, occupied coordinates only: entry windows
    for enter, window pairs for batch/delay, exit windows otherwise."""
    if ftype is FeatureType.ENTER:
        return idx.entering_by_segment.get(segment, {})
    if ftype.uses_window_pair:
        return idx.pairs_by_segment.get(segment, {})
    return idx.exiting_by_segment.get(segment, {})


def _counted(
    ftype: FeatureType,
    segment: Segment,
    theta: Theta,
    bucket: tuple[Step, ...],
    delay_thresholds: DelayThresholds | None,
    blacklist: frozenset[str],
) -> Sequence[Step]:
    """The steps of one coordinate's bucket that count for the type."""
    if ftype is FeatureType.WORKLOAD:
        return [
            s for s in bucket
            if resource_qualifies(s, blacklist) and s.first.resource == s.second.resource
        ]
    if ftype is FeatureType.HANDOVER:
        return [
            s for s in bucket
            if resource_qualifies(s, blacklist) and s.first.resource != s.second.resource
        ]
    if ftype is FeatureType.DELAY:
        if delay_thresholds is None:
            raise ValueError("delay pattern needs delay thresholds")
        w_in, w_out = theta
        if w_out - w_in < delay_thresholds.get(segment, 1):
            return ()
    return bucket


def counted_steps(
    ftype: FeatureType,
    segment: Segment,
    idx: StepIndex,
    *,
    delay_thresholds: DelayThresholds | None = None,
    blacklist: frozenset[str] = frozenset(),
) -> dict[Theta, Sequence[Step]]:
    """The steps that count for the type at every occupied coordinate of
    the segment, in ascending theta order.

    A coordinate is occupied when its entry window (enter), exit window
    (exit/workload/handover) or window pair (batch/delay) holds a step of
    the segment; the value is 0 at every other coordinate of the frame.
    The value at a coordinate is the length of its list, which can still
    be 0 (workload, handover, delay). Thresholds rank these lengths and
    detection builds each event from the same list.
    """
    return {
        theta: _counted(ftype, segment, theta, bucket, delay_thresholds, blacklist)
        for theta, bucket in _buckets(ftype, segment, idx).items()
    }


def segment_delay_threshold(segment: Segment, idx: StepIndex, q: float) -> int:
    """Minimum window distance that counts as a delay for this segment.

    The q-th nearest-rank percentile (rounded up) of the window distances
    its steps take, floored at 1 — a distance of 0 must never count as
    delayed. The distances come from the index's (entry, exit) window
    pairs, one per step.
    """
    pairs = idx.pairs_by_segment.get(segment)
    if not pairs:
        raise ValueError(f"segment {segment} has no steps")
    distances = [
        w_out - w_in for (w_in, w_out), steps in pairs.items() for _ in steps
    ]
    return max(1, math.ceil(nearest_rank(distances, q)))


def compute_delay_thresholds(idx: StepIndex, q: float) -> DelayThresholds:
    """Per-segment delay thresholds for every retained segment with steps."""
    return {
        segment: segment_delay_threshold(segment, idx, q)
        for segment in idx.sorted_segments()
        if idx.steps_of(segment)
    }
