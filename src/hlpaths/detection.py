"""Turning pattern values into discrete high-level events.

For every (feature type, segment) the values observed across the whole
frame form a population; the detection threshold is that population's
nearest-rank percentile. A coordinate whose value reaches the threshold —
and is at least 1, so empty coordinates never fire — yields a high-level
event carrying the participating steps, their cases and the spread of
their endpoint times. Thresholds and events both read the counted step
lists of :func:`~hlpaths.patterns.counted_steps`, so each occupied
coordinate is filtered once per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

from .errors import ConfigError
from .event_log import Segment, Step
from .framing import StepIndex, Theta
from .patterns import (
    ALL_FEATURE_TYPES,
    DelayThresholds,
    FeatureType,
    counted_steps,
    nearest_rank,
)

PAIR_POPULATIONS = ("occupied", "all")


@dataclass(frozen=True, slots=True)
class ThresholdTable:
    """Per (type, segment) detection thresholds at one percentile."""

    percentile: float
    values: dict[tuple[FeatureType, Segment], float]

    def get(self, ftype: FeatureType, segment: Segment) -> float:
        try:
            return self.values[(ftype, segment)]
        except KeyError:
            raise ValueError(f"no threshold for {ftype.value} on {segment}") from None


@dataclass(frozen=True, slots=True)
class HighLevelEvent:
    """A coordinate whose pattern value reached its threshold. ``steps`` is
    the counted step list the value was read from, in index bucket order;
    an event read back from ``hles.jsonl`` has none."""

    id: int
    ftype: FeatureType
    segment: Segment
    theta: Theta
    value: float
    cases: frozenset[str]
    start_spread: tuple[datetime, datetime]
    end_spread: tuple[datetime, datetime]
    steps: tuple[Step, ...] = ()

    @property
    def coordinate(self) -> tuple[FeatureType, Segment, Theta]:
        """Typed identity of the event: where in (type, segment, frame) it sits."""
        return (self.ftype, self.segment, self.theta)


def _requested(
    types: Iterable[FeatureType], delay_thresholds: DelayThresholds | None
) -> list[FeatureType]:
    """The requested types in declared order; delay needs its thresholds."""
    requested = [t for t in ALL_FEATURE_TYPES if t in set(types)]
    if FeatureType.DELAY in requested and delay_thresholds is None:
        raise ValueError("delay pattern needs delay thresholds")
    return requested


def compute_thresholds(
    idx: StepIndex,
    p: float,
    *,
    delay_thresholds: DelayThresholds | None = None,
    blacklist: frozenset[str] = frozenset(),
    pair_population: str = "occupied",
    types: Iterable[FeatureType] = ALL_FEATURE_TYPES,
) -> ThresholdTable:
    """Build the threshold table at percentile ``p``.

    Single-window populations span every window of the frame, zeros
    included, so a segment that is quiet most days gets a low bar. Pair
    populations default to the occupied pairs only (an all-pairs population
    would drown in structural zeros); ``pair_population="all"`` widens them
    to every ordered pair within the frame. Only occupied coordinates are
    evaluated; the zeros everywhere else are counted, not built.
    """
    if pair_population not in PAIR_POPULATIONS:
        raise ConfigError(
            f"pair_population must be one of {PAIR_POPULATIONS}, got {pair_population!r}"
        )
    requested = _requested(types, delay_thresholds)
    n_windows = len(idx.window_range)
    values: dict[tuple[FeatureType, Segment], float] = {}
    for segment in idx.sorted_segments():
        for ftype in requested:
            occupied = counted_steps(
                ftype, segment, idx,
                delay_thresholds=delay_thresholds, blacklist=blacklist,
            )
            if not ftype.uses_window_pair:
                size = n_windows
            elif pair_population == "all":
                size = n_windows * (n_windows + 1) // 2
            else:
                size = len(occupied)
            values[(ftype, segment)] = nearest_rank(
                (float(len(steps)) for steps in occupied.values()),
                p, zeros=size - len(occupied), past_end=math.inf,
            )
    return ThresholdTable(percentile=p, values=values)


def detect_hles(
    idx: StepIndex,
    thresholds: ThresholdTable,
    *,
    delay_thresholds: DelayThresholds | None = None,
    blacklist: frozenset[str] = frozenset(),
    types: Iterable[FeatureType] = ALL_FEATURE_TYPES,
) -> list[HighLevelEvent]:
    """Detect every high-level event: coordinates whose pattern value
    reaches max(threshold, 1).

    Ids are assigned in a deterministic scan order — feature type, then
    segment, then theta — so equal inputs give equal outputs. Only occupied
    coordinates can reach 1; each is filtered once, and an event is built
    from the very step list its value was compared on.
    """
    hles: list[HighLevelEvent] = []
    for ftype in _requested(types, delay_thresholds):
        for segment in idx.sorted_segments():
            bar = max(thresholds.get(ftype, segment), 1.0)
            if math.isinf(bar):
                continue
            occupied = counted_steps(
                ftype, segment, idx,
                delay_thresholds=delay_thresholds, blacklist=blacklist,
            )
            for theta, steps in occupied.items():
                if len(steps) < bar:
                    continue
                firsts = [s.first.time for s in steps]
                seconds = [s.second.time for s in steps]
                hles.append(
                    HighLevelEvent(
                        id=len(hles),
                        ftype=ftype,
                        segment=segment,
                        theta=theta,
                        value=float(len(steps)),
                        cases=frozenset(s.case for s in steps),
                        start_spread=(min(firsts), max(firsts)),
                        end_spread=(min(seconds), max(seconds)),
                        steps=tuple(steps),
                    )
                )
    return hles


def summarize_by_type(hles: Iterable[HighLevelEvent]) -> dict[str, int]:
    counts = {t.value: 0 for t in ALL_FEATURE_TYPES}
    for h in hles:
        counts[h.ftype.value] += 1
    return counts

