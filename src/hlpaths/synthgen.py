"""Synthetic event logs with planted congestion and known ground truth.

Base traffic walks a linear activity chain, one case per arrival, whole
trace inside one randomly chosen window. Injections add dedicated cases
concentrated on a coordinate: a burst of cases in one window (spiking the
single-window patterns there), or cases whose chain pauses between two
windows at a chosen segment (spiking batch/delay at that window pair).
Injected cases can carry a biased success probability, so participation
in the resulting high-level structure is associated with the outcome by
construction.

Generation is driven entirely by numpy's default PCG64 generator seeded
explicitly — the same (spec, seed) always yields the same log, on any
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING

from .errors import SpecError
from .event_log import Event, EventLog, Segment
from .framing import Framing, Theta
from .patterns import FeatureType

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True)
class InjectionSpec:
    """One planted coordinate: ``magnitude`` extra cases aimed at it."""

    ftype: FeatureType
    segment: Segment
    theta: Theta
    magnitude: int
    success_bias: float | None = None  # None: inherit the base rate


@dataclass(frozen=True, slots=True)
class LogSpec:
    activities: tuple[str, ...] = ("register", "check", "decide", "notify")
    n_cases: int = 200
    n_windows: int = 20
    window_width: timedelta = timedelta(days=1)
    start: datetime = datetime(2024, 1, 1, tzinfo=timezone.utc)
    step_spacing: timedelta = timedelta(hours=1)
    resources: tuple[str, ...] = ("r1", "r2", "r3", "r4", "r5")
    base_success: float = 0.6
    success_activity: str = "approved"
    injections: tuple[InjectionSpec, ...] = ()

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(
            Segment(a, b) for a, b in zip(self.activities, self.activities[1:])
        )

    def validate(self) -> None:
        if len(self.activities) < 2:
            raise SpecError("need at least two activities to form a segment")
        if len(set(self.activities)) != len(self.activities):
            raise SpecError("activities must be distinct")
        if self.success_activity in self.activities:
            raise SpecError("success marker must not appear in the chain")
        if self.n_cases < 1 or self.n_windows < 1:
            raise SpecError("need at least one case and one window")
        if not 0 <= self.base_success <= 1:
            raise SpecError(f"base_success must lie in [0, 1], got {self.base_success}")
        if not self.resources:
            raise SpecError("need at least one resource")
        # a full trace (chain + marker) must fit inside one window with
        # at least a second of room left for jitter
        span = (len(self.activities) + 1) * self.step_spacing
        if span + timedelta(seconds=1) > self.window_width:
            raise SpecError(
                f"trace span {span} does not fit in a {self.window_width} window"
            )
        chain = set(self.segments)
        for inj in self.injections:
            if inj.segment not in chain:
                raise SpecError(f"injected segment {inj.segment} is not in the chain")
            if inj.magnitude < 1:
                raise SpecError("injection magnitude must be >= 1")
            if inj.success_bias is not None and not 0 <= inj.success_bias <= 1:
                raise SpecError(f"success bias must lie in [0, 1], got {inj.success_bias}")
            if inj.ftype.uses_window_pair:
                if isinstance(inj.theta, int):
                    raise SpecError(f"{inj.ftype.value} injection needs a window pair")
                w_in, w_out = inj.theta
                if not (0 <= w_in <= w_out < self.n_windows):
                    raise SpecError(f"window pair {inj.theta} outside the frame")
                if inj.ftype is FeatureType.DELAY and w_out == w_in:
                    raise SpecError("a delay needs a strictly later exit window")
            else:
                if not isinstance(inj.theta, int):
                    raise SpecError(f"{inj.ftype.value} injection needs a single window")
                if not 0 <= inj.theta < self.n_windows:
                    raise SpecError(f"window {inj.theta} outside the frame")


@dataclass(frozen=True, slots=True)
class Injection:
    """A realized injection: the spec plus the cases that carry it."""

    ftype: FeatureType
    segment: Segment
    theta: Theta
    cases: frozenset[str]
    success_bias: float | None

    @property
    def coordinate(self) -> tuple[FeatureType, Segment, Theta]:
        return (self.ftype, self.segment, self.theta)


@dataclass(frozen=True, slots=True)
class GroundTruth:
    spec: LogSpec
    seed: int
    outcomes: dict[str, str]
    injections: tuple[Injection, ...] = field(default=())

    @property
    def framing(self) -> Framing:
        return Framing(width=self.spec.window_width, origin=self.spec.start)

    @property
    def coordinates(self) -> tuple[tuple[FeatureType, Segment, Theta], ...]:
        return tuple(inj.coordinate for inj in self.injections)


def _case_events(
    spec: LogSpec,
    rng: np.random.Generator,
    case: str,
    windows: list[int],
    succeeded: bool,
    *,
    forced_resources: dict[int, str] | None = None,
    next_event_id: list[int],
) -> list[Event]:
    """Lay out one trace. ``windows[k]`` is the window of the k-th chain
    activity; the jitter is drawn once so in-window order is the chain
    order."""
    activities = list(spec.activities)
    if succeeded:
        activities.append(spec.success_activity)
        windows = windows + [windows[-1]]
    span = len(activities) * spec.step_spacing
    slack = int((spec.window_width - span).total_seconds())
    jitter = timedelta(seconds=int(rng.integers(0, slack)))
    events: list[Event] = []
    position = 0
    current = windows[0]
    for k, (activity, w) in enumerate(zip(activities, windows)):
        if w != current:
            current, position = w, 0
        if forced_resources and k in forced_resources:
            resource = forced_resources[k]
        else:
            resource = spec.resources[int(rng.integers(len(spec.resources)))]
        t = spec.start + w * spec.window_width + jitter + position * spec.step_spacing
        events.append(
            Event(
                id=f"e{next_event_id[0]}",
                case=case,
                activity=activity,
                resource=resource,
                time=t,
            )
        )
        next_event_id[0] += 1
        position += 1
    return events


def _injection_windows(spec: LogSpec, inj: InjectionSpec) -> list[int]:
    """Window per chain activity for an injected case."""
    n = len(spec.activities)
    if not inj.ftype.uses_window_pair:
        return [inj.theta] * n
    w_in, w_out = inj.theta
    split = spec.activities.index(inj.segment.from_activity)
    return [w_in] * (split + 1) + [w_out] * (n - split - 1)


def _forced_resources(
    spec: LogSpec, inj: InjectionSpec, rng: np.random.Generator
) -> dict[int, str] | None:
    """Pin the segment's endpoint resources for workload/handover spikes."""
    i = spec.activities.index(inj.segment.from_activity)
    if inj.ftype is FeatureType.WORKLOAD:
        r = spec.resources[int(rng.integers(len(spec.resources)))]
        return {i: r, i + 1: r}
    if inj.ftype is FeatureType.HANDOVER:
        if len(spec.resources) < 2:
            raise SpecError("handover injection needs at least two resources")
        a, b = rng.choice(len(spec.resources), size=2, replace=False)
        return {i: spec.resources[int(a)], i + 1: spec.resources[int(b)]}
    return None


def generate_log(spec: LogSpec, seed: int) -> tuple[EventLog, GroundTruth]:
    """Deterministically generate the log and its ground truth for a seed."""
    import numpy as np  # only generation needs numpy; importing hlpaths does not

    spec.validate()
    rng = np.random.default_rng(seed)
    events: list[Event] = []
    outcomes: dict[str, str] = {}
    next_event_id = [0]

    def emit(case: str, windows: list[int], p_success: float, forced=None) -> None:
        succeeded = bool(rng.random() < p_success)
        outcomes[case] = "success" if succeeded else "failure"
        events.extend(
            _case_events(
                spec, rng, case, windows, succeeded,
                forced_resources=forced, next_event_id=next_event_id,
            )
        )

    for i in range(spec.n_cases):
        w = int(rng.integers(0, spec.n_windows))
        emit(f"case{i:04d}", [w] * len(spec.activities), spec.base_success)

    injections: list[Injection] = []
    for j, inj in enumerate(spec.injections):
        windows = _injection_windows(spec, inj)
        p = spec.base_success if inj.success_bias is None else inj.success_bias
        cases = []
        for i in range(inj.magnitude):
            case = f"inj{j}_{i:03d}"
            cases.append(case)
            emit(case, windows, p, forced=_forced_resources(spec, inj, rng))
        injections.append(
            Injection(
                ftype=inj.ftype,
                segment=inj.segment,
                theta=inj.theta,
                cases=frozenset(cases),
                success_bias=inj.success_bias,
            )
        )

    log = EventLog(events)
    truth = GroundTruth(
        spec=spec, seed=seed, outcomes=outcomes, injections=tuple(injections)
    )
    return log, truth


def demo_spec(seed_hint: int = 0) -> LogSpec:
    """A spec with one biased burst plus a batching delay — enough for the
    whole pipeline to have something to find."""
    chain = ("register", "check", "decide", "notify")
    return LogSpec(
        activities=chain,
        n_cases=200,
        n_windows=20,
        injections=(
            InjectionSpec(
                ftype=FeatureType.EXIT,
                segment=Segment("check", "decide"),
                theta=6 + seed_hint % 3,
                magnitude=60,
                success_bias=0.15,
            ),
            InjectionSpec(
                ftype=FeatureType.DELAY,
                segment=Segment("decide", "notify"),
                theta=(12, 15),
                magnitude=25,
                success_bias=None,
            ),
        ),
    )
