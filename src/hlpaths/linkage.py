"""Linking high-level events into episodes and recurring high-level paths.

Event h may propagate into h' when three overlaps hold at once:

* location — h ends on the activity where h' starts (segments chain);
* cases    — the Jaccard similarity of their case sets reaches lambda;
* time     — the end spread of h lies inside the start spread of h', or
  the other way around (closed intervals).

An episode is a simple chain along that relation whose case sets stay
coherent as a whole; its projection onto (type, segment) pairs is a
high-level path. Paths recur across the log, so episodes are grouped per
path with frequencies.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import timedelta
from typing import Iterable

from .detection import HighLevelEvent
from .errors import ConfigError
from .event_log import Segment
from .patterns import FeatureType

EPISODE_CONDITIONS = ("jaccard", "min_fraction")


def jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def location_overlap(h: HighLevelEvent, g: HighLevelEvent) -> bool:
    return h.segment.to_activity == g.segment.from_activity


def _contains(outer: tuple, inner: tuple) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def time_overlap(h: HighLevelEvent, g: HighLevelEvent) -> bool:
    """End spread of h inside start spread of g, or vice versa."""
    return _contains(g.start_spread, h.end_spread) or _contains(
        h.end_spread, g.start_spread
    )


def case_overlap(h: HighLevelEvent, g: HighLevelEvent, lam: float) -> bool:
    return jaccard(h.cases, g.cases) >= lam


def propagates(h: HighLevelEvent, g: HighLevelEvent, lam: float) -> bool:
    """The directed propagation relation; never reflexive. The cheap time
    test runs before the Jaccard overlap: it rejects most candidates."""
    return (
        h.id != g.id
        and location_overlap(h, g)
        and time_overlap(h, g)
        and case_overlap(h, g, lam)
    )


@dataclass(slots=True)
class PropagationGraph:
    hles: dict[int, HighLevelEvent]
    successors: dict[int, tuple[int, ...]]

    @classmethod
    def build(cls, hles: Iterable[HighLevelEvent], lam: float) -> "PropagationGraph":
        """Every edge of the propagation relation among ``hles``.

        Each spread must run forwards (start <= end), as ``detect_hles``
        builds them and ``read_hles`` checks; only the candidates whose start
        spread can contain, or lie inside, an end spread are tested.
        """
        if not 0 <= lam <= 1:
            raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
        hles = list(hles)
        by_id = {h.id: h for h in hles}
        if len(by_id) != len(hles):
            raise ValueError("duplicate high-level event ids")
        # only events starting where h ends can chain: group the candidates
        # per junction activity, sorted by the start of their start spread
        by_start: dict[str, list[HighLevelEvent]] = defaultdict(list)
        for g in by_id.values():
            by_start[g.segment.from_activity].append(g)
        junctions = {}
        for activity, candidates in by_start.items():
            candidates.sort(key=lambda g: g.start_spread[0])
            starts = [g.start_spread[0] for g in candidates]
            span = max(timedelta(0), *(g.start_spread[1] - g.start_spread[0] for g in candidates))
            junctions[activity] = (candidates, starts, span)
        successors: dict[int, tuple[int, ...]] = {}
        for h in by_id.values():
            candidates, starts, span = junctions.get(h.segment.to_activity, ([], [], timedelta(0)))
            e0, e1 = h.end_spread
            # a start spread holding [e0, e1] starts in [e1 - span, e0], one
            # inside it starts in [e0, e1]: nobody outside the window overlaps
            lo = bisect.bisect_left(starts, min(e0, e1 - span))
            hi = bisect.bisect_right(starts, e1)
            successors[h.id] = tuple(
                sorted(g.id for g in candidates[lo:hi] if propagates(h, g, lam))
            )
        return cls(hles=by_id, successors=successors)

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.successors.values())


PathElement = tuple[FeatureType, Segment]


@dataclass(frozen=True, slots=True)
class HighLevelPath:
    """The (type, segment) shape an episode follows."""

    elements: tuple[PathElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def activity_chain(self) -> tuple[str, ...]:
        """Fold the chained segments into the activity sequence they cover:
        n elements give n+1 activities."""
        if not self.elements:
            raise ValueError("empty path")
        chain = [self.elements[0][1].from_activity]
        for _, segment in self.elements:
            if segment.from_activity != chain[-1]:
                raise ValueError(f"segments do not chain in {self.elements}")
            chain.append(segment.to_activity)
        return tuple(chain)

    def label(self) -> str:
        return " => ".join(
            f"{ftype.value}({seg.from_activity}>{seg.to_activity})"
            for ftype, seg in self.elements
        )


@dataclass(frozen=True, slots=True)
class Episode:
    hles: tuple[HighLevelEvent, ...]
    common_cases: frozenset[str]
    union_cases: frozenset[str]

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(h.id for h in self.hles)

    @property
    def path(self) -> HighLevelPath:
        return HighLevelPath(tuple((h.ftype, h.segment) for h in self.hles))

    def __len__(self) -> int:
        return len(self.hles)


def _episode_holds(
    condition: str, lam: float, common: frozenset, union: frozenset, sizes: list[int]
) -> bool:
    if condition == "jaccard":
        return (len(common) / len(union) if union else 0.0) >= lam
    # min_fraction: the common core must cover a lambda share of the
    # smallest participating case set
    return len(common) >= math.ceil(lam * min(sizes))


def _extend(
    graph: PropagationGraph,
    episodes: list[Episode],
    chain: list[int],
    common: frozenset,
    union: frozenset,
    sizes: list[int],
    max_len: int,
    lam: float,
    condition: str,
    max_episodes: int | None,
) -> None:
    """Record ``chain`` if it holds, then every extension of it, in
    pre-order. A module-level function rather than a closure, so that no
    reference cycle keeps the episodes alive after the call."""
    holds = _episode_holds(condition, lam, common, union, sizes)
    if condition == "jaccard" and not holds:
        return
    if holds:
        if max_episodes is not None and len(episodes) >= max_episodes:
            raise RuntimeError(f"more than {max_episodes} episodes; tighten lambda or max_len")
        episodes.append(
            Episode(
                hles=tuple(graph.hles[i] for i in chain),
                common_cases=common,
                union_cases=union,
            )
        )
    if len(chain) >= max_len:
        return
    if condition == "min_fraction" and lam > 0 and not common:
        return
    in_chain = set(chain)
    for nxt in graph.successors[chain[-1]]:
        if nxt in in_chain:
            continue
        cases = graph.hles[nxt].cases
        _extend(
            graph, episodes, chain + [nxt], common & cases, union | cases,
            sizes + [len(cases)], max_len, lam, condition, max_episodes,
        )


def enumerate_episodes(
    graph: PropagationGraph,
    *,
    max_len: int = 4,
    lam: float = 0.5,
    condition: str = "jaccard",
    max_episodes: int | None = None,
) -> list[Episode]:
    """Every simple chain through the propagation graph, lengths 1..max_len,
    whose case sets satisfy the episode condition.

    Under the jaccard condition the score can only drop as a chain grows
    (the intersection shrinks, the union grows), so a failing prefix prunes
    the whole subtree exactly. The min_fraction alternative is not monotone
    — only an empty intersection is safe to prune there.
    """
    if condition not in EPISODE_CONDITIONS:
        raise ConfigError(
            f"episode condition must be one of {EPISODE_CONDITIONS}, got {condition!r}"
        )
    if max_len < 1:
        raise ConfigError(f"max episode length must be >= 1, got {max_len}")
    episodes: list[Episode] = []
    for start in sorted(graph.hles):
        cases = graph.hles[start].cases
        _extend(
            graph, episodes, [start], cases, cases, [len(cases)],
            max_len, lam, condition, max_episodes,
        )
    return episodes


def group_episodes_by_path(
    episodes: Iterable[Episode],
) -> dict[HighLevelPath, list[Episode]]:
    grouped: dict[HighLevelPath, list[Episode]] = defaultdict(list)
    for ep in episodes:
        grouped[ep.path].append(ep)
    return dict(grouped)

