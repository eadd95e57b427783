"""The three pipeline stages as pure functions over (log, config).

Each stage returns a result record carrying both the artifact and the
intermediate state (frame, thresholds, graph) so callers can inspect why
something was or was not found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .config import RunConfig
from .correlation import (
    AttributeBinning,
    PathAssociation,
    bin_cases,
    derive_outcome,
    derive_throughput,
    rank_paths,
)
from .detection import HighLevelEvent, ThresholdTable, compute_thresholds, detect_hles
from .errors import ConfigError
from .event_log import EventLog
from .framing import Framing, StepIndex, build_indices, parse_duration
from .linkage import (
    Episode,
    HighLevelPath,
    PropagationGraph,
    enumerate_episodes,
    group_episodes_by_path,
)
from .patterns import DelayThresholds, compute_delay_thresholds


@dataclass(slots=True)
class DetectResult:
    framing: Framing
    index: StepIndex
    delay_thresholds: DelayThresholds
    thresholds: ThresholdTable
    hles: list[HighLevelEvent]


@dataclass(slots=True)
class LinkResult:
    graph: PropagationGraph
    episodes: list[Episode]
    grouped: dict[HighLevelPath, list[Episode]]


@dataclass(slots=True)
class CorrelateResult:
    classes: dict[str, str]
    binning: AttributeBinning | None
    associations: list[PathAssociation]


@dataclass(slots=True)
class PipelineResult:
    detect: DetectResult
    link: LinkResult
    correlate: CorrelateResult


def make_framing(log: EventLog, config: RunConfig) -> Framing:
    width = parse_duration(config.window)
    origin = config.origin_time()
    if origin is None:
        return Framing.for_log(log, width)
    return Framing(width=width, origin=origin)


def run_detect(log: EventLog, config: RunConfig) -> DetectResult:
    framing = make_framing(log, config)
    index = build_indices(log, framing, top_segments=config.top_segments)
    delay_thresholds = compute_delay_thresholds(index, config.delay_percentile)
    blacklist = frozenset(config.blacklist)
    thresholds = compute_thresholds(
        index,
        config.percentile,
        delay_thresholds=delay_thresholds,
        blacklist=blacklist,
        pair_population=config.pair_population,
        types=config.feature_types(),
    )
    hles = detect_hles(
        index,
        thresholds,
        delay_thresholds=delay_thresholds,
        blacklist=blacklist,
        types=config.feature_types(),
    )
    return DetectResult(
        framing=framing,
        index=index,
        delay_thresholds=delay_thresholds,
        thresholds=thresholds,
        hles=hles,
    )


def run_link(hles: list[HighLevelEvent], config: RunConfig) -> LinkResult:
    graph = PropagationGraph.build(hles, config.lam)
    episodes = enumerate_episodes(
        graph,
        max_len=config.max_len,
        lam=config.lam,
        condition=config.episode_condition,
    )
    return LinkResult(
        graph=graph, episodes=episodes, grouped=group_episodes_by_path(episodes)
    )


def derive_classes(
    log: EventLog, config: RunConfig
) -> tuple[dict[str, str], AttributeBinning | None]:
    if config.attribute == "outcome":
        if not config.success_activity:
            raise ConfigError("the outcome attribute needs success_activity")
        return derive_outcome(log, config.success_activity), None
    values = derive_throughput(log)
    binning = AttributeBinning.by_quantiles(values.values(), config.throughput_bins)
    return bin_cases(values, binning), binning


def run_correlate(
    log: EventLog,
    grouped: Mapping[HighLevelPath, list[Episode]],
    config: RunConfig,
) -> CorrelateResult:
    classes, binning = derive_classes(log, config)
    associations = rank_paths(log, grouped, classes, alpha=config.alpha)
    return CorrelateResult(classes=classes, binning=binning, associations=associations)


def run_all(log: EventLog, config: RunConfig) -> PipelineResult:
    detect = run_detect(log, config)
    link = run_link(detect.hles, config)
    correlate = run_correlate(log, link.grouped, config)
    return PipelineResult(detect=detect, link=link, correlate=correlate)
