"""Run configuration: one flat record of every pipeline knob.

A config is read from a mapping or a YAML file; nothing writes one back.
The case-overlap level is called ``lambda`` in files and on the command
line; inside Python it lives as ``lam`` (the bare word is reserved).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import datetime
from typing import IO, Union

from .detection import PAIR_POPULATIONS
from .errors import ConfigError, LogParseError
from .event_log import parse_timestamp
from .linkage import EPISODE_CONDITIONS
from .patterns import ALL_FEATURE_TYPES, FeatureType
from .framing import parse_duration

ATTRIBUTES = ("outcome", "throughput")

# YAML/CLI name -> field name
_ALIASES = {"lambda": "lam"}


@dataclass(frozen=True, slots=True)
class RunConfig:
    window: str = "1d"
    origin: str | None = None  # ISO timestamp; None anchors at the log start
    percentile: float = 90.0
    delay_percentile: float = 70.0
    lam: float = 0.5
    max_len: int = 4
    top_segments: int | None = None
    blacklist: tuple[str, ...] = ()
    types: tuple[str, ...] = tuple(t.value for t in ALL_FEATURE_TYPES)
    pair_population: str = "occupied"
    episode_condition: str = "jaccard"
    attribute: str = "outcome"
    success_activity: str | None = None
    throughput_bins: int = 2
    alpha: float = 0.05

    def __post_init__(self) -> None:
        parse_duration(self.window)  # raises ConfigError on nonsense
        self.origin_time()
        if not 0 <= self.percentile <= 100:
            raise ConfigError(f"percentile must lie in [0, 100], got {self.percentile}")
        if not 0 <= self.delay_percentile <= 100:
            raise ConfigError(
                f"delay_percentile must lie in [0, 100], got {self.delay_percentile}"
            )
        if not 0 <= self.lam <= 1:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.top_segments is not None and self.top_segments < 1:
            raise ConfigError(f"top_segments must be >= 1, got {self.top_segments}")
        if self.pair_population not in PAIR_POPULATIONS:
            raise ConfigError(
                f"pair_population must be one of {PAIR_POPULATIONS}, "
                f"got {self.pair_population!r}"
            )
        if self.episode_condition not in EPISODE_CONDITIONS:
            raise ConfigError(
                f"episode_condition must be one of {EPISODE_CONDITIONS}, "
                f"got {self.episode_condition!r}"
            )
        if self.attribute not in ATTRIBUTES:
            raise ConfigError(
                f"attribute must be one of {ATTRIBUTES}, got {self.attribute!r}"
            )
        if self.throughput_bins < 2:
            raise ConfigError(f"throughput_bins must be >= 2, got {self.throughput_bins}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        for t in self.types:
            FeatureType.parse(t)

    def origin_time(self) -> datetime | None:
        """``origin`` as a UTC timestamp; None anchors the frame at the log start."""
        if self.origin is None:
            return None
        if isinstance(self.origin, str):
            try:
                return parse_timestamp(self.origin)
            except LogParseError:
                pass
        raise ConfigError(f"origin is not an ISO timestamp: {self.origin!r}")

    def feature_types(self) -> tuple[FeatureType, ...]:
        return tuple(FeatureType.parse(t) for t in self.types)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    # --- YAML ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            name = _ALIASES.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, source: Union[str, IO[str]]) -> "RunConfig":
        """A config read from a YAML stream or path; malformed YAML raises
        :class:`ConfigError` naming the line and column."""
        import yaml  # only config files need PyYAML

        try:
            if hasattr(source, "read"):
                data = yaml.safe_load(source)
            else:
                with open(source, "r", encoding="utf-8") as fp:
                    data = yaml.safe_load(fp)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or str(exc)
            raise ConfigError(f"config is not valid YAML{where}: {problem}") from None
        return cls.from_dict(data or {})
