"""Detect, link and correlate high-level behavior in process event logs.

The pipeline has three stages. Detection frames the log into time windows
and turns unusually high pattern values (load spikes, busy resources,
batching, delays) on activity transitions into discrete high-level
events. Linkage chains events that plausibly propagate into each other —
shared cases, chained locations, nested time spreads — into episodes and
groups them by the high-level path they follow. Correlation then asks
whether participating in a path goes together with a case-level attribute
such as the outcome or the throughput time, via Pearson's chi-square test
with Benjamini-Hochberg adjustment across paths.

The package root exports the stages, the pieces the demos call, the
result records and the errors. Everything else is importable from its
module; :mod:`hlpaths.io` holds the file formats.
"""


from .config import RunConfig
from .correlation import (
    AttributeBinning,
    bin_cases,
    derive_outcome,
    derive_throughput,
    rank_paths,
)
from .detection import compute_thresholds, detect_hles, summarize_by_type
from .errors import ConfigError, LogParseError, SpecError
from .event_log import derive_steps, parse_csv, parse_xes, write_csv
from .framing import Framing, build_indices, parse_duration, windows_of_log
from .linkage import PropagationGraph, enumerate_episodes
from .patterns import compute_delay_thresholds
from .pipeline import (
    CorrelateResult,
    DetectResult,
    LinkResult,
    PipelineResult,
    run_all,
    run_correlate,
    run_detect,
    run_link,
)
from .synthgen import demo_spec, generate_log

__version__ = "0.1.0"

__all__ = [
    "AttributeBinning",
    "ConfigError",
    "CorrelateResult",
    "DetectResult",
    "Framing",
    "LinkResult",
    "LogParseError",
    "PipelineResult",
    "PropagationGraph",
    "RunConfig",
    "SpecError",
    "bin_cases",
    "build_indices",
    "compute_delay_thresholds",
    "compute_thresholds",
    "demo_spec",
    "derive_outcome",
    "derive_steps",
    "derive_throughput",
    "detect_hles",
    "enumerate_episodes",
    "generate_log",
    "parse_csv",
    "parse_duration",
    "parse_xes",
    "rank_paths",
    "run_all",
    "run_correlate",
    "run_detect",
    "run_link",
    "summarize_by_type",
    "windows_of_log",
    "write_csv",
]
