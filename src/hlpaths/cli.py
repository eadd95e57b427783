"""Command-line front end.

Five subcommands mirror the pipeline: ``generate`` a synthetic log,
``detect`` high-level events, ``link`` them into episodes and paths,
``correlate`` path participation with a case attribute, and ``report``
for the whole chain in one go. Each one reads its configuration, loads
its inputs, runs its stage and hands the results to the writers of
:mod:`hlpaths.io`, which owns every output format.

Exit codes: 0 on success, 1 on data or runtime failure, 2 on bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ATTRIBUTES, RunConfig
from .detection import summarize_by_type
from .errors import ConfigError, LogParseError, SpecError
from .event_log import (
    CsvSchema,
    EventLog,
    parse_csv,
    parse_xes,
    write_csv,
)
from .io import (
    read_episodes,
    read_hles,
    write_associations,
    write_detect_summary,
    write_episodes,
    write_hles,
    write_paths,
    write_report_summary,
    write_truth,
)
from .linkage import EPISODE_CONDITIONS, group_episodes_by_path
from .pipeline import run_all, run_correlate, run_detect, run_link
from .synthgen import demo_spec, generate_log

_CONFIG_FLAGS = (
    "window", "origin", "percentile", "delay_percentile", "lam", "max_len",
    "top_segments", "pair_population", "episode_condition", "attribute",
    "success_activity", "throughput_bins", "alpha",
)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="event log file")
    p.add_argument(
        "--format", choices=("csv", "xes"), default=None,
        help="log format (default: by file extension)",
    )
    p.add_argument("--case-column", default=None, help="CSV case id column")
    p.add_argument("--activity-column", default=None, help="CSV activity column")
    p.add_argument("--timestamp-column", default=None, help="CSV timestamp column")
    p.add_argument(
        "--resource-column", default=None,
        help="CSV resource column ('' for none)",
    )


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="YAML config file")
    p.add_argument("--window", default=None, help="window width, e.g. 1d, 4h, 30m")
    p.add_argument("--origin", default=None, help="frame origin (ISO timestamp)")
    p.add_argument("--percentile", type=float, default=None,
                   help="detection threshold percentile")
    p.add_argument("--delay-percentile", type=float, default=None,
                   dest="delay_percentile", help="delay distance percentile")
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="case-overlap level for linking")
    p.add_argument("--max-len", type=int, default=None, dest="max_len",
                   help="maximum episode length")
    p.add_argument("--top-segments", type=int, default=None, dest="top_segments",
                   help="keep only the k most frequent segments")
    p.add_argument("--blacklist", action="append", default=None, metavar="RESOURCE",
                   help="resource excluded from workload/handover (repeatable)")
    p.add_argument("--types", default=None,
                   help="comma-separated feature types to detect")
    p.add_argument("--pair-population", choices=("occupied", "all"), default=None,
                   dest="pair_population")
    p.add_argument("--condition", choices=EPISODE_CONDITIONS, default=None,
                   dest="episode_condition", help="episode case condition")
    p.add_argument("--attribute", choices=ATTRIBUTES, default=None,
                   help="case attribute to correlate with")
    p.add_argument("--success-activity", default=None, dest="success_activity",
                   help="activity marking a successful case")
    p.add_argument("--bins", type=int, default=None, dest="throughput_bins",
                   help="number of throughput-time bins")
    p.add_argument("--alpha", type=float, default=None, help="significance level")


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_yaml(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "blacklist", None):
        overrides["blacklist"] = tuple(args.blacklist)
    if getattr(args, "types", None):
        overrides["types"] = tuple(t.strip() for t in args.types.split(",") if t.strip())
    return cfg.replace(**overrides) if overrides else cfg


def load_log(args: argparse.Namespace) -> EventLog:
    path = Path(args.input)
    fmt = args.format
    if fmt is None:
        fmt = "xes" if path.name.lower().endswith((".xes", ".xes.gz")) else "csv"
    if fmt == "xes":
        return parse_xes(path)
    schema = CsvSchema(
        case=args.case_column or "case",
        activity=args.activity_column or "activity",
        timestamp=args.timestamp_column or "timestamp",
        resource=(
            None if args.resource_column == "" else (args.resource_column or "resource")
        ),
    )
    return parse_csv(path, schema)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ------------------------------------------------------------

def _write(path: Path, writer, *data) -> None:
    """Write ``data`` to ``path`` with one of the :mod:`hlpaths.io` writers."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer(*data, fp)


def _read_hles(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fp:
        return list(read_hles(fp))


def cmd_generate(args: argparse.Namespace) -> int:
    log, truth = generate_log(demo_spec(), args.seed)
    write_csv(log, args.out)
    if args.truth:
        _write(Path(args.truth), write_truth, truth)
    print(f"wrote {len(log)} events, {len(log.cases)} cases to {args.out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    config = build_config(args)
    log = load_log(args)
    result = run_detect(log, config)
    out = _out_dir(args)
    _write(out / "hles.jsonl", write_hles, result.hles)
    _write(out / "summary.csv", write_detect_summary, result)
    counts = summarize_by_type(result.hles)
    total = sum(counts.values())
    print(f"{total} high-level events across {len(result.index.segments)} segments")
    for name, n in counts.items():
        print(f"  {name:9s} {n}")
    print(f"wrote {out / 'hles.jsonl'} and {out / 'summary.csv'}")
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    config = build_config(args)
    result = run_link(_read_hles(args.hles), config)
    out = _out_dir(args)
    _write(out / "episodes.jsonl", write_episodes, result.episodes)
    _write(out / "paths.csv", write_paths, result.grouped)
    print(
        f"{result.graph.n_edges} propagation edges, {len(result.episodes)} episodes, "
        f"{len(result.grouped)} distinct paths"
    )
    print(f"wrote {out / 'episodes.jsonl'} and {out / 'paths.csv'}")
    return 0


def _print_top(associations, limit: int = 10) -> None:
    shown = associations[:limit]
    if not shown:
        print("no paths to test")
        return
    width = max(len(a.path.label()) for a in shown)
    for a in shown:
        label = a.path.label().ljust(width)
        if a.result is None:
            print(f"  {label}  skipped: {a.skipped_reason}")
        else:
            mark = "*" if a.significant else " "
            print(
                f"  {label}  chi2={a.result.statistic:8.3f}  p={a.result.p_value:.3g}"
                f"  q={a.q_value:.3g} {mark}"
            )


def cmd_correlate(args: argparse.Namespace) -> int:
    config = build_config(args)
    log = load_log(args)
    hles = _read_hles(args.hles)
    with open(args.episodes, "r", encoding="utf-8") as fp:
        episodes = read_episodes(fp, hles)
    result = run_correlate(log, group_episodes_by_path(episodes), config)
    out = _out_dir(args)
    _write(out / "paths.csv", write_associations, result.associations)
    n_sig = sum(a.significant for a in result.associations)
    print(f"{n_sig} of {len(result.associations)} paths significant at alpha={config.alpha}")
    _print_top(result.associations)
    print(f"wrote {out / 'paths.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = build_config(args)
    log = load_log(args)
    result = run_all(log, config)
    detect, link = result.detect, result.link
    out = _out_dir(args)
    _write(out / "hles.jsonl", write_hles, detect.hles)
    _write(out / "episodes.jsonl", write_episodes, link.episodes)
    _write(out / "paths.csv", write_associations, result.correlate.associations)
    _write(out / "summary.csv", write_report_summary, log, result)
    print(f"{len(log)} events, {len(log.cases)} cases, "
          f"{len(detect.index.window_range)} windows")
    print(f"{len(detect.hles)} high-level events; {len(link.episodes)} episodes; "
          f"{len(link.grouped)} paths")
    print(f"top paths by association with {config.attribute}:")
    _print_top(result.correlate.associations)
    print(f"wrote hles.jsonl, episodes.jsonl, paths.csv, summary.csv to {out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlpaths",
        description="detect, link and correlate high-level behavior in event logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic log with ground truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV log path")
    p.add_argument("--truth", default=None, help="ground-truth JSON path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="detect high-level events")
    _add_io_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("link", help="link detected events into episodes and paths")
    p.add_argument("--hles", required=True, help="hles.jsonl from detect")
    _add_config_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("correlate", help="test paths against a case attribute")
    _add_io_flags(p)
    p.add_argument("--hles", required=True, help="hles.jsonl from detect")
    p.add_argument("--episodes", required=True, help="episodes.jsonl from link")
    _add_config_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("report", help="run the whole pipeline and summarize")
    _add_io_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LogParseError, SpecError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
