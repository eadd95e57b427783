"""Command-line front end.

Five subcommands mirror the pipeline: ``generate`` a synthetic log,
``detect`` high-level events, ``link`` them into episodes and paths,
``correlate`` path participation with a case attribute, and ``report``
for the whole chain in one go.

Exit codes: 0 on success, 1 on data or runtime failure, 2 on bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import ATTRIBUTES, RunConfig
from .detection import read_hles, summarize_by_type, write_hles
from .errors import ConfigError, LogParseError, SpecError
from .event_log import (
    CsvSchema,
    EventLog,
    parse_csv,
    parse_xes,
    write_csv,
)
from .linkage import EPISODE_CONDITIONS, Episode, group_episodes_by_path
from .pipeline import run_correlate, run_detect, run_link
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
        fmt = "xes" if ".xes" in path.name.lower() else "csv"
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

def cmd_generate(args: argparse.Namespace) -> int:
    spec = demo_spec()
    log, truth = generate_log(spec, args.seed)
    write_csv(log, args.out)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "seed": truth.seed,
                    "origin": spec.start.isoformat(),
                    "window_seconds": spec.window_width.total_seconds(),
                    "activities": list(spec.activities),
                    "success_activity": spec.success_activity,
                    "outcomes": truth.outcomes,
                    "injections": [
                        {
                            "type": inj.ftype.value,
                            "segment": list(inj.segment),
                            "theta": inj.theta if isinstance(inj.theta, int) else list(inj.theta),
                            "success_bias": inj.success_bias,
                            "cases": sorted(inj.cases),
                        }
                        for inj in truth.injections
                    ],
                },
                fp,
                indent=2,
            )
    print(f"wrote {len(log)} events, {len(log.cases)} cases to {args.out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    config = build_config(args)
    log = load_log(args)
    result = run_detect(log, config)
    out = _out_dir(args)
    with open(out / "hles.jsonl", "w", encoding="utf-8") as fp:
        write_hles(result.hles, fp)
    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["type", "from", "to", "hles", "threshold", "delay_threshold"])
        by_key: dict[tuple, int] = {}
        for h in result.hles:
            by_key[(h.ftype, h.segment)] = by_key.get((h.ftype, h.segment), 0) + 1
        for (ftype, segment), thr in sorted(
            result.thresholds.values.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            writer.writerow([
                ftype.value, segment.from_activity, segment.to_activity,
                by_key.get((ftype, segment), 0), thr,
                result.delay_thresholds.get(segment, ""),
            ])
    counts = summarize_by_type(result.hles)
    total = sum(counts.values())
    print(f"{total} high-level events across {len(result.index.segments)} segments")
    for name, n in counts.items():
        print(f"  {name:9s} {n}")
    print(f"wrote {out / 'hles.jsonl'} and {out / 'summary.csv'}")
    return 0


def _write_episodes(path: Path, episodes: list[Episode]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for ep in episodes:
            fp.write(json.dumps({
                "ids": list(ep.ids),
                "common_cases": sorted(ep.common_cases),
                "union_cases": sorted(ep.union_cases),
            }) + "\n")


def _read_episodes(path: Path, hles_path: Path) -> list[Episode]:
    with open(hles_path, "r", encoding="utf-8") as fp:
        by_id = {h.id: h for h in read_hles(fp)}
    episodes = []
    with open(path, "r", encoding="utf-8") as fp:
        for line_no, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                ids = obj["ids"]
                unknown = [i for i in ids if i not in by_id]
                common = frozenset(obj["common_cases"])
                union = frozenset(obj["union_cases"])
            except json.JSONDecodeError as exc:
                raise LogParseError(f"not valid JSON: {exc.msg}", line=line_no) from None
            except KeyError as exc:
                raise LogParseError(f"episode lacks {exc}", line=line_no) from None
            except TypeError as exc:
                raise LogParseError(f"malformed episode: {exc}", line=line_no) from None
            if unknown:
                raise LogParseError(
                    f"episode references unknown high-level event {unknown[0]}", line=line_no
                )
            episodes.append(Episode(
                hles=tuple(by_id[i] for i in ids), common_cases=common, union_cases=union,
            ))
    return episodes


def _write_paths_csv(path: Path, grouped) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["path", "length", "episodes"])
        ranked = sorted(grouped.items(), key=lambda kv: (-len(kv[1]), kv[0].label()))
        for hl_path, eps in ranked:
            writer.writerow([hl_path.label(), len(hl_path), len(eps)])


def cmd_link(args: argparse.Namespace) -> int:
    config = build_config(args)
    with open(args.hles, "r", encoding="utf-8") as fp:
        hles = list(read_hles(fp))
    result = run_link(hles, config)
    out = _out_dir(args)
    _write_episodes(out / "episodes.jsonl", result.episodes)
    _write_paths_csv(out / "paths.csv", result.grouped)
    print(
        f"{result.graph.n_edges} propagation edges, {len(result.episodes)} episodes, "
        f"{len(result.grouped)} distinct paths"
    )
    print(f"wrote {out / 'episodes.jsonl'} and {out / 'paths.csv'}")
    return 0


def _associations_rows(associations) -> list[list]:
    rows = []
    for a in associations:
        if a.result is None:
            rows.append([
                a.path.label(), len(a.path), a.frequency, a.n_participating,
                a.n_non_participating, "", "", "", "", False, a.skipped_reason,
            ])
        else:
            rows.append([
                a.path.label(), len(a.path), a.frequency, a.n_participating,
                a.n_non_participating,
                f"{a.result.statistic:.4f}", a.result.dof,
                f"{a.result.p_value:.6g}", f"{a.q_value:.6g}",
                a.significant, "low expected counts" if a.result.low_expected else "",
            ])
    return rows


def _write_associations(path: Path, associations) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow([
            "path", "length", "episodes", "participating", "non_participating",
            "chi2", "dof", "p", "q", "significant", "note",
        ])
        writer.writerows(_associations_rows(associations))


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
    episodes = _read_episodes(Path(args.episodes), Path(args.hles))
    grouped = group_episodes_by_path(episodes)
    result = run_correlate(log, grouped, config)
    out = _out_dir(args)
    _write_associations(out / "paths.csv", result.associations)
    n_sig = sum(a.significant for a in result.associations)
    print(f"{n_sig} of {len(result.associations)} paths significant at alpha={config.alpha}")
    _print_top(result.associations)
    print(f"wrote {out / 'paths.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = build_config(args)
    log = load_log(args)
    detect = run_detect(log, config)
    link = run_link(detect.hles, config)
    correlate = run_correlate(log, link.grouped, config)
    out = _out_dir(args)
    with open(out / "hles.jsonl", "w", encoding="utf-8") as fp:
        write_hles(detect.hles, fp)
    _write_episodes(out / "episodes.jsonl", link.episodes)
    _write_associations(out / "paths.csv", correlate.associations)
    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["measure", "value"])
        writer.writerow(["events", len(log)])
        writer.writerow(["cases", len(log.cases)])
        writer.writerow(["segments", len(detect.index.segments)])
        writer.writerow(["windows", len(detect.index.window_range)])
        for name, n in summarize_by_type(detect.hles).items():
            writer.writerow([f"hles_{name}", n])
        writer.writerow(["hles_total", len(detect.hles)])
        writer.writerow(["propagation_edges", link.graph.n_edges])
        writer.writerow(["episodes", len(link.episodes)])
        writer.writerow(["paths", len(link.grouped)])
        writer.writerow(["paths_significant", sum(a.significant for a in correlate.associations)])
    print(f"{len(log)} events, {len(log.cases)} cases, "
          f"{len(detect.index.window_range)} windows")
    print(f"{len(detect.hles)} high-level events; {len(link.episodes)} episodes; "
          f"{len(link.grouped)} paths")
    print(f"top paths by association with {config.attribute}:")
    _print_top(correlate.associations)
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
