"""Every file format the pipeline reads and writes, beside the event log.

* ``hles.jsonl``: one high-level event per line, :func:`write_hles` and
  :func:`read_hles`;
* ``episodes.jsonl``: one episode per line naming its events by id,
  :func:`write_episodes` and :func:`read_episodes`;
* ``paths.csv``: the paths with their episode counts from ``link``
  (:func:`write_paths`), or one chi-square row per path from
  ``correlate`` and ``report`` (:func:`write_associations`);
* ``summary.csv``: per (type, segment) from ``detect``
  (:func:`write_detect_summary`), or one measure per row from ``report``
  (:func:`write_report_summary`);
* the ground-truth JSON of ``generate``: :func:`write_truth`.

Writers take the data and an open text stream. The readers raise
:class:`LogParseError` with the 1-based line number of a malformed line.
Steps stay behind: an event read back carries no step set.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from datetime import datetime
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Union

from .detection import HighLevelEvent, summarize_by_type
from .errors import LogParseError
from .event_log import EventLog, Segment
from .framing import Theta
from .linkage import Episode, HighLevelPath
from .patterns import FeatureType

if TYPE_CHECKING:
    from .correlation import PathAssociation
    from .pipeline import DetectResult, PipelineResult
    from .synthgen import GroundTruth


def _theta_to_json(theta: Theta) -> Union[int, list[int]]:
    return theta if isinstance(theta, int) else list(theta)


# --- high-level events ------------------------------------------------------

def hle_to_dict(h: HighLevelEvent) -> dict:
    return {
        "id": h.id,
        "type": h.ftype.value,
        "segment": list(h.segment),
        "theta": _theta_to_json(h.theta),
        "value": h.value,
        "n_steps": len(h.steps),
        "cases": sorted(h.cases),
        "start_spread": [t.isoformat() for t in h.start_spread],
        "end_spread": [t.isoformat() for t in h.end_spread],
    }


def hle_from_dict(d: dict) -> HighLevelEvent:
    theta = d["theta"]
    start = tuple(datetime.fromisoformat(t) for t in d["start_spread"])
    end = tuple(datetime.fromisoformat(t) for t in d["end_spread"])
    if start[0] > start[1] or end[0] > end[1]:
        raise ValueError("a spread starts after it ends")
    return HighLevelEvent(
        id=int(d["id"]),
        ftype=FeatureType.parse(d["type"]),
        segment=Segment(*d["segment"]),
        theta=theta if isinstance(theta, int) else (int(theta[0]), int(theta[1])),
        value=float(d["value"]),
        cases=frozenset(d["cases"]),
        start_spread=(start[0], start[1]),
        end_spread=(end[0], end[1]),
    )


def write_hles(hles: Iterable[HighLevelEvent], fp: IO[str]) -> None:
    for h in hles:
        fp.write(json.dumps(hle_to_dict(h), sort_keys=True) + "\n")


def read_hles(fp: IO[str]) -> Iterator[HighLevelEvent]:
    """The events of a JSON-lines file; a malformed line raises
    :class:`LogParseError` with its 1-based line number."""
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            hle = hle_from_dict(json.loads(line))
        except json.JSONDecodeError as exc:
            raise LogParseError(f"not valid JSON: {exc.msg}", line=line_no) from None
        except KeyError as exc:
            raise LogParseError(f"high-level event lacks {exc}", line=line_no) from None
        except (TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
            raise LogParseError(f"malformed high-level event: {exc}", line=line_no) from None
        yield hle


# --- episodes ---------------------------------------------------------------

def write_episodes(episodes: Iterable[Episode], fp: IO[str]) -> None:
    for ep in episodes:
        fp.write(json.dumps({
            "ids": list(ep.ids),
            "common_cases": sorted(ep.common_cases),
            "union_cases": sorted(ep.union_cases),
        }) + "\n")


def _episode_problem(ids, common, union, by_id: Mapping[int, HighLevelEvent]) -> str | None:
    """Why an episode line does not describe a chain of known events with
    its case sets, or None when it does."""
    if not isinstance(ids, list) or not ids:
        return "episode ids must be a non-empty list"
    for i in ids:
        if type(i) is not int or i not in by_id:
            return f"episode references unknown high-level event {i!r}"
    if len(set(ids)) < len(ids):
        repeated = next(i for i in ids if ids.count(i) > 1)
        return f"episode repeats high-level event {repeated}"
    for a, b in zip(ids, ids[1:]):
        end, start = by_id[a].segment.to_activity, by_id[b].segment.from_activity
        if end != start:
            return (f"episode does not chain: high-level event {a} ends at {end!r}, "
                    f"{b} starts at {start!r}")
    for key, cases in (("common_cases", common), ("union_cases", union)):
        if not isinstance(cases, list) or not all(isinstance(c, str) for c in cases):
            return f"episode {key} must be a list of case names"
    return None


def read_episodes(fp: IO[str], hles: Iterable[HighLevelEvent]) -> list[Episode]:
    """The episodes of a JSON-lines file over ``hles``, the events read
    back from the ``hles.jsonl`` they were linked from. Each line must name
    distinct known events, each ending on the activity where the next
    starts, and list its case names."""
    by_id = {h.id: h for h in hles}
    episodes = []
    for line_no, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            ids, common, union = obj["ids"], obj["common_cases"], obj["union_cases"]
        except json.JSONDecodeError as exc:
            raise LogParseError(f"not valid JSON: {exc.msg}", line=line_no) from None
        except KeyError as exc:
            raise LogParseError(f"episode lacks {exc}", line=line_no) from None
        except TypeError as exc:
            raise LogParseError(f"malformed episode: {exc}", line=line_no) from None
        problem = _episode_problem(ids, common, union, by_id)
        if problem:
            raise LogParseError(problem, line=line_no)
        episodes.append(Episode(
            hles=tuple(by_id[i] for i in ids),
            common_cases=frozenset(common),
            union_cases=frozenset(union),
        ))
    return episodes


# --- CSV tables -------------------------------------------------------------

def write_paths(grouped: Mapping[HighLevelPath, list[Episode]], fp: IO[str]) -> None:
    """Every path with its episode count, most frequent first."""
    writer = csv.writer(fp)
    writer.writerow(["path", "length", "episodes"])
    ranked = sorted(grouped.items(), key=lambda kv: (-len(kv[1]), kv[0].label()))
    for path, eps in ranked:
        writer.writerow([path.label(), len(path), len(eps)])


def write_associations(associations: Iterable[PathAssociation], fp: IO[str]) -> None:
    """One row per path in ranked order; a skipped path leaves the test
    columns empty and names its reason."""
    writer = csv.writer(fp)
    writer.writerow([
        "path", "length", "episodes", "participating", "non_participating",
        "chi2", "dof", "p", "q", "significant", "note",
    ])
    for a in associations:
        head = [a.path.label(), len(a.path), a.frequency, a.n_participating,
                a.n_non_participating]
        if a.result is None:
            writer.writerow(head + ["", "", "", "", False, a.skipped_reason])
        else:
            writer.writerow(head + [
                f"{a.result.statistic:.4f}", a.result.dof,
                f"{a.result.p_value:.6g}", f"{a.q_value:.6g}",
                a.significant, "low expected counts" if a.result.low_expected else "",
            ])


def write_detect_summary(detect: DetectResult, fp: IO[str]) -> None:
    """Per (type, segment): the events found, the threshold and the
    segment's delay threshold."""
    found = Counter((h.ftype, h.segment) for h in detect.hles)
    writer = csv.writer(fp)
    writer.writerow(["type", "from", "to", "hles", "threshold", "delay_threshold"])
    for (ftype, segment), thr in sorted(
        detect.thresholds.values.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        writer.writerow([
            ftype.value, segment.from_activity, segment.to_activity,
            found[(ftype, segment)], thr,
            detect.delay_thresholds.get(segment, ""),
        ])


def write_report_summary(log: EventLog, result: PipelineResult, fp: IO[str]) -> None:
    """One measure per row: the sizes of the log and of every stage."""
    detect, link = result.detect, result.link
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
    writer.writerow([
        "paths_significant", sum(a.significant for a in result.correlate.associations)
    ])


# --- ground truth -----------------------------------------------------------

def write_truth(truth: GroundTruth, fp: IO[str]) -> None:
    """The generating spec's frame and activities, the outcomes and the
    planted injections of a synthetic log."""
    spec = truth.spec
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
                    "theta": _theta_to_json(inj.theta),
                    "success_bias": inj.success_bias,
                    "cases": sorted(inj.cases),
                }
                for inj in truth.injections
            ],
        },
        fp,
        indent=2,
    )
