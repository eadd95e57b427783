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
Steps stay behind: an event read back carries no steps.
"""

from __future__ import annotations

import csv
import json
import math
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


def _spread(times: list[str]) -> tuple[datetime, datetime]:
    first, last = (datetime.fromisoformat(t) for t in times)
    if first.tzinfo is None or last.tzinfo is None:
        raise ValueError("a spread time has no UTC offset")
    if first > last:
        raise ValueError("a spread starts after it ends")
    return first, last


def hle_from_dict(d: dict) -> HighLevelEvent:
    """The event a :func:`hle_to_dict` object describes. An id that is not
    an integer, a value that is not a finite number, a theta of the wrong
    shape for the type, cases other than a list of names, or a spread that
    is not two times with UTC offsets in order raise ValueError."""
    hle_id, value = d["id"], d["value"]
    if type(hle_id) is not int:
        raise ValueError(f"id must be an integer, got {hle_id!r}")
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"value must be a finite number, got {value!r}")
    ftype = FeatureType.parse(d["type"])
    theta = d["theta"]
    if ftype.uses_window_pair:
        if not (isinstance(theta, list) and len(theta) == 2
                and all(type(w) is int for w in theta)):
            raise ValueError(f"{ftype.value} theta must be a pair of windows, got {theta!r}")
        theta = (theta[0], theta[1])
    elif type(theta) is not int:
        raise ValueError(f"{ftype.value} theta must be one window, got {theta!r}")
    cases = d["cases"]
    if not isinstance(cases, list) or not set(map(type, cases)) <= {str}:
        raise ValueError("cases must be a list of case names")
    return HighLevelEvent(
        id=hle_id,
        ftype=ftype,
        segment=Segment(*d["segment"]),
        theta=theta,
        value=float(value),
        cases=frozenset(cases),
        start_spread=_spread(d["start_spread"]),
        end_spread=_spread(d["end_spread"]),
    )


def write_hles(hles: Iterable[HighLevelEvent], fp: IO[str]) -> None:
    for h in hles:
        fp.write(json.dumps(hle_to_dict(h), sort_keys=True) + "\n")


def read_hles(fp: IO[str]) -> Iterator[HighLevelEvent]:
    """The events of a JSON-lines file; a malformed line, or one repeating
    an earlier line's id, raises :class:`LogParseError` with its 1-based
    line number."""
    first_line: dict[int, int] = {}
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
        if hle.id in first_line:
            raise LogParseError(
                f"high-level event id {hle.id} repeats line {first_line[hle.id]}", line=line_no
            )
        first_line[hle.id] = line_no
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
