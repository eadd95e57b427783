"""Checks of a workload's outputs against computations made apart from the
program.

Nothing here imports ``hlpaths``. The input is read again with the standard
library; pattern values, thresholds and fired coordinates are recounted with
numpy; chi-square and Benjamini-Hochberg come from scipy. The checks compare
the program's files with these recomputations and with properties of the
method (conservation of steps, episode coherence), never with a stored copy
of earlier output.

Every check returns a list of problems; an empty list means the outputs are
correct.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from scipy.stats import chi2_contingency, false_discovery_control

from workloads import COMMON_FLAGS, Run, out_dir

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
US = timedelta(microseconds=1)
WIDTH_US = 86400 * 10**6  # one-day windows
SAMPLE_PATHS = 40


def to_us(text: str) -> int:
    """ISO timestamp to microseconds since the epoch; naive means UTC."""
    t = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return (t - EPOCH) // US


# --- the input, read apart from the program ------------------------------------

def read_log(path: Path) -> dict[str, list[tuple[str, str, int]]]:
    """case -> [(activity, resource, time in us)], time-ordered.

    XES activities carry their lifecycle transition as ``name|TRANSITION``.
    """
    cases: dict[str, list] = defaultdict(list)
    if path.name.endswith(".xes.gz"):
        with gzip.open(path, "rb") as fp:
            for _, elem in ET.iterparse(fp):
                if not elem.tag.endswith("trace"):
                    continue
                case = ""
                for child in elem:
                    if child.tag.endswith("string") and child.get("key") == "concept:name":
                        case = child.get("value")
                    elif child.tag.endswith("event"):
                        a = {x.get("key"): x.get("value") for x in child}
                        activity = a["concept:name"].strip()
                        if a.get("lifecycle:transition"):
                            activity += "|" + a["lifecycle:transition"].strip().upper()
                        cases[case].append((activity, a.get("org:resource", "").strip(),
                                            to_us(a["time:timestamp"])))
                elem.clear()
    else:
        with open(path, encoding="utf-8", newline="") as fp:
            for row in csv.DictReader(fp):
                cases[row["case"].strip()].append(
                    (row["activity"].strip(), row["resource"].strip(), to_us(row["timestamp"])))
    for events in cases.values():
        events.sort(key=lambda e: e[2])
    return dict(cases)


# --- detection, recounted --------------------------------------------------------

@dataclass
class Coordinate:
    value: int
    cases: frozenset
    start_spread: tuple[int, int]
    end_spread: tuple[int, int]


@dataclass
class Recount:
    windows: range
    step_counts: dict[tuple, int]  # every segment of the log
    segments: list[tuple]  # the retained ones, sorted
    delay: dict[tuple, int]
    thresholds: dict[tuple, float]  # (type, segment) -> threshold
    fired: dict[tuple, Coordinate]  # (type, segment, theta) -> coordinate
    problems: list[str]


def nearest_rank_threshold(values: np.ndarray, zeros: int, p: float) -> float:
    """Element floor(p*n/100) of the sorted population made of ``values``
    plus ``zeros`` structural zeros; +inf past the end."""
    n = len(values) + zeros
    pos = math.floor(p * n / 100)
    if pos >= n:
        return math.inf
    if pos < zeros:
        return 0.0
    return float(np.sort(values)[pos - zeros])


def recount(cases: dict, run: Run) -> Recount:
    problems = []
    times = [t for events in cases.values() for _, _, t in events]
    if run.origin is not None:
        origin = (run.origin - EPOCH) // US
    else:
        origin = min(times) - min(times) % WIDTH_US  # midnight UTC of the first day
    lo, hi = (min(times) - origin) // WIDTH_US, (max(times) - origin) // WIDTH_US
    windows = range(lo, hi + 1)
    n_windows = len(windows)

    steps: dict[tuple, list] = defaultdict(list)
    for case, events in cases.items():
        for (a, ra, ta), (b, rb, tb) in zip(events, events[1:]):
            if tb <= ta:
                problems.append(f"input: case {case} is not strictly time-ordered")
            steps[(a, b)].append((case, ra, rb, ta, tb))
    step_counts = {s: len(v) for s, v in steps.items()}
    ranked = sorted(step_counts, key=lambda s: (-step_counts[s], s))
    k = run.top_segments if run.top_segments is not None else len(ranked)
    segments = sorted(ranked[:k])

    p, q = COMMON_FLAGS["percentile"], COMMON_FLAGS["delay_percentile"]
    blacklist = set(run.blacklist)
    delay, thresholds, fired = {}, {}, {}
    for seg in segments:
        rows = steps[seg]
        case_ids = np.array([r[0] for r in rows], dtype=object)
        t_in = np.array([r[3] for r in rows], dtype=np.int64)
        t_out = np.array([r[4] for r in rows], dtype=np.int64)
        w_in, w_out = (t_in - origin) // WIDTH_US, (t_out - origin) // WIDTH_US
        usable = np.array([bool(ra) and bool(rb) and ra not in blacklist and rb not in blacklist
                           for _, ra, rb, _, _ in rows])
        same = np.array([ra == rb for _, ra, rb, _, _ in rows])
        distances = np.sort(w_out - w_in)
        delay[seg] = max(1, math.ceil(distances[min(len(rows) - 1, math.floor(q * len(rows) / 100))]))

        enter = np.bincount(w_in - lo, minlength=n_windows)
        exit_ = np.bincount(w_out - lo, minlength=n_windows)
        pairs, pair_of, batch = np.unique(np.stack([w_in, w_out], axis=1), axis=0,
                                          return_inverse=True, return_counts=True)
        pair_of = pair_of.reshape(-1)
        if not enter.sum() == exit_.sum() == batch.sum() == len(rows):
            problems.append(f"recount: steps of {seg} are not conserved")
        delayed = (pairs[:, 1] - pairs[:, 0]) >= delay[seg]
        single = {
            "enter": (enter, w_in, np.ones(len(rows), bool)),
            "exit": (exit_, w_out, np.ones(len(rows), bool)),
            "workload": (None, w_out, usable & same),
            "handover": (None, w_out, usable & ~same),
        }
        for ftype in run.types:
            if ftype in single:
                values, w, keep = single[ftype]
                if values is None:
                    values = np.bincount(w[keep] - lo, minlength=n_windows)
                thr = nearest_rank_threshold(values, 0, p)
                hits = [(int(x) + lo, (w == int(x) + lo) & keep)
                        for x in np.flatnonzero(values >= max(thr, 1.0))]
            else:
                values = batch if ftype == "batch" else np.where(delayed, batch, 0)
                zeros = 0
                if run.pair_population == "all":
                    zeros = n_windows * (n_windows + 1) // 2 - len(pairs)
                thr = nearest_rank_threshold(values, zeros, p)
                hits = [((int(pairs[x, 0]), int(pairs[x, 1])), pair_of == x)
                        for x in np.flatnonzero(values >= max(thr, 1.0))]
            thresholds[(ftype, seg)] = thr
            for theta, mask in hits:
                fired[(ftype, seg, theta)] = Coordinate(
                    value=int(mask.sum()),
                    cases=frozenset(case_ids[mask]),
                    start_spread=(int(t_in[mask].min()), int(t_in[mask].max())),
                    end_spread=(int(t_out[mask].min()), int(t_out[mask].max())),
                )
    return Recount(windows, step_counts, segments, delay, thresholds, fired, problems)


# --- reading the program's outputs ----------------------------------------------

@dataclass
class Hle:
    id: int
    ftype: str
    segment: tuple
    theta: int | tuple
    value: float
    n_steps: int
    cases: frozenset
    start_spread: tuple[int, int]
    end_spread: tuple[int, int]


def read_hles(path: Path) -> list[Hle]:
    hles = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                d = json.loads(line)
                theta = d["theta"] if isinstance(d["theta"], int) else tuple(d["theta"])
                hles.append(Hle(
                    d["id"], d["type"], tuple(d["segment"]), theta, d["value"], d["n_steps"],
                    frozenset(d["cases"]), tuple(map(to_us, d["start_spread"])),
                    tuple(map(to_us, d["end_spread"])),
                ))
    return hles


def read_episodes(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def read_table(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


def label(hles: list[Hle]) -> str:
    return " => ".join(f"{h.ftype}({h.segment[0]}>{h.segment[1]})" for h in hles)


# --- the checks ------------------------------------------------------------------

def check_hles(rc: Recount, hles: list[Hle], run: Run) -> list[str]:
    """The fired coordinates equal the recount's, with equal values, case
    sets and spreads; planted coordinates fire at their magnitude; no
    type/segment fires more steps than the segment has."""
    problems = []
    ids = Counter(h.id for h in hles)
    problems += [f"hles: id {i} used {n} times" for i, n in ids.items() if n > 1]
    got = {(h.ftype, h.segment, h.theta): h for h in hles}
    for key in sorted(set(rc.fired) - set(got), key=str):
        problems.append(f"hles: expected {key} with value {rc.fired[key].value}, missing")
    for key in sorted(set(got) - set(rc.fired), key=str):
        problems.append(f"hles: {key} fired with value {got[key].value}, not expected")
    for key in set(got) & set(rc.fired):
        h, want = got[key], rc.fired[key]
        if (h.value, h.n_steps) != (want.value, want.value):
            problems.append(f"hles: {key} value {h.value}/{h.n_steps} steps, recount {want.value}")
        if h.cases != want.cases:
            problems.append(f"hles: {key} case set differs from the recount")
        if (h.start_spread, h.end_spread) != (want.start_spread, want.end_spread):
            problems.append(f"hles: {key} time spreads differ from the recount")
    totals: Counter = Counter()
    for h in hles:
        if h.ftype in ("enter", "exit", "batch"):
            totals[(h.ftype, h.segment)] += h.value
    for (ftype, seg), total in totals.items():
        if total > rc.step_counts.get(seg, 0):
            problems.append(f"hles: {ftype} on {seg} fires {total} steps of {rc.step_counts.get(seg, 0)}")
    for plant in run.planted:
        h = got.get((plant.ftype, plant.segment, plant.theta))
        if h is None or h.value < plant.magnitude:
            problems.append(f"planted: {plant.ftype} {plant.segment} {plant.theta} not detected "
                            f"at magnitude {plant.magnitude}")
    return problems


def check_thresholds(rc: Recount, rows: list[dict], hles: list[Hle]) -> list[str]:
    """``detect``'s summary.csv: threshold, delay threshold and event count
    per (type, segment)."""
    problems = []
    fired = Counter((h.ftype, h.segment) for h in hles)
    seen = set()
    for row in rows:
        key = (row["type"], (row["from"], row["to"]))
        seen.add(key)
        if key not in rc.thresholds:
            problems.append(f"summary: unexpected row {key}")
            continue
        if float(row["threshold"]) != rc.thresholds[key]:
            problems.append(f"summary: threshold of {key} is {row['threshold']}, "
                            f"recount {rc.thresholds[key]}")
        if int(row["delay_threshold"]) != rc.delay[key[1]]:
            problems.append(f"summary: delay threshold of {key} is {row['delay_threshold']}, "
                            f"recount {rc.delay[key[1]]}")
        if int(row["hles"]) != fired[key]:
            problems.append(f"summary: {key} counts {row['hles']} events, hles.jsonl {fired[key]}")
    problems += [f"summary: no row for {key}" for key in sorted(set(rc.thresholds) - seen, key=str)]
    return problems


def check_episodes(hles: list[Hle], episodes: list[dict], max_len: int) -> list[str]:
    """Every episode chains by activity, links only propagating pairs, and
    holds its case sets with Jaccard(common, union) >= lambda; every event
    is an episode on its own."""
    lam = COMMON_FLAGS["lam"]
    by_id = {h.id: h for h in hles}
    problems, seen = [], set()
    for n, ep in enumerate(episodes):
        ids = tuple(ep["ids"])
        if not 1 <= len(ids) <= max_len or len(set(ids)) != len(ids) or ids in seen:
            problems.append(f"episodes: #{n} has ids {ids}")
            continue
        seen.add(ids)
        if any(i not in by_id for i in ids):
            problems.append(f"episodes: #{n} references an unknown event")
            continue
        chain = [by_id[i] for i in ids]
        for h, g in zip(chain, chain[1:]):
            if h.segment[1] != g.segment[0]:
                problems.append(f"episodes: #{n} breaks the activity chain at {h.id}->{g.id}")
            if len(h.cases & g.cases) / len(h.cases | g.cases) < lam:
                problems.append(f"episodes: #{n} links {h.id}->{g.id} below lambda")
            inside = (g.start_spread[0] <= h.end_spread[0] and h.end_spread[1] <= g.start_spread[1]) \
                or (h.end_spread[0] <= g.start_spread[0] and g.start_spread[1] <= h.end_spread[1])
            if not inside:
                problems.append(f"episodes: #{n} links {h.id}->{g.id} without time overlap")
        common = frozenset.intersection(*(h.cases for h in chain))
        union = frozenset.union(*(h.cases for h in chain))
        if set(ep["common_cases"]) != common or set(ep["union_cases"]) != union:
            problems.append(f"episodes: #{n} case sets differ from its events'")
        elif len(common) / len(union) < lam:
            problems.append(f"episodes: #{n} has Jaccard(common, union) below lambda")
    singles = {ids[0] for ids in seen if len(ids) == 1}
    problems += [f"episodes: event {i} is not an episode of its own" for i in sorted(set(by_id) - singles)]
    return problems


@dataclass
class HlPath:
    """A high-level path: the activity chain it covers and its episodes."""

    chain: tuple[str, ...]
    episodes: list[dict]


def paths_of(hles: list[Hle], episodes: list[dict]) -> dict[str, HlPath]:
    by_id = {h.id: h for h in hles}
    grouped: dict[str, HlPath] = {}
    for ep in episodes:
        if not ep["ids"] or any(i not in by_id for i in ep["ids"]):
            continue  # reported by check_episodes
        chain = [by_id[i] for i in ep["ids"]]
        activities = (chain[0].segment[0], *(h.segment[1] for h in chain))
        grouped.setdefault(label(chain), HlPath(activities, [])).episodes.append(ep)
    return grouped


def check_path_rows(grouped: dict[str, HlPath], rows: list[dict]) -> list[str]:
    problems = []
    labels = Counter(r["path"] for r in rows)
    problems += [f"paths: {p} listed {n} times" for p, n in labels.items() if n > 1]
    problems += [f"paths: {p} missing" for p in sorted(set(grouped) - set(labels))]
    problems += [f"paths: {p} has no episodes" for p in sorted(set(labels) - set(grouped))]
    for r in rows:
        path = grouped.get(r["path"])
        if path and (int(r["episodes"]), int(r["length"])) != (len(path.episodes), len(path.chain) - 1):
            problems.append(f"paths: {r['path']} length/episodes {r['length']}/{r['episodes']}")
    return problems


def classes_of(cases: dict, settings: dict) -> dict[str, int]:
    """Case -> attribute class: outcome by the success activity, or
    throughput time binned at nearest-rank quantile edges."""
    if settings["attribute"] == "outcome":
        marker = settings["success_activity"]
        return {c: int(any(e[0] == marker for e in ev)) for c, ev in cases.items()}
    seconds = {c: (ev[-1][2] - ev[0][2]) / 10**6 for c, ev in cases.items()}
    ordered, k = sorted(seconds.values()), settings["bins"]
    edges: list[float] = []
    for i in range(1, k):
        e = ordered[min(len(ordered) - 1, math.floor(100 * i / k * len(ordered) / 100))]
        if not edges or e > edges[-1]:
            edges.append(e)
    return {c: int(np.searchsorted(edges, v, side="right")) for c, v in seconds.items()}


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def check_correlation(cases: dict, grouped: dict[str, HlPath], rows: list[dict],
                      settings: dict, rng: np.random.Generator) -> list[str]:
    """A seeded sample of paths: participating and non-participating counts,
    chi-square statistic, dof and p. Every row: q from the p column by
    Benjamini-Hochberg, and significance as q <= alpha."""
    problems = []
    classes = classes_of(cases, settings)
    sequences = {c: tuple(e[0] for e in ev) for c, ev in cases.items()}
    n_classes = max(classes.values()) + 1
    by_label = {r["path"]: r for r in rows}
    labels = sorted(set(by_label) & set(grouped))
    for i in rng.choice(len(labels), size=min(SAMPLE_PATHS, len(labels)), replace=False):
        row, path = by_label[labels[i]], grouped[labels[i]]
        chain, m = path.chain, len(path.chain)
        part = set().union(*(ep["common_cases"] for ep in path.episodes))
        nonpart = {c for c, s in sequences.items() if c not in part
                   and any(s[j:j + m] == chain for j in range(len(s) - m + 1))}
        if (int(row["participating"]), int(row["non_participating"])) != (len(part), len(nonpart)):
            problems.append(f"correlate: {labels[i]} counts {row['participating']}/"
                            f"{row['non_participating']}, recount {len(part)}/{len(nonpart)}")
            continue
        table = np.zeros((2, n_classes), dtype=np.int64)
        for r, group in enumerate((part, nonpart)):
            for c in group:
                table[r, classes[c]] += 1
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2 or (table.sum(axis=1) == 0).any():
            if row["chi2"]:
                problems.append(f"correlate: {labels[i]} tested, but its table has a zero marginal")
            continue
        stat, p, dof, _ = chi2_contingency(table, correction=False)
        if not row["chi2"] or not (close(float(row["chi2"]), stat, 1e-6, 1e-4)
                                   and int(row["dof"]) == dof and close(float(row["p"]), p, 2e-5, 1e-300)):
            problems.append(f"correlate: {labels[i]} chi2/dof/p {row['chi2']}/{row['dof']}/{row['p']}, "
                            f"recount {stat:.4f}/{dof}/{p:.6g}")
    tested = [r for r in rows if r["p"]]
    outside = [r["path"] for r in tested if not 0 <= float(r["p"]) <= 1]
    problems += [f"correlate: {p} has a p outside [0, 1]" for p in outside]
    if tested and not outside:
        q = false_discovery_control([float(r["p"]) for r in tested], method="bh")
        alpha = COMMON_FLAGS["alpha"]
        for r, want in zip(tested, q):
            if not close(float(r["q"]), want, 2e-5, 1e-300):
                problems.append(f"correlate: {r['path']} q {r['q']}, Benjamini-Hochberg {want:.6g}")
            elif (r["significant"] == "True") != (want <= alpha) and not close(want, alpha, 1e-5):
                problems.append(f"correlate: {r['path']} significance {r['significant']} at q {want:.6g}")
    return problems


def check_report_summary(rc: Recount, cases: dict, rows: list[dict], hles: list[Hle],
                         episodes: list[dict], paths: list[dict], types: tuple) -> list[str]:
    want = {
        "events": sum(len(ev) for ev in cases.values()),
        "cases": len(cases),
        "segments": len(rc.segments),
        "windows": len(rc.windows),
        "hles_total": len(hles),
        "episodes": len(episodes),
        "paths": len(paths),
        "paths_significant": sum(r["significant"] == "True" for r in paths),
    }
    by_type = Counter(key[0] for key in rc.fired)
    want.update({f"hles_{t}": by_type[t] for t in types})
    got = {r["measure"]: r["value"] for r in rows}
    return [f"summary: {k} is {got.get(k)}, expected {v}"
            for k, v in want.items() if got.get(k) != str(v)]


def _check_run(workload: str, run: Run, out: Path, rng: np.random.Generator) -> list[str]:
    cases = read_log(run.input)
    rc = recount(cases, run)
    problems = list(rc.problems)
    if workload == "loan":
        stage = {"hles": out / "detect" / "hles.jsonl", "summary": out / "detect" / "summary.csv",
                 "episodes": out / "link" / "episodes.jsonl", "paths": out / "link" / "paths.csv"}
        stage.update({name: out / name / "paths.csv" for name in run.correlations})
    else:
        stage = {"hles": out / "hles.jsonl", "summary": out / "summary.csv",
                 "episodes": out / "episodes.jsonl", "": out / "paths.csv"}
    missing = [str(p) for p in stage.values() if not p.is_file()]
    if missing:
        return problems + [f"missing output {p}" for p in missing]
    hles, episodes = read_hles(stage["hles"]), read_episodes(stage["episodes"])
    problems += check_hles(rc, hles, run)
    problems += check_episodes(hles, episodes, run.max_len)
    grouped = paths_of(hles, episodes)
    if workload == "loan":
        problems += check_thresholds(rc, read_table(stage["summary"]), hles)
        problems += check_path_rows(grouped, read_table(stage["paths"]))
    for name, settings in run.correlations.items():
        rows = read_table(stage[name])
        problems += check_path_rows(grouped, rows)
        problems += check_correlation(cases, grouped, rows, settings, rng)
        if workload != "loan":
            problems += check_report_summary(rc, cases, read_table(stage["summary"]), hles,
                                             episodes, rows, run.types)
    return problems


def check_workload(workload: str, runs: list[Run], base: Path, seed: int) -> list[str]:
    """All checks of one workload's outputs under ``base``."""
    rng = np.random.default_rng([7, seed])
    problems = []
    for run in runs:
        try:
            problems += _check_run(workload, run, out_dir(base, run), rng)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"{run.name}: malformed output ({type(exc).__name__}: {exc})")
    return problems
