"""Seeded input generators and CLI sequences for the benchmark workloads.

The generators use numpy and the standard library only, never ``hlpaths``:
a change to the program must not change the inputs it is measured on.
Every log keeps the timestamps of one case strictly increasing, so the
program never has to repair them and the independent recount in
``checks.py`` can model it exactly.

* ``inject``: the criterion-4 injection spec of ``tests/test_acceptance.py``
  (5-activity chain, 400 base cases plus 165 planted, 60 daily windows), one
  CSV per derived seed, each run through one ``hlpaths report``.
* ``loan``: a loan-application-like log with lifecycle transitions, rework
  loops and one heavy automated resource, written as gzipped XES and run
  through the staged ``detect`` -> ``link`` -> ``correlate`` x2 sequence.
* ``allpairs``: the chain spec stretched to a year of daily windows, run
  through ``hlpaths report --pair-population all --types batch,delay``.
"""

from __future__ import annotations

import csv
import gzip
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

UTC = timezone.utc
DAY = 86400

# Settings every CLI call passes explicitly, so that a later change of the
# program's defaults does not change the benchmark's work.
COMMON_FLAGS = {
    "window": "1d", "percentile": 90.0, "delay_percentile": 70.0, "lam": 0.5, "alpha": 0.05,
}

WORKLOADS = ("inject", "loan", "allpairs")


@dataclass(frozen=True)
class Planted:
    """A coordinate the generator aimed ``magnitude`` dedicated steps at."""

    ftype: str
    segment: tuple[str, str]
    theta: int | tuple[int, int]
    magnitude: int


@dataclass
class Run:
    """One generated input and the settings the CLI is run with on it.

    ``origin`` is the frame origin passed to the CLI, or None when the
    program anchors the frame at midnight UTC of the log's first day.
    ``correlations`` maps each correlate output directory to its attribute
    settings.
    """

    name: str
    input: Path
    origin: datetime | None
    planted: list[Planted]
    max_len: int = 4
    top_segments: int | None = None
    blacklist: tuple[str, ...] = ()
    types: tuple[str, ...] = ("enter", "exit", "workload", "handover", "batch", "delay")
    pair_population: str = "occupied"
    correlations: dict[str, dict] = field(default_factory=dict)


# --- the criterion-4 chain spec ----------------------------------------------

CHAIN = ("receive", "triage", "assess", "decide", "close")
CHAIN_SUCCESS = "resolved"
CHAIN_START = datetime(2024, 2, 1, tzinfo=UTC)
CHAIN_RESOURCES = ("r1", "r2", "r3", "r4", "r5")


def _chain_injections(n_windows: int) -> list[tuple[Planted, float | None]]:
    """The four criterion-4 injections; on a longer frame the same shapes
    sit at the same relative positions."""
    def at(w: int) -> int:
        return w * n_windows // 60

    return [
        (Planted("workload", ("triage", "assess"), at(7), 60), 0.1),
        (Planted("batch", ("assess", "decide"), (at(22), at(22) + 3), 40), None),
        (Planted("handover", ("receive", "triage"), at(40), 35), None),
        (Planted("delay", ("decide", "close"), (at(50), at(50) + 3), 30), None),
    ]


def chain_log(rng: np.random.Generator, n_cases: int, n_windows: int) -> tuple[list, list[Planted]]:
    """Rows (case, activity, time, resource) of a chain log plus its plants.

    A base case walks the whole chain inside one random window, one hour per
    step after a random offset; a successful case appends the success
    marker. A planted case is pinned to its coordinate: a single-window
    plant puts the whole trace in that window, a window-pair plant splits
    the trace at the planted segment. Workload plants give both endpoints
    of the segment one resource, handover plants two different ones.
    """
    rows: list[tuple[str, str, datetime, str]] = []
    spacing = 3600

    def emit(case: str, windows: list[int], p_success: float, forced: dict[int, str]) -> None:
        activities = list(CHAIN)
        if rng.random() < p_success:
            activities.append(CHAIN_SUCCESS)
            windows = windows + [windows[-1]]
        slack = DAY - len(activities) * spacing
        jitter = int(rng.integers(0, slack))
        position, current = 0, windows[0]
        for k, (activity, w) in enumerate(zip(activities, windows)):
            if w != current:
                current, position = w, 0
            resource = forced.get(k) or CHAIN_RESOURCES[int(rng.integers(len(CHAIN_RESOURCES)))]
            t = CHAIN_START + timedelta(seconds=w * DAY + jitter + position * spacing)
            rows.append((case, activity, t, resource))
            position += 1

    for i in range(n_cases):
        w = int(rng.integers(0, n_windows))
        emit(f"case{i:04d}", [w] * len(CHAIN), 0.6, {})

    planted = []
    for j, (plant, bias) in enumerate(_chain_injections(n_windows)):
        split = CHAIN.index(plant.segment[0])
        if isinstance(plant.theta, tuple):
            w_in, w_out = plant.theta
            windows = [w_in] * (split + 1) + [w_out] * (len(CHAIN) - split - 1)
        else:
            windows = [plant.theta] * len(CHAIN)
        for i in range(plant.magnitude):
            forced: dict[int, str] = {}
            if plant.ftype == "workload":
                r = CHAIN_RESOURCES[int(rng.integers(len(CHAIN_RESOURCES)))]
                forced = {split: r, split + 1: r}
            elif plant.ftype == "handover":
                a, b = rng.choice(len(CHAIN_RESOURCES), size=2, replace=False)
                forced = {split: CHAIN_RESOURCES[int(a)], split + 1: CHAIN_RESOURCES[int(b)]}
            emit(f"inj{j}_{i:03d}", windows, 0.6 if bias is None else bias, forced)
        planted.append(plant)
    return rows, planted


def write_chain_csv(rows: list, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["case", "activity", "timestamp", "resource"])
        for case, activity, t, resource in rows:
            writer.writerow([case, activity, t.isoformat(), resource])


INJECT_LOGS = 6


def make_inject(seed: int, directory: Path) -> list[Run]:
    """``INJECT_LOGS`` criterion-4 logs, each from its own derived seed."""
    runs = []
    for k in range(INJECT_LOGS):
        rng = np.random.default_rng([1, seed, k])
        rows, planted = chain_log(rng, n_cases=400, n_windows=60)
        path = directory / f"inject{k}.csv"
        write_chain_csv(rows, path)
        runs.append(Run(
            name=f"log{k}", input=path, origin=CHAIN_START, planted=planted,
            correlations={"": {"attribute": "outcome", "success_activity": CHAIN_SUCCESS}},
        ))
    return runs


def make_allpairs(seed: int, directory: Path) -> list[Run]:
    rng = np.random.default_rng([3, seed])
    rows, planted = chain_log(rng, n_cases=1000, n_windows=365)
    path = directory / "allpairs.csv"
    write_chain_csv(rows, path)
    types = ("batch", "delay")
    return [Run(
        name="log", input=path, origin=CHAIN_START,
        planted=[p for p in planted if p.ftype in types],
        types=types, pair_population="all",
        correlations={"": {"attribute": "outcome", "success_activity": CHAIN_SUCCESS}},
    )]


# --- the loan-application log -------------------------------------------------

LOAN_START = datetime(2016, 1, 4, tzinfo=UTC)
LOAN_TZ = timezone(timedelta(hours=1))  # timestamps are written in local time
LOAN_CASES = 1000
LOAN_DAYS = 60
LOAN_USERS = tuple(f"User_{i}" for i in range(2, 102))
LOAN_SUCCESS = "A_Pending|COMPLETE"
# the planted burst: extra online applications created and submitted on one day
BURST_DAY, BURST_CASES = 20, 50
BURST_SEGMENT = ("A_Create Application|COMPLETE", "A_Submitted|COMPLETE")
# the planted delay: applications whose follow-up call is scheduled days late;
# they are also far less likely to end pending
DELAY_DAY, DELAY_GAP, DELAY_CASES = 36, 8, 50
DELAY_SEGMENT = ("A_Complete|COMPLETE", "W_Call after offers|SCHEDULE")


class _Case:
    """Event emitter for one application: a clock plus its event list."""

    def __init__(self, rng: np.random.Generator, t: float, compressed: bool):
        self.rng = rng
        self.t = t
        self.compressed = compressed
        self.events: list[tuple[str, str, str, float]] = []

    def gap(self, kind: str) -> None:
        """Advance the clock: 'auto' seconds, 'work' minutes to hours,
        'wait' hours to days. A compressed case keeps every gap short."""
        rng = self.rng
        if kind == "auto" or self.compressed:
            self.t += 1 + rng.exponential(30 if kind == "auto" else 240)
        elif kind == "work":
            self.t += 60 + rng.exponential(3 * 3600)
        else:
            self.t += 3600 + rng.exponential(1.5 * DAY)

    def ev(self, activity: str, lifecycle: str, resource: str, kind: str = "auto") -> None:
        self.gap(kind)
        self.events.append((activity, lifecycle, resource, self.t))

    def work_item(self, activity: str, worker: str, pick, max_pauses: int) -> None:
        """A W_ work item: scheduled by the system, started by a worker,
        suspended and resumed a few times (possibly by others), completed."""
        self.ev(activity, "start", worker, "work")
        for _ in range(int(self.rng.integers(0, max_pauses + 1))):
            self.ev(activity, "suspend", worker, "work")
            worker = worker if self.rng.random() < 0.6 else pick()
            self.ev(activity, "resume", worker, "wait")
        self.ev(activity, "complete", worker, "work")


def _loan_case(rng, pick, t0: float, *, online: bool, p_success: float,
               hold: tuple[float, float] | None = None) -> list:
    """One application. With ``hold = (complete_at, call_at)`` the case
    rushes through its first part, completes only at ``complete_at`` and
    gets its follow-up call scheduled only at ``call_at``."""
    c = _Case(rng, t0, compressed=hold is not None)
    clerk = pick()
    if online:
        c.ev("A_Create Application", "complete", "User_1")
        c.ev("A_Submitted", "complete", "User_1")
        c.ev("W_Handle leads", "schedule", "User_1")
        c.ev("W_Handle leads", "withdraw" if rng.random() < 0.7 else "complete", clerk, "work")
    else:
        c.ev("A_Create Application", "complete", clerk)
    c.ev("W_Complete application", "schedule", "User_1")
    c.ev("W_Complete application", "start", clerk, "work")
    c.ev("A_Concept", "complete", clerk)
    for _ in range(int(rng.integers(0, 3))):
        c.ev("W_Complete application", "suspend", clerk, "work")
        clerk = clerk if rng.random() < 0.5 else pick()
        c.ev("W_Complete application", "resume", clerk, "wait")
    c.ev("A_Accepted", "complete", clerk, "work")
    for _ in range(int(rng.geometric(0.7))):
        c.ev("O_Create Offer", "complete", clerk, "work")
        c.ev("O_Created", "complete", clerk)
        channel = "O_Sent (mail and online)" if rng.random() < 0.8 else "O_Sent (online only)"
        c.ev(channel, "complete", clerk)
    c.ev("W_Complete application", "complete", clerk)
    if hold is not None:
        c.t, c.compressed = hold[0], False
    c.ev("A_Complete", "complete", clerk)
    if hold is not None:
        c.t = hold[1]
    c.ev("W_Call after offers", "schedule", "User_1")
    caller = pick()
    c.work_item("W_Call after offers", caller, pick, 3)
    succeeded = rng.random() < p_success
    if not succeeded and rng.random() < 0.5:
        c.ev("A_Cancelled", "complete", "User_1", "wait")
        c.ev("O_Cancelled", "complete", "User_1")
        return c.events
    c.ev("A_Validating", "complete", "User_1", "wait")
    c.ev("W_Validate application", "schedule", "User_1")
    validator = pick()
    c.work_item("W_Validate application", validator, pick, 1)
    for _ in range(int(rng.integers(0, 4)) if rng.random() < 0.4 else 0):
        c.ev("A_Incomplete", "complete", validator)
        c.ev("W_Call incomplete files", "schedule", "User_1")
        c.work_item("W_Call incomplete files", pick(), pick, 2)
        c.ev("A_Validating", "complete", "User_1", "wait")
        c.ev("W_Validate application", "schedule", "User_1")
        validator = pick()
        c.work_item("W_Validate application", validator, pick, 1)
    if succeeded:
        c.ev("A_Pending", "complete", validator)
        c.ev("O_Accepted", "complete", validator)
    else:
        c.ev("A_Denied", "complete", validator)
        c.ev("O_Refused", "complete", validator)
    return c.events


def loan_log(rng: np.random.Generator) -> tuple[list, list[Planted]]:
    """Cases as (case id, events) with events (activity, lifecycle,
    resource, seconds since LOAN_START), plus the planted coordinates."""
    weights = 1.0 / np.arange(1, len(LOAN_USERS) + 1) ** 0.8
    weights /= weights.sum()
    users = rng.choice(len(LOAN_USERS), size=200_000, p=weights)
    cursor = iter(users.tolist())

    def pick() -> str:
        return LOAN_USERS[next(cursor)]

    def office_hours(day: int) -> float:
        return day * DAY + 7 * 3600 + rng.uniform(0, 10 * 3600)

    cases = []
    for i in range(LOAN_CASES):
        # the first application opens day 0, so the frame starts at LOAN_START
        day = int(rng.integers(0, LOAN_DAYS)) if i else 0
        cases.append((f"Application_{i}", _loan_case(
            rng, pick, office_hours(day), online=rng.random() < 0.6, p_success=0.55)))
    for i in range(BURST_CASES):
        # created and submitted seconds apart, early on the burst day
        t0 = BURST_DAY * DAY + 6 * 3600 + rng.uniform(0, 3600)
        cases.append((f"Application_b{i}", _loan_case(
            rng, pick, t0, online=True, p_success=0.55)))
    for i in range(DELAY_CASES):
        # arrivals spread over the five days before the hold, so the delayed
        # cases do not also move in lockstep through the first segments
        t0 = office_hours(DELAY_DAY - 5 + i % 5) - 3 * 3600
        hold = (office_hours(DELAY_DAY), office_hours(DELAY_DAY + DELAY_GAP))
        cases.append((f"Application_d{i}", _loan_case(
            rng, pick, t0, online=bool(rng.random() < 0.6), p_success=0.15, hold=hold)))
    planted = [
        Planted("enter", BURST_SEGMENT, BURST_DAY, BURST_CASES),
        Planted("delay", DELAY_SEGMENT, (DELAY_DAY, DELAY_DAY + DELAY_GAP), DELAY_CASES),
    ]
    return cases, planted


def _xes_time(seconds: float) -> str:
    t = LOAN_START + timedelta(milliseconds=round(seconds * 1000))
    return t.astimezone(LOAN_TZ).isoformat(timespec="milliseconds")


def write_loan_xes(cases: list, path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
        fp.write('<?xml version="1.0" encoding="UTF-8" ?>\n'
                 '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n')
        for case, events in cases:
            fp.write(f'<trace><string key="concept:name" value="{case}"/>\n')
            for activity, lifecycle, resource, t in events:
                fp.write(
                    f'<event><string key="org:resource" value="{resource}"/>'
                    f'<date key="time:timestamp" value="{_xes_time(t)}"/>'
                    f'<string key="concept:name" value="{activity}"/>'
                    f'<string key="lifecycle:transition" value="{lifecycle}"/></event>\n'
                )
            fp.write("</trace>\n")
        fp.write("</log>\n")


def make_loan(seed: int, directory: Path) -> list[Run]:
    rng = np.random.default_rng([2, seed])
    cases, planted = loan_log(rng)
    path = directory / "loan.xes.gz"
    write_loan_xes(cases, path)
    return [Run(
        name="log", input=path, origin=None, planted=planted, max_len=2,
        top_segments=43, blacklist=("User_1",),
        correlations={
            "outcome": {"attribute": "outcome", "success_activity": LOAN_SUCCESS},
            "throughput": {"attribute": "throughput", "bins": 3},
        },
    )]


MAKERS = {"inject": make_inject, "loan": make_loan, "allpairs": make_allpairs}


# --- CLI sequences ------------------------------------------------------------

def _common_args(run: Run) -> list[str]:
    f = COMMON_FLAGS
    return [
        "--window", f["window"], "--percentile", str(f["percentile"]),
        "--delay-percentile", str(f["delay_percentile"]), "--lambda", str(f["lam"]),
        "--max-len", str(run.max_len), "--alpha", str(f["alpha"]),
    ]


def _detect_args(run: Run) -> list[str]:
    args = ["--input", str(run.input), "--types", ",".join(run.types),
            "--pair-population", run.pair_population]
    if run.origin is not None:
        args += ["--origin", run.origin.isoformat()]
    if run.top_segments is not None:
        args += ["--top-segments", str(run.top_segments)]
    for resource in run.blacklist:
        args += ["--blacklist", resource]
    return args


def _attribute_args(settings: dict) -> list[str]:
    args = ["--attribute", settings["attribute"]]
    if "success_activity" in settings:
        args += ["--success-activity", settings["success_activity"]]
    if "bins" in settings:
        args += ["--bins", str(settings["bins"])]
    return args


def out_dir(base: Path, run: Run) -> Path:
    return base / run.name


def sequence(workload: str, runs: list[Run], base: Path) -> list[list[str]]:
    """The CLI calls of one round of the workload, in order.

    ``inject`` and ``allpairs`` run one ``report`` per log. ``loan`` runs the
    staged CLI, with its own output directory per stage:
    ``<out>/detect``, ``<out>/link`` and ``<out>/<correlation name>``.
    """
    calls = []
    for run in runs:
        out = out_dir(base, run)
        if workload != "loan":
            (attr,) = run.correlations.values()
            calls.append(["report", *_detect_args(run), *_common_args(run),
                          *_attribute_args(attr), "--out", str(out)])
            continue
        calls.append(["detect", *_detect_args(run), *_common_args(run),
                      "--out", str(out / "detect")])
        calls.append(["link", "--hles", str(out / "detect" / "hles.jsonl"),
                      *_common_args(run), "--out", str(out / "link")])
        for name, attr in run.correlations.items():
            calls.append([
                "correlate", "--input", str(run.input),
                "--hles", str(out / "detect" / "hles.jsonl"),
                "--episodes", str(out / "link" / "episodes.jsonl"),
                *_common_args(run), *_attribute_args(attr), "--out", str(out / name),
            ])
    return calls


if __name__ == "__main__":
    import argparse
    import shlex

    parser = argparse.ArgumentParser(
        description="write a workload's inputs and print the hlpaths calls of one round")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path, help="directory for the inputs")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for argv in sequence(args.workload, MAKERS[args.workload](args.seed, args.out), args.out / "out"):
        print("hlpaths " + shlex.join(argv))
