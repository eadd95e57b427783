"""The output checks must reject deliberately corrupted outputs.

Run from the root of a checkout, with either of

    python3 bench/test_checks.py
    python3 -m pytest bench/test_checks.py

It runs the program once on the first ``inject`` log and once on the
``loan`` workload, confirms that the checks accept those outputs, then
corrupts a copy of them one way at a time and confirms that the checks
report each corruption. The correlation recount looks at a seeded sample of
paths, so corruptions aimed at it change every row.
"""

from __future__ import annotations

import csv
import functools
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from checks import check_workload  # noqa: E402
from workloads import MAKERS, Run, sequence  # noqa: E402

SEED = 11


@functools.cache
def produced(workload: str) -> tuple[list[Run], Path]:
    """Generate the workload, run one round of it, keep its outputs."""
    work = bench.WORK / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    runs = MAKERS[workload](SEED, work / "input")[:1]
    out = work / "out"
    plan = {"calls": sequence(workload, runs, out), "out": str(out), "seconds": 0,
            "trace": 0, "spans": ""}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    result = bench.measure(work / "plan.json", timeout=170)
    assert result["failed"] == 0, "the program failed on the self-test input"
    return runs, out


def corrupted(workload: str, relative: str, edit) -> list[str]:
    """Problems the checks report on a copy of the outputs where ``edit``
    has rewritten the rows of one file."""
    runs, out = produced(workload)
    copy = out.parent / "corrupted"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    path = copy / relative
    if path.suffix == ".csv":
        with open(path, encoding="utf-8", newline="") as fp:
            rows = list(csv.DictReader(fp))
        fields = list(rows[0])
        rows = edit(rows)
        with open(path, "w", encoding="utf-8", newline="") as fp:
            writer = csv.DictWriter(fp, fields)
            writer.writeheader()
            writer.writerows(rows)
    else:
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows = edit(rows)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return check_workload(workload, runs, copy, SEED)


def at(index: int, change):
    """An edit that changes one row in place."""
    def edit(rows):
        change(rows[index])
        return rows
    return edit


def every(change, where=lambda row: True):
    def edit(rows):
        for row in rows:
            if where(row):
                change(row)
        return rows
    return edit


def reports(problems: list[str], text: str) -> bool:
    return any(text in p for p in problems)


HLES = "log0/hles.jsonl"


def test_clean_outputs_pass():
    for workload in ("inject", "loan"):
        assert check_workload(workload, *produced(workload), SEED) == []


def test_dropped_hle():
    problems = corrupted("inject", HLES, lambda rows: rows[1:])
    assert reports(problems, "missing")


def test_changed_value():
    problems = corrupted("inject", HLES, at(0, lambda h: h.update(value=h["value"] + 1)))
    assert reports(problems, "value")


def test_changed_case_set():
    problems = corrupted("inject", HLES, at(0, lambda h: h.update(cases=h["cases"][1:])))
    assert reports(problems, "case set differs")


def test_duplicate_id():
    problems = corrupted("inject", HLES, at(1, lambda h: h.update(id=0)))
    assert reports(problems, "used 2 times")


def test_planted_below_magnitude():
    (run,), _ = produced("inject")
    plant = run.planted[0]

    def weaken(rows):
        for h in rows:
            theta = h["theta"] if isinstance(h["theta"], int) else tuple(h["theta"])
            if (h["type"], tuple(h["segment"]), theta) == (plant.ftype, plant.segment, plant.theta):
                h["value"] = h["n_steps"] = plant.magnitude - 1
        return rows

    assert reports(corrupted("inject", HLES, weaken), "planted")


def test_shifted_threshold():
    problems = corrupted("loan", "log/detect/summary.csv",
                         at(0, lambda r: r.update(threshold=float(r["threshold"]) + 1)))
    assert reports(problems, "threshold of")


def test_episode_case_sets():
    problems = corrupted("inject", "log0/episodes.jsonl",
                         every(lambda e: e.update(common_cases=e["common_cases"][1:]),
                               where=lambda e: len(e["ids"]) > 1))
    assert reports(problems, "case sets differ")


def test_episode_order():
    problems = corrupted("inject", "log0/episodes.jsonl",
                         every(lambda e: e["ids"].reverse(), where=lambda e: len(e["ids"]) > 1))
    assert reports(problems, "breaks the activity chain")


def test_dropped_path_row():
    problems = corrupted("loan", "log/throughput/paths.csv", lambda rows: rows[1:])
    assert reports(problems, "missing")


def test_wrong_participant_count():
    problems = corrupted("inject", "log0/paths.csv",
                         every(lambda r: r.update(participating=int(r["participating"]) + 1)))
    assert reports(problems, "recount")


def test_perturbed_p():
    problems = corrupted("inject", "log0/paths.csv",
                         every(lambda r: r.update(p=float(r["p"]) * 0.5), where=lambda r: r["p"]))
    assert reports(problems, "Benjamini-Hochberg")


def test_perturbed_chi2():
    problems = corrupted("inject", "log0/paths.csv",
                         every(lambda r: r.update(chi2=float(r["chi2"]) + 0.5), where=lambda r: r["chi2"]))
    assert reports(problems, "chi2/dof/p")


def test_wrong_event_count():
    problems = corrupted("inject", "log0/summary.csv",
                         every(lambda r: r.update(value=int(r["value"]) + 1),
                               where=lambda r: r["measure"] == "events"))
    assert reports(problems, "summary: events")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name} {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
