"""End-to-end benchmark of the ``hlpaths`` CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {inject,loan,allpairs} --seed N \\
        --seconds S --trace {0,1}

The benchmark generates the workload's input from the seed, starts one fresh
single-threaded interpreter (``worker.py``) that runs the workload's CLI
calls in process, round after round, for S seconds, then checks the last
round's outputs against computations made apart from the program
(``checks.py``). It prints every metric with its unit and, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` (one operation is one
CLI call) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_s``: median time of one round of the workload's CLI calls, from the
  input file on disk to the last output written;
* ``peak_rss_mb``: peak resident set of the process that ran the rounds;
* ``setup_s``: from starting that process until ``hlpaths.cli`` is imported.

With ``--trace 1`` the rounds alternate traced and untraced, and the metrics
are the per-layer ones of ``tracing.py`` plus ``trace.overhead_pct``, the
traced rounds' median time over the untraced rounds' one. The spans go to
``bench/results/spans-<workload>-<seed>.tsv``; every run's result goes to
``bench/results/<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_workload
from workloads import MAKERS, WORKLOADS, sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
DEADLINE_S = 170  # a run must end within 180 s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to repeat rounds; the last round always completes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(plan_path: Path, timeout: float) -> dict:
    """Run the worker on a plan and return its result."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), repr(spawned)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"the worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"the worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "hlpaths" / "cli.py").is_file():
        print(f"error: no hlpaths sources under {SRC}", file=sys.stderr)
        return 2

    name = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    runs = MAKERS[args.workload](args.seed, work / "input")
    out = work / "out"
    calls = sequence(args.workload, runs, out)
    plan = {
        "calls": calls, "out": str(out), "seconds": args.seconds, "trace": args.trace,
        "spans": str(RESULTS / f"spans-{args.workload}-{args.seed}.tsv"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    try:
        worker = measure(plan_path, DEADLINE_S - (time.monotonic() - started))
    except RuntimeError as exc:
        print(f"error: {exc}; inputs and outputs kept in {work}", file=sys.stderr)
        return 1

    rounds = worker["rounds"]
    problems = check_workload(args.workload, runs, out, args.seed)
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds wrote different outputs")
    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r["seconds"] for r in rounds if r["traced"]]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in worker["layers"].items()}
        overhead = 100 * (statistics.median(traced) / statistics.median(untraced) - 1)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": worker["setup_s"], "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }

    times = ", ".join(f"{r['seconds']:.3f}" for r in rounds)
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"{args.workload}, seed {args.seed}: {len(calls)} CLI calls per round, "
          f"{worker['attempted']} attempted, {worker['failed']} failed")
    print(f"  rounds in reference seconds: {times}; in wall seconds: {walls}")
    print(f"  set-up: {worker['setup_s']:.3f} reference seconds, {worker['setup_wall_s']:.3f} wall seconds")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
    if problems:
        print(f"checks: {len(problems)} problems; outputs kept in {work}")
        for problem in problems[:30]:
            print(f"  {problem}")
    else:
        print("checks: outputs agree with the independent recount")
    (RESULTS / f"{name}.json").write_text(
        json.dumps({**result, "rounds": rounds, "problems": problems}, indent=1),
        encoding="utf-8")
    if not problems and not worker["failed"]:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
