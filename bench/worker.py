"""The measured process of one benchmark run.

Usage: python3 worker.py PLAN.json SPAWNED

``run.py`` starts this script in a fresh interpreter at ``time.monotonic()``
SPAWNED and times it until ``hlpaths.cli`` is imported: the cold set-up every
``hlpaths`` command pays. The worker then calls ``hlpaths.cli.main`` in
process, one round of the workload's CLI calls after another, until the
plan's seconds are spent, and prints one JSON line with the set-up and round
times (wall and reference seconds, see ``speed.py``), the operation counts,
its peak RSS and a digest of every round's outputs.

In traced mode the rounds alternate traced and untraced, starting traced,
so that the traced rounds give the per-layer numbers and the untraced ones
the tracing overhead.
"""

import time

from speed import SpeedSampler

SAMPLER = SpeedSampler()

import hlpaths.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the timed set-up)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def call(argv: list[str], sink, tracer) -> bool:
    """One operation: one CLI invocation. True when it exits with 0."""
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = hlpaths.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = hlpaths.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an operation that raises counts as failed; keep going
        traceback.print_exc()
        code = None
    if code != 0:
        print(f"failed ({code}): hlpaths {' '.join(argv)}", file=sys.stderr)
    return code == 0


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = Path(plan["out"])
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    rounds: list[dict] = []
    attempted = failed = 0
    start = time.monotonic()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 0
            shutil.rmtree(out, ignore_errors=True)
            if traced:
                tracer.install()
            t0 = time.monotonic()
            ok = [call(argv, sink, tracer if traced else None) for argv in plan["calls"]]
            t1 = time.monotonic()
            if traced:
                tracer.uninstall()
                tracer.end_round()
            attempted += len(ok)
            failed += ok.count(False)
            rounds.append({"traced": traced, "wall_s": t1 - t0,
                           "seconds": SAMPLER.reference_seconds(t0, t1), "digest": digest(out)})
            done = time.monotonic() - start >= plan["seconds"]
            if done and (tracer is None or len(rounds) >= 2):
                break
    SAMPLER.stop()
    spawned = float(sys.argv[2])
    result = {
        "setup_wall_s": READY - spawned,
        "setup_s": SAMPLER.reference_seconds(spawned, READY),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.report_missing()
        tracer.write_spans(plan["spans"])
        scale = [r["seconds"] / r["wall_s"] for r in rounds if r["traced"]]
        result["layers"] = tracer.metrics(scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
