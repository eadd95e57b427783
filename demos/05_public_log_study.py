"""End-to-end study on the public 2017 loan-application log.

Grab the XES export of the 2017 BPI Challenge loan-application process
(31509 applications, ~1.2M events), drop it under data/ (bpic2017.xes
or .xes.gz) or point HLPATHS_BPIC2017 at it, then run this script. It
frames the log into one-day windows, detects high-level events at p90
on the 43 busiest segments (the automated "User_1" excluded from the
resource patterns), links them at lambda 0.5 and asks which paths go
together with the application being pended — i.e. offered and accepted.

Takes a few minutes on the full log.
"""

import os
import sys
import time
from pathlib import Path

from hlpaths import RunConfig, derive_outcome, parse_xes, run_all, summarize_by_type

CANDIDATES = [
    os.environ.get("HLPATHS_BPIC2017", ""),
    "data/bpic2017.xes.gz",
    "data/bpic2017.xes",
    "data/BPI Challenge 2017.xes.gz",
    "data/BPI Challenge 2017.xes",
]

path = next((p for p in CANDIDATES if p and Path(p).exists()), None)
if path is None:
    print("public log not found — download the 2017 BPI Challenge event log")
    print("(DOI 10.4121/uuid:5f3067df-f10b-45da-b98b-86ae4c7a310b), place it")
    print("under data/ or set HLPATHS_BPIC2017, then rerun.")
    sys.exit(0)

t0 = time.perf_counter()
log = parse_xes(path)
print(f"parsed {len(log.events)} events, {len(log.cases)} applications"
      f" [{time.perf_counter() - t0:.0f} s]")

outcomes = derive_outcome(log, "A_Pending|COMPLETE")
n = sum(1 for v in outcomes.values() if v == "success")
print(f"{n} pending (offer accepted), {len(outcomes) - n} not")

config = RunConfig(
    window="1d",
    percentile=90,
    delay_percentile=70,
    lam=0.5,
    max_len=4,
    top_segments=43,
    blacklist=("User_1",),
    success_activity="A_Pending|COMPLETE",
)

t0 = time.perf_counter()
result = run_all(log, config)
print(f"pipeline done [{time.perf_counter() - t0:.0f} s]")

print(f"\nhigh-level events by pattern: {summarize_by_type(result.detect.hles)}")
print(f"episodes: {len(result.link.episodes)}, paths: {len(result.link.grouped)}")

tested = [a for a in result.correlate.associations if a.result is not None]
print(f"\n{len(tested)} paths tested against the outcome,"
      f" {sum(a.significant for a in tested)} significant; strongest:")
for assoc in sorted(tested, key=lambda a: a.result.statistic, reverse=True)[:15]:
    flag = "significant" if assoc.significant else ""
    print(f"  {assoc.path.label():<70} chi2 {assoc.result.statistic:8.2f}"
          f"  q {assoc.q_value:8.2e} {flag}")
