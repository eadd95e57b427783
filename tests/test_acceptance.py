"""The acceptance gate: one test per criterion, one verdict line each.

Verdict lines are echoed in a terminal section after the run (see
conftest.pytest_terminal_summary) so they survive output capturing.
"""

import dataclasses
import math
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import conftest
from conftest import counted, marginals, one_path_study, random_small_log
from hlpaths.config import RunConfig
from hlpaths.correlation import chi_square, rank_paths
from hlpaths.detection import compute_thresholds, detect_hles
from hlpaths.event_log import Segment
from hlpaths.framing import Framing, build_indices
from hlpaths.linkage import HighLevelPath, PropagationGraph, enumerate_episodes, jaccard
from hlpaths.patterns import FeatureType, compute_delay_thresholds, counted_steps
from hlpaths.pipeline import run_correlate, run_detect, run_link
from hlpaths.synthgen import InjectionSpec, LogSpec, generate_log

from oracles import (
    o_detect,
    o_episodes,
    o_propagation_edges,
    o_window_index,
)

UTC = timezone.utc


def verdict(n: int, ok: bool, desc: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --- criterion 1: chi-square regression on the published tables ---------------

# (table, expected statistic, expected p)
PUBLISHED = [
    ("fig3", [[1087, 11106], [1042, 9661]], 4.55, 0.0329),
    ("fig4", [[368, 7160], [138, 2028]], 7.48, 0.0063),
    ("fig5", [[852, 10668], [226, 1875]], 27.54, 1.53e-7),
    ("fig6", [[928, 7822], [357, 2362]], 13.28, 2.676e-4),
    ("fig7", [[273, 3860], [848, 8984], [864, 8069]], 33.61, 5.04e-8),
    ("fig8", [[224, 6709], [550, 12006], [422, 10197]], 15.47, 4.37e-4),
    ("fig9", [[448, 5067], [1019, 9542], [244, 2125]], 13.40, 1.23e-4),
]


def test_criterion_1_chi_square_regression():
    t0 = time.perf_counter()
    problems = []
    for name, table, stat_pub, p_pub in PUBLISHED:
        r = chi_square(table)
        if abs(r.statistic - stat_pub) > 0.02:
            problems.append(f"{name} statistic {r.statistic:.4f} != {stat_pub}")
        if name == "fig9":
            # The fig9 table yields p = exp(-13.4005/2) = 1.2306e-3 for two
            # degrees of freedom; the published exponent is off by one decade
            # (a 13.40 statistic cannot give p = 1.23e-4, which would need
            # chi-square ~ 18.0). Pin the value the table actually produces;
            # the published literal is kept as a strict xfail below.
            if not math.isclose(r.p_value, math.exp(-r.statistic / 2), rel_tol=1e-9):
                problems.append(f"{name} p {r.p_value} disagrees with closed form")
            if abs(r.p_value - 10 * p_pub) / (10 * p_pub) > 0.05:
                problems.append(f"{name} p {r.p_value} not within 5% of 1.23e-3")
        elif abs(r.p_value - p_pub) / p_pub > 0.05:
            problems.append(f"{name} p {r.p_value:.4g} not within 5% of {p_pub}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (budget 1s)")
    verdict(
        1,
        not problems,
        "7 published tables reproduced, statistic ±0.02, p ±5% "
        "(fig9 p checked against its closed form; published exponent is a "
        f"known misprint, see the strict xfail) [{elapsed * 1000:.0f} ms]"
        + ("; " + "; ".join(problems) if problems else ""),
    )


@pytest.mark.xfail(
    strict=True,
    reason="published fig9 p-value (1.23e-4) is inconsistent with its own "
    "table: chi-square 13.40 at two degrees of freedom gives "
    "exp(-13.40/2) = 1.23e-3; the exponent lost a decade in print",
)
def test_criterion_1_fig9_p_as_published():
    r = chi_square([[448, 5067], [1019, 9542], [244, 2125]])
    assert abs(r.p_value - 1.23e-4) / 1.23e-4 <= 0.05


# --- criterion 2: significance decisions match the critical values -------------

def _tables_in_band(rng, shape, band_lo, band_hi, count):
    """Deterministically collect `count` integer tables whose statistic
    lands inside [band_lo, band_hi)."""
    rows, cols = shape
    found = []
    attempts = 0
    while len(found) < count:
        attempts += 1
        if attempts > 400_000:
            raise AssertionError("table generation failed to fill the band")
        table = [
            [int(rng.integers(60, 240)) for _ in range(cols)] for _ in range(rows)
        ]
        try:
            r = chi_square(table)
        except ValueError:
            continue
        if band_lo <= r.statistic < band_hi:
            found.append((table, r))
    return found


# 95% critical values of the chi-square distribution for 2x2 and 3x2 tables
CRITICAL_95 = {1: 3.8414588206941285, 2: 5.991464547107983}


def test_criterion_2_critical_value_consistency():
    rng = np.random.default_rng(20240301)
    crit1 = CRITICAL_95[1]
    crit2 = CRITICAL_95[2]
    batches = [
        (1, _tables_in_band(rng, (2, 2), 2.9, crit1, 250)),
        (1, _tables_in_band(rng, (2, 2), crit1, 4.9, 250)),
        (2, _tables_in_band(rng, (3, 2), 4.9, crit2, 250)),
        (2, _tables_in_band(rng, (3, 2), crit2, 7.1, 250)),
    ]
    checked = 0
    ok = True
    for dof, batch in batches:
        crit = CRITICAL_95[dof]
        for table, r in batch:
            assert r.dof == dof
            # integer tables never land on the irrational critical point
            assert abs(r.statistic - crit) > 1e-9
            if (r.p_value < 0.05) != (r.statistic >= crit):
                ok = False
            checked += 1
    verdict(
        2,
        ok and checked == 1000,
        f"{checked} tables straddling 3.841 (dof 1) and 5.991 (dof 2): "
        "p < 0.05 exactly when the statistic clears the critical value",
    )


# --- criterion 3: brute-force oracle equivalence --------------------------------

def _canon_hles(hles):
    return {
        (h.ftype.value, tuple(h.segment), h.theta, h.value, h.cases,
         h.start_spread, h.end_spread)
        for h in hles
    }


def _coord_key(h):
    return (h.ftype.value, tuple(h.segment), h.theta)


def test_criterion_3_oracle_equivalence():
    n_seeds = 120
    episode_checked = 0
    t0 = time.perf_counter()
    for seed in range(n_seeds):
        log, params = random_small_log(seed)
        assert len(log) <= 500
        origin, width = params["origin"], params["width"]
        p, q = params["p"], params["q"]
        blacklist, pp = params["blacklist"], params["pair_population"]
        framing = Framing(width=width, origin=origin)
        idx = build_indices(log, framing)
        segments = sorted(idx.segments)

        for e in log.events:
            assert framing.window_index(e.time) == o_window_index(e.time, origin, width)

        values, o_thr, o_delta, records = o_detect(
            log, segments, origin, width, p, q, blacklist, pp)

        delta = compute_delay_thresholds(idx, q)
        assert delta == o_delta, seed

        occupied = {
            (ftype, segment): counted_steps(
                ftype, segment, idx, delay_thresholds=delta, blacklist=blacklist)
            for ftype in FeatureType for segment in segments
        }
        for (ftype, segment, theta), id_pairs in values.items():
            steps = occupied[(ftype, segment)].get(theta, ())
            assert {(s.first.id, s.second.id) for s in steps} == id_pairs, (
                seed, ftype, segment, theta)
            assert len(steps) == len(id_pairs)
        # no coordinate the oracle leaves out holds a counted step
        for (ftype, segment), by_theta in occupied.items():
            for theta, steps in by_theta.items():
                assert (ftype, segment, theta) in values or not steps, (
                    seed, ftype, segment, theta)

        table = compute_thresholds(
            idx, p, delay_thresholds=delta, blacklist=blacklist,
            pair_population=pp)
        assert {(ft.value, tuple(seg)): thr for (ft, seg), thr in table.values.items()} \
            == {(ft.value, tuple(seg)): thr for (ft, seg), thr in o_thr.items()}, seed

        hles = detect_hles(idx, table, delay_thresholds=delta, blacklist=blacklist)
        assert _canon_hles(hles) == records, seed

        o_edges = o_propagation_edges(records, params["lam"])
        graph = PropagationGraph.build(hles, params["lam"])
        enc = {h.id: _coord_key(h) for h in hles}
        edges = {(enc[i], enc[j]) for i, succ in graph.successors.items() for j in succ}
        assert edges == o_edges, seed

        # episode enumeration is compared exhaustively on instances of
        # <= 50 events; larger detections are cut to a 40-event prefix,
        # which is itself a valid linkage input (ids stay sequential)
        ep_hles = hles if len(hles) <= 50 else hles[:40]
        ep_records = _canon_hles(ep_hles)
        ep_edges = o_propagation_edges(ep_records, params["lam"])
        ep_graph = PropagationGraph.build(ep_hles, params["lam"])
        want = o_episodes(
            ep_records, ep_edges, params["lam"], params["max_len"],
            params["condition"])
        got = enumerate_episodes(
            ep_graph, max_len=params["max_len"], lam=params["lam"],
            condition=params["condition"], max_episodes=600_000)
        assert {tuple(_coord_key(h) for h in e.hles) for e in got} == want, seed
        episode_checked += 1

    elapsed = time.perf_counter() - t0
    verdict(
        3,
        n_seeds >= 100 and episode_checked == n_seeds and elapsed < 60,
        f"{n_seeds} random logs: window indices, pattern step sets, "
        f"thresholds, event sets and propagation edges match brute force "
        f"exactly; episode enumerations exhaustively matched on all "
        f"{episode_checked} instances (<= 50 events each) [{elapsed:.1f} s]",
    )


# --- criterion 4: injected anomalies are recovered -------------------------------

CHAIN = ("receive", "triage", "assess", "decide", "close")
SEG = {name: Segment(a, b) for name, (a, b) in {
    "ab": ("receive", "triage"),
    "bc": ("triage", "assess"),
    "cd": ("assess", "decide"),
    "de": ("decide", "close"),
}.items()}


def _injection_spec():
    # every dedicated case walks the whole chain, so each injection also
    # bumps the *other* segments in its window; with 60 windows those four
    # bumps stay below the p90 rank and the thresholds keep describing
    # background behaviour
    return LogSpec(
        activities=CHAIN,
        n_cases=400,
        n_windows=60,
        window_width=timedelta(days=1),
        start=datetime(2024, 2, 1, tzinfo=UTC),
        step_spacing=timedelta(hours=1),
        resources=("r1", "r2", "r3", "r4", "r5"),
        base_success=0.6,
        success_activity="resolved",
        injections=(
            InjectionSpec(FeatureType.WORKLOAD, SEG["bc"], 7, 60, success_bias=0.1),
            InjectionSpec(FeatureType.BATCH, SEG["cd"], (22, 25), 40),
            InjectionSpec(FeatureType.HANDOVER, SEG["ab"], 40, 35),
            InjectionSpec(FeatureType.DELAY, SEG["de"], (50, 53), 30),
        ),
    )


def test_criterion_4_injection_recovery():
    t0 = time.perf_counter()
    spec = _injection_spec()
    background = dataclasses.replace(spec, injections=())
    # anchor detection windows at the generator's start so the recovered
    # coordinates are comparable to the planted ones
    config = RunConfig(percentile=90, delay_percentile=70, lam=0.5, max_len=4,
                       success_activity="resolved",
                       origin="2024-02-01T00:00:00+00:00")
    biased_path = HighLevelPath((
        (FeatureType.EXIT, SEG["ab"]), (FeatureType.EXIT, SEG["bc"])))

    n_seeds = 20
    recalled = 0
    significant = 0
    for seed in range(n_seeds):
        log, truth = generate_log(spec, seed)
        detect = run_detect(log, config)

        # every injected magnitude clears twice the background's p90 bar
        base_log, _ = generate_log(background, seed)
        base_idx = build_indices(base_log, truth.framing)
        base_delta = compute_delay_thresholds(base_idx, 70)
        base_thr = compute_thresholds(base_idx, 90, delay_thresholds=base_delta)
        by_coord = {h.coordinate: h for h in detect.hles}
        hit = True
        for inj in truth.injections:
            h = by_coord.get(inj.coordinate)
            if h is None:
                hit = False
                continue
            assert h.value >= 2 * base_thr.get(inj.ftype, inj.segment), inj
        recalled += hit

        link = run_link(detect.hles, config)
        correlate = run_correlate(log, link.grouped, config)
        for assoc in correlate.associations:
            if assoc.path == biased_path and assoc.result is not None:
                if assoc.result.p_value < 0.05:
                    significant += 1
                break

    elapsed = time.perf_counter() - t0
    verdict(
        4,
        recalled == n_seeds and significant >= 18 and elapsed < 30,
        f"injected workload/batch/handover/delay recovered at their exact "
        f"coordinates, magnitude >= 2x the clean log's p90, in {recalled}/20 "
        f"seeds; biased path significant in {significant}/20 [{elapsed:.1f} s]",
    )


# --- criterion 5: the property suite's invariants hold ---------------------------

def test_criterion_5_property_suite():
    """Compact re-assertion of every named invariant; the full randomized
    versions live in test_properties.py and run with the suite."""
    problems = []
    for seed in (3, 17, 40):
        log, params = random_small_log(seed)
        framing = Framing(width=params["width"], origin=params["origin"])
        idx = build_indices(log, framing)
        delta = compute_delay_thresholds(idx, params["q"])

        for segment in idx.segments:
            n = len(idx.steps_of(segment))
            enter = sum(
                len(counted(idx, FeatureType.ENTER, segment, w)) for w in idx.window_range)
            exit_ = sum(
                len(counted(idx, FeatureType.EXIT, segment, w)) for w in idx.window_range)
            batch = sum(
                len(counted(idx, FeatureType.BATCH, segment, pr))
                for pr in idx.occupied_pairs(segment))
            if not (enter == exit_ == batch == n):
                problems.append(f"conservation broken on {segment}")
            for w in idx.window_range:
                ex = set(counted(idx, FeatureType.EXIT, segment, w))
                lo = set(counted(idx, FeatureType.WORKLOAD, segment, w,
                                 blacklist=params["blacklist"]))
                ha = set(counted(idx, FeatureType.HANDOVER, segment, w,
                                 blacklist=params["blacklist"]))
                if not (lo <= ex and ha <= ex and not (lo & ha)):
                    problems.append(f"workload/handover not within exit on {segment}")

        kw = dict(delay_thresholds=delta, blacklist=params["blacklist"])
        hles_90 = detect_hles(idx, compute_thresholds(idx, 90, **kw), **kw)
        hles_70 = detect_hles(idx, compute_thresholds(idx, 70, **kw), **kw)
        if not {h.coordinate for h in hles_90} <= {h.coordinate for h in hles_70}:
            problems.append("p-monotonicity broken")

        g_lo = PropagationGraph.build(hles_70, 0.2)
        g_hi = PropagationGraph.build(hles_70, 0.8)
        e_lo = {(i, j) for i, s in g_lo.successors.items() for j in s}
        e_hi = {(i, j) for i, s in g_hi.successors.items() for j in s}
        if not e_hi <= e_lo:
            problems.append("lambda-monotonicity broken")

        if detect_hles(idx, compute_thresholds(idx, 90, **kw), **kw) != hles_90:
            problems.append("detection not deterministic")

    for a, b in ((frozenset("ab"), frozenset("bc")), (frozenset(), frozenset("z"))):
        if jaccard(a, b) != jaccard(b, a) or not 0 <= jaccard(a, b) <= 1:
            problems.append("jaccard broken")

    classes = {"c1": "x", "c2": "y", "c3": "x", "c4": "x"}
    (a,) = rank_paths(*one_path_study(frozenset({"c1", "c2"}), frozenset({"c3", "c4"})),
                      classes)
    rows = (a.n_participating, a.n_non_participating)
    if rows != (2, 2) or marginals(a.table) != (rows, (3, 1)):
        problems.append("contingency marginals broken")

    verdict(
        5,
        not problems,
        "conservation sums, exit-partition, jaccard symmetry, lambda/p "
        "monotonicity, contingency marginals and determinism all hold "
        "(randomized versions in test_properties.py)"
        + ("; " + "; ".join(problems) if problems else ""),
    )


# --- criterion 6: soft diagnostic on the public loan-application log -------------

import os
from pathlib import Path

BPIC_CANDIDATES = [
    os.environ.get("HLPATHS_BPIC2017", ""),
    "data/bpic2017.xes.gz",
    "data/bpic2017.xes",
    "data/BPI Challenge 2017.xes.gz",
    "data/BPI Challenge 2017.xes",
]


def test_criterion_6_public_log_diagnostic():
    path = next((p for p in BPIC_CANDIDATES if p and Path(p).exists()), None)
    if path is None:
        line = ("criterion 6: SKIP — public 2017 loan-application log not "
                "present (place it under data/ or set HLPATHS_BPIC2017); "
                "soft diagnostic, not a gate")
        conftest.ACCEPTANCE_LINES.append(line)
        pytest.skip(line)

    from hlpaths.correlation import AttributeBinning, derive_outcome, derive_throughput
    from hlpaths.event_log import parse_xes

    log = parse_xes(path)
    assert len(log.cases) == 31509, "application count"
    outcomes = derive_outcome(log, "A_Pending|COMPLETE")
    assert sum(1 for v in outcomes.values() if v == "success") == 17228

    throughput = derive_throughput(log)
    binning = AttributeBinning.from_edges(
        [10 * 86400.0, 30 * 86400.0], ["short", "medium", "long"])
    counts = {"short": 0, "medium": 0, "long": 0}
    for v in throughput.values():
        counts[binning.classify(v)] += 1
    assert (counts["short"], counts["medium"], counts["long"]) == (7454, 12963, 10994)

    config = RunConfig(window="1d", percentile=90, delay_percentile=70, lam=0.5,
                       top_segments=43, blacklist=("User_1",),
                       success_activity="A_Pending|COMPLETE")
    detect = run_detect(log, config)
    total = len(detect.hles)
    by_type = {}
    for h in detect.hles:
        by_type[h.ftype.value] = by_type.get(h.ftype.value, 0) + 1
    reference = {"workload": 1103, "handover": 214, "enter": 1394,
                 "exit": 1377, "batch": 1048, "delay": 162}
    same_order = 5298 / 3 <= total <= 5298 * 3
    within_5pp = all(
        abs(by_type.get(k, 0) / total - v / 5298) <= 0.05
        for k, v in reference.items()
    )
    verdict(
        6,
        same_order and within_5pp,
        f"public log: {total} events detected (reference order 5298), "
        f"type shares within 5pp: {within_5pp}; case populations exact",
    )
