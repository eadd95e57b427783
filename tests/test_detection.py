"""Thresholding and high-level event detection.

Main fixture: segment (a, b) with 1/3/1 steps in windows 0/1/2, all by the
same resource — so enter, exit, workload and batch spike together at
window 1 and handover stays flat at zero.
"""

import io
import math
import random
from datetime import timedelta

import pytest

from conftest import T0, mk_log
from hlpaths import patterns
from hlpaths.detection import compute_thresholds, detect_hles, summarize_by_type
from hlpaths.event_log import Segment
from hlpaths.framing import Coordinate, Framing, build_indices
from hlpaths.io import hle_from_dict, hle_to_dict, read_hles, write_hles
from hlpaths.patterns import FeatureType, compute_delay_thresholds, evaluate_pattern
from oracles import SINGLE_TYPES, o_delay_thresholds, o_threshold

AB = Segment("a", "b")
H = 60
D = 24 * 60
DAY = timedelta(days=1)


def spike_log():
    return mk_log([
        ("c1", "a", "r1", 10), ("c1", "b", "r1", 20),
        ("c2", "a", "r1", D + 1 * H), ("c2", "b", "r1", D + 2 * H),
        ("c3", "a", "r1", D + 3 * H), ("c3", "b", "r1", D + 4 * H),
        ("c4", "a", "r1", D + 5 * H), ("c4", "b", "r1", D + 6 * H),
        ("c5", "a", "r1", 2 * D + 1 * H), ("c5", "b", "r1", 2 * D + 2 * H),
    ])


@pytest.fixture
def idx():
    return build_indices(spike_log(), Framing(width=DAY, origin=T0))


def detect(idx, p, pair_population="occupied"):
    delta = compute_delay_thresholds(idx, 70)
    table = compute_thresholds(
        idx, p, delay_thresholds=delta, pair_population=pair_population
    )
    return table, detect_hles(idx, table, delay_thresholds=delta)


def test_threshold_values(idx):
    delta = compute_delay_thresholds(idx, 70)
    table = compute_thresholds(idx, 90, delay_thresholds=delta)
    # single-window population is [1, 3, 1] including nothing-happened windows
    assert table.get(FeatureType.ENTER, AB) == 3
    assert table.get(FeatureType.EXIT, AB) == 3
    assert table.get(FeatureType.WORKLOAD, AB) == 3
    assert table.get(FeatureType.HANDOVER, AB) == 0
    # pair population is the occupied pairs only: [1, 3, 1]
    assert table.get(FeatureType.BATCH, AB) == 3
    assert table.get(FeatureType.DELAY, AB) == 0


def test_threshold_unknown_key(idx):
    table, _ = detect(idx, 90)
    with pytest.raises(ValueError, match="no threshold"):
        table.get(FeatureType.ENTER, Segment("x", "y"))


def test_detection_at_p90(idx):
    _, hles = detect(idx, 90)
    got = {(h.ftype, h.segment, h.theta, h.value) for h in hles}
    assert got == {
        (FeatureType.ENTER, AB, 1, 3.0),
        (FeatureType.EXIT, AB, 1, 3.0),
        (FeatureType.WORKLOAD, AB, 1, 3.0),
        (FeatureType.BATCH, AB, (1, 1), 3.0),
    }
    # a zero threshold still requires a value of at least 1: the flat
    # handover pattern never fires
    assert not [h for h in hles if h.ftype is FeatureType.HANDOVER]


def test_p100_switches_detection_off(idx):
    table, hles = detect(idx, 100)
    assert math.isinf(table.get(FeatureType.ENTER, AB))
    assert hles == []


def test_flat_population_fires_everywhere_below_p100():
    # three windows with two steps each: threshold 2 at any p < 100
    rows = []
    for w, case in enumerate(["c1", "c2", "c3"]):
        rows += [
            (case, "x", "r1", w * D + 1 * H), (case, "y", "r1", w * D + 2 * H),
            (f"{case}b", "x", "r1", w * D + 3 * H), (f"{case}b", "y", "r1", w * D + 4 * H),
        ]
    idx = build_indices(mk_log(rows), Framing(width=DAY, origin=T0))
    for p in (0, 50, 90, 99):
        table, hles = detect(idx, p)
        assert table.get(FeatureType.ENTER, Segment("x", "y")) == 2
        enters = [h for h in hles if h.ftype is FeatureType.ENTER]
        assert [h.theta for h in enters] == [0, 1, 2]
    _, hles = detect(idx, 100)
    assert hles == []


def test_pair_population_widening(idx):
    # occupied pairs [1,3,1] at p=70 -> threshold 3; all pairs add zeros
    # and drop it to 1
    _, occupied = detect(idx, 70)
    assert {h.theta for h in occupied if h.ftype is FeatureType.BATCH} == {(1, 1)}
    _, widened = detect(idx, 70, pair_population="all")
    assert {h.theta for h in widened if h.ftype is FeatureType.BATCH} == {
        (0, 0), (1, 1), (2, 2),
    }


def test_hle_fields(idx):
    _, hles = detect(idx, 90)
    enter = next(h for h in hles if h.ftype is FeatureType.ENTER)
    assert enter.cases == frozenset({"c2", "c3", "c4"})
    assert enter.start_spread == (T0 + timedelta(minutes=D + H),
                                  T0 + timedelta(minutes=D + 5 * H))
    assert enter.end_spread == (T0 + timedelta(minutes=D + 2 * H),
                                T0 + timedelta(minutes=D + 6 * H))
    assert enter.coordinate == (FeatureType.ENTER, AB, 1)


def test_ids_deterministic_scan_order(idx):
    _, hles = detect(idx, 90)
    assert [h.id for h in hles] == [0, 1, 2, 3]
    # enter < exit < workload < batch in the declared type order
    assert [h.ftype for h in hles] == [
        FeatureType.ENTER, FeatureType.EXIT, FeatureType.WORKLOAD, FeatureType.BATCH,
    ]
    _, again = detect(idx, 90)
    assert [(h.id, h.ftype, h.theta) for h in again] == [
        (h.id, h.ftype, h.theta) for h in hles
    ]


def test_types_filter(idx):
    delta = compute_delay_thresholds(idx, 70)
    table = compute_thresholds(
        idx, 90, delay_thresholds=delta, types=(FeatureType.ENTER,)
    )
    hles = detect_hles(idx, table, types=(FeatureType.ENTER,))
    assert [h.ftype for h in hles] == [FeatureType.ENTER]
    with pytest.raises(ValueError, match="no threshold"):
        table.get(FeatureType.EXIT, AB)


def test_delay_types_need_thresholds(idx):
    with pytest.raises(ValueError, match="delay"):
        compute_thresholds(idx, 90)
    table = compute_thresholds(idx, 90, types=(FeatureType.ENTER,))
    with pytest.raises(ValueError, match="delay"):
        detect_hles(idx, table)


def test_serialization_round_trip(idx):
    _, hles = detect(idx, 90)
    buf = io.StringIO()
    write_hles(hles, buf)
    buf.seek(0)
    back = list(read_hles(buf))
    assert len(back) == len(hles)
    for a, b in zip(hles, back):
        assert (a.id, a.ftype, a.segment, a.theta, a.value) == (
            b.id, b.ftype, b.segment, b.theta, b.value
        )
        assert a.cases == b.cases
        assert a.start_spread == b.start_spread
        assert a.end_spread == b.end_spread
        assert b.steps == frozenset()  # steps stay behind on purpose


def test_hle_dict_shape(idx):
    _, hles = detect(idx, 90)
    d = hle_to_dict(hles[-1])
    assert d["type"] == "batch" and d["theta"] == [1, 1]
    assert hle_from_dict(d).theta == (1, 1)


def test_summarize_by_type(idx):
    _, hles = detect(idx, 90)
    counts = summarize_by_type(hles)
    assert counts == {
        "enter": 1, "exit": 1, "workload": 1, "handover": 0, "batch": 1, "delay": 0,
    }


def long_log(seed=7, n_days=120):
    """150 cases over more than 100 daily windows, so an all-pairs
    population is almost entirely structural zeros."""
    rng = random.Random(seed)
    rows = [("first", "a", "r1", 0), ("first", "b", "r2", 30),
            ("last", "a", "r1", n_days * D), ("last", "b", "r1", n_days * D + 30)]
    for c in range(150):
        t = rng.randint(0, (n_days - 10) * D)
        for _ in range(rng.randint(2, 4)):
            rows.append((f"c{c}", rng.choice("abc"), rng.choice(["r1", "r2", "r3", ""]), t))
            t += rng.randint(H, 8 * D)
    return mk_log(rows)


def test_thresholds_never_evaluate_a_coordinate(idx, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a coordinate was evaluated one at a time")

    monkeypatch.setattr("hlpaths.patterns.evaluate_pattern", refuse)
    for index in (idx, build_indices(long_log(), Framing(width=DAY, origin=T0))):
        delta = compute_delay_thresholds(index, 70)
        for pair_population in ("occupied", "all"):
            table = compute_thresholds(
                index, 90, delay_thresholds=delta, blacklist=frozenset({"r3"}),
                pair_population=pair_population,
            )
            assert len(table.values) == 6 * len(index.segments)
            assert detect_hles(
                index, table, delay_thresholds=delta, blacklist=frozenset({"r3"})
            )


def occupied_thetas(index, ftype, segment):
    if ftype is FeatureType.ENTER:
        return list(index.entering_by_segment[segment])
    if ftype.uses_window_pair:
        return list(index.pairs_by_segment[segment])
    return list(index.exiting_by_segment[segment])


def test_detection_filters_each_occupied_coordinate_once(monkeypatch):
    index = build_indices(long_log(), Framing(width=DAY, origin=T0))
    delta = compute_delay_thresholds(index, 70)
    blacklist = frozenset({"r3"})
    table = compute_thresholds(index, 90, delay_thresholds=delta, blacklist=blacklist)
    calls = []
    counted = patterns._counted

    def spy(ftype, segment, theta, *args):
        calls.append((ftype, segment, theta))
        return counted(ftype, segment, theta, *args)

    monkeypatch.setattr(patterns, "_counted", spy)
    hles = detect_hles(index, table, delay_thresholds=delta, blacklist=blacklist)
    assert hles
    scanned = [
        (ftype, segment)
        for ftype in FeatureType
        for segment in index.sorted_segments()
        if not math.isinf(table.get(ftype, segment))
    ]
    assert scanned
    assert calls == [
        (ftype, segment, theta)
        for ftype, segment in scanned
        for theta in occupied_thetas(index, ftype, segment)
    ]


def test_delay_thresholds_read_windows_from_the_index(monkeypatch):
    log = long_log()
    index = build_indices(log, Framing(width=DAY, origin=T0))

    def refuse(self, t):
        raise AssertionError("window_index called after build_indices")

    monkeypatch.setattr(Framing, "window_index", refuse)
    for q in (0, 50, 70, 100):
        assert compute_delay_thresholds(index, q) == o_delay_thresholds(
            log, index.segments, T0, DAY, q
        )


@pytest.mark.parametrize("p", [0, 50, 90, 99, 99.5, 99.9, 99.99, 100])
def test_all_pairs_thresholds_match_brute_force_populations(p):
    idx = build_indices(long_log(), Framing(width=DAY, origin=T0))
    windows = idx.window_range
    assert len(windows) >= 100
    delta = compute_delay_thresholds(idx, 70)
    blacklist = frozenset({"r3"})
    table = compute_thresholds(
        idx, p, delay_thresholds=delta, blacklist=blacklist, pair_population="all"
    )
    want = {}
    for segment in idx.segments:
        for ftype in SINGLE_TYPES:
            want[(ftype, segment)] = o_threshold([
                evaluate_pattern(ftype, Coordinate(segment, w), idx, blacklist=blacklist).value
                for w in windows
            ], p)
        batch, delay = [], []
        for a in windows:
            for b in range(a, windows[-1] + 1):
                n = len(idx.pair_steps(segment, (a, b)))
                batch.append(n)
                delay.append(n if b - a >= delta[segment] else 0)
        assert len(batch) == len(windows) * (len(windows) + 1) // 2
        assert sum(batch) == len(idx.steps_of(segment))
        want[(FeatureType.BATCH, segment)] = o_threshold(batch, p)
        want[(FeatureType.DELAY, segment)] = o_threshold(delay, p)
    assert table.values == want
