"""Framing: duration parsing, window mapping, the step index."""

from datetime import datetime, timedelta, timezone

import pytest

from conftest import T0, mk_log
from hlpaths import framing as framing_module
from hlpaths import pipeline
from hlpaths.config import RunConfig
from hlpaths.errors import ConfigError
from hlpaths.event_log import Segment, derive_steps
from hlpaths.framing import (
    Coordinate,
    Framing,
    build_indices,
    parse_duration,
    windows_of_log,
)
from oracles import o_window_index

UTC = timezone.utc
DAY = timedelta(days=1)


def test_parse_duration_units():
    assert parse_duration("1d") == timedelta(days=1)
    assert parse_duration("4h") == timedelta(hours=4)
    assert parse_duration("30m") == timedelta(minutes=30)
    assert parse_duration("90s") == timedelta(seconds=90)
    assert parse_duration(" 2D ") == timedelta(days=2)


@pytest.mark.parametrize("bad", ["", "d", "1w", "-1d", "1.5h", "day"])
def test_parse_duration_rejects(bad):
    with pytest.raises(ConfigError):
        parse_duration(bad)


def test_window_index_left_closed_right_open():
    f = Framing(width=DAY, origin=T0)
    assert f.window_index(T0) == 0
    assert f.window_index(T0 + DAY - timedelta(microseconds=1)) == 0
    assert f.window_index(T0 + DAY) == 1  # boundary belongs to the next window
    assert f.window_index(T0 + timedelta(days=2, hours=13)) == 2


def test_window_index_before_origin_rejected():
    f = Framing(width=DAY, origin=T0)
    with pytest.raises(ValueError):
        f.window_index(T0 - timedelta(seconds=1))


def test_window_bounds():
    f = Framing(width=DAY, origin=T0)
    w = f.window(3)
    assert w.index == 3
    assert w.start == T0 + 3 * DAY
    assert w.end == T0 + 4 * DAY - timedelta(microseconds=1)


def test_for_log_anchors_at_midnight_of_first_day():
    log = mk_log([("c1", "a", "r1", 10 * 60 + 30)])  # 10:30 on T0's day
    f = Framing.for_log(log, DAY)
    assert f.origin == datetime(2024, 3, 1, tzinfo=UTC)
    assert f.window_index(log.min_time) == 0


def test_for_log_non_utc_first_event():
    from hlpaths.event_log import Event, EventLog

    t = datetime(2024, 3, 1, 1, 30, tzinfo=timezone(timedelta(hours=3)))  # 22:30 Feb 29 UTC
    log = EventLog([Event("e0", "c1", "a", "r1", t)])
    f = Framing.for_log(log, DAY)
    assert f.origin == datetime(2024, 2, 29, tzinfo=UTC)


def test_framing_requires_aware_origin_and_positive_width():
    with pytest.raises(ValueError):
        Framing(width=DAY, origin=datetime(2024, 3, 1))  # naive
    with pytest.raises(ValueError):
        Framing(width=timedelta(0), origin=T0)


def test_window_index_matches_oracle_on_awkward_widths():
    f = Framing(width=timedelta(minutes=30), origin=T0)
    for minutes in [0, 1, 29, 30, 31, 59, 60, 61, 150, 1440]:
        t = T0 + timedelta(minutes=minutes)
        assert f.window_index(t) == o_window_index(t, T0, f.width)


def test_windows_of_log_contiguous_with_empty_windows():
    log = mk_log([
        ("c1", "a", "r1", 0),
        ("c2", "a", "r1", 3 * 24 * 60),  # day 3; days 1-2 are empty
    ])
    f = Framing(width=DAY, origin=T0)
    windows = windows_of_log(log, f)
    assert [w.index for w in windows] == [0, 1, 2, 3]
    assert windows[0].start == T0


def test_coordinate_shape():
    assert not Coordinate(Segment("a", "b"), 4).is_pair
    assert Coordinate(Segment("a", "b"), (1, 2)).is_pair


def test_build_indices_origin_after_first_event_rejected():
    log = mk_log([("c1", "a", "r1", 0), ("c1", "b", "r1", 10)])
    late = Framing(width=DAY, origin=T0 + timedelta(hours=1))
    with pytest.raises(ValueError, match="origin"):
        build_indices(log, late)


def test_step_index_buckets():
    # c1: a->b same window; c2: a->b across windows 0->2
    log = mk_log([
        ("c1", "a", "r1", 60), ("c1", "b", "r2", 120),
        ("c2", "a", "r1", 100), ("c2", "b", "r1", 2 * 24 * 60 + 30),
    ])
    idx = build_indices(log, Framing(width=DAY, origin=T0))
    seg = Segment("a", "b")
    assert idx.window_range == range(0, 3)
    assert [s.case for s in idx.steps_of(seg)] == ["c1", "c2"]
    assert [s.case for s in idx.steps_entering(seg, 0)] == ["c1", "c2"]
    assert [s.case for s in idx.steps_exiting(seg, 0)] == ["c1"]
    assert [s.case for s in idx.steps_exiting(seg, 2)] == ["c2"]
    assert idx.occupied_pairs(seg) == ((0, 0), (0, 2))
    assert [s.case for s in idx.pair_steps(seg, (0, 2))] == ["c2"]
    assert idx.pair_steps(seg, (1, 1)) == ()


def test_step_index_respects_segment_selection():
    # the most frequent segment wins; a rework loop makes a->b the top one
    rework = mk_log([
        ("c1", "a", "r1", 0), ("c1", "b", "r1", 10), ("c1", "a", "r1", 20),
        ("c1", "b", "r1", 30), ("c1", "c", "r1", 2 * 24 * 60),
    ])
    top = build_indices(rework, Framing(width=DAY, origin=T0), top_segments=1)
    assert top.segments == {Segment("a", "b")}
    assert len(top.steps_of(Segment("a", "b"))) == 2
    assert top.steps_of(Segment("b", "c")) == ()
    # window range still spans all events, not just selected-segment steps
    assert top.window_range == range(0, 3)


@pytest.mark.parametrize("top_segments", [None, 2])
def test_run_detect_derives_steps_once(monkeypatch, top_segments):
    calls = []

    def counted(log):
        calls.append(log)
        return derive_steps(log)

    for module in (framing_module, pipeline):
        monkeypatch.setattr(module, "derive_steps", counted, raising=False)
    log = mk_log([
        ("c1", "a", "r1", 0), ("c1", "b", "r1", 10), ("c1", "c", "r1", 20),
        ("c2", "a", "r2", 30), ("c2", "b", "r1", 40),
    ])
    result = pipeline.run_detect(log, RunConfig(top_segments=top_segments))
    assert len(calls) == 1
    assert len(result.index.segments) == 2
