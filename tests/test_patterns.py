"""The six feature patterns on a small handcrafted scenario.

Five cases on segment (a, b), 1-day windows:

  c1  a@w0 r1 -> b@w0 r1   same resource, same window
  c2  a@w0 r1 -> b@w0 r2   handover, same window
  c3  a@w0 r1 -> b@w2 r2   crosses two windows
  c4  a@w1 ''  -> b@w1 r2  empty resource on the first event
  c5  a@w1 rX -> b@w1 rX   blacklisted resource, same on both ends
"""

import math

import pytest

from conftest import T0, counted, mk_log
from hlpaths.errors import ConfigError
from hlpaths.event_log import Segment
from hlpaths.framing import Framing, build_indices
from hlpaths.patterns import (
    FeatureType,
    compute_delay_thresholds,
    counted_steps,
    nearest_rank,
    segment_delay_threshold,
)

AB = Segment("a", "b")
H = 60  # minutes per hour
D = 24 * 60


@pytest.fixture
def idx():
    log = mk_log([
        ("c1", "a", "r1", 1 * H), ("c1", "b", "r1", 2 * H),
        ("c2", "a", "r1", 3 * H), ("c2", "b", "r2", 4 * H),
        ("c3", "a", "r1", 5 * H), ("c3", "b", "r2", 2 * D + 1 * H),
        ("c4", "a", "", 1 * D + 1 * H), ("c4", "b", "r2", 1 * D + 2 * H),
        ("c5", "a", "rX", 1 * D + 3 * H), ("c5", "b", "rX", 1 * D + 4 * H),
    ])
    from datetime import timedelta
    return build_indices(log, Framing(width=timedelta(days=1), origin=T0))


def cases(steps):
    return sorted(s.case for s in steps)


def pattern(idx, ftype, theta, **kw):
    return counted(idx, ftype, AB, theta, **kw)


def test_enter(idx):
    assert cases(pattern(idx, FeatureType.ENTER, 0)) == ["c1", "c2", "c3"]
    assert cases(pattern(idx, FeatureType.ENTER, 1)) == ["c4", "c5"]
    assert not pattern(idx, FeatureType.ENTER, 2)


def test_exit(idx):
    assert cases(pattern(idx, FeatureType.EXIT, 0)) == ["c1", "c2"]
    assert cases(pattern(idx, FeatureType.EXIT, 1)) == ["c4", "c5"]
    assert cases(pattern(idx, FeatureType.EXIT, 2)) == ["c3"]


def test_workload_excludes_empty_and_blacklisted(idx):
    assert cases(pattern(idx, FeatureType.WORKLOAD, 0)) == ["c1"]
    # without a blacklist, c5's rX->rX counts as same-resource work
    assert cases(pattern(idx, FeatureType.WORKLOAD, 1)) == ["c5"]
    blk = frozenset({"rX"})
    assert not pattern(idx, FeatureType.WORKLOAD, 1, blacklist=blk)


def test_handover_needs_two_usable_resources(idx):
    assert cases(pattern(idx, FeatureType.HANDOVER, 0)) == ["c2"]
    # c4 has an empty first resource: not a handover even though r differs
    assert not pattern(idx, FeatureType.HANDOVER, 1)
    assert cases(pattern(idx, FeatureType.HANDOVER, 2)) == ["c3"]


def test_blacklist_does_not_touch_load_patterns(idx):
    blk = frozenset({"rX"})
    assert cases(pattern(idx, FeatureType.ENTER, 1, blacklist=blk)) == ["c4", "c5"]
    assert cases(pattern(idx, FeatureType.EXIT, 1, blacklist=blk)) == ["c4", "c5"]
    assert cases(pattern(idx, FeatureType.BATCH, (1, 1), blacklist=blk)) == ["c4", "c5"]


def test_batch(idx):
    assert cases(pattern(idx, FeatureType.BATCH, (0, 0))) == ["c1", "c2"]
    assert cases(pattern(idx, FeatureType.BATCH, (0, 2))) == ["c3"]
    assert not pattern(idx, FeatureType.BATCH, (0, 1))


def test_delay_threshold_and_pattern(idx):
    # step distances: 0,0,0,0,2 -> 70th percentile 0 -> floored to 1
    assert segment_delay_threshold(AB, idx, 70) == 1
    # 90th percentile picks the 2
    assert segment_delay_threshold(AB, idx, 90) == 2
    assert compute_delay_thresholds(idx, 70) == {AB: 1}

    delta = {AB: 1}
    assert cases(pattern(idx, FeatureType.DELAY, (0, 2), delay_thresholds=delta)) == ["c3"]
    assert not pattern(idx, FeatureType.DELAY, (0, 0), delay_thresholds=delta)
    # distance 2 still reaches a delta of 2
    assert cases(pattern(idx, FeatureType.DELAY, (0, 2), delay_thresholds={AB: 2})) == ["c3"]
    assert not pattern(idx, FeatureType.DELAY, (0, 2), delay_thresholds={AB: 3})


def test_delay_without_thresholds_rejected(idx):
    with pytest.raises(ValueError, match="delay"):
        pattern(idx, FeatureType.DELAY, (0, 2))


def test_coordinate_shape_mismatch(idx):
    # single-window types are keyed by window, pair types by (entry, exit)
    delta = {AB: 1}
    for ftype in FeatureType:
        thetas = counted_steps(ftype, AB, idx, delay_thresholds=delta)
        assert thetas
        shape = tuple if ftype.uses_window_pair else int
        assert all(type(theta) is shape for theta in thetas), ftype
    # so a theta of the other shape is no coordinate of the type
    assert not pattern(idx, FeatureType.ENTER, (0, 0))
    assert not pattern(idx, FeatureType.BATCH, 0)


def test_value_is_step_count(idx):
    # a value is the length of its list: no step may be listed twice
    for ftype in (FeatureType.ENTER, FeatureType.EXIT, FeatureType.WORKLOAD):
        for w in range(3):
            steps = pattern(idx, ftype, w)
            assert len(set(steps)) == len(steps)


def test_workload_handover_partition_exit(idx):
    for w in range(3):
        exit_steps = set(pattern(idx, FeatureType.EXIT, w))
        wl = set(pattern(idx, FeatureType.WORKLOAD, w))
        ho = set(pattern(idx, FeatureType.HANDOVER, w))
        assert wl <= exit_steps and ho <= exit_steps
        assert not (wl & ho)


def test_unknown_segment_is_empty(idx):
    assert counted_steps(FeatureType.ENTER, Segment("x", "y"), idx) == {}
    assert not counted(idx, FeatureType.ENTER, Segment("x", "y"), 0)


def test_feature_type_parse():
    assert FeatureType.parse(" Exit ") is FeatureType.EXIT
    assert FeatureType.BATCH.uses_window_pair
    assert not FeatureType.ENTER.uses_window_pair
    with pytest.raises(ConfigError):
        FeatureType.parse("spike")


# frozen percentile examples

def test_nearest_rank_examples():
    assert nearest_rank([5, 0, 0, 0, 0, 0, 0, 0, 0, 0], 90) == 5
    assert nearest_rank([0, 1, 1, 2, 10], 70) == 2
    assert nearest_rank([1, 5], 100) == 5
    for p in (0, 25, 50, 99, 100):
        assert nearest_rank([2, 2, 2], p) == 2
    assert nearest_rank([7, 3, 9], 0) == 3


def test_nearest_rank_guards():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ConfigError):
        nearest_rank([1], 101)
    with pytest.raises(ConfigError):
        nearest_rank([1], -1)


def test_segment_delay_threshold_empty_segment(idx):
    with pytest.raises(ValueError, match="no steps"):
        segment_delay_threshold(Segment("x", "y"), idx, 70)


def test_delta_floor_is_one():
    # all steps in one window: percentile 0, still delta 1
    log = mk_log([
        ("c1", "a", "r1", 0), ("c1", "b", "r1", 10),
        ("c2", "a", "r1", 20), ("c2", "b", "r1", 30),
    ])
    from datetime import timedelta
    idx = build_indices(log, Framing(width=timedelta(days=1), origin=T0))
    assert segment_delay_threshold(AB, idx, 70) == 1
    assert not math.isinf(segment_delay_threshold(AB, idx, 100))
