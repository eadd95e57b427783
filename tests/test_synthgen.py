"""Synthetic-log generator: determinism, feasibility guards, injected shape."""

from datetime import datetime, timedelta, timezone

import pytest

from hlpaths.detection import compute_thresholds, detect_hles
from hlpaths.event_log import Segment, derive_steps
from hlpaths.framing import build_indices
from hlpaths.patterns import FeatureType, compute_delay_thresholds
from hlpaths.synthgen import (
    GroundTruth,
    InjectionSpec,
    LogSpec,
    SpecError,
    demo_spec,
    generate_log,
)

UTC = timezone.utc


def small_spec(**kw):
    base = dict(
        activities=("a", "b", "c"),
        n_cases=30,
        n_windows=6,
        window_width=timedelta(days=1),
        start=datetime(2024, 5, 1, tzinfo=UTC),
        step_spacing=timedelta(hours=1),
        resources=("r1", "r2"),
        base_success=0.5,
        success_activity="ok",
    )
    base.update(kw)
    return LogSpec(**base)


def test_deterministic_per_seed():
    spec = small_spec()
    log1, truth1 = generate_log(spec, seed=7)
    log2, truth2 = generate_log(spec, seed=7)
    assert [(e.id, e.case, e.activity, e.resource, e.time) for e in log1.events] \
        == [(e.id, e.case, e.activity, e.resource, e.time) for e in log2.events]
    assert truth1.outcomes == truth2.outcomes

    log3, _ = generate_log(spec, seed=8)
    assert [(e.case, e.time) for e in log1.events] \
        != [(e.case, e.time) for e in log3.events]


def test_trace_shape():
    spec = small_spec()
    log, truth = generate_log(spec, seed=1)
    traces = log.traces
    assert len(traces) == 30
    for case, events in traces.items():
        acts = [e.activity for e in events]
        if truth.outcomes[case] == "success":
            assert acts == ["a", "b", "c", "ok"]
        else:
            assert acts == ["a", "b", "c"]
        times = [e.time for e in events]
        assert times == sorted(times)
        # whole trace inside one window
        first, last = times[0], times[-1]
        assert last - first < spec.window_width
        assert first >= spec.start
        assert last < spec.start + 6 * spec.window_width


def test_outcome_rate_tracks_base_success():
    spec = small_spec(n_cases=400, base_success=0.8)
    _, truth = generate_log(spec, seed=3)
    rate = sum(1 for o in truth.outcomes.values() if o == "success") / 400
    assert 0.7 < rate < 0.9


def test_injection_adds_dedicated_cases_at_coordinate():
    seg = Segment("a", "b")
    inj = InjectionSpec(FeatureType.EXIT, seg, theta=2, magnitude=12)
    spec = small_spec(injections=(inj,))
    log, truth = generate_log(spec, seed=5)
    assert len(truth.injections) == 1
    placed = truth.injections[0]
    assert placed.coordinate == (FeatureType.EXIT, seg, 2)
    assert len(placed.cases) == 12
    assert all(c.startswith("inj0_") for c in placed.cases)

    fr = truth.framing
    for case in placed.cases:
        events = log.traces[case]
        by_act = {e.activity: e for e in events}
        assert fr.window_index(by_act["b"].time) == 2

    # the coordinate fires against thresholds from the background load
    idx = build_indices(log, fr)
    delays = compute_delay_thresholds(idx, 70)
    thresholds = compute_thresholds(idx, 90, delay_thresholds=delays)
    hles = detect_hles(idx, thresholds, delay_thresholds=delays)
    assert placed.coordinate in {h.coordinate for h in hles}


def test_batch_and_delay_injection_span_windows():
    seg = Segment("b", "c")
    spec = small_spec(injections=(
        InjectionSpec(FeatureType.BATCH, seg, theta=(1, 3), magnitude=8),
        InjectionSpec(FeatureType.DELAY, seg, theta=(2, 5), magnitude=8),
    ))
    log, truth = generate_log(spec, seed=2)
    fr = truth.framing
    for placed in truth.injections:
        w_in, w_out = placed.theta
        for case in placed.cases:
            by_act = {e.activity: e for e in log.traces[case]}
            assert fr.window_index(by_act["b"].time) == w_in
            assert fr.window_index(by_act["c"].time) == w_out


def test_workload_and_handover_injections_fix_resources():
    seg = Segment("a", "b")
    spec = small_spec(injections=(
        InjectionSpec(FeatureType.WORKLOAD, seg, theta=1, magnitude=6),
        InjectionSpec(FeatureType.HANDOVER, seg, theta=4, magnitude=6),
    ))
    log, truth = generate_log(spec, seed=11)
    load, hand = truth.injections
    for case in load.cases:
        by_act = {e.activity: e for e in log.traces[case]}
        assert by_act["a"].resource == by_act["b"].resource != ""
    for case in hand.cases:
        by_act = {e.activity: e for e in log.traces[case]}
        assert by_act["a"].resource != by_act["b"].resource
        assert by_act["a"].resource and by_act["b"].resource


def test_success_bias_shifts_injected_outcomes():
    seg = Segment("a", "b")
    spec = small_spec(
        n_cases=100,
        injections=(InjectionSpec(FeatureType.EXIT, seg, 1, 80, success_bias=0.05),),
    )
    _, truth = generate_log(spec, seed=9)
    inj_cases = truth.injections[0].cases
    inj_rate = sum(1 for c in inj_cases if truth.outcomes[c] == "success") / len(inj_cases)
    base_cases = [c for c in truth.outcomes if not c.startswith("inj")]
    base_rate = sum(1 for c in base_cases if truth.outcomes[c] == "success") / len(base_cases)
    assert inj_rate < 0.2 < base_rate


def test_spec_validation():
    with pytest.raises(SpecError, match="distinct"):
        small_spec(activities=("a", "b", "a")).validate()
    with pytest.raises(SpecError, match="marker"):
        small_spec(success_activity="b").validate()
    with pytest.raises(SpecError, match="window"):
        # 30 activities an hour apart cannot fit a 1-day window... they can
        # (29h > 24h), so this must be rejected
        small_spec(activities=tuple(f"a{i}" for i in range(30))).validate()
    with pytest.raises(SpecError, match="segment"):
        small_spec(injections=(InjectionSpec(FeatureType.EXIT, Segment("a", "c"), 0, 5),)).validate()
    with pytest.raises(SpecError, match="magnitude"):
        small_spec(injections=(InjectionSpec(FeatureType.EXIT, Segment("a", "b"), 0, 0),)).validate()
    with pytest.raises(SpecError, match="bias"):
        small_spec(injections=(
            InjectionSpec(FeatureType.EXIT, Segment("a", "b"), 0, 5, success_bias=1.5),)).validate()
    with pytest.raises(SpecError, match="window"):
        small_spec(injections=(InjectionSpec(FeatureType.EXIT, Segment("a", "b"), 6, 5),)).validate()
    with pytest.raises(SpecError, match="pair"):
        small_spec(injections=(InjectionSpec(FeatureType.BATCH, Segment("a", "b"), 3, 5),)).validate()
    with pytest.raises(SpecError, match="single window"):
        small_spec(injections=(InjectionSpec(FeatureType.EXIT, Segment("a", "b"), (1, 2), 5),)).validate()
    with pytest.raises(SpecError, match="later"):
        small_spec(injections=(InjectionSpec(FeatureType.DELAY, Segment("a", "b"), (3, 3), 5),)).validate()


def test_ground_truth_coordinates_and_framing():
    spec = demo_spec(seed_hint=1)
    log, truth = generate_log(spec, seed=0)
    assert isinstance(truth, GroundTruth)
    assert truth.framing.origin == spec.start
    assert len(truth.coordinates) == len(spec.injections) == 2
    assert log.min_time >= spec.start
