import random
from datetime import datetime, timedelta, timezone

from hlpaths.detection import HighLevelEvent
from hlpaths.event_log import Event, EventLog, Segment
from hlpaths.linkage import Episode
from hlpaths.patterns import FeatureType, counted_steps

UTC = timezone.utc
T0 = datetime(2024, 3, 1, tzinfo=UTC)


def ev(eid, case, activity, resource="r1", *, minutes=0, t=None):
    return Event(
        id=eid, case=case, activity=activity, resource=resource,
        time=t if t is not None else T0 + timedelta(minutes=minutes),
    )


def mk_log(rows):
    """Build a log from (case, activity, resource, minutes-from-T0) rows."""
    events = [
        ev(f"e{i}", case, activity, resource, minutes=minutes)
        for i, (case, activity, resource, minutes) in enumerate(rows)
    ]
    return EventLog(events)


def one_path_study(part, rest):
    """A log whose cases all walk a->b, and the one path whose episode
    holds the cases of ``part``: ``rank_paths`` compares them with the
    cases of ``rest``."""
    rows = [
        (case, activity, "r1", 10 * i + k)
        for i, case in enumerate(sorted(part | rest))
        for k, activity in enumerate("ab")
    ]
    spread = (T0, T0 + timedelta(hours=1))
    hle = HighLevelEvent(
        id=0, ftype=FeatureType.EXIT, segment=Segment("a", "b"), theta=0,
        value=float(len(part)), cases=frozenset(part),
        start_spread=spread, end_spread=spread,
    )
    episode = Episode(hles=(hle,), common_cases=hle.cases, union_cases=hle.cases)
    return mk_log(rows), {episode.path: [episode]}


def marginals(table):
    """The row totals and the column totals of a contingency table."""
    return tuple(map(sum, table.counts)), tuple(map(sum, zip(*table.counts)))


def counted(idx, ftype, segment, theta, **kw):
    """The steps that count for ``ftype`` at one coordinate: its list in
    ``counted_steps``, or () where the coordinate is not occupied."""
    return counted_steps(ftype, segment, idx, **kw).get(theta, ())


def random_small_log(seed):
    """A small messy log plus pipeline knobs, both drawn from one seed.

    Traces may repeat activities (self-loops), resources are sometimes
    empty, steps may cross several windows. Sized so a brute-force pass
    stays cheap (well under 500 events).
    """
    rng = random.Random(seed)
    alphabet = [chr(ord("A") + i) for i in range(rng.randint(3, 4))]
    resources = ["r1", "r2", "r3"]
    events = []
    eid = 0
    for c in range(rng.randint(8, 22)):
        t = T0 + timedelta(minutes=rng.randint(0, 5 * 24 * 60))
        for activity in (rng.choice(alphabet) for _ in range(rng.randint(2, 6))):
            resource = "" if rng.random() < 0.1 else rng.choice(resources)
            events.append(Event(
                id=f"e{eid}", case=f"c{c}", activity=activity,
                resource=resource, time=t,
            ))
            eid += 1
            t += timedelta(minutes=rng.randint(10, 36 * 60))
    params = {
        "origin": T0,
        "width": timedelta(days=1),
        "p": rng.choice([70.0, 80.0, 90.0, 90.0, 95.0, 100.0]),
        "q": rng.choice([50.0, 70.0, 90.0]),
        "lam": rng.choice([0.3, 0.5, 0.7]),
        "max_len": rng.randint(2, 4),
        "blacklist": frozenset({"r1"}) if rng.random() < 0.25 else frozenset(),
        "pair_population": "all" if rng.random() < 0.15 else "occupied",
        "condition": "min_fraction" if rng.random() < 0.3 else "jaccard",
    }
    return EventLog(events), params


# Lines queued by the acceptance tests; echoed after the run so the
# per-criterion verdicts stay visible even with captured stdout.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
