"""Independent brute-force reference implementations.

Everything here is recomputed from first principles — raw loops and set
comprehensions over the events, integer arithmetic on epoch offsets, no
reuse of the library's indexing, thresholding, graph or gamma code. The
only shared vocabulary is the data types (Event, Segment, FeatureType).
Slow on purpose; only run on small instances.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta
from fractions import Fraction

from hlpaths.event_log import Event, EventLog, Segment
from hlpaths.patterns import FeatureType

SINGLE_TYPES = (
    FeatureType.ENTER, FeatureType.EXIT, FeatureType.WORKLOAD, FeatureType.HANDOVER,
)
PAIR_TYPES = (FeatureType.BATCH, FeatureType.DELAY)


def o_window_index(t: datetime, origin: datetime, width: timedelta) -> int:
    """Exact floor((t - origin) / width) over rational seconds."""
    delta = t - origin
    num = Fraction(delta.days * 86_400 + delta.seconds) + Fraction(delta.microseconds, 10**6)
    den = Fraction(width.days * 86_400 + width.seconds) + Fraction(width.microseconds, 10**6)
    return math.floor(num / den)


def o_steps(log: EventLog) -> list[tuple[Event, Event]]:
    by_case: dict[str, list[Event]] = {}
    for e in log.events:
        by_case.setdefault(e.case, []).append(e)
    steps = []
    for case in by_case:
        trace = sorted(by_case[case], key=lambda e: e.time)
        steps.extend(zip(trace, trace[1:]))
    return steps


def o_rank(values, p: float) -> float:
    """Nearest-rank percentile: first element once more than p% of the
    population has been passed; the maximum if that never happens."""
    ordered = sorted(values)
    n = len(ordered)
    seen = 0
    for v in ordered:
        seen += 1
        if seen > p * n / 100:
            return v
    return ordered[-1]


def o_threshold(values, p: float) -> float:
    """Like o_rank but over the top: +inf when p% of the population is
    everything (p = 100)."""
    ordered = sorted(values)
    n = len(ordered)
    for rank, v in enumerate(ordered):
        if rank + 1 > p * n / 100:
            return v
    return math.inf


def _ok_resources(e1: Event, e2: Event, blacklist: frozenset[str]) -> bool:
    return (
        bool(e1.resource) and bool(e2.resource)
        and e1.resource not in blacklist and e2.resource not in blacklist
    )


def o_pattern_steps(
    steps,
    ftype: FeatureType,
    segment: Segment,
    theta,
    origin: datetime,
    width: timedelta,
    delta: dict[Segment, int],
    blacklist: frozenset[str],
) -> set[tuple[str, str]]:
    """The defining set comprehension of each pattern, as event-id pairs."""
    seg_steps = [
        (e1, e2) for e1, e2 in steps if (e1.activity, e2.activity) == tuple(segment)
    ]
    win = lambda e: o_window_index(e.time, origin, width)
    if ftype is FeatureType.ENTER:
        chosen = [(a, b) for a, b in seg_steps if win(a) == theta]
    elif ftype is FeatureType.EXIT:
        chosen = [(a, b) for a, b in seg_steps if win(b) == theta]
    elif ftype is FeatureType.WORKLOAD:
        chosen = [
            (a, b) for a, b in seg_steps
            if win(b) == theta and _ok_resources(a, b, blacklist) and a.resource == b.resource
        ]
    elif ftype is FeatureType.HANDOVER:
        chosen = [
            (a, b) for a, b in seg_steps
            if win(b) == theta and _ok_resources(a, b, blacklist) and a.resource != b.resource
        ]
    elif ftype is FeatureType.BATCH:
        chosen = [(a, b) for a, b in seg_steps if (win(a), win(b)) == tuple(theta)]
    elif ftype is FeatureType.DELAY:
        w_in, w_out = theta
        if w_out - w_in >= delta[segment]:
            chosen = [(a, b) for a, b in seg_steps if (win(a), win(b)) == tuple(theta)]
        else:
            chosen = []
    else:
        raise AssertionError(ftype)
    return {(a.id, b.id) for a, b in chosen}


def o_delay_thresholds(log, segments, origin, width, q: float) -> dict[Segment, int]:
    out = {}
    for segment in segments:
        distances = [
            o_window_index(b.time, origin, width) - o_window_index(a.time, origin, width)
            for a, b in o_steps(log)
            if (a.activity, b.activity) == tuple(segment)
        ]
        if distances:
            out[segment] = max(1, math.ceil(o_rank(distances, q)))
    return out


def o_occupied_pairs(log, segment, origin, width) -> set[tuple[int, int]]:
    return {
        (o_window_index(a.time, origin, width), o_window_index(b.time, origin, width))
        for a, b in o_steps(log)
        if (a.activity, b.activity) == tuple(segment)
    }


# canonical HLE record: everything except the assigned id
HleRecord = tuple  # (type name, segment, theta, value, cases, start_spread, end_spread)


def o_detect(
    log: EventLog,
    segments,
    origin: datetime,
    width: timedelta,
    p: float,
    q: float,
    blacklist: frozenset[str] = frozenset(),
    pair_population: str = "occupied",
) -> tuple[dict, dict, dict[Segment, int], set[HleRecord]]:
    """Full brute-force detection: (pattern values, thresholds, deltas,
    HLE records)."""
    steps = o_steps(log)
    events_by_id = {e.id: e for e in log.events}
    lo = min(o_window_index(e.time, origin, width) for e in log.events)
    hi = max(o_window_index(e.time, origin, width) for e in log.events)
    delta = o_delay_thresholds(log, segments, origin, width, q)

    seg_with_steps = [
        s for s in segments
        if any((a.activity, b.activity) == tuple(s) for a, b in steps)
    ]
    values: dict[tuple, set] = {}
    for segment in seg_with_steps:
        for ftype in SINGLE_TYPES:
            for w in range(lo, hi + 1):
                values[(ftype, segment, w)] = o_pattern_steps(
                    steps, ftype, segment, w, origin, width, delta, blacklist
                )
        pairs = o_occupied_pairs(log, segment, origin, width)
        if pair_population == "all":
            pairs = {(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)}
        for ftype in PAIR_TYPES:
            for pair in pairs:
                values[(ftype, segment, pair)] = o_pattern_steps(
                    steps, ftype, segment, pair, origin, width, delta, blacklist
                )

    thresholds: dict[tuple, float] = {}
    for segment in seg_with_steps:
        for ftype in SINGLE_TYPES + PAIR_TYPES:
            population = [
                len(s) for (ft, seg, _), s in values.items()
                if ft is ftype and seg == segment
            ]
            if population:
                thresholds[(ftype, segment)] = o_threshold(population, p)

    hles: set[HleRecord] = set()
    for (ftype, segment, theta), chosen in values.items():
        bar = max(thresholds[(ftype, segment)], 1)
        if len(chosen) < bar:
            continue
        firsts = sorted(events_by_id[a].time for a, _ in chosen)
        seconds = sorted(events_by_id[b].time for _, b in chosen)
        cases = frozenset(events_by_id[a].case for a, _ in chosen)
        hles.add((
            ftype.value, tuple(segment), theta, len(chosen), cases,
            (firsts[0], firsts[-1]), (seconds[0], seconds[-1]),
        ))
    return values, thresholds, delta, hles


# --- linkage ----------------------------------------------------------------

def o_propagation_edges(records: set[HleRecord], lam: float) -> set[tuple, tuple]:
    """All ordered pairs satisfying the three overlaps, keyed by coordinate."""
    def coord(r):
        return (r[0], r[1], r[2])

    edges = set()
    for h in records:
        for g in records:
            if coord(h) == coord(g):
                continue
            if h[1][1] != g[1][0]:  # h must end where g starts
                continue
            inter = len(h[4] & g[4])
            union = len(h[4] | g[4])
            if union == 0 or inter / union < lam:
                continue
            h_end, g_start = h[6], g[5]
            inside = (
                (g_start[0] <= h_end[0] and h_end[1] <= g_start[1])
                or (h_end[0] <= g_start[0] and g_start[1] <= h_end[1])
            )
            if inside:
                edges.add((coord(h), coord(g)))
    return edges


def o_episodes(
    records: set[HleRecord],
    edges: set,
    lam: float,
    max_len: int,
    condition: str = "jaccard",
    chain_budget: int = 500_000,
) -> set[tuple]:
    """Every simple chain up to max_len, filtered by the episode condition
    afterwards — no pruning, so a pruning bug in the library cannot hide.
    Returns chains as tuples of coordinates. Raises RuntimeError when the
    raw chain count exceeds the budget."""
    by_coord = {(r[0], r[1], r[2]): r for r in records}
    succ: dict[tuple, list] = {c: [] for c in by_coord}
    for a, b in edges:
        succ[a].append(b)

    chains: list[tuple] = []
    frontier = [(c,) for c in by_coord]
    length = 1
    while frontier and length <= max_len:
        chains.extend(frontier)
        if len(chains) > chain_budget:
            raise RuntimeError("chain budget exceeded")
        nxt = []
        for chain in frontier:
            for b in succ[chain[-1]]:
                if b not in chain:
                    nxt.append(chain + (b,))
        frontier = nxt
        length += 1

    accepted = set()
    for chain in chains:
        case_sets = [by_coord[c][4] for c in chain]
        common = frozenset.intersection(*case_sets)
        union = frozenset.union(*case_sets)
        if condition == "jaccard":
            ok = (len(common) / len(union) if union else 0.0) >= lam
        else:
            ok = len(common) >= math.ceil(lam * min(len(s) for s in case_sets))
        if ok:
            accepted.add(chain)
    return accepted


# --- chi-square -------------------------------------------------------------

def o_chi2_stat(table) -> tuple[float, int]:
    rows = [list(map(float, r)) for r in table]
    n = sum(map(sum, rows))
    r_tot = [sum(r) for r in rows]
    c_tot = [sum(c) for c in zip(*rows)]
    stat = 0.0
    for i, row in enumerate(rows):
        for j, obs in enumerate(row):
            exp = r_tot[i] * c_tot[j] / n
            stat += (obs - exp) ** 2 / exp
    return stat, (len(rows) - 1) * (len(rows[0]) - 1)


def o_gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x): series for x < a+1,
    Lentz's continued fraction otherwise."""
    if x < 0 or a <= 0:
        raise ValueError("bad arguments")
    if x == 0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1:
        # P(a,x) series, Q = 1 - P
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10_000):
            k += 1
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return 1.0 - p
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - lg) * h


def o_chi2_p(stat: float, dof: int) -> float:
    """p-value via closed forms where they exist, the independent Q(a,x)
    otherwise."""
    if dof == 1:
        return math.erfc(math.sqrt(stat / 2))
    if dof == 2:
        return math.exp(-stat / 2)
    return o_gammaincc(dof / 2, stat / 2)


def o_benjamini_hochberg(p_values) -> list[float]:
    """q_i = min over all j with p_j >= p_i of p_j * n / rank_j."""
    n = len(p_values)
    indexed = sorted(range(n), key=lambda i: p_values[i])
    q = [0.0] * n
    for pos, i in enumerate(indexed, start=1):
        candidates = [
            p_values[j] * n / rank
            for rank, j in enumerate(indexed, start=1)
            if rank >= pos
        ]
        q[i] = min(1.0, min(candidates))
    return q


# --- correlation --------------------------------------------------------------

def o_traces(log: EventLog) -> dict[str, list[str]]:
    by_case: dict[str, list[Event]] = {}
    for e in log.events:
        by_case.setdefault(e.case, []).append(e)
    return {
        case: [e.activity for e in sorted(events, key=lambda e: e.time)]
        for case, events in by_case.items()
    }


def o_has_infix(sequence: list[str], infix: list[str]) -> bool:
    m = len(infix)
    return any(sequence[i : i + m] == infix for i in range(len(sequence) - m + 1))


def o_rank_paths(log: EventLog, grouped, classes, class_order=None, alpha: float = 0.05):
    """Per-path rescan of every case: participants are the union of the
    episodes' common cases, non-participants every other case whose trace
    holds the path's folded activity chain as a contiguous infix. Returns
    {path: (frequency, n_part, n_nonpart, columns, counts, p, q, significant)},
    with columns/counts/p/q None for paths skipped on a zero marginal."""
    traces = o_traces(log)
    cols = list(class_order) if class_order else sorted(set(classes.values()))
    rows = {}
    for path, episodes in grouped.items():
        chain = [path.elements[0][1][0]] + [seg[1] for _, seg in path.elements]
        part = set()
        for ep in episodes:
            part |= ep.common_cases
        nonpart = {
            c for c, seq in traces.items() if c not in part and o_has_infix(seq, chain)
        }
        counts = [
            [sum(1 for c in group if classes.get(c) == label) for label in cols]
            for group in (part, nonpart)
        ]
        keep = [j for j in range(len(cols)) if counts[0][j] + counts[1][j] > 0]
        table = [[row[j] for j in keep] for row in counts]
        if len(keep) < 2 or any(sum(row) == 0 for row in table):
            rows[path] = (len(episodes), len(part), len(nonpart), None, None, None)
        else:
            rows[path] = (len(episodes), len(part), len(nonpart),
                          tuple(cols[j] for j in keep), table, o_chi2_p(*o_chi2_stat(table)))
    tested = [path for path, row in rows.items() if row[3] is not None]
    q = dict(zip(tested, o_benjamini_hochberg([rows[p][5] for p in tested])))
    return {
        path: row + ((q[path], q[path] <= alpha) if path in q else (None, False))
        for path, row in rows.items()
    }
