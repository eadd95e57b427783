"""Invariants that must hold for arbitrary inputs, not just fixtures.

The log-backed properties draw a seed and rebuild a random small log; the
numeric ones draw their values directly.
"""

import math
from datetime import timedelta

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import counted, marginals, one_path_study, random_small_log
from hlpaths.correlation import benjamini_hochberg, chi_square, rank_paths
from hlpaths.detection import compute_thresholds, detect_hles
from hlpaths.framing import Framing, build_indices
from hlpaths.linkage import PropagationGraph, enumerate_episodes, jaccard
from hlpaths.patterns import FeatureType, compute_delay_thresholds, nearest_rank

seeds = st.integers(min_value=0, max_value=10**6)
log_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def indexed(seed):
    log, params = random_small_log(seed)
    framing = Framing(width=params["width"], origin=params["origin"])
    return log, params, build_indices(log, framing)


# --- framing ----------------------------------------------------------------

@given(
    offset=st.integers(min_value=0, max_value=10**7),
    width=st.integers(min_value=1, max_value=10**5),
)
def test_window_index_brackets_timestamp(offset, width):
    from conftest import T0
    fr = Framing(width=timedelta(seconds=width), origin=T0)
    t = T0 + timedelta(seconds=offset)
    i = fr.window_index(t)
    assert fr.origin + i * fr.width <= t < fr.origin + (i + 1) * fr.width


# --- percentiles --------------------------------------------------------------

@given(
    values=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60),
    p=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_nearest_rank_picks_an_element(values, p):
    r = nearest_rank(values, p)
    assert r in values
    assert min(values) <= r <= max(values)
    assert nearest_rank(values, 100) == max(values)


@given(
    values=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60),
    p1=st.floats(min_value=0, max_value=100, allow_nan=False),
    p2=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_nearest_rank_monotone_in_p(values, p1, p2):
    lo, hi = sorted((p1, p2))
    assert nearest_rank(values, lo) <= nearest_rank(values, hi)


# --- pattern conservation -----------------------------------------------------

@log_settings
@given(seed=seeds)
def test_enter_exit_batch_conserve_steps(seed):
    log, params, idx = indexed(seed)
    for segment in idx.segments:
        n = len(idx.steps_of(segment))
        for ftype in (FeatureType.ENTER, FeatureType.EXIT):
            total = sum(
                len(counted(idx, ftype, segment, w)) for w in idx.window_range
            )
            assert total == n, (ftype, segment)
        batch_total = sum(
            len(counted(idx, FeatureType.BATCH, segment, pair))
            for pair in idx.occupied_pairs(segment)
        )
        assert batch_total == n, segment


@log_settings
@given(seed=seeds)
def test_workload_and_handover_partition_within_exit(seed):
    log, params, idx = indexed(seed)
    blacklist = params["blacklist"]
    for segment in idx.segments:
        for w in idx.window_range:
            exit_steps = set(counted(idx, FeatureType.EXIT, segment, w))
            load = set(counted(idx, FeatureType.WORKLOAD, segment, w, blacklist=blacklist))
            hand = set(counted(idx, FeatureType.HANDOVER, segment, w, blacklist=blacklist))
            assert load <= exit_steps and hand <= exit_steps
            assert not (load & hand)


@log_settings
@given(seed=seeds)
def test_delay_is_a_filtered_batch(seed):
    log, params, idx = indexed(seed)
    delays = compute_delay_thresholds(idx, params["q"])
    for segment in idx.segments:
        if segment not in delays:
            continue
        for pair in idx.occupied_pairs(segment):
            batch = set(counted(idx, FeatureType.BATCH, segment, pair))
            delay = set(counted(idx, FeatureType.DELAY, segment, pair,
                                delay_thresholds=delays))
            assert delay <= batch
            w_in, w_out = pair
            if w_out - w_in >= delays[segment]:
                assert delay == batch
            else:
                assert not delay


# --- detection monotonicity ----------------------------------------------------

@log_settings
@given(seed=seeds, p_pair=st.tuples(st.integers(0, 99), st.integers(0, 99)))
def test_higher_percentile_detects_no_new_events(seed, p_pair):
    log, params, idx = indexed(seed)
    p_lo, p_hi = sorted(p_pair)
    delays = compute_delay_thresholds(idx, params["q"])
    kw = dict(delay_thresholds=delays, blacklist=params["blacklist"])
    hles_lo = detect_hles(idx, compute_thresholds(idx, p_lo, **kw), **kw)
    hles_hi = detect_hles(idx, compute_thresholds(idx, p_hi, **kw), **kw)
    assert {h.coordinate for h in hles_hi} <= {h.coordinate for h in hles_lo}


@log_settings
@given(seed=seeds, lams=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_higher_lambda_keeps_no_new_structure(seed, lams):
    log, params, idx = indexed(seed)
    delays = compute_delay_thresholds(idx, params["q"])
    kw = dict(delay_thresholds=delays, blacklist=params["blacklist"])
    hles = detect_hles(idx, compute_thresholds(idx, params["p"], **kw), **kw)
    hles = hles[:30]  # ids are sequential from 0, so a prefix stays consistent
    lo, hi = sorted(lams)
    g_lo = PropagationGraph.build(hles, lo)
    g_hi = PropagationGraph.build(hles, hi)
    edges_lo = {(i, j) for i, succ in g_lo.successors.items() for j in succ}
    edges_hi = {(i, j) for i, succ in g_hi.successors.items() for j in succ}
    assert edges_hi <= edges_lo
    for condition in ("jaccard", "min_fraction"):
        eps_lo = enumerate_episodes(
            g_lo, max_len=3, lam=lo, condition=condition, max_episodes=200_000)
        eps_hi = enumerate_episodes(
            g_hi, max_len=3, lam=hi, condition=condition, max_episodes=200_000)
        assert {e.ids for e in eps_hi} <= {e.ids for e in eps_lo}, condition


# --- case-set arithmetic --------------------------------------------------------

sets_of_cases = st.frozensets(st.integers(min_value=0, max_value=30), max_size=12)


@given(a=sets_of_cases, b=sets_of_cases)
def test_jaccard_symmetric_and_bounded(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0
    if a or b:
        nonempty = a if a else b
        assert jaccard(nonempty, nonempty) == 1.0


@given(
    part=st.frozensets(st.integers(0, 40), min_size=1, max_size=15),
    rest=st.frozensets(st.integers(41, 80), min_size=1, max_size=15),
    data=st.data(),
)
def test_participation_table_marginals(part, rest, data):
    classes_pool = ("red", "green", "blue")
    part, rest = (frozenset(f"c{c}" for c in group) for group in (part, rest))
    classes = {
        c: data.draw(st.sampled_from(classes_pool), label=f"class[{c}]")
        for c in sorted(part | rest)
    }
    log, grouped = one_path_study(part, rest)
    (a,) = rank_paths(log, grouped, classes)
    assert (a.n_participating, a.n_non_participating) == (len(part), len(rest))
    if a.table is None:
        # a single class leaves one column: the path is skipped, not tested
        assert len(set(classes.values())) == 1 and a.skipped_reason
        return
    rows, cols = marginals(a.table)
    assert rows == (a.n_participating, a.n_non_participating)
    assert a.table.col_labels == tuple(sorted(set(classes.values())))
    # column sums reproduce the class counts over both groups combined
    for label, total in zip(a.table.col_labels, cols):
        assert total == sum(1 for v in classes.values() if v == label)
    assert sum(cols) == len(part) + len(rest)


# --- chi-square ------------------------------------------------------------------

tables = st.lists(
    st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=4),
    min_size=2, max_size=4,
).map(lambda rows: [row[: min(len(r) for r in rows)] for row in rows])


@given(table=tables, data=st.data())
def test_chi_square_permutation_invariant(table, data):
    assume(all(any(v for v in row) for row in table))
    assume(all(any(row[j] for row in table) for j in range(len(table[0]))))
    base = chi_square(table)
    assert base.statistic >= 0
    assert 0 <= base.p_value <= 1

    rows = data.draw(st.permutations(range(len(table))), label="row order")
    cols = data.draw(st.permutations(range(len(table[0]))), label="col order")
    shuffled = [[table[i][j] for j in cols] for i in rows]
    other = chi_square(shuffled)
    assert math.isclose(other.statistic, base.statistic, rel_tol=1e-12)
    assert math.isclose(other.p_value, base.p_value, rel_tol=1e-9)
    assert other.dof == base.dof


@given(ps=st.lists(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False),
                   min_size=1, max_size=30))
def test_benjamini_hochberg_properties(ps):
    qs = benjamini_hochberg(ps)
    assert len(qs) == len(ps)
    for p, q in zip(ps, qs):
        # p*(n/rank) and back can lose an ulp; tolerate float noise only
        assert p <= q * (1 + 1e-12) and q <= 1.0 + 1e-15
    # order preserved: smaller p never gets a larger q
    for i in range(len(ps)):
        for j in range(len(ps)):
            if ps[i] <= ps[j]:
                assert qs[i] <= qs[j] + 1e-15


# --- end-to-end determinism ------------------------------------------------------

@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=seeds)
def test_pipeline_is_deterministic(seed):
    log, params, idx = indexed(seed)
    delays = compute_delay_thresholds(idx, params["q"])
    kw = dict(delay_thresholds=delays, blacklist=params["blacklist"])

    def run():
        _, _, idx2 = indexed(seed)
        hles = detect_hles(idx2, compute_thresholds(idx2, params["p"], **kw), **kw)
        graph = PropagationGraph.build(hles, params["lam"])
        if len(hles) > 40:
            return [(h.coordinate, h.value, h.cases) for h in hles], None
        eps = enumerate_episodes(
            graph, max_len=params["max_len"], lam=params["lam"],
            condition=params["condition"], max_episodes=200_000)
        return (
            [(h.coordinate, h.value, h.cases) for h in hles],
            [e.ids for e in eps],
        )

    assert run() == run()
