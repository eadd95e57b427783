"""Participation splitting, attribute classes, the chi-square machinery."""

import math
from datetime import timedelta

import pytest
from scipy.special import gammaincc

from conftest import T0, mk_log, random_small_log
from hlpaths.correlation import (
    AttributeBinning,
    ContingencyTable,
    benjamini_hochberg,
    bin_cases,
    chi2_sf,
    chi_square,
    critical_value,
    derive_outcome,
    derive_throughput,
    non_participating_cases,
    participating_cases,
    participation_table,
    rank_paths,
)
from hlpaths.detection import HighLevelEvent, compute_thresholds, detect_hles
from hlpaths.errors import ConfigError
from hlpaths.event_log import Segment
from hlpaths.framing import Framing, build_indices
from hlpaths.linkage import (
    Episode,
    HighLevelPath,
    PropagationGraph,
    enumerate_episodes,
    group_episodes_by_path,
)
from hlpaths.patterns import FeatureType, compute_delay_thresholds
from oracles import o_chi2_p, o_has_infix, o_rank_paths, o_traces

EXIT = FeatureType.EXIT


def mk_hle(hid, frm, to, cases):
    m = (T0, T0 + timedelta(minutes=60))
    return HighLevelEvent(
        id=hid, ftype=EXIT, segment=Segment(frm, to), theta=1,
        value=float(len(cases)), cases=frozenset(cases),
        start_spread=m, end_spread=m,
    )


@pytest.fixture
def scenario():
    """Six cases walk a->b->c; c7 takes a detour and is comparable to
    nobody. One two-segment path with cases c1, c2 caught in it."""
    rows = []
    for i in range(1, 7):
        rows += [(f"c{i}", "a", "r1", i * 100), (f"c{i}", "b", "r1", i * 100 + 10),
                 (f"c{i}", "c", "r1", i * 100 + 20)]
    rows += [("c7", "a", "r1", 0), ("c7", "x", "r1", 10), ("c7", "c", "r1", 20)]
    log = mk_log(rows)
    h0, h1 = mk_hle(0, "a", "b", {"c1", "c2"}), mk_hle(1, "b", "c", {"c1", "c2"})
    episode = Episode(
        hles=(h0, h1),
        common_cases=frozenset({"c1", "c2"}),
        union_cases=frozenset({"c1", "c2"}),
    )
    path = episode.path
    return log, path, {path: [episode]}


def test_participation_split(scenario):
    log, path, grouped = scenario
    part = participating_cases(path, grouped)
    assert part == frozenset({"c1", "c2"})
    nonpart = non_participating_cases(log, path, part)
    # c7 never walks a->b->c and counts for neither side
    assert nonpart == frozenset({"c3", "c4", "c5", "c6"})


def test_participating_unknown_path_is_empty(scenario):
    _, _, grouped = scenario
    other = HighLevelPath(((EXIT, Segment("x", "y")),))
    assert participating_cases(other, grouped) == frozenset()


def test_derive_outcome(scenario):
    log, _, _ = scenario
    out = derive_outcome(log, "c")
    assert out["c1"] == "success" and out["c7"] == "success"
    out = derive_outcome(log, "x", positive="detour", negative="direct")
    assert out["c7"] == "detour" and out["c1"] == "direct"


def test_derive_throughput(scenario):
    log, _, _ = scenario
    seconds = derive_throughput(log)
    assert seconds["c1"] == 20 * 60
    assert seconds["c7"] == 20 * 60


def test_binning_classify_half_open():
    b = AttributeBinning.from_edges([10, 20], ["low", "mid", "high"])
    assert b.classify(9.999) == "low"
    assert b.classify(10) == "mid"  # left edge belongs to the upper bin
    assert b.classify(19.999) == "mid"
    assert b.classify(20) == "high"
    assert b.labels == ("low", "mid", "high")


def test_binning_auto_labels_and_guards():
    b = AttributeBinning.from_edges([10.0, 20.0])
    assert b.labels == ("<10", "[10,20)", ">=20")
    with pytest.raises(ConfigError, match="increase"):
        AttributeBinning.from_edges([10, 10])
    with pytest.raises(ConfigError, match="label"):
        AttributeBinning(edges=(1.0,), labels=("only",))


def test_binning_by_quantiles():
    values = list(range(100))
    b = AttributeBinning.by_quantiles(values, 4)
    assert b.edges == (25.0, 50.0, 75.0)
    classes = bin_cases({f"c{v}": v for v in values}, b)
    from collections import Counter
    assert sorted(Counter(classes.values()).values()) == [25, 25, 25, 25]


def test_binning_by_quantiles_collapses_ties():
    b = AttributeBinning.by_quantiles([1, 1, 1, 1, 9], 3)
    assert b.edges == (1.0, 9.0) or b.edges == (1.0,) or b.edges == (9.0,)
    with pytest.raises(ConfigError, match="identical"):
        AttributeBinning.by_quantiles([5, 5, 5], 2)
    with pytest.raises(ConfigError):
        AttributeBinning.by_quantiles([1, 2], 1)


def test_chi_square_known_values():
    flat = chi_square([[10, 10], [10, 10]])
    assert flat.statistic == 0.0
    assert flat.p_value == pytest.approx(1.0)
    assert flat.dof == 1

    r = chi_square([[20, 5], [10, 15]])
    assert r.statistic == pytest.approx(25 / 3, abs=1e-12)
    assert r.p_value == pytest.approx(math.erfc(math.sqrt(r.statistic / 2)), rel=1e-12)
    assert r.expected[0] == (15.0, 10.0)
    assert not r.low_expected

    r3 = chi_square([[8, 2], [5, 5], [2, 8]])
    assert r3.dof == 2
    assert r3.p_value == pytest.approx(math.exp(-r3.statistic / 2), rel=1e-12)


def test_chi_square_low_expected_flag_only_warns():
    r = chi_square([[1, 4], [4, 1]])
    assert r.low_expected
    assert r.p_value > 0  # still computed


def test_chi_square_rejects_degenerate_tables():
    with pytest.raises(ValueError, match="zero marginal"):
        chi_square([[0, 0], [3, 4]])
    with pytest.raises(ValueError, match="zero marginal"):
        chi_square([[3, 0], [4, 0]])
    with pytest.raises(ValueError, match="2x2"):
        chi_square([[1, 2]])
    with pytest.raises(ValueError, match="ragged"):
        chi_square([[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="negative"):
        chi_square([[1, -2], [3, 4]])


def test_contingency_table_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        ContingencyTable(("r1",), ("c1", "c2"), ((1, 2), (3, 4)))
    t = ContingencyTable(("r1", "r2"), ("c1", "c2"), ((1, 2), (3, 4)))
    assert t.total == 10
    assert t.row_totals() == (3, 7)
    assert t.col_totals() == (4, 6)


# statistics from 0 to 3000: dense where p is moderate, past 1490 where
# exp(-x/2) underflows and only the log-space terms stay representable
TAIL_STATS = (
    [0.0, 1e-300, 1e-12, 1e-6, 0.01]
    + [x / 10 for x in range(1, 400)]
    + [float(x) for x in range(40, 3001, 7)]
    + [1490.5, 1491.0, 1500.0]
)


def test_chi2_sf_matches_gammaincc():
    for dof in range(1, 11):
        for x in TAIL_STATS:
            want = gammaincc(dof / 2, x / 2)
            got = chi2_sf(x, dof)
            if want >= 1e-300:
                assert got == pytest.approx(want, rel=1e-12, abs=0), (dof, x)
            else:
                assert abs(got - want) <= 1e-300, (dof, x)
    # the log-space terms keep the tail alive where exp(-x/2) is zero
    assert math.exp(-1500.0 / 2) == 0.0 and chi2_sf(1500.0, 10) > 0


def test_chi2_sf_closed_forms():
    for x in TAIL_STATS:
        assert chi2_sf(x, 1) == o_chi2_p(x, 1)
        assert chi2_sf(x, 2) == o_chi2_p(x, 2)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 1.5)


def test_critical_value_round_trips_through_chi2_sf():
    for dof in range(1, 11):
        for alpha in (0.1, 0.05, 0.01, 1e-6):
            assert chi2_sf(critical_value(dof, alpha), dof) == pytest.approx(alpha, rel=1e-9)


def test_critical_values():
    assert critical_value(1) == pytest.approx(3.841458820694124, abs=1e-9)
    assert critical_value(2) == pytest.approx(5.991464547107979, abs=1e-9)
    # non-tabulated combinations fall back to bisection on Q(a, x)
    for dof, alpha in ((3, 0.05), (1, 0.01), (2, 0.10)):
        crit = critical_value(dof, alpha)
        assert gammaincc(dof / 2, crit / 2) == pytest.approx(alpha, rel=1e-9)
    with pytest.raises(ConfigError):
        critical_value(1, 0.0)


def test_benjamini_hochberg_frozen_example():
    assert benjamini_hochberg([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.03, 0.04])
    # order of the input is preserved
    assert benjamini_hochberg([0.04, 0.01, 0.02]) == pytest.approx([0.04, 0.03, 0.03])
    assert benjamini_hochberg([]) == []
    assert benjamini_hochberg([0.5]) == [0.5]
    assert max(benjamini_hochberg([0.9, 0.95, 0.99])) <= 1.0


def test_participation_table_layout():
    classes = {"c1": "success", "c2": "failure", "c3": "failure", "c4": "success"}
    table = participation_table(
        frozenset({"c1", "c2"}), frozenset({"c3", "c4"}), classes
    )
    assert table.row_labels == ("participating", "non-participating")
    assert table.col_labels == ("failure", "success")
    assert table.counts == ((1, 1), (1, 1))
    ordered = participation_table(
        frozenset({"c1", "c2"}), frozenset({"c3", "c4"}), classes,
        class_order=("success", "failure"),
    )
    assert ordered.counts == ((1, 1), (1, 1))
    assert ordered.col_labels == ("success", "failure")


def test_rank_paths_end_to_end(scenario):
    log, path, grouped = scenario
    # a second, untestable path: everyone who matches participates
    h = mk_hle(9, "a", "b", {f"c{i}" for i in range(1, 7)})
    solo = Episode(hles=(h,), common_cases=h.cases, union_cases=h.cases)
    grouped = dict(grouped)
    grouped[solo.path] = [solo]

    classes = {f"c{i}": ("success" if i <= 2 else "failure") for i in range(1, 8)}
    ranked = rank_paths(log, grouped, classes, alpha=0.05)
    assert [a.path for a in ranked] == [path, solo.path]

    tested = ranked[0]
    assert tested.table.counts == ((0, 2), (4, 0))
    assert tested.result.statistic == pytest.approx(6.0)
    assert tested.result.low_expected
    assert tested.q_value == tested.result.p_value  # single test: no correction
    assert tested.significant

    skipped = ranked[1]
    assert skipped.result is None and not skipped.significant
    assert "zero marginal" in skipped.skipped_reason
    assert skipped.n_non_participating == 0


def test_rank_paths_drops_absent_classes(scenario):
    log, path, grouped = scenario
    # a third outcome class that no relevant case carries must not
    # produce a zero column
    classes = {f"c{i}": ("success" if i <= 2 else "failure") for i in range(1, 7)}
    classes["c7"] = "withdrawn"
    ranked = rank_paths(log, grouped, classes, alpha=0.05)
    assert ranked[0].table.col_labels == ("failure", "success")
    with pytest.raises(ConfigError):
        rank_paths(log, grouped, classes, alpha=1.5)


def _random_grouped(seed):
    """A random small log (repeated activities make rework loops) and its
    episodes grouped by path, from the real detect and link stages."""
    log, params = random_small_log(seed)
    idx = build_indices(log, Framing(width=params["width"], origin=params["origin"]))
    delta = compute_delay_thresholds(idx, params["q"])
    table = compute_thresholds(idx, params["p"], delay_thresholds=delta,
                               blacklist=params["blacklist"],
                               pair_population=params["pair_population"])
    hles = detect_hles(idx, table, delay_thresholds=delta, blacklist=params["blacklist"])
    episodes = enumerate_episodes(
        PropagationGraph.build(hles, params["lam"]), max_len=params["max_len"],
        lam=params["lam"], condition=params["condition"])
    return log, group_episodes_by_path(episodes)


def assert_rank_paths_match_oracle(log, grouped, classes, order, tag):
    """rank_paths equals the per-path rescan of every case; returns the
    number of tested and of skipped paths."""
    want = o_rank_paths(log, grouped, classes, order)
    got = rank_paths(log, grouped, classes, class_order=order)
    assert {a.path for a in got} == set(want), tag
    for a in got:
        freq, n_p, n_n, cols, counts, p, q, sig = want[a.path]
        assert (a.frequency, a.n_participating, a.n_non_participating) \
            == (freq, n_p, n_n), (tag, a.path)
        assert a.significant == sig, (tag, a.path)
        if cols is None:
            assert a.result is None and a.skipped_reason, (tag, a.path)
            continue
        assert a.table.col_labels == cols, (tag, a.path)
        assert [list(r) for r in a.table.counts] == counts, (tag, a.path)
        assert a.result.p_value == pytest.approx(p, rel=1e-9, abs=1e-12)
        assert a.q_value == pytest.approx(q, rel=1e-9, abs=1e-12)
    n_tested = sum(a.result is not None for a in got)
    ranked = [(a.result.p_value, -a.frequency, a.path.label()) for a in got[:n_tested]]
    assert ranked == sorted(ranked) and all(a.result is None for a in got[n_tested:])
    return n_tested, len(got) - n_tested


def test_rank_paths_matches_oracle():
    """rank_paths equals a per-path rescan of every case, over outcome and
    binned-throughput attributes, with and without a class order that
    names a class nobody carries."""
    seen = {"tested": 0, "skipped": 0, "rework": 0}
    for seed in range(20):
        log, grouped = _random_grouped(seed)
        traces = o_traces(log)
        for path, episodes in grouped.items():
            chain = list(path.activity_chain())
            part = set().union(*(ep.common_cases for ep in episodes))
            seen["rework"] += any(not o_has_infix(traces[c], chain) for c in part)
        outcome = derive_outcome(log, "A")
        throughput = derive_throughput(log)
        binning = AttributeBinning.by_quantiles(throughput.values(), 3)
        binned = bin_cases(throughput, binning)
        del binned[log.cases[seed % len(log.cases)]]  # an unclassified case
        for classes, order in (
            (outcome, None),
            (outcome, ("failure", "withdrawn", "success")),
            (binned, binning.labels + ("unbinned",)),
        ):
            tested, skipped = assert_rank_paths_match_oracle(log, grouped, classes, order, seed)
            seen["tested"] += tested
            seen["skipped"] += skipped
    # the random logs must reach every branch the comparison depends on
    assert all(seen.values()), seen


def test_chain_traversers_match_brute_force():
    """Every wanted chain's traversers come from one pass over the variants:
    chains of several lengths in one call, a chain repeated inside one
    variant (rework), chains longer than some variants and chains equal to
    a whole variant."""
    variants = {
        "c1": "abab", "c2": "abab", "c3": "ab", "c4": "abc", "c5": "babcd",
        "c6": "a", "c7": "abcd", "c8": "xab", "c9": "cdab", "c10": "bab",
        "c11": "acbc",  # holds a, b and c, but no chain contiguously
    }
    log = mk_log([
        (case, activity, "r1", 10 * k)
        for case, trace in variants.items() for k, activity in enumerate(trace)
    ])
    shapes = {  # path segments -> episodes' common cases
        ("ab",): ({"c1", "c6"}, {"c8"}),
        ("ab", "bc"): ({"c4"},),
        ("ab", "ba", "ab"): ({"c2"},),
        ("ba", "ab"): ({"c10", "c3"},),
        ("ab", "bc", "cd"): ({"c7"},),
        ("cd",): ({"c9"},),
    }
    grouped = {}
    for segments, commons in shapes.items():
        episodes = []
        for hid, common in enumerate(commons):
            hles = tuple(mk_hle(hid, s[0], s[1], common) for s in segments)
            episodes.append(Episode(hles=hles, common_cases=frozenset(common),
                                    union_cases=frozenset(common)))
        grouped[episodes[0].path] = episodes
    traces = o_traces(log)
    for path, episodes in grouped.items():
        chain = list(path.activity_chain())
        part = participating_cases(path, grouped)
        assert non_participating_cases(log, path, part) == {
            c for c, seq in traces.items() if c not in part and o_has_infix(seq, chain)
        }, path.label()
    outcome = {case: ("success" if int(case[1:]) % 2 else "failure") for case in variants}
    tested, skipped = assert_rank_paths_match_oracle(log, grouped, outcome, None, "hand-made")
    assert tested and skipped
