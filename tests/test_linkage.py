"""Propagation predicates, episode enumeration, path projection."""

import gc
import io
import random
from datetime import timedelta

import pytest

from conftest import T0
from hlpaths.detection import HighLevelEvent
from hlpaths.errors import ConfigError
from hlpaths.event_log import Segment
from hlpaths.io import read_episodes, read_hles, write_episodes, write_hles
from hlpaths.linkage import (
    EPISODE_CONDITIONS,
    Episode,
    HighLevelPath,
    PropagationGraph,
    case_overlap,
    enumerate_episodes,
    group_episodes_by_path,
    jaccard,
    location_overlap,
    propagates,
    time_overlap,
)
from hlpaths.patterns import FeatureType

EXIT = FeatureType.EXIT


def mk_hle(hid, frm, to, cases, start=(0, 100), end=(10, 20), ftype=EXIT, theta=1):
    m = lambda lo, hi: (T0 + timedelta(minutes=lo), T0 + timedelta(minutes=hi))
    return HighLevelEvent(
        id=hid, ftype=ftype, segment=Segment(frm, to), theta=theta,
        value=float(len(cases)), cases=frozenset(cases),
        start_spread=m(*start), end_spread=m(*end),
    )


def test_jaccard():
    assert jaccard(frozenset("ab"), frozenset("bc")) == pytest.approx(1 / 3)
    assert jaccard(frozenset(), frozenset()) == 0.0
    assert jaccard(frozenset("a"), frozenset("a")) == 1.0


def test_location_overlap_chains_segments():
    h = mk_hle(0, "a", "b", {"c1"})
    assert location_overlap(h, mk_hle(1, "b", "c", {"c1"}))
    assert not location_overlap(h, mk_hle(1, "a", "b", {"c1"}))
    assert not location_overlap(h, mk_hle(1, "c", "d", {"c1"}))


def test_time_overlap_is_containment_not_intersection():
    h = mk_hle(0, "a", "b", {"c1"}, end=(10, 20))
    # end spread inside the successor's start spread
    assert time_overlap(h, mk_hle(1, "b", "c", {"c1"}, start=(5, 25)))
    # successor's start spread inside the end spread
    assert time_overlap(mk_hle(0, "a", "b", {"c1"}, end=(0, 50)),
                        mk_hle(1, "b", "c", {"c1"}, start=(10, 20)))
    # mere intersection is not enough
    assert not time_overlap(mk_hle(0, "a", "b", {"c1"}, end=(10, 30)),
                            mk_hle(1, "b", "c", {"c1"}, start=(20, 40)))
    # disjoint fails
    assert not time_overlap(h, mk_hle(1, "b", "c", {"c1"}, start=(30, 40)))
    # equal intervals contain each other
    assert time_overlap(h, mk_hle(1, "b", "c", {"c1"}, start=(10, 20)))


def test_case_overlap_boundary_inclusive():
    h = mk_hle(0, "a", "b", {"c1", "c2"})
    g = mk_hle(1, "b", "c", {"c2", "c3"})
    assert case_overlap(h, g, 1 / 3)  # jaccard exactly 1/3
    assert not case_overlap(h, g, 0.34)


def test_propagates_needs_all_three_and_no_self():
    h = mk_hle(0, "a", "b", {"c1", "c2"}, end=(10, 20))
    g = mk_hle(1, "b", "c", {"c1", "c2"}, start=(5, 25))
    assert propagates(h, g, 0.5)
    assert not propagates(g, h, 0.5)  # c->...a does not chain back
    # a self-loop segment satisfies every overlap with itself, except identity
    loop = mk_hle(7, "a", "a", {"c1"}, start=(0, 100), end=(10, 20))
    assert not propagates(loop, loop, 0.5)
    other = mk_hle(8, "a", "a", {"c1"}, start=(5, 25), theta=2)
    assert propagates(loop, other, 0.5)


def edge_list(graph):
    return [(i, j) for i, succ in sorted(graph.successors.items()) for j in succ]


def test_graph_build_and_lambda_guard():
    h0 = mk_hle(0, "a", "b", {"c1", "c2"}, end=(10, 20))
    h1 = mk_hle(1, "b", "c", {"c1", "c2"}, start=(5, 25), end=(30, 40))
    h2 = mk_hle(2, "c", "d", {"c1"}, start=(32, 38))
    graph = PropagationGraph.build([h0, h1, h2], 0.5)
    assert graph.successors == {0: (1,), 1: (2,), 2: ()}
    assert edge_list(graph) == [(0, 1), (1, 2)]
    assert graph.n_edges == 2
    with pytest.raises(ConfigError):
        PropagationGraph.build([h0], 1.5)
    with pytest.raises(ValueError, match="duplicate high-level event ids"):
        PropagationGraph.build([h0, h1, h0], 0.5)
    # a one-shot iterable is read once
    assert PropagationGraph.build(iter([h0, h1, h2]), 0.5).successors == graph.successors


def brute_force_successors(hles, lam):
    return {h.id: tuple(sorted(g.id for g in hles if propagates(h, g, lam))) for h in hles}


@pytest.mark.parametrize("hles, edge", [
    # g starts with h's end spread and ends inside it: shorter than h's
    ([mk_hle(0, "a", "b", {"c1"}, end=(10, 30)),
      mk_hle(1, "b", "c", {"c1"}, start=(10, 20))], (0, 1)),
    # g's long start spread holds h's end spread and starts well before it
    ([mk_hle(0, "a", "b", {"c1"}, end=(40, 50)),
      mk_hle(1, "b", "c", {"c1"}, start=(0, 100))], (0, 1)),
    # a zero-length start spread exactly at the end of h's end spread
    ([mk_hle(0, "a", "b", {"c1"}, end=(10, 30)),
      mk_hle(1, "b", "c", {"c1"}, start=(30, 30))], (0, 1)),
    # equal times on another junction never link
    ([mk_hle(0, "a", "b", {"c1"}, end=(10, 30)),
      mk_hle(1, "x", "c", {"c1"}, start=(10, 30))], None),
], ids=["same-start-shorter", "long-holder", "zero-length-at-end", "other-junction"])
def test_graph_build_window_edges(hles, edge):
    graph = PropagationGraph.build(hles, 0.5)
    assert graph.successors == brute_force_successors(hles, 0.5)
    assert edge_list(graph) == ([edge] if edge else [])


def test_graph_build_matches_brute_force_on_random_events():
    """Mixed spread lengths on three junctions, with the long spreads that
    enter-type events have, against every pair tested by ``propagates``."""
    rng = random.Random(11)
    cases = [f"c{i}" for i in range(6)]
    n_edges = 0

    def spread():
        lo = rng.randint(0, 300)
        return (lo, lo + rng.choice([0, 0, 1, 3, 10, 40, 250]))

    for _ in range(40):
        hles = [
            mk_hle(hid, rng.choice("abc"), rng.choice("abc"),
                   set(rng.sample(cases, rng.randint(1, 4))),
                   start=spread(), end=spread(), theta=hid)
            for hid in range(rng.randint(2, 60))
        ]
        lam = rng.choice([0.0, 0.3, 0.5])
        graph = PropagationGraph.build(hles, lam)
        assert graph.successors == brute_force_successors(hles, lam)
        n_edges += graph.n_edges
    assert n_edges > 0


# three-event chain where the two episode conditions disagree:
#   A cases {1,2}, B cases {1,2,3,4}, C cases {1,3}
#   pairwise jaccard 0.5 each; [A,B,C] has jaccard 1/4 but a common core {1}
@pytest.fixture
def abc_graph():
    a = mk_hle(0, "a", "b", {"1", "2"}, end=(10, 20))
    b = mk_hle(1, "b", "c", {"1", "2", "3", "4"}, start=(5, 25), end=(30, 40))
    c = mk_hle(2, "c", "d", {"1", "3"}, start=(32, 38))
    return PropagationGraph.build([a, b, c], 0.5)


def chains(episodes):
    return {ep.ids for ep in episodes}


def test_enumerate_episodes_jaccard(abc_graph):
    episodes = enumerate_episodes(abc_graph, max_len=4, lam=0.5)
    assert chains(episodes) == {(0,), (1,), (2,), (0, 1), (1, 2)}
    by_ids = {ep.ids: ep for ep in episodes}
    assert by_ids[(0, 1)].common_cases == frozenset({"1", "2"})
    assert by_ids[(0, 1)].union_cases == frozenset({"1", "2", "3", "4"})


def test_enumerate_episodes_min_fraction_keeps_common_core(abc_graph):
    episodes = enumerate_episodes(
        abc_graph, max_len=4, lam=0.5, condition="min_fraction"
    )
    # ceil(0.5 * min(2,4,2)) = 1 <= |{1}|: the full chain survives here
    assert (0, 1, 2) in chains(episodes)
    assert chains(episodes) == {(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)}


def test_max_len_cuts_chains(abc_graph):
    episodes = enumerate_episodes(abc_graph, max_len=1, lam=0.5)
    assert chains(episodes) == {(0,), (1,), (2,)}


def test_two_cycle_stays_simple():
    h0 = mk_hle(0, "a", "b", {"c1"}, start=(0, 100), end=(10, 20))
    h1 = mk_hle(1, "b", "a", {"c1"}, start=(5, 25), end=(50, 60), theta=2)
    # h1 -> h0 needs end(h1) and start(h0) to nest: (50,60) inside (0,100)
    graph = PropagationGraph.build([h0, h1], 0.5)
    assert graph.successors == {0: (1,), 1: (0,)}
    episodes = enumerate_episodes(graph, max_len=4, lam=0.5)
    assert chains(episodes) == {(0,), (1,), (0, 1), (1, 0)}


def test_enumerate_guards(abc_graph):
    with pytest.raises(ConfigError):
        enumerate_episodes(abc_graph, max_len=0, lam=0.5)
    with pytest.raises(ConfigError):
        enumerate_episodes(abc_graph, lam=0.5, condition="overlap")
    with pytest.raises(RuntimeError, match="episodes"):
        enumerate_episodes(abc_graph, lam=0.5, max_episodes=2)


def test_episodes_round_trip_through_io(abc_graph):
    episodes = enumerate_episodes(abc_graph, max_len=4, lam=0.5, condition="min_fraction")
    hle_buf, ep_buf = io.StringIO(), io.StringIO()
    write_hles(abc_graph.hles.values(), hle_buf)
    write_episodes(episodes, ep_buf)
    hle_buf.seek(0)
    ep_buf.seek(0)
    back = read_episodes(ep_buf, read_hles(hle_buf))
    assert [ep.ids for ep in back] == [ep.ids for ep in episodes]
    assert [ep.common_cases for ep in back] == [ep.common_cases for ep in episodes]
    assert [ep.union_cases for ep in back] == [ep.union_cases for ep in episodes]
    assert [ep.path for ep in back] == [ep.path for ep in episodes]


def test_enumeration_leaves_no_reference_cycle(abc_graph):
    # episodes must be freed by reference counting once the caller drops
    # them, not linger until the cycle collector runs
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for condition in EPISODE_CONDITIONS:
            assert enumerate_episodes(abc_graph, max_len=4, lam=0.5, condition=condition)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, Episode)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_path_projection_and_grouping():
    # two disjoint realizations of the same exit(a>b) => exit(b>c) shape
    eps = []
    for base, cases in ((0, {"c1", "c2"}), (10, {"c8", "c9"})):
        h0 = mk_hle(base, "a", "b", cases, end=(10, 20))
        h1 = mk_hle(base + 1, "b", "c", cases, start=(5, 25))
        graph = PropagationGraph.build([h0, h1], 0.5)
        eps.extend(enumerate_episodes(graph, max_len=2, lam=0.5))
    grouped = group_episodes_by_path(eps)
    two_step = HighLevelPath((
        (EXIT, Segment("a", "b")), (EXIT, Segment("b", "c")),
    ))
    assert len(grouped[two_step]) == 2
    assert {len(p) for p in grouped} == {1, 2}


def test_activity_chain_and_label():
    path = HighLevelPath((
        (EXIT, Segment("a", "b")),
        (FeatureType.BATCH, Segment("b", "c")),
    ))
    assert path.activity_chain() == ("a", "b", "c")
    assert path.label() == "exit(a>b) => batch(b>c)"
    assert len(path) == 2
    broken = HighLevelPath(((EXIT, Segment("a", "b")), (EXIT, Segment("c", "d"))))
    with pytest.raises(ValueError, match="chain"):
        broken.activity_chain()
    with pytest.raises(ValueError, match="empty"):
        HighLevelPath(()).activity_chain()


def test_episode_accessors(abc_graph):
    episodes = enumerate_episodes(abc_graph, max_len=4, lam=0.5)
    ep = next(e for e in episodes if e.ids == (0, 1))
    assert len(ep) == 2
    assert ep.path == HighLevelPath((
        (EXIT, Segment("a", "b")), (EXIT, Segment("b", "c")),
    ))
