"""Spans and per-layer counts for the traced run, recorded from outside.

A :class:`Tracer` replaces a public function of ``hlpaths`` by a timing
wrapper in the namespace of the module that calls it (for example
``hlpaths.pipeline.build_indices``), so no source file changes. Every call
becomes a span (name, start, end, parent). The counts that drive a layer's
time are derived from the call's arguments and result after the round, so
counting stays out of the measured spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm", encoding="ascii") as fp:
        return int(fp.read().split()[1]) * _PAGE_MB


# --- counts, evaluated after the round from (arguments, result) ---------------

def _count_parse(c: Counter, a: dict, log) -> None:
    c["event_log.events"] += len(log)
    c["event_log.cases"] += len(log.cases)
    c["event_log.variants"] += len({log.activity_sequence(case) for case in log.cases})


def _count_index(c: Counter, a: dict, idx) -> None:
    c["framing.windows"] += len(idx.window_range)
    c["framing.segments"] += len(idx.segments)
    c["framing.occupied_pairs"] += sum(len(idx.occupied_pairs(s)) for s in idx.segments)


def _count_thresholds(c: Counter, a: dict, table) -> None:
    """Values ranked: every window per single-window type, and the occupied
    pairs, or all W(W+1)/2 ordered pairs, per window-pair type."""
    idx = a["idx"]
    w = len(idx.window_range)
    for ftype in set(a["types"]):
        for segment in idx.segments:
            if not ftype.uses_window_pair:
                c["detection.population_values"] += w
            elif a["pair_population"] == "all":
                c["detection.population_values"] += w * (w + 1) // 2
            else:
                c["detection.population_values"] += len(idx.occupied_pairs(segment))


def _count_hles(c: Counter, a: dict, hles) -> None:
    c["detection.hles"] += len(hles)


def _count_graph(c: Counter, a: dict, graph) -> None:
    """Candidate pairs: ordered pairs of distinct events that share the
    junction activity, the pairs the graph build has to test."""
    hles = list(graph.hles.values())
    starts = Counter(h.segment.from_activity for h in hles)
    c["linkage.candidate_pairs"] += sum(
        starts[h.segment.to_activity] - (h.segment.from_activity == h.segment.to_activity)
        for h in hles
    )
    c["linkage.edges"] += graph.n_edges


def _count_episodes(c: Counter, a: dict, episodes) -> None:
    c["linkage.episodes"] += len(episodes)
    c["linkage.paths"] += len({ep.path for ep in episodes})


def _count_ranking(c: Counter, a: dict, associations) -> None:
    grouped, log = a["grouped"], a["log"]
    c["correlation.paths_tested"] += sum(x.result is not None for x in associations)
    c["correlation.case_scans"] += len(grouped) * len(log.cases)
    c["correlation.distinct_chains"] += len({p.activity_chain() for p in grouped})
    c["correlation.significant"] += sum(bool(x.significant) for x in associations)


# (module, attribute, span name, count hook, measure RSS of the first call,
#  materialize a returned iterator inside the span)
HOOKS = (
    ("hlpaths.cli", "parse_csv", "event_log.parse", _count_parse, True, False),
    ("hlpaths.cli", "parse_xes", "event_log.parse", _count_parse, True, False),
    ("hlpaths.pipeline", "build_indices", "framing.build_indices", _count_index, True, False),
    ("hlpaths.pipeline", "compute_delay_thresholds", "patterns.delay_thresholds", None, False, False),
    ("hlpaths.pipeline", "compute_thresholds", "detection.compute_thresholds", _count_thresholds, False, False),
    ("hlpaths.pipeline", "detect_hles", "detection.detect_hles", _count_hles, False, False),
    ("hlpaths.cli", "write_hles", "detection.io", None, False, False),
    ("hlpaths.cli", "read_hles", "detection.io", None, False, True),
    ("hlpaths.linkage", "PropagationGraph.build", "linkage.graph_build", _count_graph, False, False),
    ("hlpaths.pipeline", "enumerate_episodes", "linkage.enumerate_episodes", _count_episodes, False, False),
    ("hlpaths.pipeline", "derive_classes", "correlation.derive_classes", None, False, False),
    ("hlpaths.pipeline", "rank_paths", "correlation.rank_paths", _count_ranking, False, False),
    ("hlpaths.correlation", "non_participating_cases", "correlation.non_participating", None, False, False),
)

# span names reported as per-layer times, in report order
TIMED = (
    "event_log.parse", "framing.build_indices", "patterns.delay_thresholds",
    "detection.compute_thresholds", "detection.detect_hles", "detection.io",
    "linkage.graph_build", "linkage.enumerate_episodes",
    "correlation.derive_classes", "correlation.rank_paths", "correlation.non_participating",
    "cli.report", "cli.detect", "cli.link", "cli.correlate",
)
COUNTED = (
    "event_log.events", "event_log.cases", "event_log.variants",
    "framing.windows", "framing.segments", "framing.occupied_pairs",
    "detection.population_values", "detection.hles",
    "linkage.candidate_pairs", "linkage.edges", "linkage.episodes", "linkage.paths",
    "correlation.paths_tested", "correlation.case_scans", "correlation.distinct_chains",
    "correlation.significant",
)
RSS = {"event_log.parse": "event_log.parse_rss_mb", "framing.build_indices": "framing.index_rss_mb"}


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, parent, t.round])
        t.stack.append(self.index)
        t.spans[self.index][1] = time.monotonic()

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.monotonic()
        t.stack.pop()


class Tracer:
    """Spans and counts of the traced rounds of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.stack: list[int] = []
        self.round = 0
        self.rss: dict[str, float] = {}
        self.counts: list[Counter] = []
        self._pending: list[tuple] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _wrap(self, fn, name: str, hook, measure_rss: bool, eager: bool):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = rss_mb() if measure_rss and name not in self.rss else None
            with self.span(name):
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            if before is not None:
                self.rss[name] = rss_mb() - before
            if hook is not None:
                self._pending.append((hook, signature, args, kwargs, result))
            return iter(result) if eager else result

        return traced

    def install(self) -> None:
        """Put a wrapper in place of every hooked name that exists."""
        for module_name, attribute, name, hook, measure_rss, eager in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, hook, measure_rss, eager))
            else:
                new = self._wrap(raw, name, hook, measure_rss, eager)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()

    def end_round(self) -> None:
        """Derive the round's counts from the recorded calls."""
        counts: Counter = Counter()
        for hook, signature, args, kwargs, result in self._pending:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                hook(counts, bound.arguments, result)
            except (AttributeError, KeyError, TypeError) as exc:
                # the program's objects changed shape; keep the times
                print(f"trace: {hook.__name__} could not count: {exc!r}", file=sys.stderr)
        self._pending.clear()
        self.counts.append(counts)
        self.round += 1

    def metrics(self, scale: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times are seconds inside the calls, summed over
        a round, scaled by the round's ``scale`` (reference over wall
        seconds) and taken as the median over the traced rounds; counts are
        those of the last traced round."""
        per_round = [Counter() for _ in range(self.round)]
        for name, start, end, _, rnd in self.spans:
            per_round[rnd][name] += (end - start) * scale[rnd]
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}_s"] = (statistics.median(r[name] for r in per_round), "s")
        for span, metric in RSS.items():
            out[metric] = (self.rss.get(span, 0.0), "MB")
        last = self.counts[-1]
        for name in COUNTED:
            out[name] = (last[name], "count")
        pairs = last["linkage.candidate_pairs"]
        out["linkage.edge_yield"] = (last["linkage.edges"] / pairs if pairs else 0.0, "ratio")
        out["trace.spans"] = (len(self.spans) / self.round, "count")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("name\tstart_s\tend_s\tparent\tround\n")
            for name, start, end, parent, rnd in self.spans:
                fp.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{rnd}\n")

    def report_missing(self) -> None:
        for name in sorted(set(self.missing)):
            print(f"trace: {name} not found; its span is not recorded", file=sys.stderr)
