"""Association between path participation and case-level attributes.

Cases split into those participating in a high-level path (the union of
the common cases of its episodes) and comparable non-participants: cases
that walk the same activity stretch — the path's folded activity chain as
a contiguous infix of their trace — without taking part in any of its
episodes. Participation against an attribute class (outcome, a throughput
time bin, ...) gives a contingency table; Pearson's chi-square test of
independence, without continuity correction, quantifies the association.
Multiple paths are tested at once, so p-values are adjusted with the
Benjamini-Hochberg procedure before calling anything significant. The
p-value is the chi-square tail in closed form (:func:`chi2_sf`), from the
standard library alone.

Many paths share one activity chain, so :func:`rank_paths` indexes the
log's cases by activity variant once and finds the traversers of every
chain in one pass over the variants; a path then costs only its own
participants.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .event_log import EventLog
from .linkage import Episode, HighLevelPath
from .patterns import nearest_rank

def participating_cases(
    path: HighLevelPath, grouped: Mapping[HighLevelPath, list[Episode]]
) -> frozenset[str]:
    cases: set[str] = set()
    for ep in grouped.get(path, ()):
        cases |= ep.common_cases
    return frozenset(cases)


def _variant_index(log: EventLog) -> dict[tuple[str, ...], list[str]]:
    """Cases grouped by their activity sequence (variant), in one pass."""
    variants: dict[tuple[str, ...], list[str]] = {}
    for case in log.cases:
        variants.setdefault(log.activity_sequence(case), []).append(case)
    return variants


def _traversing_cases(
    variants: Mapping[tuple[str, ...], Sequence[str]], chains: Iterable[tuple[str, ...]]
) -> dict[tuple[str, ...], frozenset[str]]:
    """Per wanted chain, the cases whose variant holds it as a contiguous
    infix, in one pass over the variants: only hits are kept, not every
    infix of the log."""
    wanted = set(chains)
    lengths = {len(chain) for chain in wanted}
    hits: dict[tuple[str, ...], list[str]] = {chain: [] for chain in wanted}
    for sequence, cases in variants.items():
        for n in lengths:
            # a set, so a chain repeated inside one variant counts its cases once
            infixes = {sequence[i : i + n] for i in range(len(sequence) - n + 1)}
            for chain in infixes & wanted:
                hits[chain].extend(cases)
    return {chain: frozenset(cases) for chain, cases in hits.items()}


def non_participating_cases(
    log: EventLog, path: HighLevelPath, participating: frozenset[str]
) -> frozenset[str]:
    """Cases that traverse the path's activity stretch without taking part.

    Restricting the comparison group to traversers keeps the two groups
    comparable — a case that never reaches those activities says nothing
    about what happens there.
    """
    chain = path.activity_chain()
    return _traversing_cases(_variant_index(log), [chain])[chain] - participating


# --- case attributes -------------------------------------------------------

def derive_outcome(log: EventLog, success_activity: str) -> dict[str, str]:
    """Binary outcome per case, "success" or "failure": did the marker
    activity ever occur?"""
    out: dict[str, str] = {}
    for case in log.cases:
        seq = log.activity_sequence(case)
        out[case] = "success" if success_activity in seq else "failure"
    return out


def derive_throughput(log: EventLog) -> dict[str, float]:
    """Throughput time per case in seconds, first event to last."""
    out: dict[str, float] = {}
    for case in log.cases:
        trace = log.trace(case)
        out[case] = (trace[-1].time - trace[0].time).total_seconds()
    return out


@dataclass(frozen=True, slots=True)
class AttributeBinning:
    """Half-open numeric bins: (-inf, e1), [e1, e2), ..., [ek, inf)."""

    edges: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.edges) + 1:
            raise ConfigError("need exactly one more label than edges")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ConfigError(f"bin edges must strictly increase, got {self.edges}")

    @classmethod
    def from_edges(cls, edges: Sequence[float]) -> "AttributeBinning":
        """Bins at ``edges``, labelled "<e1", "[e1,e2)", ..., ">=ek"."""
        edges = tuple(float(e) for e in edges)
        labels = (
            [f"<{edges[0]:g}"]
            + [f"[{a:g},{b:g})" for a, b in zip(edges, edges[1:])]
            + [f">={edges[-1]:g}"]
        )
        return cls(edges=edges, labels=tuple(labels))

    @classmethod
    def by_quantiles(cls, values: Iterable[float], k: int) -> "AttributeBinning":
        """k roughly equal-mass bins with edges at the i/k nearest-rank
        percentiles. Duplicate edges (heavy ties) collapse into fewer bins."""
        if k < 2:
            raise ConfigError(f"need at least 2 bins, got {k}")
        pool = list(values)
        if pool and min(pool) == max(pool):
            raise ConfigError("all values identical; cannot bin by quantiles")
        raw = [nearest_rank(pool, 100 * i / k) for i in range(1, k)]
        edges: list[float] = []
        for e in raw:
            if not edges or e > edges[-1]:
                edges.append(float(e))
        return cls.from_edges(edges)

    def classify(self, value: float) -> str:
        return self.labels[bisect.bisect_right(self.edges, value)]


def bin_cases(values: Mapping[str, float], binning: AttributeBinning) -> dict[str, str]:
    return {case: binning.classify(v) for case, v in values.items()}


# --- the test itself -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ContingencyTable:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.row_labels) or any(
            len(r) != len(self.col_labels) for r in self.counts
        ):
            raise ValueError("table shape does not match its labels")


@dataclass(frozen=True, slots=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    expected: tuple[tuple[float, ...], ...]
    low_expected: bool


def chi_square(table: ContingencyTable | Sequence[Sequence[int]]) -> ChiSquareResult:
    """Pearson's chi-square test of independence, no continuity correction.

    Expected counts come from the marginals; a zero row or column marginal
    leaves the test undefined and raises ValueError. Expected counts below
    5 only set ``low_expected`` — the caller decides what to make of it.
    """
    counts = table.counts if isinstance(table, ContingencyTable) else tuple(
        tuple(r) for r in table
    )
    if len(counts) < 2 or any(len(r) < 2 for r in counts):
        raise ValueError("need at least a 2x2 table")
    if len({len(r) for r in counts}) != 1:
        raise ValueError("ragged table")
    if any(v < 0 for row in counts for v in row):
        raise ValueError("negative count")
    row_totals = [sum(r) for r in counts]
    col_totals = [sum(c) for c in zip(*counts)]
    total = sum(row_totals)
    if any(t == 0 for t in row_totals) or any(t == 0 for t in col_totals):
        raise ValueError("zero marginal: drop the empty row or column first")
    expected = tuple(
        tuple(rt * ct / total for ct in col_totals) for rt in row_totals
    )
    stat = sum(
        (o - e) ** 2 / e for orow, erow in zip(counts, expected) for o, e in zip(orow, erow)
    )
    dof = (len(counts) - 1) * (len(counts[0]) - 1)
    p = chi2_sf(stat, dof)
    low = any(e < 5 for row in expected for e in row)
    return ChiSquareResult(
        statistic=float(stat), dof=dof, p_value=p, expected=expected, low_expected=low
    )


def chi2_sf(stat: float, dof: int) -> float:
    """P(X >= stat) for X chi-square with ``dof`` degrees of freedom.

    For integer dof the upper regularised gamma Q(dof/2, stat/2) is a
    finite sum: with y = stat/2, even dof give the Poisson tail
    e^-y (1 + y + ... + y^(dof/2-1)/(dof/2-1)!), odd dof add the terms
    e^-y y^a / Gamma(a+1), a = 1/2, 3/2, ..., to erfc(sqrt(y)). dof 1 is
    erfc(sqrt(y)) and dof 2 is e^-y. Each term is formed in log space, so
    it stays representable where e^-y alone underflows.
    """
    if dof < 1 or dof % 1:
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    if stat <= 0:
        return 1.0
    y = stat / 2
    log_y = math.log(y)
    p = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    a = (dof % 2) / 2
    while a < dof / 2:
        p += math.exp(-y + a * log_y - math.lgamma(a + 1))
        a += 1
    return p


def benjamini_hochberg(p_values: Sequence[float]) -> list[float]:
    """BH step-up adjusted p-values (q-values), order preserved."""
    n = len(p_values)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: p_values[i])
    q = [0.0] * n
    running = math.inf
    for rank in range(n, 0, -1):
        i = order[rank - 1]
        running = min(running, p_values[i] * n / rank)
        q[i] = min(1.0, running)
    return q


# --- ranking paths against an attribute ------------------------------------

@dataclass(frozen=True, slots=True)
class PathAssociation:
    path: HighLevelPath
    frequency: int
    n_participating: int
    n_non_participating: int
    table: ContingencyTable | None
    result: ChiSquareResult | None
    q_value: float | None
    significant: bool
    skipped_reason: str | None = None


_PARTICIPATION_ROWS = ("participating", "non-participating")


def _class_members(
    classes: Mapping[str, str], class_order: Sequence[str] | None
) -> dict[str, frozenset[str]]:
    """The cases of each attribute class, in column order: the given order,
    or the sorted class labels. A case of a class outside that order, or
    without a class, is in no column."""
    cols = tuple(class_order) if class_order else tuple(sorted(set(classes.values())))
    members: dict[str, list[str]] = {c: [] for c in cols}
    for case, label in classes.items():
        if label in members:
            members[label].append(case)
    return {c: frozenset(cases) for c, cases in members.items()}


def _class_row(cases: frozenset[str], members: Mapping[str, frozenset[str]]) -> tuple[int, ...]:
    """Cases per attribute class, in column order."""
    return tuple(len(cases & m) for m in members.values())


def rank_paths(
    log: EventLog,
    grouped: Mapping[HighLevelPath, list[Episode]],
    classes: Mapping[str, str],
    *,
    alpha: float = 0.05,
    class_order: Sequence[str] | None = None,
) -> list[PathAssociation]:
    """Test every path and rank by adjusted significance.

    Paths whose table has a zero marginal (nobody on one side, or an
    attribute class absent from both groups) cannot be tested; they are
    kept in the output, marked skipped, and excluded from the BH
    adjustment.
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    paths = sorted(grouped, key=lambda p: (-len(grouped[p]), p.label()))
    members = _class_members(classes, class_order)
    cols = tuple(members)
    chains = {path: path.activity_chain() for path in paths}
    # traversers and their class row, once per distinct activity chain
    by_chain = {
        chain: (traversers, _class_row(traversers, members))
        for chain, traversers in _traversing_cases(_variant_index(log), chains.values()).items()
    }
    # (path, frequency, participants, non-participants, table, result)
    tested: list[tuple] = []
    skipped: list[PathAssociation] = []
    for path in paths:
        part = participating_cases(path, grouped)
        traversers, traverser_row = by_chain[chains[path]]
        # participants need not traverse the chain (rework loops), so only
        # the overlap leaves the comparison group
        overlap = part & traversers
        counts = (len(grouped[path]), len(part), len(traversers) - len(overlap))
        part_row = _class_row(part, members)
        nonpart_row = [t - o for t, o in zip(traverser_row, _class_row(overlap, members))]
        # drop attribute classes absent from both groups before testing
        keep = [j for j in range(len(cols)) if part_row[j] + nonpart_row[j] > 0]
        table = ContingencyTable(
            row_labels=_PARTICIPATION_ROWS,
            col_labels=tuple(cols[j] for j in keep),
            counts=(tuple(part_row[j] for j in keep), tuple(nonpart_row[j] for j in keep)),
        )
        try:
            result = chi_square(table)
        except ValueError as exc:
            skipped.append(PathAssociation(
                path, *counts, table=None, result=None, q_value=None, significant=False,
                skipped_reason=str(exc),
            ))
            continue
        tested.append((path, *counts, table, result))

    q_values = benjamini_hochberg([row[-1].p_value for row in tested])
    out = [
        PathAssociation(*row, q_value=q, significant=q <= alpha)
        for row, q in zip(tested, q_values)
    ]
    out.sort(key=lambda a: (a.result.p_value, -a.frequency, a.path.label()))
    # paths are in (-frequency, label) order already, so the skipped ones are too
    return out + skipped
