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
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .event_log import EventLog
from .linkage import Episode, HighLevelPath
from .patterns import nearest_rank

# 95% critical values of the chi-square distribution for the table shapes
# that actually occur (2x2 and 2x3 / 3x2)
CHI2_CRITICAL_95 = {1: 3.8414588206941285, 2: 5.991464547107983}


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

def derive_outcome(
    log: EventLog,
    success_activity: str,
    *,
    positive: str = "success",
    negative: str = "failure",
) -> dict[str, str]:
    """Binary outcome per case: did the marker activity ever occur?"""
    out: dict[str, str] = {}
    for case in log.cases:
        seq = log.activity_sequence(case)
        out[case] = positive if success_activity in seq else negative
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
    def from_edges(
        cls, edges: Sequence[float], labels: Sequence[str] | None = None
    ) -> "AttributeBinning":
        edges = tuple(float(e) for e in edges)
        if labels is None:
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

    @property
    def total(self) -> int:
        return sum(sum(r) for r in self.counts)

    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.counts)

    def col_totals(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))


@dataclass(frozen=True, slots=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    expected: tuple[tuple[float, ...], ...]
    low_expected: bool

    def significant_at(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


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


def critical_value(dof: int, alpha: float = 0.05) -> float:
    """Chi-square critical value; tabulated for the common cases, bisection
    on :func:`chi2_sf` otherwise."""
    if alpha == 0.05 and dof in CHI2_CRITICAL_95:
        return CHI2_CRITICAL_95[dof]
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    lo, hi = 0.0, 10.0
    while chi2_sf(hi, dof) > alpha:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if chi2_sf(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


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


def _class_columns(
    classes: Mapping[str, str], class_order: Sequence[str] | None
) -> tuple[str, ...]:
    return tuple(class_order) if class_order else tuple(sorted(set(classes.values())))


def _class_row(
    cases: Iterable[str], classes: Mapping[str, str], cols: Sequence[str]
) -> tuple[int, ...]:
    """Cases per attribute class, in column order; unclassified cases drop out."""
    tally = dict.fromkeys(cols, 0)
    for case in cases:
        label = classes.get(case)
        if label is not None:
            tally[label] += 1
    return tuple(tally[c] for c in cols)


def participation_table(
    participating: frozenset[str],
    non_participating: frozenset[str],
    classes: Mapping[str, str],
    *,
    class_order: Sequence[str] | None = None,
) -> ContingencyTable:
    cols = _class_columns(classes, class_order)
    return ContingencyTable(
        row_labels=_PARTICIPATION_ROWS,
        col_labels=cols,
        counts=(
            _class_row(participating, classes, cols),
            _class_row(non_participating, classes, cols),
        ),
    )


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
    cols = _class_columns(classes, class_order)
    chains = {path: path.activity_chain() for path in paths}
    # traversers and their class row, once per distinct activity chain
    by_chain = {
        chain: (traversers, _class_row(traversers, classes, cols))
        for chain, traversers in _traversing_cases(_variant_index(log), chains.values()).items()
    }
    tested: list[PathAssociation] = []
    skipped: list[PathAssociation] = []
    for path in paths:
        part = participating_cases(path, grouped)
        traversers, traverser_row = by_chain[chains[path]]
        # participants need not traverse the chain (rework loops), so only
        # the overlap leaves the comparison group
        overlap = part & traversers
        untested = PathAssociation(
            path=path,
            frequency=len(grouped[path]),
            n_participating=len(part),
            n_non_participating=len(traversers) - len(overlap),
            table=None,
            result=None,
            q_value=None,
            significant=False,
        )
        part_row = _class_row(part, classes, cols)
        nonpart_row = [t - o for t, o in zip(traverser_row, _class_row(overlap, classes, cols))]
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
            skipped.append(replace(untested, skipped_reason=str(exc)))
            continue
        tested.append(replace(untested, table=table, result=result))

    q_values = benjamini_hochberg([a.result.p_value for a in tested])
    out = [
        replace(a, q_value=q, significant=q <= alpha) for a, q in zip(tested, q_values)
    ]
    out.sort(key=lambda a: (a.result.p_value, -a.frequency, a.path.label()))
    # paths are in (-frequency, label) order already, so the skipped ones are too
    return out + skipped
