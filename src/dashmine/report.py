"""The corpus summary document and graph-structure linting.

:func:`summarize_corpus` returns the ``summary.json`` document itself (all
but its ``_fingerprint``): a plain dict whose keys, nesting and order are
those the ``report`` stage writes and its CSV tables iterate.  Block
types and edge classes keep their enum order; chart types, interaction
types and clique patterns are sorted.  The block-count distribution
covers every dashboard; interaction-edge counts, saturation and
edge-class presence shares are computed over *interactive* dashboards
only (those with at least one interaction edge), matching how such
corpora are usually summarized.  Mode ties resolve to the smallest value.

Each lint rule's name and severity live in :data:`LINT_RULES`; a
:class:`LintFinding` reads both from there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Any, Iterable, Sequence

from .errors import EmptyCorpus
from .analysis import count_clique_patterns, maximal_cliques
from .geometry import max_possible_interactions
from .model import BlockType, DashboardGraphs, EdgeClass


def _mode(values: Iterable) -> Any:
    """Most frequent of a non-empty sequence of values; ties resolve to the smallest."""
    counts = Counter(values)
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


def _distribution(values: Sequence) -> dict[str, float]:
    return {
        "min": float(min(values)),
        "max": float(max(values)),
        "median": float(median(values)),
        "mode": float(_mode(values)),
    }


def interaction_adjacency_overlap(graphs: DashboardGraphs) -> tuple[int, dict[str, int]]:
    """Count interaction edges whose endpoint pair also carries an
    adjacency edge, plus the per-edge-class breakdown."""
    adjacent_pairs = {(e.source, e.target) for e in graphs.adjacency_edges}
    count = 0
    by_class = {cls.value: 0 for cls in EdgeClass}
    for edge in graphs.interaction_edges:
        key = tuple(sorted((edge.source, edge.target)))
        if key in adjacent_pairs:
            count += 1
            by_class[edge.edge_class.value] += 1
    return count, by_class


def summarize_corpus(corpus: Sequence[DashboardGraphs]) -> dict[str, Any]:
    """The ``summary.json`` document of a corpus of graph pairs."""
    if not corpus:
        raise EmptyCorpus("cannot summarize an empty corpus")

    block_counts = {t.value: 0 for t in BlockType}
    blocks_per_dashboard = []
    chart_type_presence: Counter[str] = Counter()
    interactive_edge_counts = []
    saturations: list[Fraction] = []
    pooled_realized = 0
    pooled_possible = 0
    edge_class_presence = {cls.value: 0 for cls in EdgeClass}
    itype_counts: Counter[str] = Counter()
    patterns: Counter[str] = Counter()
    overlap_total = 0
    overlap_by_class = {cls.value: 0 for cls in EdgeClass}
    interactions_total = 0

    for graphs in corpus:
        blocks_per_dashboard.append(len(graphs.nodes))
        for block in graphs.nodes:
            block_counts[block.block_type.value] += 1
        chart_type_presence.update({n.vis_type for n in graphs.nodes if n.vis_type is not None})

        n_edges = len(graphs.interaction_edges)
        interactions_total += n_edges
        possible = max_possible_interactions(graphs.nodes)
        if n_edges > 0:
            interactive_edge_counts.append(n_edges)
            if possible > 0:
                saturations.append(Fraction(n_edges, possible))
            pooled_realized += n_edges
            pooled_possible += possible
            for cls in {e.edge_class.value for e in graphs.interaction_edges}:
                edge_class_presence[cls] += 1
            itype_counts.update(e.itype for e in graphs.interaction_edges)

        node_ids = [b.id for b in graphs.nodes]
        pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
        cliques = maximal_cliques(node_ids, pairs)
        patterns.update(count_clique_patterns(cliques, graphs.nodes_by_id()))

        count, by_class = interaction_adjacency_overlap(graphs)
        overlap_total += count
        for cls, c in by_class.items():
            overlap_by_class[cls] += c

    n = len(corpus)
    n_interactive = len(interactive_edge_counts)
    total_blocks = sum(block_counts.values())
    return {
        "n_dashboards": n,
        "block_counts": block_counts,
        "block_shares": {
            t: (c / total_blocks if total_blocks else 0.0) for t, c in block_counts.items()
        },
        "blocks_per_dashboard": _distribution(blocks_per_dashboard),
        "chart_type_presence_shares": {t: c / n for t, c in sorted(chart_type_presence.items())},
        "n_interactive": n_interactive,
        "interactive_share": n_interactive / n,
        "interaction_edges": (
            _distribution(interactive_edge_counts) if interactive_edge_counts else None
        ),
        "saturation": {
            "mean_per_dashboard": (
                float(sum(saturations) / len(saturations)) if saturations else None
            ),
            "median": float(median(saturations)) if saturations else None,
            "mode": float(_mode(saturations)) if saturations else None,
            "pooled": pooled_realized / pooled_possible if pooled_possible else None,
        },
        "edge_class_presence_shares": {
            cls: (c / n_interactive if n_interactive else 0.0)
            for cls, c in edge_class_presence.items()
        },
        "interaction_type_counts": dict(sorted(itype_counts.items())),
        "clique_patterns": dict(sorted(patterns.items())),
        "adjacency_interaction_overlap": {
            "n_interactions": interactions_total,
            "n_overlapping": overlap_total,
            "fraction": overlap_total / interactions_total if interactions_total else 0.0,
            "by_class": overlap_by_class,
        },
    }


# --- linting ----------------------------------------------------------------

LINT_RULES = {
    "R1": ("partial-scope-filter", "warning"),
    "R2": ("orphan-legend", "warning"),
    "R3": ("isolated-block", "info"),
    "R4": ("static-with-widgets", "warning"),
}


@dataclass(frozen=True)
class LintFinding:
    rule: str
    dashboard_id: str
    subjects: tuple[str, ...]
    message: str

    @property
    def severity(self) -> str:
        return LINT_RULES[self.rule][1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "name": LINT_RULES[self.rule][0],
            "severity": self.severity,
            "dashboard_id": self.dashboard_id,
            "subjects": list(self.subjects),
            "message": self.message,
        }


def lint(graphs: DashboardGraphs) -> list[LintFinding]:
    """Evaluate the structural lint rules against one dashboard.

    R1 partial-scope-filter: a filter drives some but not all charts.
    R2 orphan-legend: a legend with no interaction edges and no
       adjacency edge to any chart.
    R3 isolated-block: a block with no adjacency edges at all.
    R4 static-with-widgets: filters/legends present, yet the dashboard
       has no interaction edges.
    """
    findings: list[LintFinding] = []
    dash = graphs.dashboard_id
    chart_ids = {b.id for b in graphs.nodes if b.block_type is BlockType.CHART}
    adjacency_of: dict[str, set[str]] = {b.id: set() for b in graphs.nodes}
    for e in graphs.adjacency_edges:
        adjacency_of[e.source].add(e.target)
        adjacency_of[e.target].add(e.source)
    interaction_touch: dict[str, int] = {b.id: 0 for b in graphs.nodes}
    targets_of: dict[str, set[str]] = {}
    for e in graphs.interaction_edges:
        interaction_touch[e.source] += 1
        interaction_touch[e.target] += 1
        targets_of.setdefault(e.source, set()).add(e.target)

    for block in graphs.nodes:
        if block.block_type is BlockType.FILTER:
            wired = targets_of.get(block.id, set()) & chart_ids
            if wired and wired < chart_ids:
                missing = sorted(chart_ids - wired)
                message = (
                    f"filter {block.id} drives {len(wired)} of {len(chart_ids)} charts"
                    f" (not wired: {', '.join(missing)})"
                )
                findings.append(LintFinding("R1", dash, (block.id,), message))
        if block.block_type is BlockType.LEGEND:
            adjacent_charts = adjacency_of[block.id] & chart_ids
            if interaction_touch[block.id] == 0 and not adjacent_charts:
                message = f"legend {block.id} is connected to no chart, spatially or interactively"
                findings.append(LintFinding("R2", dash, (block.id,), message))
        if not adjacency_of[block.id]:
            message = f"block {block.id} has no spatial neighbors"
            findings.append(LintFinding("R3", dash, (block.id,), message))

    widgets = sorted(
        b.id
        for b in graphs.nodes
        if b.block_type in (BlockType.FILTER, BlockType.LEGEND)
    )
    if widgets and not graphs.interaction_edges:
        message = f"dashboard has {len(widgets)} filter/legend block(s) but no interactions"
        findings.append(LintFinding("R4", dash, tuple(widgets), message))

    findings.sort(key=lambda f: (f.rule, f.dashboard_id, f.subjects))
    return findings


def lint_corpus(corpus: Iterable[DashboardGraphs]) -> list[LintFinding]:
    findings = [f for graphs in corpus for f in lint(graphs)]
    findings.sort(key=lambda f: (f.rule, f.dashboard_id, f.subjects))
    return findings
