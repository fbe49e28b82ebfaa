"""Corpus-level descriptive statistics and graph-structure linting.

Distribution conventions: the block-count distribution covers every
dashboard; interaction-edge counts, saturation and edge-class presence
shares are computed over *interactive* dashboards only (those with at
least one interaction edge), matching how such corpora are usually
summarized.  Mode ties resolve to the smallest value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Any, Iterable, Sequence

from .errors import EmptyCorpus
from .analysis import clique_pattern, maximal_cliques
from .geometry import max_possible_interactions
from .model import BlockType, ChartProps, DashboardGraphs, EdgeClass


def _mode(values: Iterable) -> Any:
    """Most frequent value; ties resolve to the smallest."""
    counts: dict[Any, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


@dataclass(frozen=True)
class Distribution:
    min: float
    max: float
    median: float
    mode: float

    @classmethod
    def of(cls, values: Sequence) -> "Distribution":
        return cls(
            min=float(min(values)),
            max=float(max(values)),
            median=float(median(values)),
            mode=float(_mode(values)),
        )

    def to_dict(self) -> dict[str, float]:
        return {"min": self.min, "max": self.max, "median": self.median, "mode": self.mode}


@dataclass(frozen=True)
class OverlapBreakdown:
    """Interaction edges whose endpoints are also spatially adjacent."""

    n_interactions: int
    n_overlapping: int
    by_class: dict[str, int]

    @property
    def fraction(self) -> float:
        return self.n_overlapping / self.n_interactions if self.n_interactions else 0.0


@dataclass(frozen=True)
class CorpusSummary:
    n_dashboards: int
    block_counts: dict[str, int]
    block_shares: dict[str, float]
    blocks_per_dashboard: Distribution
    chart_type_presence_shares: dict[str, float]
    n_interactive: int
    interactive_share: float
    interaction_edges_dist: Distribution | None
    saturation_mean_per_dashboard: float | None
    saturation_median: float | None
    saturation_mode: float | None
    saturation_pooled: float | None
    edge_class_presence_shares: dict[str, float]
    interaction_type_counts: dict[str, int]
    clique_patterns: dict[str, int]
    overlap: OverlapBreakdown

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_dashboards": self.n_dashboards,
            "block_counts": self.block_counts,
            "block_shares": self.block_shares,
            "blocks_per_dashboard": self.blocks_per_dashboard.to_dict(),
            "chart_type_presence_shares": self.chart_type_presence_shares,
            "n_interactive": self.n_interactive,
            "interactive_share": self.interactive_share,
            "interaction_edges": (
                self.interaction_edges_dist.to_dict() if self.interaction_edges_dist else None
            ),
            "saturation": {
                "mean_per_dashboard": self.saturation_mean_per_dashboard,
                "median": self.saturation_median,
                "mode": self.saturation_mode,
                "pooled": self.saturation_pooled,
            },
            "edge_class_presence_shares": self.edge_class_presence_shares,
            "interaction_type_counts": self.interaction_type_counts,
            "clique_patterns": self.clique_patterns,
            "adjacency_interaction_overlap": {
                "n_interactions": self.overlap.n_interactions,
                "n_overlapping": self.overlap.n_overlapping,
                "fraction": self.overlap.fraction,
                "by_class": self.overlap.by_class,
            },
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


def summarize_corpus(corpus: Sequence[DashboardGraphs]) -> CorpusSummary:
    """Aggregate the descriptive statistics of a corpus of graph pairs."""
    if not corpus:
        raise EmptyCorpus("cannot summarize an empty corpus")

    block_counts = {t.value: 0 for t in BlockType}
    blocks_per_dashboard = []
    chart_type_presence = {}
    interactive_edge_counts = []
    saturations: list[Fraction] = []
    pooled_realized = 0
    pooled_possible = 0
    edge_class_presence = {cls.value: 0 for cls in EdgeClass}
    itype_counts: dict[str, int] = {}
    patterns: dict[str, int] = {}
    overlap_total = 0
    overlap_by_class = {cls.value: 0 for cls in EdgeClass}
    interactions_total = 0

    for graphs in corpus:
        blocks_per_dashboard.append(len(graphs.nodes))
        for block in graphs.nodes:
            block_counts[block.block_type.value] += 1
        seen_types = set()
        for block in graphs.nodes:
            if isinstance(block.props, ChartProps):
                seen_types.add(block.props.vis_type.name)
        for name in seen_types:
            chart_type_presence[name] = chart_type_presence.get(name, 0) + 1

        n_edges = len(graphs.interaction_edges)
        interactions_total += n_edges
        possible = max_possible_interactions(graphs.nodes)
        if n_edges > 0:
            interactive_edge_counts.append(n_edges)
            if possible > 0:
                saturations.append(Fraction(n_edges, possible))
            pooled_realized += n_edges
            pooled_possible += possible
            present = {e.edge_class.value for e in graphs.interaction_edges}
            for cls in present:
                edge_class_presence[cls] += 1
            for e in graphs.interaction_edges:
                itype_counts[e.itype] = itype_counts.get(e.itype, 0) + 1

        node_ids = [b.id for b in graphs.nodes]
        pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
        blocks = graphs.nodes_by_id()
        for clique in maximal_cliques(node_ids, pairs):
            pattern = clique_pattern(clique, blocks)
            patterns[pattern] = patterns.get(pattern, 0) + 1

        count, by_class = interaction_adjacency_overlap(graphs)
        overlap_total += count
        for cls, c in by_class.items():
            overlap_by_class[cls] += c

    n = len(corpus)
    n_interactive = len(interactive_edge_counts)
    total_blocks = sum(block_counts.values())
    return CorpusSummary(
        n_dashboards=n,
        block_counts=block_counts,
        block_shares={
            t: (c / total_blocks if total_blocks else 0.0) for t, c in block_counts.items()
        },
        blocks_per_dashboard=Distribution.of(blocks_per_dashboard),
        chart_type_presence_shares={
            t: c / n for t, c in sorted(chart_type_presence.items())
        },
        n_interactive=n_interactive,
        interactive_share=n_interactive / n,
        interaction_edges_dist=(
            Distribution.of(interactive_edge_counts) if interactive_edge_counts else None
        ),
        saturation_mean_per_dashboard=(
            float(sum(saturations) / len(saturations)) if saturations else None
        ),
        saturation_median=float(median(saturations)) if saturations else None,
        saturation_mode=float(_mode(saturations)) if saturations else None,
        saturation_pooled=(
            pooled_realized / pooled_possible if pooled_possible else None
        ),
        edge_class_presence_shares={
            cls: (c / n_interactive if n_interactive else 0.0)
            for cls, c in edge_class_presence.items()
        },
        interaction_type_counts=dict(sorted(itype_counts.items())),
        clique_patterns=dict(sorted(patterns.items())),
        overlap=OverlapBreakdown(
            n_interactions=interactions_total,
            n_overlapping=overlap_total,
            by_class=overlap_by_class,
        ),
    )


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
    severity: str
    dashboard_id: str
    subjects: tuple[str, ...]
    message: str

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
                findings.append(
                    LintFinding(
                        rule="R1",
                        severity="warning",
                        dashboard_id=dash,
                        subjects=(block.id,),
                        message=(
                            f"filter {block.id} drives {len(wired)} of {len(chart_ids)} charts"
                            f" (not wired: {', '.join(missing)})"
                        ),
                    )
                )
        if block.block_type is BlockType.LEGEND:
            adjacent_charts = adjacency_of[block.id] & chart_ids
            if interaction_touch[block.id] == 0 and not adjacent_charts:
                findings.append(
                    LintFinding(
                        rule="R2",
                        severity="warning",
                        dashboard_id=dash,
                        subjects=(block.id,),
                        message=f"legend {block.id} is connected to no chart, spatially or interactively",
                    )
                )
        if not adjacency_of[block.id]:
            findings.append(
                LintFinding(
                    rule="R3",
                    severity="info",
                    dashboard_id=dash,
                    subjects=(block.id,),
                    message=f"block {block.id} has no spatial neighbors",
                )
            )

    widgets = sorted(
        b.id
        for b in graphs.nodes
        if b.block_type in (BlockType.FILTER, BlockType.LEGEND)
    )
    if widgets and not graphs.interaction_edges:
        findings.append(
            LintFinding(
                rule="R4",
                severity="warning",
                dashboard_id=dash,
                subjects=tuple(widgets),
                message=f"dashboard has {len(widgets)} filter/legend block(s) but no interactions",
            )
        )

    findings.sort(key=lambda f: (f.rule, f.dashboard_id, f.subjects))
    return findings


def lint_corpus(corpus: Iterable[DashboardGraphs]) -> list[LintFinding]:
    findings = [f for graphs in corpus for f in lint(graphs)]
    findings.sort(key=lambda f: (f.rule, f.dashboard_id, f.subjects))
    return findings
