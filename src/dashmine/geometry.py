"""Spatial adjacency detection and construction of the two dashboard graphs.

Blocks are closed axis-aligned rectangles ``[x, x+w] x [y, y+h]`` in
integer pixels.  Two blocks are spatially adjacent in exactly one of
three configurations, with precedence containment > partial overlap >
adjoining:

* containment: one rectangle lies entirely inside the other (boundary
  contact counts; identical rectangles are mutual containment),
* partial overlap: the interiors intersect without containment,
* adjoining: disjoint interiors separated along exactly one axis by a
  gap of at most the tolerance, with positive projection overlap on the
  other axis.  Corner-touching pairs are NOT adjacent.

:func:`build_interaction_graph` is the one place where declared actions
become interaction edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping, Sequence

from .model import (
    AdjacencyConfig,
    AdjacencyEdge,
    Block,
    BlockType,
    Dashboard,
    DashboardGraphs,
    GraphNode,
    InteractionEdge,
    classify_interaction,
)

DEFAULT_TOLERANCE_PX = 10


@dataclass(frozen=True)
class Tolerance:
    """Maximum pixel gap at which two non-overlapping blocks still adjoin."""

    t: int = DEFAULT_TOLERANCE_PX

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("tolerance must be >= 0")


def detect_adjacency(a: Block, b: Block, tol: Tolerance = Tolerance()) -> AdjacencyConfig | None:
    """Classify the spatial relation of two blocks, or None if unrelated."""
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    overlap_x = min(ax2, bx2) - max(a.x, b.x)
    overlap_y = min(ay2, by2) - max(a.y, b.y)

    a_in_b = b.x <= a.x and ax2 <= bx2 and b.y <= a.y and ay2 <= by2
    b_in_a = a.x <= b.x and bx2 <= ax2 and a.y <= b.y and by2 <= ay2
    if a_in_b or b_in_a:
        return AdjacencyConfig.CONTAINMENT
    if overlap_x > 0 and overlap_y > 0:
        return AdjacencyConfig.PARTIAL_OVERLAP
    # Interiors disjoint: adjoining needs separation along exactly one
    # axis (gap <= tolerance) and positive projection overlap on the other.
    if overlap_x <= 0 and overlap_y > 0 and -overlap_x <= tol.t:
        return AdjacencyConfig.ADJOINING
    if overlap_y <= 0 and overlap_x > 0 and -overlap_y <= tol.t:
        return AdjacencyConfig.ADJOINING
    return None


def build_adjacency_graph(
    blocks: Sequence[Block], tol: Tolerance = Tolerance()
) -> list[AdjacencyEdge]:
    """One canonical undirected edge per adjacent unordered pair.

    Edges are stored with ``source < target`` and sorted by
    (source, target), so the result is independent of input order.
    """
    edges = []
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            config = detect_adjacency(a, b, tol)
            if config is None:
                continue
            source, target = sorted((a.id, b.id))
            edges.append(AdjacencyEdge(source, target, config))
    edges.sort(key=lambda e: (e.source, e.target))
    return edges


def build_interaction_graph(
    dashboard: Dashboard, counters: MutableMapping[str, int] | None = None
) -> list[InteractionEdge]:
    """Turn declared actions into a simple directed interaction graph.

    Every action endpoint is a block, since a :class:`Dashboard` checks
    that at construction.  Each action in declaration order: the edge
    class is derived from the endpoint block types, and actions whose
    endpoints form none of the three supported classes are dropped
    (counted under ``counters["dropped"]`` when a mapping is given);
    self-loops are removed; duplicates collapse on (source, target, edge
    class), keeping the declared interaction type of the first
    occurrence.  Output is sorted by (source, target, edge class).
    """
    by_id = dashboard.blocks_by_id()
    seen: set[tuple[str, str, str]] = set()
    edges = []
    for action in dashboard.declared_interactions:
        edge_class = classify_interaction(
            by_id[action.source].block_type, by_id[action.target].block_type
        )
        if edge_class is None:
            if counters is not None:
                counters["dropped"] = counters.get("dropped", 0) + 1
            continue
        key = (action.source, action.target, edge_class.value)
        if action.source == action.target or key in seen:
            continue
        seen.add(key)
        edges.append(InteractionEdge(action.source, action.target, action.action_type, edge_class))
    edges.sort(key=lambda e: (e.source, e.target, e.edge_class.value))
    return edges


def max_possible_interactions(nodes: Sequence[GraphNode]) -> int:
    """Upper bound on interaction edges: (charts-1+legends+filters)*charts.

    Every filter and legend may drive every chart, and every chart may
    drive every other chart.  Zero charts admit no interactions.
    """
    n_charts = sum(1 for n in nodes if n.block_type is BlockType.CHART)
    if n_charts == 0:
        return 0
    n_legends = sum(1 for n in nodes if n.block_type is BlockType.LEGEND)
    n_filters = sum(1 for n in nodes if n.block_type is BlockType.FILTER)
    return (n_charts - 1 + n_legends + n_filters) * n_charts


def build_graphs(dashboard: Dashboard, tol: Tolerance = Tolerance()) -> DashboardGraphs:
    """Derive the adjacency and interaction graphs of one dashboard.

    Each block becomes a :class:`GraphNode` (id, type and, for a chart,
    its ``vis_type``); geometry and other props stay on the dashboard.
    The dashboard's block ids are unique by construction, so every graph
    built here meets the :class:`DashboardGraphs` invariants.
    """
    return DashboardGraphs(
        dashboard_id=dashboard.id,
        nodes=tuple(
            GraphNode(
                b.id, b.block_type, b.props.vis_type if b.block_type is BlockType.CHART else None
            )
            for b in dashboard.blocks
        ),
        adjacency_edges=tuple(build_adjacency_graph(dashboard.blocks, tol)),
        interaction_edges=tuple(build_interaction_graph(dashboard)),
    )
