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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ingest import extract_actions
from .model import (
    AdjacencyConfig,
    AdjacencyKind,
    Block,
    BlockType,
    Connection,
    Dashboard,
    DashboardGraphs,
    InteractionKind,
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


def build_adjacency_graph(blocks: Sequence[Block], tol: Tolerance = Tolerance()) -> list[Connection]:
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
            edges.append(Connection(source=source, target=target, kind=AdjacencyKind(config)))
    edges.sort(key=lambda e: (e.source, e.target))
    return edges


def build_interaction_graph(
    blocks: Sequence[Block], declared: Iterable[Connection]
) -> list[Connection]:
    """Prune declared interaction connections into a simple directed graph.

    Self-loops are removed and duplicates collapse on
    (source, target, edge class); the declared interaction type of the
    first occurrence is kept.  Output is sorted by
    (source, target, edge class).
    """
    ids = {b.id for b in blocks}
    seen: set[tuple[str, str, str]] = set()
    edges = []
    for conn in declared:
        if not isinstance(conn.kind, InteractionKind):
            raise TypeError("build_interaction_graph expects interaction connections")
        if conn.source == conn.target:
            continue
        if conn.source not in ids or conn.target not in ids:
            raise ValueError(f"interaction endpoint not among blocks: {conn.source}->{conn.target}")
        key = (conn.source, conn.target, conn.kind.edge_class.value)
        if key in seen:
            continue
        seen.add(key)
        edges.append(conn)
    edges.sort(key=lambda e: (e.source, e.target, e.kind.edge_class.value))
    return edges


def max_possible_interactions(blocks: Sequence[Block]) -> int:
    """Upper bound on interaction edges: (charts-1+legends+filters)*charts.

    Every filter and legend may drive every chart, and every chart may
    drive every other chart.  Zero charts admit no interactions.
    """
    n_charts = sum(1 for b in blocks if b.block_type is BlockType.CHART)
    if n_charts == 0:
        return 0
    n_legends = sum(1 for b in blocks if b.block_type is BlockType.LEGEND)
    n_filters = sum(1 for b in blocks if b.block_type is BlockType.FILTER)
    return (n_charts - 1 + n_legends + n_filters) * n_charts


def build_graphs(dashboard: Dashboard, tol: Tolerance = Tolerance()) -> DashboardGraphs:
    """Derive the adjacency and interaction graphs of one dashboard."""
    declared = extract_actions(dashboard)
    return DashboardGraphs(
        dashboard_id=dashboard.id,
        nodes=dashboard.blocks,
        adjacency_edges=tuple(build_adjacency_graph(dashboard.blocks, tol)),
        interaction_edges=tuple(build_interaction_graph(dashboard.blocks, declared)),
    )
